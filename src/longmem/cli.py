"""Command-line surface: ingest, analyze, export.

One binary with subcommands ``hurst``, ``dcca``, ``network``, ``synth``
and ``report``.  Every run resolves its flags into a single config,
validates it before touching the filesystem, and hands the command's runner
one run record, ``_Run``, that collects every output text and per-series
failure.  ``main`` alone reports warnings and failures, writes all files
in one pass together with ``run_manifest.json`` and picks the exit code.
The manifest stores the exact argv, the whole run (no setting is read from
the environment), so feeding it back through :func:`rerun_from_manifest`
reproduces the outputs byte for byte on the same machine, with the same
numpy/BLAS build.  ``main`` runs the command on ``--threads`` BLAS threads.

Exit codes: 0 success, 1 validation error, 2 runtime failure or a bug (any
exception but a LongmemError), 3 partial failure under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import functools
import glob
import json
import math
import os
import platform
import re
import sys
import warnings
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .dcca import DccaMatrix, pairwise_matrix, rho_vs_scale
from .errors import LongmemError, SchemaError
from .hurst import (
    HurstDistribution,
    _failures,
    _map_fluctuations,
    detect_crossover,
    hurst_distribution,
)
from .network import (
    average_weighted_degree,
    build_network,
    detect_communities,
    split_periods,
    to_dot,
    to_graphml,
)
from .scaling import (
    _DEFAULT_SCALE_CAP,
    DetrendMethod,
    ScaleGrid,
    default_grid,
    dfa,
    dma,
)
from .series import (
    RatePanel,
    _ascii_number,
    _iso_date,
    _profile_length,
    align,
    load_panel,
    panel_to_csv,
)
from .synthetic import BlockSpec, FgnSpec, generate_blocks, generate_fgn

__all__ = ["main", "rerun_from_manifest", "RunConfig", "ConfigError"]

_FORMATS = ("table", "json", "graphml", "dot")
# The output kind of each file extension, for the --format filter.
_KINDS = {".csv": "table", ".json": "json", ".graphml": "graphml", ".dot": "dot"}
_MANIFEST_NAME = "run_manifest.json"
_WRITE_CHARS = 2**20  # characters per write: the encoder holds one slice's bytes


class ConfigError(Exception):
    """Invalid flags or inputs, detected before anything is written."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route through ConfigError for exit 1
    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; serialized into the manifest."""

    command: str
    argv: tuple[str, ...]
    output_dir: str
    threads: int = 1  # BLAS threads, set from argv alone so a rerun replays it
    seed: int = 0
    formats: tuple[str, ...] = _FORMATS
    strict: bool = False
    input: str | None = None
    method: DetrendMethod | None = None
    align_policy: str = "intersect"
    max_gap: int | None = None
    input_kind: str = "levels"
    s_min: int = 10
    s_max: int | None = None
    num_scales: int = 20
    scales: tuple[int, ...] | None = None
    fit_min: int | None = None
    fit_max: int | None = _DEFAULT_SCALE_CAP
    bin_width: float = 0.02
    crossover: bool = False
    crossover_threshold: float = 0.5
    min_side_points: int = 3
    pairs: tuple[tuple[str, str], ...] = ()
    all_pairs: bool = False
    matrix_scales: tuple[int, ...] = (50, 150, 250)
    threshold: float = 0.8
    resolution: float = 1.0
    periods: tuple[tuple[dt.date, dt.date], ...] = ()
    synth_kind: str | None = None
    blocks: tuple[int, int] | None = None
    hurst_value: float | None = None
    n_obs: int | None = None
    weight: float | None = None
    sigma: float = 1.0

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "argv"}
        if self.method is not None:
            out["method"] = self.method.to_json_dict()
        out["periods"] = [[a.isoformat(), b.isoformat()] for a, b in self.periods]
        return out


# ---------------------------------------------------------------- parsing
#
# Every flag parses straight into the RunConfig field named by its dest, and
# its default is that field's default.  Subparsers leave an unset flag off
# the namespace, so a command only overrides a default through
# set_defaults.  The parsers below raise ConfigError, which argparse does
# not catch: main reports it and exits 1.

_DEFAULT = {f.name: f.default for f in fields(RunConfig)}


def _parse_int_list(flag: str, text: str) -> tuple[int, ...]:
    try:
        values = tuple(_ascii_number(p, int) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}")
    if not values:
        raise ConfigError(f"{flag}: empty list")
    return tuple(sorted(set(values)))


def _parse_int(text: str) -> int:
    """An ASCII integer; argparse names the flag in the error."""
    try:
        return _ascii_number(text, int)
    except ValueError:  # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_float(text: str) -> float:
    """A finite ASCII number; argparse names the flag in the error."""
    try:
        value = _ascii_number(text)
    except ValueError:  # the message argparse gives for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_pair(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f"--pair expects 'id_a,id_b', got {text!r}")
    return (parts[0], parts[1])


def _parse_period(text: str) -> tuple[dt.date, dt.date]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"--period expects 'YYYY-MM-DD:YYYY-MM-DD', got {text!r}")
    try:
        d_from = _iso_date(parts[0])
        d_to = _iso_date(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--period {text!r}: {exc}")
    if d_from > d_to:
        raise ConfigError(f"--period {text!r}: start after end")
    return (d_from, d_to)


def _parse_formats(text: str) -> tuple[str, ...]:
    wanted = [p.strip() for p in text.split(",") if p.strip()]
    if not wanted:
        raise ConfigError("--format: empty list")
    if "all" in wanted:
        return _FORMATS
    bad = [w for w in wanted if w not in _FORMATS]
    if bad:
        raise ConfigError(
            f"--format: unknown format(s) {', '.join(bad)}; "
            f"choose from {', '.join(_FORMATS)} or 'all'"
        )
    return tuple(f for f in _FORMATS if f in wanted)


def _parse_blocks(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"([0-9]+)x([0-9]+)", text.strip())
    if not m:
        raise ConfigError(f"--blocks expects 'BxM' (e.g. 3x5), got {text!r}")
    return (int(m.group(1)), int(m.group(2)))


def _add_common(p: argparse.ArgumentParser, *, with_input: bool = True):
    if with_input:
        p.add_argument("--input", required=True, help="panel file (see docs for schema)")
    p.add_argument("--output-dir", required=True, help="directory for all outputs")
    p.add_argument("--seed", type=_parse_int,
                   help=f"RNG seed (default {_DEFAULT['seed']})")
    p.add_argument("--threads", type=_parse_int,
                   help="BLAS threads for the run, recorded in the manifest "
                        f"(default {_DEFAULT['threads']})")
    p.add_argument("--format", type=_parse_formats, dest="formats",
                   metavar="FORMAT",
                   help="comma list of table,json,graphml,dot (default all)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when some series fail instead of continuing")


def _add_method(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=("dma", "dfa"),
                   help="detrending method (default dma)")
    p.add_argument("--dfa-order", type=_parse_int,
                   help="polynomial order for dfa (default 1)")
    p.add_argument("--dma-alignment", choices=("centered", "backward"),
                   help="moving-average window placement")
    p.add_argument("--align", choices=("intersect", "forward_fill"),
                   dest="align_policy",
                   help=f"panel alignment policy (default {_DEFAULT['align_policy']})")
    p.add_argument("--max-gap", type=_parse_int,
                   help="largest missing run forward_fill may bridge")
    p.add_argument("--input-kind", choices=("levels", "increments"),
                   help="treat columns as rate levels (default) or as "
                        "ready-made increments, e.g. synthetic noise panels")


def _add_grid(p: argparse.ArgumentParser, **overrides):
    """Grid flags; ``overrides`` replace RunConfig's defaults for this command."""
    p.set_defaults(**overrides)
    d = {**_DEFAULT, **overrides}
    p.add_argument("--smin", type=_parse_int, dest="s_min", metavar="SMIN",
                   help=f"smallest grid scale (default {d['s_min']})")
    p.add_argument("--smax", type=_parse_int, dest="s_max", metavar="SMAX",
                   help=f"largest grid scale (default: {d['s_max'] or 'min(250, N/4)'})")
    p.add_argument("--num-scales", type=_parse_int,
                   help=f"number of log-spaced scales (default {d['num_scales']})")
    p.add_argument("--scales", type=functools.partial(_parse_int_list, "--scales"),
                   help="explicit comma list of scales, overrides the grid flags")


def _add_fit(p: argparse.ArgumentParser):
    p.add_argument("--fit-min", type=_parse_int,
                   help="smallest scale used in the exponent fit")
    p.add_argument("--fit-max", type=_parse_int,
                   help="largest scale used in the exponent fit "
                        f"(default {_DEFAULT['fit_max']})")
    p.add_argument("--bin-width", type=_parse_float,
                   help=f"histogram bin width (default {_DEFAULT['bin_width']})")
    p.add_argument("--crossover-threshold", type=_parse_float,
                   help="SSE improvement ratio required "
                        f"(default {_DEFAULT['crossover_threshold']})")
    p.add_argument("--min-side-points", type=_parse_int,
                   help="fit points required each side of a breakpoint")


def _add_pairs(p: argparse.ArgumentParser):
    p.add_argument("--pair", action="append", type=_parse_pair, dest="pairs",
                   metavar="A,B",
                   help="series pair for a coefficient-vs-scale curve "
                        "(repeatable)")


def _add_scale(p: argparse.ArgumentParser):
    p.add_argument("--scale", type=functools.partial(_parse_int_list, "--scale"),
                   dest="matrix_scales", metavar="SCALE",
                   help="comma list of matrix and network scales (default "
                        + ",".join(map(str, _DEFAULT["matrix_scales"])) + ")")


def _add_network(p: argparse.ArgumentParser):
    _add_scale(p)
    p.add_argument("--threshold", type=_parse_float,
                   help="minimum |coefficient| for an edge "
                        f"(default {_DEFAULT['threshold']})")
    p.add_argument("--resolution", type=_parse_float,
                   help=f"modularity resolution (default {_DEFAULT['resolution']})")
    p.add_argument("--period", action="append", type=_parse_period,
                   dest="periods", metavar="FROM:TO",
                   help="date window YYYY-MM-DD:YYYY-MM-DD (repeatable); "
                        "when given, outputs go to period_<k>/ subdirectories")


def build_parser() -> _Parser:
    parser = _Parser(prog="longmem",
                     description="Long-memory and cross-correlation analysis "
                                 "of rate panels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, help: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help,
                              argument_default=argparse.SUPPRESS)

    p = command("hurst", "per-series scaling exponents + histogram")
    _add_common(p)
    _add_method(p)
    _add_grid(p)
    _add_fit(p)
    p.add_argument("--crossover", action="store_true",
                   help="also run breakpoint detection on an extended grid")

    p = command("dcca", "cross-correlation curves and matrices")
    _add_common(p)
    _add_method(p)
    _add_grid(p, s_min=5, s_max=500, num_scales=40)
    _add_pairs(p)
    p.add_argument("--all", action="store_true", dest="all_pairs",
                   help="full pairwise matrix at each --scale")
    _add_scale(p)

    p = command("network", "thresholded networks + communities")
    _add_common(p)
    _add_method(p)
    _add_network(p)

    p = command("synth", "generate synthetic panels")
    _add_common(p, with_input=False)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--fgn", action="store_const", const="fgn",
                      dest="synth_kind", help="single correlated-noise series")
    kind.add_argument("--blocks", type=_parse_blocks, metavar="BxM",
                      help="B blocks of M members sharing a common component")
    p.set_defaults(synth_kind="blocks")
    p.add_argument("--hurst", type=_parse_float, required=True, dest="hurst_value",
                   help="target exponent in (0, 1)")
    p.add_argument("--n", type=_parse_int, required=True, dest="n_obs",
                   help="observations per series")
    p.add_argument("--weight", type=_parse_float,
                   help="common-component weight in [0, 1] (blocks only)")
    p.add_argument("--sigma", type=_parse_float,
                   help=f"noise standard deviation (default {_DEFAULT['sigma']})")

    p = command("report", "full pipeline: exponents, crossover, "
                          "matrices, networks, degree curves")
    _add_common(p)
    _add_method(p)
    _add_grid(p)
    _add_fit(p)
    _add_pairs(p)
    _add_network(p)
    p.set_defaults(crossover=True)  # report has no --crossover flag

    return parser


# Each numeric flag's range: (flag, dest, low, high, ends), ends in interval
# notation ("(]" reads (low, high]), None for an unbounded side.  --smax, --n
# and --num-scales meet float64 math, exact up to 2**53; a --blocks factor up
# to 2**27 keeps B*M rows of 16 values within numpy's 2**63 bytes.
_RANGES = (
    ("--threads", "threads", 1, 2 ** 31 - 1, "[]"),  # OpenBLAS takes a C int
    ("--dfa-order", "dfa_order", 1, None, "[]"),
    ("--seed", "seed", 0, None, "[]"),
    ("--smin", "s_min", 2, None, "[]"),
    ("--smax", "s_max", None, 2 ** 53, "[]"),
    ("--num-scales", "num_scales", 3, 2 ** 53, "[]"),
    ("--scales", "scales", 2, None, "[]"),
    ("--min-side-points", "min_side_points", 2, None, "[]"),
    ("--scale", "matrix_scales", 2, None, "[]"),
    ("--n", "n_obs", 16, 2 ** 53, "[]"),
    ("--blocks", "blocks", 2, 2 ** 27, "[]"),
    ("--bin-width", "bin_width", 0, None, "()"),
    ("--crossover-threshold", "crossover_threshold", 0, 1, "()"),
    ("--threshold", "threshold", 0, 1, "(]"),
    ("--resolution", "resolution", 0, None, "()"),
    ("--hurst", "hurst_value", 0, 1, "()"),
    ("--weight", "weight", 0, 1, "[]"),
    ("--sigma", "sigma", 0, None, "()"),
)


def _check_ranges(values: dict) -> None:
    """Raise ConfigError for the first value, by dest, outside its range: a
    float is told its interval, an integer the edge it crossed."""
    for flag, dest, low, high, ends in _RANGES:
        value = values.get(dest)
        if value is None:
            continue
        lo, hi = (min(value), max(value)) if isinstance(value, tuple) else (value, value)
        low_ok = low is None or lo > low or lo == low and ends[0] == "["
        if low_ok and (high is None or hi < high or hi == high and ends[1] == "]"):
            continue
        if dest == "blocks":
            edge = f"most {high}x{high}" if low_ok else f"least {low}x{low}"
            raise ConfigError(f"--blocks needs at {edge}, got {value[0]}x{value[1]}")
        if isinstance(value, tuple):
            raise ConfigError(f"{flag}: scale {lo} < {low}")
        if isinstance(value, int):
            rule = f"<= {high}" if low_ok else f">= {low}"
        else:  # a float range is (0, inf) or bounded by 1
            rule = f"in {ends[0]}{low}, {high}{ends[1]}" if high else "positive"
        raise ConfigError(f"{flag} must be {rule}, got {value}")


def _resolve_method(ns) -> DetrendMethod:
    kind = getattr(ns, "method", "dma")
    if kind == "dma" and hasattr(ns, "dfa_order"):
        raise ConfigError("--dfa-order only applies to --method dfa")
    if kind == "dfa" and hasattr(ns, "dma_alignment"):
        raise ConfigError("--dma-alignment only applies to --method dma")
    if kind == "dma":
        return dma(getattr(ns, "dma_alignment", "centered"))
    return dfa(getattr(ns, "dfa_order", 1))


def _check(cfg: RunConfig) -> None:
    """Raise ConfigError for the first failed rule that relates settings.

    Every RunConfig default passes every rule, so a command is only checked
    on the flags it has.  Each flag's own range is in ``_RANGES``.
    """
    if cfg.align_policy == "forward_fill" and (cfg.max_gap is None or cfg.max_gap < 1):
        raise ConfigError("--align forward_fill requires --max-gap >= 1")
    if cfg.align_policy != "forward_fill" and cfg.max_gap is not None:
        raise ConfigError("--max-gap only applies to --align forward_fill")
    if cfg.s_max is not None and cfg.s_max < cfg.s_min:
        raise ConfigError(f"--smax {cfg.s_max} below --smin {cfg.s_min}")
    if cfg.fit_min is not None and cfg.fit_max is not None and cfg.fit_min > cfg.fit_max:
        raise ConfigError(f"--fit-min {cfg.fit_min} above --fit-max {cfg.fit_max}")
    if cfg.command == "dcca" and not cfg.all_pairs and not cfg.pairs:
        raise ConfigError("dcca needs --pair and/or --all")
    if cfg.synth_kind == "blocks" and cfg.weight is None:
        raise ConfigError("--blocks requires --weight")
    if cfg.synth_kind == "fgn" and cfg.weight is not None:
        raise ConfigError("--weight only applies to --blocks")
    # numpy sizes an array below 2**63 bytes, so below 2**60 float64 values
    if cfg.blocks and math.prod(cfg.blocks) * cfg.n_obs >= 2 ** 60:
        b, m = cfg.blocks
        raise ConfigError(f"--blocks {b}x{m} with --n {cfg.n_obs} makes "
                          f"{b * m * cfg.n_obs} values, past numpy's 2**63-byte limit")


def resolve_config(ns: argparse.Namespace, argv: list[str]) -> RunConfig:
    """Turn parsed flags into a validated RunConfig; no filesystem writes."""
    # a repeatable flag collects a list; the config holds tuples
    values = {name: tuple(v) if isinstance(v, list) else v
              for name, v in vars(ns).items() if name in _DEFAULT}
    _check_ranges({**vars(ns), **values})
    if ns.command != "synth":
        if not os.path.isfile(ns.input):
            raise ConfigError(f"--input: no such file: {ns.input}")
        values["method"] = _resolve_method(ns)
    cfg = RunConfig(argv=tuple(argv), **values)
    _check(cfg)
    return cfg


# ------------------------------------------------------------- execution


class _Quoted(str):
    """Free text for a CSV cell, always written double-quoted."""


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, _Quoted):  # RFC 4180: quote, double embedded quotes
        return '"' + v.replace('"', '""') + '"'
    return str(v)


def _csv(header, rows) -> str:
    """The one CSV writer: a header line, then one line per row, each LF-ended.

    Every cell but None (an empty cell) is written with ``str``, which gives
    a float's shortest round-trip text, ``np.float64`` too.  Panel labels
    hold no comma, quote or line break (``load_panel`` rejects them), so
    only ``_Quoted`` free text needs quoting.
    """
    lines = [",".join(map(_cell, row)) for row in (header, *rows)]
    return "\n".join(lines) + "\n"


def _safe_name(s: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", s)


def _load_aligned(cfg: RunConfig) -> RatePanel:
    panel = load_panel(cfg.input)
    return align(panel, policy=cfg.align_policy, max_gap=cfg.max_gap)


def _analysis_grid(cfg: RunConfig, n_profile: int,
                   crossover: bool = False) -> ScaleGrid:
    """The --scales list, else the log-spaced grid of the grid flags.

    The crossover grid extends past the fit cap: up to 500 (at most half
    the profile) unless --smax is given, with at least 25 scales.
    """
    if cfg.scales:
        return ScaleGrid(cfg.scales)
    s_max, num = cfg.s_max, cfg.num_scales
    if crossover:
        s_max = s_max if s_max is not None else min(500, n_profile // 2)
        num = max(num, 25)
    return default_grid(n_profile, s_min=cfg.s_min, s_max=s_max, num=num)


class _JsonNumbers(list):
    """JSON number texts, which ``_json_text`` writes as they are."""


def _json_text(obj) -> str:
    """The one JSON writer: ``json.dumps(obj, indent=2, sort_keys=True)``
    and a final newline.

    A ``_JsonNumbers`` list is written from its texts, so numbers already
    formatted for a CSV table are not formatted again.
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, nl: str) -> str:
    """JSON text of ``obj`` nested at the line break and indent ``nl``.

    Follows json's encoder case by case; a dict with a key that is not a
    string, or an object of any other type, is left to ``json.dumps``.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not isinstance(obj, _JsonNumbers):
            obj = [_json_value(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(obj) + nl + "]"
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            _json_str(k) + ": " + _json_value(v, inner)
            for k, v in sorted(obj.items())) + nl + "}")
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def _check_pairs(cfg: RunConfig, panel: RatePanel) -> None:
    missing = sorted({sid for pair in cfg.pairs for sid in pair} - set(panel.ids))
    if missing:
        raise ConfigError(f"unknown series id(s) in --pair: {', '.join(missing)}")


@dataclass
class _Run:
    """One run, made by ``main`` and filled in by its runner: each output's
    text by relative path, and the per-series ``(id, message)`` failures."""

    cfg: RunConfig
    files: dict[str, str] = field(default_factory=dict)
    failures: list[tuple[str, str]] = field(default_factory=list)


def _hurst_outputs(run: _Run, panel: RatePanel, prefix: str) -> HurstDistribution:
    """Exponents, histogram and (with cfg.crossover) breakpoint rows.

    Every per-series failure, fit and crossover alike, goes in id order to
    ``failures.csv`` and to the run's failures.
    """
    cfg, files = run.cfg, run.files
    n_prof = _profile_length(panel, cfg.input_kind)
    dist = hurst_distribution(
        panel, cfg.method, grid=_analysis_grid(cfg, n_prof),
        fit_range=(cfg.fit_min, cfg.fit_max), bin_width=cfg.bin_width,
        input_kind=cfg.input_kind,
    )
    payload = dist.to_json_dict()
    failures = list(dist.failures)
    if cfg.crossover:
        search = functools.partial(
            detect_crossover, min_side_points=cfg.min_side_points,
            improvement_threshold=cfg.crossover_threshold)
        outcomes = _map_fluctuations(
            search, panel, _analysis_grid(cfg, n_prof, crossover=True),
            cfg.method, cfg.input_kind)
        payload["crossover"] = rows = [
            {"series_id": sid, "error": str(got)}
            if isinstance(got, Exception) else got.to_json_dict()
            for sid, got in outcomes]
        # a member failing both keeps its fit failure first
        failures = sorted(failures + _failures(outcomes, "crossover: "),
                          key=lambda f: f[0])
        cols = ("slope_left", "slope_right", "sse_single", "sse_piecewise",
                "improvement_ratio")
        # an error row has no breakpoint key and leaves the other cells empty
        files[f"{prefix}crossover.csv"] = _csv(
            ("id", "breakpoint_scale", *cols),
            ((r["series_id"], r.get("breakpoint_scale", "error"), *map(r.get, cols))
             for r in rows))
    payload["failures"] = [{"series_id": i, "error": m} for i, m in failures]
    files[f"{prefix}hurst_estimates.csv"] = _csv(
        ("id", "hurst", "stderr", "r_squared", "s_lo", "s_hi"),
        ((e.series_id, e.hurst, e.stderr, e.r_squared, *e.fit_range)
         for e in dist.estimates))
    edges = dist.bin_edges
    files[f"{prefix}hurst_histogram.csv"] = _csv(
        ("bin_low", "bin_high", "count"),
        zip(edges[:-1], edges[1:], dist.counts))
    if failures:
        files[f"{prefix}failures.csv"] = _csv(
            ("id", "error"), ((sid, _Quoted(msg)) for sid, msg in failures))
    files[f"{prefix}hurst.json"] = _json_text(payload)
    run.failures += failures
    return dist


def _dcca_outputs(run: _Run, panel: RatePanel, prefix: str,
                  curve_grid: ScaleGrid | None,
                  with_matrices: bool) -> list[DccaMatrix]:
    """Curves for cfg.pairs, then (if asked) one matrix per cfg.matrix_scales.

    Returns the matrices so a caller can build networks from them.
    """
    cfg, files = run.cfg, run.files
    payload: dict = {"pairs": [], "matrices": []}
    for k, (a, b) in enumerate(cfg.pairs):
        curve = rho_vs_scale(panel.member(a), panel.member(b), grid=curve_grid,
                             method=cfg.method, input_kind=cfg.input_kind)
        payload["pairs"].append(curve.to_json_dict())
        name = f"rho_curve_{k:02d}_{_safe_name(a)}__{_safe_name(b)}.csv"
        files[prefix + name] = _csv(("s", "rho"), zip(curve.scales, curve.values))
    matrices = _matrices(cfg, panel) if with_matrices else []
    for m in matrices:
        entry = m.to_json_dict()
        # every coefficient is finite, so its repr is also its JSON text
        entry["rho"] = rows = [_JsonNumbers(map(float.__repr__, row))
                               for row in entry["rho"]]
        payload["matrices"].append(entry)
        files[f"{prefix}rho_matrix_s{m.scale}.csv"] = _csv(
            ("id", *m.ids), ((i, *row) for i, row in zip(m.ids, rows)))
    files[f"{prefix}dcca.json"] = _json_text(payload)
    return matrices


def _matrices(cfg: RunConfig, panel: RatePanel) -> list[DccaMatrix]:
    return [pairwise_matrix(panel, s, cfg.method, input_kind=cfg.input_kind)
            for s in cfg.matrix_scales]


def _network_outputs(run: _Run, panel: RatePanel, prefix: str,
                     matrices: list[DccaMatrix] | None = None) -> None:
    """Networks, partitions and degree curves, per --period window if any.

    ``matrices`` are the whole panel's, reused when there are no periods.
    """
    cfg, files = run.cfg, run.files
    if cfg.periods:
        windows = ((f"{prefix}period_{i}/", _matrices(cfg, sub))
                   for i, sub in enumerate(split_periods(panel, list(cfg.periods)),
                                           start=1))
    else:
        windows = [(prefix, matrices or _matrices(cfg, panel))]
    payload: list[dict] = []
    for sub_prefix, window_matrices in windows:
        degree_rows = []
        for m in window_matrices:
            net = build_network(m, threshold=cfg.threshold)
            if net.n_edges == 0:
                warnings.warn(f"empty network at s={m.scale} "
                              f"(threshold {cfg.threshold})")
            part = detect_communities(net, resolution=cfg.resolution,
                                      seed=cfg.seed)
            deg = average_weighted_degree(net)
            degree_rows.append((m.scale, deg))
            payload.append({
                "prefix": sub_prefix.rstrip("/") or None,
                "network": net.to_json_dict(),
                "partition": part.to_json_dict(),
                "average_weighted_degree": deg,
            })
            stem = f"{sub_prefix}network_s{m.scale}"
            files[stem + ".graphml"] = to_graphml(net, part)
            files[stem + ".dot"] = to_dot(net, part)
            files[f"{sub_prefix}partition_s{m.scale}.csv"] = _csv(
                ("id", "community"), part.assignment)
        files[f"{sub_prefix}degree_vs_scale.csv"] = _csv(
            ("s", "average_weighted_degree"), degree_rows)
    files[f"{prefix}network.json"] = _json_text(payload)


def _run_hurst(run: _Run) -> None:
    dist = _hurst_outputs(run, _load_aligned(run.cfg), "")
    lo, hi = dist.mode_bin
    failed = len({sid for sid, _ in run.failures})
    print(f"estimated {len(dist.estimates)} series, {failed} failed; "
          f"mode bin [{lo:.2f}, {hi:.2f})")


def _run_dcca(run: _Run) -> None:
    cfg = run.cfg
    panel = _load_aligned(cfg)
    if cfg.all_pairs and len(panel) < 2:
        raise ConfigError("--all needs a panel with at least 2 series")
    _check_pairs(cfg, panel)
    curve_grid = (_analysis_grid(cfg, _profile_length(panel, cfg.input_kind))
                  if cfg.pairs else None)
    matrices = _dcca_outputs(run, panel, "", curve_grid, cfg.all_pairs)
    print(f"wrote {len(cfg.pairs)} curve(s), {len(matrices)} matrix(es)")


def _run_network(run: _Run) -> None:
    panel = _load_aligned(run.cfg)
    if len(panel) < 2:
        raise ConfigError("network needs a panel with at least 2 series")
    _network_outputs(run, panel, "")


def _run_synth(run: _Run) -> None:
    cfg = run.cfg
    if cfg.synth_kind == "fgn":
        panel = RatePanel((generate_fgn(FgnSpec(
            n=cfg.n_obs, hurst=cfg.hurst_value, seed=cfg.seed, sigma=cfg.sigma)),))
    else:
        panel = generate_blocks(BlockSpec(
            *cfg.blocks, common_weight=cfg.weight, hurst=cfg.hurst_value,
            n=cfg.n_obs, seed=cfg.seed, sigma=cfg.sigma))
    run.files["panel.csv"] = panel_to_csv(panel)
    print(f"generated {len(panel)} series x {len(panel.days)} observations")


def _run_report(run: _Run) -> None:
    """The hurst, dcca and network outputs of one panel, in subdirectories.

    Report has no --crossover flag; its config always sets crossover.
    Curves, built only for --pair, use the dcca default span rather than
    the exponent grid.  Matrices and networks need at least two series,
    and the networks reuse the dcca matrices unless --period splits the
    panel.
    """
    cfg = run.cfg
    panel = _load_aligned(cfg)
    _check_pairs(cfg, panel)
    _hurst_outputs(run, panel, "hurst/")
    curve_grid = None
    if cfg.pairs:
        n_prof = _profile_length(panel, cfg.input_kind)
        curve_grid = default_grid(n_prof, s_min=5, s_max=min(500, n_prof // 2),
                                  num=40)
    matrices = _dcca_outputs(run, panel, "dcca/", curve_grid, len(panel) >= 2)
    if matrices:
        _network_outputs(run, panel, "network/", matrices)


_RUNNERS = {
    "hurst": _run_hurst,
    "dcca": _run_dcca,
    "network": _run_network,
    "synth": _run_synth,
    "report": _run_report,
}


def _manifest(cfg: RunConfig) -> str:
    return _json_text({
        "command": cfg.command,
        "argv": list(cfg.argv),
        "config": cfg.to_json_dict(),
        "seed": cfg.seed,
        "versions": {
            "longmem": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    })


def _write_all(run: _Run) -> None:
    """Write each file via a ``.tmp`` sibling and os.replace, manifest last.

    A stale manifest is removed first, so a manifest marks a complete run.
    Each text is written in slices of ``_WRITE_CHARS`` characters, so its
    UTF-8 bytes are never held whole beside it.
    """
    manifest = os.path.join(run.cfg.output_dir, _MANIFEST_NAME)
    if os.path.lexists(manifest):
        os.remove(manifest)
    for rel in sorted(run.files, key=lambda rel: (rel == _MANIFEST_NAME, rel)):
        path = os.path.join(run.cfg.output_dir, rel)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        try:
            text = run.files[rel]
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                for i in range(0, len(text), _WRITE_CHARS):
                    fh.write(text[i:i + _WRITE_CHARS])
            os.replace(tmp, path)
        finally:  # after a successful replace there is no tmp left
            if os.path.lexists(tmp):
                os.remove(tmp)


@contextlib.contextmanager
def _blas_threads(n: int):
    """Run the block with numpy's OpenBLAS at n threads, then restore its
    count.  A product's bits can depend on the thread count, so pinning it
    lets a rerun reproduce them on any core count.  A numpy whose BLAS
    exposes no setter is left alone."""
    import ctypes

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                      "*openblas*")):
        handle = ctypes.CDLL(lib)
        for get, put in (("scipy_openblas_get_num_threads64_",
                          "scipy_openblas_set_num_threads64_"),
                         ("openblas_get_num_threads", "openblas_set_num_threads")):
            setter = getattr(handle, put, None)
            if setter is not None:
                old = getattr(handle, get)()
                setter(ctypes.c_int(n))
                try:
                    yield
                finally:
                    setter(old)
                return
    yield


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = build_parser().parse_args(argv)
        cfg = resolve_config(ns, argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    print(f"seed: {cfg.seed}")
    run = _Run(cfg)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                _blas_threads(cfg.threads):
            warnings.simplefilter("always")  # each repeat too, under any -W
            try:
                _RUNNERS[cfg.command](run)
            finally:  # one line per warning, before any error: line
                for w in caught:
                    print(f"warning: {w.message}", file=sys.stderr)
    except (ConfigError, LongmemError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ConfigError, SchemaError)) else 2
    except Exception as exc:  # a bug in longmem, not bad input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for sid, msg in run.failures:
        print(f"failed: {sid}: {msg}", file=sys.stderr)

    # synth's panel.csv is its one output, written under any --format
    if cfg.command != "synth":
        run.files = {rel: text for rel, text in run.files.items()
                     if _KINDS[os.path.splitext(rel)[1]] in cfg.formats}
    run.files[_MANIFEST_NAME] = _manifest(cfg)
    try:
        _write_all(run)
    except OSError as exc:
        print(f"error: cannot write outputs to {cfg.output_dir}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {len(run.files)} file(s) to {cfg.output_dir}")
    return 3 if run.failures and cfg.strict else 0


def rerun_from_manifest(manifest_path: str) -> int:
    """Re-execute a recorded run.

    The outputs are byte-identical on the same data, machine and numpy/BLAS
    build.
    """
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    return main(manifest["argv"])
