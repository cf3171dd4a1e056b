"""Command-line surface: ingest, analyze, export.

One binary with subcommands ``hurst``, ``dcca``, ``network``, ``synth``
and ``report``.  Every run resolves its flags into a single config,
validates it before touching the filesystem, computes everything, then
writes all files in one pass together with ``run_manifest.json``.  The
manifest stores the exact argv, so feeding it back through
:func:`rerun_from_manifest` reproduces the outputs byte for byte.

Exit codes: 0 success, 1 validation error, 2 runtime failure, 3 partial
failure under --strict.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .dcca import DccaMatrix, pairwise_matrix, rho_vs_scale
from .errors import LongmemError, SchemaError
from .hurst import (
    HurstDistribution,
    detect_crossover,
    hurst_distribution,
    map_members,
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
    DetrendMethod,
    ScaleGrid,
    default_grid,
    dfa,
    dma,
    fluctuation,
)
from .series import (
    RatePanel,
    align,
    load_panel,
    panel_to_csv,
    series_profile,
)
from .synthetic import BlockSpec, FgnSpec, generate_blocks, generate_fgn

__all__ = ["main", "rerun_from_manifest", "RunConfig", "ConfigError"]

_FORMATS = ("table", "json", "graphml", "dot")
_MANIFEST_NAME = "run_manifest.json"


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
    seed: int = 0
    threads: int = 1
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
    fit_max: int | None = 250
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
        out = {}
        for f in fields(self):
            if f.name == "argv":
                continue
            value = getattr(self, f.name)
            if isinstance(value, DetrendMethod):
                value = value.to_json_dict()
            elif f.name == "periods":
                value = [[a.isoformat(), b.isoformat()] for a, b in value]
            elif isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[f.name] = value
        return out


# ---------------------------------------------------------------- parsing


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated integers, got {text!r}")
    if not values:
        raise ConfigError(f"{what}: empty list")
    return tuple(sorted(set(values)))


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
        d_from = dt.date.fromisoformat(parts[0])
        d_to = dt.date.fromisoformat(parts[1])
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
    m = re.fullmatch(r"(\d+)x(\d+)", text.strip())
    if not m:
        raise ConfigError(f"--blocks expects 'BxM' (e.g. 3x5), got {text!r}")
    return (int(m.group(1)), int(m.group(2)))


def _add_common(p: argparse.ArgumentParser, *, with_input: bool = True):
    if with_input:
        p.add_argument("--input", required=True, help="panel file (see docs for schema)")
    p.add_argument("--output-dir", required=True, help="directory for all outputs")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="recorded in the manifest, no effect on the run "
                        "(default: LONGMEM_THREADS or 1)")
    p.add_argument("--format", default="all",
                   help="comma list of table,json,graphml,dot (default all)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when some series fail instead of continuing")


def _add_method(p: argparse.ArgumentParser):
    p.add_argument("--method", choices=("dma", "dfa"), default="dma",
                   help="detrending method (default dma)")
    p.add_argument("--dfa-order", type=int, default=1,
                   help="polynomial order for dfa (default 1)")
    p.add_argument("--dma-alignment", choices=("centered", "backward"),
                   default="centered", help="moving-average window placement")
    p.add_argument("--align", choices=("intersect", "forward_fill"),
                   default="intersect", dest="align_policy",
                   help="panel alignment policy (default intersect)")
    p.add_argument("--max-gap", type=int, default=None,
                   help="largest missing run forward_fill may bridge")
    p.add_argument("--input-kind", choices=("levels", "increments"),
                   default="levels",
                   help="treat columns as rate levels (default) or as "
                        "ready-made increments, e.g. synthetic noise panels")


def _add_grid(p: argparse.ArgumentParser, s_min: int, s_max: int | None, num: int):
    p.add_argument("--smin", type=int, default=s_min,
                   help=f"smallest grid scale (default {s_min})")
    p.add_argument("--smax", type=int, default=s_max,
                   help="largest grid scale (default: "
                        + (str(s_max) if s_max else "min(250, N/4)") + ")")
    p.add_argument("--num-scales", type=int, default=num,
                   help=f"number of log-spaced scales (default {num})")
    p.add_argument("--scales", default=None,
                   help="explicit comma list of scales, overrides the grid flags")


def _add_fit(p: argparse.ArgumentParser):
    p.add_argument("--fit-min", type=int, default=None,
                   help="smallest scale used in the exponent fit")
    p.add_argument("--fit-max", type=int, default=250,
                   help="largest scale used in the exponent fit (default 250)")
    p.add_argument("--bin-width", type=float, default=0.02,
                   help="histogram bin width (default 0.02)")
    p.add_argument("--crossover-threshold", type=float, default=0.5,
                   help="SSE improvement ratio required (default 0.5)")
    p.add_argument("--min-side-points", type=int, default=3,
                   help="fit points required each side of a breakpoint")


def _add_pairs(p: argparse.ArgumentParser):
    p.add_argument("--pair", action="append", default=[], metavar="A,B",
                   help="series pair for a coefficient-vs-scale curve "
                        "(repeatable)")


def _add_scale(p: argparse.ArgumentParser):
    p.add_argument("--scale", default="50,150,250",
                   help="comma list of matrix and network scales "
                        "(default 50,150,250)")


def _add_network(p: argparse.ArgumentParser):
    _add_scale(p)
    p.add_argument("--threshold", type=float, default=0.8,
                   help="minimum |coefficient| for an edge (default 0.8)")
    p.add_argument("--resolution", type=float, default=1.0,
                   help="modularity resolution (default 1.0)")
    p.add_argument("--period", action="append", default=[],
                   metavar="FROM:TO",
                   help="date window YYYY-MM-DD:YYYY-MM-DD (repeatable); "
                        "when given, outputs go to period_<k>/ subdirectories")


def build_parser() -> _Parser:
    parser = _Parser(prog="longmem",
                     description="Long-memory and cross-correlation analysis "
                                 "of rate panels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("hurst", help="per-series scaling exponents + histogram")
    _add_common(p)
    _add_method(p)
    _add_grid(p, 10, None, 20)
    _add_fit(p)
    p.add_argument("--crossover", action="store_true",
                   help="also run breakpoint detection on an extended grid")

    p = sub.add_parser("dcca", help="cross-correlation curves and matrices")
    _add_common(p)
    _add_method(p)
    _add_grid(p, 5, 500, 40)
    _add_pairs(p)
    p.add_argument("--all", action="store_true", dest="all_pairs",
                   help="full pairwise matrix at each --scale")
    _add_scale(p)

    p = sub.add_parser("network", help="thresholded networks + communities")
    _add_common(p)
    _add_method(p)
    _add_network(p)

    p = sub.add_parser("synth", help="generate synthetic panels")
    _add_common(p, with_input=False)
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--fgn", action="store_true",
                      help="single correlated-noise series")
    kind.add_argument("--blocks", default=None, metavar="BxM",
                      help="B blocks of M members sharing a common component")
    p.add_argument("--hurst", type=float, required=True, dest="hurst_value",
                   help="target exponent in (0, 1)")
    p.add_argument("--n", type=int, required=True, dest="n_obs",
                   help="observations per series")
    p.add_argument("--weight", type=float, default=None,
                   help="common-component weight in [0, 1] (blocks only)")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="noise standard deviation (default 1.0)")

    p = sub.add_parser("report", help="full pipeline: exponents, crossover, "
                                      "matrices, networks, degree curves")
    _add_common(p)
    _add_method(p)
    _add_grid(p, 10, None, 20)
    _add_fit(p)
    _add_pairs(p)
    _add_network(p)

    return parser


def _resolve_threads(value: int | None) -> int:
    if value is None:
        raw = os.environ.get("LONGMEM_THREADS", "1")
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"LONGMEM_THREADS: not an integer: {raw!r}")
    if value < 1:
        raise ConfigError(f"--threads must be >= 1, got {value}")
    return value


def _resolve_method(ns) -> DetrendMethod:
    try:
        if ns.method == "dfa":
            return dfa(ns.dfa_order)
        return dma(ns.dma_alignment)
    except ValueError as exc:
        raise ConfigError(str(exc))


def resolve_config(ns: argparse.Namespace, argv: list[str]) -> RunConfig:
    """Turn parsed flags into a validated RunConfig; no filesystem writes."""
    common = dict(
        command=ns.command,
        argv=tuple(argv),
        output_dir=ns.output_dir,
        seed=ns.seed,
        threads=_resolve_threads(ns.threads),
        formats=_parse_formats(ns.format),
        strict=ns.strict,
    )

    if ns.command == "synth":
        kind = "fgn" if ns.fgn else "blocks"
        blocks = _parse_blocks(ns.blocks) if kind == "blocks" else None
        if not 0.0 < ns.hurst_value < 1.0:
            raise ConfigError(f"--hurst must be in (0, 1), got {ns.hurst_value}")
        if ns.n_obs < 16:
            raise ConfigError(f"--n must be >= 16, got {ns.n_obs}")
        if ns.sigma <= 0.0:
            raise ConfigError(f"--sigma must be positive, got {ns.sigma}")
        if kind == "blocks":
            if ns.weight is None:
                raise ConfigError("--blocks requires --weight")
            if not 0.0 <= ns.weight <= 1.0:
                raise ConfigError(f"--weight must be in [0, 1], got {ns.weight}")
            if blocks[0] < 2 or blocks[1] < 2:
                raise ConfigError(f"--blocks needs at least 2x2, got "
                                  f"{blocks[0]}x{blocks[1]}")
        elif ns.weight is not None:
            raise ConfigError("--weight only applies to --blocks")
        return RunConfig(**common, synth_kind=kind, blocks=blocks,
                         hurst_value=ns.hurst_value, n_obs=ns.n_obs,
                         weight=ns.weight, sigma=ns.sigma)

    if not os.path.isfile(ns.input):
        raise ConfigError(f"--input: no such file: {ns.input}")
    common.update(
        input=ns.input,
        method=_resolve_method(ns),
        align_policy=ns.align_policy,
        max_gap=ns.max_gap,
        input_kind=ns.input_kind,
    )
    if ns.align_policy == "forward_fill" and (ns.max_gap is None or ns.max_gap < 1):
        raise ConfigError("--align forward_fill requires --max-gap >= 1")

    grid_args = {}
    if hasattr(ns, "smin"):
        scales = _parse_int_list(ns.scales, "--scales") if ns.scales else None
        if ns.smin < 2:
            raise ConfigError(f"--smin must be >= 2, got {ns.smin}")
        if ns.smax is not None and ns.smax < ns.smin:
            raise ConfigError(f"--smax {ns.smax} below --smin {ns.smin}")
        if ns.num_scales < 3:
            raise ConfigError(f"--num-scales must be >= 3, got {ns.num_scales}")
        if scales and scales[0] < 2:
            raise ConfigError(f"--scales: scale {scales[0]} < 2")
        grid_args = dict(s_min=ns.smin, s_max=ns.smax,
                         num_scales=ns.num_scales, scales=scales)

    fit_args = {}
    if hasattr(ns, "fit_max"):
        if (ns.fit_min is not None and ns.fit_max is not None
                and ns.fit_min > ns.fit_max):
            raise ConfigError(f"--fit-min {ns.fit_min} above --fit-max {ns.fit_max}")
        if ns.bin_width <= 0.0:
            raise ConfigError(f"--bin-width must be positive, got {ns.bin_width}")
        if not 0.0 < ns.crossover_threshold < 1.0:
            raise ConfigError("--crossover-threshold must be in (0, 1), got "
                              f"{ns.crossover_threshold}")
        if ns.min_side_points < 2:
            raise ConfigError(f"--min-side-points must be >= 2, got "
                              f"{ns.min_side_points}")
        fit_args = dict(fit_min=ns.fit_min, fit_max=ns.fit_max,
                        bin_width=ns.bin_width,
                        crossover=getattr(ns, "crossover", True),
                        crossover_threshold=ns.crossover_threshold,
                        min_side_points=ns.min_side_points)

    pair_args = {}
    if hasattr(ns, "pair"):
        pair_args["pairs"] = tuple(_parse_pair(p) for p in ns.pair)
    if hasattr(ns, "all_pairs"):
        pair_args["all_pairs"] = ns.all_pairs
        if not ns.all_pairs and not ns.pair:
            raise ConfigError("dcca needs --pair and/or --all")

    net_args = {}
    if hasattr(ns, "scale"):
        net_args["matrix_scales"] = _parse_int_list(ns.scale, "--scale")
        if net_args["matrix_scales"][0] < 2:
            raise ConfigError(f"--scale: scale {net_args['matrix_scales'][0]} < 2")
    if hasattr(ns, "threshold"):
        if not 0.0 < ns.threshold <= 1.0:
            raise ConfigError(f"--threshold must be in (0, 1], got {ns.threshold}")
        if ns.resolution <= 0.0:
            raise ConfigError(f"--resolution must be positive, got {ns.resolution}")
        net_args["threshold"] = ns.threshold
        net_args["resolution"] = ns.resolution
    if hasattr(ns, "period"):
        net_args["periods"] = tuple(_parse_period(p) for p in ns.period)

    return RunConfig(**common, **grid_args, **fit_args, **pair_args, **net_args)


# ------------------------------------------------------------- execution


def _fmt(x: float) -> str:
    return repr(float(x))


def _safe_name(s: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", s)


def _load_aligned(cfg: RunConfig) -> RatePanel:
    panel = load_panel(cfg.input)
    return align(panel, policy=cfg.align_policy, max_gap=cfg.max_gap)


def _profile_length(cfg: RunConfig, panel: RatePanel) -> int:
    return len(panel.days) - (1 if cfg.input_kind == "levels" else 0)


def _analysis_grid(cfg: RunConfig, n_profile: int) -> ScaleGrid:
    if cfg.scales:
        return ScaleGrid(cfg.scales, s_min=min(2, cfg.scales[0]))
    return default_grid(n_profile, s_min=cfg.s_min, s_max=cfg.s_max,
                        num=cfg.num_scales)


def _crossover_grid(cfg: RunConfig, n_profile: int) -> ScaleGrid:
    """Extended grid for breakpoint search: past the fit cap, up to 500."""
    if cfg.scales:
        return ScaleGrid(cfg.scales, s_min=min(2, cfg.scales[0]))
    s_max = cfg.s_max if cfg.s_max is not None else min(500, n_profile // 2)
    return default_grid(n_profile, s_min=cfg.s_min, s_max=s_max,
                        num=max(cfg.num_scales, 25))


def _crossover_rows(cfg: RunConfig, panel: RatePanel, grid: ScaleGrid
                    ) -> tuple[list[dict], list[tuple[str, str]]]:
    def search(ts):
        f = fluctuation(series_profile(ts, input_kind=cfg.input_kind), grid,
                        cfg.method)
        return detect_crossover(f, min_side_points=cfg.min_side_points,
                                improvement_threshold=cfg.crossover_threshold)

    results, failures = map_members(search, panel)
    rows = [rep.to_json_dict() for _, rep in results]
    rows += [{"series_id": sid, "error": msg} for sid, msg in failures]
    rows.sort(key=lambda r: r["series_id"])
    return rows, failures


def _crossover_table(rows: list[dict]) -> str:
    lines = ["id,breakpoint_scale,slope_left,slope_right,sse_single,"
             "sse_piecewise,improvement_ratio"]
    for r in rows:
        if "error" in r:
            lines.append(f"{r['series_id']},error,,,,,")
            continue
        bp = "" if r["breakpoint_scale"] is None else str(r["breakpoint_scale"])
        lines.append(
            f"{r['series_id']},{bp},{_fmt(r['slope_left'])},"
            f"{_fmt(r['slope_right'])},{_fmt(r['sse_single'])},"
            f"{_fmt(r['sse_piecewise'])},{_fmt(r['improvement_ratio'])}"
        )
    return "\n".join(lines) + "\n"


def _failures_table(failures) -> str:
    lines = ["id,error"]
    for sid, msg in failures:
        lines.append(f"{sid},{json.dumps(msg)}")
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_pairs(cfg: RunConfig, panel: RatePanel) -> None:
    missing = sorted({sid for pair in cfg.pairs for sid in pair} - set(panel.ids))
    if missing:
        raise ConfigError(f"unknown series id(s) in --pair: {', '.join(missing)}")


def _failure_code(cfg: RunConfig, failures: list[tuple[str, str]]) -> int:
    for sid, msg in failures:
        print(f"failed: {sid}: {msg}", file=sys.stderr)
    return 3 if failures and cfg.strict else 0


def _hurst_outputs(cfg: RunConfig, panel: RatePanel, prefix: str,
                   files: dict[str, str]
                   ) -> tuple[HurstDistribution, list[tuple[str, str]]]:
    """Exponents, histogram and (with cfg.crossover) breakpoint rows.

    Returns the distribution and every per-series failure, fit and
    crossover alike, in id order.
    """
    n_prof = _profile_length(cfg, panel)
    dist = hurst_distribution(
        panel, cfg.method, grid=_analysis_grid(cfg, n_prof),
        fit_range=(cfg.fit_min, cfg.fit_max), bin_width=cfg.bin_width,
        input_kind=cfg.input_kind,
    )
    payload = dist.to_json_dict()
    failures = list(dist.failures)
    if cfg.crossover:
        rows, crossover_failures = _crossover_rows(
            cfg, panel, _crossover_grid(cfg, n_prof))
        payload["crossover"] = rows
        failures += [(sid, f"crossover: {msg}") for sid, msg in crossover_failures]
        failures.sort(key=lambda f: f[0])
        if "table" in cfg.formats:
            files[f"{prefix}crossover.csv"] = _crossover_table(rows)
    payload["failures"] = [{"series_id": i, "error": m} for i, m in failures]
    if "table" in cfg.formats:
        files[f"{prefix}hurst_estimates.csv"] = dist.estimates_table()
        files[f"{prefix}hurst_histogram.csv"] = dist.histogram_table()
        if failures:
            files[f"{prefix}failures.csv"] = _failures_table(failures)
    if "json" in cfg.formats:
        files[f"{prefix}hurst.json"] = _json_text(payload)
    return dist, failures


def _dcca_outputs(cfg: RunConfig, panel: RatePanel, prefix: str,
                  files: dict[str, str], curve_grid: ScaleGrid | None,
                  with_matrices: bool) -> list[DccaMatrix]:
    """Curves for cfg.pairs, then (if asked) one matrix per cfg.matrix_scales.

    Returns the matrices so a caller can build networks from them.
    """
    payload: dict = {"pairs": [], "matrices": []}
    for k, (a, b) in enumerate(cfg.pairs):
        curve = rho_vs_scale(panel.member(a), panel.member(b), grid=curve_grid,
                             method=cfg.method, input_kind=cfg.input_kind)
        payload["pairs"].append(curve.to_json_dict())
        if "table" in cfg.formats:
            name = f"rho_curve_{k:02d}_{_safe_name(a)}__{_safe_name(b)}.csv"
            files[prefix + name] = curve.to_table()
    matrices = _matrices(cfg, panel) if with_matrices else []
    for m in matrices:
        payload["matrices"].append(m.to_json_dict())
        if "table" in cfg.formats:
            files[f"{prefix}rho_matrix_s{m.scale}.csv"] = m.to_table()
    if "json" in cfg.formats:
        files[f"{prefix}dcca.json"] = _json_text(payload)
    return matrices


def _matrices(cfg: RunConfig, panel: RatePanel) -> list[DccaMatrix]:
    return [pairwise_matrix(panel, s, cfg.method, input_kind=cfg.input_kind)
            for s in cfg.matrix_scales]


def _network_outputs(cfg: RunConfig, panel: RatePanel, prefix: str,
                     files: dict[str, str],
                     matrices: list[DccaMatrix] | None = None) -> None:
    """Networks, partitions and degree curves, per --period window if any.

    ``matrices`` are the whole panel's, reused when there are no periods.
    """
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
                print(f"warning: empty network at s={m.scale} "
                      f"(threshold {cfg.threshold})", file=sys.stderr)
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
            if "graphml" in cfg.formats:
                files[stem + ".graphml"] = to_graphml(net, part)
            if "dot" in cfg.formats:
                files[stem + ".dot"] = to_dot(net, part)
            if "table" in cfg.formats:
                files[f"{sub_prefix}partition_s{m.scale}.csv"] = part.to_table()
        if "table" in cfg.formats:
            lines = ["s,average_weighted_degree"]
            lines += [f"{s},{_fmt(d)}" for s, d in degree_rows]
            files[f"{sub_prefix}degree_vs_scale.csv"] = "\n".join(lines) + "\n"
    if "json" in cfg.formats:
        files[f"{prefix}network.json"] = _json_text(payload)


def _run_hurst(cfg: RunConfig, files: dict[str, str]) -> int:
    dist, failures = _hurst_outputs(cfg, _load_aligned(cfg), "", files)
    lo, hi = dist.mode_bin
    print(f"estimated {len(dist.estimates)} series, {len(dist.failures)} failed; "
          f"mode bin [{lo:.2f}, {hi:.2f})")
    return _failure_code(cfg, failures)


def _run_dcca(cfg: RunConfig, files: dict[str, str]) -> int:
    panel = _load_aligned(cfg)
    if cfg.all_pairs and len(panel) < 2:
        raise ConfigError("--all needs a panel with at least 2 series")
    _check_pairs(cfg, panel)
    curve_grid = None
    if cfg.pairs:
        curve_grid = _analysis_grid(cfg, _profile_length(cfg, panel))
    matrices = _dcca_outputs(cfg, panel, "", files, curve_grid, cfg.all_pairs)
    print(f"wrote {len(cfg.pairs)} curve(s), {len(matrices)} matrix(es)")
    return 0


def _run_network(cfg: RunConfig, files: dict[str, str]) -> int:
    panel = _load_aligned(cfg)
    if len(panel) < 2:
        raise ConfigError("network needs a panel with at least 2 series")
    _network_outputs(cfg, panel, "", files)
    return 0


def _run_synth(cfg: RunConfig, files: dict[str, str]) -> int:
    if cfg.synth_kind == "fgn":
        spec = FgnSpec(n=cfg.n_obs, hurst=cfg.hurst_value, seed=cfg.seed,
                       sigma=cfg.sigma)
        ts = generate_fgn(spec)
        panel = RatePanel((ts,))
    else:
        n_blocks, block_size = cfg.blocks
        spec = BlockSpec(n_blocks=n_blocks, block_size=block_size,
                         common_weight=cfg.weight, hurst=cfg.hurst_value,
                         n=cfg.n_obs, seed=cfg.seed, sigma=cfg.sigma)
        panel = generate_blocks(spec)
    files["panel.csv"] = panel_to_csv(panel)
    print(f"generated {len(panel)} series x {len(panel.days)} observations")
    return 0


def _run_report(cfg: RunConfig, files: dict[str, str]) -> int:
    """The hurst, dcca and network outputs of one panel, in subdirectories.

    Report has no --crossover flag; its config always sets crossover.
    Curves, built only for --pair, use the dcca default span rather than
    the exponent grid.  Matrices and networks need at least two series,
    and the networks reuse the dcca matrices unless --period splits the
    panel.
    """
    panel = _load_aligned(cfg)
    _check_pairs(cfg, panel)
    _, failures = _hurst_outputs(cfg, panel, "hurst/", files)
    curve_grid = None
    if cfg.pairs:
        n_prof = _profile_length(cfg, panel)
        curve_grid = default_grid(n_prof, s_min=5, s_max=min(500, n_prof // 2),
                                  num=40)
    matrices = _dcca_outputs(cfg, panel, "dcca/", files, curve_grid,
                             len(panel) >= 2)
    if matrices:
        _network_outputs(cfg, panel, "network/", files, matrices)
    return _failure_code(cfg, failures)


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


def _write_all(cfg: RunConfig, files: dict[str, str]) -> None:
    os.makedirs(cfg.output_dir, exist_ok=True)
    for rel in sorted(files):
        path = os.path.join(cfg.output_dir, rel)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(files[rel])


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = resolve_config(ns, argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)

    print(f"seed: {cfg.seed}")
    files: dict[str, str] = {}
    try:
        code = _RUNNERS[cfg.command](cfg, files)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LongmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    files[_MANIFEST_NAME] = _manifest(cfg)
    try:
        _write_all(cfg, files)
    except OSError as exc:
        print(f"error: cannot write outputs to {cfg.output_dir}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {len(files)} file(s) to {cfg.output_dir}")
    return code


def rerun_from_manifest(manifest_path: str) -> int:
    """Re-execute a recorded run; outputs are byte-identical on the same data."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    return main(manifest["argv"])
