"""End-to-end tests for the command line interface.

Every test drives ``longmem.cli.main`` in-process with a real argv list and
inspects exit codes, written files, and the run manifest.  Statistical
quality of the results is covered elsewhere; here we pin down plumbing:
flag parsing, file layout, determinism, and error-path exit codes.
"""

import csv
import datetime as dt
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from longmem.cli import (
    _RANGES,
    _RUNNERS,
    ConfigError,
    _csv,
    _json_text,
    _JsonNumbers,
    _parse_blocks,
    _parse_float,
    _parse_int,
    _parse_int_list,
    _Quoted,
    _write_all,
    build_parser,
    main,
    rerun_from_manifest,
    resolve_config,
)
from longmem.dcca import pairwise_matrix
from longmem.hurst import detect_crossover, fit_hurst
from longmem.network import build_network, detect_communities
from longmem.scaling import FluctuationFunction, default_grid, dma
from longmem.series import RatePanel, TimeSeries, load_panel, panel_to_csv
from longmem.synthetic import (
    BlockSpec,
    FgnSpec,
    generate_blocks,
    generate_fgn,
    trading_dates,
)

from conftest import numpy_fault, planted_fault, ramp_panel, traced_peak
from reference import (
    naive_crossover,
    naive_fluctuation,
    naive_forward_fill,
    naive_modularity,
    naive_rho,
)


def run(args) -> int:
    return main([str(a) for a in args])


def read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().strip().splitlines()
    return [line.split(",") for line in lines]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory) -> Path:
    """Panel files: three co-moving members, a flat-column copy, members
    ``a`` and ``b``, member ``a`` alone, three malformed files (a long row,
    a label with a comma, one with a control character), a 2x2 block
    panel, that panel with a flat member and the levels ramp of
    ``conftest.ramp_panel``.

    Members share a common fGn component (weight 0.8) so pairwise rho is
    strongly positive and the network commands have real edges to work on.
    """
    root = tmp_path_factory.mktemp("cli_panels")
    common = generate_fgn(FgnSpec(n=600, hurst=0.5, seed=10)).values
    members = []
    for name, seed in (("a", 1), ("b", 2), ("c", 3)):
        own = generate_fgn(FgnSpec(n=600, hurst=0.5, seed=seed))
        mixed = 0.8 * common + 0.2 * own.values
        members.append(TimeSeries(name, own.dates, mixed))
    panel = RatePanel(tuple(members))
    (root / "abc.csv").write_text(panel_to_csv(panel))
    flat = TimeSeries("flat", members[0].dates, np.full(600, 3.0))
    with_flat = RatePanel(tuple(members) + (flat,))
    (root / "with_flat.csv").write_text(panel_to_csv(with_flat))
    (root / "ab.csv").write_text(panel_to_csv(RatePanel(tuple(members[:2]))))
    (root / "one.csv").write_text(panel_to_csv(RatePanel(tuple(members[:1]))))
    (root / "ragged.csv").write_text("date,a,b\n2020-01-01,1,2,99\n2020-01-02,3,4\n"
                                     "2020-01-03,5,6\n")
    (root / "comma.csv").write_text('date,"a,b",c\n2020-01-01,1,2\n2020-01-02,3,4\n'
                                    "2020-01-03,5,7\n")
    (root / "control.csv").write_text("date,a,b1\x01m1\n2020-01-01,1,2\n"
                                      "2020-01-02,3,4\n2020-01-03,5,7\n")
    blocks = BlockSpec(n_blocks=2, block_size=2, common_weight=0.5, hurst=0.7,
                       n=600, seed=0)
    block_panel = generate_blocks(blocks)
    (root / "blocks.csv").write_text(panel_to_csv(block_panel))
    (root / "blocks_flat.csv").write_text(
        panel_to_csv(RatePanel((*block_panel.series, flat))))
    (root / "ramp.csv").write_text(panel_to_csv(ramp_panel()))
    return root


# ---------------------------------------------------------------------------
# parsing and validation


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


SHARED_FLAGS = {
    "hurst": ("--fit-min", "--fit-max", "--bin-width",
              "--crossover-threshold", "--min-side-points"),
    "dcca": ("--pair", "--scale"),
    "network": ("--scale", "--threshold", "--resolution", "--period"),
}


def test_shared_flags_match_report():
    import argparse

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def action(command, flag):
        return next(a for a in sub.choices[command]._actions
                    if flag in a.option_strings)

    for command, flags in SHARED_FLAGS.items():
        for flag in flags:
            own, report = action(command, flag), action("report", flag)
            assert own.default == report.default, (command, flag)
            assert own.help and report.help, (command, flag)


def test_every_flag_parses_into_a_config_field():
    import argparse
    from dataclasses import fields

    from longmem.cli import RunConfig

    config_fields = {f.name for f in fields(RunConfig)}
    allowed = config_fields | {"command", "input", "output_dir", "method",
                               "dfa_order", "dma_alignment"}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            where = (command, action.option_strings)
            assert action.dest in allowed, where
            if action.dest in config_fields:
                # the default is the RunConfig field's, or the command's own
                # set_defaults value; never one written on the flag itself
                own = parser._defaults.get(action.dest, argparse.SUPPRESS)
                assert action.default in (argparse.SUPPRESS, own), where


HURST = ["hurst", "--input", "abc.csv"]
NETWORK = ["network", "--input", "abc.csv"]
SYNTH = ["synth", "--blocks", "2x2", "--weight", "0.5", "--hurst", "0.6",
         "--n", "64"]
FLOAT_FLAGS = [(HURST, "--bin-width"), (HURST, "--crossover-threshold"),
               (NETWORK, "--threshold"), (NETWORK, "--resolution"),
               (SYNTH, "--hurst"), (SYNTH, "--weight"), (SYNTH, "--sigma")]


# Input files are read from the panel_dir fixture, and a repeated flag
# overrides the earlier value.
INPUT_RULES = [
    (["hurst", "--input", "nope.csv"], "--input: no such file: nope.csv"),
    (["hurst", "--input", "ragged.csv"],
     "ragged.csv:2: 3 value cells but the header names 2 columns"),
    (["report", "--input", "comma.csv"],
     "comma.csv: column label 'a,b' contains a comma, quote or line break"),
    (["network", "--input", "control.csv"], "control.csv: column label "
     "'b1\\x01m1' contains a character that XML 1.0 does not allow"),
    ([*HURST, "--scales", "10,x"],
     "--scales: expected comma-separated integers, got '10,x'"),
    ([*NETWORK, "--scale", "x"],
     "--scale: expected comma-separated integers, got 'x'"),
    *[(["report", "--input", "abc.csv", f"{flag}={text}"], f"{flag}: empty list")
      for text in ("", ",") for flag in ("--scales", "--scale")],
    (["dcca", "--input", "abc.csv", "--pair", "a"],
     "--pair expects 'id_a,id_b', got 'a'"),
    (["dcca", "--input", "abc.csv"], "dcca needs --pair and/or --all"),
    (["dcca", "--input", "abc.csv", "--pair", "a,zzz"],
     "unknown series id(s) in --pair: zzz"),
    (["report", "--input", "abc.csv", "--pair=a,zzz"],
     "unknown series id(s) in --pair: zzz"),
    ([*NETWORK, "--period", "2020-01-01"],
     "--period expects 'YYYY-MM-DD:YYYY-MM-DD', got '2020-01-01'"),
    ([*NETWORK, "--period", "2020-13-01:2020-12-31"],
     "--period '2020-13-01:2020-12-31': month must be in 1..12"),
    ([*NETWORK, "--period", "2021-01-01:2020-01-01"],
     "--period '2021-01-01:2020-01-01': start after end"),
    ([*NETWORK, "--period", "2020-W01-1:2020-12-31"], "--period "
     "'2020-W01-1:2020-12-31': Invalid isoformat string: '2020-W01-1'"),
    ([*SYNTH, "--blocks", "3"], "--blocks expects 'BxM' (e.g. 3x5), got '3'"),
    ([*SYNTH, "--blocks", "\u0663x5"],
     "--blocks expects 'BxM' (e.g. 3x5), got '\u0663x5'"),
    ([*HURST, "--format", ","], "--format: empty list"),
    ([*HURST, "--format", "csv"], "--format: unknown format(s) csv; "
     "choose from table, json, graphml, dot or 'all'"),
    *[([*base, f"{flag}={text}"],
       f"argument {flag}: not a finite number: '{text}'")
      for base, flag in FLOAT_FLAGS for text in ("nan", "inf", "-inf")],
    ([*NETWORK, "--resolution=high"],
     "argument --resolution: invalid float value: 'high'"),
    # numbers are ASCII decimals: float() and int() read these as 10 and 3
    ([*HURST, "--scales=1_0"],
     "--scales: expected comma-separated integers, got '1_0'"),
    ([*HURST, "--smin", "\u0663"], "argument --smin: invalid int value: '\u0663'"),
    ([*NETWORK, "--resolution", "1_0"],
     "argument --resolution: invalid float value: '1_0'"),
    ([*HURST, "--threads", "0"], "--threads must be >= 1, got 0"),
    # OpenBLAS takes the count as a C int
    ([*HURST, f"--threads={2 ** 31}"],
     "--threads must be <= 2147483647, got 2147483648"),
    ([*HURST, "--method", "dfa", "--dfa-order", "0"],
     "--dfa-order must be >= 1, got 0"),
    ([*HURST, "--dfa-order", "3"], "--dfa-order only applies to --method dfa"),
    ([*HURST, "--method", "dma", "--dfa-order", "3"],
     "--dfa-order only applies to --method dfa"),
    ([*HURST, "--method", "dfa", "--dma-alignment", "backward"],
     "--dma-alignment only applies to --method dma"),
    ([*HURST, "--align", "forward_fill"],
     "--align forward_fill requires --max-gap >= 1"),
    ([*HURST, "--align", "forward_fill", "--max-gap=0"],
     "--align forward_fill requires --max-gap >= 1"),
    ([*HURST, "--max-gap", "3"],
     "--max-gap only applies to --align forward_fill"),
    ([*HURST, "--align", "intersect", "--max-gap=3"],
     "--max-gap only applies to --align forward_fill"),
    ([*HURST, "--smin", "1"], "--smin must be >= 2, got 1"),
    ([*HURST, "--smin", "20", "--smax", "10"], "--smax 10 below --smin 20"),
    # --smax and --n meet float64 math, exact up to 2**53
    ([*HURST, f"--smax={10 ** 20}"],
     f"--smax must be <= 9007199254740992, got {10 ** 20}"),
    ([*HURST, "--num-scales", "2"], "--num-scales must be >= 3, got 2"),
    ([*HURST, "--scales", "1,5"], "--scales: scale 1 < 2"),
    ([*HURST, "--fit-min", "100", "--fit-max", "50"],
     "--fit-min 100 above --fit-max 50"),
    ([*HURST, "--bin-width", "0"], "--bin-width must be positive, got 0.0"),
    ([*HURST, "--crossover-threshold", "1.5"],
     "--crossover-threshold must be in (0, 1), got 1.5"),
    ([*HURST, "--min-side-points", "1"],
     "--min-side-points must be >= 2, got 1"),
    ([*NETWORK, "--scale", "1"], "--scale: scale 1 < 2"),
    ([*NETWORK, "--threshold", "1.01"], "--threshold must be in (0, 1], got 1.01"),
    ([*NETWORK, "--resolution", "0"], "--resolution must be positive, got 0.0"),
    ([*SYNTH, "--n", "8"], "--n must be >= 16, got 8"),
    ([*SYNTH, f"--n={10 ** 20}"], f"--n must be <= 9007199254740992, got {10 ** 20}"),
    ([*SYNTH, "--sigma", "0"], "--sigma must be positive, got 0.0"),
    ([*SYNTH, "--weight", "1.5"], "--weight must be in [0, 1], got 1.5"),
    ([*SYNTH, "--blocks", "1x5"], "--blocks needs at least 2x2, got 1x5"),
    (["synth", "--blocks", "3x5", "--hurst", "0.8", "--n", "128"],
     "--blocks requires --weight"),
    (["synth", "--fgn", "--hurst", "0.5", "--n", "128", "--weight", "0.9"],
     "--weight only applies to --blocks"),
    (["synth", "--fgn", "--hurst", "1.2", "--n", "128"],
     "--hurst must be in (0, 1), got 1.2"),
    (["dcca", "--input", "one.csv", "--all"],
     "--all needs a panel with at least 2 series"),
    (["network", "--input", "one.csv"],
     "network needs a panel with at least 2 series"),
    (["synth", "--fgn", "--hurst", "0.5", "--n", "64", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    ([*NETWORK, "--seed=-1"], "--seed must be >= 0, got -1"),
    (["synth", "--fgn", "--hurst", "0", "--n", "64"],
     "--hurst must be in (0, 1), got 0.0"),
    (["synth", "--fgn", "--hurst", "1", "--n", "64"],
     "--hurst must be in (0, 1), got 1.0"),
    ([*HURST, "--crossover-threshold", "0"],
     "--crossover-threshold must be in (0, 1), got 0.0"),
    ([*HURST, "--crossover-threshold", "1"],
     "--crossover-threshold must be in (0, 1), got 1.0"),
    ([*NETWORK, "--threshold", "0"], "--threshold must be in (0, 1], got 0.0"),
    # too large for numpy to size an array: a flag error, not numpy's
    ([*HURST, f"--num-scales={10 ** 20}"],
     f"--num-scales must be <= 9007199254740992, got {10 ** 20}"),
    ([*SYNTH, f"--blocks={10 ** 20}x2"],
     f"--blocks needs at most 134217728x134217728, got {10 ** 20}x2"),
    # B*M*n float64 values must stay below numpy's 2**63 bytes: 2**60 do not
    ([*SYNTH, f"--blocks={2 ** 27}x{2 ** 27}"], "--blocks 134217728x134217728 "
     "with --n 64 makes 1152921504606846976 values, past numpy's 2**63-byte limit"),
]


# two rows keep the names they had while their messages read differently
RULE_NAMES = {
    "--period '2020-13-01:2020-12-31': month must be in 1..12":
        "--period '2020-13-01:2020-12-31': ",
    "--dfa-order must be >= 1, got 0": "dfa order must be >= 1, got 0",
}


# a row is named by its message, or by a last argument FLAG=VALUE where
# rows share the start of a message
@pytest.mark.parametrize("argv, message", INPUT_RULES, ids=[
    argv[-1] if "=" in argv[-1] else RULE_NAMES.get(message, message)
    for argv, message in INPUT_RULES])
def test_input_rule_exits_one_without_outputs(panel_dir, tmp_path, capsys,
                                              monkeypatch, argv, message):
    assert_rule(argv, 1, message, panel_dir, tmp_path, capsys, monkeypatch)


def assert_rule(argv, code, message, panel_dir, tmp_path, capsys, monkeypatch):
    """Run in panel_dir, ``argv`` exits ``code`` with stderr ``error: message``
    and creates no --output-dir."""
    monkeypatch.chdir(panel_dir)
    out = tmp_path / "out"
    assert run([*argv, "--output-dir", out]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Numeric flags with no row in cli._RANGES, and why
UNBOUNDED = {
    "--max-gap": "its >= 1 belongs to the --align forward_fill rule",
    "--fit-min": "ordered against --fit-max; a value off the grid fails the fit",
    "--fit-max": "ordered against --fit-min; a value off the grid fails the fit",
}


def test_every_numeric_flag_has_one_range_row():
    import argparse

    numeric = {_parse_int, _parse_float, _parse_int_list, _parse_blocks}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags, floats = set(), set()
    for parser in sub.choices.values():
        for action in parser._actions:
            parse = getattr(action.type, "func", action.type)
            if parse not in numeric:
                continue
            flag = action.option_strings[0]
            flags.add(flag)
            if parse is _parse_float:
                floats.add(flag)
            rows = [(f, dest) for f, dest, *_ in _RANGES if f == flag]
            assert rows == ([] if flag in UNBOUNDED else [(flag, action.dest)])
    assert flags == {row[0] for row in _RANGES} | set(UNBOUNDED)
    assert floats == {flag for _, flag in FLOAT_FLAGS}  # FLOAT_EXTREMES runs each


# Accepted range edges, and README's values of 10**20 on unbounded sides: a
# row's run exits 0 (None), or exits 2 with the message its data gives.  A
# run that would ask for more memory than any machine has, or for OpenBLAS's
# largest thread count, is only resolved (CONFIG_ONLY).
CONFIG_ONLY = "config only"
ONE = ["hurst", "--input", "one.csv"]
ACCEPTED_EDGES = [
    ([*HURST, "--threads", "1"], None),
    ([*HURST, f"--threads={2 ** 31 - 1}"], CONFIG_ONLY),
    ([*HURST, "--method", "dfa", "--dfa-order", "1"], None),
    ([*HURST, "--seed", "0"], None),
    ([*NETWORK, f"--seed={10 ** 20}"], None),
    ([*HURST, "--smin", "2"], None),
    ([*HURST, "--num-scales", "3"], None),
    ([*HURST, f"--num-scales={2 ** 53}"], CONFIG_ONLY),
    ([*HURST, "--scales", "2,4,8"], None),
    ([*HURST, "--crossover", "--min-side-points", "2"], None),
    ([*HURST, "--align", "forward_fill", "--max-gap", "1"], None),
    ([*HURST, "--align", "forward_fill", f"--max-gap={10 ** 20}"], None),
    ([*HURST, f"--fit-max={10 ** 20}"], None),
    ([*ONE, "--smin", "20", "--smax", "20"], "no panel member produced a usable "
     "fit: 1 failed (a); 'a': 1 usable scales in [0, 250], need at least 3"),
    ([*ONE, f"--smax={2 ** 53}"], "no panel member produced a usable fit: 1 "
     "failed (a); scale 375 exceeds half the profile length 599"),
    ([*ONE, "--scales", "25,50,100", "--fit-min", "50", "--fit-max", "50"],
     "no panel member produced a usable fit: 1 failed (a); 'a': 1 usable "
     "scales in [50, 50], need at least 3"),
    ([*NETWORK, "--scale", "2"], None),
    (["report", "--input", "one.csv"], None),  # no matrices or networks
    ([*NETWORK, "--threshold", "1"], None),
    ([*NETWORK, "--period", "2000-01-10:2000-01-10"],
     "series 'a': window 2000-01-10..2000-01-10 keeps 1 observations (< 2)"),
    (["synth", "--fgn", "--hurst", "0.5", "--n", "16"], None),
    ([*SYNTH, f"--n={2 ** 53}"], CONFIG_ONLY),
    ([*SYNTH, "--weight", "0"], None),
    ([*SYNTH, "--weight", "1"], None),
    ([*SYNTH, f"--blocks={2 ** 27}x{2 ** 27}", "--n=63"], CONFIG_ONLY),
    # 9 * 25 * 5124095576030431 = 2**60 - 1 values, the most numpy can size
    ([*SYNTH, "--blocks=9x25", "--n=5124095576030431"], CONFIG_ONLY),
]


@pytest.mark.parametrize("argv, outcome", ACCEPTED_EDGES,
                         ids=[" ".join(argv) for argv, _ in ACCEPTED_EDGES])
def test_accepted_edge(panel_dir, tmp_path, capsys, monkeypatch, argv, outcome):
    monkeypatch.chdir(panel_dir)
    out = tmp_path / "out"
    if outcome is CONFIG_ONLY:
        argv = [*argv, "--output-dir", str(out)]
        assert resolve_config(build_parser().parse_args(argv), argv).argv == tuple(argv)
    elif outcome is None:
        assert run([*argv, "--output-dir", out]) == 0
    else:
        assert_rule(argv, 2, outcome, panel_dir, tmp_path, capsys, monkeypatch)


INCREMENTS = ["--input-kind", "increments"]
FLAT_AT_20 = "zero detrended fluctuation at s=20 for ['flat']; coefficient undefined"
# valid configurations whose data cannot give the result: exit 2, no output
RUNTIME_RULES = [
    # dcca keeps the whole 5..500 pair-curve span; a 600-point panel is too
    # short for it, and the failure must surface rather than be clipped
    (["dcca", "--input", "abc.csv", *INCREMENTS, "--pair", "a,b"],
     "scale 312 exceeds half the profile length 600"),
    (["dcca", "--input", "with_flat.csv", *INCREMENTS, "--pair", "flat,a"],
     "zero detrended fluctuation at s=5 for ['flat']; coefficient undefined"),
    # one member with F = 0 at a matrix scale aborts every matrix command
    *[([command, "--input", "with_flat.csv", *INCREMENTS, "--scale", "20"],
       FLAT_AT_20) for command in ("report", "network")],
    (["dcca", "--input", "ramp.csv", "--all", "--scale", "20"],
     "zero detrended fluctuation at s=20 for ['lin']; coefficient undefined"),
    ([*NETWORK, *INCREMENTS, "--period", "2050-01-01:2050-12-31"],
     "series 'a': window 2050-01-01..2050-12-31 keeps 0 observations (< 2)"),
    (["hurst", "--input", "blocks.csv", *INCREMENTS, "--scales", "10,20,400"],
     "no panel member produced a usable fit: 4 failed (b1:m1, b1:m2, b2:m1, "
     "b2:m2); scale 400 exceeds half the profile length 600"),
    # a histogram of 2**60 or more bins: a quotient past the float64 range
    # (a subnormal width), then a finite count numpy cannot size
    (["hurst", "--input", "blocks.csv", *INCREMENTS, "--bin-width", "1e-320"],
     "bin width 1e-320 splits the exponent range [0.640555, 0.767503] into "
     "2**60 or more bins"),
    (["report", "--input", "abc.csv", "--bin-width", "1e-300"],
     "bin width 1e-300 splits the exponent range [0.450668, 0.482318] into "
     "2**60 or more bins"),
]


@pytest.mark.parametrize("argv, message", RUNTIME_RULES, ids=[
    f"{argv[0]}: {message}" for argv, message in RUNTIME_RULES])
def test_runtime_rule_exits_two_without_outputs(panel_dir, tmp_path, capsys,
                                                monkeypatch, argv, message):
    assert_rule(argv, 2, message, panel_dir, tmp_path, capsys, monkeypatch)


def admitted_max(flag):
    """The largest double a float flag's _RANGES row admits."""
    _, _, _, high, ends = next(row for row in _RANGES if row[0] == flag)
    if high is None:
        return sys.float_info.max
    return float(high) if ends[1] == "]" else float(np.nextafter(high, 0.0))


# Each float flag at the smallest double and at the largest its range admits
FLOAT_EXTREMES = [[*base, f"{flag}={value!r}"] for base, flag in FLOAT_FLAGS
                  for value in (5e-324, admitted_max(flag))]


@pytest.mark.parametrize("argv", FLOAT_EXTREMES, ids=" ".join)
def test_float_flag_extremes_end_cleanly(panel_dir, tmp_path, capsys,
                                         monkeypatch, argv):
    monkeypatch.chdir(panel_dir)
    code = run([*argv, "--output-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert lines[-1].startswith("error: ")
        assert [l for l in lines if l.startswith("error:")] == lines[-1:]


def test_oversized_allocation_exits_two(panel_dir, tmp_path, capsys, monkeypatch):
    # about 646 PiB of histogram edges, past any 57-bit address space
    monkeypatch.chdir(panel_dir)
    out = tmp_path / "out"
    assert run(["hurst", "--input", "blocks.csv", "--bin-width", "2e-18",
                "--output-dir", out]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")
    assert not out.exists()


def internal_error(fault) -> str:
    """The message after ``error: `` of a run that ``fault()`` ends."""
    with pytest.raises(Exception) as info:
        fault()
    return f"internal error: {info.type.__name__}: {info.value}"


# a bug in per-member work is no data failure: it fails the whole run, with
# no traceback and no output
@pytest.mark.parametrize("target, real, argv", [
    ("longmem.hurst.fit_hurst", fit_hurst, ["hurst"]),
    ("longmem.cli.detect_crossover", detect_crossover,
     ["report", "--scale", "10", "--threshold", "0.5"]),
], ids=["hurst-fit", "report-crossover"])
def test_a_bug_in_member_work_is_an_internal_error(panel_dir, tmp_path, capsys,
                                                   monkeypatch, target, real,
                                                   argv):
    monkeypatch.setattr(target, planted_fault(real, "b"))
    assert_rule([*argv, "--input", "abc.csv"], 2, internal_error(numpy_fault),
                panel_dir, tmp_path, capsys, monkeypatch)


def test_a_type_error_in_a_runner_is_an_internal_error(panel_dir, tmp_path,
                                                       capsys, monkeypatch):
    def runner(record):
        warnings.warn("before the fault")
        len(None)

    monkeypatch.setitem(_RUNNERS, "hurst", runner)
    monkeypatch.chdir(panel_dir)
    out = tmp_path / "out"
    assert run(["hurst", "--input", "abc.csv", "--output-dir", out]) == 2
    assert capsys.readouterr().err == ("warning: before the fault\nerror: "
                                       f"{internal_error(lambda: len(None))}\n")
    assert not out.exists()


# the whole stdout of each command, named by the command (and by its input
# where a command has two rows); OUT is its --output-dir
STDOUT_RULES = [
    ("--version", ["--version"], "0.1.0\n"),
    ("hurst", [*HURST],
     "seed: 0\nestimated 3 series, 0 failed; mode bin [0.44, 0.46)\n"
     "wrote 4 file(s) to OUT\n"),
    # the flat member fails its fit and its crossover search: one member
    ("hurst-blocks_flat.csv", ["hurst", "--input", "blocks_flat.csv",
                               "--input-kind", "increments", "--crossover"],
     "seed: 0\nestimated 4 series, 1 failed; mode bin [0.64, 0.66)\n"
     "wrote 6 file(s) to OUT\n"),
    ("dcca", ["dcca", "--input", "abc.csv", "--pair", "a,b", "--scales",
              "10,20,40", "--all", "--scale", "10,20"],
     "seed: 0\nwrote 1 curve(s), 2 matrix(es)\nwrote 5 file(s) to OUT\n"),
    # two series are the fewest that dcca --all and network accept
    ("dcca-ab.csv", ["dcca", "--input", "ab.csv", "--all", "--scale", "10"],
     "seed: 0\nwrote 0 curve(s), 1 matrix(es)\nwrote 3 file(s) to OUT\n"),
    ("network", [*NETWORK, "--scale", "10", "--threshold", "0.5"],
     "seed: 0\nwrote 6 file(s) to OUT\n"),
    ("network-ab.csv", ["network", "--input", "ab.csv", "--scale", "10",
                        "--threshold", "0.5"],
     "seed: 0\nwrote 6 file(s) to OUT\n"),
    ("synth", [*SYNTH], "seed: 0\ngenerated 4 series x 64 observations\n"
                        "wrote 2 file(s) to OUT\n"),
    ("report", ["report", "--input", "abc.csv", "--scale", "10", "--threshold",
                "0.5"],
     "seed: 0\nwrote 12 file(s) to OUT\n"),
]


@pytest.mark.parametrize("argv, stdout", [row[1:] for row in STDOUT_RULES],
                         ids=[row[0] for row in STDOUT_RULES])
def test_stdout(panel_dir, tmp_path, capsys, monkeypatch, argv, stdout):
    monkeypatch.chdir(panel_dir)
    out = tmp_path / "out"
    assert run([*argv, "--output-dir", out]) == 0
    assert capsys.readouterr().out == stdout.replace("OUT", str(out))


@pytest.mark.parametrize("flags, method", [
    ([], {"kind": "dma", "alignment": "centered"}),
    (["--dma-alignment", "backward"], {"kind": "dma", "alignment": "backward"}),
    (["--method", "dfa"], {"kind": "dfa", "order": 1}),
    (["--method", "dfa", "--dfa-order", "2"], {"kind": "dfa", "order": 2}),
], ids=["defaults", "dma-backward", "dfa", "dfa2"])
def test_method_flags_reach_the_manifest(panel_dir, tmp_path, flags, method):
    out = tmp_path / "out"
    assert run(["hurst", "--input", panel_dir / "abc.csv", "--output-dir", out,
                "--format", "json", *flags]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["method"] == method


# ---------------------------------------------------------------------------
# synth


def test_synth_fgn_is_deterministic(tmp_path):
    args = ["synth", "--fgn", "--hurst", "0.7", "--n", "2048", "--seed", "1"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert run(args + ["--output-dir", d1]) == 0
    assert run(args + ["--output-dir", d2]) == 0
    assert (d1 / "panel.csv").read_bytes() == (d2 / "panel.csv").read_bytes()


def test_synth_blocks_layout_and_roundtrip(tmp_path):
    out = tmp_path / "out"
    code = run(["synth", "--blocks", "3x5", "--weight", "0.9", "--hurst",
                "0.8", "--n", "256", "--seed", "4", "--output-dir", out])
    assert code == 0
    text = (out / "panel.csv").read_text()
    panel = load_panel(out / "panel.csv")
    assert len(panel) == 15
    assert panel.ids[0] == "b1:m1" and panel.ids[-1] == "b3:m5"
    assert panel_to_csv(panel) == text


def test_manifest_records_argv_and_defaults(panel_dir, tmp_path):
    out = tmp_path / "out"
    argv = ["hurst", "--input", str(panel_dir / "abc.csv"),
            "--output-dir", str(out), "--input-kind", "increments"]
    assert main(argv) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["argv"] == argv
    assert manifest["seed"] == 0
    assert manifest["config"]["fit_max"] == 250
    assert manifest["config"]["input_kind"] == "increments"
    assert set(manifest["versions"]) == {"longmem", "numpy", "python"}


# ---------------------------------------------------------------------------
# hurst


def test_hurst_outputs_and_seed_line(panel_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["hurst", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0] == "seed: 0"
    rows = read_rows(out / "hurst_estimates.csv")
    assert rows[0] == ["id", "hurst", "stderr", "r_squared", "s_lo", "s_hi"]
    assert [r[0] for r in rows[1:]] == ["a", "b", "c"]
    for r in rows[1:]:
        assert 0.3 < float(r[1]) < 0.7  # mixtures of H=0.5 noise
    hist = read_rows(out / "hurst_histogram.csv")
    assert hist[0] == ["bin_low", "bin_high", "count"]
    payload = json.loads((out / "hurst.json").read_text())
    assert {e["series_id"] for e in payload["estimates"]} == {"a", "b", "c"}
    assert "crossover" not in payload
    assert not (out / "failures.csv").exists()


def test_hurst_crossover_flag_adds_table(panel_dir, tmp_path):
    out = tmp_path / "out"
    assert run(["hurst", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--crossover"]) == 0
    rows = read_rows(out / "crossover.csv")
    assert rows[0][0] == "id"
    assert [r[0] for r in rows[1:]] == ["a", "b", "c"]
    payload = json.loads((out / "hurst.json").read_text())
    assert len(payload["crossover"]) == 3


def test_flat_member_is_reported_not_fatal(panel_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["hurst", "--input", panel_dir / "with_flat.csv",
                "--output-dir", out, "--input-kind", "increments"])
    assert code == 0
    assert "flat" in capsys.readouterr().err
    rows = read_rows(out / "failures.csv")
    assert rows[0] == ["id", "error"]
    assert rows[1][0] == "flat"
    est = read_rows(out / "hurst_estimates.csv")
    assert [r[0] for r in est[1:]] == ["a", "b", "c"]


def test_failures_csv_reads_back_as_printed(tmp_path, capsys):
    """Messages with a quote or a non-ASCII letter survive a csv.reader."""
    good = [generate_fgn(FgnSpec(n=600, hurst=0.5, seed=s)) for s in (1, 2)]
    flat = [TimeSeries(sid, good[0].dates, np.full(600, 3.0))
            for sid in ("moody's", "bund_\u00fc", "flat")]
    path = tmp_path / "panel.csv"
    path.write_text(panel_to_csv(RatePanel((*good, *flat))))
    out = tmp_path / "out"
    assert run(["hurst", "--input", path, "--output-dir", out,
                "--input-kind", "increments"]) == 0
    printed = [line.removeprefix("failed: ").split(": ", 1)
               for line in capsys.readouterr().err.splitlines()
               if line.startswith("failed: ")]
    assert [sid for sid, _ in printed] == ["bund_\u00fc", "flat", "moody's"]
    text = (out / "failures.csv").read_text()
    assert list(csv.reader(io.StringIO(text))) == [["id", "error"], *printed]
    # a message without a quote, backslash or non-ASCII letter keeps its bytes
    assert f"flat,{json.dumps(dict(printed)['flat'])}\n" in text


def test_csv_writer_cells():
    text = _csv(("a", "b", "c", "d"),
                [(0.1, None, 3, _Quoted('say "hi", ok')),
                 (np.float64(1e-300), np.int64(2), "x", _Quoted("plain"))])
    assert text == ('a,b,c,d\n0.1,,3,"say ""hi"", ok"\n'
                    '1e-300,2,x,"plain"\n')
    assert list(csv.reader(io.StringIO(text)))[1:] == [
        ["0.1", "", "3", 'say "hi", ok'], ["1e-300", "2", "x", "plain"]]


def test_strict_turns_partial_failure_into_exit_three(panel_dir, tmp_path):
    out = tmp_path / "out"
    code = run(["hurst", "--input", panel_dir / "with_flat.csv",
                "--output-dir", out, "--input-kind", "increments", "--strict"])
    assert code == 3
    # outputs are still written so the failure can be inspected
    assert (out / "failures.csv").exists()
    assert (out / "hurst_estimates.csv").exists()


@pytest.mark.parametrize("command", [["hurst", "--crossover"], ["report"]],
                         ids=lambda c: c[0])
def test_strict_exits_zero_without_failures(panel_dir, tmp_path, command):
    out = tmp_path / "out"
    assert run([*command, "--input", panel_dir / "abc.csv", "--output-dir", out,
                "--input-kind", "increments", "--strict"]) == 0
    assert list(out.rglob("crossover.csv"))
    assert not list(out.rglob("failures.csv"))


# five scales are too few for a crossover search
CROSSOVER_STARVED = ["--input-kind", "increments",
                     "--scales", "10,20,30,40,50", "--strict"]


def test_strict_counts_crossover_failures(panel_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["hurst", "--input", panel_dir / "blocks.csv", "--output-dir", out,
                "--crossover", *CROSSOVER_STARVED])
    assert code == 3
    ids = ["b1:m1", "b1:m2", "b2:m1", "b2:m2"]
    assert [r[:2] for r in read_rows(out / "crossover.csv")[1:]] == [
        [sid, "error"] for sid in ids]
    failures = read_rows(out / "failures.csv")[1:]
    assert [r[0] for r in failures] == ids
    assert all(r[1].startswith('"crossover: ') for r in failures)
    payload = json.loads((out / "hurst.json").read_text())
    assert [f["series_id"] for f in payload["failures"]] == ids
    printed = capsys.readouterr()
    assert "estimated 4 series, 4 failed;" in printed.out
    assert printed.err.count("failed: ") == 4


def test_report_strict_counts_crossover_failures(panel_dir, tmp_path):
    out = tmp_path / "out"
    code = run(["report", "--input", panel_dir / "blocks.csv", "--output-dir", out,
                "--scale", "20", "--threshold", "0.5", *CROSSOVER_STARVED])
    assert code == 3
    assert len(read_rows(out / "hurst" / "failures.csv")) == 5
    assert (out / "network" / "network.json").exists()


def test_report_stderr_order(panel_dir, tmp_path, capsys):
    """Warnings as they occur, then one failed: line per member in id order."""
    code = run(["report", "--input", panel_dir / "blocks.csv", "--output-dir",
                tmp_path / "out", "--scale", "20", "--threshold", "1.0",
                *CROSSOVER_STARVED])
    assert code == 3
    assert capsys.readouterr().err == "".join([
        "warning: empty network at s=20 (threshold 1.0)\n",
        *(f"failed: {sid}: crossover: '{sid}': 5 usable scales, need at least "
          "7 for a crossover search\n"
          for sid in ("b1:m1", "b1:m2", "b2:m1", "b2:m2"))])


def test_unwritable_output_dir_exits_one(panel_dir, tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "sub"
    code = run(["hurst", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out) in err


def test_failed_write_leaves_no_temp_and_no_manifest(panel_dir, tmp_path,
                                                     capsys):
    out = tmp_path / "out"
    argv = ["hurst", "--input", panel_dir / "abc.csv", "--output-dir", out,
            "--input-kind", "increments"]
    assert run(argv) == 0
    # a directory in the way fails the second of three output writes;
    # the manifest would have come after them
    (out / "hurst_estimates.csv").unlink()
    (out / "hurst_estimates.csv").mkdir()
    assert run(argv) == 1
    assert (f"error: cannot write outputs to {out}: "
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == [
        "hurst.json", "hurst_estimates.csv", "hurst_histogram.csv"]


def test_write_holds_no_whole_encoded_copy(tmp_path):
    # one write of the whole text would encode all 8 MB at once
    text = "date,\u00e9t\u00e9,b\n" + "2020-01-01,0.5,-1.25\n" * 400_000
    run = types.SimpleNamespace(cfg=types.SimpleNamespace(output_dir=str(tmp_path)),
                                files={"big.csv": text})
    assert traced_peak(lambda: _write_all(run)) < 0.5 * len(text)
    assert (tmp_path / "big.csv").read_bytes() == text.encode()


def test_json_only_format_writes_no_tables(panel_dir, tmp_path):
    out = tmp_path / "out"
    assert run(["hurst", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--format", "json"]) == 0
    names = set(tree_bytes(out))
    assert names == {"hurst.json", "run_manifest.json"}


def test_single_format_writes_that_kind_of_the_full_run(panel_dir, tmp_path):
    kind_of = {".csv": "table", ".json": "json", ".graphml": "graphml",
               ".dot": "dot"}
    flags = ["report", "--input", panel_dir / "abc.csv", "--input-kind",
             "increments", "--pair", "a,b", "--scale", "10,20",
             "--threshold", "0.5"]
    assert run([*flags, "--output-dir", tmp_path / "default"]) == 0
    full = tree_bytes(tmp_path / "default")
    full.pop("run_manifest.json")
    assert run([*flags, "--output-dir", tmp_path / "all", "--format", "all"]) == 0
    got = tree_bytes(tmp_path / "all")
    manifest = json.loads(got.pop("run_manifest.json"))
    assert manifest["config"]["formats"] == ["table", "json", "graphml", "dot"]
    assert got == full
    for kind in ("table", "json", "graphml", "dot"):
        out = tmp_path / kind
        assert run([*flags, "--output-dir", out, "--format", kind]) == 0
        got = tree_bytes(out)
        manifest = json.loads(got.pop("run_manifest.json"))
        assert manifest["config"]["formats"] == [kind]
        assert got == {name: data for name, data in full.items()
                       if kind_of[Path(name).suffix] == kind}, kind
        assert got, kind


def test_synth_writes_panel_under_any_format(tmp_path):
    out = tmp_path / "out"
    assert run(["synth", "--fgn", "--hurst", "0.6", "--n", "64",
                "--format", "json", "--output-dir", out]) == 0
    assert set(tree_bytes(out)) == {"panel.csv", "run_manifest.json"}


def test_explicit_scale_grid_recorded(panel_dir, tmp_path):
    out = tmp_path / "out"
    assert run(["hurst", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments",
                "--scales", "10,20,40,80"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["scales"] == [10, 20, 40, 80]
    payload = json.loads((out / "hurst.json").read_text())
    assert payload["estimates"][0]["n_points"] == 4
    assert payload["estimates"][0]["fit_range"] == [10, 80]


# ---------------------------------------------------------------------------
# dcca


def test_self_pair_curve_is_unity(panel_dir, tmp_path):
    out = tmp_path / "out"
    assert run(["dcca", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--pair", "a,a",
                "--scales", "10,25,50,100"]) == 0
    rows = read_rows(out / "rho_curve_00_a__a.csv")
    assert rows[0] == ["s", "rho"]
    assert [r[0] for r in rows[1:]] == ["10", "25", "50", "100"]
    for r in rows[1:]:
        assert abs(float(r[1]) - 1.0) <= 1e-9


def test_all_pairs_matrix_per_scale(panel_dir, tmp_path):
    out = tmp_path / "out"
    assert run(["dcca", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--all",
                "--scale", "10,20"]) == 0
    for s in (10, 20):
        rows = read_rows(out / f"rho_matrix_s{s}.csv")
        assert rows[0] == ["id", "a", "b", "c"]
        diag = [float(rows[i + 1][i + 1]) for i in range(3)]
        assert diag == [1.0, 1.0, 1.0]
    payload = json.loads((out / "dcca.json").read_text())
    assert payload["pairs"] == []
    assert [m["scale"] for m in payload["matrices"]] == [10, 20]


def test_cancellation_noise_member_fails_hurst(panel_dir, tmp_path):
    # dcca --all on the same panel exits 2 (RUNTIME_RULES)
    assert run(["hurst", "--input", panel_dir / "ramp.csv", "--output-dir",
                tmp_path / "h"]) == 0
    assert read_rows(tmp_path / "h" / "failures.csv")[1][0] == "lin"


# ---------------------------------------------------------------------------
# network


def test_network_outputs(panel_dir, tmp_path):
    out = tmp_path / "out"
    assert run(["network", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--threshold", "0.5",
                "--scale", "10,20"]) == 0
    for s in (10, 20):
        part = read_rows(out / f"partition_s{s}.csv")
        assert part[0] == ["id", "community"]
        assert [r[0] for r in part[1:]] == ["a", "b", "c"]
        assert {r[1] for r in part[1:]} == {"0"}  # one co-moving cluster
        gml = ET.parse(out / f"network_s{s}.graphml")
        assert gml.getroot().tag.endswith("graphml")
        dot = (out / f"network_s{s}.dot").read_text()
        assert dot.startswith("graph rho_network {")
    degree = read_rows(out / "degree_vs_scale.csv")
    assert degree[0] == ["s", "average_weighted_degree"]
    assert [r[0] for r in degree[1:]] == ["10", "20"]
    payload = json.loads((out / "network.json").read_text())
    assert len(payload) == 2
    assert payload[0]["prefix"] is None


def test_empty_network_warns_and_still_exports(panel_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["network", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--threshold", "1.0",
                "--scale", "10"])
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: empty network at s=10 (threshold 1.0)\n")
    part = read_rows(out / "partition_s10.csv")
    assert sorted(r[1] for r in part[1:]) == ["0", "1", "2"]  # singletons
    degree = read_rows(out / "degree_vs_scale.csv")
    assert float(degree[1][1]) == 0.0


def test_a_repeated_warning_prints_each_time(panel_dir, tmp_path, capsys):
    code = run(["network", "--input", panel_dir / "abc.csv", "--output-dir",
                tmp_path / "out", "--input-kind", "increments",
                "--threshold", "1.0", "--scale", "10",
                "--period", "2000-01-03:2000-12-29",
                "--period", "2001-01-01:2001-12-31"])
    assert code == 0
    assert capsys.readouterr().err == 2 * (
        "warning: empty network at s=10 (threshold 1.0)\n")


# (panel, extra row, command, exit code, stderr after the warning): a load
# warning comes before the error line of a command that then fails
BAD_DATE_RUNS = [
    pytest.param("ab.csv", "bad,1,2", ["hurst", "--input-kind", "increments"],
                 0, "", id="hurst"),
    pytest.param("one.csv", "bad,1", ["dcca", "--all"], 1,
                 "error: --all needs a panel with at least 2 series\n", id="dcca"),
]


def bad_date_run(panel_dir, tmp_path, panel, row, command) -> list[str]:
    """argv of ``command`` on a copy of ``panel`` with one unparseable date
    row, written as bad.csv into tmp_path, the run's working directory."""
    (tmp_path / "bad.csv").write_text((panel_dir / panel).read_text() + row + "\n")
    return [command[0], "--input", "bad.csv", *command[1:], "--output-dir", "out"]


@pytest.mark.parametrize("panel, row, command, code, tail", BAD_DATE_RUNS)
def test_load_warning_is_one_stderr_line(panel_dir, tmp_path, capsys, monkeypatch,
                                         panel, row, command, code, tail):
    monkeypatch.chdir(tmp_path)
    assert run(bad_date_run(panel_dir, tmp_path, panel, row, command)) == code
    assert capsys.readouterr().err == (
        "warning: bad.csv: dropped 1 rows with unparseable dates\n" + tail)


@pytest.mark.parametrize("panel, row, command, code, tail", BAD_DATE_RUNS)
def test_warning_as_error_filter_changes_nothing(panel_dir, tmp_path,
                                                 panel, row, command, code, tail):
    argv = bad_date_run(panel_dir, tmp_path, panel, row, command)
    proc = run_process(["-W", "error", "-m", "longmem", *argv], tmp_path)
    assert proc.stderr.decode() == (
        "warning: bad.csv: dropped 1 rows with unparseable dates\n" + tail)
    assert proc.returncode == code


def test_period_windows_write_subdirectories(panel_dir, tmp_path):
    out = tmp_path / "out"
    code = run(["network", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--threshold", "0.5",
                "--scale", "10",
                "--period", "2000-01-03:2000-12-29",
                "--period", "2001-01-01:2001-12-31"])
    assert code == 0
    assert (out / "period_1" / "partition_s10.csv").exists()
    assert (out / "period_2" / "partition_s10.csv").exists()
    assert (out / "period_1" / "degree_vs_scale.csv").exists()
    assert not (out / "degree_vs_scale.csv").exists()
    payload = json.loads((out / "network.json").read_text())
    assert [p["prefix"] for p in payload] == ["period_1", "period_2"]


def test_written_modularity_matches_its_formula(tmp_path):
    # two blocks of three and a member mirroring b1m1, so every network has
    # positive edges, negative edges and more than one community
    n = 600
    factors = [generate_fgn(FgnSpec(n=n, hurst=0.5, seed=s)).values
               for s in (20, 21)]
    noise = [generate_fgn(FgnSpec(n=n, hurst=0.5, seed=s)).values
             for s in range(100, 107)]
    rows = [0.7 * factors[k // 3] + 0.3 * noise[k] for k in range(6)]
    rows.append(0.2 * noise[6] - rows[0])
    ids = [f"b{k // 3 + 1}m{k % 3 + 1}" for k in range(6)] + ["neg"]
    (tmp_path / "p.csv").write_text(panel_to_csv(
        RatePanel.from_matrix(ids, trading_dates(n), np.array(rows))))
    out = tmp_path / "out"
    assert run(["network", "--input", tmp_path / "p.csv", "--output-dir", out,
                *INCREMENTS, "--scale", "10,40", "--threshold", "0.5",
                "--resolution", "0.8", "--period", "2000-01-03:2001-02-23",
                "--period", "2001-02-26:2002-04-19"]) == 0
    payload = json.loads((out / "network.json").read_text())
    assert len(payload) == 4
    for entry in payload:
        net, part = entry["network"], entry["partition"]
        assert min(w for *_, w in net["edges"]) < 0 < max(w for *_, w in net["edges"])
        assert len({c for _, c in part["assignment"]}) > 1
        q = naive_modularity(net["ids"], net["edges"], part["assignment"],
                             part["resolution"])
        assert part["resolution"] == 0.8
        assert math.isclose(part["modularity_q"], q, rel_tol=1e-12)


def test_column_order_permutes_ids_and_keeps_partitions(tmp_path):
    # nodes are visited in the panel's header order, so a column shuffle
    # may relabel communities but not move a member between them; these
    # blocks keep every gain far from Louvain's tie window
    assert run(["synth", "--blocks", "4x3", "--weight", "0.5", "--hurst", "0.7",
                "--n", "1500", "--seed", "3", "--output-dir", tmp_path]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "panel.csv").read_text().splitlines()]

    def network(order):
        path, out = tmp_path / "shuffled.csv", tmp_path / "out"
        path.write_text("".join(",".join(r[i] for i in [0, *order]) + "\n"
                                for r in rows))
        assert run(["network", "--input", path, "--output-dir", out,
                    *INCREMENTS, "--scale", "20,60", "--threshold", "0.15"]) == 0
        return json.loads((out / "network.json").read_text())

    def groups(assignment):
        return {frozenset(i for i, c in assignment if c == k)
                for _, k in assignment}

    columns = range(1, len(rows[0]))
    base = network(columns)
    rng = np.random.default_rng(6)
    for _ in range(10):
        order = [columns[i] for i in rng.permutation(len(columns))]
        got = network(order)
        assert len(got) == len(base) == 2
        for want, entry in zip(base, got):
            assert entry["network"]["ids"] == [rows[0][i] for i in order]
            assert (groups(entry["partition"]["assignment"])
                    == groups(want["partition"]["assignment"]))
            assert abs(entry["partition"]["modularity_q"]
                       - want["partition"]["modularity_q"]) <= 1e-15


# ---------------------------------------------------------------------------
# report and manifest rerun


def test_report_writes_grouped_layout(panel_dir, tmp_path):
    out = tmp_path / "out"
    code = run(["report", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--pair", "a,b",
                "--scale", "10,20", "--threshold", "0.5"])
    assert code == 0
    names = set(tree_bytes(out))
    assert {"hurst/hurst_estimates.csv", "hurst/hurst_histogram.csv",
            "hurst/crossover.csv", "hurst/hurst.json",
            "dcca/rho_curve_00_a__b.csv", "dcca/rho_matrix_s10.csv",
            "dcca/rho_matrix_s20.csv", "dcca/dcca.json",
            "network/partition_s10.csv", "network/degree_vs_scale.csv",
            "network/network.json", "run_manifest.json"} <= names
    # the 5..500 pair-curve span, capped at half the 600-point profile
    # (dcca exits 2 on the same pair instead)
    rows = read_rows(out / "dcca/rho_curve_00_a__b.csv")
    assert (rows[1][0], rows[-1][0]) == ("5", "300")


def test_report_curve_span_ends_at_500(tmp_path):
    # half of a 1100-point profile is past 500, so the span is whole
    blocks = BlockSpec(n_blocks=2, block_size=2, common_weight=0.5, hurst=0.7,
                       n=1100, seed=0)
    (tmp_path / "long.csv").write_text(panel_to_csv(generate_blocks(blocks)))
    out = tmp_path / "out"
    assert run(["report", "--input", tmp_path / "long.csv", "--output-dir", out,
                "--input-kind", "increments", "--pair", "b1:m1,b1:m2",
                "--scale", "20"]) == 0
    rows = read_rows(out / "dcca/rho_curve_00_b1_m1__b1_m2.csv")
    assert (rows[1][0], rows[-1][0]) == ("5", "500")


def test_report_without_pairs_needs_no_curve_grid(tmp_path, capsys):
    # nine dates leave no scale in the 5..500 curve span; without --pair
    # report must not build that grid, just as dcca does not
    dates = [f"2020-01-{d:02d}" for d in range(1, 10)]
    rows = ["date,a,b"] + [f"{d},{np.sin(k)},{np.cos(3 * k)}"
                           for k, d in enumerate(dates)]
    panel = tmp_path / "short.csv"
    panel.write_text("\n".join(rows) + "\n")
    flags = ["--input", panel, "--input-kind", "increments", "--smin", "2",
             "--scales", "2,3,4"]
    assert run(["hurst", *flags, "--output-dir", tmp_path / "h"]) == 0
    out = tmp_path / "r"
    assert run(["report", *flags, "--scale", "2", "--output-dir", out]) == 0
    assert "no scales" not in capsys.readouterr().err
    names = set(tree_bytes(out))
    assert "dcca/rho_matrix_s2.csv" in names
    assert not any("rho_curve" in n for n in names)


def test_report_builds_each_matrix_once(panel_dir, tmp_path, monkeypatch):
    import longmem.cli

    scales = []
    original = longmem.cli.pairwise_matrix

    def counting(panel, s, *args, **kwargs):
        scales.append(s)
        return original(panel, s, *args, **kwargs)

    monkeypatch.setattr(longmem.cli, "pairwise_matrix", counting)
    out = tmp_path / "out"
    assert run(["report", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--scale", "20,60",
                "--threshold", "0.5"]) == 0
    assert scales == [20, 60]
    assert (out / "network" / "network_s60.graphml").exists()


def test_rerun_from_manifest_is_byte_identical(panel_dir, tmp_path):
    out = tmp_path / "out"
    assert run(["network", "--input", panel_dir / "abc.csv", "--output-dir",
                out, "--input-kind", "increments", "--threshold", "0.5",
                "--scale", "10,20"]) == 0
    before = tree_bytes(out)
    assert rerun_from_manifest(str(out / "run_manifest.json")) == 0
    after = tree_bytes(out)
    assert after == before


def test_rerun_smoke_for_synth(tmp_path):
    out = tmp_path / "out"
    assert run(["synth", "--fgn", "--hurst", "0.6", "--n", "512",
                "--seed", "7", "--output-dir", out]) == 0
    before = tree_bytes(out)
    assert rerun_from_manifest(str(out / "run_manifest.json")) == 0
    assert tree_bytes(out) == before


def test_config_error_type_is_exposed():
    argv = [*SYNTH, "--n", "8", "--output-dir", "out"]
    with pytest.raises(ConfigError) as info:
        resolve_config(build_parser().parse_args(argv), argv)
    assert type(info.value) is ConfigError
    assert str(info.value) == "--n must be >= 16, got 8"


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(args, cwd, **env) -> subprocess.CompletedProcess:
    """``python args`` in a fresh interpreter that imports this tree; an
    ``env`` value of None unsets that variable."""
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=SRC, **env).items()
           if v is not None}
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          env=env, timeout=300)


def test_cli_import_leaves_out_network_and_mail_modules(tmp_path):
    # xml.sax.saxutils alone pulls in urllib.request, http.client and email.
    # Every top-level module the import adds is stdlib, numpy or longmem;
    # those site loaded before it (a .pth file's, say) are not counted.
    heavy = ("xml.sax", "urllib.request", "http.client", "email")
    code = ("import sys; top = lambda: {m.split('.')[0] for m in sys.modules}; "
            "before = top(); import longmem.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules)); "
            "print(sorted(top() - before - set(sys.stdlib_module_names)"
            " - {'numpy', 'longmem'}))")
    proc = run_process(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.decode().splitlines() == ["[]", "[]"]


@pytest.fixture(scope="module")
def gram_panel(tmp_path_factory) -> Path:
    """A 150-member block panel, whose Gram products thread under OpenBLAS."""
    out = tmp_path_factory.mktemp("gram")
    assert run(["synth", "--blocks", "15x10", "--weight", "0.5", "--hurst", "0.7",
                "--n", "2000", "--seed", "7", "--output-dir", out]) == 0
    return out / "panel.csv"


def dcca_matrices(gram_panel, cwd, out, **env) -> dict[str, bytes]:
    """The files of a ``dcca --all`` run in a fresh interpreter."""
    proc = run_process(["-m", "longmem", "dcca", "--input", gram_panel,
                        "--input-kind", "increments", "--all",
                        "--scale", "20,50", "--output-dir", out], cwd, **env)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return tree_bytes(cwd / out)


def test_blas_thread_count_leaves_the_bytes_alone(gram_panel, tmp_path):
    # The Gram products' last bits follow the thread count unless the CLI
    # pins it to --threads.
    trees = []
    for threads in ("1", "2"):
        tree = dcca_matrices(gram_panel, tmp_path, f"t{threads}",
                             OPENBLAS_NUM_THREADS=threads)
        del tree["run_manifest.json"]
        trees.append(tree)
    assert sorted(trees[0]) == ["dcca.json", "rho_matrix_s20.csv",
                                "rho_matrix_s50.csv"]
    assert trees[0] == trees[1]


def test_rerun_ignores_the_environment_thread_count(gram_panel, tmp_path):
    # --threads comes from argv alone, the argv the manifest replays
    first = dcca_matrices(gram_panel, tmp_path, "out", LONGMEM_THREADS="2")
    rerun = ("import sys; from longmem.cli import rerun_from_manifest; "
             "sys.exit(rerun_from_manifest('out/run_manifest.json'))")
    proc = run_process(["-c", rerun], tmp_path, LONGMEM_THREADS=None)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert sorted(first) == ["dcca.json", "rho_matrix_s20.csv",
                             "rho_matrix_s50.csv", "run_manifest.json"]
    assert tree_bytes(tmp_path / "out") == first


# ---------------------------------------------------------------------------
# output oracle: each number lands in its file, row and column


def csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def oracle_panel(path: Path, max_gap: int | None = None):
    """{id: values} and the dates of a panel file, read with ``csv``:
    forward-filled runs of at most ``max_gap`` dates (when given), then the
    dates every member holds."""
    header, *rows = csv_rows(path)
    dates = [dt.date.fromisoformat(r[0]) for r in rows]
    columns = {}
    for j, sid in enumerate(header[1:], start=1):
        seen = [(d, float(r[j])) for d, r in zip(dates, rows) if r[j]]
        if max_gap is not None:
            seen = list(zip(*naive_forward_fill(sid, *zip(*seen), dates, max_gap)))
        columns[sid] = dict(seen)
    shared = [d for d in dates if all(d in c for c in columns.values())]
    return {sid: np.array([c[d] for d in shared]) for sid, c in columns.items()}, shared


def levels_profile(values: np.ndarray) -> np.ndarray:
    x = np.abs(np.diff(values))
    return np.cumsum(x - x.mean())


def rel_close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-10 * abs(want)


def test_numbers_land_in_their_file_row_and_column(tmp_path):
    """``report`` matrices and crossover rows against the loop oracles, and
    each ``network --period`` partition against its own window's matrix.
    Every expected number is computed from the input file alone."""
    # report: four levels series on a common factor; gaps of 2 and 1 dates are
    # filled, and m3's 6-date gap drops those dates from every member
    rng = np.random.default_rng(21)
    common = rng.standard_normal(1000)
    steps = 0.7 * common + 0.3 * rng.standard_normal((4, 1000))
    levels = 5.0 + 0.02 * steps.cumsum(axis=1)
    cells = levels.astype(object)
    cells[1, 100:102] = cells[2, 500] = ""
    cells[3, 700:706] = ""
    ids = ["m2", "m0", "m3", "m1"]
    dates = trading_dates(1000)
    (tmp_path / "levels.csv").write_text(
        "date," + ",".join(ids) + "\n" + "".join(
            f"{d.isoformat()},{','.join(map(str, col))}\n"
            for d, col in zip(dates, cells.T)))
    out = tmp_path / "out"
    assert run(["report", "--input", tmp_path / "levels.csv", "--output-dir", out,
                "--align", "forward_fill", "--max-gap", "3", "--pair", "m0,m1",
                "--scale", "20,50", "--threshold", "0.3",
                "--min-side-points", "4", "--crossover-threshold", "0.05"]) == 0
    columns, shared = oracle_panel(tmp_path / "levels.csv", max_gap=3)
    assert len(shared) == 994
    y = {sid: levels_profile(v) for sid, v in columns.items()}
    method = dma()
    for s in (20, 50):
        header, *rows = csv_rows(out / "dcca" / f"rho_matrix_s{s}.csv")
        assert header == ["id", *ids]
        assert [r[0] for r in rows] == ids
        for a, row in zip(ids, rows):
            for b, cell in zip(ids, row[1:]):
                want = naive_rho(y[a], y[b], s, method)
                assert rel_close(float(cell), want), (s, a, b)
    n_prof = len(shared) - 1
    grid = default_grid(n_prof, s_max=min(500, n_prof // 2), num=25)
    header, *rows = csv_rows(out / "hurst" / "crossover.csv")
    assert header == ["id", "breakpoint_scale", "slope_left", "slope_right",
                      "sse_single", "sse_piecewise", "improvement_ratio"]
    assert [r[0] for r in rows] == sorted(ids)
    for sid, *cells in rows:
        f = FluctuationFunction(sid, method, grid.scales,
                                [naive_fluctuation(y[sid], s, method) for s in grid])
        want = naive_crossover(f, 4, 0.05)
        brk = want.breakpoint_scale
        assert cells[0] == ("" if brk is None else str(brk)), sid
        assert all(rel_close(float(c), w) for c, w in zip(cells[1:], (
            want.slope_left, want.slope_right, want.sse_single,
            want.sse_piecewise, want.improvement_ratio))), sid

    # network: two 600-date halves whose blocks differ (the second half's
    # rows are the first block layout's rows interleaved), so each window
    # has its own partition
    panel = generate_blocks(BlockSpec(n_blocks=2, block_size=3, common_weight=0.7,
                                      hurst=0.7, n=1200, seed=4))
    matrix = panel.matrix.copy()
    matrix[:, 600:] = matrix[[0, 3, 1, 4, 2, 5], 600:]
    panel = RatePanel.from_matrix(panel.ids, panel.days, matrix)
    (tmp_path / "panel.csv").write_text(panel_to_csv(panel))
    days = [d.isoformat() for d in panel.days.tolist()]
    windows = ((days[0], days[599]), (days[600], days[-1]))
    out = tmp_path / "net"
    assert run(["network", "--input", tmp_path / "panel.csv", "--output-dir", out,
                "--input-kind", "increments", "--scale", "20,50", "--threshold", "0.3",
                "--seed", "5", "--period", ":".join(windows[0]),
                "--period", ":".join(windows[1])]) == 0
    columns, shared = oracle_panel(tmp_path / "panel.csv")
    got = {}
    for k, (lo, hi) in enumerate(windows, start=1):
        keep = [i for i, d in enumerate(shared) if lo <= d.isoformat() <= hi]
        window = RatePanel.from_matrix(
            list(columns), np.array(shared, dtype="datetime64[D]")[keep],
            np.array([v[keep] for v in columns.values()]))
        for s in (20, 50):
            net = build_network(pairwise_matrix(window, s, dma(), "increments"), 0.3)
            want = [[sid, str(c)] for sid, c in
                    detect_communities(net, resolution=1.0, seed=5).assignment]
            got[k, s] = csv_rows(out / f"period_{k}" / f"partition_s{s}.csv")
            assert got[k, s] == [["id", "community"], *want], (k, s)
    # the windows' partitions differ, so swapped windows would show
    assert got[1, 20] != got[2, 20] and got[1, 50] != got[2, 50]


# ---------------------------------------------------------------------------
# text encoding: every file is read and written as UTF-8, whatever the locale


def test_utf8_panel_under_ascii_locale(panel_dir, tmp_path):
    header, body = (panel_dir / "abc.csv").read_text().split("\n", 1)
    assert header == "date,a,b,c"
    locales = {"ascii": dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
               "utf8": dict(PYTHONUTF8="1")}
    trees = {}
    for name, env in locales.items():
        cwd = tmp_path / name
        cwd.mkdir()
        (cwd / "panel.csv").write_bytes(
            ("date,Zürich,Genève,Åre\n" + body).encode("utf-8"))
        proc = run_process(["-m", "longmem", "report", "--input", "panel.csv",
                            "--output-dir", "out", "--input-kind", "increments",
                            "--scale", "10,20", "--threshold", "0.5"], cwd, **env)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        trees[name] = tree_bytes(cwd / "out")
    assert trees["ascii"] == trees["utf8"]
    assert "Genève".encode() in trees["ascii"]["network/network_s10.graphml"]


ENCODING_RUNS = {
    "hurst": ["hurst", "--crossover"],
    "dcca": ["dcca", "--all", "--scale", "10,20"],
    "network": ["network", "--scale", "10,20", "--threshold", "0.5"],
    "report": ["report", "--scale", "10,20", "--threshold", "0.5"],
}


@pytest.mark.parametrize("command", [*ENCODING_RUNS, "synth", "rerun"])
def test_no_file_uses_the_locale_encoding(panel_dir, tmp_path, command):
    strict = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    if command == "synth":
        args = ["-m", "longmem", "synth", "--fgn", "--hurst", "0.6", "--n", "128"]
    elif command == "rerun":
        assert run(["network", "--input", panel_dir / "abc.csv", "--output-dir",
                    tmp_path / "out", "--input-kind", "increments",
                    "--scale", "10"]) == 0
        args = ["-c", "import sys; from longmem.cli import rerun_from_manifest; "
                      "sys.exit(rerun_from_manifest('out/run_manifest.json'))"]
    else:
        args = ["-m", "longmem", *ENCODING_RUNS[command], "--input",
                panel_dir / "abc.csv", "--input-kind", "increments"]
    if command != "rerun":
        args += ["--output-dir", "out"]
    proc = run_process([*strict, *map(str, args)], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert (tmp_path / "out" / "run_manifest.json").exists()


# ---------------------------------------------------------------------------
# the JSON writer


def plain(obj):
    """``obj`` with each pre-formatted number list read back as floats."""
    if isinstance(obj, _JsonNumbers):
        return [float(t) for t in obj]
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    return obj


def test_json_writer_matches_json_dumps_on_run_payloads(panel_dir, tmp_path,
                                                        monkeypatch):
    import longmem.cli

    payloads = []

    def keep(obj):
        payloads.append(obj)
        return _json_text(obj)

    monkeypatch.setattr(longmem.cli, "_json_text", keep)
    flags = ["--input", panel_dir / "abc.csv", "--input-kind", "increments"]
    runs = [["report", *flags, "--pair", "a,b", "--scale", "10,20",
             "--threshold", "0.5"],
            ["network", *flags, "--scale", "10", "--threshold", "0.5",
             "--period", "2000-01-03:2000-12-29",
             "--period", "2001-01-01:2001-12-31"],
            ["hurst", *flags, "--crossover"]]
    for k, argv in enumerate(runs):
        assert run([*argv, "--output-dir", tmp_path / str(k)]) == 0
    # report: hurst, dcca, network, manifest; network and hurst: 2 each
    assert len(payloads) == 8
    assert any(isinstance(row, _JsonNumbers)
               for p in payloads if isinstance(p, dict) and "matrices" in p
               for m in p["matrices"] for row in m["rho"])
    for p in payloads:
        assert _json_text(p) == json.dumps(plain(p), indent=2,
                                           sort_keys=True) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=25)


@given(JSON_VALUES)
@example({"nan": float("nan"), "inf": [float("inf"), -float("inf")],
          "zero": -0.0, "empty": [[], {}, ()], "text": "Zürich \u2028 \"q\"\n",
          "flags": [True, False, None], "np": np.float64(0.1),
          "rows": [[0.1, 1e-300], [2.5e+22, -1.0]]})
@example({"keys": {2: [1.5, {"b": 2}], 1: None}})
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         max_size=4), max_size=4))
def test_pre_formatted_numbers_match_json_dumps(rows):
    numbers = [_JsonNumbers(map(float.__repr__, row)) for row in rows]
    assert (_json_text({"rho": numbers, "n": len(rows)})
            == json.dumps({"rho": rows, "n": len(rows)}, indent=2,
                          sort_keys=True) + "\n")
