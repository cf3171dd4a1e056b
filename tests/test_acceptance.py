"""Acceptance gate for the whole package: one test per shipping criterion.

Each test prints a single ``criterion N: PASS/FAIL (...)`` line carrying
the measured quantity next to its tolerance; run with ``-s`` to see the
lines as they complete.  These tests exercise the full statistical
protocols and are slower than the unit suites (the recovery benchmark in
criterion 1 carries its own runtime budget).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from longmem.cli import main, rerun_from_manifest
from longmem.dcca import pairwise_matrix, rho_from_profiles, rho_vs_scale
from longmem.errors import DegenerateSeriesError, FitError
from longmem.hurst import detect_crossover, fit_hurst
from longmem.network import (
    average_weighted_degree,
    build_network,
    detect_communities,
)
from longmem.scaling import (
    FluctuationFunction,
    ScaleGrid,
    default_grid,
    dfa,
    dma,
    fluctuation,
)
from longmem.series import Profile, TimeSeries, profile_from_values, series_profile
from longmem.synthetic import BlockSpec, FgnSpec, generate_blocks, generate_fgn, trading_dates

from reference import naive_fluctuation, naive_rho


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. estimator recovery on exact fGn, both detrend families, with a runtime cap


def test_criterion_1_hurst_recovery():
    t0 = time.perf_counter()
    n = 2 ** 13
    grid = default_grid(n)
    methods = (dfa(1), dma("centered"))
    worst = 0.0
    for h_true in (0.3, 0.5, 0.7, 0.9):
        sums = [0.0, 0.0]
        for seed in range(20):
            ts = generate_fgn(FgnSpec(n=n, hurst=h_true, seed=seed))
            prof = series_profile(ts, input_kind="increments")
            for j, method in enumerate(methods):
                sums[j] += fit_hurst(fluctuation(prof, grid, method)).hurst
        for j in range(2):
            worst = max(worst, abs(sums[j] / 20 - h_true))
    elapsed = time.perf_counter() - t0
    verdict(1, worst <= 0.05 and elapsed < 60.0,
            f"max |mean estimate - H| = {worst:.4f} <= 0.05 over "
            f"4 H values x 2 methods x 20 seeds, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. coefficient identities: self-unity, bound, exact symmetry


def test_criterion_2_rho_bounds_and_identities():
    rng = np.random.default_rng(123)
    n = 512
    methods = (dfa(1), dma("centered"))
    worst_self = 0.0
    worst_abs = 0.0
    symmetric = True
    for k in range(1000):
        ha, hb = rng.uniform(0.15, 0.95, size=2)
        a = generate_fgn(FgnSpec(n=n, hurst=float(ha), seed=int(rng.integers(2 ** 31))))
        b = generate_fgn(FgnSpec(n=n, hurst=float(hb), seed=int(rng.integers(2 ** 31))))
        s = int(rng.integers(5, n // 2 + 1))
        method = methods[k % 2]
        grid = ScaleGrid((s,))

        def rho(x, y):
            return rho_vs_scale(x, y, grid, method=method,
                                input_kind="increments").values[0]

        r_ab = rho(a, b)
        r_ba = rho(b, a)
        symmetric = symmetric and (r_ab == r_ba)
        worst_abs = max(worst_abs, abs(r_ab))
        r_self = rho(a, a)
        worst_self = max(worst_self, abs(r_self - 1.0))
    verdict(2, worst_self <= 1e-12 and worst_abs <= 1.0 + 1e-9 and symmetric,
            f"1000 draws: max |rho(x,x)-1| = {worst_self:.2e} <= 1e-12, "
            f"max |rho| = {worst_abs:.12f} <= 1+1e-9, symmetry exact: {symmetric}")


# ---------------------------------------------------------------------------
# 3. production matches the independent brute-force reference


def test_criterion_3_brute_force_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for method in (dfa(1), dma("centered")):
        for n in (57, 60):
            pa = profile_from_values(rng.normal(size=n), "a")
            pb = profile_from_values(rng.normal(size=n), "b")
            for s in (5, 10):
                for p in (pa, pb):
                    f = fluctuation(p, ScaleGrid((s,)), method).values[0]
                    ref = naive_fluctuation(p.values, s, method)
                    worst = max(worst, abs(f - ref) / abs(ref))
                r = rho_from_profiles(pa, pb, s, method)
                refr = naive_rho(pa.values, pb.values, s, method)
                worst = max(worst, abs(r - refr) / abs(refr))
    verdict(3, worst <= 1e-10,
            f"max relative gap production vs reference = {worst:.2e} <= 1e-10 "
            f"(n <= 60, s in {{5, 10}}, both methods)")


# ---------------------------------------------------------------------------
# 4. slope-break location on piecewise power laws, noiseless and noisy


CROSSOVER_GRID = np.array([9, 15, 24, 38, 61, 98, 156, 250, 400, 640,
                           1024, 1638, 2621])


def _piecewise(scales: np.ndarray, s_break: int, left: float, right: float,
               amplitude: float = 0.02) -> np.ndarray:
    f_break = amplitude * s_break ** left
    return np.where(scales <= s_break,
                    amplitude * scales.astype(float) ** left,
                    f_break * (scales / s_break) ** right)


def test_criterion_4_crossover_detection():
    values = _piecewise(CROSSOVER_GRID, 250, 0.85, 0.50)
    f = FluctuationFunction("pw", dfa(1), CROSSOVER_GRID, values)
    rep = detect_crossover(f)
    clean = (rep.breakpoint_scale == 250
             and abs(rep.slope_left - 0.85) <= 1e-6
             and abs(rep.slope_right - 0.50) <= 1e-6)

    window = {156, 250, 400}  # one grid step around the planted break
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = values * 10 ** rng.normal(0.0, 0.02, size=values.size)
        rep_n = detect_crossover(
            FluctuationFunction("pw", dfa(1), CROSSOVER_GRID, noisy))
        hits += rep_n.breakpoint_scale in window
    verdict(4, clean and hits >= 18,
            f"noiseless: break at {rep.breakpoint_scale}, slopes within 1e-6: "
            f"{clean}; noisy sigma=0.02: {hits}/20 within one grid step "
            f"(need >= 18)")


# ---------------------------------------------------------------------------
# 5. block-structured panels come back out as their blocks


def _block_stats(panel, s, method):
    m = pairwise_matrix(panel, s, method, input_kind="increments")
    k = len(panel.ids)
    within, across = [], []
    for i in range(k):
        for j in range(i + 1, k):
            (within if i // 5 == j // 5 else across).append(m.rho[i][j])
    return m, float(np.mean(within)), float(np.mean(across))


def test_criterion_5_segmentation_recovery():
    method = dma("centered")
    scales = (50, 150, 250)
    exact = {s: 0 for s in scales}
    separated = True
    expected = None
    for seed in range(20):
        panel = generate_blocks(BlockSpec(
            n_blocks=3, block_size=5, common_weight=0.9, hurst=0.8,
            n=2 ** 13, seed=seed))
        if expected is None:
            expected = tuple(
                tuple(sorted(i for i in panel.ids if i.startswith(f"b{k}:")))
                for k in (1, 2, 3))
        for s in scales:
            m, mean_within, mean_across = _block_stats(panel, s, method)
            separated = separated and (mean_within > mean_across)
            net = build_network(m, threshold=0.8)
            part = detect_communities(net, seed=0)
            exact[s] += part.communities == expected
    ok = all(exact[s] >= 18 for s in scales) and separated
    verdict(5, ok,
            f"exact block recovery per scale: "
            f"{', '.join(f's={s}: {exact[s]}/20' for s in scales)} "
            f"(need >= 18); within > across at every scale and seed: "
            f"{separated}")


# ---------------------------------------------------------------------------
# 6. stronger common component -> denser network at every scale


def test_criterion_6_common_weight_dominates_degree():
    method = dma("centered")
    base = dict(n_blocks=3, block_size=5, hurst=0.8, n=2 ** 13, seed=0)
    weak = generate_blocks(BlockSpec(common_weight=0.6, **base))
    strong = generate_blocks(BlockSpec(common_weight=0.9, **base))
    gaps = []
    dominated = True
    for s in (50, 150, 250):
        deg = []
        for panel in (weak, strong):
            m = pairwise_matrix(panel, s, method, input_kind="increments")
            deg.append(average_weighted_degree(build_network(m, threshold=0.5)))
        dominated = dominated and deg[1] > deg[0]
        gaps.append(f"s={s}: {deg[0]:.2f} < {deg[1]:.2f}")
    verdict(6, dominated,
            f"average weighted degree, weight 0.6 vs 0.9: {'; '.join(gaps)}")


# ---------------------------------------------------------------------------
# 7. every CLI command reruns byte-identically from its manifest


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_7_cli_manifest_determinism(tmp_path):
    synth_dir = tmp_path / "panel"
    assert main(["synth", "--blocks", "2x3", "--weight", "0.7", "--hurst",
                 "0.6", "--n", "300", "--seed", "5",
                 "--output-dir", str(synth_dir)]) == 0
    panel = str(synth_dir / "panel.csv")
    runs = {
        "synth": ["synth", "--fgn", "--hurst", "0.7", "--n", "512",
                  "--seed", "9"],
        "hurst": ["hurst", "--input", panel, "--input-kind", "increments",
                  "--scales", "8,12,16,24,32,48,64", "--crossover"],
        "dcca": ["dcca", "--input", panel, "--input-kind", "increments",
                 "--pair", "b1:m1,b1:m2", "--all", "--scale", "10,20",
                 "--scales", "10,20,40"],
        "network": ["network", "--input", panel, "--input-kind",
                    "increments", "--threshold", "0.3", "--scale", "10,20"],
        "report": ["report", "--input", panel, "--input-kind", "increments",
                   "--pair", "b1:m1,b2:m1", "--scale", "10,20",
                   "--threshold", "0.3"],
    }
    identical = []
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--output-dir", str(out)]) == 0, name
        before = _tree(out)
        assert rerun_from_manifest(str(out / "run_manifest.json")) == 0, name
        identical.append(_tree(out) == before)
    verdict(7, all(identical),
            f"{sum(identical)}/{len(runs)} commands byte-identical on rerun "
            f"({', '.join(runs)})")


# ---------------------------------------------------------------------------
# 8. degenerate inputs: named rejection, zero-F exclusion, exact zeros


def test_criterion_8_degenerate_handling():
    dates = trading_dates(256)
    flat = TimeSeries("flat", dates, np.full(256, 1.0))
    other = generate_fgn(FgnSpec(n=256, hurst=0.5, seed=3))
    try:
        rho_vs_scale(flat, other, ScaleGrid((20,)), method=dma("centered"),
                     input_kind="increments")
        named = False
    except DegenerateSeriesError as exc:
        named = exc.ids == ("flat",) and "flat" in str(exc)

    scales = np.array([10, 20, 40, 80, 160])
    values = np.where(scales < 30, 0.0, 0.5 * scales ** 0.7)
    est = fit_hurst(FluctuationFunction("z", dfa(1), scales, values))
    excluded = est.n_excluded == 2 and abs(est.hurst - 0.7) <= 1e-12
    try:
        fit_hurst(FluctuationFunction("z0", dfa(1), scales, 0.0 * scales))
        all_zero_rejected = False
    except FitError:
        all_zero_rejected = True

    lin = Profile("lin", np.linspace(-7.5, 0.0, 300))
    f_lin = fluctuation(lin, default_grid(300), dfa(1))
    exact_zero = bool(np.all(f_lin.values == 0.0))
    verdict(8, named and excluded and all_zero_rejected and exact_zero,
            f"constant series rejected by id: {named}; zero-F scales "
            f"excluded from fit: {excluded}; all-zero F refused: "
            f"{all_zero_rejected}; linear profile F identically 0: "
            f"{exact_zero}")
