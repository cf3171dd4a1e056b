import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from longmem.cli import main
from longmem.dcca import pairwise_matrix, rho_vs_scale
from longmem.errors import AlignmentError, FitError
from longmem.hurst import (
    HurstEstimate,
    _fit_line,
    _histogram,
    detect_crossover,
    fit_hurst,
    hurst_distribution,
)
from longmem.scaling import (
    FluctuationFunction,
    ScaleGrid,
    default_grid,
    dfa,
    dma,
    fluctuation,
)
from longmem.series import (
    RatePanel,
    TimeSeries,
    panel_to_csv,
    profile_from_values,
    series_profile,
)
from longmem.synthetic import FgnSpec, generate_fgn, trading_dates

from conftest import make_series, ramp_panel, rule_tests
from reference import naive_crossover

TEN_SCALES = np.unique(np.rint(np.logspace(1, 2.35, 10)).astype(int))
# _fit_line's zero-variance inputs: flat y (r is NaN), and y that differs only
# below 1e-162, whose variance underflows to 0 but its cross moment not (r is 0)
LOG_SCALES = np.log10([10.0, 20.0, 40.0, 80.0, 160.0])
FLAT_Y, TINY_Y = np.full(5, 0.5), np.array([0.0, 0.0, 0.0, 0.0, 1e-163])


def power_law(scales, amplitude, exponent):
    scales = np.asarray(scales, dtype=float)
    return FluctuationFunction("pl", dfa(1), scales.astype(int),
                               amplitude * scales ** exponent)


class TestClassify:
    def test_contract(self):
        def regime(h):
            return HurstEstimate("x", h, 0.0, 1.0, 0.0, (10, 100), 5, 0).classify()

        assert regime(0.5) == "uncorrelated"
        assert regime(0.49) == "antipersistent"
        assert regime(0.51) == "persistent"


class TestFitHurst:
    def test_closed_form_line_fit(self):
        # log10 s = 1..4 and log10 F = 0, 1, 1, 3: Sxx = 5, Sxy = 4.5,
        # Syy = 4.75, so slope 0.9, intercept 1.25 - 0.9 * 2.5 = -1,
        # r^2 = 4.5^2 / (5 * 4.75) = 81/95 and
        # stderr = sqrt((1 - r^2) * Syy / Sxx / (n - 2)) = sqrt(0.07).
        f = FluctuationFunction("cf", dfa(1), [10, 100, 1000, 10000],
                                [1.0, 10.0, 10.0, 1000.0])
        est = fit_hurst(f, fit_range=(None, None))
        assert est.hurst == pytest.approx(0.9, abs=1e-14)
        assert est.intercept == pytest.approx(-1.0, abs=1e-14)
        assert est.r_squared == pytest.approx(81 / 95, abs=1e-14)
        assert est.stderr == pytest.approx(0.07 ** 0.5, abs=1e-14)

    def test_matches_scipy_linregress_bitwise(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        scales = np.unique(np.geomspace(4, 900, 25).astype(int))
        for _ in range(20):
            values = scales ** rng.uniform(0.2, 1.2) * np.exp(
                rng.normal(0.0, 0.1, scales.size))
            est = fit_hurst(FluctuationFunction("r", dfa(1), scales, values),
                            fit_range=(None, None))
            res = stats.linregress(np.log10(scales.astype(float)),
                                   np.log10(values))
            assert est.hurst == float(res.slope)
            assert est.intercept == float(res.intercept)
            assert est.r_squared == float(res.rvalue) ** 2
            assert est.stderr == float(res.stderr)
        for y in (FLAT_Y, TINY_Y):  # repr: NaN equals NaN
            res = stats.linregress(LOG_SCALES, y)
            assert repr(_fit_line(np.stack((LOG_SCALES, y)))[:4]) == repr(tuple(
                float(v) for v in (res.slope, res.intercept, res.rvalue, res.stderr)))

    def test_exact_power_law(self):
        est = fit_hurst(power_law(TEN_SCALES, 2.0, 0.83))
        assert est.hurst == pytest.approx(0.83, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)
        assert est.n_points == len(TEN_SCALES)
        assert est.n_excluded == 0
        assert est.fit_range == (int(TEN_SCALES[0]), int(TEN_SCALES[-1]))

    def test_amplitude_invariance(self):
        base = fit_hurst(power_law(TEN_SCALES, 1.0, 0.6))
        scaled = fit_hurst(power_law(TEN_SCALES, 37.5, 0.6))
        assert scaled.hurst == pytest.approx(base.hurst, abs=1e-12)
        assert scaled.intercept != pytest.approx(base.intercept, abs=1e-3)

    def test_series_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(600)
        grid = default_grid(600)
        h = []
        for c in (1.0, 4.25):
            prof = profile_from_values(c * values, "r")
            h.append(fit_hurst(fluctuation(prof, grid, dfa(1))).hurst)
        assert h[1] == pytest.approx(h[0], abs=1e-12)

    def test_default_range_caps_at_250(self):
        scales = np.array([10, 30, 90, 250, 400, 800])
        f = FluctuationFunction("x", dfa(1), scales, 1.0 * scales ** 0.7)
        est = fit_hurst(f)
        assert est.fit_range == (10, 250)
        assert est.n_points == 4

    def test_explicit_range(self):
        scales = np.array([10, 30, 90, 250, 400, 800])
        f = FluctuationFunction("x", dfa(1), scales, 1.0 * scales ** 0.7)
        est = fit_hurst(f, fit_range=(90, None))
        assert est.fit_range == (90, 800)
        assert est.n_points == 4

    def test_zero_values_excluded_and_counted(self):
        scales = np.array([10, 20, 40, 80, 160])
        values = 2.0 * scales ** 0.6
        values[1] = 0.0
        est = fit_hurst(FluctuationFunction("x", dfa(1), scales, values))
        assert est.n_points == 4
        assert est.n_excluded == 1
        assert est.hurst == pytest.approx(0.6, abs=1e-12)

    def test_fgn_dma_recovery(self):
        ests = []
        for seed in range(20):
            ts = generate_fgn(FgnSpec(n=8192, hurst=0.7, seed=seed))
            prof = profile_from_values(ts.values, ts.id)
            f = fluctuation(prof, default_grid(len(prof)), dma())
            ests.append(fit_hurst(f).hurst)
        assert np.mean(ests) == pytest.approx(0.70, abs=0.05)

    def test_json_dict(self):
        est = fit_hurst(power_law(TEN_SCALES, 2.0, 0.83))
        d = est.to_json_dict()
        assert d["regime"] == "persistent"
        assert d["fit_range"] == [int(TEN_SCALES[0]), int(TEN_SCALES[-1])]
        json.dumps(d)


PIECEWISE_GRID = np.array([9, 15, 24, 38, 61, 98, 156, 250, 400, 640,
                           1024, 1638, 2621])


def piecewise_values(scales, s_break, slope_left, slope_right, amplitude=0.02):
    scales = np.asarray(scales, dtype=float)
    left = amplitude * scales ** slope_left
    pivot = amplitude * s_break ** slope_left
    right = pivot * (scales / s_break) ** slope_right
    return np.where(scales <= s_break, left, right)


TENT = np.array([0, 1, 2, 3, 4, 4, 4, 3, 2, 1, 0], dtype=float)
# test_rounding_tie_goes_to_the_larger_scale's curve at slope 0.185, its last
# F raised until the split after 512 lands exactly on the tie window's edge:
# its SSE equals the best one's plus max(1e-20, 1e-9 of the larger)
EDGE_CURVE = FluctuationFunction("edge", dfa(1), 2 ** np.arange(4, 15),
                                 np.append(10.0 ** (0.185 * TENT[:-1]),
                                           1.0000000005324725))


@st.composite
def crossover_curves(draw):
    """F over 8 to 40 scales, some of them 0: log F drawn at random, on a
    coarse lattice (equal points, SSEs near the floor), or a tent on
    doubling scales, whose mirrored splits tie in exact arithmetic."""
    n = draw(st.integers(8, 40))
    kind = draw(st.sampled_from(["random", "lattice", "tent"]))
    if kind == "tent":
        scales = 2 ** np.arange(4, 4 + n)
        i = np.arange(n)
        log_f = draw(st.sampled_from([0.1, 0.185, 0.2, -0.3])) * np.minimum(
            np.minimum(i, n - 1 - i), draw(st.integers(1, n // 2)))
    else:
        scales = 1 + np.cumsum(draw(st.lists(st.integers(1, 60), min_size=n,
                                             max_size=n)))
        cells = (st.floats(-3.0, 3.0) if kind == "random"
                 else st.integers(-4, 4).map(lambda v: 0.25 * v))
        log_f = np.array(draw(st.lists(cells, min_size=n, max_size=n)))
    values = 10.0 ** log_f
    values[draw(st.lists(st.integers(0, n - 1), max_size=4))] = 0.0
    return FluctuationFunction("c", dfa(1), scales, values)


class TestDetectCrossover:
    @given(f=crossover_curves(), min_side_points=st.integers(2, 4),
           threshold=st.floats(0.05, 0.95))
    @example(f=EDGE_CURVE, min_side_points=3, threshold=0.5)
    def test_matches_the_loop_oracle(self, f, min_side_points, threshold):
        try:
            want = naive_crossover(f, min_side_points, threshold)
        except FitError as exc:
            with pytest.raises(FitError) as info:
                detect_crossover(f, min_side_points, threshold)
            assert str(info.value) == str(exc)
            return
        # repr: field by field, NaN equal to NaN
        assert repr(detect_crossover(f, min_side_points, threshold)) == repr(want)

    def test_noiseless_piecewise(self):
        values = piecewise_values(PIECEWISE_GRID, 250.0, 0.85, 0.50)
        f = FluctuationFunction("pw", dfa(1), PIECEWISE_GRID, values)
        rep = detect_crossover(f)
        assert rep.breakpoint_scale == 250
        assert rep.slope_left == pytest.approx(0.85, abs=1e-6)
        assert rep.slope_right == pytest.approx(0.50, abs=1e-6)
        assert rep.sse_piecewise <= rep.sse_single
        assert rep.improvement_ratio > 0.99

    def test_pure_power_law_never_reports(self):
        f = power_law(PIECEWISE_GRID, 0.5, 0.75)
        for threshold in (0.1, 0.3, 0.5, 0.9):
            rep = detect_crossover(f, improvement_threshold=threshold)
            assert rep.breakpoint_scale is None
            assert rep.improvement_ratio == 0.0

    def test_noisy_piecewise_single_seed(self):
        rng = np.random.default_rng(0)
        values = piecewise_values(PIECEWISE_GRID, 250.0, 0.85, 0.50)
        noisy = values * 10 ** rng.normal(0.0, 0.02, size=len(values))
        f = FluctuationFunction("pw", dfa(1), PIECEWISE_GRID, noisy)
        rep = detect_crossover(f)
        assert rep.breakpoint_scale in (156, 250, 400)

    def test_side_slopes_are_fit_hurst_exponents(self):
        # one line fit serves both: each side's slope is, bit for bit, the
        # exponent fit_hurst reports on that side's scales
        rng = np.random.default_rng(3)
        values = piecewise_values(PIECEWISE_GRID, 250.0, 0.85, 0.50)
        for _ in range(10):
            noisy = values * 10 ** rng.normal(0.0, 0.02, size=len(values))
            f = FluctuationFunction("pw", dfa(1), PIECEWISE_GRID, noisy)
            rep = detect_crossover(f)
            s_break = rep.breakpoint_scale
            right_lo = int(PIECEWISE_GRID[PIECEWISE_GRID > s_break][0])
            assert rep.slope_left == fit_hurst(f, (None, s_break)).hurst
            assert rep.slope_right == fit_hurst(f, (right_lo, None)).hurst

    def test_piecewise_never_beats_single_by_construction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            values = np.exp(rng.normal(0.0, 0.5, size=len(PIECEWISE_GRID)))
            f = FluctuationFunction("r", dfa(1), PIECEWISE_GRID, values)
            rep = detect_crossover(f)
            assert rep.sse_piecewise <= rep.sse_single * (1 + 1e-12)

    def test_ratio_at_threshold_is_accepted(self):
        rng = np.random.default_rng(0)
        values = piecewise_values(PIECEWISE_GRID, 250.0, 0.85, 0.50)
        noisy = values * 10 ** rng.normal(0.0, 0.02, size=len(values))
        f = FluctuationFunction("pw", dfa(1), PIECEWISE_GRID, noisy)
        ratio = detect_crossover(f).improvement_ratio
        rep = detect_crossover(f, improvement_threshold=ratio)
        assert rep.improvement_ratio == ratio
        assert rep.breakpoint_scale is not None

    def test_rounding_tie_goes_to_the_larger_scale(self):
        # the splits after 256 and after 512 mirror each other, and the
        # raised last log F gives the one at 512 a relative 4e-12 more
        # squared error: far above any platform's rounding of these SSEs
        # (about 1e-15), far inside the 1e-9 window of a rounding tie
        f = tie_curve(1e-12)
        xy = np.stack((np.log10(f.scales.astype(float)), np.log10(f.values)))
        sse = [_fit_line(xy[:, :k + 1])[-1] + _fit_line(xy[:, k + 1:])[-1]
               for k in (4, 5)]
        assert sse[0] < sse[1] == pytest.approx(sse[0], rel=1e-11)
        assert detect_crossover(f).breakpoint_scale == 512

    def test_min_side_points_respected(self):
        values = piecewise_values(PIECEWISE_GRID, 250.0, 0.85, 0.50)
        f = FluctuationFunction("pw", dfa(1), PIECEWISE_GRID, values)
        rep = detect_crossover(f, min_side_points=4)
        n = len(PIECEWISE_GRID)
        k = list(PIECEWISE_GRID).index(rep.breakpoint_scale)
        assert k + 1 >= 4 and n - (k + 1) >= 4

    def test_json_dict(self):
        values = piecewise_values(PIECEWISE_GRID, 250.0, 0.85, 0.50)
        rep = detect_crossover(
            FluctuationFunction("pw", dfa(1), PIECEWISE_GRID, values))
        d = rep.to_json_dict()
        assert d["breakpoint_scale"] == 250
        json.dumps(d)


def fgn_panel(hurst, n_series, n=2048):
    members = tuple(generate_fgn(FgnSpec(n=n, hurst=hurst, seed=s))
                    for s in range(n_series))
    return RatePanel(members)


class TestHurstDistribution:
    def test_mode_bin_tracks_target(self):
        dist = hurst_distribution(fgn_panel(0.75, 20, n=8192), dfa(1),
                                  input_kind="increments")
        lo, hi = dist.mode_bin
        assert 0.70 <= lo and hi <= 0.80
        assert dist.bin_width == 0.02
        assert int(dist.counts.sum()) == 20
        assert not dist.failures

    def test_estimates_sorted_by_id(self):
        dist = hurst_distribution(fgn_panel(0.6, 5), dfa(1),
                                  input_kind="increments")
        ids = [e.series_id for e in dist.estimates]
        assert ids == sorted(ids)

    def test_constant_member_isolated(self):
        good = generate_fgn(FgnSpec(n=512, hurst=0.6, seed=1))
        flat = TimeSeries("flat", good.dates, np.full(512, 3.14))
        dist = hurst_distribution(RatePanel((good, flat)), dfa(1))
        assert [i for i, _ in dist.failures] == ["flat"]
        assert "usable" in dist.failures[0][1]
        assert len(dist.estimates) == 1

    @pytest.mark.parametrize("method", [dma(), dma("backward"), dfa(1)],
                             ids=lambda m: m.label)
    def test_cancellation_noise_profile_is_a_failure(self, method):
        dist = hurst_distribution(ramp_panel(), method)
        assert [i for i, _ in dist.failures] == ["lin"]
        assert "0 usable scales" in dist.failures[0][1]
        assert [e.series_id for e in dist.estimates] == ["b", "c"]

    def test_all_members_failing(self):
        with pytest.raises(FitError, match="no panel member") as info:
            hurst_distribution(flat_panel(7), dfa(1))
        # the first five ids, then the rest counted; three distinct reasons
        message = str(info.value)
        assert "7 failed (f0, f1, f2, f3, f4 and 2 more)" in message
        assert "'f0': 0 usable scales" in message
        assert "'f2': 0 usable scales" in message
        assert message.count("usable scales") == 3

    def test_histogram_edges(self):
        dist = hurst_distribution(fgn_panel(0.65, 10), dfa(1),
                                  input_kind="increments", bin_width=0.05)
        edges = dist.bin_edges
        assert np.allclose(np.diff(edges), 0.05)
        assert edges[0] <= dist.h_min < edges[0] + 0.05
        assert edges[-2] <= dist.h_max <= edges[-1]
        assert int(dist.counts.sum()) == len(dist.estimates)
        # a value on the closed top edge counts once
        assert _histogram(np.array([0.5, 0.6]), 0.02)[1].tolist() == [1, 0, 0, 0, 1]
        # (0.56 - 0.42) / 0.02 rounds a hair above 7: still 7 bins
        assert _histogram(np.array([0.42, 0.56]), 0.02)[1].tolist() == [
            1, 0, 0, 0, 0, 0, 1]
        # a value a hair above a snapped top edge gets a bin of its own
        edges, counts = _histogram(np.array([0.5, 0.6 + 1e-12]), 0.02)
        assert counts.tolist() == [1, 0, 0, 0, 0, 1]
        assert edges[-2] <= 0.6 + 1e-12 <= edges[-1]
        # floor(0.7 / 0.02) * 0.02 rounds above 0.7: the grid starts one lower
        edges, counts = _histogram(np.array([0.7, 0.8, 0.9]), 0.02)
        assert edges[0] <= 0.7 < edges[1]
        assert counts.sum() == 3 and counts[0] == counts[-1] == 1

    @given(values=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=30),
           width=st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25, 1 / 3]))
    def test_histogram_counts_each_value_once(self, values, width):
        values = np.array(values)
        edges, counts = _histogram(values, width)
        assert np.allclose(np.diff(edges), width)
        assert edges[0] <= values.min() and values.max() <= edges[-1]
        want = np.zeros(len(counts), dtype=int)
        for v in values:
            inside = [i for i in range(len(counts))
                      if edges[i] <= v < edges[i + 1]
                      or (i == len(counts) - 1 and v == edges[-1])]
            assert len(inside) == 1
            want[inside[0]] += 1
        assert counts.tolist() == want.tolist()

    def test_compares_and_hashes_by_identity(self):
        panel = fgn_panel(0.7, 3, n=512)
        one = hurst_distribution(panel, dfa(1), input_kind="increments")
        two = hurst_distribution(panel, dfa(1), input_kind="increments")
        assert one == one and one != two
        assert len({one, two, one}) == 2

    def test_threads_do_not_change_output(self):
        panel = fgn_panel(0.7, 6)
        one = hurst_distribution(panel, dfa(1), input_kind="increments")
        two = hurst_distribution(panel, dfa(1), input_kind="increments",
                                 threads=3)
        assert [e.hurst for e in one.estimates] == [e.hurst
                                                    for e in two.estimates]

    def test_tables_and_json(self, tmp_path):
        panel = fgn_panel(0.7, 4)
        dist = hurst_distribution(panel, dfa(1), input_kind="increments")
        path = tmp_path / "panel.csv"
        path.write_text(panel_to_csv(panel))
        out = tmp_path / "out"
        assert main(["hurst", "--input", str(path), "--input-kind", "increments",
                     "--method", "dfa", "--output-dir", str(out)]) == 0
        assert (out / "hurst_estimates.csv").read_text() == (
            "id,hurst,stderr,r_squared,s_lo,s_hi\n" + "".join(
                f"{e.series_id},{e.hurst!r},{e.stderr!r},{e.r_squared!r},"
                f"{e.fit_range[0]},{e.fit_range[1]}\n" for e in dist.estimates))
        edges = dist.bin_edges.tolist()
        assert (out / "hurst_histogram.csv").read_text() == (
            "bin_low,bin_high,count\n" + "".join(
                f"{lo!r},{hi!r},{c}\n"
                for lo, hi, c in zip(edges, edges[1:], dist.counts.tolist())))
        payload = json.loads(json.dumps(dist.to_json_dict()))
        assert len(payload["estimates"]) == 4
        assert payload["summary"]["mode_bin"][0] <= payload["summary"]["h_max"]


GRID = ScaleGrid((10, 20, 40))


@pytest.mark.parametrize("build, names", [
    (lambda p: hurst_distribution(p, dfa(1), input_kind="increments"),
     ("bin_edges", "counts")),
    (lambda p: fluctuation(series_profile(p.series[0], "increments"), GRID,
                           dfa(1)),
     ("scales", "values")),
    (lambda p: pairwise_matrix(p, 20, dfa(1), input_kind="increments"),
     ("rho",)),
    (lambda p: rho_vs_scale(*p.series[:2], GRID, method=dfa(1),
                            input_kind="increments"),
     ("scales", "values")),
], ids=["HurstDistribution", "FluctuationFunction", "DccaMatrix", "RhoCurve"])
def test_result_arrays_are_read_only(build, names):
    result = build(fgn_panel(0.6, 3, n=512))
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(result, name)[0] += 7


class TestEstimatorConsistency:
    def test_bias_shrinks_with_length(self):
        biases = {}
        for n in (2**11, 2**13):
            hs = []
            for seed in range(20):
                ts = generate_fgn(FgnSpec(n=n, hurst=0.7, seed=seed))
                prof = profile_from_values(ts.values, ts.id)
                f = fluctuation(prof, default_grid(len(prof)), dfa(1))
                hs.append(fit_hurst(f).hurst)
            biases[n] = abs(np.mean(hs) - 0.7)
        assert biases[2**13] <= biases[2**11] + 0.01


class TestProfileInputKinds:
    def test_levels_vs_increments_differ(self):
        ts = generate_fgn(FgnSpec(n=1024, hurst=0.8, seed=0))
        p_incr = series_profile(ts, input_kind="increments")
        p_lvl = series_profile(ts, input_kind="levels")
        assert len(p_incr) == len(p_lvl) + 1
        assert not np.allclose(p_incr.values[:-1], p_lvl.values)


def fit_of(scales, values):
    return lambda: fit_hurst(FluctuationFunction("x", dfa(1), scales, values))


def crossover_of(scales, **kwargs):
    return lambda: detect_crossover(power_law(scales, 1.0, 0.6), **kwargs)


def unaligned_pair():
    return RatePanel((make_series(np.arange(300.0), "a"),
                      make_series(np.arange(300.0), "b", dt.date(2000, 2, 1))))


def flat_panel(n_members):
    """Constant members f0, f1, ...: each fit fails with 0 usable scales."""
    dates = trading_dates(400)
    return RatePanel(tuple(TimeSeries(f"f{i}", dates, np.full(400, i + 1.0))
                           for i in range(n_members)))


def kinked(bend):
    """PIECEWISE_GRID's power law whose slope drops by ``bend`` past 250."""
    return FluctuationFunction("k", dfa(1), PIECEWISE_GRID, piecewise_values(
        PIECEWISE_GRID, 250.0, 0.5 + bend, 0.5))


def tie_curve(eps):
    """A symmetric tent of log F over the scales 2**4..2**14, whose splits
    after 256 and after 512 mirror each other, with its last log F raised
    by ``eps``: the split after 512 then leaves a relative 4 * eps more
    squared error than the split after 256."""
    log_f = 0.2 * TENT + np.eye(11)[-1] * eps
    return FluctuationFunction("tie", dfa(1), 2 ** np.arange(4, 15), 10.0 ** log_f)


def noisy_power_law(seed):
    """A power law over PIECEWISE_GRID with 2% log-normal noise."""
    noise = np.random.default_rng(seed).normal(0.0, 0.02, PIECEWISE_GRID.size)
    return FluctuationFunction("n", dfa(1), PIECEWISE_GRID,
                               power_law(PIECEWISE_GRID, 0.02, 0.5).values * 10 ** noise)


SEVEN_SCALES = [10, 20, 40, 80, 160, 320, 640]
FLAT_REASON = "0 usable scales in [0, 250], need at least 3"


RULES = {
    "TestFitHurst": [
        ("test_too_few_points", fit_of([10, 20], [1.0, 2.0]), FitError,
         "'x': 2 usable scales in [0, 250], need at least 3"),
        ("test_all_zero_values", fit_of([10, 20, 40], [0.0, 0.0, 0.0]), FitError,
         "'x': 0 usable scales in [0, 250], need at least 3"),
        ("test_identical_scales", fit_of([10, 10, 10], [1.0, 2.0, 3.0]), FitError,
         "'x': all usable scales identical"),
        ("test_empty_range",
         lambda: fit_hurst(power_law(TEN_SCALES, 1.0, 0.5), fit_range=(100, 50)),
         FitError, "empty fit range (100, 50)"),
        ("test_fit_line_zero_variance[flat]",
         lambda: repr(_fit_line(np.stack((LOG_SCALES, FLAT_Y)))[:4]), None, "(0.0, 0.5, nan, nan)"),
        ("test_fit_line_zero_variance[tiny]",
         lambda: _fit_line(np.stack((LOG_SCALES, TINY_Y)))[2:4], None, (0.0, 0.0)),
        # this falling line's moments are exact on any platform (integer
        # deviations from integer means), and its rounded r is
        # -1.0000000000000002
        ("test_fit_line_r_clamped_at_minus_one",
         lambda: _fit_line(np.array([[0.0, 1.0, 2.0, 4.0, 5.0, 6.0],
                                     [1.0, -2.0, -5.0, -11.0, -14.0, -17.0]]))[2],
         None, -1.0),
        ("test_fit_line_two_points_has_no_stderr",
         lambda: repr(_fit_line(np.stack((LOG_SCALES[:2], LOG_SCALES[:2])))[3]), None, "nan"),
        ("test_one_scale_range",
         lambda: fit_hurst(power_law(TEN_SCALES, 1.0, 0.5), fit_range=(50, 50)),
         FitError, "'pl': 0 usable scales in [50, 50], need at least 3")],
    "TestDetectCrossover": [
        ("test_too_few_points", crossover_of([10, 20, 40, 80, 160, 320]), FitError,
         "'pl': 6 usable scales, need at least 7 for a crossover search"),
        ("test_parameter_validation[improvement_threshold]",
         crossover_of(PIECEWISE_GRID, improvement_threshold=0.0), ValueError,
         "improvement_threshold must be in (0, 1)"),
        ("test_parameter_validation[min_side_points]",
         crossover_of(PIECEWISE_GRID, min_side_points=1), ValueError,
         "need at least 2 points per side"),
        ("test_parameter_validation[improvement_threshold=1]",
         crossover_of(PIECEWISE_GRID, improvement_threshold=1.0), ValueError,
         "improvement_threshold must be in (0, 1)"),
        ("test_two_points_per_side",
         lambda: crossover_of(PIECEWISE_GRID, min_side_points=2)().breakpoint_scale,
         None, None),
        # two lines fit seed 1's noise with 38% less squared error, short
        # of the default threshold of one half
        ("test_default_threshold_is_half",
         lambda: detect_crossover(noisy_power_law(1)).breakpoint_scale, None, None),
        ("test_bend_at_the_first_candidate", lambda: detect_crossover(
            FluctuationFunction("pw", dfa(1), PIECEWISE_GRID, piecewise_values(
                PIECEWISE_GRID, 24.0, 0.85, 0.50))).breakpoint_scale, None, 24),
        ("test_exactly_enough_points",
         lambda: crossover_of(SEVEN_SCALES)().breakpoint_scale, None, None),
        ("test_zero_values_excluded",
         lambda: detect_crossover(FluctuationFunction(
             "z", dfa(1), SEVEN_SCALES, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
         FitError, "'z': 6 usable scales, need at least 7 for a crossover search"),
        # the single line's SSE is 1.8e-20 (above the 1e-20 floor) or 4.5e-21
        # (below it: ratio 0); splits whose SSEs are within 1e-20 of the
        # best tie, so the largest such split scale wins
        ("test_sse_floor[above]",
         lambda: detect_crossover(kinked(2e-10)).breakpoint_scale, None, 640),
        ("test_sse_floor[below]",
         lambda: detect_crossover(kinked(1e-10)).improvement_ratio, None, 0.0),
        # SSEs within a relative 1e-9 tie, and the tie goes to the larger scale
        ("test_sse_tie_window[inside]",
         lambda: detect_crossover(tie_curve(1.25e-10)).breakpoint_scale, None, 512),
        ("test_sse_tie_window[outside]",
         lambda: detect_crossover(tie_curve(5e-10)).breakpoint_scale, None, 256)],
    "TestHurstDistribution": [
        ("test_unaligned_panel_rejected",
         lambda: hurst_distribution(unaligned_pair(), dfa(1)), AlignmentError,
         "panel must be aligned before batch estimation"),
        *[(name, lambda w=w: hurst_distribution(fgn_panel(0.6, 3), dfa(1), bin_width=w),
           ValueError, "bin_width must be positive and finite") for name, w in [
              ("test_bad_bin_width", 0.0), ("test_non_finite_bin_width[nan]", np.nan),
              ("test_non_finite_bin_width[inf]", np.inf)]],
        # 2**60 bins, the float64 values numpy can size, and a bin count
        # whose quotient overflows
        *[(f"test_histogram_bin_count_bound[{w!r}]",
           lambda w=w: _histogram(np.array([0.5, 0.75]), w), ValueError,
           f"bin width {w!r} splits the exponent range [0.5, 0.75] into 2**60 "
           "or more bins") for w in (2.0 ** -62, 5e-324)],
        ("test_five_members_failing",
         lambda: hurst_distribution(flat_panel(5), dfa(1)), FitError,
         "no panel member produced a usable fit: 5 failed (f0, f1, f2, f3, f4); "
         f"'f0': {FLAT_REASON}; 'f1': {FLAT_REASON}; 'f2': {FLAT_REASON}")],
}
rule_tests(globals(), RULES)
