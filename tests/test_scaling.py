from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from longmem.errors import LongmemError
from longmem.scaling import (
    _CHUNK_ELEMS,
    _DEFAULT_SCALE_CAP,
    _poly_basis,
    _Residuals,
    _row_chunks,
    DetrendMethod,
    FluctuationFunction,
    ScaleGrid,
    default_grid,
    detrended_segments,
    dfa,
    dma,
    fluctuation,
)
from longmem.series import Profile, profile_from_values

import reference
from conftest import rule_tests


def f_of(resid: np.ndarray) -> float:
    """Fluctuation value from a residual matrix (rows share one length)."""
    return float(np.sqrt(np.mean(resid * resid)))


class TestDetrendMethod:
    """Fields, labels and minimum scales (rows in RULES)."""


class TestScaleGrid:
    def test_iteration(self):
        grid = ScaleGrid((10, 20, 40))
        assert list(grid) == [10, 20, 40]
        assert len(grid) == 3

    def test_default_grid_caps_at_one_year(self):
        grid = default_grid(100_000)
        scales = list(grid)
        assert scales[0] == 10
        assert scales[-1] == _DEFAULT_SCALE_CAP
        assert all(b > a for a, b in zip(scales, scales[1:]))
        assert len(scales) <= 20



def dma_rows(y: np.ndarray, s: int, ranges) -> np.ndarray:
    """Rows detrended_segments must give under dma() for these index ranges."""
    resid = y - _Residuals((y,), dma()).trend(s)[0]
    return np.array([resid[lo:hi] for lo, hi in ranges])


class TestSegmentBounds:
    """Row order of detrended_segments: tiled from the start, then the end."""

    def test_n10_s3(self):
        y = np.random.default_rng(3).standard_normal(10).cumsum()
        want = dma_rows(y, 3, [(0, 3), (3, 6), (6, 9), (7, 10), (4, 7), (1, 4)])
        assert np.array_equal(detrended_segments(y, 3, dma()), want)

    def test_exact_division_keeps_both_passes(self):
        y = np.random.default_rng(4).standard_normal(9).cumsum()
        got = detrended_segments(y, 3, dma())
        assert got.shape == (6, 3)
        assert np.array_equal(got[3:], got[2::-1])

    @given(n=st.integers(4, 400), s=st.integers(2, 200))
    def test_tiling_properties(self, n, s):
        assume(s <= n // 2)
        y = np.arange(n, dtype=float) ** 1.5
        got = detrended_segments(y, s, dma())
        assert got.shape == (2 * (n // s), s)
        assert np.array_equal(
            got, dma_rows(y, s, reference.naive_segment_ranges(n, s)))


class TestMovingAverage:
    def test_backward_pairs(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert list(_Residuals((y,), dma("backward")).trend(2)[0]) == [0.0, 0.5, 1.5, 2.5]

    def test_centered_window_three(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        assert list(_Residuals((y,), dma("centered")).trend(3)[0]) == [0.5, 1.0, 2.0, 2.5]

    @given(values=st.lists(st.floats(-100, 100), min_size=8, max_size=40),
           s=st.integers(2, 7),
           alignment=st.sampled_from(["centered", "backward"]))
    def test_matches_naive_windows(self, values, s, alignment):
        y = np.array(values)
        got = _Residuals((y,), dma(alignment)).trend(s)[0]
        want = reference.naive_ma_trend(y, s, alignment)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-9)


class TestLocalTrend:
    """The trend detrended_segments removes from each segment (rows in RULES)."""


class TestPolyBasis:
    """The DFA basis and pseudoinverse, built once per (s, order)."""

    @pytest.mark.parametrize("s,order", [(3, 1), (20, 1), (20, 2), (257, 3)])
    def test_equals_fresh_pinv_and_is_read_only(self, s, order):
        x = (np.arange(s, dtype=float) - (s - 1) / 2.0) / ((s - 1) / 2.0)
        want = np.vander(x, order + 1, increasing=True)
        basis, pinv = _poly_basis(s, order)
        assert np.array_equal(basis, want)
        assert np.array_equal(pinv, np.linalg.pinv(want))
        for arr in (basis, pinv):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_built_once(self):
        basis, pinv = _poly_basis(37, 2)
        again = _poly_basis(37, 2)
        assert again[0] is basis and again[1] is pinv


class TestDetrendedSegments:
    def test_shapes(self):
        y = np.random.default_rng(0).standard_normal(100).cumsum()
        assert detrended_segments(y, 10, dfa(1)).shape == (20, 10)
        assert detrended_segments(y, 7, dma()).shape == (28, 7)

    def test_polynomial_invariance(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(200).cumsum()
        t = np.arange(200, dtype=float)
        for order, poly in [(1, 3.0 - 0.01 * t),
                            (2, 3.0 - 0.01 * t + 2e-5 * t * t)]:
            base = f_of(detrended_segments(y, 20, dfa(order)))
            shifted = f_of(detrended_segments(y + poly, 20, dfa(order)))
            assert shifted == pytest.approx(base, rel=1e-8)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(150).cumsum()
        for method in (dfa(1), dma(), dma("backward")):
            base = f_of(detrended_segments(y, 15, method))
            for c in (2.5, -3.0):
                scaled = f_of(detrended_segments(c * y, 15, method))
                assert scaled == pytest.approx(abs(c) * base, rel=1e-10)


class TestFluctuation:
    def test_segment_counts_and_sign(self):
        prof = profile_from_values(
            np.random.default_rng(1).standard_normal(500), "r")
        grid = default_grid(len(prof))
        f = fluctuation(prof, grid, dfa(1))
        assert list(f.scales) == list(grid)
        assert np.all(f.values >= 0)

    def test_dma_forms_each_trend_once(self, monkeypatch):
        # segments are re-checked against a fresh trend only near the
        # rounding floor, which a random walk never reaches
        calls = []
        trend = _Residuals.trend
        monkeypatch.setattr(_Residuals, "trend",
                            lambda self, s: calls.append(s) or trend(self, s))
        prof = profile_from_values(np.random.default_rng(6).standard_normal(4000), "x")
        grid = default_grid(len(prof), num=20)
        fluctuation(prof, grid, dma())
        assert len(grid) == 20 and calls == list(grid)

    def test_linear_profile_is_flat_zero(self):
        prof = Profile("lin", np.linspace(-7.5, 0.0, 120))
        f = fluctuation(prof, default_grid(120), dfa(1))
        assert np.all(f.values == 0.0)

    def test_iid_increments_slope_half(self):
        slopes = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            prof = profile_from_values(rng.standard_normal(8192), "iid")
            f = fluctuation(prof, default_grid(len(prof)), dfa(1))
            slopes.append(np.polyfit(np.log10(f.scales),
                                     np.log10(f.values), 1)[0])
        assert np.mean(slopes) == pytest.approx(0.50, abs=0.05)

    def test_fgn_increments_slope(self):
        from longmem.synthetic import FgnSpec, generate_fgn

        slopes = []
        for seed in range(20):
            ts = generate_fgn(FgnSpec(n=8192, hurst=0.8, seed=seed))
            prof = profile_from_values(ts.values, ts.id)
            f = fluctuation(prof, default_grid(len(prof)), dfa(1))
            slopes.append(np.polyfit(np.log10(f.scales),
                                     np.log10(f.values), 1)[0])
        assert np.mean(slopes) == pytest.approx(0.80, abs=0.05)

    def test_standard_error_shrinks_with_realizations(self):
        # Slope spread over groups of 10 realizations should be about
        # 1/sqrt(2) of the spread over groups of 5.
        slopes = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            prof = profile_from_values(rng.standard_normal(512), "iid")
            f = fluctuation(prof, default_grid(len(prof)), dfa(1))
            slopes.append(np.polyfit(np.log10(f.scales),
                                     np.log10(f.values), 1)[0])
        slopes = np.array(slopes)
        se_5 = np.std(slopes.reshape(40, 5).mean(axis=1))
        se_10 = np.std(slopes.reshape(20, 10).mean(axis=1))
        ratio = se_10 / se_5
        assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.30)


def walk_segments(n, s, method):
    """detrended_segments of an n-point random walk."""
    y = np.random.default_rng(5).standard_normal(n).cumsum()
    return detrended_segments(y, s, method)


T = np.linspace(-1.0, 1.0, 60)
# a rate at 100 rising 0.01 a day: its profile is cancellation noise of a
# few dozen ulps, which every method must detrend to exact zeros
RAMP_100 = profile_from_values(np.abs(np.diff(100.0 + 0.01 * np.arange(200))),
                               "r").values
DFA_FIELDS = attrgetter("kind", "order", "label", "min_scale")
DMA_FIELDS = attrgetter("kind", "alignment", "label", "min_scale")
BAD_ALIGNMENT = "dma alignment must be 'centered' or 'backward', got 'forward'"
RULES = {
    "TestDetrendedSegments": [
        *[(f"test_scale_bounds[{n}-{s}-{m.label}-{error}]",
           lambda n=n, s=s, m=m: walk_segments(n, s, m), LongmemError, error)
          for n, s, m, error in [
              (5, 6, dma(), "scale 6 exceeds half the profile length 5"),
              (40, 21, dfa(1), "scale 21 exceeds half the profile length 40"),
              (10, 1, dma(), "scale 1 below method minimum 2 (dma-centered)"),
              (40, 2, dfa(1), "scale 2 below method minimum 3 (dfa1)"),
              (40, 3, dfa(2), "scale 3 below method minimum 4 (dfa2)"),
              (40, 4, dfa(3), "scale 4 below method minimum 5 (dfa3)")]],
        # a usable scale gives 2 * (n // s) rows of s points
        *[(f"test_scale_bounds[40-{s}-{m.label}-None]",
           lambda s=s, m=m: walk_segments(40, s, m).shape, None, (2 * (40 // s), s))
          for s, m in [(3, dfa(1)), (4, dfa(2)), (5, dfa(3))]],
        # a trend the method fits exactly leaves exact zeros
        *[(f"test_exact_polynomial[y{k}-{s}-{m.label}-{zero}]",
           lambda y=y, s=s, m=m: np.all(detrended_segments(y, s, m) == 0.0), None, zero)
          for k, (y, s, m, zero) in enumerate([
              (np.linspace(-5.0, 0.0, 20), 8, dfa(1), True),
              (np.full(12, 3.0), 5, dma(), True),
              (np.linspace(0.0, 10.0, 50), 10, dfa(1), True),
              (np.linspace(0.0, 10.0, 50), 10, dfa(2), True),
              (3.0 * T * T, 10, dfa(2), True),
              (3.0 * T * T, 10, dfa(1), False),
              (RAMP_100, 20, dma(), True),
              (RAMP_100, 20, dfa(1), True),
              # residuals of exactly the floor, 64 eps of a segment below 1
              # in magnitude, snap to zero; a few ulps above it they do not
              (np.resize([0.0, 2.0 ** -45], 8), 2, dma(), True),
              (np.resize([0.0, 2.0 ** -45 * (1 + 2.0 ** -50)], 8), 2, dma(), False)])]],
    "TestDetrendMethod": [
        ("test_dfa_defaults", lambda: DFA_FIELDS(dfa()), None, ("dfa", 1, "dfa1", 3)),
        ("test_dfa_higher_order", lambda: (dfa(2).min_scale, dfa(3).label), None,
         (4, "dfa3")),
        ("test_dfa_default_order", lambda: DetrendMethod("dfa").label, None, "dfa1"),
        ("test_dma_defaults", lambda: DMA_FIELDS(dma()), None,
         ("dma", "centered", "dma-centered", 2)),
        ("test_dma_backward", lambda: dma("backward").label, None, "dma-backward"),
        ("test_json_dicts",
         lambda: [m.to_json_dict() for m in (dfa(2), dma("backward"))], None,
         [{"kind": "dfa", "order": 2}, {"kind": "dma", "alignment": "backward"}]),
        ("test_dfa_order_zero_rejected", lambda: dfa(0), LongmemError,
         "dfa order must be >= 1, got 0"),
        ("test_dma_bad_alignment", lambda: dma("forward"), LongmemError, BAD_ALIGNMENT),
        ("test_unknown_kind", lambda: DetrendMethod("wavelet"), LongmemError,
         "unknown detrend kind 'wavelet'")],
    "TestMovingAverage": [
        ("test_unknown_alignment", lambda: _Residuals((np.zeros(4),), dma("forward")),
         LongmemError, BAD_ALIGNMENT)],
    "TestLocalTrend": [
        # trailing means 0, 0.5, 1.5, 2.5 leave residuals 0, 0.5, 0.5, 0.5
        ("test_backward_trailing_means",
         lambda: detrended_segments(np.arange(4.0), 2, dma("backward")).tolist(), None,
         [[0.0, 0.5], [0.5, 0.5], [0.5, 0.5], [0.0, 0.5]])],
    "TestScaleGrid": [
        ("test_default_grid_quarter_length", lambda: list(default_grid(100))[-1], None,
         25),
        ("test_default_grid_explicit_max",
         lambda: list(default_grid(100_000, s_max=800, num=30))[-1], None, 800),
        ("test_default_grid_custom_min", lambda: list(default_grid(1000, s_min=5))[0],
         None, 5),
        ("test_empty", lambda: ScaleGrid(()), LongmemError, "empty scale grid"),
        ("test_scales_at_least_two[1]", lambda: ScaleGrid((1, 5)), LongmemError,
         "scale 1 below 2"),
        ("test_scales_at_least_two[2]", lambda: list(ScaleGrid((2, 5))), None, [2, 5]),
        ("test_not_increasing", lambda: ScaleGrid((10, 10, 20)), LongmemError,
         "scales not strictly increasing at 10, 10"),
        ("test_numpy_integers",
         lambda: [type(s) for s in ScaleGrid(np.array([2, 5])).scales], None,
         [int, int]),
        ("test_not_integers[float]", lambda: ScaleGrid((2.5, 5.9)), LongmemError,
         "scale 2.5 is not an integer"),
        ("test_not_integers[str]", lambda: ScaleGrid(("3", 5)), LongmemError,
         "scale '3' is not an integer"),
        ("test_default_grid_too_short", lambda: default_grid(30), LongmemError,
         "profile of length 30 leaves no scales in [10, 7]"),
        *[(f"test_default_grid_min_below_two[{s_min}]",
           lambda s_min=s_min: default_grid(1000, s_min=s_min), LongmemError,
           f"s_min must be >= 2, got {s_min}") for s_min in (1, 0, -3)],
        ("test_default_grid_min_of_two",
         lambda: list(default_grid(1000, s_min=2, s_max=4, num=3)), None, [2, 3, 4]),
        ("test_default_grid_single_scale", lambda: list(default_grid(100, s_min=25)),
         None, [25])],
    "TestFluctuation": [
        ("test_long_profile_is_a_chunk_of_one_row",
         lambda: _row_chunks([0, 1, 2], _CHUNK_ELEMS + 1), None, [[0], [1], [2]]),
        ("test_value_validation[negative]",
         lambda: FluctuationFunction("x", dfa(1), [10], [-0.5]), LongmemError,
         "auto-fluctuation values must be >= 0"),
        ("test_value_validation[mismatch]",
         lambda: FluctuationFunction("x", dfa(1), [10, 20], [0.5]), LongmemError,
         "scales and values length mismatch")],
}
rule_tests(globals(), RULES)
