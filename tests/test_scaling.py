import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from longmem.errors import ScaleError
from longmem.scaling import (
    _DEFAULT_SCALE_CAP,
    _poly_basis,
    _Residuals,
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
    def test_dfa_defaults(self):
        m = dfa()
        assert (m.kind, m.order) == ("dfa", 1)
        assert m.label == "dfa1"
        assert m.min_scale == 3

    def test_dfa_higher_order(self):
        assert dfa(2).min_scale == 4
        assert dfa(3).label == "dfa3"

    def test_dma_defaults(self):
        m = dma()
        assert (m.kind, m.alignment) == ("dma", "centered")
        assert m.label == "dma-centered"
        assert m.min_scale == 2

    def test_dma_backward(self):
        assert dma("backward").label == "dma-backward"

    def test_json_dicts(self):
        assert dfa(2).to_json_dict() == {"kind": "dfa", "order": 2}
        assert dma("backward").to_json_dict() == {"kind": "dma",
                                                  "alignment": "backward"}


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

    def test_default_grid_quarter_length(self):
        assert list(default_grid(100))[-1] == 25

    def test_default_grid_explicit_max(self):
        grid = default_grid(100_000, s_max=800, num=30)
        assert list(grid)[-1] == 800

    def test_default_grid_custom_min(self):
        assert list(default_grid(1000, s_min=5))[0] == 5


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
    """The trend detrended_segments removes from each segment."""

    def test_backward_trailing_means(self):
        # trailing means 0, 0.5, 1.5, 2.5 leave residuals 0, 0.5, 0.5, 0.5
        resid = detrended_segments(np.array([0.0, 1.0, 2.0, 3.0]), 2,
                                   dma("backward"))
        assert resid.tolist() == [[0.0, 0.5], [0.5, 0.5], [0.5, 0.5],
                                  [0.0, 0.5]]


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


# (n, s, method, error); a usable scale gives 2 * (n // s) rows of s points
SEGMENT_SCALES = [
    (5, 6, dma(), "scale 6 exceeds half the profile length 5"),
    (40, 21, dfa(1), "scale 21 exceeds half the profile length 40"),
    (10, 1, dma(), "scale 1 below method minimum 2 (dma-centered)"),
    (40, 2, dfa(1), "scale 2 below method minimum 3 (dfa1)"),
    (40, 3, dfa(2), "scale 3 below method minimum 4 (dfa2)"),
    (40, 4, dfa(3), "scale 4 below method minimum 5 (dfa3)"),
    (40, 3, dfa(1), None),
    (40, 4, dfa(2), None),
    (40, 5, dfa(3), None),
]

T = np.linspace(-1.0, 1.0, 60)
# (y, s, method, all_zero): a trend the method fits exactly leaves exact zeros
EXACT_POLYNOMIALS = [
    (np.linspace(-5.0, 0.0, 20), 8, dfa(1), True),
    (np.full(12, 3.0), 5, dma(), True),
    (np.linspace(0.0, 10.0, 50), 10, dfa(1), True),
    (np.linspace(0.0, 10.0, 50), 10, dfa(2), True),
    (3.0 * T * T, 10, dfa(2), True),
    (3.0 * T * T, 10, dfa(1), False),
]


class TestDetrendedSegments:
    def test_shapes(self):
        y = np.random.default_rng(0).standard_normal(100).cumsum()
        assert detrended_segments(y, 10, dfa(1)).shape == (20, 10)
        assert detrended_segments(y, 7, dma()).shape == (28, 7)

    @pytest.mark.parametrize("n, s, method, error", SEGMENT_SCALES,
                             ids=lambda v: getattr(v, "label", None))
    def test_scale_bounds(self, n, s, method, error):
        y = np.random.default_rng(5).standard_normal(n).cumsum()
        if error is None:
            assert detrended_segments(y, s, method).shape == (2 * (n // s), s)
            return
        with pytest.raises(ScaleError) as exc:
            detrended_segments(y, s, method)
        assert str(exc.value) == error

    @pytest.mark.parametrize("y, s, method, all_zero", EXACT_POLYNOMIALS,
                             ids=lambda v: getattr(v, "label", None))
    def test_exact_polynomial(self, y, s, method, all_zero):
        assert np.all(detrended_segments(y, s, method) == 0.0) == all_zero

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

    @pytest.mark.parametrize("method", [dfa(1), dfa(2), dma(), dma("backward")],
                             ids=lambda m: m.label)
    @pytest.mark.parametrize("s", [5, 10])
    def test_matches_naive_segments(self, method, s):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(57).cumsum()
        got = detrended_segments(y, s, method)
        want = reference.naive_residuals(y, s, method)
        assert got.shape[0] == len(want)
        for row, ref_row in zip(got, want):
            assert np.allclose(row, ref_row, rtol=1e-10, atol=1e-10)


class TestFluctuation:
    def test_segment_counts_and_sign(self):
        prof = profile_from_values(
            np.random.default_rng(1).standard_normal(500), "r")
        grid = default_grid(len(prof))
        f = fluctuation(prof, grid, dfa(1))
        assert list(f.scales) == list(grid)
        assert np.all(f.values >= 0)

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


BAD_ALIGNMENT = "dma alignment must be 'centered' or 'backward', got 'forward'"
RULES = {
    "TestDetrendMethod": [
        ("test_dfa_order_zero_rejected", lambda: dfa(0), ValueError,
         "dfa order must be >= 1, got 0"),
        ("test_dma_bad_alignment", lambda: dma("forward"), ValueError, BAD_ALIGNMENT),
        ("test_unknown_kind", lambda: DetrendMethod("wavelet"), ValueError,
         "unknown detrend kind 'wavelet'")],
    "TestMovingAverage": [
        ("test_unknown_alignment", lambda: _Residuals((np.zeros(4),), dma("forward")),
         ValueError, BAD_ALIGNMENT)],
    "TestScaleGrid": [
        ("test_empty", lambda: ScaleGrid(()), ScaleError, "empty scale grid"),
        ("test_scales_at_least_two[1]", lambda: ScaleGrid((1, 5)), ScaleError,
         "scale 1 below 2"),
        ("test_scales_at_least_two[2]", lambda: list(ScaleGrid((2, 5))), None, [2, 5]),
        ("test_not_increasing", lambda: ScaleGrid((10, 10, 20)), ScaleError,
         "scales not strictly increasing at 10, 10"),
        ("test_default_grid_too_short", lambda: default_grid(30), ScaleError,
         "profile of length 30 leaves no scales in [10, 7]"),
        *[(f"test_default_grid_min_below_two[{s_min}]",
           lambda s_min=s_min: default_grid(1000, s_min=s_min), ScaleError,
           f"s_min must be >= 2, got {s_min}") for s_min in (1, 0, -3)]],
    "TestFluctuation": [
        ("test_value_validation[negative]",
         lambda: FluctuationFunction("x", dfa(1), [10], [-0.5]), ValueError,
         "auto-fluctuation values must be >= 0"),
        ("test_value_validation[mismatch]",
         lambda: FluctuationFunction("x", dfa(1), [10, 20], [0.5]), ValueError,
         "scales and values length mismatch")],
}
rule_tests(globals(), RULES)
