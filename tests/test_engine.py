"""The residual engine behind F(s) and the coefficient matrices.

``fluctuation`` and ``pairwise_matrix`` reduce residuals straight from the
engine; ``detrended_segments`` materializes the same rows in one array.
These properties pin the paths together bit for bit, on segments that snap
to the rounding floor too, and tie both to the loop oracle in
``reference.py`` within its usual tolerances.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem.dcca import _normalize, pairwise_matrix
from longmem.errors import DegenerateSeriesError
from longmem.hurst import hurst_distribution
from longmem.scaling import (
    _RESIDUAL_FLOOR,
    ScaleGrid,
    _Residuals,
    detrended_segments,
    dfa,
    dma,
    fluctuation,
)
from longmem.series import Profile, RatePanel, series_profile
from longmem.synthetic import BlockSpec, generate_blocks

import reference
from conftest import make_series

METHODS = [dfa(1), dfa(2), dfa(3), dma("centered"), dma("backward")]
BLOCKS = {
    "constant": lambda t: np.full(t.size, 2.5),
    "drift": lambda t: 1.5 - 0.25 * t,
    "quadratic": lambda t: 0.5 + 0.125 * t - 0.0625 * t * t,
}


@st.composite
def profile_values(draw, n_min=10, n_max=300):
    """A telescoping random walk, part or all of it an exact polynomial.

    Polynomial and constant stretches make whole segments detrend to the
    rounding floor, so snapped rows occur alongside ordinary ones.
    """
    n = draw(st.integers(n_min, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_normal(n).cumsum()
    block = draw(st.sampled_from(["none", *BLOCKS]))
    if block != "none":
        if draw(st.booleans()):
            lo, hi = 0, n - 1
        else:
            lo = draw(st.integers(0, n - 3))
            hi = draw(st.integers(lo + 2, n - 1))
        y[lo:hi] = BLOCKS[block](np.arange(hi - lo, dtype=float))
    y[-1] = 0.0
    return y


@st.composite
def scale_lists(draw, n, method):
    """1-4 usable scales: the method minimum, n//2, a divisor of n, any."""
    lo, hi = method.min_scale, n // 2
    divisors = [d for d in range(lo, hi + 1) if n % d == 0] or [lo]
    picks = draw(st.lists(st.sampled_from(["min", "half", "divisor", "any"]),
                          min_size=1, max_size=4))
    scales = set()
    for pick in picks:
        if pick == "min":
            scales.add(lo)
        elif pick == "half":
            scales.add(hi)
        elif pick == "divisor":
            scales.add(draw(st.sampled_from(divisors)))
        else:
            scales.add(draw(st.integers(lo, hi)))
    return tuple(sorted(scales))


@st.composite
def profile_cases(draw):
    method = draw(st.sampled_from(METHODS))
    y = draw(profile_values())
    return method, y, draw(scale_lists(len(y), method))


def stacked_rho(profiles, ids, s, method):
    """Coefficients from the gram of stacked ``detrended_segments`` rows."""
    flat = np.stack([detrended_segments(y, s, method).reshape(-1)
                     for y in profiles])
    n = flat.shape[1]
    f2 = np.einsum("ij,ij->i", flat, flat) / n
    return _normalize(f2, (flat @ flat.T) / n, ids, s)


class TestFluctuationBits:
    @settings(max_examples=200)
    @given(case=profile_cases())
    def test_equals_mean_of_materialized_rows(self, case):
        method, y, scales = case
        f = fluctuation(Profile("p", y), ScaleGrid(scales, s_min=2), method)
        for s, got in zip(scales, f.values):
            r = detrended_segments(y, s, method)
            assert got == np.sqrt(np.mean(np.mean(r * r, axis=1)))

    @given(case=profile_cases())
    def test_matches_loop_oracle(self, case):
        method, y, scales = case
        f = fluctuation(Profile("p", y), ScaleGrid(scales, s_min=2), method)
        want = [reference.naive_fluctuation(y, s, method) for s in scales]
        assert np.allclose(f.values, want, rtol=1e-10, atol=1e-10)


@st.composite
def increment_panels(draw, snapping=True):
    """2-4 increment series on one index, optionally with constant runs."""
    n = draw(st.integers(20, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for k in range(draw(st.integers(2, 4))):
        x = rng.standard_normal(n)
        if snapping and draw(st.booleans()):
            lo = draw(st.integers(0, n - 2))
            x[lo:draw(st.integers(lo + 2, n))] = 0.75
        members.append(make_series(x, f"m{k}"))
    return RatePanel(tuple(members))


class TestMatrixBits:
    @settings(max_examples=100)
    @given(panel=increment_panels(), method=st.sampled_from(METHODS),
           data=st.data())
    def test_equals_gram_of_stacked_rows(self, panel, method, data):
        n = len(panel.days)
        s = data.draw(scale_lists(n, method))[0]
        profiles = [series_profile(ts, "increments").values
                    for ts in panel.series]
        try:
            want = stacked_rho(profiles, panel.ids, s, method)
        except DegenerateSeriesError as exc:
            try:
                pairwise_matrix(panel, s, method, input_kind="increments")
            except DegenerateSeriesError as got:
                assert got.ids == exc.ids
                return
            raise AssertionError("matrix accepted a degenerate member")
        got = pairwise_matrix(panel, s, method, input_kind="increments")
        assert np.array_equal(got.rho, want)

    @given(panel=increment_panels(snapping=False),
           method=st.sampled_from(METHODS), data=st.data())
    def test_matches_loop_oracle(self, panel, method, data):
        n = len(panel.days)
        s = data.draw(scale_lists(n, method))[0]
        got = pairwise_matrix(panel, s, method, input_kind="increments").rho
        profiles = [series_profile(ts, "increments").values
                    for ts in panel.series]
        for i in range(len(profiles)):
            for j in range(i + 1, len(profiles)):
                want = reference.naive_rho(profiles[i], profiles[j], s, method)
                assert np.isclose(got[i, j], want, rtol=1e-10, atol=1e-12)


class TestFloorCandidates:
    @given(top_value=st.floats(1.0, 1e6), s=st.integers(3, 400),
           seed=st.integers(0, 2**32 - 1))
    @example(top_value=1.6369616873214543, s=154, seed=0)
    def test_bound_keeps_every_row_that_can_snap(self, top_value, s, seed):
        # Residuals of +-floor, the largest a snapping row may hold.  The
        # reductions the engine filters on may round a few ulps above
        # floor**2, which the bound must absorb.
        floor = _RESIDUAL_FLOOR * top_value
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=(1, s))
        r = floor * signs
        bound = _Residuals(np.array([top_value, 0.0]), dma())._ms_bound
        assert np.mean(r * r, axis=1)[0] <= bound
        assert np.einsum("ij,ij->i", r, r)[0] / s <= bound

    def test_example_mean_of_squares_exceeds_max_square(self):
        # the pinned example above is one where the slack is needed
        floor = _RESIDUAL_FLOOR * 1.6369616873214543
        r = np.full((1, 154), floor)
        assert np.mean(r * r, axis=1)[0] > floor * floor


class TestWarmCalls:
    """A call on a panel whose profiles are kept equals the first call."""

    SPEC = BlockSpec(n_blocks=2, block_size=3, common_weight=0.6, hurst=0.7,
                     n=2048, seed=8)

    def test_hurst_distribution(self):
        panel = generate_blocks(self.SPEC)
        for method in (dma(), dfa(2)):
            cold = hurst_distribution(panel, method, input_kind="increments")
            warm = hurst_distribution(panel, method, input_kind="increments")
            fresh = hurst_distribution(generate_blocks(self.SPEC), method,
                                       input_kind="increments")
            assert warm.to_json_dict() == cold.to_json_dict()
            assert fresh.to_json_dict() == cold.to_json_dict()

    def test_pairwise_matrix(self):
        panel = generate_blocks(self.SPEC)
        for method in (dma(), dfa(2)):
            for s in (16, 100):
                cold = pairwise_matrix(panel, s, method, input_kind="increments")
                warm = pairwise_matrix(panel, s, method, input_kind="increments")
                assert np.array_equal(warm.rho, cold.rho)
