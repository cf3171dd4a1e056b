"""The residual engine behind F(s) and the coefficient matrices.

``fluctuation`` and ``pairwise_matrix`` reduce residuals straight from the
engine; ``detrended_segments`` materializes the same rows in one array.
These properties pin the paths together bit for bit, on segments that snap
to the rounding floor too, and tie both to the loop oracle in
``reference.py`` within its usual tolerances.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem import scaling
from longmem.cli import main
from longmem.dcca import _normalize, pairwise_matrix, rho_from_profiles
from longmem.errors import DegenerateSeriesError, FitError, LongmemError
from longmem.hurst import (
    _map_fluctuations,
    detect_crossover,
    fit_hurst,
    hurst_distribution,
)
from longmem.scaling import (
    _CHUNK_ELEMS,
    _RESIDUAL_FLOOR,
    ScaleGrid,
    _fluctuations,
    _Residuals,
    default_grid,
    detrended_segments,
    dfa,
    dma,
    fluctuation,
)
from longmem.series import (
    Profile,
    RatePanel,
    panel_to_csv,
    profile_from_values,
    series_profile,
)
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
        f = fluctuation(Profile("p", y), ScaleGrid(scales), method)
        for s, got in zip(scales, f.values):
            r = detrended_segments(y, s, method)
            assert got == np.sqrt(np.mean(np.mean(r * r, axis=1)))

    @given(case=profile_cases())
    def test_matches_loop_oracle(self, case):
        method, y, scales = case
        f = fluctuation(Profile("p", y), ScaleGrid(scales), method)
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
        bound = _Residuals((np.array([top_value, 0.0]),), dma())._ms_bound[0]
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


# Row chunks of the engine at a small profile length: a panel of CHUNK
# members fills one chunk exactly.
N_SMALL = 2000
CHUNK = _CHUNK_ELEMS // N_SMALL
LAYOUTS = [1, CHUNK - 1, CHUNK, CHUNK + 1]


def small_grid(method) -> ScaleGrid:
    return ScaleGrid((method.min_scale, 16, 100, N_SMALL // 2))


def chunk_profiles(count: int, seed: int) -> list[Profile]:
    """``count`` walks, one of them (the probe) pure cancellation noise.

    The probe is the profile of the constant absolute changes of a levels
    ramp: every segment sits at the rounding floor, so its F is 0, and it
    shares a chunk with ordinary members.  Another member has a constant
    run of increments, so some of its segments snap and others do not.
    """
    rng = np.random.default_rng(seed)
    profiles = [profile_from_values(rng.standard_normal(N_SMALL), f"w{i:02d}")
                for i in range(count)]
    probe = series_profile(make_series(1.0 + 0.01 * np.arange(N_SMALL + 1),
                                       "probe"))
    profiles[count // 2] = probe
    if count > 2:
        x = rng.standard_normal(N_SMALL)
        x[300:900] = 0.75
        profiles[-1] = profile_from_values(x, "run")
    return profiles


def fresh(p: Profile) -> Profile:
    """The same values on a profile with nothing computed yet."""
    return Profile(p.parent_id, p.values)


def chunk_panel(count: int, seed: int) -> RatePanel:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, N_SMALL))
    if count > 2:
        x[count // 2, 200:1100] = 0.75
    return RatePanel(tuple(make_series(row, f"m{i:02d}")
                           for i, row in enumerate(x)))


class TestRowChunks:
    """A row-chunked engine gives every member its one-row values, bit for bit."""

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.label)
    def test_block_rows_equal_one_row_engines(self, method):
        profiles = chunk_profiles(CHUNK, 5)
        block = _Residuals([p.values for p in profiles], method)
        for s in small_grid(method):
            ms, resid = block.mean_squares(s), block.residuals(s)
            for i, p in enumerate(profiles):
                one = _Residuals((p.values,), method)
                assert np.array_equal(ms[i], one.mean_squares(s)[0])
                assert np.array_equal(resid[i], one.residuals(s)[0])
                assert np.array_equal(resid[i],
                                      detrended_segments(p.values, s, method))

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.label)
    @pytest.mark.parametrize("count", LAYOUTS)
    def test_fluctuations_equal_per_member(self, method, count):
        profiles = chunk_profiles(count, count)
        grid = small_grid(method)
        got = _fluctuations(profiles, grid, method)
        assert [f.series_id for f in got] == [p.parent_id for p in profiles]
        for p, f in zip(profiles, got):
            want = fluctuation(fresh(p), grid, method)
            assert np.array_equal(f.values, want.values)
            assert np.array_equal(f.scales, want.scales)
        probe = got[count // 2]
        assert probe.series_id == "probe" and np.all(probe.values == 0.0)
        assert count == 1 or np.all(got[0].values > 0.0)

    @pytest.mark.parametrize("method", [dfa(1), dma(), dma("backward")],
                             ids=lambda m: m.label)
    def test_fluctuations_match_loop_oracle(self, method):
        profiles = chunk_profiles(CHUNK + 1, 9)
        grid = ScaleGrid((16, 100))
        got = _fluctuations(profiles, grid, method)
        for i in (0, CHUNK // 2, CHUNK):
            want = [reference.naive_fluctuation(profiles[i].values, s, method)
                    for s in grid]
            assert np.allclose(got[i].values, want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.label)
    @pytest.mark.parametrize("count", [n for n in LAYOUTS if n > 1])
    def test_matrix_equals_gram_of_stacked_rows(self, method, count):
        panel = chunk_panel(count, count)
        profiles = [series_profile(ts, "increments").values
                    for ts in panel.series]
        for s in (method.min_scale, 16, 100):
            got = pairwise_matrix(panel, s, method, input_kind="increments")
            assert np.array_equal(got.rho,
                                  stacked_rho(profiles, panel.ids, s, method))

    def test_matrix_names_a_degenerate_member_in_a_later_chunk(self):
        members = list(chunk_panel(CHUNK + 1, 4).series)
        members[-1] = make_series(np.full(N_SMALL, 0.75), members[-1].id)
        with pytest.raises(DegenerateSeriesError) as info:
            pairwise_matrix(RatePanel(tuple(members)), 100, dfa(1),
                            input_kind="increments")
        assert tuple(info.value.ids) == (members[-1].id,)


@pytest.mark.parametrize("inputs, s, method", [
    *[("pair", s, m) for s in (5, 10) for m in (dfa(1), dma(), dma("backward"))],
    ("chunks", 100, dma()),
], ids=lambda v: getattr(v, "label", None))
def test_rho_matches_loop_oracle(inputs, s, method):
    if inputs == "pair":  # two 59-point profiles
        rng = np.random.default_rng(12)
        pa, pb = (profile_from_values(rng.standard_normal(59), k) for k in "ab")
        ys, got = [pa.values, pb.values], {(0, 1): rho_from_profiles(pa, pb, s, method)}
    else:  # pairs within a row chunk and across two
        panel = chunk_panel(CHUNK + 1, 3)
        ys = [series_profile(ts, "increments").values for ts in panel.series]
        rho = pairwise_matrix(panel, s, method, input_kind="increments").rho
        got = {(i, j): rho[i, j] for i, j in ((0, 1), (0, CHUNK), (CHUNK - 1, CHUNK))}
    for (i, j), value in got.items():
        want = reference.naive_rho(ys[i], ys[j], s, method)
        assert value == pytest.approx(want, rel=1e-10)


def failing_panel() -> RatePanel:
    """Levels panel: ordinary walks, a ramp (F = 0) and an overflowing member."""
    rng = np.random.default_rng(12)
    n = 800
    columns = {f"w{i}": 5.0 + 0.1 * rng.standard_normal(n).cumsum()
               for i in range(4)}
    columns["lin"] = 1.0 + 0.01 * np.arange(n)
    columns["big"] = np.where(np.arange(n) % 2 == 0, 1e308, -1e308)
    return RatePanel(tuple(make_series(v, k) for k, v in columns.items()))


def per_member(fn, panel, grid, method):
    """(id, result or exception) of a member-at-a-time loop, in id order."""
    outcomes = []
    for ts in sorted(panel.series, key=lambda t: t.id):
        try:
            outcomes.append((ts.id, fn(fluctuation(series_profile(ts), grid,
                                                   method))))
        except (LongmemError, ValueError) as exc:
            outcomes.append((ts.id, exc))
    return outcomes


def failures(outcomes):
    """(id, message) of every outcome that is an exception, in list order."""
    return [(sid, str(got)) for sid, got in outcomes
            if isinstance(got, Exception)]


class TestFailureLists:
    """Batched F keeps each member's failure, message and order."""

    @pytest.mark.parametrize("method", [dma(), dfa(2)], ids=lambda m: m.label)
    def test_one_failing_member_among_others(self, method):
        grid = default_grid(799)
        dist = hurst_distribution(failing_panel(), method, grid=grid)
        want = failures(per_member(fit_hurst, failing_panel(), grid, method))
        assert [sid for sid, _ in want] == ["big", "lin"]
        assert list(dist.failures) == want
        assert [e.series_id for e in dist.estimates] == ["w0", "w1", "w2", "w3"]

    def test_scale_above_half_fails_every_member(self):
        grid = ScaleGrid((10, 100, 400, 500))
        got = _map_fluctuations(detect_crossover, failing_panel(), grid, dma(),
                                "levels")
        want = failures(per_member(detect_crossover, failing_panel(), grid,
                                   dma()))
        assert failures(got) == want and len(got) == len(want)
        assert [sid for sid, _ in want] == ["big", "lin", "w0", "w1", "w2", "w3"]
        reasons = dict(want)
        assert reasons["w0"] == "scale 400 exceeds half the profile length 799"
        assert "non-finite" in reasons["big"]
        with pytest.raises(FitError, match="no panel member"):
            hurst_distribution(failing_panel(), dma(), grid=grid)


@pytest.fixture
def f_evaluations(monkeypatch):
    """Counter of F evaluations per (method label, s), one per member row."""
    counts = Counter()
    original = scaling._Residuals.mean_squares

    def counting(self, s):
        counts[self.method.label, s] += self.m
        return original(self, s)

    monkeypatch.setattr(scaling._Residuals, "mean_squares", counting)
    return counts


class TestFOncePerScale:
    """F is evaluated once per (profile, method, s) in a run."""

    def test_report_evaluates_the_union_grid_once(self, tmp_path, f_evaluations):
        rng = np.random.default_rng(6)
        levels = 5.0 + 0.1 * rng.standard_normal((3, 5000)).cumsum(axis=1)
        panel = RatePanel(tuple(make_series(row, f"r{i}")
                                for i, row in enumerate(levels)))
        (tmp_path / "levels.csv").write_text(panel_to_csv(panel))
        assert main(["report", "--input", str(tmp_path / "levels.csv"),
                     "--output-dir", str(tmp_path / "out"), "--scale", "50",
                     "--threshold", "0.5"]) == 0
        fit = default_grid(4999)
        cross = default_grid(4999, s_max=500, num=25)
        union = set(fit) | set(cross)
        assert len(union) == 41
        # the matrix at s=50 forms residuals, not F
        assert f_evaluations == {("dma-centered", s): 3 for s in union}

    def test_kernel_calls_evaluate_the_union_grid_once(self, f_evaluations):
        panel = generate_blocks(BlockSpec(n_blocks=2, block_size=2,
                                          common_weight=0.6, hurst=0.75,
                                          n=2048, seed=1))
        n = len(panel.days)
        fit = default_grid(n, s_min=10, num=20)
        cross = default_grid(n, s_min=10, s_max=min(500, n // 2), num=25)
        methods = (dma(), dfa(2))
        for method in methods:
            hurst_distribution(panel, method, grid=fit, input_kind="increments")
            for ts in panel.series:
                detect_crossover(fluctuation(series_profile(ts, "increments"),
                                             cross, method))
        union = set(fit) | set(cross)
        assert len(union) == 41
        assert f_evaluations == {(m.label, s): 4 for m in methods for s in union}

    def test_chunk_with_every_scale_builds_no_engine(self, monkeypatch):
        profiles = chunk_profiles(CHUNK + 1, 2)
        grid = small_grid(dma())
        _fluctuations(profiles, grid, dma())
        built = []
        original = scaling._Residuals.__init__

        def counting(self, rows, method):
            built.append(len(rows))
            original(self, rows, method)

        monkeypatch.setattr(scaling._Residuals, "__init__", counting)
        _fluctuations(profiles, ScaleGrid(grid.scales[1:]), dma())
        assert built == []
        _fluctuations(profiles, ScaleGrid(sorted({*grid, 500})), dma())
        assert built == [CHUNK, 1]
