import datetime as dt
import itertools
import json

import numpy as np
import pytest

from longmem import scaling
from longmem.cli import main
from longmem.dcca import (
    DccaMatrix,
    RhoCurve,
    _normalize,
    pairwise_matrix,
    rho_from_profiles,
    rho_vs_scale,
)
from longmem.errors import DegenerateSeriesError, LongmemError
from longmem.network import build_network
from longmem.scaling import ScaleGrid, default_grid, dfa, dma, fluctuation
from longmem.series import (
    Profile,
    RatePanel,
    TimeSeries,
    panel_to_csv,
    profile_from_values,
    series_profile,
)
from longmem.synthetic import BlockSpec, FgnSpec, generate_blocks, generate_fgn

from conftest import make_panel, make_series, ramp_panel, rule_tests
from test_engine import chunk_panel, stacked_rho


def fgn_profile(seed, n=2048, hurst=0.7):
    ts = generate_fgn(FgnSpec(n=n, hurst=hurst, seed=seed))
    return profile_from_values(ts.values, ts.id)


SMALL_GRID = ScaleGrid((10, 20, 50, 100))


def dcca_cli(panel: RatePanel, tmp_path, *flags):
    """Run ``longmem dcca`` (dfa, increments) on the panel; its output dir."""
    path = tmp_path / "panel.csv"
    path.write_text(panel_to_csv(panel))
    out = tmp_path / "out"
    assert main(["dcca", "--input", str(path), "--input-kind", "increments",
                 "--method", "dfa", "--output-dir", str(out), *flags]) == 0
    return out


class TestCrossFluctuation:
    """The signed cross term of a pair, as it reaches the coefficient."""

    def test_argument_order_irrelevant(self):
        pa, pb = fgn_profile(2), fgn_profile(3)
        for s in SMALL_GRID:
            assert (rho_from_profiles(pa, pb, s, dma())
                    == rho_from_profiles(pb, pa, s, dma()))


class TestNormalize:
    """The one normalizer behind pair coefficients and matrices."""

    IDS = ("a", "b")

    @staticmethod
    def moments(cross):
        return np.array([1.0, 1.0]), np.array([[1.0, cross], [cross, 1.0]])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rounding_overshoot_is_clamped(self, sign):
        rho = _normalize(*self.moments(sign * (1.0 + 1e-12)), self.IDS, 10)
        assert rho[0, 1] == rho[1, 0] == sign
        assert np.all(np.diag(rho) == 1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_large_overshoot_raises(self, sign):
        with pytest.raises(RuntimeError, match="'a', 'b'.*s=10"):
            _normalize(*self.moments(sign * (1.0 + 1e-6)), self.IDS, 10)


class TestRho:
    def test_self_is_one(self):
        for seed, s in [(0, 10), (1, 50), (2, 100)]:
            prof = fgn_profile(seed)
            assert rho_from_profiles(prof, prof, s, dfa(1)) == pytest.approx(
                1.0, abs=1e-12)

    def test_negated_is_minus_one(self):
        prof = fgn_profile(4)
        neg = Profile("neg", -prof.values)
        rho = rho_from_profiles(prof, neg, 50, dfa(1))
        assert rho == pytest.approx(-1.0, abs=1e-12)

    def test_positive_rescaling_is_one(self):
        ts = make_series(np.abs(np.random.default_rng(5).standard_normal(600))
                         + 1.0, "x")
        scaled = TimeSeries("cx", ts.dates, 3.7 * ts.values)
        curve = rho_vs_scale(ts, scaled, ScaleGrid((25,)), method=dfa(1))
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_bounded_everywhere(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            pa = profile_from_values(rng.standard_normal(400), "a")
            pb = profile_from_values(rng.standard_normal(400), "b")
            s = int(rng.integers(5, 200))
            rho = rho_from_profiles(pa, pb, s, dfa(1))
            assert abs(rho) <= 1.0

    def test_mixing_weight_monotonicity(self):
        common = generate_fgn(FgnSpec(n=4096, hurst=0.7, seed=7)).values
        e1 = generate_fgn(FgnSpec(n=4096, hurst=0.7, seed=8)).values
        e2 = generate_fgn(FgnSpec(n=4096, hurst=0.7, seed=9)).values
        rho_at = {}
        for w in (0.0, 0.5, 1.0):
            p1 = profile_from_values(w * common + (1 - w) * e1, "x1")
            p2 = profile_from_values(w * common + (1 - w) * e2, "x2")
            rho_at[w] = np.mean([rho_from_profiles(p1, p2, s, dfa(1))
                                 for s in (50, 100, 200)])
        assert rho_at[0.0] < rho_at[0.5] < rho_at[1.0]
        assert abs(rho_at[0.0]) < 0.2
        assert rho_at[0.5] > 0.2
        assert rho_at[1.0] == pytest.approx(1.0, abs=1e-9)

    def test_independent_pairs_stay_weak(self):
        # Independent fGn: the scale-averaged |rho| stays below 0.15, and
        # no single scale strays past 0.35, in >= 18/20 seed pairs.
        grid = default_grid(8192)
        n_mean_ok = 0
        n_max_ok = 0
        for seed in range(20):
            pa = fgn_profile(seed, n=8192)
            pb = fgn_profile(100 + seed, n=8192)
            rhos = np.abs([rho_from_profiles(pa, pb, s, dfa(1))
                           for s in grid])
            n_mean_ok += rhos.mean() < 0.15
            n_max_ok += rhos.max() < 0.35
        assert n_mean_ok >= 18
        assert n_max_ok >= 18

    def test_degenerate_series_named(self):
        good = make_series(np.abs(np.random.default_rng(1)
                                  .standard_normal(300)) + 1.0, "good")
        flat = TimeSeries("flat", good.dates, np.full(300, 2.0))
        with pytest.raises(DegenerateSeriesError) as err:
            rho_vs_scale(good, flat, ScaleGrid((20,)), method=dfa(1))
        assert err.value.ids == ("flat",)

    def test_both_degenerate_listed(self):
        dates = make_series(np.arange(100.0), "t").dates
        f1 = TimeSeries("f1", dates, np.full(100, 1.0))
        f2 = TimeSeries("f2", dates, np.full(100, 2.0))
        with pytest.raises(DegenerateSeriesError) as err:
            rho_vs_scale(f1, f2, ScaleGrid((10,)), method=dfa(1))
        assert err.value.ids == ("f1", "f2")


class TestCurveEngines:
    """Each point of a pair curve is that pair's coefficient at its scale."""

    @pytest.mark.parametrize("method", [dma(), dfa(2), dfa(3)],
                             ids=lambda m: m.label)
    def test_curve_equals_per_scale_pairs_bitwise(self, method):
        fgn = RatePanel(tuple(generate_fgn(FgnSpec(n=3000, hurst=0.7, seed=s))
                              for s in (6, 7)))
        for panel, grid in [
                (chunk_panel(2, 7), ScaleGrid((5, 16, 100, 1000))),
                (fgn, default_grid(3000, s_min=5, s_max=500, num=40))]:
            a, b = panel.series
            curve = rho_vs_scale(a, b, grid, method=method,
                                 input_kind="increments")
            pa, pb = (series_profile(ts, "increments") for ts in (a, b))
            assert curve.values.tolist() == [
                rho_from_profiles(pa, pb, s, method) for s in grid]
            assert curve.values.tolist() == [
                stacked_rho([pa.values, pb.values], panel.ids, s, method)[0, 1]
                for s in grid]


class TestPairwiseMatrix:
    def test_identical_pair_is_ones(self):
        values = np.abs(np.random.default_rng(2).standard_normal(500)) + 1.0
        panel = make_panel({"u": values, "v": values})
        m = pairwise_matrix(panel, 50, dfa(1))
        assert np.allclose(m.rho, 1.0, atol=1e-12)

    def test_matches_per_pair_rho(self):
        panel = RatePanel(tuple(
            generate_fgn(FgnSpec(n=1024, hurst=0.6, seed=s))
            for s in range(4)))
        m = pairwise_matrix(panel, 64, dfa(1), input_kind="increments")
        for i, j in itertools.combinations(range(len(m.ids)), 2):
            direct = rho_from_profiles(
                series_profile(panel.member(m.ids[i]), input_kind="increments"),
                series_profile(panel.member(m.ids[j]), input_kind="increments"),
                64, dfa(1))
            assert m.rho[i, j] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("method", [dfa(1), dfa(2), dma(), dma("backward")],
                             ids=lambda m: m.label)
    def test_pair_is_two_member_matrix_bitwise(self, method):
        panel = RatePanel(tuple(
            generate_fgn(FgnSpec(n=1024, hurst=0.6, seed=s)) for s in (4, 5)))
        pa, pb = (series_profile(ts, input_kind="increments")
                  for ts in panel.series)
        for s in (8, 50, 200):
            m = pairwise_matrix(panel, s, method, input_kind="increments")
            assert m.rho[0, 1] == rho_from_profiles(pa, pb, s, method)

    def test_exact_symmetry_and_diagonal(self):
        spec = BlockSpec(n_blocks=2, block_size=3, common_weight=0.7,
                         hurst=0.8, n=1024, seed=3)
        m = pairwise_matrix(generate_blocks(spec), 50, dma(),
                            input_kind="increments")
        assert np.array_equal(m.rho, m.rho.T)
        assert np.all(np.diag(m.rho) == 1.0)
        assert np.max(np.abs(m.rho)) <= 1.0

    def test_blocks_within_above_across(self):
        spec = BlockSpec(n_blocks=3, block_size=5, common_weight=0.9,
                         hurst=0.8, n=2048, seed=0)
        panel = generate_blocks(spec)
        m = pairwise_matrix(panel, 100, dfa(1), input_kind="increments")
        within, across = [], []
        for i, j in itertools.combinations(range(len(m.ids)), 2):
            a, b = m.ids[i], m.ids[j]
            (within if a.split(":")[0] == b.split(":")[0]
             else across).append(m.rho[i, j])
        assert np.mean(within) > np.mean(across)

    def test_degenerate_members_all_listed(self):
        good = make_series(np.abs(np.random.default_rng(3)
                                  .standard_normal(400)) + 1.0, "good")
        c1 = TimeSeries("c1", good.dates, np.full(400, 1.0))
        c2 = TimeSeries("c2", good.dates, np.full(400, 5.0))
        with pytest.raises(DegenerateSeriesError) as err:
            pairwise_matrix(RatePanel((good, c1, c2)), 20, dfa(1))
        assert err.value.ids == ("c1", "c2")

    @pytest.mark.parametrize("method", [dma(), dma("backward"), dfa(1)],
                             ids=lambda m: m.label)
    def test_cancellation_noise_member_is_degenerate(self, method):
        with pytest.raises(DegenerateSeriesError) as err:
            pairwise_matrix(ramp_panel(), 20, method)
        assert err.value.ids == ("lin",)

    def test_threads_identical(self):
        panel = RatePanel(tuple(
            generate_fgn(FgnSpec(n=512, hurst=0.7, seed=s))
            for s in range(5)))
        one = pairwise_matrix(panel, 32, dfa(1), input_kind="increments")
        four = pairwise_matrix(panel, 32, dfa(1), input_kind="increments",
                               threads=4)
        assert np.array_equal(one.rho, four.rho)

    def test_table_layout(self, tmp_path):
        panel = RatePanel(tuple(
            generate_fgn(FgnSpec(n=512, hurst=0.7, seed=s))
            for s in range(3)))
        m = pairwise_matrix(panel, 32, dfa(1), input_kind="increments")
        out = dcca_cli(panel, tmp_path, "--all", "--scale", "32")
        text = (out / "rho_matrix_s32.csv").read_text()
        assert text == "".join(
            ",".join(map(str, row)) + "\n"
            for row in [("id", *m.ids),
                        *((i, *r) for i, r in zip(m.ids, m.rho.tolist()))])
        payload = json.loads(json.dumps(m.to_json_dict()))
        assert payload["scale"] == 32


# the golden synth panel of test_golden.py
GOLDEN_BLOCKS = BlockSpec(3, 4, 0.7, 0.7, n=700, seed=5)


def rescaled(panel: RatePanel, member: int, factor: float) -> RatePanel:
    """``panel`` with one member's increments multiplied by ``factor``."""
    matrix = panel.matrix.copy()
    matrix[member] *= factor
    return RatePanel.from_matrix(panel.ids, panel.date_index, matrix)


class TestMetamorphic:
    """Relations between runs on related panels, which need no oracle."""

    @pytest.mark.parametrize("method", [dma(), dfa(2)], ids=lambda m: m.label)
    @pytest.mark.parametrize("member", [0, 7])
    def test_negated_member_negates_its_row_and_column(self, method, member):
        panel = generate_blocks(GOLDEN_BLOCKS)
        sign = np.ones(len(panel))
        sign[member] = -1.0
        for s in (20, 60):
            rho = pairwise_matrix(panel, s, method, input_kind="increments").rho
            got = pairwise_matrix(rescaled(panel, member, -1.0), s, method,
                                  input_kind="increments").rho
            assert got.tobytes() == (rho * np.outer(sign, sign)).tobytes()

    @pytest.mark.parametrize("method", [dma(), dfa(2)], ids=lambda m: m.label)
    def test_doubled_member_doubles_its_f_and_keeps_rho(self, method):
        panel = generate_blocks(GOLDEN_BLOCKS)
        doubled = rescaled(panel, 5, 2.0)
        grid = ScaleGrid((20, 60))
        f, f2 = (fluctuation(series_profile(p.series[5], "increments"), grid,
                             method).values for p in (panel, doubled))
        assert f2.tobytes() == (2.0 * f).tobytes()
        for s in grid:
            assert (pairwise_matrix(doubled, s, method, "increments").rho.tobytes()
                    == pairwise_matrix(panel, s, method, "increments").rho.tobytes())

    def test_permuted_members_permute_matrices_and_edges(self, monkeypatch):
        # chunks of five rows, so members move between chunks; partitions
        # are left out, since Louvain visits the nodes in member order
        monkeypatch.setattr(scaling, "_CHUNK_ELEMS", 5 * GOLDEN_BLOCKS.n)
        panel = generate_blocks(GOLDEN_BLOCKS)
        n, threshold = len(panel), 0.5
        for order in (np.arange(n)[::-1], np.random.default_rng(3).permutation(n)):
            permuted = RatePanel.from_matrix([panel.ids[i] for i in order],
                                             panel.days, panel.matrix[order])
            for method, s in itertools.product((dma(), dfa(2)), (20, 60)):
                want = pairwise_matrix(panel, s, method, "increments")
                got = pairwise_matrix(permuted, s, method, "increments")
                assert np.abs(got.rho - want.rho[np.ix_(order, order)]).max() <= 1e-15
                assert not (np.abs(np.abs(want.rho) - threshold) < 1e-12).any()
                edges = [{frozenset(e[:2]) for e in build_network(m, threshold).edges}
                         for m in (want, got)]
                assert edges[0] == edges[1] and edges[0]


class TestRhoVsScale:
    def test_identical_pair_flat_at_one(self):
        values = np.abs(np.random.default_rng(4).standard_normal(2048)) + 1.0
        a = make_series(values, "a")
        b = TimeSeries("b", a.dates, values)
        curve = rho_vs_scale(a, b, ScaleGrid((5, 20, 100, 500)),
                             method=dfa(1))
        assert np.allclose(curve.values, 1.0, atol=1e-12)

    def test_table(self, tmp_path):
        a = generate_fgn(FgnSpec(n=2048, hurst=0.7, seed=0))
        b = generate_fgn(FgnSpec(n=2048, hurst=0.7, seed=1))
        curve = rho_vs_scale(a, b, grid=ScaleGrid((10, 50, 200)),
                             method=dfa(1), input_kind="increments")
        out = dcca_cli(RatePanel((a, b)), tmp_path, "--pair", f"{a.id},{b.id}",
                       "--scales", "10,50,200")
        [path] = out.glob("rho_curve_00_*.csv")
        assert path.read_text() == "s,rho\n" + "".join(
            f"{s},{v!r}\n"
            for s, v in zip(curve.scales.tolist(), curve.values.tolist()))
        json.dumps(curve.to_json_dict())


class TestSeriesLevelPipeline:
    def test_series_profile_feeds_pipeline(self):
        ts = make_series(np.abs(np.random.default_rng(9)
                                .standard_normal(400)) + 2.0, "r")
        prof = series_profile(ts)
        assert len(prof) == len(ts) - 1
        curve = rho_vs_scale(ts, ts, ScaleGrid((20,)), method=dfa(1))
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)


def pair_off_by_a_year(n):
    a = make_series(np.arange(float(n)), "a")
    return a, make_series(np.arange(float(n)), "b", start=dt.date(2001, 1, 1))


def dcca_matrix(rho):
    return lambda: DccaMatrix(("a", "b"), 10, dfa(1), np.array(rho))


ONE_SERIES = make_panel({"only": np.arange(100.0) % 7 + 1.0})
RULES = {
    # |rho| up to 1 + 1e-9 is rounding and clamps to 1; beyond it is a bug
    "TestNormalize": [
        ("test_overshoot_tolerance[5e-10]",
         lambda: _normalize(*TestNormalize.moments(1.0 + 5e-10), ("a", "b"), 10)[0, 1],
         None, 1.0),
        ("test_overshoot_tolerance[2e-9]",
         lambda: _normalize(*TestNormalize.moments(1.0 + 2e-9), ("a", "b"), 10),
         RuntimeError, "|rho|=1.000000002 for ('a', 'b') at s=10 exceeds 1 beyond "
                       "rounding tolerance; this indicates a bug")],
    "TestCrossFluctuation": [
        ("test_length_mismatch",
         lambda: rho_from_profiles(fgn_profile(0, n=512), fgn_profile(1, n=1024),
                                   10, dfa(1)),
         LongmemError, "profiles 'fgn-h0.7-seed0' and 'fgn-h0.7-seed1' have "
                       "different lengths (512 vs 1024); align first")],
    "TestRho": [
        ("test_date_mismatch",
         lambda: rho_vs_scale(*pair_off_by_a_year(100), ScaleGrid((10,)),
                              method=dfa(1)),
         LongmemError, "series 'a' and 'b' are not on a common date index")],
    "TestPairwiseMatrix": [
        ("test_unaligned_rejected",
         lambda: pairwise_matrix(RatePanel(pair_off_by_a_year(300)), 20, dfa(1)),
         LongmemError, "panel must be aligned before pairwise analysis"),
        ("test_single_series_rejected", lambda: pairwise_matrix(ONE_SERIES, 10, dfa(1)),
         LongmemError, "need at least two series for a pairwise matrix"),
        ("test_matrix_validation[square]", dcca_matrix(np.ones((2, 3))), LongmemError,
         "rho must be square over ids"),
        ("test_matrix_validation[diagonal]", dcca_matrix([[0.5, 0.1], [0.1, 1.0]]),
         LongmemError, "diagonal must be exactly 1"),
        ("test_matrix_validation[symmetric]", dcca_matrix([[1.0, 0.2], [0.3, 1.0]]),
         LongmemError, "matrix must be symmetric"),
        ("test_matrix_validation[range]", dcca_matrix([[1.0, 1.5], [1.5, 1.0]]),
         LongmemError, "entries must lie in [-1, 1]")],
    "TestRhoVsScale": [
        ("test_curve_length_mismatch",
         lambda: RhoCurve(("a", "b"), dfa(1), np.array([10, 20]), np.array([0.5])),
         LongmemError, "scales and values must match in length"),
        ("test_too_short_for_default_grid", lambda: rho_vs_scale(
            *(generate_fgn(FgnSpec(n=300, hurst=0.7, seed=k)) for k in (0, 1)),
            ScaleGrid((5, 500)), method=dfa(1), input_kind="increments"),
         LongmemError, "scale 500 exceeds half the profile length 300"),
        ("test_method_required",
         lambda: rho_vs_scale(*pair_off_by_a_year(100), SMALL_GRID), TypeError,
         "rho_vs_scale() missing 1 required keyword-only argument: 'method'")],
}
rule_tests(globals(), RULES)
