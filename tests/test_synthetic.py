import datetime as dt
import itertools

import numpy as np
import pytest

from longmem.dcca import pairwise_matrix
from longmem.errors import LongmemError
from longmem.hurst import fit_hurst
from longmem.scaling import _CHUNK_ELEMS, default_grid, dfa, fluctuation
from longmem.series import profile_from_values
from longmem.synthetic import (
    BlockSpec,
    FgnSpec,
    _autocovariance,
    generate_blocks,
    generate_fgn,
    trading_dates,
)
from longmem import synthetic

from conftest import rule_tests
from reference import naive_blocks, naive_fgn_row


class TestAutocovariance:
    def test_lag_zero_is_variance(self):
        for h in (0.3, 0.5, 0.8):
            assert _autocovariance(0, h) == pytest.approx(1.0)
        assert _autocovariance(0, 0.7, sigma=2.0) == pytest.approx(4.0)

    def test_half_is_white(self):
        assert np.allclose(_autocovariance(np.arange(1, 10), 0.5), 0.0,
                           atol=1e-12)

    def test_sign_symmetric(self):
        k = np.arange(1, 6)
        assert np.array_equal(_autocovariance(k, 0.8),
                              _autocovariance(-k, 0.8))

    def test_persistent_positive_antipersistent_negative(self):
        assert _autocovariance(1, 0.8) > 0
        assert _autocovariance(1, 0.3) < 0


class TestTradingDates:
    def test_weekdays_only(self):
        dates = trading_dates(200)
        assert len(dates) == 200
        assert all(d.weekday() < 5 for d in dates)
        assert all(a < b for a, b in zip(dates, dates[1:]))

    def test_start_respected(self):
        assert trading_dates(5)[0] == dt.date(2000, 1, 3)


class TestGenerateFgn:
    def test_deterministic_per_seed(self):
        spec = FgnSpec(n=1024, hurst=0.7, seed=42)
        a = generate_fgn(spec)
        b = generate_fgn(spec)
        assert np.array_equal(a.values, b.values)
        assert a.id == "fgn-h0.7-seed42"
        assert a.dates == b.dates

    def test_seeds_differ(self):
        a = generate_fgn(FgnSpec(n=1024, hurst=0.7, seed=0))
        b = generate_fgn(FgnSpec(n=1024, hurst=0.7, seed=1))
        assert not np.array_equal(a.values, b.values)

    def test_white_case_uncorrelated(self):
        x = generate_fgn(FgnSpec(n=2**14, hurst=0.5, seed=0)).values
        lag1 = np.mean(x[:-1] * x[1:]) / np.mean(x * x)
        assert abs(lag1) <= 0.02

    def test_autocovariance_matches_analytic(self):
        samples = {k: [] for k in range(1, 6)}
        for seed in range(20):
            x = generate_fgn(FgnSpec(n=2**14, hurst=0.8, seed=seed)).values
            for k in samples:
                samples[k].append(np.mean(x[:-k] * x[k:]))
        for k, draws in samples.items():
            draws = np.array(draws)
            se = draws.std(ddof=1) / np.sqrt(len(draws))
            assert abs(draws.mean() - _autocovariance(k, 0.8)) <= 3 * se

    def test_second_moment_near_sigma_squared(self):
        for h in (0.3, 0.5, 0.7, 0.9):
            m2 = np.mean([
                np.mean(generate_fgn(FgnSpec(n=2**13, hurst=h,
                                             seed=s)).values ** 2)
                for s in range(20)
            ])
            assert m2 == pytest.approx(1.0, rel=0.05)

    def test_sigma_scales_output(self):
        base = generate_fgn(FgnSpec(n=256, hurst=0.6, seed=5))
        wide = generate_fgn(FgnSpec(n=256, hurst=0.6, seed=5, sigma=3.0))
        assert np.allclose(wide.values, 3.0 * base.values)

    def test_hurst_recovery_extremes(self):
        for target in (0.3, 0.9):
            ests = []
            for seed in range(10):
                ts = generate_fgn(FgnSpec(n=2**13, hurst=target, seed=seed))
                prof = profile_from_values(ts.values, ts.id)
                f = fluctuation(prof, default_grid(len(prof)), dfa(1))
                ests.append(fit_hurst(f).hurst)
            assert np.mean(ests) == pytest.approx(target, abs=0.05)

    def test_matches_one_row_oracle(self):
        spec = FgnSpec(n=1000, hurst=0.6, seed=9, sigma=1.5)
        row = naive_fgn_row(spec.n, synthetic._embedding(spec.n, spec.hurst),
                            spec.sigma, np.random.default_rng(spec.seed))
        assert generate_fgn(spec).values.tobytes() == row.tobytes()

    def test_embedding_nonnegative_definite(self):
        hursts = [0.01] + [round(0.05 * k, 2) for k in range(1, 20)] + [0.99]
        for n in (16, 1000, 65536):
            for h in hursts:
                eig = synthetic._embedding_eigenvalues(n, h)
                assert eig.min() >= -1e-12 * eig.max(), (n, h)

    @pytest.mark.parametrize("n, hurst", [
        (512, 1 - 1e-10), (1024, 0.999999999), (4096, 0.99999999)])
    def test_rounding_negatives_near_h_one_are_clamped(self, n, hurst):
        # each embedding has a negative eigenvalue, below -1e-12 * max for
        # the last two, that is rounding in the cancelled power terms; with
        # numpy's AVX-512 power and without it alike (the last reads about
        # -1.9e-11 * max either way)
        eig = synthetic._embedding_eigenvalues(n, hurst)
        assert eig.min() < 0.0
        assert np.array_equal(synthetic._embedding(n, hurst),
                              np.maximum(eig, 0.0))
        assert len(generate_fgn(FgnSpec(n=n, hurst=hurst)).values) == n

    def test_indefinite_embedding_raises(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_embedding_eigenvalues",
                            lambda n, h: np.array([1.0, -0.5, 1.0, -0.5]))
        with pytest.raises(ValueError, match="not nonnegative definite"):
            generate_fgn(FgnSpec(n=16, hurst=0.7))
        # far above rounding, yet well inside a tolerance of 1e-6
        monkeypatch.setattr(synthetic, "_embedding_eigenvalues",
                            lambda n, h: np.array([1.0, -1e-9, 1.0, -1e-9]))
        with pytest.raises(ValueError, match="not nonnegative definite"):
            generate_fgn(FgnSpec(n=16, hurst=0.7))


class TestGenerateBlocks:
    SPEC = BlockSpec(n_blocks=3, block_size=5, common_weight=0.9, hurst=0.8,
                     n=512, seed=0)

    def test_shape_and_ids(self):
        panel = generate_blocks(self.SPEC)
        assert len(panel) == 15
        assert panel.ids[:6] == ("b1:m1", "b1:m2", "b1:m3", "b1:m4", "b1:m5",
                                 "b2:m1")
        assert panel.is_aligned
        assert len(panel.date_index) == 512

    def test_deterministic(self):
        a = generate_blocks(self.SPEC)
        b = generate_blocks(self.SPEC)
        for sa, sb in zip(a.series, b.series):
            assert np.array_equal(sa.values, sb.values)

    def test_weight_one_duplicates_block(self):
        spec = BlockSpec(n_blocks=2, block_size=3, common_weight=1.0,
                         hurst=0.7, n=256, seed=1)
        panel = generate_blocks(spec)
        b1 = [panel.member(f"b1:m{m}").values for m in (1, 2, 3)]
        assert np.array_equal(b1[0], b1[1]) and np.array_equal(b1[1], b1[2])
        assert not np.array_equal(panel.member("b1:m1").values,
                                  panel.member("b2:m1").values)

    def test_weight_zero_members_independent(self):
        spec = BlockSpec(n_blocks=2, block_size=3, common_weight=0.0,
                         hurst=0.7, n=2048, seed=2)
        m = pairwise_matrix(generate_blocks(spec), 100, dfa(1),
                            input_kind="increments")
        off_diag = [abs(m.rho[i, j])
                    for i, j in itertools.combinations(range(len(m.ids)), 2)]
        assert np.mean(off_diag) < 0.15

    def test_weight_raises_within_block_correlation(self):
        base = dict(n_blocks=2, block_size=2, hurst=0.7, n=2048, seed=3)
        rho_by_weight = {}
        for w in (0.0, 0.5, 0.9):
            panel = generate_blocks(BlockSpec(common_weight=w, **base))
            m = pairwise_matrix(panel, 100, dfa(1), input_kind="increments")
            rho_by_weight[w] = m.rho[m.ids.index("b1:m1"), m.ids.index("b1:m2")]
        assert rho_by_weight[0.0] < rho_by_weight[0.5] < rho_by_weight[0.9]

    def test_embedding_built_once_per_call(self, monkeypatch):
        calls = []
        original = synthetic._embedding_eigenvalues

        def counting(n, hurst):
            calls.append((n, hurst))
            return original(n, hurst)

        monkeypatch.setattr(synthetic, "_embedding_eigenvalues", counting)
        generate_blocks(self.SPEC)
        assert calls == [(self.SPEC.n, self.SPEC.hurst)]

    @pytest.mark.parametrize("spec", [
        BlockSpec(30, 10, 0.6, 0.7, n=3000, seed=44),  # the CLI's synth panel
        BlockSpec(2, 2, 0.0, 0.3, n=16, seed=0, sigma=2.5),
        BlockSpec(3, 5, 1.0, 0.9, n=1025, seed=7),
        BlockSpec(4, 3, 0.5, 0.5, n=777, seed=123, sigma=0.1),
    ], ids=repr)
    def test_matches_one_series_at_a_time(self, spec):
        ids, matrix, days = naive_blocks(spec)
        panel = generate_blocks(spec)
        assert panel.ids == ids
        assert np.array_equal(panel.days, days)
        assert panel.matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("n", [16, 3000, 40000])
    def test_each_draw_stays_within_its_budget(self, monkeypatch, n):
        # a draw is one row, or rows whose normals fit _CHUNK_ELEMS
        calls = []
        original = synthetic._fgn_rows

        def recording(rows, n, eigvals, sigma, rng):
            calls.append((rows, eigvals.size))
            return original(rows, n, eigvals, sigma, rng)

        monkeypatch.setattr(synthetic, "_fgn_rows", recording)
        generate_blocks(BlockSpec(2, 12, 0.6, 0.7, n=n))
        assert sum(rows for rows, _ in calls) == 2 * 13
        assert all(rows == 1 or rows * size <= _CHUNK_ELEMS
                   for rows, size in calls)


class TestSpecValidation:
    """FgnSpec and BlockSpec checks, the rows of RULES."""


def embedding_at(scale):
    """``_embedding`` at H = 0.5 of a 4-point spectrum whose negative
    eigenvalues are ``scale`` times its rounding bound, 2 eps (1 + 2 + 3)."""
    low = -scale * 12 * np.finfo(float).eps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthetic, "_embedding_eigenvalues",
                   lambda n, h: np.array([1.0, low, 1.0, low]))
        return synthetic._embedding(16, 0.5).tolist()


MAX = np.finfo(float).max
OK_BLOCKS = dict(n_blocks=2, block_size=2, common_weight=0.5, hurst=0.5, n=64)
RULES = {
    "TestGenerateFgn": [
        ("test_embedding_rounding_bound[0.95]", lambda: embedding_at(0.95), None,
         [1.0, 0.0, 1.0, 0.0]),
        ("test_embedding_rounding_bound[1.05]", lambda: embedding_at(1.05), LongmemError,
         "circulant embedding for n=16, hurst=0.5 is not nonnegative definite"),
        *[(f"test_sigma_past_float64[{kind}]", make, LongmemError,
           "fGn draws of sigma 1.7976931348623157e+308 overflow float64")
          for kind, make in [
              ("fgn", lambda: generate_fgn(FgnSpec(64, 0.6, sigma=MAX))),
              ("blocks", lambda: generate_blocks(BlockSpec(2, 2, 0.5, 0.7, 64,
                                                           sigma=MAX)))]]],
    "TestSpecValidation": [
        *[(f"test_fgn_bad_hurst[{h}]", lambda h=h: FgnSpec(n=64, hurst=h), LongmemError,
           f"hurst must lie in (0, 1), got {h}") for h in (0.0, 1.0, -0.2, 1.4)],
        ("test_fgn_too_short", lambda: FgnSpec(n=8, hurst=0.5), LongmemError,
         "n must be >= 16, got 8"),
        ("test_fgn_bad_sigma", lambda: FgnSpec(n=64, hurst=0.5, sigma=0.0),
         LongmemError, "sigma must be finite and > 0, got 0.0"),
        *[(f"test_non_finite_sigma[{kind}-{sigma}]", lambda make=make, v=sigma: make(v),
           LongmemError, f"sigma must be finite and > 0, got {sigma}")
          for kind, make in [
              ("fgn", lambda v: FgnSpec(n=64, hurst=0.6, sigma=v)),
              ("blocks", lambda v: BlockSpec(2, 2, 0.5, 0.7, 64, sigma=v))]
          for sigma in (np.nan, np.inf, -np.inf)],
        ("test_block_bounds[ok]", lambda: BlockSpec(**OK_BLOCKS).n_blocks, None, 2),
        ("test_block_default_sigma", lambda: BlockSpec(**OK_BLOCKS).sigma, None, 1.0),
        *[(f"test_block_bounds[{field}]",
           lambda field=field, bad=bad: BlockSpec(**{**OK_BLOCKS, field: bad}),
           LongmemError, message) for field, bad, message in [
              ("n_blocks", 1, "n_blocks must be >= 2, got 1"),
              ("block_size", 1, "block_size must be >= 2, got 1"),
              ("common_weight", 1.2, "common_weight must lie in [0, 1], got 1.2"),
              ("hurst", 0.0, "hurst must lie in (0, 1), got 0.0")]]],
}
rule_tests(globals(), RULES)
