"""Ground-truth generators: exact fractional Gaussian noise and block panels.

The fGn sampler embeds the target autocovariance

    gamma(k) = (sigma^2 / 2) * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})

in a circulant matrix of power-of-two size and draws through its FFT
eigendecomposition, which reproduces the covariance exactly.  For fGn the
embedding is nonnegative definite (Craigmile, J. Time Ser. Anal. 24, 505,
2003); eigenvalues negative only at rounding level are clamped to zero,
and a genuinely negative one raises ValueError rather than approximating.

Generated panels hold noise values, i.e. the series values are already
increments.  Feed them to the estimators with ``input_kind="increments"``.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .series import RatePanel, TimeSeries

__all__ = [
    "FgnSpec",
    "BlockSpec",
    "generate_fgn",
    "generate_blocks",
    "trading_dates",
]

def _autocovariance(k, hurst: float, sigma: float = 1.0):
    """Analytic fGn autocovariance gamma(k) at integer lag(s) k."""
    k = np.abs(np.asarray(k, dtype=float))
    two_h = 2.0 * hurst
    return 0.5 * sigma ** 2 * (np.abs(k + 1) ** two_h
                               - 2.0 * k ** two_h
                               + np.abs(k - 1) ** two_h)


def _check_fgn(spec) -> None:
    """Check the ``hurst``, ``n`` and ``sigma`` every fGn draw needs."""
    if not 0.0 < spec.hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {spec.hurst}")
    if spec.n < 16:
        raise ValueError(f"n must be >= 16, got {spec.n}")
    if not 0.0 < spec.sigma < math.inf:
        raise ValueError(f"sigma must be finite and > 0, got {spec.sigma}")


@dataclass(frozen=True)
class FgnSpec:
    """Target length, Hurst exponent, RNG seed and scale of an fGn draw."""

    n: int
    hurst: float
    seed: int = 0
    sigma: float = 1.0

    def __post_init__(self):
        _check_fgn(self)


@dataclass(frozen=True)
class BlockSpec:
    """Block-correlated ensemble: common factor per block plus noise."""

    n_blocks: int
    block_size: int
    common_weight: float
    hurst: float
    n: int
    seed: int = 0
    sigma: float = 1.0

    def __post_init__(self):
        if self.n_blocks < 2:
            raise ValueError(f"n_blocks must be >= 2, got {self.n_blocks}")
        if self.block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {self.block_size}")
        if not 0.0 <= self.common_weight <= 1.0:
            raise ValueError(f"common_weight must lie in [0, 1], got "
                             f"{self.common_weight}")
        _check_fgn(self)


def _trading_days(n: int) -> np.ndarray:
    return np.busday_offset(np.datetime64("2000-01-03"), np.arange(n))


def trading_dates(n: int) -> tuple[dt.date, ...]:
    """n consecutive weekdays starting on Monday 2000-01-03."""
    return tuple(_trading_days(n).tolist())


def _embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the power-of-two circulant embedding of gamma(0..n-1)."""
    m = 1 << int(np.ceil(np.log2(n)))
    lags = np.arange(m + 1)
    row = np.concatenate([_autocovariance(lags, hurst),
                          _autocovariance(lags[1:m][::-1], hurst)])
    return np.fft.fft(row).real


def _embedding(n: int, hurst: float) -> np.ndarray:
    """Embedding eigenvalues for n draws, checked and clamped at zero.

    The exact eigenvalues are nonnegative; a computed one falls below zero
    only through the rounding of the power terms that ``_autocovariance``
    cancels at each lag k = 0..m.  Their summed size, 2 * sum (k+1)^{2H},
    times the float64 epsilon bounds that rounding, so only an eigenvalue
    further below zero raises.
    """
    eigvals = _embedding_eigenvalues(n, hurst)
    m = eigvals.size // 2
    rounding = 2.0 * np.finfo(float).eps * np.sum(
        np.arange(1.0, m + 2.0) ** (2.0 * hurst))
    if eigvals.min() < -rounding:
        raise ValueError(f"circulant embedding for n={n}, hurst={hurst} is "
                         "not nonnegative definite")
    return np.maximum(eigvals, 0.0)


def _fgn_values(n: int, eigvals: np.ndarray, sigma: float,
                rng: np.random.Generator) -> np.ndarray:
    """Exact fGn of scale sigma via the circulant embedding ``eigvals``."""
    m = eigvals.size // 2
    two_m = 2 * m
    z = rng.standard_normal(two_m)
    w = np.zeros(two_m, dtype=complex)
    w[0] = np.sqrt(eigvals[0] / two_m) * z[0]
    w[m] = np.sqrt(eigvals[m] / two_m) * z[1]
    half = np.sqrt(eigvals[1:m] / (2.0 * two_m))
    w[1:m] = half * (z[2:m + 1] + 1j * z[m + 1:])
    w[m + 1:] = np.conj(w[1:m][::-1])
    return sigma * np.fft.fft(w)[:n].real


def generate_fgn(spec: FgnSpec) -> TimeSeries:
    """Stationary Gaussian series with exact fGn covariance, seed-determined.

    The sample is labelled with synthetic weekday dates; its values are the
    noise itself (increments), not integrated levels.
    """
    rng = np.random.default_rng(spec.seed)
    values = _fgn_values(spec.n, _embedding(spec.n, spec.hurst), spec.sigma,
                         rng)
    return TimeSeries(f"fgn-h{spec.hurst:g}-seed{spec.seed}",
                      _trading_days(spec.n), values)


def generate_blocks(spec: BlockSpec) -> RatePanel:
    """Aligned panel of n_blocks x block_size mixed-factor fGn members.

    Member values are common_weight * block_factor +
    (1 - common_weight) * own_noise, every component drawn at the same
    Hurst exponent, so the embedding eigenvalues are built once per call.
    Ids follow the "b<block>:m<member>" pattern.
    """
    rng = np.random.default_rng(spec.seed)
    eigvals = _embedding(spec.n, spec.hurst)
    ids = []
    matrix = np.empty((spec.n_blocks * spec.block_size, spec.n))
    for b in range(1, spec.n_blocks + 1):
        common = _fgn_values(spec.n, eigvals, spec.sigma, rng)
        for m in range(1, spec.block_size + 1):
            own = _fgn_values(spec.n, eigvals, spec.sigma, rng)
            matrix[len(ids)] = (spec.common_weight * common
                                + (1.0 - spec.common_weight) * own)
            ids.append(f"b{b}:m{m}")
    return RatePanel.from_matrix(ids, _trading_days(spec.n), matrix)
