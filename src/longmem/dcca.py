"""Detrended cross-correlation between pairs of profiles.

The machinery mirrors the single-series fluctuation analysis: both
profiles are cut into the same overlapping-cover segments, each segment is
detrended the same way, and the per-segment products of the two residual
series are averaged.  The covariance analogue keeps its sign, so the
normalized coefficient

    rho(a, b, s) = cross_f2(a, b, s) / (F_a(s) * F_b(s))

lies in [-1, 1] by the Cauchy-Schwarz inequality.  Rounding can push it a
hair past 1; overshoot up to 1e-9 is clamped and anything larger is
treated as a bug, not data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, LongmemError
from .scaling import DetrendMethod, ScaleGrid, _engines
from .series import Profile, RatePanel, TimeSeries, _frozen, series_profile

__all__ = [
    "DccaMatrix",
    "RhoCurve",
    "rho_from_profiles",
    "pairwise_matrix",
    "rho_vs_scale",
]

_RHO_OVERSHOOT_TOL = 1e-9


def _normalize(f2: np.ndarray, gram: np.ndarray, ids, s: int) -> np.ndarray:
    """Coefficient matrix from auto moments ``f2`` and cross moments ``gram``.

    The one place a coefficient is formed, for a single pair and for a
    whole panel alike.  Every member with zero fluctuation is named in one
    DegenerateSeriesError, since the coefficient is then undefined.  The
    upper triangle is mirrored so symmetry is exact, the diagonal is set
    to exactly 1, and overshoot past +-1 up to the rounding tolerance is
    clamped; a larger one is a bug and raises RuntimeError.
    """
    bad = [i for i, v in zip(ids, f2) if v <= 0.0]
    if bad:
        raise DegenerateSeriesError(
            bad,
            f"zero detrended fluctuation at s={s} for {bad}; "
            "coefficient undefined",
        )
    denom = np.sqrt(f2)
    rho = np.triu(gram / np.outer(denom, denom))
    rho = rho + rho.T
    np.fill_diagonal(rho, 1.0)
    i, j = np.unravel_index(np.argmax(np.abs(rho)), rho.shape)
    if abs(rho[i, j]) - 1.0 > _RHO_OVERSHOOT_TOL:
        raise RuntimeError(
            f"|rho|={abs(rho[i, j])} for ({ids[i]!r}, {ids[j]!r}) at "
            f"s={s} exceeds 1 beyond rounding tolerance; "
            "this indicates a bug"
        )
    return rho.clip(-1.0, 1.0, out=rho)


def _rho_matrix(engines, ids, s: int) -> np.ndarray:
    """Coefficient matrix at one scale of equal-length profiles' engines.

    Every cross moment is formed here, for one pair and a whole panel
    alike, as a dot product of two rows of flattened residual segments.
    Each engine writes its chunk's residuals straight into its rows,
    forward segments then backward ones end-first; a generator of engines
    keeps one chunk alive at a time.
    """
    flat, i = None, 0
    for engine in engines:
        k = engine.n_segments(s)
        if flat is None:
            flat = np.empty((len(ids), 2 * k * s))
        engine.residuals(s, flat[i:i + engine.m].reshape(engine.m, 2 * k, s))
        i += engine.m
    n = flat.shape[1]
    f2 = np.einsum("ij,ij->i", flat, flat) / n
    gram = (flat @ flat.T) / n
    return _normalize(f2, gram, ids, s)


def rho_from_profiles(
    pa: Profile,
    pb: Profile,
    s: int,
    method: DetrendMethod,
) -> float:
    """Normalized cross-correlation coefficient at one scale.

    Equal bit for bit to the entry of a two-member ``pairwise_matrix``.
    Raises DegenerateSeriesError naming the offending profile(s) when
    either single-series fluctuation is zero at this scale (constant or
    perfectly linear profile under dfa(1), for instance), since the
    coefficient is then undefined.
    """
    if pa.values.size != pb.values.size:
        raise LongmemError(
            f"profiles {pa.parent_id!r} and {pb.parent_id!r} have different "
            f"lengths ({pa.values.size} vs {pb.values.size}); align first"
        )
    ids = (pa.parent_id, pb.parent_id)
    return float(_rho_matrix(_engines((pa.values, pb.values), method), ids,
                             s)[0, 1])


@dataclass(frozen=True, eq=False)
class DccaMatrix:
    """Pairwise coefficients of an aligned panel at one scale."""

    ids: tuple[str, ...]
    scale: int
    method: DetrendMethod
    rho: np.ndarray

    def __post_init__(self):
        _frozen(self.rho)
        n = len(self.ids)
        if self.rho.shape != (n, n):
            raise LongmemError("rho must be square over ids")
        if not np.all(np.diag(self.rho) == 1.0):
            raise LongmemError("diagonal must be exactly 1")
        if not np.array_equal(self.rho, self.rho.T):
            raise LongmemError("matrix must be symmetric")
        if np.max(np.abs(self.rho)) > 1.0:
            raise LongmemError("entries must lie in [-1, 1]")

    def to_json_dict(self) -> dict:
        return {
            "ids": list(self.ids),
            "scale": self.scale,
            "method": self.method.to_json_dict(),
            "rho": self.rho.tolist(),
        }


def pairwise_matrix(
    panel: RatePanel,
    s: int,
    method: DetrendMethod,
    input_kind: str = "levels",
    threads: int = 1,
) -> DccaMatrix:
    """All-pairs coefficient matrix at one scale.

    Residual segments are computed once per series and reused across
    pairs.  If any member has zero fluctuation at this scale the whole
    computation aborts with every offending id listed, because a matrix
    with undefined holes is worse than no matrix.  ``threads`` is ignored;
    it stays only because ``perfbench/kernels.py`` passes it, and ROADMAP
    item 1c removes it.
    """
    if not panel.is_aligned:
        raise LongmemError("panel must be aligned before pairwise analysis")
    if len(panel.series) < 2:
        raise LongmemError("need at least two series for a pairwise matrix")

    profiles = [series_profile(ts, input_kind=input_kind).values
                for ts in panel.series]
    rho = _rho_matrix(_engines(profiles, method), panel.ids, s)
    return DccaMatrix(ids=panel.ids, scale=int(s), method=method, rho=rho)


@dataclass(frozen=True, eq=False)
class RhoCurve:
    """Coefficient of one pair across scales."""

    pair: tuple[str, str]
    method: DetrendMethod
    scales: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _frozen(self.scales)
        _frozen(self.values)
        if self.scales.size != self.values.size:
            raise LongmemError("scales and values must match in length")

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "method": self.method.to_json_dict(),
            "scales": self.scales.tolist(),
            "values": self.values.tolist(),
        }


def rho_vs_scale(
    a: TimeSeries,
    b: TimeSeries,
    grid: ScaleGrid,
    *,
    method: DetrendMethod,
    input_kind: str = "levels",
) -> RhoCurve:
    """Trace the coefficient of one pair across a scale grid.

    The pair's residual engines are built once for the whole grid; every
    value equals ``rho_from_profiles`` at its scale bit for bit.  The
    series must be long enough for the grid's largest scale (an error
    from the segmentation propagates otherwise).
    """
    if not (a.days is b.days or np.array_equal(a.days, b.days)):
        raise LongmemError(
            f"series {a.id!r} and {b.id!r} are not on a common date index"
        )
    engines = tuple(_engines([series_profile(ts, input_kind=input_kind).values
                              for ts in (a, b)], method))
    ids = (a.id, b.id)
    values = np.array(
        [_rho_matrix(engines, ids, s)[0, 1] for s in grid.scales]
    )
    return RhoCurve(
        pair=(a.id, b.id),
        method=method,
        scales=np.asarray(grid.scales, dtype=int),
        values=values,
    )
