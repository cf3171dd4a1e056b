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

import json
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, DegenerateSeriesError, LongmemError
from .scaling import DetrendMethod, ScaleGrid, default_grid, detrended_segments
from .series import Profile, RatePanel, TimeSeries, series_profile

__all__ = [
    "CrossFluctuation",
    "DccaMatrix",
    "RhoCurve",
    "cross_fluctuation",
    "rho_from_profiles",
    "rho_dcca",
    "pairwise_matrix",
    "rho_vs_scale",
]

_RHO_OVERSHOOT_TOL = 1e-9


def _check_same_length(pa: Profile, pb: Profile) -> None:
    if pa.values.size != pb.values.size:
        raise AlignmentError(
            f"profiles {pa.parent_id!r} and {pb.parent_id!r} have different "
            f"lengths ({pa.values.size} vs {pb.values.size}); align first"
        )


def _check_common_dates(a: TimeSeries, b: TimeSeries) -> None:
    if not (a.days is b.days or np.array_equal(a.days, b.days)):
        raise AlignmentError(
            f"series {a.id!r} and {b.id!r} are not on a common date index"
        )


@dataclass(frozen=True, eq=False)
class CrossFluctuation:
    """Signed squared cross-fluctuation of one pair over a scale grid."""

    pair: tuple[str, str]
    method: DetrendMethod
    scales: np.ndarray
    values: np.ndarray  # signed, one per scale
    n_segments: np.ndarray

    def __post_init__(self):
        for name in ("scales", "values", "n_segments"):
            arr = getattr(self, name)
            arr.flags.writeable = False
        if not (self.scales.size == self.values.size == self.n_segments.size):
            raise ValueError("scales, values and n_segments must match in length")

    @property
    def points(self) -> list[tuple[int, float]]:
        return [(int(s), float(v)) for s, v in zip(self.scales, self.values)]

    def to_table(self) -> str:
        lines = ["s,cross_f2"]
        for s, v in self.points:
            lines.append(f"{s},{v!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "method": self.method.to_json_dict(),
            "scales": [int(s) for s in self.scales],
            "values": [float(v) for v in self.values],
            "n_segments": [int(k) for k in self.n_segments],
        }


def cross_fluctuation(
    pa: Profile,
    pb: Profile,
    grid: ScaleGrid,
    method: DetrendMethod,
) -> CrossFluctuation:
    """Average the segmentwise residual products of two equal-length profiles.

    Symmetric in its profile arguments.  The value at each scale is the
    mean over segments of the mean pointwise product of the two detrended
    segments; it keeps its sign.
    """
    _check_same_length(pa, pb)
    values = np.empty(len(grid.scales))
    n_segments = np.empty(len(grid.scales), dtype=int)
    for i, s in enumerate(grid.scales):
        ra = detrended_segments(pa.values, s, method)
        rb = detrended_segments(pb.values, s, method)
        values[i] = float(np.mean(np.mean(ra * rb, axis=1)))
        n_segments[i] = ra.shape[0]
    return CrossFluctuation(
        pair=(pa.parent_id, pb.parent_id),
        method=method,
        scales=np.asarray(grid.scales, dtype=int),
        values=values,
        n_segments=n_segments,
    )


def _clamp_rho(rho: float, id_a: str, id_b: str, s: int) -> float:
    if abs(rho) <= 1.0:
        return rho
    if abs(rho) - 1.0 <= _RHO_OVERSHOOT_TOL:
        return 1.0 if rho > 0 else -1.0
    raise LongmemError(
        f"|rho|={abs(rho)} for ({id_a!r}, {id_b!r}) at s={s} exceeds 1 "
        "beyond rounding tolerance; this indicates a bug"
    )


def rho_from_profiles(
    pa: Profile,
    pb: Profile,
    s: int,
    method: DetrendMethod,
) -> float:
    """Normalized cross-correlation coefficient at one scale.

    Raises DegenerateSeriesError naming the offending profile(s) when
    either single-series fluctuation is zero at this scale (constant or
    perfectly linear profile under dfa(1), for instance), since the
    coefficient is then undefined.
    """
    _check_same_length(pa, pb)
    ra = detrended_segments(pa.values, s, method)
    rb = detrended_segments(pb.values, s, method)
    f2a = float(np.mean(np.mean(ra * ra, axis=1)))
    f2b = float(np.mean(np.mean(rb * rb, axis=1)))
    bad = [p.parent_id for p, f2 in ((pa, f2a), (pb, f2b)) if f2 <= 0.0]
    if bad:
        raise DegenerateSeriesError(
            bad,
            f"zero detrended fluctuation at s={s} for {bad}; "
            "coefficient undefined",
        )
    f2x = float(np.mean(np.mean(ra * rb, axis=1)))
    rho = f2x / (np.sqrt(f2a) * np.sqrt(f2b))
    return _clamp_rho(rho, pa.parent_id, pb.parent_id, s)


def rho_dcca(
    a: TimeSeries,
    b: TimeSeries,
    s: int,
    method: DetrendMethod,
    input_kind: str = "levels",
) -> float:
    """Coefficient for two series observed on the same dates."""
    _check_common_dates(a, b)
    pa = series_profile(a, input_kind=input_kind)
    pb = series_profile(b, input_kind=input_kind)
    return rho_from_profiles(pa, pb, s, method)


@dataclass(frozen=True, eq=False)
class DccaMatrix:
    """Pairwise coefficients of an aligned panel at one scale."""

    ids: tuple[str, ...]
    scale: int
    method: DetrendMethod
    rho: np.ndarray

    def __post_init__(self):
        self.rho.flags.writeable = False
        n = len(self.ids)
        if self.rho.shape != (n, n):
            raise ValueError("rho must be square over ids")
        if not np.all(np.diag(self.rho) == 1.0):
            raise ValueError("diagonal must be exactly 1")
        if not np.array_equal(self.rho, self.rho.T):
            raise ValueError("matrix must be symmetric")
        if np.max(np.abs(self.rho)) > 1.0:
            raise ValueError("entries must lie in [-1, 1]")

    def pair_value(self, id_a: str, id_b: str) -> float:
        i = self.ids.index(id_a)
        j = self.ids.index(id_b)
        return float(self.rho[i, j])

    def to_table(self) -> str:
        lines = ["id," + ",".join(self.ids)]
        for i, row_id in enumerate(self.ids):
            lines.append(row_id + "," + ",".join(repr(float(v)) for v in self.rho[i]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "ids": list(self.ids),
            "scale": self.scale,
            "method": self.method.to_json_dict(),
            "rho": [[float(v) for v in row] for row in self.rho],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


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
    with undefined holes is worse than no matrix.  ``threads`` is accepted
    for compatibility and ignored.
    """
    if not panel.is_aligned:
        raise AlignmentError("panel must be aligned before pairwise analysis")
    if len(panel.series) < 2:
        raise ValueError("need at least two series for a pairwise matrix")

    ids = panel.ids
    segs = [detrended_segments(series_profile(ts, input_kind=input_kind).values,
                               s, method)
            for ts in panel.series]
    k, seg_len = segs[0].shape
    flat = np.stack([r.reshape(-1) for r in segs])  # (n_series, k*seg_len)

    f2 = np.einsum("ij,ij->i", flat, flat) / (k * seg_len)
    bad = [ids[i] for i in range(len(ids)) if f2[i] <= 0.0]
    if bad:
        raise DegenerateSeriesError(
            bad,
            f"zero detrended fluctuation at s={s} for {bad}; "
            "pairwise matrix undefined",
        )

    gram = (flat @ flat.T) / (k * seg_len)
    denom = np.sqrt(f2)
    rho = gram / np.outer(denom, denom)
    # mirror the upper triangle so symmetry is exact, not just within float noise
    rho = np.triu(rho, 1)
    rho = rho + rho.T
    np.fill_diagonal(rho, 1.0)
    over = np.abs(rho) > 1.0
    if np.any(np.abs(rho[over]) - 1.0 > _RHO_OVERSHOOT_TOL):
        raise LongmemError(
            f"|rho| exceeds 1 beyond rounding tolerance at s={s}; "
            "this indicates a bug"
        )
    rho[over] = np.sign(rho[over])
    return DccaMatrix(ids=ids, scale=int(s), method=method, rho=rho)


@dataclass(frozen=True, eq=False)
class RhoCurve:
    """Coefficient of one pair across scales."""

    pair: tuple[str, str]
    method: DetrendMethod
    scales: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.scales.flags.writeable = False
        self.values.flags.writeable = False
        if self.scales.size != self.values.size:
            raise ValueError("scales and values must match in length")

    @property
    def points(self) -> list[tuple[int, float]]:
        return [(int(s), float(v)) for s, v in zip(self.scales, self.values)]

    def to_table(self) -> str:
        lines = ["s,rho"]
        for s, v in self.points:
            lines.append(f"{s},{v!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "method": self.method.to_json_dict(),
            "scales": [int(s) for s in self.scales],
            "values": [float(v) for v in self.values],
        }


def rho_vs_scale(
    a: TimeSeries,
    b: TimeSeries,
    grid: ScaleGrid | None = None,
    *,
    method: DetrendMethod,
    input_kind: str = "levels",
) -> RhoCurve:
    """Trace the coefficient of one pair across a scale grid.

    The default grid is 40 log-spaced scales from 5 to 500, the range
    where scale-dependent co-movement of rate panels is typically read;
    the series must be long enough for the largest scale (an error from
    the segmentation propagates otherwise).
    """
    _check_common_dates(a, b)
    pa = series_profile(a, input_kind=input_kind)
    pb = series_profile(b, input_kind=input_kind)
    if grid is None:
        grid = default_grid(pa.values.size, s_min=5, s_max=500, num=40)
    values = np.array(
        [rho_from_profiles(pa, pb, s, method) for s in grid.scales]
    )
    return RhoCurve(
        pair=(a.id, b.id),
        method=method,
        scales=np.asarray(grid.scales, dtype=int),
        values=values,
    )
