"""Long-memory exponent estimation from fluctuation functions.

The exponent is the slope of a least-squares line through
(log10 s, log10 F(s)).  Fits default to scales up to 250 because beyond
roughly a trading year the scaling of rate series tends to bend and a
single line stops being meaningful; pass an explicit ``fit_range`` to
override.  ``detect_crossover`` searches for that bend: it compares the
single-line fit against every split of the log-log points into a left and
a right line and reports the split scale when the two-line model removes
enough of the squared error.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import LongmemError
from .scaling import (
    _DEFAULT_SCALE_CAP,
    DetrendMethod,
    FluctuationFunction,
    ScaleGrid,
    _fluctuations,
    default_grid,
)
from .series import RatePanel, _frozen, _profile_length, series_profile

__all__ = [
    "HurstEstimate",
    "CrossoverReport",
    "HurstDistribution",
    "fit_hurst",
    "detect_crossover",
    "hurst_distribution",
]

# Relative slack when comparing piecewise SSEs; exact fits differ only by
# rounding noise and the tie must go to the largest candidate scale.
_SSE_TIE_REL = 1e-9
# Below this the single line already fits to rounding noise and the
# two-line improvement ratio is meaningless.
_SSE_FLOOR = 1e-20


@dataclass(frozen=True)
class HurstEstimate:
    """Slope of the log10-log10 fluctuation fit for one series."""

    series_id: str
    hurst: float
    intercept: float
    r_squared: float
    stderr: float
    fit_range: tuple[int, int]  # smallest and largest scale actually used
    n_points: int
    n_excluded: int  # in-range scales dropped because F was zero

    def classify(self) -> str:
        """Bucket the exponent: 0.5 means increments look uncorrelated."""
        if self.hurst == 0.5:
            return "uncorrelated"
        return "persistent" if self.hurst > 0.5 else "antipersistent"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "fit_range": list(self.fit_range),
                "regime": self.classify()}


def fit_hurst(
    f: FluctuationFunction,
    fit_range: tuple[int | None, int | None] | None = None,
) -> HurstEstimate:
    """Fit log10 F against log10 s over ``fit_range`` (inclusive).

    ``None`` bounds are open; the default range caps at 250.  Scales where
    F is exactly zero carry no information on a log axis and are excluded
    (their count is reported).  Fewer than three usable points is an error.
    """
    if fit_range is None:
        fit_range = (None, _DEFAULT_SCALE_CAP)
    s_lo, s_hi = fit_range
    lo = 0 if s_lo is None else int(s_lo)
    hi = np.inf if s_hi is None else int(s_hi)
    if s_lo is not None and s_hi is not None and lo > hi:
        raise LongmemError(f"empty fit range ({lo}, {hi})")

    in_range = (f.scales >= lo) & (f.scales <= hi)
    usable = in_range & (f.values > 0.0)
    n_excluded = int(in_range.sum() - usable.sum())
    if int(usable.sum()) < 3:
        raise LongmemError(
            f"{f.series_id!r}: {int(usable.sum())} usable scales in "
            f"[{lo}, {s_hi if s_hi is not None else 'inf'}], need at least 3"
        )

    s_used = f.scales[usable]
    points = _log_points(f, usable)
    if np.ptp(points[0]) == 0.0:
        raise LongmemError(f"{f.series_id!r}: all usable scales identical")

    slope, intercept, r, stderr, _ = _fit_line(points)
    return HurstEstimate(
        series_id=f.series_id,
        hurst=slope,
        intercept=intercept,
        r_squared=r ** 2,
        stderr=stderr,
        fit_range=(int(s_used[0]), int(s_used[-1])),
        n_points=int(usable.sum()),
        n_excluded=n_excluded,
    )


def _log_points(f: FluctuationFunction, keep: np.ndarray) -> np.ndarray:
    """The kept (log10 s, log10 F) points of ``f`` as one (2, L) array."""
    return np.log10(np.stack((f.scales[keep].astype(float), f.values[keep])))


def _fit_line(points: np.ndarray) -> tuple[float, float, float, float, float]:
    """Least-squares line: (slope, intercept, r, stderr, sse).

    ``points`` is (2, L), x over y: a ``_log_points`` array or a column
    slice of one.  The moments are those of ``np.cov(x, y, bias=1)``,
    formed as it forms them (center, ``X @ X.T``, scale by 1/n) without
    its overhead, so the first four match ``scipy.stats.linregress`` bit
    for bit.  r is clamped to [-1, 1]; for flat y it is 0, or NaN when the
    cross moment is exactly 0 as well.  stderr is NaN for two points.
    """
    x, y = points
    n = x.size
    mean = np.add.reduce(points, axis=1) / n
    d = points - mean[:, None]
    ssxm, ssxym, _, ssym = ((d @ d.T) * (1.0 / n)).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(float(ssxym / np.sqrt(ssxm * ssym)), -1.0), 1.0)
    slope = float(ssxym / ssxm)
    intercept = float(mean[1] - slope * mean[0])
    stderr = (float(np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2)))
              if n > 2 else math.nan)
    resid = y - (intercept + slope * x)
    return slope, intercept, r, stderr, float(np.dot(resid, resid))


@dataclass(frozen=True)
class CrossoverReport:
    """Outcome of the two-line versus one-line comparison."""

    series_id: str
    breakpoint_scale: int | None
    slope_left: float
    slope_right: float
    sse_single: float
    sse_piecewise: float
    improvement_ratio: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def detect_crossover(
    f: FluctuationFunction,
    min_side_points: int = 3,
    improvement_threshold: float = 0.5,
) -> CrossoverReport:
    """Search every grid scale for a bend in the log-log curve.

    A candidate at scale s fits one line to the points with scale <= s and
    an independent line to the points above s.  The candidate with the
    smallest combined squared error wins; ties (SSEs within 1e-9 of the
    larger, or 1e-20) go to the largest scale, so a kink on a grid point
    is reported there.  The breakpoint is only reported when the two-line
    model removes at least ``improvement_threshold`` of the single-line
    squared error; a single line that already fits to rounding noise (SSE
    at most 1e-20) yields ratio 0 and no breakpoint.
    """
    if not 0.0 < improvement_threshold < 1.0:
        raise LongmemError("improvement_threshold must be in (0, 1)")
    if min_side_points < 2:
        raise LongmemError("need at least 2 points per side")

    usable = f.values > 0.0
    scales = f.scales[usable]
    n_pts = scales.size
    if n_pts < 2 * min_side_points + 1:
        raise LongmemError(
            f"{f.series_id!r}: {n_pts} usable scales, need at least "
            f"{2 * min_side_points + 1} for a crossover search"
        )
    points = _log_points(f, usable)

    *_, sse_single = _fit_line(points)

    best = (math.inf, 0.0, 0.0, 0)  # sse, slope_left, slope_right, k
    for k in range(min_side_points - 1, n_pts - min_side_points):
        sl, *_, sse_l = _fit_line(points[:, : k + 1])
        sr, *_, sse_r = _fit_line(points[:, k + 1 :])
        sse = sse_l + sse_r
        tie = max(_SSE_FLOOR, _SSE_TIE_REL * max(sse, best[0]))
        if sse <= best[0] + tie:
            best = (sse, sl, sr, k)

    sse_piecewise, slope_left, slope_right, best_k = best
    if sse_single <= _SSE_FLOOR:
        ratio = 0.0
    else:
        ratio = 1.0 - sse_piecewise / sse_single
    breakpoint = int(scales[best_k]) if ratio >= improvement_threshold else None
    return CrossoverReport(
        series_id=f.series_id,
        breakpoint_scale=breakpoint,
        slope_left=slope_left,
        slope_right=slope_right,
        sse_single=sse_single,
        sse_piecewise=sse_piecewise,
        improvement_ratio=ratio,
    )


@dataclass(frozen=True, eq=False)
class HurstDistribution:
    """Per-series exponents for a panel plus their histogram."""

    estimates: tuple[HurstEstimate, ...]
    failures: tuple[tuple[str, str], ...]  # (series id, reason), sorted by id
    bin_width: float
    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for name in ("bin_edges", "counts"):
            object.__setattr__(self, name,
                               _frozen(np.asarray(getattr(self, name))))

    @property
    def h_min(self) -> float:
        return min(e.hurst for e in self.estimates)

    @property
    def h_max(self) -> float:
        return max(e.hurst for e in self.estimates)

    @property
    def mode_bin(self) -> tuple[float, float]:
        i = int(np.argmax(self.counts))
        return (float(self.bin_edges[i]), float(self.bin_edges[i + 1]))

    def to_json_dict(self) -> dict:
        return {
            "estimates": [e.to_json_dict() for e in self.estimates],
            "failures": [{"series_id": i, "error": m} for i, m in self.failures],
            "bin_width": self.bin_width,
            "bin_edges": [float(v) for v in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "summary": {
                "h_min": self.h_min,
                "h_max": self.h_max,
                "mode_bin": list(self.mode_bin),
            },
        }


def _histogram(values: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts over bins of fixed width, edges snapped to multiples of width.

    Each value is counted once, in the bin [e_i, e_i+1) holding it; the
    last bin is closed.  A rounded edge can land a hair past the smallest
    or largest value, so the grid then gets one more bin on that side.
    A width so small that the bin count overflows or reaches 2**60 (the
    float64 values numpy can size) raises LongmemError.
    """
    v_min, v_max = float(values.min()), float(values.max())
    try:
        k = math.floor(v_min / width)
        lo = k * width if k * width <= v_min else (k - 1) * width
        n_bins = max(1, math.ceil((v_max - lo) / width - 1e-9))
    except OverflowError:  # a quotient past the float64 range
        n_bins = math.inf
    if n_bins >= 2 ** 60:
        raise LongmemError(f"bin width {float(width)!r} splits the exponent "
                           f"range [{v_min:g}, {v_max:g}] into 2**60 or more "
                           "bins")
    if lo + width * n_bins < v_max:
        n_bins += 1
    edges = lo + width * np.arange(n_bins + 1)
    bins = np.minimum(np.searchsorted(edges, values, side="right") - 1, n_bins - 1)
    return edges, np.bincount(bins, minlength=n_bins)


def _map_fluctuations(fn, panel: RatePanel, grid: ScaleGrid,
                      method: DetrendMethod, input_kind: str
                      ) -> list[tuple[str, object]]:
    """Apply ``fn`` to the F(s) over ``grid`` of every aligned panel member.

    The one place per-member work runs and its LongmemErrors are caught; any
    other exception is a bug and propagates.  Profiles go through the
    batched ``_fluctuations`` in id order.  Returns one ``(id, outcome)``
    pair per member, in id order: ``fn(f)``, or the LongmemError that the
    member's profile, F or ``fn`` raised.  An error of the batched F (a grid
    scale the profiles are too short for) is every member's outcome.
    """
    members = sorted(panel.series, key=lambda t: t.id)
    outcome, profiles = {}, []
    for ts in members:
        try:
            profiles.append(series_profile(ts, input_kind=input_kind))
        except LongmemError as exc:
            outcome[ts.id] = exc
    try:
        curves = _fluctuations(profiles, grid, method) if profiles else []
    except LongmemError as exc:
        curves = []
        outcome.update((p.parent_id, exc) for p in profiles)
    for f in curves:
        try:
            outcome[f.series_id] = fn(f)
        except LongmemError as exc:
            outcome[f.series_id] = exc
    return [(ts.id, outcome[ts.id]) for ts in members]


def _failures(outcomes, prefix: str = "") -> list[tuple[str, str]]:
    """``(id, prefix + message)`` of every failed outcome, in list order."""
    return [(sid, prefix + str(got)) for sid, got in outcomes
            if isinstance(got, Exception)]


def hurst_distribution(
    panel: RatePanel,
    method: DetrendMethod,
    grid: ScaleGrid | None = None,
    fit_range: tuple[int | None, int | None] | None = None,
    bin_width: float = 0.02,
    input_kind: str = "levels",
    threads: int = 1,
) -> HurstDistribution:
    """Estimate the exponent of every panel member and bin the results.

    A member whose fit fails (too short for the grid, constant, zero
    fluctuations) is recorded under ``failures`` instead of aborting the
    rest; if all fail, the LongmemError counts and names them and gives their
    first distinct reasons.  The panel must be aligned so every member sees
    the same grid.  F(s) is computed for row chunks of members at once and
    kept on each profile (see ``scaling``).  ``threads`` is ignored: one
    thread measured faster than a thread pool.  It stays only because
    ``perfbench/kernels.py`` passes it, and ROADMAP item 1c removes it.
    """
    if not panel.is_aligned:
        raise LongmemError("panel must be aligned before batch estimation")
    if not 0.0 < bin_width < math.inf:
        raise LongmemError("bin_width must be positive and finite")
    if grid is None:
        grid = default_grid(_profile_length(panel, input_kind))

    outcomes = _map_fluctuations(
        lambda f: fit_hurst(f, fit_range), panel, grid, method, input_kind)
    failures = _failures(outcomes)
    if len(failures) == len(outcomes):
        ids = [sid for sid, _ in failures]
        more = f" and {len(ids) - 5} more" if len(ids) > 5 else ""
        reasons = list(dict.fromkeys(msg for _, msg in failures))[:3]
        raise LongmemError(f"no panel member produced a usable fit: {len(ids)} "
                           f"failed ({', '.join(ids[:5])}{more}); "
                           + "; ".join(reasons))
    estimates = tuple(got for _, got in outcomes
                      if not isinstance(got, Exception))
    h = np.array([e.hurst for e in estimates])
    edges, counts = _histogram(h, bin_width)
    return HurstDistribution(
        estimates=estimates,
        failures=tuple(failures),
        bin_width=bin_width,
        bin_edges=edges,
        counts=counts,
    )
