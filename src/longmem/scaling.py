"""Segment-wise detrended variance: the engine behind DFA, DMA and DCCA.

The profile is tiled twice with non-overlapping windows of length s, once
from the start and once from the end, so every scale contributes
2*floor(n/s) segments.  Per segment the local trend is removed (polynomial
fit for DFA, moving average for DMA) and the fluctuation value is

    F(s) = sqrt( mean over segments of (1/s) * sum(residual^2) ),

the root of the mean segment variance, which keeps F(s) ~ s^H
dimensionally consistent.

One private residual engine, ``_Residuals``, serves ``fluctuation``, the
coefficient matrices and pair curves of ``dcca`` and
``detrended_segments``.  It is built once per profile and call (a pair
curve builds one per member for its whole grid) and reads the segments as
views, never as concatenated copies.  The profiles it reads come from
``series_profile``, which builds each series' profile once per input kind:

- DMA (Alessio et al., EPJ B 27, 197, 2002) takes one cumulative sum of
  the profile for all scales.  The moving-average trend is a difference of
  two cumsum slices over the window length, the interior and the < s
  boundary points (where the window is truncated) alike.  The residual
  y - trend is formed once per scale over the whole profile, in place,
  and the forward and backward segments are the views
  ``r[:k*s].reshape(k, s)`` and ``r[n-k*s:].reshape(k, s)[::-1]``.  A
  per-segment moving average would be ill-defined near segment edges.
- DFA projects the (2k, s) segment block onto the polynomial basis in one
  product and subtracts and squares in place.  The basis and its
  pseudoinverse are built once per (s, order) and shared read-only.
- Segments at the rounding floor snap to zero for both methods.  Only the
  segments whose mean square could be that small are checked exactly, so
  the common case costs one comparison per segment.

Every F(s) value and coefficient is bit for bit what the materialized
(2k, s) residual block of ``detrended_segments`` gives when reduced row by
row, forward segments first and backward ones end-first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ScaleError
from .series import Profile, _frozen

__all__ = [
    "ScaleGrid",
    "DetrendMethod",
    "dfa",
    "dma",
    "FluctuationFunction",
    "default_grid",
    "fluctuation",
    "detrended_segments",
]

_DEFAULT_SCALE_CAP = 250  # one trading year

# Relative level below which a detrended segment is indistinguishable from
# an exact polynomial fit (a few dozen ulps of the segment magnitude).
_RESIDUAL_FLOOR = 64.0 * np.finfo(float).eps


@dataclass(frozen=True)
class DetrendMethod:
    """Local-trend choice: polynomial fit ("dfa") or moving average ("dma")."""

    kind: str
    order: int = 1
    alignment: str = "centered"

    def __post_init__(self):
        if self.kind == "dfa":
            if self.order < 1:
                raise ValueError(f"dfa order must be >= 1, got {self.order}")
        elif self.kind == "dma":
            if self.alignment not in ("centered", "backward"):
                raise ValueError(f"dma alignment must be 'centered' or "
                                 f"'backward', got {self.alignment!r}")
        else:
            raise ValueError(f"unknown detrend kind {self.kind!r}")

    @property
    def min_scale(self) -> int:
        """Smallest usable window: order + 2 points for a dfa fit, 2 for dma."""
        return self.order + 2 if self.kind == "dfa" else 2

    @property
    def label(self) -> str:
        if self.kind == "dfa":
            return f"dfa{self.order}"
        return f"dma-{self.alignment}"

    def to_json_dict(self) -> dict:
        if self.kind == "dfa":
            return {"kind": "dfa", "order": self.order}
        return {"kind": "dma", "alignment": self.alignment}


def dfa(order: int = 1) -> DetrendMethod:
    """Polynomial detrending of the given order."""
    return DetrendMethod("dfa", order=order)


def dma(alignment: str = "centered") -> DetrendMethod:
    """Moving-average detrending, centered (default) or backward window."""
    return DetrendMethod("dma", alignment=alignment)


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly increasing window sizes, counted in observations."""

    scales: tuple[int, ...]
    s_min: int = 10

    def __post_init__(self):
        scales = tuple(int(s) for s in self.scales)
        object.__setattr__(self, "scales", scales)
        if not scales:
            raise ScaleError("empty scale grid")
        if self.s_min < 2:
            raise ScaleError(f"s_min must be >= 2, got {self.s_min}")
        if scales[0] < self.s_min:
            raise ScaleError(f"scale {scales[0]} below s_min={self.s_min}")
        for a, b in zip(scales, scales[1:]):
            if b <= a:
                raise ScaleError(f"scales not strictly increasing at {a}, {b}")

    def __len__(self) -> int:
        return len(self.scales)

    def __iter__(self):
        return iter(self.scales)


def default_grid(n: int, s_min: int = 10, s_max: int | None = None,
                 num: int = 20) -> ScaleGrid:
    """Log-spaced integer grid from s_min up to min(250, n // 4).

    ``n`` is the profile length the grid will be used on.  Duplicates from
    rounding are removed.  Pass an explicit ``s_max`` (e.g. beyond 250) for
    crossover studies.
    """
    if s_max is None:
        s_max = min(_DEFAULT_SCALE_CAP, n // 4)
    if s_max < s_min:
        raise ScaleError(f"profile of length {n} leaves no scales in "
                         f"[{s_min}, {s_max}]")
    raw = np.logspace(np.log10(s_min), np.log10(s_max), num)
    scales = np.unique(np.rint(raw).astype(int))
    return ScaleGrid(tuple(int(s) for s in scales), s_min=s_min)


@functools.lru_cache(maxsize=1024)
def _poly_basis(s: int, order: int):
    """Design matrix on a normalized abscissa and its pseudoinverse.

    Built once per (s, order) and shared, so both arrays are read-only.
    """
    x = np.arange(s, dtype=float)
    half = max((s - 1) / 2.0, 1.0)
    x = (x - (s - 1) / 2.0) / half
    basis = np.vander(x, order + 1, increasing=True)
    return _frozen(basis), _frozen(np.linalg.pinv(basis))


def _segment_starts(n: int, s: int) -> np.ndarray:
    """First index of every segment: forward tiles, then backward end-first."""
    i = np.arange(n // s)
    return np.concatenate((i * s, n - (i + 1) * s))


class _Residuals:
    """The residual engine: detrended segments of one profile, scale by scale.

    Built once per profile and call; it holds what every scale shares: the
    profile, its cumulative sum (dma) and the bound on a segment's mean
    square below which the segment may sit at the rounding floor.  Each
    scale reads the segments as views of the profile or of one residual
    vector; only dfa copies them, into the (2k, s) operand of its one
    projection product.
    """

    def __init__(self, y, method: DetrendMethod):
        self.y = y = np.asarray(y, dtype=float)
        self.n = len(y)
        self.method = method
        if method.kind == "dma":
            self._cs = np.empty(self.n + 1)
            self._cs[0] = 0.0
            np.cumsum(y, out=self._cs[1:])
        # A segment snaps only if max|r| <= floor <= top, so its mean square
        # is at most top**2; the 2x slack covers a rounded mean of squares
        # landing a few ulps above its largest term.  fmax skips NaN, which
        # never snaps, so the bound still covers every finite segment.
        top = _RESIDUAL_FLOOR * max(1.0, float(np.fmax.reduce(np.abs(y),
                                                              initial=0.0)))
        self._ms_bound = 2.0 * top * top

    def n_segments(self, s: int) -> int:
        """Segments per direction at scale s, after checking s is usable."""
        n = self.n
        if s > n // 2:
            raise ScaleError(f"scale {s} exceeds half the profile length {n}")
        if s < self.method.min_scale:
            raise ScaleError(f"scale {s} below method minimum "
                             f"{self.method.min_scale} ({self.method.label})")
        return n // s

    def trend(self, s: int) -> np.ndarray:
        """Moving-average trend of the whole profile (dma).

        Point i averages the window [i - a, i - a + s), a = (s-1)//2 when
        centered and s - 1 (the s most recent points) when backward,
        clipped to the profile.  Every value is a difference of cumsum
        slices over the window length, so the whole trend takes slices
        only: the interior, the first a points (window clipped at 0) and,
        when centered, the last s - 1 - a (window clipped at n).
        """
        n, cs = self.n, self._cs
        a = (s - 1) // 2 if self.method.alignment == "centered" else s - 1
        out = np.empty(n)
        inner = out[a:n - s + a + 1]
        np.subtract(cs[s:], cs[:n - s + 1], out=inner)
        inner /= s
        np.divide(cs[s - a:s], np.arange(s - a, s), out=out[:a])
        np.divide(cs[n] - cs[n - s + 1:n - a], np.arange(s - 1, a, -1),
                  out=out[n - s + a + 1:])
        return out

    def _dma(self, s: int) -> np.ndarray:
        """Residual y - trend over the whole profile, formed in place."""
        r = self.trend(s)
        return np.subtract(self.y, r, out=r)

    def _dfa(self, s: int, k: int):
        """The (2k, s) segments and their polynomial trend.

        Both products keep the one (2k, s) operand: a product's bits depend
        on its operand shape.
        """
        seg = np.concatenate((self.y[:k * s].reshape(k, s),
                              self.y[self.n - k * s:].reshape(k, s)[::-1]))
        basis, pinv = _poly_basis(s, self.method.order)
        return seg, (seg @ pinv.T) @ basis.T

    def _snapped(self, s: int, ms: np.ndarray, trend) -> np.ndarray:
        """Segments whose residual is at the rounding floor.

        A residual no larger than the floor, a few dozen ulps of its segment
        magnitude, is numerically zero.  Snapping it keeps perfectly
        detrended segments (constant or polynomial profiles) at F = 0, so
        they are excluded from log fits instead of being fitted on
        cancellation noise.  Only segments whose mean square ``ms`` is
        within the bound are checked exactly, on residuals re-formed from
        the profile and its trend (``trend`` for dfa; dma forms its trend
        again), so the common case costs one comparison per segment.
        """
        rows = np.flatnonzero(ms <= self._ms_bound)
        if rows.size == 0:
            return rows
        pos = _segment_starts(self.n, s)[rows, None] + np.arange(s)
        seg = self.y[pos]
        trend = trend[rows] if self.method.kind == "dfa" else self.trend(s)[pos]
        floor = _RESIDUAL_FLOOR * np.maximum(1.0, np.abs(seg).max(axis=1))
        return rows[np.abs(seg - trend).max(axis=1) <= floor]

    def mean_squares(self, s: int) -> np.ndarray:
        """Per-segment mean squared residual at scale s, in segment order."""
        k = self.n_segments(s)
        if self.method.kind == "dma":
            r2 = self._dma(s)
            np.multiply(r2, r2, out=r2)
            ms = np.concatenate((
                np.add.reduce(r2[:k * s].reshape(k, s), axis=1),
                np.add.reduce(r2[self.n - k * s:].reshape(k, s), axis=1)[::-1]))
            trend = None
        else:
            r2, trend = self._dfa(s, k)
            np.subtract(r2, trend, out=r2)
            np.multiply(r2, r2, out=r2)
            ms = np.add.reduce(r2, axis=1)
        # np.mean's own steps (the sum, then a true divide by the count)
        # without its wrapper, so the bits are the same.
        ms /= s
        ms[self._snapped(s, ms, trend)] = 0.0
        return ms

    def residuals(self, s: int, out: np.ndarray | None = None) -> np.ndarray:
        """Residual segments at scale s, written into ``out`` (2k, s)."""
        k = self.n_segments(s)
        if out is None:
            out = np.empty((2 * k, s))
        if self.method.kind == "dma":
            r = self._dma(s)
            out[:k] = r[:k * s].reshape(k, s)
            out[k:] = r[self.n - k * s:].reshape(k, s)[::-1]
            trend = None
        else:
            seg, trend = self._dfa(s, k)
            np.subtract(seg, trend, out=out)
        out[self._snapped(s, np.einsum("ij,ij->i", out, out) / s, trend)] = 0.0
        return out


def detrended_segments(y: np.ndarray, s: int, method: DetrendMethod) -> np.ndarray:
    """Residual matrix of shape (2*floor(n/s), s) after local detrending.

    The first floor(n/s) rows tile the profile from the start, the next
    floor(n/s) from the end (listed end-first); both passes are kept even
    when s divides n.  The rows are the ones ``fluctuation`` and the
    coefficient matrices reduce, materialized in one array.
    """
    return _Residuals(y, method).residuals(s)


@dataclass(frozen=True, eq=False)
class FluctuationFunction:
    """(scale, F(s)) pairs for one series, with method metadata."""

    series_id: str
    method: DetrendMethod
    scales: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=int)
        values = np.asarray(self.values, dtype=float)
        scales.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "values", values)
        if len(scales) != len(values):
            raise ValueError("scales and values length mismatch")
        if np.any(values < 0):
            raise ValueError("auto-fluctuation values must be >= 0")


def fluctuation(profile: Profile, grid: ScaleGrid,
                method: DetrendMethod) -> FluctuationFunction:
    """Fluctuation function F(s) of a profile over a scale grid."""
    engine = _Residuals(profile.values, method)
    values = np.empty(len(grid))
    for i, s in enumerate(grid):
        ms = engine.mean_squares(s)
        values[i] = np.add.reduce(ms) / ms.size
    np.sqrt(values, out=values)
    return FluctuationFunction(profile.parent_id, method,
                               np.array(list(grid)), values)
