"""Segment-wise detrended variance: the engine behind DFA, DMA and DCCA.

The profile is tiled twice with non-overlapping windows of length s, once
from the start and once from the end, so every scale contributes
2*floor(n/s) segments.  Per segment the local trend is removed (polynomial
fit for DFA, moving average for DMA) and the fluctuation value is

    F(s) = sqrt( mean over segments of (1/s) * sum(residual^2) ),

the root of the mean segment variance, which keeps F(s) ~ s^H
dimensionally consistent.

One private residual engine, ``_Residuals``, serves ``fluctuation``, the
batched F of ``hurst_distribution`` and the CLI crossover search, the
coefficient matrices and pair curves of ``dcca`` and
``detrended_segments``.  It takes a row chunk of equal-length profiles,
one row per member and at most ``max(1, _CHUNK_ELEMS // n)`` rows, so
each per-scale numpy call covers a chunk's members at once while every
temporary stays near 320 KB; a profile longer than ``_CHUNK_ELEMS`` is a
chunk of one row.  Only this module knows that policy: ``_fluctuations``
cuts its own chunks, and ``dcca`` takes its engines from ``_engines``.
The engine is built once per chunk and call (a pair curve builds its
chunks once for its whole grid).  Every cumulative sum and reduction runs
along a row, and floor snapping and its bound are per member, so each
member's values are bit for bit those of a one-row engine.  Each F(s) is
kept on its ``Profile`` under (method, s), so a run computes it once
whichever call asks first.  The profiles come from ``series_profile``,
which builds each series' profile once per input kind:

- DMA (Alessio et al., EPJ B 27, 197, 2002) takes one cumulative sum of
  the profile for all scales.  The moving-average trend is a difference of
  two cumsum slices over the window length, the interior and the < s
  boundary points (where the window is truncated) alike.  The residual
  y - trend is formed once per scale over the whole profile, in place;
  its squares are reduced per segment over the forward and backward
  (m, k, s) views of ``_tiles``.  A per-segment moving average
  would be ill-defined near segment edges.
- ``_segments`` is the one (m, 2k, s) layout of an (m, n) block's
  segments: forward tiles, then backward ones end-first.  DFA reads the
  profile through it, projects it onto the polynomial basis in one
  stacked product and subtracts the trend in place.  The block is never
  flattened to (m * 2k, s): a product's bits depend on its operand shape.
  The basis and its pseudoinverse are built once per (s, order) and
  shared read-only.  The coefficient matrices, ``detrended_segments`` and
  the floor check below read their segments through it too.
- Segments at the rounding floor snap to zero for both methods.  DMA's
  trend is a difference of cumsums, so its rounding grows with them, and
  its floor scales with the cumsums as well as the profile.  Only the
  segments whose mean square could be that small are checked exactly, on
  the residuals the caller already holds, so each residual is formed once
  and the common case costs one comparison per segment.

Every F(s) value and coefficient is bit for bit what the materialized
(2k, s) residual block of ``detrended_segments`` gives when reduced row by
row, forward segments first and backward ones end-first.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import LongmemError
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
# an exact polynomial fit (64 ulps of the segment magnitude, or of 1).
_RESIDUAL_FLOOR = 64.0 * np.finfo(float).eps

# Elements per row chunk of the residual engine and of a block draw of
# ``synthetic.generate_blocks``: each per-scale temporary of a chunk is
# about 320 KB, and a longer row is a chunk of one row.
_CHUNK_ELEMS = 40_000


@dataclass(frozen=True)
class DetrendMethod:
    """Local-trend choice: polynomial fit ("dfa") or moving average ("dma")."""

    kind: str
    order: int = 1
    alignment: str = "centered"

    def __post_init__(self):
        if self.kind == "dfa":
            if self.order < 1:
                raise LongmemError(f"dfa order must be >= 1, got {self.order}")
        elif self.kind == "dma":
            if self.alignment not in ("centered", "backward"):
                raise LongmemError(f"dma alignment must be 'centered' or "
                                   f"'backward', got {self.alignment!r}")
        else:
            raise LongmemError(f"unknown detrend kind {self.kind!r}")

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


def _grid_scale(s) -> int:
    """``s`` as an int; ``operator.index`` takes numpy integers, not 2.5 or "3"."""
    try:
        return operator.index(s)
    except TypeError:
        raise LongmemError(f"scale {s!r} is not an integer") from None


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly increasing window sizes (each >= 2), counted in observations."""

    scales: tuple[int, ...]

    def __post_init__(self):
        scales = tuple(map(_grid_scale, self.scales))
        object.__setattr__(self, "scales", scales)
        if not scales:
            raise LongmemError("empty scale grid")
        if scales[0] < 2:
            raise LongmemError(f"scale {scales[0]} below 2")
        for a, b in zip(scales, scales[1:]):
            if b <= a:
                raise LongmemError(f"scales not strictly increasing at {a}, {b}")

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
    if s_min < 2:
        raise LongmemError(f"s_min must be >= 2, got {s_min}")
    if s_max is None:
        s_max = min(_DEFAULT_SCALE_CAP, n // 4)
    if s_max < s_min:
        raise LongmemError(f"profile of length {n} leaves no scales in "
                           f"[{s_min}, {s_max}]")
    raw = np.logspace(np.log10(s_min), np.log10(s_max), num)
    scales = np.unique(np.rint(raw).astype(int))
    return ScaleGrid(scales)


@functools.lru_cache(maxsize=1024)
def _poly_basis(s: int, order: int):
    """Design matrix on a normalized abscissa and its pseudoinverse.

    Built once per (s, order) and shared, so both arrays are read-only.
    """
    half = (s - 1) / 2.0
    x = (np.arange(s, dtype=float) - half) / half
    basis = np.vander(x, order + 1, increasing=True)
    return _frozen(basis), _frozen(np.linalg.pinv(basis))


def _row_chunks(items, n: int) -> list:
    """``items`` cut into consecutive row chunks for rows of length n."""
    rows = max(1, _CHUNK_ELEMS // n)
    return [items[i:i + rows] for i in range(0, len(items), rows)]


def _engines(profiles, method: DetrendMethod):
    """Residual engines, built lazily, over row chunks of profile arrays."""
    return (_Residuals(chunk, method)
            for chunk in _row_chunks(profiles, len(profiles[0])))


class _Residuals:
    """The residual engine: detrended segments of a block of profiles.

    ``rows`` are m equal-length profiles, one row each: a row chunk that
    ``_row_chunks`` cuts for ``_fluctuations`` or ``_engines``.  Built once
    per chunk and call; it holds what every scale shares: the (m, n)
    profile block, its row-wise cumulative sum (dma) and, per row, the
    bound on a segment's mean square below which the segment may sit at
    the rounding floor.  Each scale reads the segments as views of the
    block or of one residual block; dfa copies the profile's into the
    (m, 2k, s) operand of its projection product, ``residuals``' buffer
    when it has one, and detrends them there.  Every reduction runs along
    a row, so each member's values are bit for bit those of a one-row
    engine.
    """

    def __init__(self, rows, method: DetrendMethod):
        self.y = y = np.array(rows, dtype=float)
        self.m, self.n = y.shape
        self.method = method
        mag = np.fmax.reduce(np.abs(y), axis=1, initial=0.0)
        if method.kind == "dma":
            self._cs = np.empty((self.m, self.n + 1))
            self._cs[:, 0] = 0.0
            np.cumsum(y, axis=1, out=self._cs[:, 1:])
            # the trend's rounding grows with the cumsums it differences
            mag = np.fmax(mag, np.fmax.reduce(np.abs(self._cs), axis=1))
        # A segment snaps only if max|r| <= floor <= top, so its mean square
        # is at most top**2; the 2x slack covers a rounded mean of squares
        # landing a few ulps above its largest term.  fmax skips NaN, which
        # never snaps, so the bound still covers every finite segment.
        top = _RESIDUAL_FLOOR * np.maximum(1.0, mag)
        self._ms_bound = 2.0 * top * top

    def n_segments(self, s: int) -> int:
        """Segments per direction at scale s, after checking s is usable."""
        n = self.n
        if s > n // 2:
            raise LongmemError(f"scale {s} exceeds half the profile length {n}")
        if s < self.method.min_scale:
            raise LongmemError(f"scale {s} below method minimum "
                               f"{self.method.min_scale} ({self.method.label})")
        return n // s

    def trend(self, s: int) -> np.ndarray:
        """Moving-average trend of every profile row (dma), shape (m, n).

        Point i averages the window [i - a, i - a + s), a = (s-1)//2 when
        centered and s - 1 (the s most recent points) when backward,
        clipped to the profile.  Every value is a difference of cumsum
        slices over the window length, so the whole trend takes slices
        only: the interior, the first a points (window clipped at 0) and,
        when centered, the last s - 1 - a (window clipped at n).
        """
        n, cs, a = self.n, self._cs, self._lag(s)
        out = np.empty((self.m, n))
        inner = out[:, a:n - s + a + 1]
        np.subtract(cs[:, s:], cs[:, :n - s + 1], out=inner)
        inner /= s
        np.divide(cs[:, s - a:s], np.arange(s - a, s), out=out[:, :a])
        np.divide(cs[:, n, None] - cs[:, n - s + 1:n - a],
                  np.arange(s - 1, a, -1), out=out[:, n - s + a + 1:])
        return out

    def _lag(self, s: int) -> int:
        """The lag a of a dma window: point i averages [i - a, i - a + s)."""
        return (s - 1) // 2 if self.method.alignment == "centered" else s - 1

    def _dma(self, s: int) -> np.ndarray:
        """Residual y - trend over every whole profile, formed in place."""
        r = self.trend(s)
        return np.subtract(self.y, r, out=r)

    def _tiles(self, r: np.ndarray, s: int, k: int):
        """Forward and backward (m, k, s) segment views of an (m, n) block.

        The backward tiles are listed from the profile's start; reverse
        their middle axis for the end-first order.
        """
        return (r[:, :k * s].reshape(self.m, k, s),
                r[:, self.n - k * s:].reshape(self.m, k, s))

    def _segments(self, r: np.ndarray, s: int, k: int,
                  out: np.ndarray | None = None) -> np.ndarray:
        """The (m, 2k, s) segments of an (m, n) block, written into ``out``:
        forward tiles first, then the backward tiles end-first."""
        if out is None:
            out = np.empty((self.m, 2 * k, s))
        fwd, bwd = self._tiles(r, s, k)
        out[:, :k] = fwd
        out[:, k:] = bwd[:, ::-1]
        return out

    def _dfa(self, s: int, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (m, 2k, s) residual segments, written into ``out``: the
        profile's segments less their polynomial trend, in place.

        Both products are stacked ones, a (2k, s) product per member: a
        product's bits depend on its operand shape, so the block is never
        flattened to (m * 2k, s).
        """
        out = self._segments(self.y, s, k, out)
        basis, pinv = _poly_basis(s, self.method.order)
        return np.subtract(out, (out @ pinv.T) @ basis.T, out=out)

    def _snapped(self, s: int, k: int, ms: np.ndarray, resid: np.ndarray):
        """(row, segment) indices of residuals at the rounding floor.

        A residual no larger than the floor, 64 ulps of its segment
        magnitude, is numerically zero; for dma the magnitude also takes
        the cumsum entries the segment's trend reads (the 2s from its first
        window's start, clipped to the cumsum).  Snapping it keeps perfectly
        detrended segments (constant or polynomial profiles) at F = 0, so
        they are excluded from log fits instead of being fitted on
        cancellation noise.  Only segments whose mean square ``ms`` is
        within their row's bound are checked exactly, on the caller's
        residuals ``resid``: (m, 2k, s) segments or an (m, n) block, of
        which only the flagged segments are copied.  The common case costs
        one comparison per segment.
        """
        rows, segs = np.nonzero(ms <= self._ms_bound[:, None])
        if rows.size == 0:
            return rows, segs
        starts = np.where(segs < k, segs * s, self.n - (segs - k + 1) * s)

        def top(block, begin=starts):  # max |value| per flagged segment
            got = (np.lib.stride_tricks.sliding_window_view(block, s, axis=1)
                   [rows, begin] if block.ndim == 2 else block[rows, segs])
            return np.abs(got, out=got).max(axis=1)

        mag = top(self.y)
        if self.method.kind == "dma":
            begin = np.clip(starts - self._lag(s), 0, self.n + 1 - 2 * s)
            for half in (begin, begin + s):  # one s-wide copy at a time
                mag = np.fmax(mag, top(self._cs, half))
        # kept finite: under an overflowed cumsum's infinite floor, the
        # infinite residuals it leaves would snap
        floor = _RESIDUAL_FLOOR * np.clip(mag, 1.0, np.finfo(float).max)
        keep = top(resid) <= floor
        return rows[keep], segs[keep]

    def mean_squares(self, s: int) -> np.ndarray:
        """Per-segment mean squared residual at scale s, shape (m, 2k)."""
        k = self.n_segments(s)
        if self.method.kind == "dma":
            r = self._dma(s)
            fwd, bwd = self._tiles(np.multiply(r, r), s, k)
            ms = np.concatenate((np.add.reduce(fwd, axis=2),
                                 np.add.reduce(bwd, axis=2)[:, ::-1]), axis=1)
            del fwd, bwd  # the squares, freed before the floor check
        else:
            r = self._dfa(s, k)
            ms = np.add.reduce(np.multiply(r, r), axis=2)
        # np.mean's own steps (the sum, then a true divide by the count)
        # without its wrapper, so the bits are the same.
        ms /= s
        ms[self._snapped(s, k, ms, r)] = 0.0
        return ms

    def residuals(self, s: int, out: np.ndarray | None = None) -> np.ndarray:
        """Residual segments at scale s, written into ``out`` (m, 2k, s)."""
        k = self.n_segments(s)
        if self.method.kind == "dma":
            out = self._segments(self._dma(s), s, k, out)
        else:
            out = self._dfa(s, k, out)
        flat = out.reshape(-1, s)
        ms = (np.einsum("ij,ij->i", flat, flat) / s).reshape(self.m, 2 * k)
        out[self._snapped(s, k, ms, out)] = 0.0
        return out


def detrended_segments(y: np.ndarray, s: int, method: DetrendMethod) -> np.ndarray:
    """Residual matrix of shape (2*floor(n/s), s) after local detrending.

    The first floor(n/s) rows tile the profile from the start, the next
    floor(n/s) from the end (listed end-first); both passes are kept even
    when s divides n.  The rows are the ones ``fluctuation`` and the
    coefficient matrices reduce, materialized in one array.
    """
    return _Residuals((y,), method).residuals(s)[0]


@dataclass(frozen=True, eq=False)
class FluctuationFunction:
    """(scale, F(s)) pairs for one series, with method metadata."""

    series_id: str
    method: DetrendMethod
    scales: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        scales = _frozen(np.asarray(self.scales, dtype=int))
        values = _frozen(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "values", values)
        if len(scales) != len(values):
            raise LongmemError("scales and values length mismatch")
        if np.any(values < 0):
            raise LongmemError("auto-fluctuation values must be >= 0")


def _fluctuations(profiles, grid: ScaleGrid,
                  method: DetrendMethod) -> list[FluctuationFunction]:
    """F(s) over ``grid`` of equal-length profiles, each value computed once.

    Every F(s) is kept on its profile under (method, s), so a later call
    on that profile reads it instead of computing it again.  The profiles
    are fed to the engine in row chunks; a chunk computes each grid scale
    that any of its members lacks, in grid order, so a scale the profiles
    are too short for raises the LongmemError a one-profile call raises.
    """
    for chunk in _row_chunks(profiles, len(profiles[0])):
        memos = [p._fluct.setdefault(method, {}) for p in chunk]
        todo = [s for s in grid if any(s not in memo for memo in memos)]
        if not todo:
            continue
        engine = _Residuals([p.values for p in chunk], method)
        for s in todo:
            ms = engine.mean_squares(s)
            values = np.sqrt(np.add.reduce(ms, axis=1) / ms.shape[1])
            for memo, v in zip(memos, values.tolist()):
                memo[s] = v
    scales = np.array(list(grid))
    return [FluctuationFunction(p.parent_id, method, scales,
                                [p._fluct[method][s] for s in grid])
            for p in profiles]


def fluctuation(profile: Profile, grid: ScaleGrid,
                method: DetrendMethod) -> FluctuationFunction:
    """Fluctuation function F(s) of a profile over a scale grid."""
    return _fluctuations((profile,), grid, method)[0]
