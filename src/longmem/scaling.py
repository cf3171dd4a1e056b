"""Segment-wise detrended variance: the engine behind DFA, DMA and DCCA.

The profile is tiled twice with non-overlapping windows of length s, once
from the start and once from the end, so every scale contributes
2*floor(n/s) segments.  Per segment the local trend is removed (polynomial
fit for DFA, moving average for DMA) and the fluctuation value is

    F(s) = sqrt( mean over segments of (1/s) * sum(residual^2) ),

the root of the mean segment variance, which keeps F(s) ~ s^H
dimensionally consistent.  The DMA trend is computed once over the whole
profile with the window truncated at the boundaries, then segmented
exactly like the DFA residuals; a per-segment moving average would be
ill-defined near segment edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScaleError
from .series import Profile

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


def _poly_basis(s: int, order: int):
    """Design matrix on a normalized abscissa and its pseudoinverse."""
    x = np.arange(s, dtype=float)
    half = max((s - 1) / 2.0, 1.0)
    x = (x - (s - 1) / 2.0) / half
    basis = np.vander(x, order + 1, increasing=True)
    return basis, np.linalg.pinv(basis)


def _moving_average(y: np.ndarray, s: int, alignment: str = "centered") -> np.ndarray:
    """Window-s moving average of y with truncation at the boundaries.

    centered: window [i - (s-1)//2, i + s - 1 - (s-1)//2], clipped to the
    array.  backward: the s most recent points [i - s + 1, i], clipped at
    the start.
    """
    n = len(y)
    idx = np.arange(n)
    if alignment == "centered":
        left = (s - 1) // 2
        lo = np.clip(idx - left, 0, n)
        hi = np.clip(idx + (s - 1 - left) + 1, 0, n)
    elif alignment == "backward":
        lo = np.clip(idx - s + 1, 0, n)
        hi = idx + 1
    else:
        raise ValueError(f"unknown dma alignment {alignment!r}")
    cs = np.concatenate(([0.0], np.cumsum(y)))
    return (cs[hi] - cs[lo]) / (hi - lo)


def detrended_segments(y: np.ndarray, s: int, method: DetrendMethod) -> np.ndarray:
    """Residual matrix of shape (2*floor(n/s), s) after local detrending.

    The first floor(n/s) rows tile the profile from the start, the next
    floor(n/s) from the end (listed end-first); both passes are kept even
    when s divides n.  Shared by the auto- and cross-fluctuation paths so
    both see identical residuals.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if s > n // 2:
        raise ScaleError(f"scale {s} exceeds half the profile length {n}")
    if s < method.min_scale:
        raise ScaleError(f"scale {s} below method minimum {method.min_scale} "
                         f"({method.label})")
    n_seg = n // s
    fwd = y[:n_seg * s].reshape(n_seg, s)
    bwd = y[n - n_seg * s:].reshape(n_seg, s)[::-1]
    segments = np.concatenate([fwd, bwd], axis=0)
    if method.kind == "dfa":
        basis, pinv = _poly_basis(s, method.order)
        coef = segments @ pinv.T
        resid = segments - coef @ basis.T
        # A residual at the projection's own rounding floor is numerically
        # zero.  Snapping it keeps perfectly-detrended segments (constant or
        # polynomial profiles) at F = 0, so they are excluded from log fits
        # instead of being fitted on cancellation noise.
        floor = _RESIDUAL_FLOOR * np.maximum(1.0, np.abs(segments).max(axis=1))
        resid[np.abs(resid).max(axis=1) <= floor] = 0.0
        return resid
    trend = _moving_average(y, s, method.alignment)
    t_fwd = trend[:n_seg * s].reshape(n_seg, s)
    t_bwd = trend[n - n_seg * s:].reshape(n_seg, s)[::-1]
    return segments - np.concatenate([t_fwd, t_bwd], axis=0)


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
    y = profile.values
    values = np.empty(len(grid))
    for k, s in enumerate(grid):
        residuals = detrended_segments(y, s, method)
        seg_var = np.mean(residuals * residuals, axis=1)
        values[k] = np.sqrt(np.mean(seg_var))
    return FluctuationFunction(profile.parent_id, method,
                               np.array(list(grid)), values)
