"""Naive, loop-based reimplementations of the pipeline math.

These are deliberately written the slow and obvious way (explicit window
loops, np.polyfit on the raw abscissa) so they share no code path with the
vectorized production implementation.  Used as brute-force oracles.
"""

import numpy as np

from longmem.errors import AlignmentError
from longmem.scaling import DetrendMethod


def naive_segment_ranges(n: int, s: int) -> list[tuple[int, int]]:
    k = n // s
    fwd = [(v * s, (v + 1) * s) for v in range(k)]
    bwd = [(n - (v + 1) * s, n - v * s) for v in range(k)]
    return fwd + bwd


def naive_ma_trend(y: np.ndarray, s: int, alignment: str) -> np.ndarray:
    n = len(y)
    out = np.empty(n)
    for i in range(n):
        if alignment == "centered":
            left = (s - 1) // 2
            lo = max(0, i - left)
            hi = min(n, i + (s - 1 - left) + 1)
        else:
            lo = max(0, i - s + 1)
            hi = i + 1
        out[i] = float(np.mean(y[lo:hi]))
    return out


def naive_residuals(y: np.ndarray, s: int, method: DetrendMethod) -> list[np.ndarray]:
    y = np.asarray(y, dtype=float)
    n = len(y)
    if method.kind == "dma":
        trend = naive_ma_trend(y, s, method.alignment)
    out = []
    for lo, hi in naive_segment_ranges(n, s):
        seg = y[lo:hi]
        if method.kind == "dfa":
            t = np.arange(s, dtype=float)
            coeffs = np.polyfit(t, seg, method.order)
            out.append(seg - np.polyval(coeffs, t))
        else:
            out.append(seg - trend[lo:hi])
    return out


def naive_fluctuation(y: np.ndarray, s: int, method: DetrendMethod) -> float:
    """Root of the mean per-segment residual variance."""
    segs = naive_residuals(y, s, method)
    per_segment = [float(np.sum(r * r)) / s for r in segs]
    return float(np.sqrt(np.mean(per_segment)))


def naive_cross_f2(ya: np.ndarray, yb: np.ndarray, s: int,
                   method: DetrendMethod) -> float:
    """Signed mean per-segment residual covariance."""
    ra = naive_residuals(ya, s, method)
    rb = naive_residuals(yb, s, method)
    per_segment = [float(np.sum(a * b)) / s for a, b in zip(ra, rb)]
    return float(np.mean(per_segment))


def naive_rho(ya: np.ndarray, yb: np.ndarray, s: int,
              method: DetrendMethod) -> float:
    """Cross term over the product of the two auto-fluctuation roots."""
    f2x = naive_cross_f2(ya, yb, s, method)
    fa = naive_fluctuation(ya, s, method)
    fb = naive_fluctuation(yb, s, method)
    return f2x / (fa * fb)


def naive_edges(ids, rho, threshold):
    edges = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            w = float(rho[i, j])
            if abs(w) >= threshold:
                edges.append((ids[i], ids[j], w))
    return tuple(edges)


def naive_forward_fill(series_id, dates, values, index, max_gap):
    """Fill runs of <= max_gap missing index dates from the last observation.

    Walks the panel index date by date.  A fillable run at the series start
    has no prior value and raises AlignmentError; longer runs (including a
    long leading run) are left missing.  Returns the filled (dates, values)
    in index order.
    """
    have = dict(zip(dates, values))
    out_dates, out_values, run = [], [], []
    for d in index:
        if d in have:
            if run and len(run) <= max_gap:
                if not out_values:
                    raise AlignmentError(
                        f"series {series_id!r}: gap of {len(run)} at series "
                        f"start cannot be forward-filled (no prior value)")
                out_dates.extend(run)
                out_values.extend([out_values[-1]] * len(run))
            run = []
            out_dates.append(d)
            out_values.append(have[d])
        else:
            run.append(d)
    if run and len(run) <= max_gap and out_values:
        out_dates.extend(run)
        out_values.extend([out_values[-1]] * len(run))
    return out_dates, out_values
