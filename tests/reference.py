"""Naive, loop-based reimplementations of the pipeline math.

These are deliberately written the slow and obvious way (explicit window
loops, np.polyfit on the raw abscissa) so they share no code path with the
vectorized production implementation.  Used as brute-force oracles.
"""

import csv
import datetime as dt
import io
import math
import re

import numpy as np

from longmem.errors import LongmemError, SchemaError
from longmem.hurst import CrossoverReport
from longmem.scaling import DetrendMethod
from longmem.synthetic import _embedding, _trading_days


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
    has no prior value and raises LongmemError; longer runs (including a
    long leading run) are left missing.  Returns the filled (dates, values)
    in index order.
    """
    have = dict(zip(dates, values))
    out_dates, out_values, run = [], [], []
    for d in index:
        if d in have:
            if run and len(run) <= max_gap:
                if not out_values:
                    raise LongmemError(
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


def naive_fgn_row(n, eigvals, sigma, rng):
    """One exact fGn draw through the circulant embedding ``eigvals``."""
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


def naive_blocks(spec):
    """Ids and matrix of a block panel, drawn one series at a time.

    Each block draws its factor, then each member its own noise, all from
    one generator seeded with ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    eigvals = _embedding(spec.n, spec.hurst)
    ids, rows = [], []
    for b in range(1, spec.n_blocks + 1):
        common = naive_fgn_row(spec.n, eigvals, spec.sigma, rng)
        for m in range(1, spec.block_size + 1):
            own = naive_fgn_row(spec.n, eigvals, spec.sigma, rng)
            rows.append(spec.common_weight * common
                        + (1.0 - spec.common_weight) * own)
            ids.append(f"b{b}:m{m}")
    return tuple(ids), np.array(rows), _trading_days(spec.n)


def naive_modularity(ids, edges, assignment, resolution):
    """Reichardt & Bornholdt's Q on the positive-weight edges.

    Q = (1/2m) sum_ij (A_ij - resolution * k_i k_j / 2m) delta(c_i, c_j),
    summed over every ordered node pair (PRE 74, 016110, 2006).
    """
    index = {node: i for i, node in enumerate(ids)}
    a = [[0.0] * len(ids) for _ in ids]
    for u, v, w in edges:
        if w > 0.0:
            a[index[u]][index[v]] += w
            a[index[v]][index[u]] += w
    k = [sum(row) for row in a]
    two_m = sum(k)
    comm = dict(assignment)
    q = 0.0
    for i in range(len(ids)):
        for j in range(len(ids)):
            if comm[ids[i]] == comm[ids[j]]:
                q += a[i][j] - resolution * k[i] * k[j] / two_m
    return q / two_m


def naive_line(x, y):
    """(slope, sse) of the least-squares line, moments as ``np.cov(x, y,
    bias=1)`` forms them: one ``np.stack`` per fit."""
    n = x.size
    d = np.stack((x, y))
    mean = np.add.reduce(d, axis=1) / n
    d -= mean[:, None]
    ssxm, ssxym, *_ = ((d @ d.T) * (1.0 / n)).flat
    slope = float(ssxym / ssxm)
    resid = y - (float(mean[1] - slope * mean[0]) + slope * x)
    return slope, float(np.dot(resid, resid))


def naive_crossover(f, min_side_points, improvement_threshold):
    """``detect_crossover`` fitted on separate log10 arrays, one line at a
    time: every split after the k-th usable scale, both sides at least
    ``min_side_points`` long; a split wins unless its SSE exceeds the best
    so far by more than max(1e-20, 1e-9 of the larger)."""
    usable = f.values > 0.0
    scales = f.scales[usable]
    n_pts = scales.size
    if n_pts < 2 * min_side_points + 1:
        raise LongmemError(f"{f.series_id!r}: {n_pts} usable scales, need at "
                           f"least {2 * min_side_points + 1} for a crossover search")
    log_s = np.log10(scales.astype(float))
    log_f = np.log10(f.values[usable])
    _, sse_single = naive_line(log_s, log_f)
    best = (math.inf, 0.0, 0.0, 0)
    for k in range(min_side_points - 1, n_pts - min_side_points):
        sl, sse_l = naive_line(log_s[:k + 1], log_f[:k + 1])
        sr, sse_r = naive_line(log_s[k + 1:], log_f[k + 1:])
        sse = sse_l + sse_r
        if sse <= best[0] + max(1e-20, 1e-9 * max(sse, best[0])):
            best = (sse, sl, sr, k)
    sse_piecewise, slope_left, slope_right, k = best
    ratio = 0.0 if sse_single <= 1e-20 else 1.0 - sse_piecewise / sse_single
    return CrossoverReport(
        f.series_id, int(scales[k]) if ratio >= improvement_threshold else None,
        slope_left, slope_right, sse_single, sse_piecewise, ratio)


# README's panel grammar: a value cell is an ASCII decimal as float() reads
# it, without "_" (inf and nan parse, and are then rejected as non-finite);
# a date is ASCII YYYY-MM-DD naming a calendar day
CELL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                  r"|(?i:inf|infinity|nan))")
DATE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")


def naive_date(text):
    """The date of a stripped date cell, or None."""
    match = DATE.fullmatch(text.strip())
    try:
        return match and dt.date(*map(int, match.groups()))
    except ValueError:
        return None


def naive_load(text, path="p.csv"):
    """What README says ``load_panel`` makes of a file holding ``text``.

    Reads record by record with ``csv.reader``.  Returns ``(ids, dates,
    rows, warnings)``, ``rows`` holding one list per date with a value,
    NaN where a cell is blank.  A rejected file gives ``(exception type,
    line, message, warnings)``, ``line`` being the file line where the
    offending record starts (None when the fault is not in one record).
    A csv error (a field past the reader's limit) comes when the reading
    reaches it.
    """
    def fail(line, message, warned=()):
        return SchemaError, line, message, list(warned)

    reader = csv.reader(io.StringIO(text, newline=""))
    records, start, unreadable = [], 1, None
    try:
        for cells in reader:
            records.append((start, cells))
            start = reader.line_num + 1
    except csv.Error as exc:
        unreadable = fail(None, f"{path}: {exc}")
    if not records:
        return unreadable or fail(None, f"{path}: empty file")
    header = [h.strip() for h in records[0][1]]
    if len(header) < 2:
        return fail(None, f"{path}: no value columns (header: {header})")
    labels = header[1:]
    repeated = sorted({l for l in labels if labels.count(l) > 1})
    if repeated:
        return fail(None, f"{path}: duplicate column labels: "
                          f"{', '.join(repeated)}")
    if "" in labels:
        return fail(None, f"{path}: empty column label in header")
    for label in labels:
        if set(label) & set(',"\r\n'):
            return fail(None, f"{path}: column label {label!r} contains a "
                              "comma, quote or line break")
    for label in labels:
        if re.search("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", label):
            return fail(None, f"{path}: column label {label!r} contains a "
                              "character that XML 1.0 does not allow")

    table, bad_dates = {}, 0
    for line, row in records[1:]:
        date = naive_date(row[0]) if row else None
        if date is None:
            if any(c.strip() for c in row):
                bad_dates += 1
            continue
        cells = row[1:]
        if len(cells) > len(labels):
            return fail(line, f"{path}:{line}: {len(cells)} value cells but "
                              f"the header names {len(labels)} columns")
        values = []
        for label, cell in zip(labels, cells + [""] * len(labels)):
            if cell.isascii():
                cell = cell.strip()
            if not cell:
                values.append(None)
            elif cell.isascii() and CELL.fullmatch(cell):
                values.append(float(cell))
            else:
                return fail(line, f"{path}:{line}: column {label!r}: "
                                  f"non-numeric cell {cell!r}")
        table.setdefault(date, []).append(values)
    if unreadable:
        return unreadable
    warned = ([f"{path}: dropped {bad_dates} rows with unparseable dates"]
              if bad_dates else [])

    repeated = sorted(d for d, rows in table.items() if len(rows) > 1)
    if repeated:
        return fail(None, f"{path}: duplicate dates: "
                          + ", ".join(map(str, repeated)), warned)
    dates = sorted(table)
    rows = [table[d][0] for d in dates]
    for j, label in enumerate(labels):
        column = [row[j] for row in rows if row[j] is not None]
        if len(column) < 2:
            return fail(None, f"{path}: column {label!r} has {len(column)} "
                              "observations (< 2)", warned)
        if not all(map(math.isfinite, column)):
            return fail(None, f"{path}: column {label!r}: non-finite values",
                        warned)
    kept = [(d, row) for d, row in zip(dates, rows)
            if row.count(None) < len(row)]
    return (tuple(labels), [d for d, _ in kept],
            [[math.nan if v is None else v for v in row] for _, row in kept],
            warned)
