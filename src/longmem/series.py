"""Rate-panel data model: ingestion, alignment, increments and profiles.

Panel files are UTF-8, comma-separated text tables whose lines end in
``\\r\\n``, ``\\n`` or ``\\r``; a cell may be double-quoted by the rules of
the ``csv`` module.  The first column holds ISO ``YYYY-MM-DD`` dates under
any header name; every remaining column is one series, its header being
the series id.  Cells are decimal-point numerics in ASCII, without
``_``; an empty cell marks a missing observation.  Dates are calendar
labels only: all scale arithmetic elsewhere in the package counts
observations (trading days).

In memory a panel is one sorted ``datetime64[D]`` date index plus an
``(n_series, n_dates)`` float matrix holding NaN for missing cells; a
:class:`TimeSeries` is a light view of one row.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import LongmemError, SchemaError

__all__ = [
    "TimeSeries",
    "RatePanel",
    "Profile",
    "load_panel",
    "panel_to_csv",
    "align",
    "profile_from_values",
    "series_profile",
]

# Telescoping check on the profile's final element, relative to sum(|X|).
_PROFILE_TOL = 1e-9
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _readonly(values) -> np.ndarray:
    return _frozen(np.array(values, dtype=float))


# (hash, snapshot, read-only index) of the last exact-date sequence converted,
# replaced whole, so a concurrent reader sees one consistent entry
_last_days: tuple = (None, (), None)


def _as_days(dates, name: str = "panel dates") -> np.ndarray:
    """Read-only datetime64[D] copy of datetime.date objects or datetime64s.

    Dates other than a datetime64 array are read into a tuple snapshot.  One
    that hashes and compares equal to the last snapshot of exactly
    ``datetime.date`` objects converted gets that index itself, so members
    on one calendar share one array.  The hash keeps out ``np.datetime64``
    scalars, which compare equal to dates but are rejected; keeping only
    exact dates keeps out aware datetimes, equal across time zones on other
    local dates.  A sequence changed in place no longer matches its snapshot.
    """
    global _last_days
    if isinstance(dates, np.ndarray) and dates.dtype.kind == "M":
        return _frozen(dates.astype("datetime64[D]"))
    snap = tuple(dates)
    try:
        key = hash(snap)
    except TypeError:  # an unhashable item, which toordinal rejects below
        key = None
    else:
        last_key, last_snap, last = _last_days
        if key == last_key and snap == last_snap:
            return last
    try:
        ordinals = np.fromiter(map(dt.date.toordinal, snap), dtype=np.int64)
    except TypeError:  # name the first item that is not a date, if any
        bad = [i for i, d in enumerate(snap) if not isinstance(d, dt.date)]
        if not bad:
            raise
        kind = repr(type(snap[bad[0]]))[7:-1]  # 'list', 'numpy.datetime64'
        raise TypeError(f"{name} hold a {kind} object at position {bad[0]}, "
                        "not a datetime.date") from None
    days = _frozen((ordinals - _EPOCH_ORDINAL).astype("datetime64[D]"))
    if key is not None and set(map(type, snap)) == {dt.date}:
        _last_days = (key, snap, days)
    return days


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True entry of a 1-D mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _check_index(days: np.ndarray, name: str) -> None:
    """LongmemError naming ``name`` unless ``days`` strictly increase.

    NaT compares False with every date, so it is looked for on its own.
    """
    i = _first(np.isnat(days))
    if i is not None:
        raise LongmemError(f"{name} hold NaT at position {i}")
    i = _first(days[1:] <= days[:-1])
    if i is not None:
        raise LongmemError(f"{name} not strictly increasing at {days[i]}")


class TimeSeries:
    """One dated observation vector (rate levels, percent units).

    ``days`` holds the strictly increasing dates as ``datetime64[D]`` and
    ``values`` the matching observations; both are read-only.  Series
    built in turn on one list of ``datetime.date`` objects (one calendar)
    share one ``days`` array, which a panel built from them on that list
    takes as its index.  ``dates`` gives the same dates as ``datetime.date``
    objects.  ``_profiles`` keeps the profiles :func:`series_profile` built,
    keyed by input kind.
    """

    __slots__ = ("id", "days", "values", "_profiles")

    def __init__(self, id: str, dates, values):
        days = _as_days(dates, f"series {id!r}: dates")
        values = _readonly(values)
        if values.ndim != 1:
            raise LongmemError(f"series {id!r}: values must be 1-D")
        if len(days) != len(values):
            raise LongmemError(f"series {id!r}: {len(days)} dates vs "
                               f"{len(values)} values")
        if len(values) < 2:
            raise LongmemError(f"series {id!r}: length {len(values)} < 2")
        if not np.all(np.isfinite(values)):
            raise LongmemError(f"series {id!r}: non-finite values")
        _check_index(days, f"series {id!r}: dates")
        self._set(id, days, values)

    def _set(self, id, days, values) -> None:
        self.id, self.days, self.values = id, days, values
        self._profiles = {}

    @classmethod
    def _view(cls, id: str, days: np.ndarray, values: np.ndarray) -> "TimeSeries":
        """Wrap read-only arrays already known to satisfy the invariants."""
        ts = cls.__new__(cls)
        ts._set(id, days, values)
        return ts

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(self.days.tolist())

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"TimeSeries({self.id!r}, {len(self)} observations)"


class RatePanel:
    """Series on one sorted date index, stored as one float matrix.

    ``days`` is the ``datetime64[D]`` index and ``matrix`` the read-only
    ``(n_series, n_dates)`` array, NaN where a series has no observation.
    Built from :class:`TimeSeries` members, the index defaults to the union
    of their dates, and the panel keeps only the matrix it fills, not the
    members.  On every panel ``series`` and :meth:`member` give row views
    of ``matrix``, built once, holding only each series' observed cells: a
    row without gaps is a view of ``matrix`` on ``days`` itself, a row with
    gaps a copy of its observed cells and their dates.
    """

    __slots__ = ("ids", "days", "matrix", "_series")

    def __init__(self, series, date_index=()):
        series = tuple(series)
        if not series:
            raise LongmemError("panel has no series")
        if date_index is not None and len(date_index):
            days = _as_days(date_index)
        else:
            days = _frozen(np.unique(np.concatenate([s.days for s in series])))
        matrix = np.full((len(series), len(days)), np.nan)
        for i, s in enumerate(series):
            if s.days is days or np.array_equal(s.days, days):
                matrix[i] = s.values
                continue
            pos = np.minimum(np.searchsorted(days, s.days), len(days) - 1)
            if not np.array_equal(days[pos], s.days):
                _check_index(days, "panel dates")  # a bad index misplaces it
                raise LongmemError(f"series {s.id!r} has dates outside the "
                                   f"panel's date index")
            matrix[i, pos] = s.values
        self._set([s.id for s in series], days, matrix)

    @classmethod
    def from_matrix(cls, ids, dates, matrix) -> "RatePanel":
        """Panel from an ``(n_series, n_dates)`` array, NaN marking gaps.

        The panel keeps ``matrix`` (made read-only) rather than a copy.
        """
        panel = cls.__new__(cls)
        panel._set(ids, _as_days(dates), np.asarray(matrix, dtype=float))
        return panel

    def _set(self, ids, days, matrix) -> None:
        ids = tuple(ids)
        if not ids:
            raise LongmemError("panel has no series")
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise LongmemError(f"duplicate series ids: {', '.join(dupes)}")
        if matrix.shape != (len(ids), len(days)):
            raise LongmemError(f"matrix shape {matrix.shape} does not match "
                               f"{len(ids)} series x {len(days)} dates")
        _check_index(days, "panel dates")
        if np.isinf(matrix).any():
            raise LongmemError("panel has non-finite values")
        counts = (~np.isnan(matrix)).sum(axis=1)
        i = _first(counts < 2)
        if i is not None:
            raise LongmemError(f"series {ids[i]!r}: length {counts[i]} < 2")
        self.ids, self.days, self.matrix = ids, days, _frozen(matrix)
        self._series = None

    def _row(self, i: int) -> TimeSeries:
        row = self.matrix[i]
        seen = ~np.isnan(row)
        if seen.all():
            return TimeSeries._view(self.ids[i], self.days, row)
        return TimeSeries._view(self.ids[i], _frozen(self.days[seen]),
                                _frozen(row[seen]))

    @property
    def series(self) -> tuple[TimeSeries, ...]:
        if self._series is None:
            self._series = tuple(self._row(i) for i in range(len(self.ids)))
        return self._series

    @property
    def date_index(self) -> tuple[dt.date, ...]:
        return tuple(self.days.tolist())

    @property
    def is_aligned(self) -> bool:
        return not np.isnan(self.matrix).any()

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"RatePanel({len(self.ids)} series x {len(self.days)} dates)"

    def member(self, series_id: str) -> TimeSeries:
        try:
            return self.series[self.ids.index(series_id)]
        except ValueError:
            raise KeyError(f"no series {series_id!r} in panel") from None


@dataclass(frozen=True, eq=False)
class Profile:
    """Cumulative sum of mean-centered increments; telescopes to 0 (1e-9).

    ``_fluct`` keeps every F(s) computed on the profile, as
    ``{method: {s: F}}``, so a run computes each value once.
    """

    parent_id: str
    values: np.ndarray
    _fluct: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if len(self.values) < 2:
            raise LongmemError(f"{self.parent_id!r}: profile shorter than 2")
        if not np.isfinite(self.values).all():
            raise LongmemError(f"{self.parent_id!r}: profile is not finite "
                               "(the increments overflow)")
        tol = _PROFILE_TOL * max(np.sum(np.abs(np.diff(self.values))), 1.0)
        if abs(self.values[-1]) > tol:
            raise LongmemError(f"{self.parent_id!r}: profile does not telescope "
                               f"to 0 (final value {self.values[-1]:g})")

    def __len__(self) -> int:
        return len(self.values)


def _ascii_number(text: str, parse=float):
    """``parse(text)`` for ASCII text without ``_``; LongmemError otherwise.

    ``float()`` and ``int()`` also read other digits (``'\u0663'`` is 3)
    and digit separators (``'1_0'`` is 10).
    """
    if not text.isascii() or "_" in text:
        raise LongmemError(f"not an ASCII number: {text!r}")
    return parse(text)


def _iso_date(text: str) -> dt.date:
    """The date of ASCII ``YYYY-MM-DD`` text.

    Any other form raises a ValueError with the message of Python 3.10's
    ``date.fromisoformat``; later versions also read ``YYYYMMDD`` and
    ISO week dates.
    """
    if (len(text) != 10 or not text.isascii()
            or text[4] != "-" or text[7] != "-"):
        raise LongmemError(f"Invalid isoformat string: {text!r}")
    return dt.date.fromisoformat(text)


def _parse_cells(path, labels, lineno: int,
                 cells: list[str]) -> tuple[list[float], list[bool]]:
    """Values and blank flags of one row's cells, NaN where blank.

    ASCII cells are stripped of surrounding whitespace; cells go through
    ``_ascii_number``, and one that does not parse raises naming its line
    and column.
    """
    values, blank = [], []
    for label, raw in zip(labels, cells):
        if raw.isascii():  # str.strip would also drop U+2028, U+00A0, ...
            raw = raw.strip()
        blank.append(not raw)
        try:
            values.append(_ascii_number(raw) if raw else np.nan)
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: column {label!r}: "
                              f"non-numeric cell {raw!r}") from None
    return values, blank


# characters outside XML 1.0's Char production that a UTF-8 text can hold
# (line breaks have their own rule; tab is allowed)
_NOT_XML = frozenset(map(chr, [*range(9), 11, 12, *range(14, 32), 0xFFFE,
                               0xFFFF]))


def _numbered(reader):
    """``(line, cells)`` of each record of a ``csv.reader``, ``line`` being
    the line the record starts on: a quoted cell may span lines."""
    line = 1
    for cells in reader:
        yield line, cells
        line = reader.line_num + 1


def _records(fh):
    """``_plain_body``'s verdict on the text of the open file ``fh``, and
    ``(line, cells)`` of each record, the cells as ``csv.reader`` gives them:
    ``str.split`` cuts text holding no quote or NUL at ``\\r\\n``, ``\\r``
    and ``\\n`` into records and at commas into cells.  ``csv.reader`` reads
    other text, and text with a line long enough to hold a field past its
    limit, which it rejects, from UTF-8 bytes that take the text's place.
    """
    text = fh.read()
    plain = _plain_body(text)
    if '"' not in text and "\0" not in text:
        if "\r" in text:  # one replace at a time holds two texts, not three
            text = text.replace("\r\n", "\n")
            text = text.replace("\r", "\n")
        lines = text.split("\n")
        if not lines[-1]:  # a final line end starts no record
            lines.pop()
        if max(map(len, lines), default=0) <= csv.field_size_limit():
            return plain, enumerate(
                (line.split(",") if line else [] for line in lines), start=1)
        del lines
    return plain, _numbered(csv.reader(io.TextIOWrapper(
        io.BytesIO(text.encode()), "utf-8", newline="")))


def _plain_body(text: str) -> bool:
    """Whether the text after the header line is ASCII without ``_``, so
    that ``float()`` reads its cells as ``_ascii_number`` does.  Labels may
    be any text."""
    end = text.find("\n")
    if end < 0:  # a header line alone: no body follows
        end = len(text)
    cr = text.find("\r", 0, end)
    if cr >= 0:
        end = cr
    return (text.isascii() or text[end:].isascii()) and text.find("_", end) < 0


def _read_body(path, records, labels,
               plain: bool) -> tuple[list[dt.date], np.ndarray, np.ndarray]:
    """Dates, (n_rows, n_labels) values and blank mask, in file order.

    Cells go through ``float()`` if the body is ``plain``, else through
    ``_ascii_number``.
    """
    number = float if plain else _ascii_number
    width = len(labels)
    dates: list[dt.date] = []
    values = array("d")
    blank = bytearray()
    n_bad_dates = 0
    for lineno, row in records:
        try:
            d = _iso_date(row[0].strip())
        except (IndexError, ValueError):
            if any(c.strip() for c in row):  # a blank row is no bad date
                n_bad_dates += 1
            continue
        cells = row[1:]
        if len(cells) > width:
            raise SchemaError(f"{path}:{lineno}: {len(cells)} value cells "
                              f"but the header names {width} columns")
        cells += [""] * (width - len(cells))
        try:  # a whitespace-only or non-numeric cell goes to _parse_cells
            row_values = list(map(number, filter(None, cells)))
        except ValueError:
            row_values, row_blank = _parse_cells(path, labels, lineno, cells)
        else:
            row_blank = bytearray(width)
            j = -1
            for _ in range(width - len(row_values)):  # each empty cell
                j = cells.index("", j + 1)
                row_values.insert(j, np.nan)
                row_blank[j] = 1
        dates.append(d)
        values.fromlist(row_values)
        blank.extend(row_blank)
    if n_bad_dates:
        warnings.warn(f"{path}: dropped {n_bad_dates} rows with unparseable dates",
                      stacklevel=3)
    return (dates, np.frombuffer(values).reshape(-1, width),
            np.frombuffer(blank, dtype=bool).reshape(-1, width))


def load_panel(path) -> RatePanel:
    """Read a comma-separated panel file into a (possibly unaligned) RatePanel.

    Rows may come in any date order; they are sorted on read.  Each column
    becomes one series holding only the dates where it has a value; gaps
    are resolved later by :func:`align`.  Rows whose date cell is not an
    ASCII ``YYYY-MM-DD`` date are dropped with a warning; a row with fewer
    cells than the header is missing the rest.  ``path`` may be a pipe;
    whatever the quoting and line ends, ``_records`` holds the text once
    and frees it before the rows are parsed.

    Raises SchemaError for an unreadable file, missing value columns,
    duplicate column labels, a label holding a comma, quote or line break
    (outputs write ids unquoted) or a character XML 1.0 does not allow
    (GraphML writes ids as XML), a row with more cells than the header,
    duplicate dates, non-numeric or non-finite cells, or any column with
    fewer than two observations.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            plain, records = _records(fh)
            first = next(records, None)
            if first is None:
                raise SchemaError(f"{path}: empty file")
            header = [h.strip() for h in first[1]]
            if len(header) < 2:
                raise SchemaError(f"{path}: no value columns (header: {header})")
            labels = header[1:]
            if len(set(labels)) != len(labels):
                dupes = sorted({l for l in labels if labels.count(l) > 1})
                raise SchemaError(f"{path}: duplicate column labels: "
                                  f"{', '.join(dupes)}")
            if any(not l for l in labels):
                raise SchemaError(f"{path}: empty column label in header")
            bad = next((l for l in labels if any(c in l for c in ',"\r\n')), None)
            if bad is not None:
                raise SchemaError(f"{path}: column label {bad!r} contains a "
                                  "comma, quote or line break")
            bad = next((l for l in labels if not _NOT_XML.isdisjoint(l)), None)
            if bad is not None:  # GraphML writes ids as XML text
                raise SchemaError(f"{path}: column label {bad!r} contains a "
                                  "character that XML 1.0 does not allow")
            dates, values, blank = _read_body(path, records, labels, plain)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc

    days = _as_days(dates)
    order = np.argsort(days, kind="stable")
    days, values, blank = days[order], values[order], blank[order]
    dupes = days[1:][days[1:] == days[:-1]]
    if dupes.size:
        raise SchemaError(f"{path}: duplicate dates: "
                          + ", ".join(str(d) for d in np.unique(dupes)))

    counts = (~blank).sum(axis=0)
    non_finite = (~np.isfinite(values) & ~blank).any(axis=0)
    j = _first((counts < 2) | non_finite)
    if j is not None:
        if counts[j] < 2:
            raise SchemaError(f"{path}: column {labels[j]!r} has "
                              f"{counts[j]} observations (< 2)")
        raise SchemaError(f"{path}: column {labels[j]!r}: non-finite values")
    used = ~blank.all(axis=1)  # a date with no value in any column
    return RatePanel.from_matrix(labels, days[used],
                                 np.ascontiguousarray(values[used].T))


def panel_to_csv(panel: RatePanel) -> str:
    """Serialize a panel in the same schema :func:`load_panel` reads.

    Values print in shortest round-trip form, missing cells stay empty, so
    write-then-read reproduces the panel exactly.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["date", *panel.ids])
    for day, column in zip(panel.days.astype(str).tolist(), panel.matrix.T):
        cells = ["" if v != v else repr(v) for v in column.tolist()]
        buf.write(day + "," + ",".join(cells) + "\n")
    return buf.getvalue()


def _forward_fill(panel: RatePanel, max_gap: int) -> np.ndarray:
    """Panel matrix with runs of <= max_gap missing dates filled.

    A run counts missing dates of the panel's index and is filled from the
    last observation before it.  A fillable run at a series start has no
    prior value and raises; longer runs (including a long leading run) are
    left missing and fall to the subsequent intersection.
    """
    m = panel.matrix
    missing = np.isnan(m)
    n = m.shape[1]
    cols = np.arange(n)
    last = np.maximum.accumulate(np.where(missing, -1, cols), axis=1)
    after = np.minimum.accumulate(np.where(missing, n, cols)[:, ::-1],
                                  axis=1)[:, ::-1]
    short = missing & (after - last - 1 <= max_gap)
    i = _first((short & (last < 0)).any(axis=1))
    if i is not None:
        raise LongmemError(
            f"series {panel.ids[i]!r}: gap of {after[i, 0]} at series start "
            f"cannot be forward-filled (no prior value)")
    prior = np.take_along_axis(m, np.maximum(last, 0), axis=1)
    return np.where(short & (last >= 0), prior, m)


def align(panel: RatePanel, policy: str = "intersect",
          max_gap: int | None = None) -> RatePanel:
    """Bring every panel member onto one shared date index.

    ``intersect`` keeps only dates where every series has a value; it
    never fabricates data and is the default.  ``forward_fill`` first fills
    missing runs of length <= max_gap from the last observation, then
    intersects.  ``max_gap`` belongs to ``forward_fill`` alone; passing it
    with ``intersect`` is a LongmemError rather than silently ignored.
    """
    if policy not in ("intersect", "forward_fill"):
        raise LongmemError(f"unknown alignment policy {policy!r}")
    matrix = panel.matrix
    if policy == "forward_fill":
        if max_gap is None or max_gap < 1:
            raise LongmemError("forward_fill requires max_gap >= 1")
        matrix = _forward_fill(panel, max_gap)
    elif max_gap is not None:
        raise LongmemError(f"max_gap={max_gap} applies only to forward_fill, "
                           f"not {policy!r}")

    shared = ~np.isnan(matrix).any(axis=0)
    n_shared = int(shared.sum())
    if n_shared < 2:
        raise LongmemError(f"aligned panel would have {n_shared} shared "
                           f"dates (< 2)")
    return RatePanel.from_matrix(panel.ids, panel.days[shared], matrix[:, shared])


def profile_from_values(values, parent_id: str) -> Profile:
    """Profile of a raw (possibly signed) increment vector.

    This is the entry point for validation data whose values already are
    increments, e.g. synthetic noise panels.  A NaN or infinite increment
    is a LongmemError.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise LongmemError(f"{parent_id!r}: need a 1-D increment vector of "
                           f"length >= 2")
    if not np.isfinite(x).all():
        raise LongmemError(f"{parent_id!r}: non-finite increments")
    # Increments whose sum overflows give a non-finite profile, which
    # Profile rejects; numpy's own overflow warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean()
        # Second pass removes the rounding residual of the first; without it
        # a long constant series at large magnitude fails the telescoping
        # check.
        centered -= centered.mean()
        values = np.cumsum(centered)
    return Profile(parent_id, values)


def series_profile(series: TimeSeries, input_kind: str = "levels") -> Profile:
    """Profile of a series under the chosen input interpretation.

    ``levels`` (default) first takes the absolute one-step changes
    X(i) = |R(i+1) - R(i)|; ``increments`` treats the stored values as
    the increment series itself.  The profile is built once per series and
    kind and kept on the series (both are read-only); a failed build is not
    kept, so it raises again on the next call.
    """
    prof = series._profiles.get(input_kind)
    if prof is not None:
        return prof
    if input_kind == "levels":
        with np.errstate(over="ignore"):  # profile_from_values rejects inf
            changes = np.abs(np.diff(series.values))
        prof = profile_from_values(changes, series.id)
    elif input_kind == "increments":
        prof = profile_from_values(series.values, series.id)
    else:
        raise LongmemError(f"unknown input_kind {input_kind!r}")
    series._profiles[input_kind] = prof
    return prof


def _profile_length(panel: RatePanel, input_kind: str) -> int:
    """Length of the profiles ``series_profile`` builds on an aligned panel."""
    return len(panel.days) - (1 if input_kind == "levels" else 0)
