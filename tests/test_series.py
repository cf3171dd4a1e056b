import csv
import datetime as dt
import os
import re
import tempfile
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem.errors import LongmemError, SchemaError
from longmem.synthetic import BlockSpec, generate_blocks, trading_dates
from longmem.series import (
    Profile,
    RatePanel,
    TimeSeries,
    align,
    load_panel,
    panel_to_csv,
    profile_from_values,
    series_profile,
)

from conftest import make_panel, make_series, rule_tests, traced_peak
from reference import naive_forward_fill, naive_load


class TestTimeSeries:
    def test_values_read_only(self):
        ts = make_series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_datetime64_dates_accepted(self):
        ts = make_series([1.0, 2.0, 3.0])
        same = TimeSeries("y", ts.days, ts.values)
        assert same.dates == ts.dates
        assert same.days.dtype == np.dtype("datetime64[D]")
        assert not same.days.flags.writeable


class TestLoadPanel:
    def test_complete_file(self, csv_panel):
        panel = load_panel(csv_panel)
        assert panel.ids == ("aaa", "bbb")
        assert all(len(s) == 5 for s in panel.series)
        assert panel.is_aligned

    def test_missing_cells_become_gaps(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("date,a,b\n2020-01-01,1,\n2020-01-02,2,5\n2020-01-03,3,6\n")
        panel = load_panel(p)
        assert len(panel.member("a")) == 3
        assert len(panel.member("b")) == 2
        assert not panel.is_aligned

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_panel(tmp_path / "nope.csv")

    # 3.11's date.fromisoformat reads the last two; dates are YYYY-MM-DD
    @pytest.mark.parametrize("date", ["not-a-date", "20200102", "2020-W01-4"])
    def test_unparseable_date_rows_dropped(self, tmp_path, date):
        p = tmp_path / "w.csv"
        p.write_text(f"date,a\n2020-01-01,1\n{date},9\n2020-01-03,3\n")
        with pytest.warns(UserWarning, match="unparseable dates"):
            panel = load_panel(p)
        assert len(panel.member("a")) == 2

    def test_shorter_row_reads_as_missing(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3\n"
                     "2020-01-03,5,6\n")
        panel = load_panel(p)
        assert list(panel.member("a").values) == [1.0, 3.0, 5.0]
        assert list(panel.member("b").values) == [2.0, 6.0]
        assert np.isnan(panel.matrix[1, 1])

    def test_rows_sorted_on_read(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("date,a\n2020-01-03,3\n2020-01-01,1\n2020-01-02,2\n")
        panel = load_panel(p)
        assert panel.date_index == (dt.date(2020, 1, 1), dt.date(2020, 1, 2),
                                    dt.date(2020, 1, 3))
        assert list(panel.member("a").values) == [1.0, 2.0, 3.0]

    def test_blank_and_padded_cells(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("date,a,b\n2020-01-01, 1 ,  \n2020-01-02,2,5\n"
                     "2020-01-03,3,6\n")
        panel = load_panel(p)
        assert list(panel.member("a").values) == [1.0, 2.0, 3.0]
        assert len(panel.member("b")) == 2

    def test_date_without_values_is_not_indexed(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("date,a\n2020-01-01,1\n2020-01-02,\n2020-01-03,3\n")
        panel = load_panel(p)
        assert len(panel.date_index) == 2
        assert panel.is_aligned

    def test_round_trip(self, csv_panel):
        panel = load_panel(csv_panel)
        text = panel_to_csv(panel)
        back_path = csv_panel.parent / "back.csv"
        back_path.write_text(text)
        back = load_panel(back_path)
        assert back.ids == panel.ids
        for a, b in zip(panel.series, back.series):
            assert a.dates == b.dates
            assert np.array_equal(a.values, b.values)


    def test_gappy_round_trip(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("date,a,b,c\n2020-01-01,1.5,,0.1\n2020-01-02,,2.25,\n"
                     "2020-01-03,-3e-09,4.0,0.3\n2020-01-06,7.0,,1e+22\n")
        panel = load_panel(p)
        text = panel_to_csv(panel)
        assert text == p.read_text()
        back_path = tmp_path / "back.csv"
        back_path.write_text(text)
        back = load_panel(back_path)
        assert back.ids == panel.ids
        assert back.date_index == panel.date_index
        for a, b in zip(panel.series, back.series):
            assert a.dates == b.dates
            assert np.array_equal(a.values, b.values)


def read_outcome(path):
    """What load_panel makes of a file: the panel's ids, days and matrix
    bits, or the exception; plus the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            panel = load_panel(path)
            got = (panel.ids, panel.days.tobytes(), panel.matrix.tobytes())
        except Exception as exc:
            got = (type(exc).__name__, str(exc))
    return got, [str(w.message) for w in caught]


DATES = [f"2020-01-{d:02d}" for d in range(1, 11)]
CELLS = st.one_of(st.sampled_from(["", " ", " 2.5 "]),
                  st.floats(allow_nan=False, allow_infinity=False).map(repr))
BAD_CELLS = st.sampled_from(["nan", "inf", "x", "1\x0b", "2\x0c", "\x85",
                             "3\u2028", "1e3", "-0"])
BAD_DATES = st.sampled_from(["", " ", "2020-13-01", "x", " 2020-01-02 ",
                             "2020-01-01"])


# past the reader's limit for one field, and at it (1e131071 and 1.0)
LIMIT = csv.field_size_limit()
LONG_CELLS = ["x" * (LIMIT + 1), "1" + "0" * (LIMIT - 1), "0" * (LIMIT - 1) + "1"]
WIDE_CELLS = st.one_of(BAD_CELLS, st.sampled_from([
    '"1.5"', '" 2 "', '""', '"1,5"', '"3\n4"', '"a""b"', "1_0", "\u0663",
    "\u0661.5", "\uff11", "1\x00", "\x00", "\ufeff1", "1e999", "-nan",
    "+Infinity", ".5", "5.", "1E+5", ".", "0x1", "1\u2028", *LONG_CELLS]))
WIDE_DATES = st.one_of(BAD_DATES, st.sampled_from([
    '"2020-01-03"', "\ufeff2020-01-01", "2020-01-0\u0663", "20200102",
    "2020-W01-4", "0000-01-01", "2020-02-30", "\u20282020-01-04", '"x\ny"']))
LABELS = st.sampled_from(["a", "b", "c", "\u00e9", "a_b", "\u0663", '"d"',
                          '" e "', "f\x00"])
BAD_LABELS = st.sampled_from(['"f,g"', '"h""i"', '"j\nk"', '""', " ", "a"])


@st.composite
def panel_texts(draw, wide=False):
    """Unquoted panel text on unordered dates with blank and padded cells
    and mixed line ends; about one row in four is a blank line, has a bad
    or repeated date, is short or long, or holds an odd cell.

    ``wide`` text may also start with a BOM and hold quoted labels, dates
    and cells, NUL, ``_``, non-ASCII digits and fields at or past the
    reader's limit; about one label in ten is one the reader rejects."""
    width = draw(st.integers(1, 3))
    labels = list("abc"[:width])
    if wide:
        labels = draw(st.lists(LABELS, min_size=width, max_size=width,
                               unique=True))
        if draw(st.integers(0, 9)) == 0:
            labels[-1] = draw(BAD_LABELS)
    lines = [",".join(["date", *labels])]
    for date in draw(st.permutations(DATES))[:draw(st.integers(0, len(DATES)))]:
        rare = draw(st.integers(0, 19))
        if rare == 0:
            lines.append(draw(st.sampled_from(["", " ", ", ,"])))
            continue
        if rare == 1:
            date = draw(WIDE_DATES if wide else BAD_DATES)
        n = {2: width - 1, 3: width + 1}.get(rare, width)
        odd = WIDE_CELLS if wide else BAD_CELLS
        cells = draw(st.lists(odd if rare == 4 else CELLS,
                              min_size=n, max_size=n))
        lines.append(",".join([date, *cells]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    bom = "\ufeff" if wide and draw(st.booleans()) else ""
    return bom + "".join(line + end for line, end in zip(lines, ends))


class TestReaderPaths:
    """Unquoted text is split with ``str.split``; quoted text goes through
    ``csv.reader``.  Both must read a file the same way, whatever its line
    ends."""

    @given(panel_texts())
    def test_split_and_csv_reader_agree(self, text):
        assert '"' not in text
        lf = text.replace("\r\n", "\n").replace("\r", "\n")
        readings = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            for body in (text, lf.replace("\n", "\r\n"), lf.replace("\n", "\r")):
                # a quoted header cell sends the whole file through csv.reader
                for header in ("date", '"date"'):
                    path.write_bytes((header + body[len("date"):]).encode())
                    readings.append(read_outcome(path))
        assert readings == readings[:1] * 6

    def test_line_ends(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_bytes(b"date,a\r\n2020-01-01,1\r2020-01-02,2\n\r\n2020-01-03,3")
        panel = load_panel(p)
        assert list(panel.member("a").values) == [1.0, 2.0, 3.0]

    def test_text_is_freed_before_the_body_is_read(self, tmp_path):
        # the 1.8 MB text is alive beside its lines, or its UTF-8 bytes,
        # only while it is split or encoded; a reader that keeps the text
        # while it reads the body peaks at about 2.56 times its length, a
        # StringIO feed at 5 and a CRLF text kept beside its LF copy at 3.05
        text = panel_to_csv(generate_blocks(BlockSpec(6, 10, 0.5, 0.7, 1500,
                                                      seed=1)))
        quoted = '"date"' + text[len("date"):]
        path = tmp_path / "p.csv"
        ratios = {}
        for name, body in (("plain", text), ("quoted", quoted)):
            for end in ("\n", "\r\n", "\r"):
                variant = body.replace("\n", end)
                path.write_text(variant, newline="")
                peak = traced_peak(lambda: load_panel(path))
                ratios[name, repr(end)] = peak / len(variant)
        assert max(ratios.values()) < 2.3, ratios

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_pipe_reads_as_a_file(self, tmp_path, monkeypatch):
        # a quoted CRLF panel goes through csv.reader, which must not need
        # to seek back in the file
        data = ('"date",a,b\r\n2020-01-02,1.5,\r\n2020-01-01,2,3\r\n'
                "x,1,1\r\n2020-01-03,-0.25,4e-3\r\n").encode()
        (tmp_path / "file").mkdir()
        (tmp_path / "file" / "p.csv").write_bytes(data)
        (tmp_path / "pipe").mkdir()
        fifo = tmp_path / "pipe" / "p.csv"
        os.mkfifo(fifo)

        opened = threading.Event()

        def write():
            with open(fifo, "wb") as fh:
                opened.set()
                fh.write(data)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        monkeypatch.chdir(fifo.parent)  # both readings name p.csv
        try:
            got = read_outcome("p.csv")
        finally:
            # a writer still closing its end is alive but needs no reader
            if not opened.is_set():  # load_panel never opened the pipe
                open(fifo, "rb").close()
            writer.join(timeout=10)
        assert not writer.is_alive()
        monkeypatch.chdir(tmp_path / "file")
        assert got == read_outcome("p.csv")
        assert got[0][0] == ("a", "b")


def reader_outcome(text):
    """load_panel's reading of ``text`` in naive_load's terms."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                panel = load_panel(path)
            except Exception as exc:
                line = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
                got = (type(exc), line and int(line[1]), str(exc))
            else:
                got = (panel.ids, list(panel.date_index), panel.matrix.T)
        return got, [str(w.message) for w in caught], naive_load(text, str(path))


class TestReaderOracle:
    """load_panel reads every file as README's grammar does."""

    @settings(max_examples=150)
    @given(panel_texts(wide=True))
    # a column of two cells, one non-finite; a multi-line quoted cell; a
    # line exactly at the field limit; blank header lines
    @example("date,a,b\n2020-01-01,1,nan\n2020-01-02,2,5\n")
    @example('date,a\nx,"1\n2"\n2020-01-01,zz\n')
    @example("date,a\n2020-01-01," + "0" * (LIMIT - 12) + "1\n2020-01-02,2\n")
    @example("\ndate,a\n2020-01-01,\u0663\n")
    @example("\rdate,a_b\r2020-01-01,1\r")
    def test_load_panel_agrees_with_naive_load(self, text):
        got, warned, expected = reader_outcome(text)
        if isinstance(got[0], type):
            assert (*got, warned) == expected
        else:
            ids, dates, rows, naive_warned = expected
            assert (got[:2], warned) == ((ids, dates), naive_warned)
            assert got[2].tobytes() == np.array(rows, dtype=float).tobytes()


class TestAlign:
    def test_intersect_shared_dates(self):
        a = make_series(np.arange(10.0), "a", start=dt.date(2020, 1, 1))
        b = make_series(np.arange(10.0), "b",
                        start=a.dates[2])  # starts 2 trading days later
        panel = RatePanel((a, b))
        out = align(panel)
        assert out.is_aligned
        assert out.date_index == a.dates[2:10]

    def test_intersect_is_exact_set_intersection(self):
        a = make_series(np.arange(8.0), "a")
        b_dates = a.dates[1::2]
        b = TimeSeries("b", b_dates, np.arange(len(b_dates), dtype=float))
        out = align(RatePanel((a, b)))
        assert set(out.date_index) == set(a.dates) & set(b_dates)

    def test_forward_fill_interior_gap(self):
        full = make_series(np.arange(6.0), "full")
        holey_dates = full.dates[:2] + full.dates[3:]
        holey = TimeSeries("holey", holey_dates, [0.0, 1.0, 3.0, 4.0, 5.0])
        out = align(RatePanel((full, holey)), policy="forward_fill", max_gap=1)
        assert out.is_aligned
        assert len(out.date_index) == 6
        filled = out.member("holey").values
        assert filled[2] == 1.0  # carried from the prior observation

    def test_forward_fill_gap_longer_than_max(self):
        full = make_series(np.arange(8.0), "full")
        holey_dates = full.dates[:2] + full.dates[5:]
        holey = TimeSeries("holey", holey_dates, [0.0, 1.0, 5.0, 6.0, 7.0])
        out = align(RatePanel((full, holey)), policy="forward_fill", max_gap=2)
        # 3-wide run stays missing, so those dates drop out at intersection
        assert len(out.date_index) == 5

    def test_forward_fill_trailing_run(self):
        full = make_series(np.arange(6.0), "full")
        short = TimeSeries("short", full.dates[:4], [0.0, 1.0, 2.0, 3.0])
        out = align(RatePanel((full, short)), policy="forward_fill", max_gap=2)
        assert out.date_index == full.dates
        assert list(out.member("short").values) == [0.0, 1.0, 2.0, 3.0, 3.0, 3.0]

    @given(st.data())
    def test_forward_fill_matches_loop_oracle(self, data):
        n_dates = data.draw(st.integers(4, 30))
        max_gap = data.draw(st.integers(1, 4))
        observed_head = data.draw(st.booleans())
        index = trading_dates(n_dates)
        members = []
        for k in range(data.draw(st.integers(1, 4))):
            seen = data.draw(st.lists(st.sampled_from([True, True, False]),
                                      min_size=n_dates, max_size=n_dates))
            seen[0] = seen[0] or observed_head
            if sum(seen) < 2:
                seen[-2:] = [True, True]
            dates = [d for d, s in zip(index, seen) if s]
            values = [100.0 * k + i for i, s in enumerate(seen) if s]
            members.append(TimeSeries(f"s{k}", dates, values))
        panel = RatePanel(members, index)

        try:
            filled = [naive_forward_fill(ts.id, ts.dates, ts.values, index,
                                         max_gap) for ts in members]
        except LongmemError as exc:
            with pytest.raises(LongmemError, match=re.escape(str(exc))):
                align(panel, policy="forward_fill", max_gap=max_gap)
            return
        shared = sorted(set.intersection(*(set(d) for d, _ in filled)))
        if len(shared) < 2:
            with pytest.raises(LongmemError, match="shared dates"):
                align(panel, policy="forward_fill", max_gap=max_gap)
            return
        out = align(panel, policy="forward_fill", max_gap=max_gap)
        assert out.date_index == tuple(shared)
        for ts, (dates, values) in zip(out.series, filled):
            by_date = dict(zip(dates, values))
            assert list(ts.values) == [by_date[d] for d in shared]


def assert_levels_profile(levels, abs_changes):
    """series_profile of levels equals the profile of hand-computed |dR|."""
    got = series_profile(make_series(levels))
    want = profile_from_values(abs_changes, "x")
    assert np.array_equal(got.values, want.values)


class TestIncrementsAndProfile:
    def test_increments_basic(self):
        assert_levels_profile([2, 3, 5], [1.0, 2.0])

    def test_increments_constant(self):
        assert_levels_profile([4, 4, 4, 4], [0.0, 0.0, 0.0])

    def test_increments_absolute(self):
        assert_levels_profile([1.0, 0.5, 1.5], [0.5, 1.0])

    def test_series_profile_kinds(self):
        ts = make_series([1.0, 3.0, 2.0, 5.0])
        via_levels = series_profile(ts)  # default: absolute changes first
        assert np.allclose(via_levels.values,
                           profile_from_values([2.0, 1.0, 3.0], "x").values)
        via_incr = series_profile(ts, input_kind="increments")
        assert np.allclose(via_incr.values,
                           np.cumsum(ts.values - ts.values.mean()))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_profile_telescopes_to_zero(self, xs):
        prof = profile_from_values(xs, "h")
        variation = float(np.sum(np.abs(np.diff(prof.values))))
        assert abs(prof.values[-1]) <= 1e-9 * max(variation, 1.0)


class TestProfileMemo:
    """series_profile builds a series' profile once per input kind."""

    def test_same_object_on_repeat(self):
        ts = make_series([1.0, 3.0, 2.0, 5.0])
        first = series_profile(ts, input_kind="increments")
        assert series_profile(ts, input_kind="increments") is first
        assert series_profile(ts) is series_profile(ts, input_kind="levels")

    def test_one_profile_per_kind(self):
        ts = make_series([1.0, 3.0, 2.0, 5.0])
        levels = series_profile(ts, input_kind="levels")
        increments = series_profile(ts, input_kind="increments")
        assert levels is not increments
        assert np.array_equal(levels.values,
                              profile_from_values([2.0, 1.0, 3.0], "x").values)
        assert np.array_equal(increments.values,
                              profile_from_values(ts.values, "x").values)

    def test_kept_profile_is_read_only(self):
        prof = series_profile(make_series([1.0, 3.0, 2.0, 5.0]))
        with pytest.raises(ValueError):
            prof.values[0] = 1.0

    def test_failures_are_not_kept(self):
        short = make_series([1.0, 2.0])  # one level change: too short
        for _ in range(2):
            with pytest.raises(ValueError, match="length >= 2"):
                series_profile(short, input_kind="levels")
            with pytest.raises(ValueError, match="input_kind"):
                series_profile(short, input_kind="returns")
        assert len(series_profile(short, input_kind="increments")) == 2

    def test_panel_members_keep_their_profiles(self):
        panel = make_panel({"a": [1.0, 2.0, 4.0], "b": [3.0, 1.0, 2.0]})
        first = [series_profile(ts) for ts in panel.series]
        again = [series_profile(panel.member(i)) for i in panel.ids]
        assert all(p is q for p, q in zip(first, again))


class TestRatePanel:
    def test_from_matrix_views(self):
        days = np.array(["2020-01-01", "2020-01-02", "2020-01-03"],
                        dtype="datetime64[D]")
        panel = RatePanel.from_matrix(["a", "b"], days,
                                      [[1.0, 2.0, 3.0], [4.0, np.nan, 6.0]])
        assert not panel.is_aligned
        assert list(panel.member("b").values) == [4.0, 6.0]
        assert panel.member("b").dates == (dt.date(2020, 1, 1),
                                           dt.date(2020, 1, 3))
        assert not panel.member("a").values.flags.writeable
        # a fully observed row is a view: its dates are the panel's own array
        assert panel.member("a").days is panel.days
        with pytest.raises(ValueError):
            panel.matrix[0, 0] = 9.0

    def test_built_panel_hands_out_row_views(self):
        a, b = make_series([1.0, 2.0, 4.0], "a"), make_series([3.0, 1.0, 2.0], "b")
        panel = RatePanel((a, b))
        for i in panel.ids:
            member = panel.member(i)
            assert np.shares_memory(member.values, panel.matrix)
            assert member.days is panel.days
        assert panel.member("a") is not a
        assert panel.series == tuple(map(panel.member, panel.ids))

    def test_members_from_any_iterable(self):
        panel = RatePanel(s for s in (A, B))
        assert panel.ids == ("a", "b")
        assert panel.matrix.tolist() == [[1.0, 2.0], [1.0, 2.0]]

    def test_member_lookup(self):
        panel = make_panel({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert panel.member("b").id == "b"
        with pytest.raises(KeyError):
            panel.member("zz")


def weekday_list(start: str, n: int) -> list[dt.date]:
    return np.busday_offset(np.datetime64(start, "D"), np.arange(n)).tolist()


class TestSharedCalendar:
    """Members on one date list share one index, converted once."""

    def test_panel_on_one_list_converts_it_once(self, monkeypatch):
        dates = weekday_list("1990-01-01", 64)  # a calendar no other test uses
        calls = Counter()

        def counting(name):
            original = getattr(np, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(np, name, call)

        counting("fromiter")  # one per conversion
        counting("searchsorted")  # one per member placed off the index itself
        members = [TimeSeries(f"m{i:02d}", dates, np.arange(64.0) + i)
                   for i in range(32)]
        panel = RatePanel(members, tuple(dates))
        assert calls == {"fromiter": 1}
        assert all(m.days is panel.days for m in members)
        assert panel.date_index == tuple(dates)

    def test_list_changed_in_place_is_converted_again(self):
        dates = weekday_list("1991-01-01", 4)
        first = TimeSeries("a", dates, [1, 2, 3, 4]).days
        dates[-1] += dt.timedelta(days=7)
        second = TimeSeries("a", dates, [1, 2, 3, 4]).days
        assert first[-1] == np.datetime64("1991-01-04")
        assert second[-1] == np.datetime64("1991-01-11")
        fresh = [dt.date(d.year, d.month, d.day) for d in dates]
        assert np.array_equal(TimeSeries("b", fresh, [1, 2, 3, 4]).days, second)

    def test_datetime64_scalars_stay_rejected(self):
        dates = weekday_list("1992-01-01", 3)
        TimeSeries("a", dates, [1, 2, 3])
        scalars = [np.datetime64(d, "D") for d in dates]
        assert scalars == dates  # equal, but toordinal takes no datetime64
        with pytest.raises(TypeError, match="'numpy.datetime64' object"):
            TimeSeries("b", scalars, [1, 2, 3])

    def test_unhashable_items_convert_or_fail_as_before(self):
        class Day(dt.date):
            __hash__ = None

        days = TimeSeries("a", [Day(1994, 1, 3), Day(1994, 1, 4)], [1, 2]).days
        assert days.astype(str).tolist() == ["1994-01-03", "1994-01-04"]
        with pytest.raises(TypeError, match="'b': dates hold a 'list' object at "
                                            "position 0, not a datetime.date"):
            TimeSeries("b", [[1], [2]], [1, 2])

    def test_a_non_date_in_a_panel_index_is_named(self):
        dates = weekday_list("1992-01-01", 3)
        member = TimeSeries("a", dates, [1, 2, 3])
        with pytest.raises(TypeError, match="^panel dates hold a 'str' object "
                                            "at position 1, not a datetime.date$"):
            RatePanel((member,), [dates[0], "1992-01-02", dates[2]])

    def test_aware_datetimes_give_their_local_dates(self):
        utc = [dt.datetime(1993, 1, d, 23, tzinfo=dt.timezone.utc)
               for d in (4, 5, 6)]
        east = [t.astimezone(dt.timezone(dt.timedelta(hours=2))) for t in utc]
        assert east == utc  # the same instants, a day later on the clock
        days = [TimeSeries(i, ts, [1, 2, 3]).days.astype(str).tolist()
                for i, ts in (("utc", utc), ("east", east))]
        assert days == [["1993-01-04", "1993-01-05", "1993-01-06"],
                        ["1993-01-05", "1993-01-06", "1993-01-07"]]


def reading(text):
    """A call that writes ``text`` to p.csv and loads it."""
    def call():
        Path("p.csv").write_text(text, encoding="utf-8")
        return load_panel("p.csv")
    return call


def warned_at(call):
    """The name of the file that a warning of ``call`` points at."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return Path(caught[0].filename).name


def from_matrix(ids, dates, matrix):
    days = np.array(dates, dtype="datetime64[D]")
    return lambda: RatePanel.from_matrix(ids, days, matrix)


A, B = make_series([1.0, 2.0], "a"), make_series([1.0, 2.0], "b")
AB, B2021 = RatePanel((A, B)), make_series([1, 2], "b", dt.date(2021, 1, 1))
FULL = make_series(np.arange(5.0), "full")
LATE = TimeSeries("late", FULL.dates[1:], [1, 2, 3, 4])
TWO_DAYS = ["2020-01-01", "2020-01-02"]
BAD_DATE_ROW = "date,a\nx,1\n2020-01-01,1\n2020-01-02,2\n"
NO_WARNINGS = pytest.mark.filterwarnings("error")  # the ValueError alone


def with_nat(i: int) -> np.ndarray:
    """Three datetime64 dates, the one at position ``i`` NaT."""
    days = np.array(["2000-01-03", "2000-01-04", "2000-01-05"], "M8[D]")
    days[i] = np.datetime64("NaT")
    return days

RULES = {
    "TestLoadPanel": [
        ("test_duplicate_date",
         reading("date,a\n2020-01-01,1\n2020-01-01,2\n2020-01-03,3\n"), SchemaError,
         "p.csv: duplicate dates: 2020-01-01"),
        ("test_duplicate_label", reading("date,a,a\n2020-01-01,1,2\n2020-01-02,3,4\n"),
         SchemaError, "p.csv: duplicate column labels: a"),
        ("test_duplicate_label_beside_a_unique_one",
         reading("date,a,a,b\n2020-01-01,1,2,3\n2020-01-02,3,4,5\n"), SchemaError,
         "p.csv: duplicate column labels: a"),
        # a quoted header cell may hold any of these; outputs write ids
        # unquoted, so such a label would shift every cell after it
        *[(f"test_label_with_csv_metacharacter[{c}]",
           reading(f'date,"x{c.replace(chr(34), 2 * chr(34))}y",b\n2020-01-01,1,2\n'
                   "2020-01-02,3,4\n"), SchemaError,
           f"p.csv: column label {'x' + c + 'y'!r} contains a comma, quote or line "
           "break")
          for c in (",", '"', "\n")],
        # GraphML writes ids as XML text, which cannot hold these; a tab it can
        *[(f"test_label_with_a_character_xml_forbids[{c}]",
           reading(f"date,a,x{c}y\n2020-01-01,1,2\n2020-01-02,3,4\n"), SchemaError,
           f"p.csv: column label {'x' + c + 'y'!r} contains a character that "
           "XML 1.0 does not allow")
          for c in ("\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ufffe", "\uffff")],
        ("test_label_may_hold_a_tab",
         lambda: reading("date,a,x\ty\n2020-01-01,1,2\n2020-01-02,3,4\n")().ids,
         None, ("a", "x\ty")),
        ("test_empty_file", reading(""), SchemaError, "p.csv: empty file"),
        ("test_empty_header_label",
         reading("date,a, \n2020-01-01,1,2\n2020-01-02,3,4\n"), SchemaError,
         "p.csv: empty column label in header"),
        ("test_single_row_column", reading("date,a\n2020-01-01,1\n"),
         SchemaError, "p.csv: column 'a' has 1 observations (< 2)"),
        # float() reads 1_0 as 10, \u0663 as 3 and 3\u2028 as 3; cells are ASCII
        # decimals, also after a header line that ends in a lone \r
        *[(name, reading(f"date,a{end}2020-01-01,1{end}2020-01-02,{cell}{end}"),
           SchemaError, f"p.csv:3: column 'a': non-numeric cell {cell!r}")
          for name, cell, end in [
              ("test_non_numeric_cell", "oops", "\n"),
              ("test_non_ascii_decimal_cell[1_0]", "1_0", "\r"),
              ("test_non_ascii_decimal_cell[\u0663]", "\u0663", "\n"),
              ("test_non_ascii_decimal_cell[3\u2028]", "3\u2028", "\n")]],
        ("test_longer_row_is_error", reading("date,a,b\n2020-01-02,1,2\n"
                                             "2020-01-01,1,2,99\n2020-01-03,3,4\n"),
         SchemaError, "p.csv:3: 3 value cells but the header names 2 columns"),
        # the suite turns warnings into errors; the warning names the
        # caller of load_panel
        ("test_dropped_rows_warning", reading(BAD_DATE_ROW), UserWarning,
         "p.csv: dropped 1 rows with unparseable dates"),
        ("test_dropped_rows_warning_points_at_the_caller",
         lambda: warned_at(reading(BAD_DATE_ROW)), None, "test_series.py"),
        ("test_non_finite_cell", reading("date,a,b\n2020-01-01,1,nan\n2020-01-02,2,5\n"
                                         "2020-01-03,3,6\n"),
         SchemaError, "p.csv: column 'b': non-finite values")],
    "TestReaderPaths": [
        *[(f"test_empty_first_line_is_an_empty_header[{text}]", reading(text),
           SchemaError, "p.csv: no value columns (header: [])")
          for text in ("\n2020-01-01,1\n", '\n"2020-01-01",1\n')],
        *[(f"test_overlong_cell_keeps_the_csv_error[{header}]",
           reading(f"{header},a\n2020-01-01,{'1' * 200_000}\n2020-01-02,2\n"),
           SchemaError, "p.csv: field larger than field limit (131072)")
          for header in ("date", '"date"')],
        # str.splitlines would break the line here and shift the numbering
        *[(f"test_other_line_breaks_stay_in_their_cell[{c}]",
           reading(f"date,a\n2020-01-01,1\n2020-01-02,2{c}5\n"), SchemaError,
           f"p.csv:3: column 'a': non-numeric cell {'2' + c + '5'!r}")
          for c in ("\x0b", "\x0c", "\x1c", "\x85", "\u2028")]],
    "TestTimeSeries": [
        ("test_repr", lambda: repr(FULL), None, "TimeSeries('full', 5 observations)"),
        ("test_rejects_short", lambda: make_series([1.0]), LongmemError,
         "series 'x': length 1 < 2"),
        ("test_rejects_nan", lambda: make_series([1.0, np.nan, 2.0]), LongmemError,
         "series 'x': non-finite values"),
        ("test_rejects_unsorted_dates", lambda: TimeSeries("x", A.dates[::-1], [1, 2]),
         LongmemError, "series 'x': dates not strictly increasing at 2000-01-04"),
        ("test_rejects_repeated_date", lambda: TimeSeries("x", A.dates[:1] * 2, [1, 2]),
         LongmemError, "series 'x': dates not strictly increasing at 2000-01-03"),
        ("test_rejects_2d_values", lambda: TimeSeries("x", A.dates, [[1.0, 2.0]]),
         LongmemError, "series 'x': values must be 1-D"),
        ("test_rejects_dates_values_length_mismatch",
         lambda: TimeSeries("x", A.dates, [1, 2, 3]), LongmemError,
         "series 'x': 2 dates vs 3 values"),
        # NaT compares False with every date, so no order check sees it
        *[(f"test_rejects_nat_date[{i}]",
           lambda i=i: TimeSeries("a", with_nat(i), [1.0, 2.0, 3.0]), LongmemError,
           f"series 'a': dates hold NaT at position {i}") for i in range(3)]],
    "TestAlign": [
        ("test_disjoint_ranges", lambda: align(RatePanel((A, B2021))), LongmemError,
         "aligned panel would have 0 shared dates (< 2)"),
        ("test_forward_fill_requires_max_gap", lambda: align(AB, policy="forward_fill"),
         LongmemError, "forward_fill requires max_gap >= 1"),
        ("test_intersect_rejects_max_gap", lambda: align(AB, max_gap=3),
         LongmemError, "max_gap=3 applies only to forward_fill, not 'intersect'"),
        ("test_forward_fill_leading_gap_is_error",
         lambda: align(RatePanel((FULL, LATE)), policy="forward_fill", max_gap=2),
         LongmemError, "series 'late': gap of 1 at series start cannot be "
                       "forward-filled (no prior value)"),
        ("test_forward_fill_rejects_zero_max_gap",
         lambda: align(AB, policy="forward_fill", max_gap=0), LongmemError,
         "forward_fill requires max_gap >= 1"),
        ("test_unknown_policy", lambda: align(AB, policy="pad"),
         LongmemError, "unknown alignment policy 'pad'"),
        ("test_two_shared_dates",
         lambda: len(align(RatePanel((FULL, TimeSeries("end", FULL.dates[3:], [1, 2]))))),
         None, 2)],
    "TestIncrementsAndProfile": [
        *[(name, lambda x=x: list(profile_from_values(x, "t").values), None, want)
          for name, x, want in [
              ("test_profile_small", [1.0, 2.0, 3.0], [-1.0, -1.0, 0.0]),
              ("test_profile_zeros", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])]],
        ("test_series_profile_bad_kind",
         lambda: series_profile(A, input_kind="returns"), LongmemError,
         "unknown input_kind 'returns'"),
        ("test_profile_rejects_short", lambda: Profile("p", np.array([0.0])),
         LongmemError, "'p': profile shorter than 2"),
        ("test_profile_must_telescope", lambda: Profile("p", np.array([1.0, 2.0])),
         LongmemError, "'p': profile does not telescope to 0 (final value 2)"),
        # the final value may reach 1e-9 of max(sum |steps|, 1), and no more
        ("test_profile_final_value_at_tolerance",
         lambda: Profile("p", np.array([0.0, 1e-9])).values[-1], None, 1e-9),
        ("test_profile_final_value_above_tolerance",
         lambda: Profile("p", np.array([0.0, 2e-9])), LongmemError,
         "'p': profile does not telescope to 0 (final value 2e-09)"),
        *[(f"test_profile_rejects_non_finite_increments[{bad}]",
           lambda bad=bad: profile_from_values([1.0, bad, 2.0, 0.5], "z9"),
           LongmemError, "'z9': non-finite increments")
          for bad in (np.nan, np.inf, -np.inf)],
        *[(f"test_profile_rejects_overflow[{name}]",
           lambda xs=xs: profile_from_values(xs, "big"), LongmemError,
           "'big': profile is not finite (the increments overflow)", NO_WARNINGS)
          for name, xs in [("mean-overflows", [1e308, 1e308, -1e308]),
                           ("cumsum-overflows", [0.5e308] * 8 + [-0.5e308] * 8)]],
        ("test_levels_changes_overflow_without_warnings",
         lambda: series_profile(make_series([1e308, -1e308, 1e308], "big")),
         LongmemError, "'big': non-finite increments", NO_WARNINGS)],
    "TestRatePanel": [
        ("test_repr", lambda: repr(RatePanel((FULL,))), None,
         "RatePanel(1 series x 5 dates)"),
        ("test_duplicate_ids_rejected", lambda: RatePanel((A, A)), LongmemError,
         "duplicate series ids: a"),
        ("test_duplicate_ids_name_only_the_duplicates",
         lambda: RatePanel((A, A, B)), LongmemError, "duplicate series ids: a"),
        ("test_empty_rejected", lambda: RatePanel(()), LongmemError,
         "panel has no series"),
        *[(name, from_matrix(ids, dates, matrix), LongmemError, message)
          for name, ids, dates, matrix, message in [
              ("test_from_matrix_rejects_short_row", ["a", "b"], TWO_DAYS,
               [[1, 2], [np.nan, 1]], "series 'b': length 1 < 2"),
              ("test_from_matrix_rejects[no-ids]", [], TWO_DAYS, np.ones((0, 2)),
               "panel has no series"),
              ("test_from_matrix_rejects[shape]", ["a", "b"], TWO_DAYS, np.ones((2, 3)),
               "matrix shape (2, 3) does not match 2 series x 2 dates"),
              ("test_from_matrix_rejects[unsorted-dates]", ["a"],
               ["2020-01-01", "2020-01-03", "2020-01-02"], [[1, 2, 3]],
               "panel dates not strictly increasing at 2020-01-03"),
              ("test_from_matrix_rejects[repeated-date]", ["a"],
               ["2020-01-01", "2020-01-01"], [[1, 2]],
               "panel dates not strictly increasing at 2020-01-01"),
              ("test_from_matrix_rejects[infinite-cell]", ["a"], TWO_DAYS,
               [[1, np.inf]], "panel has non-finite values"),
              ("test_from_matrix_rejects[nat-date]", ["a"],
               ["2020-01-01", "NaT", "2020-01-03"], [[1, 2, 3]],
               "panel dates hold NaT at position 1")]],
        ("test_date_outside_index_rejected", lambda: RatePanel((FULL,), FULL.dates[:2]),
         LongmemError, "series 'full' has dates outside the panel's date index"),
        # a member that does not fit a bad index is not blamed for it
        ("test_date_index_rejects[nat-date]",
         lambda: RatePanel((FULL,), np.where(FULL.days == FULL.days[2],
                                             np.datetime64("NaT"), FULL.days)),
         LongmemError, "panel dates hold NaT at position 2"),
        ("test_date_index_rejects[unsorted]",
         lambda: RatePanel((FULL,), FULL.dates[::-1]), LongmemError,
         "panel dates not strictly increasing at 2000-01-07")],
}
rule_tests(globals(), RULES)
