import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from longmem.errors import AlignmentError, SchemaError
from longmem.synthetic import trading_dates
from longmem.series import (
    RatePanel,
    TimeSeries,
    align,
    load_panel,
    panel_to_csv,
    profile_from_values,
    series_profile,
)

from conftest import make_panel, make_series
from reference import naive_forward_fill


class TestTimeSeries:
    def test_rejects_short(self):
        with pytest.raises(ValueError, match="length 1"):
            make_series([1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_series([1.0, np.nan, 2.0])

    def test_rejects_unsorted_dates(self):
        d = dt.date
        with pytest.raises(ValueError, match="not strictly increasing"):
            TimeSeries("x", (d(2020, 1, 2), d(2020, 1, 1)), [1.0, 2.0])

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

    def test_duplicate_date(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,a\n2020-01-01,1\n2020-01-01,2\n2020-01-03,3\n")
        with pytest.raises(SchemaError, match="duplicate dates"):
            load_panel(p)

    def test_duplicate_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("date,a,a\n2020-01-01,1,2\n2020-01-02,3,4\n")
        with pytest.raises(SchemaError, match="duplicate column labels"):
            load_panel(p)

    @pytest.mark.parametrize("char", [",", '"', "\n"])
    def test_label_with_csv_metacharacter(self, tmp_path, char):
        # a quoted header cell may hold any of these; outputs write ids
        # unquoted, so such a label would shift every cell after it
        label = f"x{char}y"
        quoted = '"' + label.replace('"', '""') + '"'
        p = tmp_path / "m.csv"
        p.write_text(f"date,{quoted},b\n2020-01-01,1,2\n2020-01-02,3,4\n")
        with pytest.raises(SchemaError) as info:
            load_panel(p)
        assert str(info.value) == (f"{p}: column label {label!r} contains a "
                                   "comma, quote or line break")

    def test_single_row_column(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("date,a\n2020-01-01,1\n")
        with pytest.raises(SchemaError, match="< 2"):
            load_panel(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,a\n2020-01-01,1\n2020-01-02,oops\n")
        with pytest.raises(SchemaError, match="non-numeric"):
            load_panel(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_panel(tmp_path / "nope.csv")

    def test_unparseable_date_rows_dropped(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("date,a\n2020-01-01,1\nnot-a-date,9\n2020-01-03,3\n")
        with pytest.warns(UserWarning, match="unparseable dates"):
            panel = load_panel(p)
        assert len(panel.member("a")) == 2

    def test_longer_row_is_error(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("date,a,b\n2020-01-02,1,2\n2020-01-01,1,2,99\n"
                     "2020-01-03,3,4\n")
        with pytest.raises(SchemaError, match=r"r\.csv:3: 3 value cells"):
            load_panel(p)

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

    def test_non_finite_cell(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("date,a,b\n2020-01-01,1,nan\n2020-01-02,2,5\n"
                     "2020-01-03,3,6\n")
        with pytest.raises(SchemaError, match="'b'.*non-finite"):
            load_panel(p)

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

    def test_disjoint_ranges(self):
        a = make_series([1.0, 2.0], "a", start=dt.date(2020, 1, 1))
        b = make_series([1.0, 2.0], "b", start=dt.date(2021, 1, 1))
        with pytest.raises(AlignmentError, match="< 2"):
            align(RatePanel((a, b)))

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

    def test_forward_fill_requires_max_gap(self):
        panel = make_panel({"a": np.arange(4.0)})
        with pytest.raises(ValueError, match="max_gap"):
            align(panel, policy="forward_fill")

    def test_intersect_rejects_max_gap(self):
        a = make_series(np.arange(6.0), "a")
        b = TimeSeries("b", a.dates[:2] + a.dates[4:], [0.0, 1.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="max_gap=3 applies only to "
                                             "forward_fill"):
            align(RatePanel((a, b)), policy="intersect", max_gap=3)

    def test_forward_fill_leading_gap_is_error(self):
        full = make_series(np.arange(5.0), "full")
        late = TimeSeries("late", full.dates[1:], np.arange(4.0))
        with pytest.raises(AlignmentError, match="no prior value"):
            align(RatePanel((full, late)), policy="forward_fill", max_gap=2)

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
        except AlignmentError as exc:
            with pytest.raises(AlignmentError, match=re.escape(str(exc))):
                align(panel, policy="forward_fill", max_gap=max_gap)
            return
        shared = sorted(set.intersection(*(set(d) for d, _ in filled)))
        if len(shared) < 2:
            with pytest.raises(AlignmentError, match="shared dates"):
                align(panel, policy="forward_fill", max_gap=max_gap)
            return
        out = align(panel, policy="forward_fill", max_gap=max_gap)
        assert out.date_index == tuple(shared)
        for ts, (dates, values) in zip(out.series, filled):
            by_date = dict(zip(dates, values))
            assert list(ts.values) == [by_date[d] for d in shared]

    def test_unknown_policy(self):
        panel = make_panel({"a": np.arange(4.0)})
        with pytest.raises(ValueError, match="policy"):
            align(panel, policy="pad")


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

    def test_profile_small(self):
        prof = profile_from_values([1.0, 2.0, 3.0], "t")
        assert list(prof.values) == [-1.0, -1.0, 0.0]

    def test_profile_zeros(self):
        prof = profile_from_values([0.0, 0.0, 0.0], "t")
        assert list(prof.values) == [0.0, 0.0, 0.0]

    def test_series_profile_kinds(self):
        ts = make_series([1.0, 3.0, 2.0, 5.0])
        via_levels = series_profile(ts)  # default: absolute changes first
        assert np.allclose(via_levels.values,
                           profile_from_values([2.0, 1.0, 3.0], "x").values)
        via_incr = series_profile(ts, input_kind="increments")
        assert np.allclose(via_incr.values,
                           np.cumsum(ts.values - ts.values.mean()))

    def test_series_profile_bad_kind(self):
        with pytest.raises(ValueError, match="input_kind"):
            series_profile(make_series([1.0, 2.0]), input_kind="returns")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_profile_rejects_non_finite_increments(self, bad):
        with pytest.raises(ValueError, match="'z9': non-finite increments"):
            profile_from_values([1.0, bad, 2.0, 0.5], "z9")

    @pytest.mark.filterwarnings("error")  # the ValueError alone, no numpy noise
    @pytest.mark.parametrize("xs", [[1e308, 1e308, -1e308],
                                    [0.5e308] * 8 + [-0.5e308] * 8],
                             ids=["mean-overflows", "cumsum-overflows"])
    def test_profile_rejects_overflow(self, xs):
        with pytest.raises(ValueError, match="'big': profile is not finite"):
            profile_from_values(xs, "big")

    @pytest.mark.filterwarnings("error")
    def test_levels_changes_overflow_without_warnings(self):
        with pytest.raises(ValueError, match="'big': non-finite increments"):
            series_profile(make_series([1e308, -1e308, 1e308], "big"))

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
    def test_duplicate_ids_rejected(self):
        a = make_series([1.0, 2.0], "a")
        with pytest.raises(ValueError, match="duplicate"):
            RatePanel((a, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no series"):
            RatePanel(())

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
        with pytest.raises(ValueError):
            panel.matrix[0, 0] = 9.0

    def test_from_matrix_rejects_short_row(self):
        days = np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")
        with pytest.raises(ValueError, match="'b': length 1"):
            RatePanel.from_matrix(["a", "b"], days, [[1.0, 2.0], [np.nan, 1.0]])

    def test_date_outside_index_rejected(self):
        a = make_series([1.0, 2.0, 3.0], "a")
        with pytest.raises(ValueError, match="outside"):
            RatePanel((a,), a.dates[:2])

    def test_restrict_drops_unobserved_dates(self):
        days = np.array(["2020-01-01", "2020-01-02", "2020-01-03",
                         "2020-01-04"], dtype="datetime64[D]")
        panel = RatePanel.from_matrix(
            ["a", "b"], days,
            [[1.0, np.nan, 3.0, 4.0], [5.0, np.nan, 7.0, 8.0]])
        sub = panel.restrict(dt.date(2020, 1, 2), dt.date(2020, 1, 4))
        assert sub.date_index == (dt.date(2020, 1, 3), dt.date(2020, 1, 4))
        assert sub.is_aligned
        with pytest.raises(AlignmentError, match="'a'.*keeps 1"):
            panel.restrict(dt.date(2020, 1, 1), dt.date(2020, 1, 2))

    def test_member_lookup(self):
        panel = make_panel({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert panel.member("b").id == "b"
        with pytest.raises(KeyError):
            panel.member("zz")
