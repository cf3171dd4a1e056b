import datetime as dt
import signal
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for `reference`

from longmem.series import RatePanel, TimeSeries

settings.register_profile("suite", max_examples=50, derandomize=True,
                          deadline=None)
settings.load_profile("suite")

# Seconds a test may run; past it the test fails and the run goes on.  The
# slowest test takes under 2 s, so only a hang comes near the limit.
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that outruns ``TIME_LIMIT_S``.  Not an ``Exception``,
    so neither the code under test nor hypothesis's shrinker catches it."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test still running after {TIME_LIMIT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Run each test under a ``SIGALRM`` timer of ``TIME_LIMIT_S`` seconds.

    Signals reach the main thread only, so elsewhere the test runs untimed.
    """
    if threading.current_thread() is not threading.main_thread():
        return (yield)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_series(values, series_id="x", start=dt.date(2000, 1, 3)) -> TimeSeries:
    """Series on consecutive weekdays from the weekday ``start``."""
    values = np.asarray(values, dtype=float)
    dates = np.busday_offset(np.datetime64(start, "D"), np.arange(len(values)))
    return TimeSeries(series_id, tuple(dates.tolist()), values)


def make_panel(columns: dict) -> RatePanel:
    """Aligned panel from {id: values}; all columns must share a length."""
    return RatePanel(tuple(make_series(v, k) for k, v in columns.items()))


def ramp_panel(n: int = 800) -> RatePanel:
    """Levels panel whose member "lin" rises by exactly 0.01 a day.

    Its absolute changes are constant, so its profile is pure cancellation
    noise, which every detrending method must report as F = 0.
    """
    rng = np.random.default_rng(1)
    steps = 0.1 * rng.standard_normal((2, n)).cumsum(axis=1)
    return make_panel({"lin": 1.0 + 0.01 * np.arange(n), "b": 5.0 + steps[0],
                       "c": 3.0 + steps[1]})


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` holds above what was in use before it,
    as ``tracemalloc`` counts Python's allocations and numpy's."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _rule_method(cases):
    """A test method over ``cases``, [(case id, row)]: parametrized by the
    ids, or the one row alone if it has no id."""
    def test(self, tmp_path, monkeypatch, call, kind, message):
        monkeypatch.chdir(tmp_path)
        if kind is None:
            assert call() == message
            return
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind
        assert str(info.value) == message

    if cases[0][0]:
        return pytest.mark.parametrize("call, kind, message", [
            pytest.param(*row[:3], id=case, marks=row[3:])
            for case, row in cases])(test)
    ((_, (call, kind, message, *marks)),) = cases

    def one(self, tmp_path, monkeypatch):
        test(self, tmp_path, monkeypatch, call, kind, message)
    for mark in marks:
        one = mark(one)
    return one


def rule_tests(namespace, rules):
    """Add ``rules``, {class name: rows}, as tests of those classes in a
    module's ``namespace``.  A row ``(name, call, exception type, full
    message)``, with optional marks, is the test ``Class::name``, or a case
    of it if the name ends in ``[case]``.  It checks that ``call()``, run in
    an empty working directory, raises exactly that type and message.  For
    a type of None the input is valid, and ``call()`` returns the message."""
    for cls, rows in rules.items():
        tests = {}
        for name, *row in rows:
            name, _, case = name.partition("[")
            tests.setdefault(name, []).append((case[:-1], row))
        for name, cases in tests.items():
            assert not hasattr(namespace[cls], name), f"{cls}.{name} exists"
            setattr(namespace[cls], name, _rule_method(cases))


@pytest.fixture
def csv_panel(tmp_path):
    """Write a small complete 2-series panel file and return its path."""
    text = (
        "date,aaa,bbb\n"
        "2020-01-01,1.0,5.0\n"
        "2020-01-02,1.5,4.0\n"
        "2020-01-03,1.2,4.4\n"
        "2020-01-06,1.9,4.1\n"
        "2020-01-07,1.4,4.9\n"
    )
    path = tmp_path / "panel.csv"
    path.write_text(text)
    return path
