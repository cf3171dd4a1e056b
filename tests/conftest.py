import datetime as dt
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for `reference`

from longmem.series import RatePanel, TimeSeries

settings.register_profile("suite", max_examples=50, derandomize=True,
                          deadline=None)
settings.load_profile("suite")


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
