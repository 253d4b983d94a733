"""Generated CSV files for the series and holiday readers: every call returns
or raises an AddcastError, never another exception, and a well-formed series
survives write_csv followed by load_csv bit for bit."""

import csv
import io
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from addcast.config import load_holiday_calendar
from addcast.errors import AddcastError
from addcast.timeseries import TimeSeries, date_to_epoch_day, load_csv, write_csv

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

dates = st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31))
odd = st.one_of(
    st.sampled_from(
        ["2020-13-01", "2020-02-30", "not-a-date", "2020-01-01T12:00:00", "20200101",
         " 2020-01-01 ", "NA", "", " ", "inf", "-inf", "nan", "1e999", "1_000", "-1", "3.5"]
    ),
    st.floats().map(repr),
    st.text(max_size=8),
)
NAMES = ["a", "b", "c d"]
windows = st.integers(0, 3).map(str)
# Well-formed fields of each known column.
FIELDS = {
    "ds": dates.map(date.isoformat),
    "y": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["NA", "", " 1.5 "]),
    ),
    "holiday": st.sampled_from(NAMES),
}
MUTATIONS = ["odd field", "short row", "long row", "blank row", "header", "no header", "bytes"]


@st.composite
def csv_files(draw, required):
    """The bytes of a well-formed CSV file with the ``required`` columns
    (permuted, with extra ones), to which up to three mutations are applied:
    an odd field, a short, long or blank row, a random header, no header, or
    bytes that are not UTF-8."""
    mutations = draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    extra = draw(st.lists(st.sampled_from(["x", "", "y", "ds"]), max_size=2))
    header = [*draw(st.permutations(required)), *extra]
    if "header" in mutations:
        header = draw(st.lists(st.one_of(st.sampled_from(header), st.text(max_size=4)), max_size=5))
    # A holiday's windows agree across its rows.
    window = {name: (draw(windows), draw(windows)) for name in NAMES}
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = {name: draw(FIELDS.get(name, odd)) for name in header}
        if "holiday" in row:
            row["lower_window"], row["upper_window"] = window[row["holiday"]]
        rows.append([row[name] for name in header])
    for mutation in mutations:
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        if mutation == "odd field" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(odd)
        elif mutation == "short row":
            rows[i] = rows[i][: draw(st.integers(0, len(rows[i])))]
        elif mutation == "long row":
            rows[i] += draw(st.lists(odd, min_size=1, max_size=2))
        elif mutation == "blank row":
            rows.insert(i, [])
    buf = io.StringIO()
    writer = csv.writer(buf)
    if "no header" not in mutations:
        writer.writerow(header)
    writer.writerows(rows)
    data = buf.getvalue().encode("utf-8")
    if "bytes" in mutations:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\x80abc"])) + data[at:]
    return data


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file that every example overwrites."""
    return tmp_path_factory.mktemp("generated") / "input.csv"


def returns_or_raises_addcast_error(read, path, data):
    path.write_bytes(data)
    try:
        read(path)
    except AddcastError:
        pass


@SETTINGS
@given(data=csv_files(("ds", "y")))
def test_load_csv_returns_or_raises_addcast_error(path, data):
    returns_or_raises_addcast_error(load_csv, path, data)


@SETTINGS
@given(data=csv_files(("holiday", "ds", "lower_window", "upper_window")))
def test_load_holiday_calendar_returns_or_raises_addcast_error(path, data):
    returns_or_raises_addcast_error(load_holiday_calendar, path, data)


@SETTINGS
@given(
    rows=st.dictionaries(
        dates.map(date_to_epoch_day),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.nan)),
        min_size=1,
        max_size=20,
    )
)
def test_write_then_load_round_trips(path, rows):
    days = sorted(rows)
    ts = TimeSeries(days, [rows[d] for d in days])
    write_csv(ts, path)
    back = load_csv(path)
    assert back.timestamps.tobytes() == ts.timestamps.tobytes()
    assert back.values.tobytes() == ts.values.tobytes()
