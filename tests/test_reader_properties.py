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


# Dates and values that one check of load_csv's array path or another must
# reject, and a small pool of good dates so that duplicates are common.
EDGE_DATES = ["0000-01-01", "0000-12-31", "2021-02-29", "2020-02-29", "9999-12-31",
              "0001-01-01", "2021-1-01", "2021-01-01\x002021-01-02"]
series_dates = st.one_of(
    st.sampled_from(["2021-01-01", "2021-01-02", "2021-01-03"]),
    st.sampled_from(EDGE_DATES),
    dates.map(date.isoformat),
    odd,
)
series_values = st.one_of(FIELDS["y"], odd)


@st.composite
def series_files(draw):
    """A ds,y file whose rows mix good and edge dates and values, short
    rows and blank rows."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(series_dates), draw(series_values)]
        rows.append(row[: draw(st.sampled_from([2, 2, 2, 1, 0]))])
    buf = io.StringIO()
    csv.writer(buf).writerows([["ds", "y"], *rows])
    return buf.getvalue().encode("utf-8")


def load_outcome(path):
    """What load_csv returns, as bytes, or the type and message it raises."""
    try:
        ts = load_csv(path)
    except AddcastError as exc:
        return type(exc), str(exc)
    return ts.timestamps.tobytes(), ts.values.tobytes()


def row_by_row_outcome(path):
    """load_csv's outcome with every file read row by row."""
    from unittest import mock

    import addcast.timeseries

    with mock.patch.object(addcast.timeseries, "_parse_columns", lambda *args: None):
        return load_outcome(path)


@SETTINGS
@given(data=st.one_of(series_files(), csv_files(("ds", "y"))))
def test_load_csv_array_path_equals_row_by_row(path, data):
    path.write_bytes(data)
    assert load_outcome(path) == row_by_row_outcome(path)


@pytest.mark.parametrize(
    "body, error",
    [
        ("2021-01-01,1\n0000-01-01,2\n", "row 3: invalid ISO-8601 date '0000-01-01'"),
        ("2021-02-29,1\n", "row 2: invalid ISO-8601 date '2021-02-29'"),
        ("2021-01-01,1\n2021-01-02\n2021-01-03,NA\n2021-01-04,\n2021-01-05,2\n", None),
        ("2021-01-01,1\n2021-01-02,x\n0000-01-01,2\n", "row 3: invalid number 'x'"),
        ("2021-01-01,1\n2021-01-01,2\n", "duplicate date 2021-01-01"),
        ("2021-01-01,nan\n", "row 2: non-finite value 'nan'"),
        ("2021-01-01,1\n\"2021-01-02\x002021-01-03\",2\n", "expected YYYY-MM-DD"),
        ("2021-01-01,1\n,2\n", "expected YYYY-MM-DD"),
    ],
)
def test_load_csv_edge_rows(path, body, error):
    path.write_bytes(("ds,y\n" + body).encode("utf-8"))
    outcome = load_outcome(path)
    assert outcome == row_by_row_outcome(path)
    if error is None:
        days, values = np.frombuffer(outcome[0], np.int64), np.frombuffer(outcome[1])
        assert len(days) == 5 and np.isnan(values[1:4]).all()
    else:
        assert error in outcome[1]


def test_rows_before_undecodable_bytes_are_checked_first(path):
    path.write_bytes(b"ds,y\n2021-01-01,1\n2021-13-01,2\n" + b"2021-01-03,3\n" * 5000 + b"\xff\n")
    outcome = load_outcome(path)
    assert outcome == row_by_row_outcome(path)
    assert "row 3: invalid ISO-8601 date '2021-13-01'" in outcome[1]
