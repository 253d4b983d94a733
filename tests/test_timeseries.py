import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from addcast.errors import (
    CutoffOutOfRange,
    DomainError,
    DuplicateTimestamp,
    EmptySeries,
    LeadingMissing,
    LengthMismatch,
    ParseError,
)
from addcast.timeseries import (
    TimeSeries,
    chronological_split,
    filter_weekdays,
    forward_fill,
    load_csv,
    log_transform,
    parse_iso_date,
    read_columns,
    weekday_of,
    write_output,
)

from conftest import (
    assert_keeps_its_own_copy,
    daily_days,
    epoch_date,
    make_series,
    write_series_csv,
)


class TestLoadCsv:
    def test_basic_two_rows(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01,1.0\n2020-01-02,2.0\n")
        ts = load_csv(p)
        assert len(ts) == 2
        assert list(ts.values) == [1.0, 2.0]
        assert ts.timestamps[1] - ts.timestamps[0] == 1

    def test_out_of_order_rows_sorted(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-02,2.0\n2020-01-01,1.0\n")
        ts = load_csv(p)
        assert list(ts.values) == [1.0, 2.0]

    def test_duplicate_date_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01,1.0\n2020-01-01,2.0\n")
        with pytest.raises(DuplicateTimestamp):
            load_csv(p)

    def test_bad_date_names_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01,1.0\nnot-a-date,2.0\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(p)

    def test_subdaily_timestamp_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01T12:00:00,1.0\n")
        with pytest.raises(ParseError):
            load_csv(p)

    @pytest.mark.parametrize("text", ["20200101", "2020W013", "2020-W01-3"])
    def test_only_strict_yyyy_mm_dd(self, tmp_path, text):
        # date.fromisoformat reads all three as 2020-01-01 on Python >= 3.11
        p = tmp_path / "a.csv"
        p.write_text(f"ds,y\n 2019-12-31 ,1.0\n{text},2.0\n")
        with pytest.raises(ParseError, match="row 3: invalid ISO-8601 date .*YYYY-MM-DD"):
            load_csv(p)

    def test_bad_number_names_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01,abc\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n")
        with pytest.raises(EmptySeries):
            load_csv(p)

    def test_missing_markers(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01,1.0\n2020-01-02,NA\n2020-01-03,\n")
        ts = load_csv(p)
        assert ts.values[0] == 1.0
        assert math.isnan(ts.values[1]) and math.isnan(ts.values[2])

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,y\n2020-01-01,1.0\n")
        with pytest.raises(ParseError, match="ds"):
            load_csv(p)

    def test_roundtrip_identity(self, tmp_path, rng):
        values = rng.normal(0, 123.456, 50)
        values[7] = math.nan
        ts = TimeSeries(daily_days("2021-03-01", 50), values)
        p = tmp_path / "rt.csv"
        write_series_csv(ts, p)
        back = load_csv(p)
        assert np.array_equal(back.timestamps, ts.timestamps)
        # exact float round-trip, NaN markers included
        assert np.array_equal(back.values, ts.values, equal_nan=True)


    def test_row_semantics(self, tmp_path):
        # blank lines are skipped, a short row has a missing y, extra fields
        # are ignored, and a row that ends before its date has no date
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01,1.0\n\n2020-01-02\n2020-01-03,3.0,x,7\n")
        ts = load_csv(p)
        assert ts.timestamps.tolist() == [parse_iso_date(f"2020-01-0{i}") for i in (1, 2, 3)]
        assert ts.values[0] == 1.0 and math.isnan(ts.values[1]) and ts.values[2] == 3.0
        p.write_text("y,ds\n1.0,2020-01-01\n2.0\n")
        with pytest.raises(ParseError, match="row 3: missing date field"):
            load_csv(p)

    def test_repeated_column_reads_last(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,y,y\n2020-01-01,1.0,2.0\n")
        assert load_csv(p).values.tolist() == [2.0]

    def test_unsplittable_row_is_parse_error(self, tmp_path):
        # a field beyond the csv module's size limit was a csv.Error traceback
        p = tmp_path / "a.csv"
        p.write_text("ds,y\n2020-01-01," + "1" * 200_000 + "\n")
        with pytest.raises(ParseError, match="a.csv: line 2: field larger than field limit"):
            load_csv(p)


class TestReadColumns:
    def test_optional_groups_and_unused_columns(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("note,b,ds,a,c\nx,2,2020-01-02,1,\ny,4,2020-01-01,3,\n")
        days, columns = read_columns(p, ("a",), optional=[("b",), ("c", "missing")])
        assert days.tolist() == [parse_iso_date("2020-01-01"), parse_iso_date("2020-01-02")]
        assert {k: v.tolist() for k, v in columns.items()} == {"a": [3.0, 1.0], "b": [4.0, 2.0]}

    def test_without_a_date_column_rows_keep_file_order(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("e\n2.5\n-1\n")
        days, columns = read_columns(p, ("e",), date_column=None)
        assert days is None and columns["e"].tolist() == [2.5, -1.0]

    @pytest.mark.parametrize(
        "field, message",
        [("NA", "row 3: invalid number 'NA'"), ("", "row 3: invalid number ''"),
         ("nan", "row 3: non-finite value 'nan'"), ("-inf", "row 3: non-finite value '-inf'")],
    )
    def test_missing_markers_only_when_asked(self, tmp_path, field, message):
        p = tmp_path / "a.csv"
        p.write_text(f"ds,a\n2020-01-01,1\n2020-01-02,{field}\n")
        with pytest.raises(ParseError, match=f"a.csv: {message}"):
            read_columns(p, ("a",))

    def test_duplicate_date_names_the_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("ds,a\n2020-01-01,1\n2020-01-01,2\n")
        with pytest.raises(DuplicateTimestamp, match="a.csv: duplicate date 2020-01-01"):
            read_columns(p, ("a",))


class TestWriteOutput:
    def test_replaces_the_whole_file_with_the_umask_mode(self, tmp_path):
        p = tmp_path / "out.csv"
        p.write_bytes(b"old content that is longer")
        os.chmod(p, 0o600)
        mask = os.umask(0o022)
        try:
            write_output(p, b"new")
        finally:
            os.umask(mask)
        assert p.read_bytes() == b"new"
        assert stat.S_IMODE(p.stat().st_mode) == 0o644
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failure_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        p = tmp_path / "out.csv"
        p.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write_output(p, b"new")
        assert p.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_follows_a_symbolic_link(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"old")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_output(link, b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"


class TestLogTransform:
    def test_ln_identities(self):
        ts = make_series("2020-01-01", [1.0, math.e])
        out = log_transform(ts, 0.0)
        assert out.values[0] == 0.0
        assert abs(out.values[1] - 1.0) < 1e-15

    def test_offset_one_handles_zero(self):
        ts = make_series("2020-01-01", [0.0, 9.0])
        out = log_transform(ts, 1.0)
        assert out.values[0] == 0.0
        assert abs(out.values[1] - math.log(10.0)) < 1e-15

    def test_domain_violation(self):
        ts = make_series("2020-01-01", [-2.0, 1.0])
        with pytest.raises(DomainError):
            log_transform(ts, 1.0)

    def test_negative_offset_rejected(self):
        ts = make_series("2020-01-01", [1.0, 2.0])
        with pytest.raises(DomainError):
            log_transform(ts, -0.5)

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_rejected(self, offset):
        ts = make_series("2020-01-01", [1.0, 2.0])
        with pytest.raises(DomainError, match=f"log offset .* got {offset}"):
            log_transform(ts, offset)

    def test_invertible(self, rng):
        values = rng.uniform(0.5, 50.0, 200)
        ts = make_series("2020-01-01", values)
        out = log_transform(ts, 1.0)
        recovered = np.exp(out.values) - 1.0
        assert np.max(np.abs(recovered - values) / np.abs(values)) < 1e-12


class TestForwardFill:
    def test_single_gap(self):
        ts = make_series("2020-01-01", [1.0, math.nan, 3.0])
        assert list(forward_fill(ts).values) == [1.0, 1.0, 3.0]

    def test_trailing_gaps(self):
        ts = make_series("2020-01-01", [1.0, math.nan, math.nan])
        assert list(forward_fill(ts).values) == [1.0, 1.0, 1.0]

    def test_leading_missing_rejected(self):
        ts = make_series("2020-01-01", [math.nan, 2.0])
        with pytest.raises(LeadingMissing):
            forward_fill(ts)

    def test_idempotent(self, rng):
        values = rng.normal(0, 1, 100)
        values[rng.random(100) < 0.3] = math.nan
        values[0] = 1.0
        ts = make_series("2020-01-01", values)
        once = forward_fill(ts)
        twice = forward_fill(once)
        assert np.array_equal(once.values, twice.values)


class TestFilterWeekdays:
    def test_saturday_dropped_monday_kept(self):
        # 2024-01-06 is a Saturday, 2024-01-08 a Monday
        days = np.array([parse_iso_date("2024-01-06"), parse_iso_date("2024-01-08")])
        ts = TimeSeries(days, [1.0, 2.0])
        out = filter_weekdays(ts)
        assert len(out) == 1
        assert out.timestamps[0] == parse_iso_date("2024-01-08")

    def test_all_weekday_identity(self):
        days = daily_days("2024-01-08", 5)  # Mon..Fri
        ts = TimeSeries(days, np.arange(5.0))
        out = filter_weekdays(ts)
        assert np.array_equal(out.timestamps, ts.timestamps)

    def test_all_weekend_rejected(self):
        days = np.array([parse_iso_date("2024-01-06"), parse_iso_date("2024-01-07")])
        ts = TimeSeries(days, [1.0, 2.0])
        with pytest.raises(EmptySeries):
            filter_weekdays(ts)

    def test_weekday_arithmetic_matches_calendar(self):
        days = daily_days("2023-01-01", 400)
        computed = weekday_of(days)
        expected = np.array([epoch_date(d).weekday() for d in days])
        assert np.array_equal(computed, expected)


class TestChronologicalSplit:
    def test_boundary_membership(self):
        ts = make_series("2020-01-01", np.arange(10.0))
        cutoff = int(ts.timestamps[0]) + 6  # the 7th day
        train, test = chronological_split(ts, cutoff)
        assert len(train) == 7
        assert len(test) == 3
        assert train.timestamps[-1] == cutoff

    def test_partition_property(self, rng):
        ts = make_series("2019-06-01", rng.normal(0, 1, 60))
        for _ in range(20):
            cutoff = int(rng.integers(ts.timestamps[0], ts.timestamps[-1]))
            train, test = chronological_split(ts, cutoff)
            assert len(train) + len(test) == len(ts)
            assert train.timestamps[-1] <= cutoff < test.timestamps[0]
            merged = np.concatenate([train.timestamps, test.timestamps])
            assert np.array_equal(merged, ts.timestamps)

    def test_cutoff_before_first_rejected(self):
        ts = make_series("2020-01-01", [1.0, 2.0, 3.0])
        with pytest.raises(CutoffOutOfRange):
            chronological_split(ts, int(ts.timestamps[0]) - 1)

    def test_cutoff_at_last_rejected(self):
        ts = make_series("2020-01-01", [1.0, 2.0, 3.0])
        with pytest.raises(CutoffOutOfRange):
            chronological_split(ts, int(ts.timestamps[-1]))

    def test_year_end_split(self):
        # two years of daily data cut at 2023-12-31: all 2024 points in test
        ts = make_series("2023-01-01", np.arange(731.0))
        train, test = chronological_split(ts, parse_iso_date("2023-12-31"))
        assert len(train) == 365
        assert test.timestamps[0] == parse_iso_date("2024-01-01")


class TestTimeSeriesInvariants:
    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(DuplicateTimestamp):
            TimeSeries(np.array([1, 1, 2]), np.array([1.0, 2.0, 3.0]))

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            TimeSeries(np.array([2, 1]), np.array([1.0, 2.0]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(DomainError):
            TimeSeries(np.array([[1, 2]]), np.array([[1.0, 2.0]]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            TimeSeries(np.array([1, 2, 3]), np.array([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            TimeSeries(np.array([], dtype=np.int64), np.array([]))

    def test_infinite_values_rejected(self):
        with pytest.raises(ParseError):
            TimeSeries(np.array([1, 2]), np.array([1.0, math.inf]))

    def test_immutable(self):
        ts = make_series("2020-01-01", [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 99.0

    @pytest.mark.parametrize("name", ["timestamps", "values"])
    def test_keeps_its_own_copy(self, name):
        ts = make_series("2020-01-01", [1.0, 2.0, 3.0])
        assert_keeps_its_own_copy(
            lambda view: getattr(replace(ts, **{name: view}), name), np.array(getattr(ts, name))
        )
