"""Time-series container, CSV ingestion, preprocessing transforms, and
chronological splitting.

Timestamps are calendar dates encoded as integer UTC epoch-days (days since
1970-01-01); there is deliberately no time-of-day or timezone support.
Missing values are represented as NaN and are only legal between loading and
``forward_fill`` — model-facing series must be dense.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import (
    CutoffOutOfRange,
    DomainError,
    DuplicateTimestamp,
    EmptySeries,
    LeadingMissing,
    LengthMismatch,
    ParseError,
)

_EPOCH = date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
# The last epoch-day a date can hold: 9999-12-31.
MAX_EPOCH_DAY = date.max.toordinal() - _EPOCH_ORDINAL

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# CSV fields treated as missing markers (besides the empty field).
_MISSING_TOKENS = {"", "NA"}


@contextmanager
def open_text(path):
    """Open a UTF-8 text file to read; bytes that are not UTF-8 raise ParseError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


@contextmanager
def csv_reader(path, required):
    """The header and the data rows of a UTF-8 CSV file whose header has the
    ``required`` columns, as ``(columns, rows)``.

    ``columns`` maps each header name to its field index (the last one when
    a name repeats), in header order. ``rows`` yields each non-blank data
    row as a list of fields; a row may be shorter or longer than the header.
    Bytes that are not UTF-8, and rows the csv module cannot split, raise
    ParseError.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: missing header row")
            columns = {name: i for i, name in enumerate(header)}
            for col in required:
                if col not in columns:
                    raise ParseError(f"{path}: missing column {col!r}")
            yield columns, (row for row in reader if row)
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def csv_field(row: list, index: int) -> str | None:
    """Field ``index`` of a CSV row, or None when the row is too short."""
    return row[index] if index < len(row) else None


def date_to_epoch_day(d: date) -> int:
    return d.toordinal() - _EPOCH_ORDINAL


def epoch_day_to_date(day: int) -> date:
    return date.fromordinal(int(day) + _EPOCH_ORDINAL)


def parse_iso_date(text: str) -> int:
    """Parse a strict ``YYYY-MM-DD`` string into an epoch-day; anything
    else, also a value that is not a string, is a ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"invalid ISO-8601 date {text!r}: not a string")
    stripped = text.strip()
    if not _ISO_DATE.fullmatch(stripped):
        raise ParseError(f"invalid ISO-8601 date {text!r}: expected YYYY-MM-DD")
    try:
        d = date.fromisoformat(stripped)
    except ValueError as exc:
        raise ParseError(f"invalid ISO-8601 date {text!r}: {exc}") from None
    return date_to_epoch_day(d)


def format_epoch_day(day: int) -> str:
    return date.fromordinal(day + _EPOCH_ORDINAL).isoformat()


def weekday_of(days: np.ndarray) -> np.ndarray:
    """Weekday index (Monday=0 .. Sunday=6) for integer epoch-days.

    1970-01-01 was a Thursday, hence the +3 offset.
    """
    return (np.asarray(days, dtype=np.int64) + 3) % 7


@dataclass(frozen=True)
class TimeSeries:
    """Immutable timestamped series of real-valued observations.

    Invariants: timestamps strictly increasing with no duplicates; values may
    contain NaN (missing markers) only before preprocessing resolves them.
    """

    timestamps: np.ndarray
    values: np.ndarray
    name: str = "y"

    def __post_init__(self):
        t = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1:
            raise DomainError("timestamps and values must be 1-dimensional")
        if len(t) != len(v):
            raise LengthMismatch(
                f"length mismatch: {len(t)} timestamps vs {len(v)} values"
            )
        if len(t) == 0:
            raise EmptySeries("series must contain at least one observation")
        diffs = np.diff(t)
        if np.any(diffs == 0):
            dup = int(t[np.argmin(diffs)]) if len(diffs) else 0
            raise DuplicateTimestamp(
                f"duplicate timestamp {format_epoch_day(dup)}"
            )
        if np.any(diffs < 0):
            raise DomainError("timestamps must be strictly increasing")
        if np.any(np.isinf(v)):
            raise ParseError("values must be finite (or NaN for missing)")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def has_missing(self) -> bool:
        return bool(np.any(np.isnan(self.values)))

    def slice_mask(self, mask: np.ndarray) -> "TimeSeries":
        if not np.any(mask):
            raise EmptySeries("selection left no observations")
        return TimeSeries(self.timestamps[mask], self.values[mask], self.name)


@dataclass(frozen=True)
class SplitResult:
    """Chronological partition of a series at a cutoff epoch-day.

    Every train timestamp is <= cutoff and every test timestamp is > cutoff;
    together they restore the input series.
    """

    train: TimeSeries
    test: TimeSeries
    cutoff: int = field(default=0)


def load_csv(path, date_column: str = "ds", value_column: str = "y") -> TimeSeries:
    """Load a daily series from a headered CSV file.

    Dates must be strict ISO-8601 ``YYYY-MM-DD`` (sub-daily resolution is
    rejected); values must parse as finite reals, with the empty field and
    the literal ``NA`` treated as missing markers. Rows are sorted ascending
    by date; duplicated dates are an error.
    """
    days: list[int] = []
    values: list[float] = []
    with csv_reader(path, (date_column, value_column)) as (columns, rows):
        date_index = columns[date_column]
        value_index = columns[value_column]
        for lineno, row in enumerate(rows, start=2):
            raw_date = csv_field(row, date_index)
            if raw_date is None:
                raise ParseError(f"{path}: row {lineno}: missing date field")
            try:
                day = parse_iso_date(raw_date)
            except ParseError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from None
            raw_val = (csv_field(row, value_index) or "").strip()
            if raw_val in _MISSING_TOKENS:
                value = math.nan
            else:
                try:
                    value = float(raw_val)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}: invalid number {raw_val!r}"
                    ) from None
                if math.isinf(value) or math.isnan(value):
                    raise ParseError(
                        f"{path}: row {lineno}: non-finite value {raw_val!r}"
                    )
            days.append(day)
            values.append(value)
    if not days:
        raise EmptySeries(f"{path}: no data rows")
    unsorted = np.array(days, dtype=np.int64)
    order = np.argsort(unsorted, kind="stable")
    sorted_days = unsorted[order]
    dup = np.flatnonzero(np.diff(sorted_days) == 0)
    if len(dup):
        raise DuplicateTimestamp(
            f"{path}: duplicate date {format_epoch_day(int(sorted_days[dup[0]]))}"
        )
    return TimeSeries(sorted_days, np.array(values, dtype=np.float64)[order], name=value_column)


def write_csv(ts: TimeSeries, path, date_column: str = "ds", value_column: str = "y") -> None:
    """Write a series as CSV; floats use shortest round-trip formatting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([date_column, value_column])
        writer.writerows(
            zip(
                map(format_epoch_day, ts.timestamps.tolist()),
                ["NA" if math.isnan(v) else v for v in ts.values.tolist()],
            )
        )


def log_transform(ts: TimeSeries, offset: float = 0.0) -> TimeSeries:
    """Replace values by ln(value + offset); timestamps unchanged.

    The offset handles zero-valued observations (offset=1 for count data).
    """
    if offset < 0:
        raise DomainError(f"offset must be nonnegative, got {offset}")
    shifted = ts.values + offset
    if np.any(shifted <= 0):
        bad = float(ts.values[np.nanargmin(shifted)])
        raise DomainError(
            f"log transform undefined: value {bad} + offset {offset} <= 0"
        )
    return TimeSeries(ts.timestamps, np.log(shifted), ts.name)


def forward_fill(ts: TimeSeries) -> TimeSeries:
    """Replace each missing value by the most recent preceding observation."""
    v = ts.values
    missing = np.isnan(v)
    if not missing.any():
        return ts
    if missing[0]:
        raise LeadingMissing("first observation is missing; cannot forward fill")
    idx = np.where(~missing, np.arange(len(v)), 0)
    np.maximum.accumulate(idx, out=idx)
    return TimeSeries(ts.timestamps, v[idx], ts.name)


def filter_weekdays(ts: TimeSeries) -> TimeSeries:
    """Keep only Monday-Friday observations, preserving order."""
    mask = weekday_of(ts.timestamps) < 5
    if not mask.any():
        raise EmptySeries("no weekday observations remain")
    return ts.slice_mask(mask)


def chronological_split(ts: TimeSeries, cutoff: int) -> SplitResult:
    """Partition into train (timestamps <= cutoff) and test (> cutoff)."""
    first = int(ts.timestamps[0])
    last = int(ts.timestamps[-1])
    if not (first <= cutoff < last):
        raise CutoffOutOfRange(
            f"cutoff {format_epoch_day(cutoff)} outside "
            f"[{format_epoch_day(first)}, {format_epoch_day(last)})"
        )
    mask = ts.timestamps <= cutoff
    return SplitResult(
        train=ts.slice_mask(mask),
        test=ts.slice_mask(~mask),
        cutoff=int(cutoff),
    )
