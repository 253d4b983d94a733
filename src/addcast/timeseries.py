"""Time-series container, CSV ingestion, preprocessing transforms,
chronological splitting, and the one writer every output file goes through.

Timestamps are calendar dates encoded as integer UTC epoch-days (days since
1970-01-01); there is deliberately no time-of-day or timezone support.
Missing values are represented as NaN and are only legal between loading and
``forward_fill`` — model-facing series must be dense.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
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
# The first epoch-day a date can hold: 0001-01-01.
_MIN_EPOCH_DAY = date.min.toordinal() - _EPOCH_ORDINAL

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# Dates that each end in a NUL, for one match over a whole column.
_ISO_DATES = re.compile(f"(?:{_ISO_DATE.pattern}\\0)*")

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
            yield columns, filter(None, reader)
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def csv_field(row: list, index: int) -> str | None:
    """Field ``index`` of a CSV row, or None when the row is too short."""
    return row[index] if index < len(row) else None


def date_to_epoch_day(d: date) -> int:
    return d.toordinal() - _EPOCH_ORDINAL


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


def frozen(values, dtype) -> np.ndarray:
    """A read-only, C-contiguous copy of ``values`` as ``dtype``, with at
    least one dimension: what a record stores, so that neither the record
    nor the caller can change the other's array."""
    arr = np.array(values, dtype=dtype, order="C", ndmin=1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Immutable timestamped series of real-valued observations.

    Invariants: timestamps strictly increasing with no duplicates; values may
    contain NaN (missing markers) only before preprocessing resolves them.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = frozen(self.timestamps, np.int64)
        v = frozen(self.values, np.float64)
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
        return TimeSeries(self.timestamps[mask], self.values[mask])


def load_csv(path) -> TimeSeries:
    """Load a daily series from a headered CSV file with ``ds`` and ``y``
    columns.

    The rows are read by ``read_columns``, sorted ascending by date, with
    the empty field and the literal ``NA`` read as missing markers (NaN).
    """
    days, columns = read_columns(path, ("y",), missing=True)
    if len(days) == 0:
        raise EmptySeries(f"{path}: no data rows")
    return TimeSeries(days, columns["y"])


def read_columns(path, required, optional=(), date_column="ds", missing=False):
    """``(days, {column: values})`` of a headered CSV file, rows sorted by date.

    The header must hold ``date_column`` and the ``required`` columns; each
    group of names in ``optional`` is read when the header holds all of it,
    and other columns are ignored. With ``date_column=None`` ``days`` is
    None and rows keep file order. Dates are strict ``YYYY-MM-DD``, and a
    repeated one is a DuplicateTimestamp. Values are finite reals; with
    ``missing``, the empty field and ``NA`` read as NaN.

    All rows are checked at once, over arrays (``_parse_columns``). A file
    that fails a check is read again row by row (``_parse_rows``), and its
    first bad row raises ParseError naming it; so do the rows read before
    one that cannot be decoded or split, before that error is raised.
    """
    header_columns = required if date_column is None else (date_column, *required)
    with csv_reader(path, header_columns) as (columns, reader):
        names = [*required, *(n for g in optional if all(c in columns for c in g) for n in g)]
        date_index = None if date_column is None else columns[date_column]
        value_indexes = [columns[name] for name in names]
        rows = []
        try:
            rows.extend(reader)
        except (csv.Error, UnicodeDecodeError):
            _parse_rows(path, rows, date_index, value_indexes, missing)
            raise
    parsed = _parse_columns(rows, date_index, value_indexes, missing)
    if parsed is None:
        parsed = _parse_rows(path, rows, date_index, value_indexes, missing)
    days, values = parsed
    if days is not None:
        order = np.argsort(days, kind="stable")
        days, values = days[order], values[:, order]
        dup = np.flatnonzero(np.diff(days) == 0)
        if len(dup):
            raise DuplicateTimestamp(
                f"{path}: duplicate date {format_epoch_day(int(days[dup[0]]))}"
            )
    return days, dict(zip(names, values))


def _parse_columns(rows: list, date_index, value_indexes: list, missing: bool):
    """``(days, values)`` of the rows, ``values`` holding one row per value
    column, or None when some row fails a check."""
    days = None
    if date_index is not None:
        try:
            raw_dates = [row[date_index].strip() for row in rows]
        except IndexError:
            return None
        # One match over the dates, each followed by a NUL: with n dates of 10
        # characters the text has 11 * n, so a date holding a NUL of its own
        # cannot pass as two.
        joined = "\0".join(raw_dates) + "\0"
        if len(joined) != 11 * len(raw_dates) or not _ISO_DATES.fullmatch(joined):
            return None
        try:
            days = np.array(raw_dates, dtype="datetime64[D]").astype(np.int64)
        except ValueError:
            return None
        # datetime64 also takes year 0, which a date cannot hold.
        if len(days) and days.min() < _MIN_EPOCH_DAY:
            return None
    markers = _MISSING_TOKENS if missing else ()
    values = np.empty((len(value_indexes), len(rows)))
    for out, index in zip(values, value_indexes):
        raw_values = [row[index].strip() if index < len(row) else "" for row in rows]
        try:
            out[:] = [math.nan if v in markers else float(v) for v in raw_values]
        except ValueError:
            return None
        bad = np.flatnonzero(~np.isfinite(out))
        if any(raw_values[i] not in markers for i in bad.tolist()):
            return None
    return days, values


def _parse_rows(path, rows: list, date_index, value_indexes: list, missing: bool):
    """``(days, values)`` as ``_parse_columns`` gives them, checked one row
    at a time; the first bad row raises ParseError naming it."""
    markers = _MISSING_TOKENS if missing else ()
    days: list[int] = []
    values: list[float] = []
    for lineno, row in enumerate(rows, start=2):
        if date_index is not None:
            raw_date = csv_field(row, date_index)
            if raw_date is None:
                raise ParseError(f"{path}: row {lineno}: missing date field")
            try:
                days.append(parse_iso_date(raw_date))
            except ParseError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from None
        for index in value_indexes:
            raw_val = (csv_field(row, index) or "").strip()
            try:
                value = math.nan if raw_val in markers else float(raw_val)
            except ValueError:
                raise ParseError(f"{path}: row {lineno}: invalid number {raw_val!r}") from None
            if not (math.isfinite(value) or raw_val in markers):
                raise ParseError(f"{path}: row {lineno}: non-finite value {raw_val!r}")
            values.append(value)
    shape = (len(rows), len(value_indexes))
    return (
        None if date_index is None else np.array(days, dtype=np.int64),
        np.array(values, dtype=np.float64).reshape(shape).T,
    )


def _staging(path) -> tuple[str, str]:
    """``(target, written)``: the real path of ``path``, and the path to
    write it through, a temporary file beside it, or the target itself when
    it exists but is not a regular file (a FIFO, a device)."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return target, target
    directory, name = os.path.split(target)
    return target, os.path.join(directory, f".{name}.{os.getpid()}.tmp")


@contextmanager
def published_together(*paths):
    """Yield the list of paths to write, one for each of ``paths``, and
    publish every file when the block ends without error.

    Each written path is a temporary file beside its target, and the files
    replace their targets in order after the block. So an error in the
    block leaves every target as it was, and no temporary file behind. A
    symbolic link is followed, and a target that exists but is not a
    regular file is written in place: its own path is yielded. A new file
    gets mode ``0o666 & ~umask``.
    """
    staged = [_staging(path) for path in paths]
    try:
        yield [written for _, written in staged]
        for target, written in staged:
            if written != target:
                os.replace(written, target)
    except BaseException:
        for target, written in staged:
            if written != target:
                with suppress(FileNotFoundError):
                    os.unlink(written)
        raise


def write_output(path, data: bytes) -> None:
    """Publish ``data`` as the whole content of the file at ``path``, the
    one-file case of ``published_together``."""
    with published_together(path) as (written,):
        with open(written, "wb") as fh:
            fh.write(data)


def write_table(path, header: list, rows) -> None:
    """Write a CSV table through ``write_output``: the csv module's default
    dialect, CRLF line ends, floats as shortest round-trip decimals."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_output(path, text.getvalue().encode("utf-8"))


def log_transform(ts: TimeSeries, offset: float = 0.0) -> TimeSeries:
    """Replace values by ln(value + offset); timestamps unchanged.

    The offset handles zero-valued observations (offset=1 for count data).
    """
    if not (math.isfinite(offset) and offset >= 0):
        raise DomainError(f"log offset must be finite and nonnegative, got {offset}")
    shifted = ts.values + offset
    if np.any(shifted <= 0):
        bad = float(ts.values[np.nanargmin(shifted)])
        raise DomainError(
            f"log transform undefined: value {bad} + offset {offset} <= 0"
        )
    return TimeSeries(ts.timestamps, np.log(shifted))


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
    return TimeSeries(ts.timestamps, v[idx])


def filter_weekdays(ts: TimeSeries) -> TimeSeries:
    """Keep only Monday-Friday observations, preserving order."""
    mask = weekday_of(ts.timestamps) < 5
    if not mask.any():
        raise EmptySeries("no weekday observations remain")
    return ts.slice_mask(mask)


def chronological_split(ts: TimeSeries, cutoff: int) -> tuple[TimeSeries, TimeSeries]:
    """Partition into ``(train, test)``: train holds the timestamps <= cutoff
    and test those > cutoff, and together they restore the input series."""
    first = int(ts.timestamps[0])
    last = int(ts.timestamps[-1])
    if not (first <= cutoff < last):
        raise CutoffOutOfRange(
            f"cutoff {format_epoch_day(cutoff)} outside "
            f"[{format_epoch_day(first)}, {format_epoch_day(last)})"
        )
    mask = ts.timestamps <= cutoff
    return ts.slice_mask(mask), ts.slice_mask(~mask)
