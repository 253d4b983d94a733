import csv
import math
import os
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from addcast.config import ModelConfig, TrendSpec
from addcast.estimator import _model_parts
from addcast.features import DesignMatrix, changepoint_basis, expit, model_layout
from addcast.timeseries import TimeSeries, format_epoch_day, parse_iso_date

# pyproject.toml puts src/ on this process's path; tests that start
# `python -m addcast` need it too when the package is not installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def daily_days(start_iso: str, n: int) -> np.ndarray:
    start = parse_iso_date(start_iso)
    return np.arange(start, start + n, dtype=np.int64)


def make_series(start_iso: str, values) -> TimeSeries:
    values = np.asarray(values, dtype=np.float64)
    return TimeSeries(daily_days(start_iso, len(values)), values)


def assert_keeps_its_own_copy(build, array) -> None:
    """``build(view)``, given a view of ``array``, builds a record and
    returns the array it stores: that must be a read-only copy, so writing
    ``array`` afterwards leaves the record as built, and the caller's view
    stays writable."""
    view = array[:]
    stored = build(view)
    built = array.copy()
    array[:] = 0
    assert view.flags.writeable
    assert not stored.flags.writeable
    assert np.array_equal(stored, built)


def _edit_days(change):
    """A model document edit that maps its training days with ``change``."""

    def edit(doc):
        summary = doc["train_summary"]
        summary["timestamps"] = change(summary["timestamps"])

    return edit


def _nest_delta_and_changepoints(doc):
    params = doc["parameters"]
    for key in ("delta", "changepoints"):
        params[key] = [[value] for value in params[key]]


def _set_scaling(**values):
    return lambda doc: doc["scaling"].update(values)


def _start_after_last_day(doc):
    doc["scaling"]["t_start"] = doc["train_summary"]["timestamps"][-1] + 1.0


_OUT_OF_RANGE = "train_timestamps must lie between 0001-01-01 and 9999-12-31"
_NOT_ITS_SCALING = "the one the training days give"
# In-place edits of a model document, each with the fragment of the
# DomainError that loading the edited document raises. Each such document
# used to load and then fail to forecast with an exception that is not an
# AddcastError, or to ask for GiBs of simulation (t_span 1e-3 and 1e-6).
UNFORECASTABLE_DOCUMENTS = {
    "no_days": (_edit_days(lambda days: []), "at least 2 training days"),
    "one_day": (_edit_days(lambda days: days[:1]), "at least 2 training days"),
    "nested_days": (
        _edit_days(lambda days: [[day] for day in days]), "train_timestamps must be 1-dimensional"
    ),
    "nested_delta": (_nest_delta_and_changepoints, "delta must be 1-dimensional"),
    "days_plus_1e9": (_edit_days(lambda days: [day + 10**9 for day in days]), _OUT_OF_RANGE),
    "days_minus_1e9": (_edit_days(lambda days: [day - 10**9 for day in days]), _OUT_OF_RANGE),
    "last_day_2**62": (_edit_days(lambda days: [*days[:-1], 2**62]), _OUT_OF_RANGE),
    "days_plus_1": (_edit_days(lambda days: [day + 1 for day in days]), _NOT_ITS_SCALING),
    "t_start_after_last_day": (_start_after_last_day, _NOT_ITS_SCALING),
    "t_span_1e300": (_set_scaling(t_span=1e300), _NOT_ITS_SCALING),
    "t_span_1e-3": (_set_scaling(t_span=1e-3), _NOT_ITS_SCALING),
    "t_span_1e-6": (_set_scaling(t_span=1e-6), _NOT_ITS_SCALING),
}


def epoch_date(day) -> date:
    """The calendar date of an epoch-day (days since 1970-01-01)."""
    return date.fromordinal(date(1970, 1, 1).toordinal() + int(day))


def write_series_csv(ts: TimeSeries, path) -> None:
    """``ts`` as a ds,y CSV in the bytes the package's writers give: the csv
    module's default dialect (CRLF line ends), floats as shortest round-trip
    decimals and NA for NaN."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ds", "y"])
        for day, value in zip(ts.timestamps.tolist(), ts.values.tolist()):
            writer.writerow([format_epoch_day(day), "NA" if math.isnan(value) else value])


def trend_oracle(t, k, m, delta, cps, trend: TrendSpec) -> np.ndarray:
    """The growth curve g(t) from the model's definition (Taylor & Letham
    2018, section 2.1): a_j(t) = 1 iff t >= s_j, the rate k + a(t)'delta,
    the offset m + a(t)'gamma with gamma_j = -s_j * delta_j, and g =
    rate * t + offset (linear) or C * expit(rate * t + offset)
    (logistic). ``k`` and ``m`` may be arrays that broadcast against t."""
    t = np.asarray(t, dtype=np.float64)
    cps = np.asarray(cps, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    a = (t[..., np.newaxis] >= cps).astype(np.float64)
    rate = k + a @ delta
    offset = m + a @ (-cps * delta)
    line = rate * t + offset
    if trend.growth == "linear":
        return line
    return trend.capacity * expit(line)


def program_trend(t, k, m, delta, cps, trend: TrendSpec) -> np.ndarray:
    """The trend the estimator and the forecast evaluate, at scaled times
    ``t``: ``_model_parts`` on a design of changepoint columns alone."""
    t = np.asarray(t, dtype=np.float64)
    cps = np.asarray(cps, dtype=np.float64)
    n = len(cps)
    layout = model_layout(ModelConfig(trend=TrendSpec(n_changepoints=n), seasonalities=()), n)
    design = DesignMatrix(t, cps, changepoint_basis(t, cps), layout)
    return _model_parts(np.concatenate(([k, m], delta)), design, trend).trend


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_temporary_output_files(request):
    """Fail a test that leaves one of ``write_output``'s temporary files
    (``.<name>.<pid>.tmp``) in its ``tmp_path``."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(p.name for p in tmp_path.rglob(".*.tmp"))
    if left:
        pytest.fail(f"temporary output files left behind: {left}")
