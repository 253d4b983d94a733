"""Forecast-accuracy metrics, rolling-origin cross-validation, horizon-bucket
summaries, and the Diebold-Mariano comparison test."""

from __future__ import annotations

import math

import numpy as np

from .config import ModelConfig
from .errors import (
    AddcastError,
    DomainError,
    EmptyInput,
    InvertedBounds,
    LengthMismatch,
    SpanTooShort,
    TooShort,
)
from .estimator import fit
from .features import shared_fold_work
from .forecast import FutureGrid, bound_columns, forecast_with_intervals, make_future_grid
from .timeseries import TimeSeries, format_epoch_day, write_table


# The interval level whose coverage every report states: the per-horizon CV
# metrics, the fold export and compare's candidate reports.
COVERAGE_LEVEL = 0.95

# The fold export's columns, which are a fold's keys. Folds report coverage,
# and can be exported, only when every one of them carries the
# COVERAGE_LEVEL bounds.
_COVERAGE_COLUMNS = bound_columns(COVERAGE_LEVEL)
_EXPORT_COLUMNS = ("cutoff", "ds", "y", "yhat", *_COVERAGE_COLUMNS)


def _paired(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y_true, dtype=np.float64)
    b = np.asarray(y_pred, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"length {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise EmptyInput("metrics need at least one observation")
    return a, b


def _row(x: np.ndarray) -> np.ndarray:
    return x.reshape(1, -1)


# Each metric is defined once, row-wise over (m, n) matrices: a row reduced
# with axis=1 gives the same bits as the 1-D reduction of that row, so the
# single-series functions and the per-horizon report share these.

def _rmse_rows(error: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(np.square(error), axis=1))


def _mae_rows(error: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(error), axis=1)


def _ape_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean absolute percentage error of each row; every truth is nonzero."""
    return np.mean(np.abs((a - b) / a), axis=1) * 100.0


def _coverage_rows(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.mean((a >= lo) & (a <= hi), axis=1) * 100.0


def rmse(y_true, y_pred) -> float:
    """Root mean squared error."""
    a, b = _paired(y_true, y_pred)
    return float(_rmse_rows(_row(a - b))[0])


def mae(y_true, y_pred) -> float:
    """Mean absolute error."""
    a, b = _paired(y_true, y_pred)
    return float(_mae_rows(_row(a - b))[0])


def mape(y_true, y_pred) -> float | None:
    """Mean absolute percentage error over nonzero-truth entries, in percent.

    Returns None when every truth is zero (the metric is undefined there).
    """
    a, b = _paired(y_true, y_pred)
    mask = a != 0
    if not mask.any():
        return None
    return float(_ape_rows(_row(a[mask]), _row(b[mask]))[0])


def coverage(y_true, lower, upper) -> float:
    """Percentage of truths inside [lower, upper], bounds inclusive."""
    a = np.asarray(y_true, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if not (a.shape == lo.shape == hi.shape):
        raise LengthMismatch(f"lengths {len(a)}/{len(lo)}/{len(hi)}")
    if len(a) == 0:
        raise EmptyInput("coverage needs at least one observation")
    if np.any(lo > hi):
        raise InvertedBounds("lower bound exceeds upper bound")
    return float(_coverage_rows(_row(a), _row(lo), _row(hi))[0])


def _checked_report(model_name, rmse_, mae_, mape_, coverage_) -> dict:
    """The report of one forecast, percentages None for all-zero truths (MAPE)
    or without bounds (coverage); a metric that is not finite (it
    overflowed) is a DomainError that names ``model_name``."""
    report = dict(rmse=rmse_, mae=mae_, mape_percent=mape_, coverage_percent=coverage_)
    if not all(v is None or math.isfinite(v) for v in report.values()):
        raise DomainError(f"{model_name}: a metric overflowed: {report}")
    return report


def evaluate_forecast(model_name: str, y_true, y_pred, lower=None, upper=None) -> dict:
    """The metric report of one forecast, coverage when bounds given; a
    metric that overflows is a DomainError."""
    cov = None
    if lower is not None and upper is not None:
        cov = coverage(y_true, lower, upper)
    with np.errstate(over="ignore"):  # an overflow is raised below instead
        return _checked_report(
            model_name, rmse(y_true, y_pred), mae(y_true, y_pred), mape(y_true, y_pred), cov
        )


# --- rolling-origin cross-validation -----------------------------------------

def enumerate_cutoffs(ts: TimeSeries, initial: int, period: int, horizon: int) -> list[int]:
    """Cutoff epoch-days c_i = last - horizon - i*period while
    c_i >= first + initial, returned ascending."""
    if period < 1:
        raise DomainError("period must be >= 1 day")
    if initial < 0 or horizon < 1:
        raise DomainError("initial must be >= 0 and horizon >= 1")
    first = int(ts.timestamps[0])
    last = int(ts.timestamps[-1])
    if initial + horizon > last - first:
        raise SpanTooShort(
            f"initial ({initial}) + horizon ({horizon}) exceeds span ({last - first})"
        )
    cutoffs = []
    c = last - horizon
    while c >= first + initial:
        cutoffs.append(c)
        c -= period
    return cutoffs[::-1]


def rolling_cv(
    config: ModelConfig, ts: TimeSeries, initial: int, period: int, horizon: int
) -> list[dict]:
    """Fit at each cutoff on data <= cutoff, forecast the next ``horizon``
    days, and join with the held-out actuals: one fold per cutoff, in
    ascending order. A fold is the dict of the fold export's columns:
    ``"cutoff"`` (an epoch day), then the arrays ``"ds"`` (every day in
    (cutoff, cutoff + horizon] that the series holds), ``"y"``, ``"yhat"``
    and ``forecast.bound_columns(level)`` for each interval level. Folds are
    independent and deterministic; fit errors are annotated with their
    cutoff.

    Each fold builds, evaluates and simulates only the days after its
    training data. Its point forecast and bounds equal a full-grid
    ``forecast_with_intervals`` at the same days bit for bit. The folds
    share one build of the seasonal and holiday columns of the series' days,
    so a fold builds only its trend and regressor columns, and one
    future-noise draw (``features.shared_fold_work``). Both are dropped
    when the call returns."""
    cutoffs = enumerate_cutoffs(ts, initial, period, horizon)
    with shared_fold_work(config, ts.timestamps):
        return [_cv_fold(config, ts, cutoff, horizon) for cutoff in cutoffs]


def holdout_forecast(
    config: ModelConfig, train: TimeSeries, days: np.ndarray, last_day: int
) -> tuple[np.ndarray, dict]:
    """Fit ``config`` on ``train`` and forecast the held-out ``days``, all
    after the training data and at most ``last_day``: ``(yhat, bounds)`` at
    ``days``, bounds mapping each interval level to (lower, upper).

    The grid runs through ``last_day``, which a future day's bounds depend
    on, and only its days after the training data, the ``n_obs`` days that
    ``make_future_grid`` puts first, are built, evaluated and simulated."""
    model = fit(train, config)
    grid = make_future_grid(model, last_day - model.last_day)
    horizon = FutureGrid(grid.timestamps[model.n_obs :], grid.regressor_values)
    fc = forecast_with_intervals(model, horizon)
    idx = np.searchsorted(fc.timestamps, days)
    return fc.yhat[idx], {level: (lo[idx], hi[idx]) for level, (lo, hi) in fc.bounds.items()}


def _cv_fold(config: ModelConfig, ts: TimeSeries, cutoff: int, horizon: int) -> dict:
    test_mask = (ts.timestamps > cutoff) & (ts.timestamps <= cutoff + horizon)
    test_days = ts.timestamps[test_mask]
    try:
        yhat, bounds = holdout_forecast(
            config, ts.slice_mask(ts.timestamps <= cutoff), test_days, cutoff + horizon
        )
    except AddcastError as exc:
        raise type(exc)(
            f"cutoff {format_epoch_day(cutoff)}: {exc}"
        ) from exc
    fold = {"cutoff": cutoff, "ds": test_days, "y": ts.values[test_mask], "yhat": yhat}
    for level, pair in bounds.items():
        fold.update(zip(bound_columns(level), pair))
    return fold


def _bounded(folds: list[dict]) -> bool:
    return all(column in fold for fold in folds for column in _COVERAGE_COLUMNS)


def performance_by_horizon(folds: list[dict]) -> dict[int, dict]:
    """Metrics grouped by lead time (ds - cutoff) in days, across folds.

    Each lead's report equals ``evaluate_forecast`` on its rows in fold
    order, bit for bit, with the COVERAGE_LEVEL bounds when every fold
    carries them; otherwise every lead's coverage is None. Leads are checked
    in ascending order, so the first one with inverted bounds or an
    overflowing metric raises."""
    if not folds:
        raise EmptyInput("no cross-validation folds")
    leads = np.concatenate([np.asarray(f["ds"], dtype=np.int64) - f["cutoff"] for f in folds])
    # A stable sort keeps each lead's rows in fold order.
    order = np.argsort(leads, kind="stable")

    def pooled(column):
        return np.concatenate([np.asarray(f[column], dtype=np.float64) for f in folds])[order]

    y = pooled("y")
    pred = pooled("yhat")
    bounded = _bounded(folds)
    if bounded:
        lower, upper = map(pooled, _COVERAGE_COLUMNS)
    # Each lead's rows are the run starts[i]:starts[i] + counts[i] of the
    # sorted leads (np.unique would give the same but loads numpy.ma).
    leads = leads[order]
    first = np.ones(len(leads), dtype=bool)
    first[1:] = leads[1:] != leads[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(leads)))
    lead_days = leads[starts]

    n = len(lead_days)
    rmse_ = np.empty(n)
    mae_ = np.empty(n)
    mape_ = np.full(n, None, dtype=object)
    coverage_ = np.full(n, None, dtype=object)
    inverted = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore"):  # an overflow is raised below instead
        for count in sorted(set(counts.tolist())):
            group = np.flatnonzero(counts == count)
            rows = starts[group, np.newaxis] + np.arange(count)
            a, b = y[rows], pred[rows]
            rmse_[group] = _rmse_rows(a - b)
            mae_[group] = _mae_rows(a - b)
            nonzero = (a != 0).all(axis=1)
            mape_[group[nonzero]] = _ape_rows(a[nonzero], b[nonzero]).tolist()
            mape_[group[~nonzero]] = [mape(x, p) for x, p in zip(a[~nonzero], b[~nonzero])]
            if bounded:
                lo, hi = lower[rows], upper[rows]
                inverted[group] = (lo > hi).any(axis=1)
                coverage_[group] = _coverage_rows(a, lo, hi).tolist()

    out = {}
    for lead, *metrics, bad in zip(
        lead_days.tolist(), rmse_.tolist(), mae_.tolist(), mape_, coverage_, inverted
    ):
        if bad:
            raise InvertedBounds("lower bound exceeds upper bound")
        out[lead] = _checked_report(f"horizon_{lead}d", *metrics)
    return out


def require_fold_export_level(levels) -> None:
    """The fold export writes COVERAGE_LEVEL bounds: ``levels`` must hold
    it."""
    if COVERAGE_LEVEL not in levels:
        raise DomainError(f"fold export requires {COVERAGE_LEVEL:.0%} interval bounds")


def write_cv_folds_csv(folds: list[dict], path) -> None:
    """Fold export: cutoff,ds,y,yhat,yhat_lower_95,yhat_upper_95, those keys
    of each fold, one row per held-out day. Every fold must carry 95% bounds;
    that is checked before anything is written, so a fold without them
    leaves no file behind."""
    if not _bounded(folds):
        raise DomainError(f"fold export requires {COVERAGE_LEVEL:.0%} interval bounds")
    rows = []
    for fold in folds:
        rows += zip(
            [format_epoch_day(fold["cutoff"])] * len(fold["ds"]),
            map(format_epoch_day, fold["ds"].tolist()),
            *(np.asarray(fold[column], dtype=np.float64).tolist()
              for column in _EXPORT_COLUMNS[2:]),
        )
    write_table(path, list(_EXPORT_COLUMNS), rows)


# --- Diebold-Mariano test -----------------------------------------------------

def _interpret(p_value: float) -> str:
    if p_value < 0.01:
        return "highly significant"
    if p_value < 0.05:
        return "significant"
    if p_value < 0.10:
        return "marginally significant"
    return "not significant"


def dm_test(e1, e2, loss: str = "squared", h: int = 1) -> dict:
    """Equal-accuracy test on the loss differential d_t = L(e1_t) - L(e2_t),
    as {statistic, p_value, mean_loss_diff, interpretation}; a negative
    statistic favours ``e1`` (smaller loss).

    The long-run variance uses lags 0..h-1 with Bartlett weights (1 - l/n);
    a nonpositive estimate falls back to the lag-0 variance, and identical
    losses (zero variance) return statistic 0 with p-value 1. A loss
    differential whose mean or variance is not finite (it overflowed) is a
    DomainError.
    """
    a = np.asarray(e1, dtype=np.float64)
    b = np.asarray(e2, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"length {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise TooShort("the test needs at least 2 forecast errors")
    if h < 1:
        raise DomainError("horizon h must be >= 1")

    if loss not in ("squared", "absolute"):
        raise DomainError("loss must be 'squared' or 'absolute'")
    loss_of = np.square if loss == "squared" else np.abs

    n = len(a)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        d = loss_of(a) - loss_of(b)
        d_bar = float(np.mean(d))
        centered = d - d_bar
        gamma0 = float(np.mean(np.square(centered)))
        var_d = gamma0
        for lag in range(1, min(h, n)):
            gamma_l = float(np.mean(centered[lag:] * centered[:-lag]))
            var_d += 2.0 * gamma_l * (1.0 - lag / n)
    if not (math.isfinite(d_bar) and math.isfinite(var_d)):
        raise DomainError(
            f"the loss differential overflowed: mean {d_bar!r}, variance {var_d!r}"
        )
    if gamma0 == 0.0:
        statistic, p_value = 0.0, 1.0
    else:
        if var_d <= 0.0:
            var_d = gamma0
        statistic = d_bar / math.sqrt(var_d / n)
        p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    return dict(
        statistic=statistic, p_value=p_value, mean_loss_diff=d_bar,
        interpretation=_interpret(p_value),
    )
