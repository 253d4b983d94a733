"""Forecast-accuracy metrics, rolling-origin cross-validation, horizon-bucket
summaries, and the Diebold-Mariano comparison test."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
from .features import shared_day_columns
from .forecast import forecast_with_intervals, make_future_grid, shared_future_noise
from .timeseries import TimeSeries, format_epoch_day


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


@dataclass(frozen=True)
class MetricReport:
    """Point-accuracy metrics for one model, MAPE in percent.

    mape_percent is None for all-zero truths; coverage_percent is None when
    no interval bounds were available.
    """

    model_name: str
    rmse: float
    mae: float
    mape_percent: float | None
    coverage_percent: float | None = None

    def to_dict(self) -> dict:
        return {
            "rmse": self.rmse,
            "mae": self.mae,
            "mape_percent": self.mape_percent,
            "coverage_percent": self.coverage_percent,
        }


def _checked_report(model_name, rmse_, mae_, mape_, coverage_) -> MetricReport:
    """The report of one forecast; a metric that is not finite (it
    overflowed) is a DomainError."""
    report = MetricReport(model_name, rmse_, mae_, mape_, coverage_)
    if not all(v is None or math.isfinite(v) for v in report.to_dict().values()):
        raise DomainError(f"{model_name}: a metric overflowed: {report.to_dict()}")
    return report


def evaluate_forecast(
    model_name: str, y_true, y_pred, lower=None, upper=None
) -> MetricReport:
    """All accuracy metrics for one forecast, coverage when bounds given;
    a metric that overflows is a DomainError."""
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


@dataclass(frozen=True)
class CvFold:
    """Held-out rows for one cutoff: every ds is inside (cutoff, cutoff+horizon]."""

    cutoff: int
    ds: np.ndarray
    y_true: np.ndarray
    yhat: np.ndarray
    bounds: dict

    def __len__(self) -> int:
        return len(self.ds)


@shared_future_noise()
def rolling_cv(
    config: ModelConfig, ts: TimeSeries, initial: int, period: int, horizon: int
) -> list[CvFold]:
    """Fit at each cutoff on data <= cutoff, forecast the next ``horizon``
    days, and join with the held-out actuals. Folds are independent and
    deterministic; fit errors are annotated with their cutoff.

    Each fold builds, evaluates and simulates only the days after its
    training data. Its point forecast and bounds equal a full-grid
    ``forecast_with_intervals`` at the same days bit for bit. The folds
    share one future-noise draw (``forecast.shared_future_noise``) and one
    build of the seasonal and holiday columns of the series' days
    (``features.shared_day_columns``), so a fold builds only its trend and
    regressor columns. Both are dropped when the call returns."""
    cutoffs = enumerate_cutoffs(ts, initial, period, horizon)
    with shared_day_columns(config, ts.timestamps):
        return [_cv_fold(config, ts, cutoff, horizon) for cutoff in cutoffs]


def _cv_fold(config: ModelConfig, ts: TimeSeries, cutoff: int, horizon: int) -> CvFold:
    train_mask = ts.timestamps <= cutoff
    test_mask = (ts.timestamps > cutoff) & (ts.timestamps <= cutoff + horizon)
    train = ts.slice_mask(train_mask)
    try:
        model = fit(train, config)
        periods = cutoff + horizon - int(train.timestamps[-1])
        grid = make_future_grid(model, periods)
        fc = forecast_with_intervals(model, grid, history=False)
    except AddcastError as exc:
        raise type(exc)(
            f"cutoff {format_epoch_day(cutoff)}: {exc}"
        ) from exc
    test_days = ts.timestamps[test_mask]
    idx = np.searchsorted(fc.timestamps, test_days)
    bounds = {
        level: (lo[idx], hi[idx]) for level, (lo, hi) in fc.bounds.items()
    }
    return CvFold(
        cutoff=cutoff,
        ds=test_days,
        y_true=ts.values[test_mask],
        yhat=fc.yhat[idx],
        bounds=bounds,
    )


def performance_by_horizon(folds: list[CvFold]) -> dict[int, MetricReport]:
    """Metrics grouped by lead time (ds - cutoff) in days, across folds.

    Each lead's report equals ``evaluate_forecast`` on its rows in fold
    order, bit for bit, with the widest interval level's bounds; coverage is
    None for a lead with a row from a fold without bounds. Leads are checked
    in ascending order, so the first one with inverted bounds or an
    overflowing metric raises."""
    if not folds:
        raise EmptyInput("no cross-validation folds")
    leads = np.concatenate([np.asarray(f.ds, dtype=np.int64) - f.cutoff for f in folds])
    # A stable sort keeps each lead's rows in fold order.
    order = np.argsort(leads, kind="stable")

    def pooled(columns):
        return np.concatenate([np.asarray(c, dtype=np.float64) for c in columns])[order]

    widest = [
        f.bounds[max(f.bounds)] if f.bounds else (np.full(len(f), np.nan),) * 2
        for f in folds
    ]
    y = pooled(f.y_true for f in folds)
    pred = pooled(f.yhat for f in folds)
    lower = pooled(b[0] for b in widest)
    upper = pooled(b[1] for b in widest)
    bounded = np.repeat([bool(f.bounds) for f in folds], [len(f) for f in folds])[order]
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
            has = bounded[rows].all(axis=1)
            lo, hi = lower[rows[has]], upper[rows[has]]
            inverted[group[has]] = (lo > hi).any(axis=1)
            coverage_[group[has]] = _coverage_rows(a[has], lo, hi).tolist()

    out = {}
    for lead, *metrics, bad in zip(
        lead_days.tolist(), rmse_.tolist(), mae_.tolist(), mape_, coverage_, inverted
    ):
        if bad:
            raise InvertedBounds("lower bound exceeds upper bound")
        out[lead] = _checked_report(f"horizon_{lead}d", *metrics)
    return out


def require_fold_export_level(levels) -> None:
    """The fold export writes 95% bounds: ``levels`` must hold 0.95."""
    if 0.95 not in levels:
        raise DomainError("fold export requires 95% interval bounds")


def write_cv_folds_csv(folds: list[CvFold], path) -> None:
    """Fold export: cutoff,ds,y,yhat,yhat_lower_95,yhat_upper_95. Every
    fold must carry 95% bounds; that is checked before the file is opened,
    so a fold without them leaves no file behind."""
    for fold in folds:
        require_fold_export_level(fold.bounds)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cutoff", "ds", "y", "yhat", "yhat_lower_95", "yhat_upper_95"])
        for fold in folds:
            lo, hi = fold.bounds[0.95]
            writer.writerows(
                zip(
                    [format_epoch_day(fold.cutoff)] * len(fold),
                    map(format_epoch_day, fold.ds.tolist()),
                    *(np.asarray(col, dtype=np.float64).tolist()
                      for col in (fold.y_true, fold.yhat, lo, hi)),
                )
            )


# --- Diebold-Mariano test -----------------------------------------------------

@dataclass(frozen=True)
class DmResult:
    """Diebold-Mariano comparison of two forecast-error series.

    A negative statistic favours the first series (smaller loss).
    """

    statistic: float
    p_value: float
    mean_loss_diff: float
    interpretation: str


def _interpret(p_value: float) -> str:
    if p_value < 0.01:
        return "highly significant"
    if p_value < 0.05:
        return "significant"
    if p_value < 0.10:
        return "marginally significant"
    return "not significant"


def dm_test(e1, e2, loss: str = "squared", h: int = 1) -> DmResult:
    """Equal-accuracy test on the loss differential d_t = L(e1_t) - L(e2_t).

    The long-run variance uses lags 0..h-1 with Bartlett weights (1 - l/n);
    a nonpositive estimate falls back to the lag-0 variance, and identical
    losses (zero variance) return statistic 0 with p-value 1.
    """
    a = np.asarray(e1, dtype=np.float64)
    b = np.asarray(e2, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"length {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise TooShort("the test needs at least 2 forecast errors")
    if h < 1:
        raise DomainError("horizon h must be >= 1")

    if loss == "squared":
        d = np.square(a) - np.square(b)
    elif loss == "absolute":
        d = np.abs(a) - np.abs(b)
    else:
        raise DomainError("loss must be 'squared' or 'absolute'")

    n = len(d)
    d_bar = float(np.mean(d))
    centered = d - d_bar
    gamma0 = float(np.mean(np.square(centered)))
    if gamma0 == 0.0:
        return DmResult(0.0, 1.0, d_bar, _interpret(1.0))

    var_d = gamma0
    for lag in range(1, h):
        if lag >= n:
            break
        gamma_l = float(np.mean(centered[lag:] * centered[:-lag]))
        var_d += 2.0 * gamma_l * (1.0 - lag / n)
    if var_d <= 0.0:
        var_d = gamma0

    statistic = d_bar / math.sqrt(var_d / n)
    p_value = math.erfc(abs(statistic) / math.sqrt(2.0))
    return DmResult(statistic, p_value, d_bar, _interpret(p_value))
