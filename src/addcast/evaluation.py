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
from .forecast import forecast_with_intervals, make_future_grid
from .timeseries import TimeSeries, format_epoch_day


def _paired(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y_true, dtype=np.float64)
    b = np.asarray(y_pred, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatch(f"length {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise EmptyInput("metrics need at least one observation")
    return a, b


def rmse(y_true, y_pred) -> float:
    """Root mean squared error."""
    a, b = _paired(y_true, y_pred)
    return float(np.sqrt(np.mean(np.square(a - b))))


def mae(y_true, y_pred) -> float:
    """Mean absolute error."""
    a, b = _paired(y_true, y_pred)
    return float(np.mean(np.abs(a - b)))


def mape(y_true, y_pred) -> float | None:
    """Mean absolute percentage error over nonzero-truth entries, in percent.

    Returns None when every truth is zero (the metric is undefined there).
    """
    a, b = _paired(y_true, y_pred)
    mask = a != 0
    if not mask.any():
        return None
    return float(np.mean(np.abs((a[mask] - b[mask]) / a[mask])) * 100.0)


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
    return float(np.mean((a >= lo) & (a <= hi)) * 100.0)


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


def evaluate_forecast(
    model_name: str, y_true, y_pred, lower=None, upper=None
) -> MetricReport:
    """All accuracy metrics for one forecast, coverage when bounds given;
    a metric that overflows is a DomainError."""
    cov = None
    if lower is not None and upper is not None:
        cov = coverage(y_true, lower, upper)
    with np.errstate(over="ignore"):  # an overflow is raised below instead
        report = MetricReport(
            model_name=model_name,
            rmse=rmse(y_true, y_pred),
            mae=mae(y_true, y_pred),
            mape_percent=mape(y_true, y_pred),
            coverage_percent=cov,
        )
    if not all(v is None or math.isfinite(v) for v in report.to_dict().values()):
        raise DomainError(f"{model_name}: a metric overflowed: {report.to_dict()}")
    return report


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


def rolling_cv(
    config: ModelConfig, ts: TimeSeries, initial: int, period: int, horizon: int
) -> list[CvFold]:
    """Fit at each cutoff on data <= cutoff, forecast the next ``horizon``
    days, and join with the held-out actuals. Folds are independent and
    deterministic; fit errors are annotated with their cutoff.

    Each fold builds, evaluates and simulates only the days after its
    training data. Its point forecast and bounds equal a full-grid
    ``forecast_with_intervals`` at the same days bit for bit."""
    folds = []
    for cutoff in enumerate_cutoffs(ts, initial, period, horizon):
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
        folds.append(
            CvFold(
                cutoff=cutoff,
                ds=test_days,
                y_true=ts.values[test_mask],
                yhat=fc.yhat[idx],
                bounds=bounds,
            )
        )
    return folds


def performance_by_horizon(folds: list[CvFold]) -> dict[int, MetricReport]:
    """Metrics grouped by lead time (ds - cutoff) in days, across folds."""
    if not folds:
        raise EmptyInput("no cross-validation folds")
    groups: dict[int, list] = {}
    for fold in folds:
        levels = sorted(fold.bounds)
        widest = fold.bounds[levels[-1]] if levels else None
        for j in range(len(fold)):
            lead = int(fold.ds[j]) - fold.cutoff
            row = [
                fold.y_true[j],
                fold.yhat[j],
                widest[0][j] if widest is not None else None,
                widest[1][j] if widest is not None else None,
            ]
            groups.setdefault(lead, []).append(row)
    out = {}
    for lead in sorted(groups):
        rows = groups[lead]
        y = np.array([r[0] for r in rows])
        pred = np.array([r[1] for r in rows])
        has_bounds = all(r[2] is not None for r in rows)
        lo = np.array([r[2] for r in rows]) if has_bounds else None
        hi = np.array([r[3] for r in rows]) if has_bounds else None
        out[lead] = evaluate_forecast(f"horizon_{lead}d", y, pred, lo, hi)
    return out


def write_cv_folds_csv(folds: list[CvFold], path) -> None:
    """Fold export: cutoff,ds,y,yhat,yhat_lower_95,yhat_upper_95."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cutoff", "ds", "y", "yhat", "yhat_lower_95", "yhat_upper_95"])
        for fold in folds:
            if 0.95 not in fold.bounds:
                raise DomainError("fold export requires 95% interval bounds")
            lo, hi = fold.bounds[0.95]
            for j in range(len(fold)):
                writer.writerow(
                    [
                        format_epoch_day(fold.cutoff),
                        format_epoch_day(int(fold.ds[j])),
                        repr(float(fold.y_true[j])),
                        repr(float(fold.yhat[j])),
                        repr(float(lo[j])),
                        repr(float(hi[j])),
                    ]
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
