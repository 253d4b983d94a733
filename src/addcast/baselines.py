"""Reference forecasters: naive, seasonal-naive, and a lag-feature
walk-forward pipeline with a ridge-regularized linear point predictor.

The lag features of a day are 8 columns: the values 1, 7, 30 and 365 days
back (LAGS), the means of the last 7 and 30 values (ROLLING_WINDOWS), the
weekday (Monday = 0) and the month (1-12). One array function,
``build_lag_features``, builds them for the fit and for every walk-forward
step, so a day needs MIN_HISTORY (365) prior values.

The walk-forward protocol never reads held-out targets: each prediction is
appended to the working history before the next step's features are built,
so rolling statistics mix realized and predicted values by design.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EmptySeries,
    InsufficientHistory,
    SeriesShorterThanPeriod,
    SingularSystem,
)
from .timeseries import TimeSeries, weekday_of

LAGS = (1, 7, 30, 365)
ROLLING_WINDOWS = (7, 30)
MIN_HISTORY = max(LAGS)
RIDGE_LAMBDA = 1e-6


def naive_forecast(train_values, horizon: int) -> np.ndarray:
    """Repeat the last training value over the horizon."""
    v = np.asarray(train_values, dtype=np.float64)
    if len(v) == 0:
        raise EmptySeries("naive forecast needs a nonempty training series")
    return np.full(horizon, v[-1])


def seasonal_naive(train_values, horizon: int, period: int) -> np.ndarray:
    """Repeat the last full seasonal cycle: prediction i is
    train[n - period + (i mod period)]."""
    v = np.asarray(train_values, dtype=np.float64)
    if period < 1:
        raise SeriesShorterThanPeriod("period must be >= 1")
    if len(v) < period:
        raise SeriesShorterThanPeriod(
            f"training length {len(v)} shorter than period {period}"
        )
    idx = len(v) - period + (np.arange(horizon) % period)
    return v[idx]


def build_lag_features(values, ends, dates) -> np.ndarray:
    """Lag-feature matrix, columns as the module docstring lists them: row r
    holds the features that predict the value after ``values[:ends[r]]`` on
    epoch-day ``dates[r]``. An end below MIN_HISTORY is InsufficientHistory."""
    v = np.asarray(values, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.int64)
    days = np.asarray(dates, dtype=np.int64)
    if len(ends) and ends.min() < MIN_HISTORY:
        raise InsufficientHistory(
            f"need >= {MIN_HISTORY} prior observations, have {ends.min()}"
        )
    lags = v[ends[:, None] - np.array(LAGS)]
    means = [np.mean(v[ends[:, None] + np.arange(-w, 0)], axis=1) for w in ROLLING_WINDOWS]
    months = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) % 12 + 1
    return np.column_stack([lags, *means, weekday_of(days), months])


def fit_linear_lag_regressor(train: TimeSeries) -> np.ndarray:
    """The lag features' linear weights, 8 feature weights then the
    intercept: least squares on every training day after the first
    MIN_HISTORY, with ridge penalty RIDGE_LAMBDA on all for conditioning."""
    values = train.values
    if len(values) < MIN_HISTORY + 1:
        raise InsufficientHistory(
            f"need >= {MIN_HISTORY + 1} training rows, have {len(values)}"
        )
    ends = np.arange(MIN_HISTORY, len(values))
    features = build_lag_features(values, ends, train.timestamps[ends])
    X = np.column_stack([features, np.ones(len(ends))])
    gram = X.T @ X + RIDGE_LAMBDA * np.eye(X.shape[1])
    try:
        return np.linalg.solve(gram, X.T @ values[MIN_HISTORY:])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations are singular: {exc}") from None


def walk_forward_forecast(weights, train: TimeSeries, test_dates) -> np.ndarray:
    """Recursive multi-step forecasting with ``fit_linear_lag_regressor``'s
    weights: predict each test date from the training values and the
    predictions so far, and append it before the next step; one prediction
    per test date. Fewer than MIN_HISTORY training values is InsufficientHistory."""
    dates = np.asarray(test_dates, dtype=np.int64)
    n = len(train)
    values = np.concatenate([train.values, np.empty(len(dates))])
    ends = np.arange(n, len(values))
    for step in range(len(dates)):
        row = build_lag_features(values, ends[step : step + 1], dates[step : step + 1])[0]
        values[n + step] = float(row @ weights[:-1] + weights[-1])
    return values[n:]
