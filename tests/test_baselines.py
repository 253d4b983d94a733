import numpy as np
import pytest

from addcast.baselines import (
    MIN_HISTORY,
    build_lag_features,
    fit_linear_lag_regressor,
    naive_forecast,
    seasonal_naive,
    walk_forward_forecast,
)
from addcast.errors import EmptySeries, InsufficientHistory, SeriesShorterThanPeriod
from addcast.timeseries import TimeSeries, parse_iso_date

from conftest import daily_days, epoch_date


class TestNaive:
    def test_repeats_last_value(self):
        assert list(naive_forecast([1.0, 2.0, 5.0], 3)) == [5.0, 5.0, 5.0]

    def test_zero_horizon(self):
        assert len(naive_forecast([1.0], 0)) == 0

    def test_empty_train(self):
        with pytest.raises(EmptySeries):
            naive_forecast([], 2)

    def test_constant_series_zero_error(self):
        train = np.full(20, 7.0)
        preds = naive_forecast(train, 5)
        assert np.all(preds == 7.0)


class TestSeasonalNaive:
    def test_periodic_series_zero_error(self):
        cycle = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        train = np.tile(cycle, 4)
        preds = seasonal_naive(train, 14, 7)
        assert np.array_equal(preds, np.tile(cycle, 2))

    def test_period_one_equals_naive(self, rng):
        train = rng.normal(0, 1, 30)
        assert np.array_equal(
            seasonal_naive(train, 9, 1), naive_forecast(train, 9)
        )

    def test_period_longer_than_series(self):
        with pytest.raises(SeriesShorterThanPeriod):
            seasonal_naive([1.0, 2.0], 3, 7)


def one_row(values, end, day):
    """The one-row form of the lag features: the row predicting the value
    after values[:end] on epoch-day ``day``."""
    return build_lag_features(values, np.array([end]), np.array([day]))[0]


class TestLagFeatures:
    def test_index_arithmetic_oracle(self):
        history = np.arange(1.0, 366.0)  # 1..365
        monday_jan = parse_iso_date("2024-01-01")  # a Monday
        row = one_row(history, 365, monday_jan)
        assert row.shape == (8,)
        assert row[0] == 365.0  # lag 1
        assert row[1] == 359.0  # lag 7
        assert row[2] == 336.0  # lag 30
        assert row[3] == 1.0  # lag 365
        assert row[4] == 362.0  # 7-day mean
        assert row[5] == pytest.approx(350.5)  # 30-day mean
        assert row[6] == 0  # weekday
        assert row[7] == 1  # month

    def test_constant_history(self):
        row = one_row(np.full(400, 3.25), 400, parse_iso_date("2024-06-15"))
        assert np.all(row[:6] == 3.25)

    def test_calendar_columns_match_date_objects(self):
        days = np.arange(parse_iso_date("1969-11-20"), parse_iso_date("1971-02-10"))
        values = np.zeros(MIN_HISTORY)
        X = build_lag_features(values, np.full(len(days), MIN_HISTORY), days)
        dates = [epoch_date(d) for d in days]
        assert np.array_equal(X[:, 6], [d.weekday() for d in dates])
        assert np.array_equal(X[:, 7], [d.month for d in dates])

    def test_batch_rows_equal_one_row_builds(self, rng):
        n = 800
        days = daily_days("2020-03-01", n)
        y = np.cumsum(rng.normal(0, 3.0, n)) + 1e3 * rng.random(n)
        ends = np.arange(MIN_HISTORY, n)
        batch = build_lag_features(y, ends, days[ends])
        assert batch.shape == (len(ends), 8)
        for r, end in enumerate(ends):
            assert batch[r].tobytes() == one_row(y, end, days[end]).tobytes()

    def test_rows_read_only_values_before_their_end(self, rng):
        y = rng.normal(0, 1, 500)
        poisoned = y.copy()
        poisoned[400:] = 1e12
        assert np.array_equal(one_row(y, 400, 0), one_row(poisoned, 400, 0))

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            one_row(np.ones(364), 364, 0)
        with pytest.raises(InsufficientHistory):
            build_lag_features(np.ones(500), np.array([400, 364]), np.array([0, 0]))


# predict = lag_1
_LAG1 = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0])
# predict = 0.5*lag_1 + 0.1*rolling_mean_7 + 1.0
_FIXED_LINEAR = np.array([0.5, 0, 0, 0, 0.1, 0, 0, 0, 1.0])


class TestWalkForward:
    def make_train(self, n=400, start="2022-01-01"):
        days = daily_days(start, n)
        return TimeSeries(days, np.arange(1.0, n + 1.0))

    def test_lag1_regressor_collapses_to_naive(self):
        train = self.make_train()
        test_dates = daily_days("2023-02-05", 10)
        predictions = walk_forward_forecast(_LAG1, train, test_dates)
        assert np.array_equal(predictions, np.full(10, 400.0))

    def test_empty_test(self):
        train = self.make_train()
        assert len(walk_forward_forecast(_LAG1, train, [])) == 0

    def test_three_step_manual_unroll(self):
        train = self.make_train()
        test_dates = daily_days("2023-02-05", 3)
        predictions = walk_forward_forecast(_FIXED_LINEAR, train, test_dates)
        # manual unroll oracle
        history = list(train.values)
        expected = []
        for _ in range(3):
            pred = 0.5 * history[-1] + 0.1 * float(np.mean(history[-7:])) + 1.0
            expected.append(pred)
            history.append(pred)
        assert np.allclose(predictions, expected, rtol=0, atol=0)

    def test_short_train_is_insufficient_history(self):
        days = daily_days("2022-01-01", MIN_HISTORY - 1)
        train = TimeSeries(days, np.arange(float(len(days))))
        with pytest.raises(InsufficientHistory):
            walk_forward_forecast(_LAG1, train, daily_days("2022-12-31", 5))

    def test_poisoned_targets_change_nothing(self, rng):
        # leakage freedom: the recursion sees only test DATES, so corrupting
        # the held-out values cannot alter the forecast
        n = 500
        days = daily_days("2022-01-01", n)
        y = 10.0 + np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.1, n)
        cut = 420
        train = TimeSeries(days[:cut], y[:cut])
        test_dates = days[cut:]
        regressor = fit_linear_lag_regressor(train)
        clean = walk_forward_forecast(regressor, train, test_dates)
        poisoned_values = y.copy()
        poisoned_values[cut:] = 1e9
        # rebuild everything from the poisoned series
        poisoned_train = TimeSeries(days[:cut], poisoned_values[:cut])
        poisoned_regressor = fit_linear_lag_regressor(poisoned_train)
        poisoned = walk_forward_forecast(poisoned_regressor, poisoned_train, test_dates)
        assert np.array_equal(clean, poisoned)

    def test_incremental_features_match_batch(self):
        train = self.make_train()
        test_dates = daily_days("2023-02-05", 8)
        predictions = walk_forward_forecast(_FIXED_LINEAR, train, test_dates)
        realized = np.concatenate([train.values, predictions])
        for i, date in enumerate(test_dates):
            batch_row = one_row(realized, len(train) + i, date)
            incremental = walk_forward_forecast(_FIXED_LINEAR, train, test_dates[: i + 1])
            assert incremental[-1] == float(batch_row @ _FIXED_LINEAR[:-1] + _FIXED_LINEAR[-1])


class TestLinearLagRegressor:
    def test_exact_linear_recovery(self, rng):
        n = 500
        days = daily_days("2020-01-01", n)
        # construct a target that is an exact linear function of the features
        true_w = np.array([0.4, -0.2, 0.1, 0.05, 0.3, -0.1, 0.02, 0.01])
        intercept = 0.7
        values = rng.normal(0, 1, n)
        for i in range(365, n):
            values[i] = one_row(values, i, days[i]) @ true_w + intercept
        ts = TimeSeries(days, values)
        weights = fit_linear_lag_regressor(ts)
        assert np.max(np.abs(weights[:-1] - true_w)) < 1e-6
        assert abs(weights[-1] - intercept) < 1e-6

    def test_constant_series(self):
        n = 450
        ts = TimeSeries(daily_days("2020-01-01", n), np.full(n, 5.0))
        weights = fit_linear_lag_regressor(ts)
        pred = one_row(ts.values, n, int(ts.timestamps[-1]) + 1) @ weights[:-1] + weights[-1]
        assert pred == pytest.approx(5.0, abs=1e-6)

    def test_matches_normal_equations_oracle(self, rng):
        n = 480
        days = daily_days("2020-01-01", n)
        y = 3.0 + rng.normal(0, 0.5, n)
        ts = TimeSeries(days, y)
        weights = fit_linear_lag_regressor(ts)
        rows = []
        targets = []
        for i in range(365, n):
            rows.append(one_row(y, i, days[i]))
            targets.append(y[i])
        X = np.column_stack([np.array(rows), np.ones(len(rows))])
        oracle = np.linalg.solve(
            X.T @ X + 1e-6 * np.eye(9), X.T @ np.array(targets)
        )
        assert np.max(np.abs(weights - oracle)) < 1e-8

    def test_insufficient_history(self):
        ts = TimeSeries(daily_days("2020-01-01", 365), np.ones(365))
        with pytest.raises(InsufficientHistory):
            fit_linear_lag_regressor(ts)
