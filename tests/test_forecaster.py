from dataclasses import replace

import numpy as np
import pytest

from addcast.config import HolidaySpec, ModelConfig, RegressorSpec, SeasonalitySpec, TrendSpec
from addcast.errors import DomainError, DuplicateTimestamp, MissingRegressorValue
from addcast.estimator import FittedModel, fit
from addcast.features import TimeScaling
from addcast.forecast import (
    FutureGrid,
    bound_columns,
    _evaluate,
    _first_future_row,
    _row_quantiles,
    _streams,
    _trend_deviations,
    forecast_with_intervals,
    make_future_grid,
    predict,
    simulate_intervals,
    write_forecast_csv,
)
from addcast.timeseries import TimeSeries, parse_iso_date

from conftest import assert_keeps_its_own_copy, daily_days, trend_oracle


def flat_model(sigma=0.0, n_train=100, level=2.0, seasonalities=()):
    """Hand-built model: flat trend at `level`, optional zeroed blocks."""
    days = daily_days("2021-01-01", n_train)
    width = sum(2 * s.fourier_order for s in seasonalities)
    return FittedModel(
        config=ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            seasonalities=tuple(seasonalities),
            interval_samples=500,
            seed=7,
        ),
        k=0.0,
        m=level,
        delta=np.empty(0),
        beta=np.zeros(width),
        sigma=sigma,
        scaling=TimeScaling(float(days[0]), float(days[-1] - days[0])),
        y_scale=1.0,
        changepoints_scaled=np.empty(0),
        train_timestamps=days,
    )


class TestRecordArrays:
    @pytest.mark.parametrize("name", ["delta", "beta", "changepoints_scaled", "train_timestamps"])
    def test_model_keeps_its_own_copy(self, name):
        model = replace(
            flat_model(seasonalities=(SeasonalitySpec("weekly", 7.0, 1),)),
            delta=np.array([0.1]),
            beta=np.array([0.2, -0.3]),
            changepoints_scaled=np.array([0.5]),
        )
        assert_keeps_its_own_copy(
            lambda view: getattr(replace(model, **{name: view}), name),
            np.array(getattr(model, name)),
        )

    def test_grid_keeps_its_own_copy(self):
        assert_keeps_its_own_copy(
            lambda view: FutureGrid(view, {}).timestamps, daily_days("2021-01-01", 5)
        )

    @pytest.mark.parametrize(
        "changes, error, fragment",
        [
            ({"delta": [[0.1]]}, DomainError, "delta must be 1-dimensional"),
            ({"beta": [[0.2, -0.3]]}, DomainError, "beta must be 1-dimensional"),
            ({"delta": [0.1, 0.2]}, DomainError, "delta and changepoints length mismatch"),
            ({"train_timestamps": [18628]}, DomainError, "at least 2 training days"),
            ({"train_timestamps": [18628, 18628]}, DuplicateTimestamp, "2021-01-01"),
            ({"train_timestamps": [-719163, 0]}, DomainError, "must lie between"),
            ({"scaling": TimeScaling(18628.0, 98.0)}, DomainError, "the one the training days"),
        ],
        ids=[
            "nested_delta", "nested_beta", "lengths", "one_day", "repeated_day",
            "day_before_year_1", "scaling",
        ],
    )
    def test_model_refuses_what_breaks_its_rules(self, changes, error, fragment):
        model = replace(
            flat_model(seasonalities=(SeasonalitySpec("weekly", 7.0, 1),)),
            delta=np.array([0.1]),
            beta=np.array([0.2, -0.3]),
            changepoints_scaled=np.array([0.5]),
        )
        with pytest.raises(error, match=fragment):
            replace(model, **changes)

    def test_grid_names_the_day_that_repeats(self):
        with pytest.raises(DuplicateTimestamp, match="^duplicate timestamp 1970-01-03$"):
            FutureGrid([1, 2, 2, 3], {})


class TestMakeFutureGrid:
    def test_zero_periods_is_training_grid(self):
        model = flat_model()
        grid = make_future_grid(model, 0)
        assert np.array_equal(grid.timestamps, model.train_timestamps)

    def test_year_extension(self, rng):
        days = daily_days("2023-01-01", 365)  # ends 2023-12-31
        ts = TimeSeries(days, rng.normal(0, 1, 365) + 5)
        config = ModelConfig(trend=TrendSpec(n_changepoints=0), seasonalities=())
        model = fit(ts, config)
        grid = make_future_grid(model, 366)
        assert grid.timestamps[-1] == parse_iso_date("2024-12-31")
        assert np.array_equal(grid.timestamps[:365], days)

    def test_missing_future_regressor(self):
        days = daily_days("2021-01-01", 60)
        values = {int(d): 1.0 for d in days}
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            seasonalities=(),
            regressors=(RegressorSpec(name="x", prior_scale=1.0, values=values),),
        )
        ts = TimeSeries(days, np.arange(60.0))
        model = fit(ts, config)
        with pytest.raises(MissingRegressorValue, match="'x' has no value for 2021-03-02"):
            make_future_grid(model, 1)
        # supplying the missing day resolves it
        grid = make_future_grid(
            model, 1, extra_regressors={"x": {int(days[-1]) + 1: 2.0}}
        )
        assert len(grid) == 61

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_future_regressor_value_rejected(self, value):
        # such a value used to reach the forecast as a nan or inf yhat
        days = daily_days("2021-01-01", 60)
        values = {int(d): 1.0 for d in days}
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            seasonalities=(),
            regressors=(RegressorSpec(name="x", prior_scale=1.0, values=values),),
        )
        model = fit(TimeSeries(days, np.arange(60.0)), config)
        extra = {"x": {int(days[-1]) + 1: 2.0, int(days[-1]) + 2: value}}
        with pytest.raises(DomainError, match="regressor 'x': values must be finite"):
            make_future_grid(model, 2, extra_regressors=extra)

    def test_design_builds_per_call(self, monkeypatch):
        import addcast.features
        import addcast.forecast

        builds = []
        original = addcast.features.design_for_grid

        def counted(*args, **kwargs):
            builds.append(1)
            return original(*args, **kwargs)

        for module in (addcast.features, addcast.forecast):
            monkeypatch.setattr(module, "design_for_grid", counted)
        days = daily_days("2021-01-01", 60)
        values = {int(d): float(d % 3) for d in daily_days("2021-01-01", 70)}
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=2),
            regressors=(RegressorSpec(name="x", prior_scale=1.0, values=values),),
            interval_samples=100,
        )
        model = fit(TimeSeries(days, np.arange(60.0) % 7), config)
        assert len(builds) == 1
        grid = make_future_grid(model, 10)
        assert len(builds) == 1
        forecast_with_intervals(model, grid)
        assert len(builds) == 2

    def test_negative_periods_rejected(self):
        with pytest.raises(DomainError):
            make_future_grid(flat_model(), -1)


class TestPredict:
    def test_zero_coefficients_give_pure_trend(self):
        model = flat_model(
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),)
        )
        fc = predict(model, make_future_grid(model, 10))
        assert np.array_equal(fc.yhat, fc.components["trend"])
        assert np.array_equal(fc.components["weekly"], np.zeros(len(fc)))

    def test_line_extrapolation(self):
        n = 90
        days = daily_days("2022-01-01", n)
        y = 2.0 * np.arange(n, dtype=np.float64)
        ts = TimeSeries(days, y)
        config = ModelConfig(trend=TrendSpec(n_changepoints=0), seasonalities=())
        model = fit(ts, config)
        fc = predict(model, make_future_grid(model, 30))
        expected = 2.0 * np.arange(n + 30, dtype=np.float64)
        rel = np.abs(fc.yhat[1:] - expected[1:]) / expected[1:]
        assert np.max(rel) < 1e-6

    def test_additive_identity(self, rng):
        n = 150
        days = daily_days("2022-01-01", n)
        y = 5.0 + 0.02 * np.arange(n) + rng.normal(0, 0.2, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=4),
            seasonalities=(
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),
                SeasonalitySpec(name="monthly", period=30.5, fourier_order=2),
            ),
        )
        model = fit(ts, config)
        fc = predict(model, make_future_grid(model, 45))
        total = sum(fc.components[name] for name in fc.components)
        assert np.max(np.abs(total - fc.yhat)) <= 1e-9

    def test_empty_grid(self, rng):
        model = row_local_model("linear", rng)
        grid = FutureGrid(np.empty(0, dtype=np.int64), {})
        fc = predict(model, grid)
        assert len(fc) == 0 and fc.yhat.shape == (0,)
        assert all(values.shape == (0,) for values in fc.components.values())
        fc = forecast_with_intervals(model, grid)
        assert all(lo.shape == hi.shape == (0,) for lo, hi in fc.bounds.values())

    def test_multiplicative_composition(self):
        # one multiplicative weekly block: yhat must equal
        # trend * (1 + s) with the reported component being trend * s
        spec = SeasonalitySpec(
            name="weekly", period=7.0, fourier_order=1, mode="multiplicative"
        )
        model = flat_model(level=4.0, seasonalities=(spec,))
        beta = np.array([0.25, -0.1])
        model = FittedModel(
            config=model.config,
            k=model.k,
            m=model.m,
            delta=model.delta,
            beta=beta,
            sigma=0.0,
            scaling=model.scaling,
            y_scale=model.y_scale,
            changepoints_scaled=model.changepoints_scaled,
            train_timestamps=model.train_timestamps,
        )
        grid = make_future_grid(model, 0)
        fc = predict(model, grid)
        days = grid.timestamps
        s = beta[0] * np.cos(2 * np.pi * days / 7.0) + beta[1] * np.sin(2 * np.pi * days / 7.0)
        trend = np.full(len(days), 4.0)
        assert np.allclose(fc.components["weekly"], trend * s, atol=1e-12)
        assert np.allclose(fc.yhat, trend * (1.0 + s), atol=1e-12)


class TestSimulateIntervals:
    def test_no_noise_no_changepoints_degenerate(self):
        model = flat_model(sigma=0.0)
        grid = make_future_grid(model, 20)
        fc = predict(model, grid)
        bounds = simulate_intervals(model, predict(model, grid), seed=3)
        for lo, hi in bounds.values():
            assert np.array_equal(lo, fc.yhat)
            assert np.array_equal(hi, fc.yhat)

    def test_seed_determinism(self):
        model = flat_model(sigma=0.5)
        grid = make_future_grid(model, 15)
        a = simulate_intervals(model, predict(model, grid), seed=11)
        b = simulate_intervals(model, predict(model, grid), seed=11)
        for level in a:
            assert np.array_equal(a[level][0], b[level][0])
            assert np.array_equal(a[level][1], b[level][1])
        c = simulate_intervals(model, predict(model, grid), seed=12)
        assert not np.array_equal(a[0.95][1], c[0.95][1])

    def test_gaussian_halfwidth_oracle(self, rng):
        # flat line plus unit noise: the 95% band half-width should sit near
        # the 1.96-sigma Gaussian quantile across the training span
        n = 300
        days = daily_days("2021-01-01", n)
        y = 5.0 + rng.normal(0, 1.0, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0), seasonalities=(), interval_samples=1000
        )
        model = fit(ts, config)
        grid = make_future_grid(model, 0)
        bounds = simulate_intervals(model, predict(model, grid), seed=5)
        half = np.mean((bounds[0.95][1] - bounds[0.95][0]) / 2.0)
        assert abs(half - 1.96) / 1.96 < 0.15

    def test_level_nesting(self, rng):
        n = 200
        days = daily_days("2021-01-01", n)
        y = 1.0 + 0.01 * np.arange(n) + rng.normal(0, 0.3, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=5),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        )
        model = fit(ts, config)
        grid = make_future_grid(model, 60)
        bounds = simulate_intervals(model, predict(model, grid), seed=9)
        lo80, hi80 = bounds[0.80]
        lo95, hi95 = bounds[0.95]
        assert np.all(lo95 <= lo80)
        assert np.all(hi80 <= hi95)
        assert np.all(lo80 <= hi80)

    def test_in_sample_unaffected_by_future_trend_draws(self):
        # historical changepoints exist but future draws only act past the
        # training span, so in-sample bounds with sigma=0 stay on yhat
        n = 100
        days = daily_days("2021-01-01", n)
        model = FittedModel(
            config=ModelConfig(
                trend=TrendSpec(n_changepoints=2),
                seasonalities=(),
                interval_samples=200,
            ),
            k=1.0,
            m=0.0,
            delta=np.array([0.5, -0.5]),
            beta=np.empty(0),
            sigma=0.0,
            scaling=TimeScaling(float(days[0]), float(days[-1] - days[0])),
            y_scale=1.0,
            changepoints_scaled=np.array([0.3, 0.6]),
            train_timestamps=days,
        )
        grid = make_future_grid(model, 30)
        fc = predict(model, grid)
        bounds = simulate_intervals(model, predict(model, grid), seed=21)
        lo, hi = bounds[0.95]
        assert np.array_equal(lo[:n], fc.yhat[:n])
        assert np.array_equal(hi[:n], fc.yhat[:n])
        # while the extrapolated region does widen
        assert np.any(hi[n:] > fc.yhat[n:])


    def test_negative_seed_rejected(self):
        model = flat_model(sigma=0.5)
        with pytest.raises(DomainError, match="seed"):
            simulate_intervals(model, predict(model, make_future_grid(model, 5)), seed=-1)

    def test_non_integer_seed_rejected(self):
        # 1.5 used to be drawn as seed 1
        model = flat_model(sigma=0.5)
        fc = predict(model, make_future_grid(model, 5))
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 1\.5$"):
            simulate_intervals(model, fc, seed=1.5)
        # a numpy integer is the same seed as the int
        numpy_seed = simulate_intervals(model, fc, np.int64(1))
        for level, (lo, hi) in simulate_intervals(model, fc, 1).items():
            assert lo.tobytes() == numpy_seed[level][0].tobytes()
            assert hi.tobytes() == numpy_seed[level][1].tobytes()

    def test_grid_without_history_rows(self):
        # rows are independent in a model with no changepoints or seasonal
        # blocks, so dropping the history rows leaves the future bounds as
        # they were: their noise comes from a stream of their own
        model = flat_model(sigma=0.5)
        full = make_future_grid(model, 20)
        future = FutureGrid(full.timestamps[100:], full.regressor_values)
        fc_full = forecast_with_intervals(model, full)
        fc = forecast_with_intervals(model, future)
        assert len(fc) == 20 and np.array_equal(fc.timestamps, future.timestamps)
        for level, (lo, hi) in fc.bounds.items():
            assert np.array_equal(lo, fc_full.bounds[level][0][100:])
            assert np.array_equal(hi, fc_full.bounds[level][1][100:])
            assert np.all(lo < hi)

    def test_grid_without_future_rows(self, rng):
        days = daily_days("2021-01-01", 120)
        y = 1.0 + 0.01 * np.arange(120) + rng.normal(0, 0.2, 120)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=4),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
            interval_samples=200,
        )
        model = fit(TimeSeries(days, y), config)
        fc = forecast_with_intervals(model, make_future_grid(model, 0))
        assert len(fc) == 120
        for lo, hi in fc.bounds.values():
            assert lo.shape == hi.shape == (120,)
            assert np.all(lo <= fc.yhat) and np.all(fc.yhat <= hi)
        grid = make_future_grid(model, 0)
        horizon = forecast_with_intervals(
            model, FutureGrid(grid.timestamps[model.n_obs :], grid.regressor_values)
        )
        assert len(horizon) == 0
        assert all(lo.shape == hi.shape == (0,) for lo, hi in horizon.bounds.values())


def row_local_model(growth, rng):
    """A model fitted on 157 days with a holiday, a regressor that covers 33
    more days and, for logistic growth, a multiplicative seasonal block."""
    n = 157
    days = daily_days("2021-01-01", n + 33)
    x = rng.normal(0, 1, n + 33)
    weekly = SeasonalitySpec(name="weekly", period=7.0, fourier_order=2)
    trend = TrendSpec(n_changepoints=5)
    if growth == "logistic":
        trend = TrendSpec(growth="logistic", n_changepoints=5, capacity=12.0)
        weekly = replace(weekly, mode="multiplicative")
    config = ModelConfig(
        trend=trend,
        seasonalities=(weekly, SeasonalitySpec(name="monthly", period=30.5, fourier_order=2)),
        holidays=(HolidaySpec(name="h", dates=frozenset(days[::17].tolist()), upper_window=1),),
        regressors=(RegressorSpec(name="x", prior_scale=1.0, values=dict(zip(days.tolist(), x))),),
        interval_samples=150,
    )
    y = 3.0 + 0.02 * np.arange(n) + np.sin(2 * np.pi * days[:n] / 7.0) + 0.5 * x[:n]
    return fit(TimeSeries(days[:n], y + rng.normal(0, 0.1, n)), config)


class TestRowLocality:
    """A day's point forecast depends only on (model, day), and a horizon
    forecast builds and evaluates only its horizon rows."""

    @pytest.mark.parametrize("growth", ["linear", "logistic"])
    def test_suffix_grid_matches_full_grid(self, rng, monkeypatch, growth):
        import addcast.forecast

        model = row_local_model(growth, rng)
        n = model.n_obs
        grid = make_future_grid(model, 33)
        full = forecast_with_intervals(model, grid, seed=4)
        # the training-days grid is the prefix of any longer grid
        prefix = predict(model, make_future_grid(model, 0))
        assert np.array_equal(prefix.yhat, full.yhat[:n])
        for offset in (1, 37, n - 1, n, n + 13, len(grid) - 1):
            suffix_grid = FutureGrid(grid.timestamps[offset:], grid.regressor_values)
            suffix = forecast_with_intervals(model, suffix_grid, seed=4)
            assert np.array_equal(suffix.yhat, full.yhat[offset:]), offset
            for name, values in suffix.components.items():
                assert np.array_equal(values, full.components[name][offset:]), (offset, name)
            if offset == n:  # the future-only suffix also keeps its bounds
                for level, (lo, hi) in suffix.bounds.items():
                    assert np.array_equal(lo, full.bounds[level][0][n:])
                    assert np.array_equal(hi, full.bounds[level][1][n:])

        rows = []
        original = addcast.forecast.design_for_grid

        def counted(timestamps, *args, **kwargs):
            rows.append(len(timestamps))
            return original(timestamps, *args, **kwargs)

        monkeypatch.setattr(addcast.forecast, "design_for_grid", counted)
        horizon_grid = FutureGrid(grid.timestamps[n:], grid.regressor_values)
        horizon = forecast_with_intervals(model, horizon_grid, seed=4)
        assert rows == [33]
        assert np.array_equal(horizon.timestamps, grid.timestamps[n:])
        assert np.array_equal(horizon.yhat, full.yhat[n:])
        for name, values in horizon.components.items():
            assert np.array_equal(values, full.components[name][n:])
        for level, (lo, hi) in horizon.bounds.items():
            assert np.array_equal(lo, full.bounds[level][0][n:])
            assert np.array_equal(hi, full.bounds[level][1][n:])


class TestRowQuantiles:
    """The bounds helper against np.quantile over rows, bit for bit."""

    LEVELS = (0.37, 0.5, 0.8, 0.95, 0.99)
    QS = [q for level in LEVELS for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0)]

    @pytest.mark.parametrize("n_samples", [100, 101, 128, 1000, 1001])
    def test_matches_numpy_quantile(self, rng, n_samples):
        x = 3.0 * rng.standard_normal((12, n_samples)) + 1.0
        x[1] = 2.5  # one value repeated
        x[2] = np.floor(x[2]) + 0.5  # ties, and no zero of either sign
        x[3] = rng.choice([-1.5, 4.25], n_samples)
        x[4, 17] = np.nan
        x[5, 3] = np.inf
        x[6, 9] = -np.inf
        x[7, : n_samples // 10] = np.inf
        x[8, :2] = (np.inf, -np.inf)
        x[9, : n_samples // 2] = -np.inf
        with np.errstate(invalid="ignore"):
            expected = np.quantile(x, self.QS, axis=1)
            got = np.array(_row_quantiles(x.copy(), self.QS))
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.all(np.isnan(got[:, 4]))

def _oracle_deviations(model, evaluation, seed):
    """Each sample's trend deviation on every grid row, the way a per-sample
    loop computes it: replay the trend stream's draws and evaluate the trend
    on the changepoints augmented with each sample's new ones."""
    stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(3)[2]))
    t = evaluation.t_scaled
    cps = model.changepoints_scaled
    span = t[-1] - 1.0
    n_samples = model.config.interval_samples
    counts = stream.poisson(len(cps) * span, n_samples)
    locs = stream.uniform(1.0, 1.0 + span, counts.sum())
    mags = stream.laplace(0.0, np.mean(np.abs(model.delta)), len(locs))
    ends = np.cumsum(counts)
    trend = model.scaled_trend
    deviations = np.empty((len(t), n_samples))
    for s in range(n_samples):
        new = slice(ends[s] - counts[s], ends[s])
        cps_aug = np.concatenate([cps, locs[new]])
        delta_aug = np.concatenate([model.delta, mags[new]])
        g_new = trend_oracle(t, model.k, model.m, delta_aug, cps_aug, trend)
        deviations[:, s] = g_new - evaluation.parts.trend
    return deviations, counts, locs, ends


class TestTrendDeviationOracle:
    """The row-blocked trend deviation against a per-sample replay."""

    @pytest.fixture(params=["linear", "logistic"])
    def model(self, request, rng):
        n = 200
        days = daily_days("2021-01-01", n)
        y = 4.0 + 0.02 * np.arange(n) + np.sin(2 * np.pi * days / 7.0)
        weekly = SeasonalitySpec(name="weekly", period=7.0, fourier_order=2)
        if request.param == "linear":
            trend = TrendSpec(n_changepoints=8)
        else:
            trend = TrendSpec(growth="logistic", n_changepoints=8, capacity=15.0)
            weekly = SeasonalitySpec(
                name="weekly", period=7.0, fourier_order=2, mode="multiplicative"
            )
        config = ModelConfig(trend=trend, seasonalities=(weekly,), interval_samples=300)
        return fit(TimeSeries(days, y + rng.normal(0, 0.2, n)), config)

    def test_matches_per_sample_replay(self, model):
        seed = 17
        grid = make_future_grid(model, 25)
        evaluation = _evaluate(model, grid)
        first = _first_future_row(model, grid)
        assert first == len(model.train_timestamps)
        # 25 future rows in blocks of 10 rows: the last block is partial
        blocks = list(_trend_deviations(model, evaluation, first, _streams(seed)[2], 10))
        assert [len(block) for block in blocks] == [10, 10, 5]
        vectorized = np.vstack(blocks)
        oracle, counts, locs, ends = _oracle_deviations(model, evaluation, seed)

        scale = np.max(np.abs(evaluation.parts.trend))
        np.testing.assert_allclose(vectorized, oracle[first:], rtol=1e-10, atol=1e-10 * scale)
        assert np.max(np.abs(oracle[:first])) <= 1e-10 * scale
        # samples without new changepoints, and rows before a sample's first
        # new changepoint, get exactly zero deviation
        assert 0 < np.sum(counts == 0) < len(counts)
        assert np.all(vectorized[:, counts == 0] == 0.0)
        t_future = evaluation.t_scaled[first:, np.newaxis]
        first_loc = np.array(
            [locs[e - c : e].min() if c else np.inf for c, e in zip(counts, ends)]
        )
        before = t_future < first_loc
        assert before.any() and np.all(vectorized[before] == 0.0)
        assert np.all(vectorized[~before] != 0.0)

    def test_history_rows_get_no_trend_deviation(self, model):
        model = replace(model, sigma=0.0)
        grid = make_future_grid(model, 25)
        fc = forecast_with_intervals(model, grid, seed=17)
        n = len(model.train_timestamps)
        for lo, hi in fc.bounds.values():
            assert np.array_equal(lo[:n], fc.yhat[:n])
            assert np.array_equal(hi[:n], fc.yhat[:n])
            assert np.any(hi[n:] > fc.yhat[n:])


class TestForecastCsv:
    def test_schema_golden(self, tmp_path, rng):
        n = 400
        days = daily_days("2021-01-01", n)
        y = 3.0 + rng.normal(0, 0.2, n)
        ts = TimeSeries(days, y)
        model = fit(ts, ModelConfig())
        fc = forecast_with_intervals(model, make_future_grid(model, 5))
        out = tmp_path / "forecast.csv"
        write_forecast_csv(fc, model, out)
        header = out.read_text().splitlines()[0]
        assert header == (
            "ds,yhat,yhat_lower_80,yhat_upper_80,yhat_lower_95,yhat_upper_95,"
            "trend,yearly,weekly,holidays"
        )

    def test_bound_columns_name_the_level_in_percent(self):
        assert bound_columns(0.95) == ("yhat_lower_95", "yhat_upper_95")
        assert bound_columns(0.5) == ("yhat_lower_50", "yhat_upper_50")

    def test_roundtrip_values_exact(self, tmp_path):
        model = flat_model(sigma=0.25)
        fc = forecast_with_intervals(model, make_future_grid(model, 10), seed=2)
        out = tmp_path / "forecast.csv"
        write_forecast_csv(fc, model, out)
        import csv as _csv

        with open(out) as fh:
            rows = list(_csv.DictReader(fh))
        got = np.array([float(r["yhat"]) for r in rows])
        assert np.array_equal(got, fc.yhat)
