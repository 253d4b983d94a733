import math

import numpy as np
import pytest

from addcast.config import HolidaySpec, ModelConfig, RegressorSpec, SeasonalitySpec, TrendSpec
from addcast.errors import (
    DomainError,
    NonFiniteGradient,
    NonFiniteObjective,
    TooFewResiduals,
    UnderdeterminedModel,
)
from addcast.estimator import (
    SOFTABS_EPS,
    _gradient_and_hessian,
    _objective,
    estimate_sigma,
    fit,
    map_gradient,
    map_objective,
)
from addcast.features import build_design
from addcast.forecast import make_future_grid, predict
from addcast.timeseries import TimeSeries

from conftest import daily_days, make_series


def pack(k, m, delta, beta):
    return np.concatenate(([k, m], np.atleast_1d(delta), np.atleast_1d(beta)))


def finite_difference_gradient(params, design, y, trend, step=1e-6):
    grad = np.zeros_like(params)
    for i in range(len(params)):
        hi = params.copy()
        lo = params.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (
            map_objective(hi, design, y, trend) - map_objective(lo, design, y, trend)
        ) / (2 * step)
    return grad


def gradient_test_problem(rng, growth="linear", multiplicative=False):
    n = 200
    days = daily_days("2019-01-01", n)
    mode = "multiplicative" if multiplicative else "additive"
    config = ModelConfig(
        trend=TrendSpec(
            n_changepoints=5,
            growth=growth,
            capacity=3.0 if growth == "logistic" else None,
        ),
        seasonalities=(
            SeasonalitySpec(name="weekly", period=7.0, fourier_order=2, mode=mode),
        ),
    )
    y = 0.5 + 0.3 * np.arange(n) / n + rng.normal(0, 0.1, n)
    ts = TimeSeries(days, y)
    design = build_design(ts, config)
    return design, y, config.trend


class TestMapObjective:
    def test_zero_params_zero_data(self):
        ts = make_series("2020-01-01", np.zeros(50))
        config = ModelConfig(trend=TrendSpec(n_changepoints=4), seasonalities=())
        design = build_design(ts, config)
        n_cp = design.layout.trend.width
        assert n_cp == 4
        params = np.zeros(2 + design.X.shape[1])
        value = map_objective(params, design, ts.values, config.trend)
        # residuals vanish; only the smoothed-Laplace floor remains
        assert value == 4 * (math.sqrt(SOFTABS_EPS) / config.trend.changepoint_prior_scale)

    def test_perfect_fit_penalty_floor(self):
        days = daily_days("2020-01-01", 50)
        config = ModelConfig(trend=TrendSpec(n_changepoints=4), seasonalities=())
        t_scaled = (days - days[0]) / (days[-1] - days[0])
        y = 0.3 * t_scaled + (-0.1)
        ts = TimeSeries(days, y)
        design = build_design(ts, config)
        params = pack(0.3, -0.1, np.zeros(4), [])
        value = map_objective(params, design, ts.values, config.trend)
        assert value == 4 * (math.sqrt(SOFTABS_EPS) / 0.05)

    def test_doubling_tau_halves_changepoint_penalty(self, rng):
        days = daily_days("2020-01-01", 60)
        y = rng.normal(0, 1, 60)
        ts = TimeSeries(days, y)
        values = {}
        for tau in (0.05, 0.10):
            config = ModelConfig(
                trend=TrendSpec(n_changepoints=5, changepoint_prior_scale=tau),
                seasonalities=(),
            )
            design = build_design(ts, config)
            delta = np.array([0.5, -0.2, 0.1, 0.4, -0.3])
            params = pack(0.0, 0.0, delta, [])
            zero = pack(0.0, 0.0, np.zeros(5), [])
            # isolate the delta penalty by differencing against delta=0 and
            # removing the data-term change
            data_term = 0.5 * float(
                np.sum(
                    np.square(
                        y
                        - (design.columns(design.layout.trend) @ delta) * design.t_scaled
                        - design.columns(design.layout.trend)
                        @ (-design.changepoints_scaled * delta)
                    )
                )
            )
            values[tau] = map_objective(params, design, y, config.trend) - data_term
        floor = 5 * math.sqrt(SOFTABS_EPS)
        assert values[0.10] == pytest.approx(values[0.05] / 2, rel=1e-9)


class TestMapGradient:
    @pytest.mark.parametrize(
        "growth,multiplicative",
        [("linear", False), ("linear", True), ("logistic", False)],
    )
    def test_matches_finite_differences(self, rng, growth, multiplicative):
        design, y, trend = gradient_test_problem(rng, growth, multiplicative)
        n_params = 2 + design.X.shape[1]
        worst = 0.0
        for _ in range(10):
            params = rng.normal(0, 0.5, n_params)
            analytic = map_gradient(params, design, y, trend)
            numeric = finite_difference_gradient(params, design, y, trend)
            rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0))
            worst = max(worst, float(rel))
        assert worst <= 1e-4

    def test_zero_data_zero_params_residual_gradient(self):
        ts = make_series("2020-01-01", np.zeros(40))
        config = ModelConfig(trend=TrendSpec(n_changepoints=3), seasonalities=())
        design = build_design(ts, config)
        params = np.zeros(2 + design.X.shape[1])
        grad = map_gradient(params, design, ts.values, config.trend)
        # data term contributes nothing; what remains is the penalty gradient,
        # which is exactly zero at the origin (softabs'(0) = 0)
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_stationarity_at_optimum(self, rng):
        n = 150
        days = daily_days("2020-01-01", n)
        y = 1.0 + 0.5 * np.arange(n) / n + rng.normal(0, 0.05, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        )
        trace = []
        model = fit(ts, config, iteration_callback=lambda xk: trace.append(xk.copy()))
        design = build_design(ts, config)
        ys = y / model.y_scale
        params = pack(model.k, model.m, model.delta, model.beta)
        grad_norm = np.max(np.abs(map_gradient(params, design, ys, config.trend)))
        if grad_norm > 1e-8:
            # stopped on the relative-decrease rule instead; verify it held
            objs = [map_objective(x, design, ys, config.trend) for x in trace[-2:]]
            assert objs[-2] - objs[-1] <= 1e-10 * (1.0 + abs(objs[-1]))


class TestHessian:
    def test_matches_finite_differences_of_gradient(self, rng):
        # Linear growth with additive seasonality: J^T J plus the penalty
        # curvature is the exact Hessian.
        design, y, trend = gradient_test_problem(rng)
        n_params = 2 + design.X.shape[1]
        step = 1e-6
        worst = 0.0
        for _ in range(5):
            params = rng.normal(0, 0.5, n_params)
            _, parts, r = _objective(params, design, y, trend)
            _, analytic = _gradient_and_hessian(parts, r, design)
            numeric = np.empty_like(analytic)
            for i in range(n_params):
                hi = params.copy()
                lo = params.copy()
                hi[i] += step
                lo[i] -= step
                numeric[:, i] = (
                    map_gradient(hi, design, y, trend) - map_gradient(lo, design, y, trend)
                ) / (2 * step)
            rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0))
            worst = max(worst, float(rel))
        assert worst <= 1e-4


class TestNonFiniteGuards:
    def test_non_finite_objective(self, rng):
        design, y, trend = gradient_test_problem(rng)
        params = np.zeros(2 + design.X.shape[1])
        params[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteObjective):
            map_objective(params, design, y, trend)

    def test_non_finite_gradient(self, rng):
        design, y, trend = gradient_test_problem(rng)
        params = np.zeros(2 + design.X.shape[1])
        params[2] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
            (NonFiniteGradient, NonFiniteObjective)
        ):
            map_gradient(params, design, y, trend)


class TestEstimateSigma:
    def test_hand_computed(self):
        assert estimate_sigma([1.0, -1.0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_zero_residuals(self):
        assert estimate_sigma(np.zeros(10)) == 0.0

    def test_too_few(self):
        with pytest.raises(TooFewResiduals):
            estimate_sigma([1.0])


class TestFit:
    def test_exact_linear_recovery(self):
        n = 60
        days = daily_days("2020-01-01", n)
        t_scaled = (days - days[0]) / (days[-1] - days[0])
        y = 2.5 * t_scaled - 0.7
        ts = TimeSeries(days, y)
        config = ModelConfig(trend=TrendSpec(n_changepoints=0), seasonalities=())
        model = fit(ts, config)
        ys = y / model.y_scale
        fitted = model.k * t_scaled + model.m
        assert np.max(np.abs(fitted - ys)) < 1e-8

    def test_weekly_sine_projection_oracle(self):
        n = 140  # whole weeks keep the discrete harmonics orthogonal
        days = daily_days("2020-01-06", n)
        y = np.sin(2 * np.pi * days / 7.0)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=1),),
        )
        model = fit(ts, config)
        # oracle: unpenalized least-squares projection of the scaled data
        design = build_design(ts, config)
        A = np.column_stack([design.t_scaled, np.ones(n), design.X])
        theta = np.linalg.lstsq(A, y / model.y_scale, rcond=None)[0]
        a1_oracle, b1_oracle = theta[2], theta[3]
        assert model.beta[0] == pytest.approx(a1_oracle, abs=1e-3)
        assert model.beta[1] == pytest.approx(b1_oracle, abs=1e-3)
        assert abs(model.beta[0]) < 1e-3  # cosine absent from the signal
        assert model.beta[1] * model.y_scale == pytest.approx(1.0, abs=2e-3)

    def test_bit_identical_refit(self, rng):
        n = 120
        days = daily_days("2020-01-01", n)
        y = np.arange(n) * 0.01 + rng.normal(0, 0.2, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(trend=TrendSpec(n_changepoints=8))
        a = fit(ts, config)
        b = fit(ts, config)
        assert a.k == b.k and a.m == b.m
        assert np.array_equal(a.delta, b.delta)
        assert np.array_equal(a.beta, b.beta)
        assert a.sigma == b.sigma

    def test_objective_decreases_monotonically(self, rng):
        n = 250
        days = daily_days("2020-01-01", n)
        t = np.arange(n) / (n - 1)
        y = 1.0 + t + 0.5 * (t > 0.5) * (t - 0.5) + rng.normal(0, 0.1, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=6),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        )
        trace = []
        model = fit(ts, config, iteration_callback=lambda xk: trace.append(xk.copy()))
        design = build_design(ts, config)
        ys = y / model.y_scale
        objs = [map_objective(x, design, ys, config.trend) for x in trace]
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-12 * (1.0 + np.abs(objs[:-1])))

    def test_scaling_equivariance(self, rng):
        n = 180
        days = daily_days("2020-01-01", n)
        y = 3.0 + np.arange(n) * 0.02 + rng.normal(0, 0.3, n)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=5),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        )
        c = 3.7
        model_a = fit(TimeSeries(days, y), config)
        model_b = fit(TimeSeries(days, c * y), config)
        pred_a = predict(model_a, make_future_grid(model_a, 20)).yhat
        pred_b = predict(model_b, make_future_grid(model_b, 20)).yhat
        assert np.max(np.abs(pred_b - c * pred_a) / np.abs(c * pred_a)) < 1e-8

    def test_ridge_oracle_equivalence(self, rng):
        for _ in range(3):
            n = 150
            days = daily_days("2020-01-01", n)
            y = 1.5 + 0.8 * np.arange(n) / n + rng.normal(0, 0.2, n)
            reg = {int(d): float(v) for d, v in zip(days, rng.normal(0, 1, n))}
            config = ModelConfig(
                trend=TrendSpec(n_changepoints=0),
                seasonalities=(
                    SeasonalitySpec(name="weekly", period=7.0, fourier_order=2, prior_scale=5.0),
                ),
                regressors=(RegressorSpec(name="x", prior_scale=2.0, values=reg),),
            )
            ts = TimeSeries(days, y)
            model = fit(ts, config)
            design = build_design(ts, config)
            A = np.column_stack([design.t_scaled, np.ones(n), design.X])
            penalties = np.concatenate(
                [[0.0, 0.0]]
                + [1.0 / np.square(b.prior_scales) for b in design.layout.blocks[1:]]
            )
            theta = np.linalg.solve(A.T @ A + np.diag(penalties), A.T @ (y / model.y_scale))
            fitted = pack(model.k, model.m, model.delta, model.beta)
            assert np.max(np.abs(fitted - theta)) < 1e-6

    def test_underdetermined_guard(self):
        ts = make_series("2020-01-01", np.arange(10.0))
        config = ModelConfig()  # defaults need far more than 10 points
        with pytest.raises(UnderdeterminedModel):
            fit(ts, config)

    def test_missing_values_rejected(self):
        values = np.arange(50.0)
        values[3] = np.nan
        ts = make_series("2020-01-01", values)
        with pytest.raises(DomainError):
            fit(ts, ModelConfig(trend=TrendSpec(n_changepoints=0), seasonalities=()))

    def test_iteration_cap_raises(self, rng, monkeypatch):
        import addcast.estimator as est

        monkeypatch.setattr(est, "MAX_ITERATIONS", 1)
        n = 300
        days = daily_days("2020-01-01", n)
        t = np.arange(n) / (n - 1)
        y = 1.0 + t + 0.5 * (t > 0.5) * (t - 0.5) + rng.normal(0, 0.1, n)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=6),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        )
        from addcast.errors import ConvergenceFailure

        with pytest.raises(ConvergenceFailure):
            fit(TimeSeries(days, y), config)

    def test_logistic_fit_recovers_plateau(self, rng):
        n = 300
        days = daily_days("2020-01-01", n)
        t = np.arange(n) / (n - 1)
        capacity = 10.0
        true = capacity / (1.0 + np.exp(-6.0 * (t - 0.4)))
        y = true + rng.normal(0, 0.1, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(growth="logistic", n_changepoints=0, capacity=capacity),
            seasonalities=(),
        )
        model = fit(ts, config)
        fitted = predict(model, make_future_grid(model, 0)).components["trend"]
        assert np.sqrt(np.mean((fitted - true) ** 2)) < 0.1

    def test_logistic_multiplicative_holiday_fit_is_stationary(self, rng):
        n = 730
        days = daily_days("2020-01-01", n)
        t = np.arange(n) / (n - 1)
        capacity = 1000.0
        trend = capacity / (1.0 + np.exp(-5.0 * (t - 0.4)))
        seasonal = 0.04 * np.sin(2 * np.pi * days / 365.25) + 0.02 * np.cos(2 * np.pi * days / 7.0)
        holiday_days = days[(days % 365) == 100]
        bumps = 40.0 * np.isin(days, holiday_days)
        y = trend * (1.0 + seasonal) + bumps + rng.normal(0, 10.0, n)
        config = ModelConfig(
            trend=TrendSpec(growth="logistic", capacity=capacity),
            seasonalities=(
                SeasonalitySpec(name="yearly", period=365.25, fourier_order=6,
                                mode="multiplicative"),
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=3,
                                mode="multiplicative"),
            ),
            holidays=(
                HolidaySpec(name="h", dates=frozenset(int(d) for d in holiday_days),
                            upper_window=1),
            ),
        )
        ts = TimeSeries(days, y)
        model = fit(ts, config)
        design = build_design(ts, config)
        params = pack(model.k, model.m, model.delta, model.beta)
        grad = map_gradient(params, design, y / model.y_scale, model.scaled_trend)
        assert np.max(np.abs(grad)) <= 1e-6

    def test_one_model_evaluation_per_objective_evaluation(self, rng, monkeypatch):
        # derivatives at an accepted point and the final sigma reuse the
        # objective evaluation the solver already made there
        import addcast.estimator as est

        real_parts, real_minimize = est._model_parts, est.minimize
        parts_calls = []
        results = []

        def counted_parts(*args):
            parts_calls.append(1)
            return real_parts(*args)

        def recorded_minimize(*args, **kwargs):
            results.append(real_minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(est, "_model_parts", counted_parts)
        monkeypatch.setattr(est, "minimize", recorded_minimize)
        n = 400
        days = daily_days("2020-01-01", n)
        t = np.arange(n) / (n - 1)
        y = 50.0 / (1.0 + np.exp(-5.0 * (t - 0.4))) * (
            1.0 + 0.05 * np.sin(2 * np.pi * days / 7.0)
        ) + rng.normal(0, 0.5, n)
        config = ModelConfig(
            trend=TrendSpec(growth="logistic", capacity=50.0),
            seasonalities=(
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=3,
                                mode="multiplicative"),
            ),
        )
        fit(TimeSeries(days, y), config)
        assert len(results) == 1 and results[0].nit >= 2
        assert len(parts_calls) == results[0].nfev

    def test_sigma_matches_residual_std(self, rng):
        n = 200
        days = daily_days("2020-01-01", n)
        y = 2.0 + rng.normal(0, 0.5, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(trend=TrendSpec(n_changepoints=0), seasonalities=())
        model = fit(ts, config)
        fc = predict(model, make_future_grid(model, 0))
        observed = np.std(y - fc.yhat, ddof=1)
        assert abs(observed - model.sigma_rescaled) < 1e-9
