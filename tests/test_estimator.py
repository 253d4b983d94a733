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
    GRADIENT_TOLERANCE,
    OBJECTIVE_TOLERANCE,
    SOFTABS_EPS,
    _Derivatives,
    _initial_parameters,
    _objective,
    estimate_sigma,
    fit,
    map_gradient,
    map_objective,
)
from addcast.features import DesignMatrix, build_design, model_layout
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


def logistic_holiday_problem(rng):
    """730 days of logistic growth with multiplicative yearly and weekly
    seasonality and a two-day holiday, with the config that generated them."""
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
    return TimeSeries(days, y), config


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
            _, analytic = _Derivatives(design, trend.growth)(parts, r)
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


def rebuilt_gradient_and_hessian(parts, r, design):
    """Gradient and Gauss-Newton Hessian with the whole Jacobian built anew
    at the iterate, as the solver did before it kept a workspace."""
    layout = design.layout
    t = design.t_scaled
    n_cp = layout.trend.width
    J = np.empty((len(t), 2 + layout.width))
    J[:, 2:] = design.X
    A = J[:, 2 : 2 + n_cp]
    if parts.logistic_weight is None:
        J[:, 0] = t
        J[:, 1] = 1.0
        A *= t[:, np.newaxis] - design.changepoints_scaled
    else:
        d_rate = parts.logistic_weight * (t - parts.offset)
        d_offset = parts.logistic_weight * parts.rate
        J[:, 0] = d_rate
        J[:, 1] = -d_offset
        A *= d_rate[:, np.newaxis] + np.outer(d_offset, design.changepoints_scaled)
    J[:, : 2 + n_cp] *= (1.0 + parts.s_mul)[:, np.newaxis]
    mul_mask = layout.multiplicative_mask
    if mul_mask.any():
        J[:, 2 + n_cp :][:, mul_mask] *= parts.trend[:, np.newaxis]
    tau = layout.trend.prior_scales
    inv_var = 1.0 / np.square(layout.prior_scales)
    sa = np.sqrt(np.square(parts.delta) + SOFTABS_EPS)
    gradient = -(J.T @ r)
    gradient[2:] += np.concatenate((parts.delta / (sa * tau), parts.beta * inv_var))
    hessian = J.T @ J
    curvature = np.concatenate(([0.0, 0.0], SOFTABS_EPS / (sa**3 * tau), inv_var))
    hessian[np.diag_indices_from(hessian)] += curvature
    return gradient, hessian


def columnwise_jacobian(design, growth, parts):
    """The Jacobian written column by column into an n x p matrix, as the
    solver did before it kept a transposed workspace: trend columns are
    dg/dtheta times (1 + s_mul), multiplicative columns g times the
    feature."""
    layout = design.layout
    t = design.t_scaled
    n = 2 + layout.trend.width
    J = np.empty((len(t), 2 + layout.width))
    J[:, 2:] = design.X
    multiplicative = [
        slice(b.start, b.stop) for b in layout.coefficients if b.mode == "multiplicative"
    ]
    if growth == "linear":
        J[:, 0] = t
        J[:, 1] = 1.0
        J[:, 2:n] *= t[:, np.newaxis] - design.changepoints_scaled
    else:
        d_rate = parts.logistic_weight * (t - parts.offset)
        d_offset = parts.logistic_weight * parts.rate
        J[:, 0] = d_rate
        J[:, 1] = -d_offset
        np.multiply(
            design.columns(layout.trend),
            d_rate[:, np.newaxis] + np.outer(d_offset, design.changepoints_scaled),
            out=J[:, 2:n],
        )
    if multiplicative:
        J[:, :n] *= (1.0 + parts.s_mul)[:, np.newaxis]
        g = parts.trend[:, np.newaxis]
        for block in multiplicative:
            np.multiply(design.X[:, block], g, out=J[:, 2 + block.start : 2 + block.stop])
    return J


def gathered_model_parts(params, design, trend):
    """The prediction with the mode columns gathered from X at every call,
    as ``_model_parts`` did before designs kept them."""
    from addcast.estimator import _split_params, row_dot
    from addcast.features import expit, gamma_from_delta

    k, m, delta, beta = _split_params(params, design)
    t = design.t_scaled
    A = design.columns(design.layout.trend)
    rate = k + row_dot(A, delta)
    offset = m + row_dot(A, gamma_from_delta(design.changepoints_scaled, delta))
    if trend.growth == "linear":
        g = rate * t + offset
    else:
        g = trend.capacity * expit(rate * (t - offset))
    Xr = design.X[:, design.layout.trend.stop :]
    mask = design.layout.multiplicative_mask
    return g * (1.0 + row_dot(Xr[:, mask], beta[mask])) + row_dot(Xr[:, ~mask], beta[~mask])


def interleaved_problem(rng, growth):
    """A weekly multiplicative, a monthly additive and a quarterly
    multiplicative block, so the rewritten Jacobian columns form two runs."""
    n = 300
    days = daily_days("2021-01-01", n)
    config = ModelConfig(
        trend=TrendSpec(n_changepoints=4, growth=growth,
                        capacity=3.0 if growth == "logistic" else None),
        seasonalities=(
            SeasonalitySpec(name="weekly", period=7.0, fourier_order=2, mode="multiplicative"),
            SeasonalitySpec(name="monthly", period=30.5, fourier_order=2),
            SeasonalitySpec(name="quarterly", period=91.3, fourier_order=1,
                            mode="multiplicative"),
        ),
    )
    y = 0.5 + 0.3 * np.arange(n) / n + rng.normal(0, 0.1, n)
    return build_design(TimeSeries(days, y), config), y, config.trend


class TestJacobianOracle:
    """The transposed-workspace Jacobian equals the column-by-column one bit
    for bit, at several iterates, also on designs whose day columns come
    from a shared day-column build."""

    @pytest.mark.parametrize(
        "growth, multiplicative",
        [("logistic", False), ("logistic", True), ("linear", True), ("linear", False)],
    )
    def test_single_block(self, rng, growth, multiplicative):
        design, y, trend = gradient_test_problem(rng, growth, multiplicative)
        self.assert_matches(rng, design, y, trend)

    @pytest.mark.parametrize("growth", ["logistic", "linear"])
    def test_interleaved_modes(self, rng, growth):
        design, y, trend = interleaved_problem(rng, growth)
        self.assert_matches(rng, design, y, trend)

    @pytest.mark.parametrize("weekdays", [False, True])
    def test_logistic_holidays_in_shared_scope(self, rng, weekdays):
        from addcast.features import shared_day_columns
        from addcast.timeseries import filter_weekdays

        ts, config = logistic_holiday_problem(rng)
        if weekdays:
            ts = filter_weekdays(ts)
        train = ts.slice_mask(ts.timestamps <= ts.timestamps[0] + 500)
        with shared_day_columns(config, ts.timestamps):
            design = build_design(train, config)
        y = train.values / np.max(np.abs(train.values))
        self.assert_matches(rng, design, y, TrendSpec(growth="logistic", capacity=1.2))

    def assert_matches(self, rng, design, y, trend):
        derivatives = _Derivatives(design, trend.growth)
        for _ in range(4):
            params = rng.normal(0, 0.5, 2 + design.X.shape[1])
            _, parts, r = _objective(params, design, y, trend)
            expected = columnwise_jacobian(design, trend.growth, parts)
            J = derivatives.jacobian(parts)
            assert J.flags.c_contiguous
            assert J.tobytes() == expected.tobytes()
            assert parts.yhat.tobytes() == gathered_model_parts(params, design, trend).tobytes()


class TestDerivativesWorkspace:
    """The Jacobian workspace rewrites only the columns that depend on the
    parameters; its gradient and Hessian equal those of a Jacobian built anew
    at every iterate, bit for bit."""

    @pytest.mark.parametrize(
        "growth, multiplicative",
        [("linear", False), ("linear", True), ("logistic", False), ("logistic", True)],
    )
    def test_matches_rebuilt_jacobian(self, rng, growth, multiplicative):
        design, y, trend = gradient_test_problem(rng, growth, multiplicative)
        self.assert_matches_rebuilt(rng, design, y, trend)

    def test_mixed_logistic_holiday_layout(self, rng):
        ts, config = logistic_holiday_problem(rng)
        design = build_design(ts, config)
        y = ts.values / np.max(np.abs(ts.values))
        trend = TrendSpec(growth="logistic", capacity=1.2)
        self.assert_matches_rebuilt(rng, design, y, trend)

    def assert_matches_rebuilt(self, rng, design, y, trend):
        derivatives = _Derivatives(design, trend.growth)
        for _ in range(4):
            params = rng.normal(0, 0.5, 2 + design.X.shape[1])
            _, parts, r = _objective(params, design, y, trend)
            gradient, hessian = derivatives(parts, r)
            expected_gradient, expected_hessian = rebuilt_gradient_and_hessian(parts, r, design)
            assert gradient.tobytes() == expected_gradient.tobytes()
            assert hessian.tobytes() == expected_hessian.tobytes()

    @pytest.mark.parametrize("multiplicative, once", [(False, True), (True, False)])
    def test_gram_formed_once_per_linear_additive_fit(self, rng, monkeypatch, multiplicative, once):
        import addcast.estimator as est

        grams = []
        calls = []
        real_gram = est._gram
        real_call = est._Derivatives.__call__

        def counted_gram(J):
            grams.append(1)
            return real_gram(J)

        def counted_call(self, parts, r):
            calls.append(1)
            return real_call(self, parts, r)

        monkeypatch.setattr(est, "_gram", counted_gram)
        monkeypatch.setattr(est._Derivatives, "__call__", counted_call)
        n = 300
        days = daily_days("2020-01-01", n)
        y = 3.0 + np.arange(n) / n + 0.3 * np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.1, n)
        mode = "multiplicative" if multiplicative else "additive"
        config = ModelConfig(
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=3, mode=mode),),
        )
        fit(TimeSeries(days, y), config)
        assert len(calls) >= 2
        assert len(grams) == (1 if once else len(calls))


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
        ts, config = logistic_holiday_problem(rng)
        model = fit(ts, config)
        design = build_design(ts, config)
        params = pack(model.k, model.m, model.delta, model.beta)
        grad = map_gradient(params, design, ts.values / model.y_scale, model.scaled_trend)
        assert np.max(np.abs(grad)) <= 1e-6

    def test_one_model_evaluation_per_objective_evaluation(self, rng, monkeypatch):
        # derivatives at an accepted point and the final sigma reuse the
        # objective evaluation the solver already made there
        import addcast.estimator as est

        real_parts = est._model_parts
        parts_calls = []

        def counted_parts(*args):
            parts_calls.append(1)
            return real_parts(*args)

        monkeypatch.setattr(est, "_model_parts", counted_parts)
        results = recorded_minimize(monkeypatch)
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


def recorded_minimize(monkeypatch):
    """Wrap estimator.minimize; the returned list receives each fit's result."""
    import addcast.estimator as est

    real_minimize = est.minimize
    results = []

    def recorded(*args, **kwargs):
        results.append(real_minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(est, "minimize", recorded)
    return results


def logistic_config(capacity, seasonalities=()):
    return ModelConfig(
        trend=TrendSpec(growth="logistic", capacity=capacity), seasonalities=seasonalities
    )


def flat_design(t_scaled):
    """A design with no changepoints and no seasonal columns on ``t_scaled``."""
    layout = model_layout(logistic_config(1.0), 0)
    return DesignMatrix(
        t_scaled=np.asarray(t_scaled, dtype=np.float64),
        changepoints_scaled=np.empty(0),
        X=np.empty((len(t_scaled), 0)),
        layout=layout,
    )


class TestInitialParameters:
    def test_linear_start_is_least_squares_line(self, rng):
        t = np.linspace(0.0, 1.0, 50)
        y = 0.3 + 0.8 * t + rng.normal(0, 0.1, 50)
        design = flat_design(t)
        line, *_ = np.linalg.lstsq(np.column_stack([t, np.ones_like(t)]), y, rcond=None)
        x0 = _initial_parameters(design, y, TrendSpec())
        assert np.array_equal(x0, line)

    def test_logistic_start_is_logit_line(self):
        # y / capacity stays inside the clip, so the logit of the data is the
        # line 6 * t - 2.4 exactly and the start is the generating curve
        t = np.linspace(0.0, 1.0, 60)
        capacity = 2.5
        y = capacity / (1.0 + np.exp(-6.0 * (t - 0.4)))
        x0 = _initial_parameters(flat_design(t), y, TrendSpec("logistic", capacity=capacity))
        assert x0[0] == pytest.approx(6.0, rel=1e-12)
        assert x0[1] == pytest.approx(0.4, rel=1e-12)

    def test_zero_slope_starts_at_origin(self):
        # every t equal: the line has slope exactly 0 and intercept logit(0.01),
        # so -b / a is infinite
        x0 = _initial_parameters(
            flat_design(np.zeros(5)), np.full(5, 1e-6), TrendSpec("logistic", capacity=1.0)
        )
        assert np.array_equal(x0, [0.0, 0.0])

    def test_half_capacity_starts_at_origin(self):
        # y = capacity / 2: the logit line is 0 * t + 0 and -b / a is 0 / 0
        t = np.linspace(0.0, 1.0, 40)
        trend = TrendSpec("logistic", capacity=3.0)
        x0 = _initial_parameters(flat_design(t), np.full(40, 1.5), trend)
        assert np.array_equal(x0, [0.0, 0.0])

    def test_half_capacity_fit_is_exact_without_steps(self, monkeypatch):
        results = recorded_minimize(monkeypatch)
        ts = make_series("2020-01-01", np.full(200, 4.0))
        model = fit(ts, logistic_config(8.0))
        assert results[0].nit == 0
        assert np.isfinite(model.k) and np.isfinite(model.m)
        assert np.array_equal(predict(model, make_future_grid(model, 0)).yhat, ts.values)


class TestLogisticStart:
    def test_capacity_far_above_data(self, monkeypatch):
        # constant y = 5 under a capacity of 1e13: the ratio clips at 0.01 and
        # the logit line is flat up to rounding, so the start's offset is huge
        # but finite, and k * (t - m) starts on the line logit(0.01)
        results = recorded_minimize(monkeypatch)
        ts = make_series("2020-01-01", np.full(400, 5.0))
        config = logistic_config(
            1e13,
            (
                SeasonalitySpec(name="yearly", period=365.25, fourier_order=10),
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=4,
                                mode="multiplicative"),
            ),
        )
        # scaled by y_scale = 5: y is 1 and the capacity 2e12
        x0 = _initial_parameters(
            build_design(ts, config), np.ones(400), TrendSpec("logistic", capacity=2e12)
        )
        assert np.all(np.isfinite(x0))
        model = fit(ts, config)
        fc = predict(model, make_future_grid(model, 0))
        assert np.max(np.abs(fc.yhat - 5.0)) <= 5.0 * 1e-4
        assert model.sigma_rescaled <= 1e-9
        assert results[0].nit <= 50

    def test_optimum_at_infinity_takes_few_steps(self, monkeypatch):
        # capacity 10 over all-zero data: the fit drives the trend towards 0,
        # an optimum at infinite offset
        results = recorded_minimize(monkeypatch)
        model = fit(make_series("2020-01-01", np.zeros(400)), logistic_config(10.0))
        assert results[0].nit <= 30
        assert np.max(np.abs(predict(model, make_future_grid(model, 0)).yhat)) <= 1e-5

    def test_multiplicative_holiday_fit_converges_in_few_steps(self, rng, monkeypatch):
        results = recorded_minimize(monkeypatch)
        ts, config = logistic_holiday_problem(rng)
        iterates = []
        model = fit(ts, config, iteration_callback=lambda x: iterates.append(x.copy()))
        assert 1 <= results[0].nit <= 5
        # the solver stopped by its own rule: a small gradient, or a last
        # accepted step that lowered the objective by a negligible amount
        design = build_design(ts, config)
        y = ts.values / model.y_scale
        trend = model.scaled_trend
        x_prev = iterates[-2] if len(iterates) > 1 else _initial_parameters(design, y, trend)
        f_last = map_objective(iterates[-1], design, y, trend)
        small_gradient = np.max(np.abs(map_gradient(iterates[-1], design, y, trend)))
        small_decrease = map_objective(x_prev, design, y, trend) - f_last
        assert (
            small_gradient <= GRADIENT_TOLERANCE
            or small_decrease <= OBJECTIVE_TOLERANCE * max(abs(f_last), 1.0)
        )
