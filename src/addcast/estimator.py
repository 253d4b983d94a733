"""Penalized maximum-a-posteriori estimation of the additive model.

The objective is a Gaussian data misfit plus a (smoothed) Laplace penalty on
changepoint rate adjustments and Gaussian penalties on all other coefficient
blocks:

    0.5 * sum(r_t^2) + sum_j softabs(delta_j) / tau + sum_c beta_c^2 / (2 * scale_c^2)

with softabs(x) = sqrt(x^2 + SOFTABS_EPS) keeping the objective C^1 for
quasi-Newton minimization. Estimation operates on scaled time (training span
mapped to [0, 1]) and scaled values (divided by the training max-abs), so
prior scales mean the same thing across datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .config import ModelConfig, TrendSpec
from .errors import (
    ConvergenceFailure,
    DomainError,
    NonFiniteGradient,
    NonFiniteObjective,
    TooFewResiduals,
    UnderdeterminedModel,
)
from .features import (
    DesignMatrix,
    Layout,
    TimeScaling,
    build_design,
    gamma_from_delta,
    model_layout,
)
from .timeseries import TimeSeries

# Smoothing constant for the Laplace penalty; bias is far below every stated
# tolerance (softabs(0) = 1e-5).
SOFTABS_EPS = 1e-10

MAX_ITERATIONS = 2000
GRADIENT_TOLERANCE = 1e-8
OBJECTIVE_TOLERANCE = 1e-10  # relative decrease per accepted iteration


def softabs(x):
    return np.sqrt(np.square(x) + SOFTABS_EPS)


def _split_params(params: np.ndarray, design: DesignMatrix):
    n_cp = design.layout.trend.width
    expected = 2 + design.layout.width
    if len(params) != expected:
        raise DomainError(
            f"parameter vector has length {len(params)}, expected {expected}"
        )
    return float(params[0]), float(params[1]), params[2 : 2 + n_cp], params[2 + n_cp :]


def _scaled_trend(trend: TrendSpec, y_scale: float) -> TrendSpec:
    """The trend spec in scaled-value units: a logistic capacity is divided by
    the value scale, like the target the model is fit to."""
    if trend.growth == "logistic":
        return replace(trend, capacity=trend.capacity / y_scale)
    return trend


@dataclass(frozen=True)
class ModelParts:
    """The prediction on a design and the intermediates the gradient and the
    forecast reuse, in scaled units. ``trend`` is g(t), with per-row growth
    ``rate`` and ``offset``; ``s_mul`` is the multiplicative seasonal sum;
    ``logistic_weight`` is g * (1 - g / capacity), None for linear growth."""

    yhat: np.ndarray
    trend: np.ndarray
    s_mul: np.ndarray
    rate: np.ndarray
    offset: np.ndarray
    logistic_weight: np.ndarray | None
    delta: np.ndarray
    beta: np.ndarray


def _model_parts(params, design: DesignMatrix, trend: TrendSpec) -> ModelParts:
    """Evaluate the prediction and the intermediates the gradient reuses.

    For logistic growth ``trend.capacity`` must be expressed in the same
    units as the target the objective is evaluated against.
    """
    k, m, delta, beta = _split_params(params, design)
    t = design.t_scaled
    A = design.columns(design.layout.trend)
    rate = k + A @ delta
    offset = m + A @ gamma_from_delta(design.changepoints_scaled, delta)
    if trend.growth == "linear":
        g = rate * t + offset
        weight = None
    else:
        g = trend.capacity * expit(rate * (t - offset))
        weight = g * (1.0 - g / trend.capacity)

    Xr = design.X[:, design.layout.trend.stop :]
    mul_mask = design.layout.multiplicative_mask
    if mul_mask.any():
        s_mul = Xr[:, mul_mask] @ beta[mul_mask]
        s_add = Xr[:, ~mul_mask] @ beta[~mul_mask]
    else:
        s_mul = np.zeros_like(t)
        s_add = Xr @ beta
    yhat = g * (1.0 + s_mul) + s_add
    return ModelParts(yhat, g, s_mul, rate, offset, weight, delta, beta)


def _objective_and_gradient(params, design, y, trend):
    parts = _model_parts(params, design, trend)
    delta, beta = parts.delta, parts.beta
    r = y - parts.yhat
    layout = design.layout
    tau = layout.trend.prior_scales
    scales = layout.prior_scales

    sa = softabs(delta)
    objective = (
        0.5 * float(r @ r)
        + float(np.sum(sa / tau))
        + 0.5 * float(np.sum(np.square(beta) / np.square(scales)))
    )

    # Data term: d(obj)/d(theta) = -(d yhat / d theta)^T r.
    r_eff = r * (1.0 + parts.s_mul)
    t = design.t_scaled
    cps = design.changepoints_scaled
    A = design.columns(layout.trend)
    if parts.logistic_weight is None:
        dk = -float(r_eff @ t)
        dm = -float(np.sum(r_eff))
        ddelta = -(A.T @ (r_eff * t)) + cps * (A.T @ r_eff)
    else:
        u1 = r_eff * parts.logistic_weight * (t - parts.offset)
        u2 = r_eff * parts.logistic_weight * parts.rate
        dk = -float(np.sum(u1))
        dm = float(np.sum(u2))
        ddelta = -(A.T @ u1) - cps * (A.T @ u2)

    Xr = design.X[:, layout.trend.stop :]
    mul_mask = layout.multiplicative_mask
    dbeta = np.empty_like(beta)
    if mul_mask.any():
        dbeta[mul_mask] = -(Xr[:, mul_mask].T @ (r * parts.trend))
        dbeta[~mul_mask] = -(Xr[:, ~mul_mask].T @ r)
    else:
        dbeta[:] = -(Xr.T @ r)

    ddelta = ddelta + delta / (sa * tau)
    dbeta = dbeta + beta / np.square(scales)

    gradient = np.concatenate(([dk, dm], ddelta, dbeta))
    return objective, gradient


def map_objective(params, design: DesignMatrix, y: np.ndarray, trend: TrendSpec) -> float:
    """Penalized misfit of the packed parameter vector (lower is better).

    ``params`` packs (k, m, delta over changepoints, then the coefficients of
    every non-trend block in design order). ``y`` is in scaled units; for
    logistic growth the trend's capacity must be in those same units.
    """
    value, _ = _objective_and_gradient(np.asarray(params, dtype=np.float64), design, y, trend)
    if not np.isfinite(value):
        raise NonFiniteObjective(f"objective evaluated to {value}")
    return value


def map_gradient(params, design: DesignMatrix, y: np.ndarray, trend: TrendSpec) -> np.ndarray:
    """Exact gradient of map_objective under the same parameter packing."""
    _, grad = _objective_and_gradient(np.asarray(params, dtype=np.float64), design, y, trend)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains non-finite entries")
    return grad


def estimate_sigma(residuals) -> float:
    """Sample standard deviation (divisor n-1) of in-sample residuals."""
    r = np.asarray(residuals, dtype=np.float64)
    if len(r) < 2:
        raise TooFewResiduals("sigma estimation needs at least 2 residuals")
    return float(np.std(r, ddof=1))


@dataclass(frozen=True)
class FittedModel:
    """Estimated parameters plus the data scalings needed to apply them.

    Trend parameters (k, m, delta, changepoints) live in scaled time and
    scaled values; sigma is in scaled-value units. gamma is always derived
    from (changepoints, delta), never stored.
    """

    config: ModelConfig
    k: float
    m: float
    delta: np.ndarray
    beta: np.ndarray
    sigma: float
    t_start: float
    t_span: float
    y_scale: float
    changepoints_scaled: np.ndarray
    train_timestamps: np.ndarray

    def __post_init__(self):
        for name in ("delta", "beta", "changepoints_scaled"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        tt = np.ascontiguousarray(self.train_timestamps, dtype=np.int64)
        tt.setflags(write=False)
        object.__setattr__(self, "train_timestamps", tt)
        if self.sigma < 0:
            raise DomainError("sigma must be nonnegative")
        if self.t_span <= 0 or self.y_scale <= 0:
            raise DomainError("scaling spans must be positive")

    @property
    def n_obs(self) -> int:
        return len(self.train_timestamps)

    @property
    def first_day(self) -> int:
        return int(self.train_timestamps[0])

    @property
    def last_day(self) -> int:
        return int(self.train_timestamps[-1])

    @property
    def time_scaling(self) -> TimeScaling:
        return TimeScaling(t_start=self.t_start, t_span=self.t_span)

    @property
    def sigma_rescaled(self) -> float:
        """Residual standard deviation in original value units."""
        return self.sigma * self.y_scale

    @property
    def layout(self) -> Layout:
        return model_layout(self.config, len(self.changepoints_scaled))

    @property
    def scaled_trend(self) -> TrendSpec:
        """The config's trend spec in the scaled-value units of the model."""
        return _scaled_trend(self.config.trend, self.y_scale)


def _initial_parameters(design: DesignMatrix, y_scaled: np.ndarray) -> np.ndarray:
    """Least-squares line through (scaled t, scaled y) seeds k and m; every
    other coefficient starts at zero."""
    t = design.t_scaled
    A = np.column_stack([t, np.ones_like(t)])
    (k0, m0), *_ = np.linalg.lstsq(A, y_scaled, rcond=None)
    x0 = np.zeros(2 + design.layout.width)
    x0[0] = k0
    x0[1] = m0
    return x0


def fit(ts: TimeSeries, config: ModelConfig, iteration_callback=None) -> FittedModel:
    """Estimate all model parameters on a dense series.

    Deterministic: no randomness enters point estimation, so identical inputs
    give bit-identical models. ``iteration_callback``, when given, receives
    the packed parameter vector after every accepted optimizer iteration.
    """
    if ts.has_missing:
        raise DomainError("series contains missing values; preprocess before fitting")
    if len(ts) < 2:
        raise UnderdeterminedModel("fitting needs at least 2 observations")

    design = build_design(ts, config)
    y = ts.values
    y_scale = float(np.max(np.abs(y)))
    if y_scale == 0.0:
        y_scale = 1.0
    y_scaled = y / y_scale

    n_params = 2 + design.layout.width
    n_obs = len(ts)
    if n_params > n_obs or n_obs < 2 + n_params / 10:
        raise UnderdeterminedModel(
            f"{n_params} parameters against {n_obs} observations"
        )

    trend = _scaled_trend(config.trend, y_scale)

    x0 = _initial_parameters(design, y_scaled)

    def fused(params):
        value, grad = _objective_and_gradient(params, design, y_scaled, trend)
        if not np.isfinite(value):
            raise NonFiniteObjective(f"objective evaluated to {value}")
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradient("gradient contains non-finite entries")
        return value, grad

    # Correction history of 50 keeps the quasi-Newton model close to full
    # rank for these <=100-parameter problems; near-collinear seasonal blocks
    # otherwise stall the default memory of 10 for thousands of iterations.
    result = minimize(
        fused,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=iteration_callback,
        options={
            "maxiter": MAX_ITERATIONS,
            "maxfun": 50 * MAX_ITERATIONS,
            "maxcor": 50,
            "ftol": OBJECTIVE_TOLERANCE,
            "gtol": GRADIENT_TOLERANCE,
        },
    )
    if result.status == 1:
        raise ConvergenceFailure(
            f"no convergence within {MAX_ITERATIONS} iterations"
        )
    if result.status == 2:
        # Line-search hit the rounding floor: no further objective decrease
        # is representable, which meets the relative-decrease criterion as
        # long as we are actually near a stationary point.
        grad_norm = float(np.max(np.abs(result.jac))) if result.jac is not None else np.inf
        if not np.isfinite(result.fun) or grad_norm > 1e-3:
            raise ConvergenceFailure(f"optimizer stalled: {result.message}")

    params = result.x
    k, m, delta, beta = _split_params(params, design)
    sigma = estimate_sigma(y_scaled - _model_parts(params, design, trend).yhat)

    return FittedModel(
        config=config,
        k=k,
        m=m,
        delta=np.array(delta),
        beta=np.array(beta),
        sigma=sigma,
        t_start=float(ts.timestamps[0]),
        t_span=float(ts.timestamps[-1] - ts.timestamps[0]),
        y_scale=y_scale,
        changepoints_scaled=np.array(design.changepoints_scaled),
        train_timestamps=ts.timestamps,
    )
