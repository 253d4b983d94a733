"""Penalized maximum-a-posteriori estimation of the additive model.

The objective is a Gaussian data misfit plus a (smoothed) Laplace penalty on
changepoint rate adjustments and Gaussian penalties on all other coefficient
blocks:

    0.5 * sum(r_t^2) + sum_j (softabs(delta_j) - softabs(0)) / tau
        + sum_c beta_c^2 / (2 * scale_c^2)

with softabs(x) = sqrt(x^2 + SOFTABS_EPS) keeping the objective C^2, so the
penalty has exact curvature. Every penalty is zero at zero, so a small tau
adds no constant that would swamp the data term in the solver's stop tests.
``minimize`` is a damped Gauss-Newton (Levenberg-Marquardt) solver: it
builds the Jacobian of the prediction from the model parts, adds the exact
penalty curvature to J^T J, and converges in a handful of steps on these
problems of at most ~100 parameters. Estimation operates on scaled time (training span mapped to [0, 1]) and scaled values
(divided by the training max-abs), so prior scales mean the same thing
across datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

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
    growth_curve,
    model_layout,
)
from .timeseries import TimeSeries, frozen

# Smoothing constant for the Laplace penalty; bias is far below every stated
# tolerance (softabs(0) = 1e-5).
SOFTABS_EPS = 1e-10

MAX_ITERATIONS = 2000
GRADIENT_TOLERANCE = 1e-8
OBJECTIVE_TOLERANCE = 1e-10  # relative decrease per accepted iteration

# Levenberg-Marquardt damping: its starting value, and the factor it shrinks
# by after an accepted step and grows by after a rejected one.
INITIAL_DAMPING = 1e-3
DAMPING_FACTOR = 10.0


def softabs(x):
    return np.sqrt(np.square(x) + SOFTABS_EPS)


def _split_params(params: np.ndarray, design: DesignMatrix):
    """(k, m, delta, beta) of a packed vector; ``FittedModel.params`` packs."""
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


class ModelParts(NamedTuple):
    """The prediction on a design and the intermediates the gradient and the
    forecast reuse, in scaled units. ``trend`` is g(t), a function of the
    trend line rate * t + offset with per-row ``rate`` and ``offset``;
    ``s_mul`` is the multiplicative seasonal sum; ``logistic_weight`` is
    dg / d(line) = g * (1 - g / capacity), None for linear growth."""

    yhat: np.ndarray
    trend: np.ndarray
    s_mul: np.ndarray
    rate: np.ndarray
    offset: np.ndarray
    logistic_weight: np.ndarray | None
    delta: np.ndarray
    beta: np.ndarray


def row_dot(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v with each row's value independent of the row's position in M,
    which BLAS matrix-vector kernels do not guarantee."""
    return np.einsum("ij,j->i", M, v)


def _model_parts(params, design: DesignMatrix, trend: TrendSpec) -> ModelParts:
    """Evaluate the prediction and the intermediates the gradient reuses.

    The trend is ``features.growth_curve`` of the per-row rate
    k + a(t)'delta and offset m + a(t)'gamma, whose line
    rate * t + offset is continuous at every changepoint. For logistic growth
    ``trend.capacity`` must be expressed in the same units as the target
    the objective is evaluated against.
    """
    k, m, delta, beta = _split_params(params, design)
    t = design.t_scaled
    A = design.columns(design.layout.trend)
    rate = k + row_dot(A, delta)
    offset = m + row_dot(A, gamma_from_delta(design.changepoints_scaled, delta))
    g = growth_curve(rate, offset, t, trend)
    weight = None if trend.growth == "linear" else g * (1.0 - g / trend.capacity)

    multiplicative, additive = design.mode_columns
    mul_mask = design.layout.multiplicative_mask
    s_mul = row_dot(multiplicative, beta[mul_mask])
    s_add = row_dot(additive, beta[~mul_mask])
    yhat = g * (1.0 + s_mul) + s_add
    return ModelParts(yhat, g, s_mul, rate, offset, weight, delta, beta)


def _objective(params, design, y, trend):
    """The objective value, with the model parts and residuals behind it."""
    parts = _model_parts(params, design, trend)
    layout = design.layout
    # A trial step may overflow to inf, which minimize rejects.
    with np.errstate(over="ignore"):
        r = y - parts.yhat
        value = (
            0.5 * float(r @ r)
            + float(np.sum((softabs(parts.delta) - softabs(0.0)) / layout.trend.prior_scales))
            + 0.5 * float(np.sum(np.square(parts.beta) / layout.prior_variances))
        )
    return value, parts, r


def _gram(J: np.ndarray) -> np.ndarray:
    """J^T J, the Gauss-Newton approximation of the data term's Hessian."""
    return J.T @ J


class _Derivatives:
    """Exact gradient and Gauss-Newton Hessian of the objective on one design.

    The Jacobian d yhat / d theta (one row per observation, columns in packed
    order) lives in a workspace. The trend line's derivatives t, 1 and
    A * (t - s) are the same for both growths; the trend columns are those
    times logistic_weight (logistic growth) and times (1 + s_mul)
    (multiplicative seasonality). Multiplicative seasonal columns are g times
    the feature, and additive columns are the features. Columns that do not
    depend on the parameters are written once: the additive features, and
    for linear growth the trend line's. With linear growth and no
    multiplicative block nothing depends on the parameters (s_mul is an
    empty sum, so the factor is exactly 1.0), and J^T J is formed once.

    A call computes the columns that do depend on the parameters as rows of
    a transposed workspace, so every elementwise operation runs along
    contiguous rows of length n, and then copies those rows into J, one copy
    per run of adjacent columns. J stays the C-contiguous matrix that J^T J
    and J^T r read, and every entry gets the bits of the same operations
    done column by column.
    """

    def __init__(self, design: DesignMatrix, growth: str):
        layout = design.layout
        t = design.t_scaled
        self.design = design
        self.n_trend = n = 2 + layout.trend.width
        multiplicative = [b for b in layout.coefficients if b.mode == "multiplicative"]
        self.logistic = growth == "logistic"
        self.multiplicative = bool(multiplicative)
        J = np.empty((len(t), 2 + layout.width))
        J[:, 2:] = design.X
        J[:, 0] = t
        J[:, 1] = 1.0
        J[:, 2:n] *= t[:, np.newaxis] - design.changepoints_scaled
        self.J = J
        self.gram = None if self.logistic or self.multiplicative else _gram(J)
        self.inv_var = 1.0 / layout.prior_variances
        self.diagonal = slice(None, None, J.shape[1] + 1)
        # The rewritten columns, as the workspace rows of each run of
        # adjacent columns: the trend columns, then the multiplicative
        # columns. A call computes the trend rows from a transposed copy of
        # the trend line's columns, and the multiplicative rows from the
        # design's column-major multiplicative columns, whose transpose has
        # contiguous rows.
        self.runs = []
        if self.gram is not None:
            return
        self.trend_features = np.ascontiguousarray(J[:, :n].T)
        self.multiplicative_features = design.mode_columns[0].T
        runs = [[0, n]]
        for b in multiplicative:
            if runs[-1][1] == 2 + b.start:
                runs[-1][1] = 2 + b.stop
            else:
                runs.append([2 + b.start, 2 + b.stop])
        row = 0
        for lo, hi in runs:
            self.runs.append((slice(row, row + hi - lo), slice(lo, hi)))
            row += hi - lo
        self.workspace = np.empty((row, len(t)))

    def jacobian(self, parts: ModelParts) -> np.ndarray:
        """The Jacobian at the iterate of ``parts``; the workspace itself, so
        the next call overwrites it."""
        J, n = self.J, self.n_trend
        if not self.runs:
            return J
        W = self.workspace
        trend = self.trend_features
        if self.logistic:
            trend = np.multiply(trend, parts.logistic_weight, out=W[:n])
        if self.multiplicative:
            np.multiply(trend, 1.0 + parts.s_mul, out=W[:n])
            np.multiply(self.multiplicative_features, parts.trend, out=W[n:])
        for rows, columns in self.runs:
            J[:, columns] = W[rows].T
        return J

    def __call__(self, evaluation):
        """Exact gradient, and the Gauss-Newton Hessian J^T J plus the exact
        curvature of the penalties, at an ``_objective`` evaluation; J^T J is
        the exact Hessian of the data term for linear growth with additive
        seasonality. A value or gradient that is not finite raises."""
        value, parts, r = evaluation
        if not np.isfinite(value):
            raise NonFiniteObjective(f"objective evaluated to {value}")
        tau = self.design.layout.trend.prior_scales
        sa = softabs(parts.delta)
        J = self.jacobian(parts)
        gradient = -(J.T @ r)
        gradient[2:] += np.concatenate((parts.delta / (sa * tau), parts.beta * self.inv_var))
        if not np.all(np.isfinite(gradient)):
            raise NonFiniteGradient("gradient contains non-finite entries")
        hessian = self.gram.copy() if self.gram is not None else _gram(J)
        curvature = np.concatenate(([0.0, 0.0], SOFTABS_EPS / (sa**3 * tau), self.inv_var))
        hessian.flat[self.diagonal] += curvature
        return gradient, hessian


def map_objective(params, design: DesignMatrix, y: np.ndarray, trend: TrendSpec) -> float:
    """Penalized misfit of the packed parameter vector (lower is better), the
    value the solver minimizes: 0.5 * sum(r^2) plus penalties that are each
    zero at zero, so zero parameters on zero data give 0.

    ``params`` packs (k, m, delta over changepoints, then the coefficients of
    every non-trend block in design order). ``y`` is in scaled units; for
    logistic growth the trend's capacity must be in those same units.
    """
    value, _, _ = _objective(np.asarray(params, dtype=np.float64), design, y, trend)
    if not np.isfinite(value):
        raise NonFiniteObjective(f"objective evaluated to {value}")
    return value


def map_gradient(params, design: DesignMatrix, y: np.ndarray, trend: TrendSpec) -> np.ndarray:
    """Exact gradient of map_objective under the same parameter packing."""
    evaluation = _objective(np.asarray(params, dtype=np.float64), design, y, trend)
    gradient, _ = _Derivatives(design, trend.growth)(evaluation)
    return gradient


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
    scaled values: k is the trend line's rate and m its value at t = 0, so
    the line is k * t + m before the first changepoint, for both growths.
    sigma is in scaled-value units. gamma is always derived
    from (changepoints, delta), never stored. Every parameter and scaling
    must be finite, or construction raises DomainError.
    """

    config: ModelConfig
    k: float
    m: float
    delta: np.ndarray
    beta: np.ndarray
    sigma: float
    scaling: TimeScaling
    y_scale: float
    changepoints_scaled: np.ndarray
    train_timestamps: np.ndarray

    def __post_init__(self):
        for name in ("delta", "beta", "changepoints_scaled"):
            object.__setattr__(self, name, frozen(getattr(self, name), np.float64))
        object.__setattr__(self, "train_timestamps", frozen(self.train_timestamps, np.int64))
        for name in (
            "k", "m", "delta", "beta", "sigma", "scaling", "y_scale", "changepoints_scaled",
        ):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} must be finite")
        if self.sigma < 0:
            raise DomainError("sigma must be nonnegative")
        if self.scaling.t_span <= 0 or self.y_scale <= 0:
            raise DomainError("scaling spans must be positive")

    @property
    def params(self) -> np.ndarray:
        """The packed parameter vector, as ``_split_params`` unpacks it."""
        return np.concatenate(([self.k, self.m], self.delta, self.beta))

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


class MinimizeResult(NamedTuple):
    """Where the solver stopped: the parameters, the evaluation there (the
    objective value first), the accepted steps and objective evaluations."""

    x: np.ndarray
    nit: int
    nfev: int
    evaluation: tuple


def minimize(evaluate, derivatives, x0, callback=None) -> MinimizeResult:
    """Damped Gauss-Newton (Levenberg-Marquardt) minimization.

    ``evaluate(x)`` returns an evaluation whose first item is the objective
    value; ``derivatives(evaluation)`` returns the gradient g and a
    positive-semidefinite Hessian approximation H at an accepted evaluation.
    Each step solves (H + lam * diag(H)) p = -g by Cholesky and is accepted
    only if it does not raise the objective; lam shrinks after an accepted
    step and grows after a rejected one, so a rejected step is retried
    shorter until it is accepted. ``callback(x)`` runs after each accepted step.

    Stops when max|g| <= GRADIENT_TOLERANCE, or when an accepted step lowers
    the objective by at most OBJECTIVE_TOLERANCE * max(|f|, 1), which
    includes a step too short to change it. Raises ConvergenceFailure when
    MAX_ITERATIONS accepted steps did not get there.
    """
    x = np.array(x0, dtype=np.float64)
    evaluation = evaluate(x)
    nfev = 1
    nit = 0
    damping = INITIAL_DAMPING
    while True:
        gradient, hessian = derivatives(evaluation)
        if np.max(np.abs(gradient)) <= GRADIENT_TOLERANCE:
            break
        if nit >= MAX_ITERATIONS:
            raise ConvergenceFailure(f"no convergence within {MAX_ITERATIONS} iterations")
        # A zero diagonal entry (a parameter the data does not move, such as
        # the offset of a flat logistic trend) is floored so that the damped
        # matrix stays positive definite. Only those are: a floor on every
        # entry would freeze k, m and beta under a huge changepoint curvature.
        diagonal = np.diag(hessian)
        scale = np.where(diagonal > 0, diagonal, np.finfo(np.float64).eps * np.max(diagonal))
        f = evaluation[0]
        while True:
            try:
                lower = np.linalg.cholesky(hessian + np.diag(damping * scale))
            except np.linalg.LinAlgError:
                damping *= DAMPING_FACTOR
                continue
            step = np.linalg.solve(lower.T, np.linalg.solve(lower, -gradient))
            evaluation = evaluate(x + step)
            nfev += 1
            if evaluation[0] <= f:
                break
            damping *= DAMPING_FACTOR
        x = x + step
        nit += 1
        if callback is not None:
            callback(x)
        if f - evaluation[0] <= OBJECTIVE_TOLERANCE * max(abs(evaluation[0]), 1.0):
            break
        # Floored so that a long run of accepted steps cannot drive it to zero.
        damping = max(damping / DAMPING_FACTOR, np.finfo(np.float64).eps)
    return MinimizeResult(x, nit, nfev, evaluation)


def _initial_parameters(
    design: DesignMatrix, y_scaled: np.ndarray, trend: TrendSpec
) -> np.ndarray:
    """Start point of the solver: the trend line k * t + m from a least-squares
    line over scaled t, every other coefficient zero.

    Linear growth fits the line to the scaled values. Logistic growth fits
    it to logit(y / capacity), with the ratio clipped to
    [min(0.01, smallest positive ratio), 0.99]: the upper clip is Prophet's
    ``logistic_growth_init`` (seasonal peaks can exceed the capacity), and
    the lower one leaves data far below the capacity on its own logit.
    ``trend.capacity`` is in the units of ``y_scaled``.
    """
    t = design.t_scaled
    target = y_scaled
    if trend.growth == "logistic":
        ratio = y_scaled / trend.capacity
        floor = np.min(ratio, initial=0.01, where=ratio > 0)
        ratio = np.clip(ratio, floor, 0.99)
        target = np.log(ratio / (1.0 - ratio))
    x0 = np.zeros(2 + design.layout.width)
    (x0[0], x0[1]), *_ = np.linalg.lstsq(
        np.column_stack([t, np.ones_like(t)]), target, rcond=None
    )
    return x0


def fit(ts: TimeSeries, config: ModelConfig) -> FittedModel:
    """Estimate all model parameters on a dense series; sigma comes from the
    residuals of the ``_objective`` evaluation that ``minimize`` stopped at.
    Deterministic: no randomness enters point estimation, so identical inputs
    give bit-identical models.
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
    result = minimize(
        lambda params: _objective(params, design, y_scaled, trend),
        _Derivatives(design, trend.growth),
        _initial_parameters(design, y_scaled, trend),
    )
    k, m, delta, beta = _split_params(result.x, design)
    sigma = estimate_sigma(result.evaluation[2])

    return FittedModel(
        config=config,
        k=k,
        m=m,
        delta=delta,
        beta=beta,
        sigma=sigma,
        scaling=design.scaling,
        y_scale=y_scale,
        changepoints_scaled=design.changepoints_scaled,
        train_timestamps=ts.timestamps,
    )
