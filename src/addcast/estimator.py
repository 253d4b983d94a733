"""Penalized maximum-a-posteriori estimation of the additive model.

The objective is a Gaussian data misfit plus a (smoothed) Laplace penalty on
changepoint rate adjustments and Gaussian penalties on all other coefficient
blocks:

    0.5 * sum(r_t^2) + sum_j softabs(delta_j) / tau + sum_c beta_c^2 / (2 * scale_c^2)

with softabs(x) = sqrt(x^2 + SOFTABS_EPS) keeping the objective C^2, so the
penalty has exact curvature. ``minimize`` is a damped Gauss-Newton
(Levenberg-Marquardt) solver: it builds the Jacobian of the prediction from
the model parts, adds the exact penalty curvature to J^T J, and converges in
a handful of steps on these problems of at most ~100 parameters. Estimation
operates on scaled time (training span mapped to [0, 1]) and scaled values
(divided by the training max-abs), so prior scales mean the same thing
across datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    expit,
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

# Levenberg-Marquardt damping: its starting value, and the factor it shrinks
# by after an accepted step and grows by after a rejected one.
INITIAL_DAMPING = 1e-3
DAMPING_FACTOR = 10.0


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


def row_dot(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v with each row's value independent of the row's position in M,
    which BLAS matrix-vector kernels do not guarantee."""
    return np.einsum("ij,j->i", M, v)


def _model_parts(params, design: DesignMatrix, trend: TrendSpec) -> ModelParts:
    """Evaluate the prediction and the intermediates the gradient reuses.

    For logistic growth ``trend.capacity`` must be expressed in the same
    units as the target the objective is evaluated against.
    """
    k, m, delta, beta = _split_params(params, design)
    t = design.t_scaled
    A = design.columns(design.layout.trend)
    rate = k + row_dot(A, delta)
    offset = m + row_dot(A, gamma_from_delta(design.changepoints_scaled, delta))
    if trend.growth == "linear":
        g = rate * t + offset
        weight = None
    else:
        g = trend.capacity * expit(rate * (t - offset))
        weight = g * (1.0 - g / trend.capacity)

    multiplicative, additive = design.mode_columns
    mul_mask = design.layout.multiplicative_mask
    s_mul = row_dot(multiplicative, beta[mul_mask])
    s_add = row_dot(additive, beta[~mul_mask])
    yhat = g * (1.0 + s_mul) + s_add
    return ModelParts(yhat, g, s_mul, rate, offset, weight, delta, beta)


def _objective(params, design, y, trend):
    """The objective value, with the model parts and residuals behind it."""
    parts = _model_parts(params, design, trend)
    r = y - parts.yhat
    layout = design.layout
    value = (
        0.5 * float(r @ r)
        + float(np.sum(softabs(parts.delta) / layout.trend.prior_scales))
        + 0.5 * float(np.sum(np.square(parts.beta) / layout.prior_variances))
    )
    return value, parts, r


def _gram(J: np.ndarray) -> np.ndarray:
    """J^T J, the Gauss-Newton approximation of the data term's Hessian."""
    return J.T @ J


class _Derivatives:
    """Exact gradient and Gauss-Newton Hessian of the objective on one design.

    The Jacobian d yhat / d theta (one row per observation, columns in packed
    order) lives in a workspace: trend columns are dg/dtheta times
    (1 + s_mul), multiplicative seasonal columns are g times the feature, and
    additive columns are the features. Columns that do not depend on the
    parameters are written once: the additive features, and for linear
    growth the trend's t, 1 and A * (t - s). With linear growth and no
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
        self.linear = growth == "linear"
        J = np.empty((len(t), 2 + layout.width))
        J[:, 2:] = design.X
        if self.linear:
            J[:, 0] = t
            J[:, 1] = 1.0
            J[:, 2:n] *= t[:, np.newaxis] - design.changepoints_scaled
        self.J = J
        self.multiplicative = bool(multiplicative)
        self.gram = _gram(J) if self.linear and not multiplicative else None
        self.inv_var = 1.0 / layout.prior_variances
        self.diagonal = slice(None, None, J.shape[1] + 1)
        # The rewritten columns, as the workspace rows of each run of
        # adjacent columns: the trend columns, unless linear growth fixes
        # them, then the multiplicative columns. A call computes the trend
        # rows from a transposed copy of A, or for linear growth of the
        # fixed trend columns, and the multiplicative rows from the design's
        # column-major multiplicative columns, whose transpose has
        # contiguous rows.
        self.runs = []
        if self.gram is not None:
            return
        trend = J[:, :n] if self.linear else design.columns(layout.trend)
        self.trend_features = np.ascontiguousarray(trend.T)
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
        self.cps = design.changepoints_scaled[:, np.newaxis]

    def jacobian(self, parts: ModelParts) -> np.ndarray:
        """The Jacobian at the iterate of ``parts``; the workspace itself, so
        the next call overwrites it."""
        J, n = self.J, self.n_trend
        if not self.runs:
            return J
        W = self.workspace
        if not self.linear:
            # g = C * expit(rate * (t - offset)); d g / d(exponent) = logistic_weight.
            d_rate = parts.logistic_weight * (self.design.t_scaled - parts.offset)
            d_offset = parts.logistic_weight * parts.rate
            W[0] = d_rate
            np.negative(d_offset, out=W[1])
            trend = W[2:n]
            trend[:] = d_offset
            trend *= self.cps
            trend += d_rate
            trend *= self.trend_features
        if self.multiplicative:
            factor = 1.0 + parts.s_mul
            if self.linear:
                np.multiply(self.trend_features, factor, out=W[:n])
            else:
                W[:n] *= factor
            np.multiply(self.multiplicative_features, parts.trend, out=W[n:])
        for rows, columns in self.runs:
            J[:, columns] = W[rows].T
        return J

    def __call__(self, parts: ModelParts, r: np.ndarray):
        """Exact gradient, and the Gauss-Newton Hessian J^T J plus the exact
        curvature of the penalties. J^T J is the exact Hessian of the data
        term for linear growth with additive seasonality."""
        tau = self.design.layout.trend.prior_scales
        sa = softabs(parts.delta)
        J = self.jacobian(parts)
        gradient = -(J.T @ r)
        gradient[2:] += np.concatenate((parts.delta / (sa * tau), parts.beta * self.inv_var))
        hessian = self.gram.copy() if self.gram is not None else _gram(J)
        curvature = np.concatenate(([0.0, 0.0], SOFTABS_EPS / (sa**3 * tau), self.inv_var))
        hessian.flat[self.diagonal] += curvature
        return gradient, hessian


def map_objective(params, design: DesignMatrix, y: np.ndarray, trend: TrendSpec) -> float:
    """Penalized misfit of the packed parameter vector (lower is better).

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
    _, parts, r = _objective(np.asarray(params, dtype=np.float64), design, y, trend)
    grad, _ = _Derivatives(design, trend.growth)(parts, r)
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
    from (changepoints, delta), never stored. Every parameter and scaling
    must be finite, or construction raises DomainError.
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
        for name in (
            "k", "m", "delta", "beta", "sigma", "t_start", "t_span", "y_scale",
            "changepoints_scaled",
        ):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} must be finite")
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


@dataclass(frozen=True)
class MinimizeResult:
    """Where the solver stopped: the parameters, the objective there, the
    accepted steps taken and the objective evaluations made."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int


def minimize(objective, derivatives, x0, callback=None) -> MinimizeResult:
    """Damped Gauss-Newton (Levenberg-Marquardt) minimization.

    ``objective(x)`` returns the objective value; ``derivatives(x)`` returns
    its gradient g and a positive-semidefinite Hessian approximation H. Each
    step solves (H + lam * diag(H)) p = -g by Cholesky and is accepted only
    if it does not raise the objective; lam shrinks after an accepted step
    and grows after a rejected one, so a rejected step is retried shorter
    until it is accepted. ``callback(x)`` runs after every accepted step.

    Stops when max|g| <= GRADIENT_TOLERANCE, or when an accepted step lowers
    the objective by at most OBJECTIVE_TOLERANCE * max(|f|, 1), which
    includes a step too short to change it. Raises ConvergenceFailure when
    MAX_ITERATIONS accepted steps did not get there.
    """
    x = np.array(x0, dtype=np.float64)
    f = objective(x)
    nfev = 1
    nit = 0
    damping = INITIAL_DAMPING
    while True:
        gradient, hessian = derivatives(x)
        if np.max(np.abs(gradient)) <= GRADIENT_TOLERANCE:
            break
        if nit >= MAX_ITERATIONS:
            raise ConvergenceFailure(f"no convergence within {MAX_ITERATIONS} iterations")
        # A zero diagonal entry (a parameter the data does not move, such as
        # the offset of a flat logistic trend) is floored so that the damped
        # matrix stays positive definite.
        diagonal = np.diag(hessian)
        scale = np.maximum(diagonal, np.finfo(np.float64).eps * np.max(diagonal))
        while True:
            try:
                lower = np.linalg.cholesky(hessian + np.diag(damping * scale))
            except np.linalg.LinAlgError:
                damping *= DAMPING_FACTOR
                continue
            step = np.linalg.solve(lower.T, np.linalg.solve(lower, -gradient))
            trial = objective(x + step)
            nfev += 1
            if trial <= f:
                break
            damping *= DAMPING_FACTOR
        x = x + step
        decrease = f - trial
        f = trial
        nit += 1
        if callback is not None:
            callback(x)
        if decrease <= OBJECTIVE_TOLERANCE * max(abs(f), 1.0):
            break
        # Floored so that a long run of accepted steps cannot drive it to zero.
        damping = max(damping / DAMPING_FACTOR, np.finfo(np.float64).eps)
    return MinimizeResult(x, f, nit, nfev)


def _initial_parameters(
    design: DesignMatrix, y_scaled: np.ndarray, trend: TrendSpec
) -> np.ndarray:
    """Start point of the solver: k and m from a least-squares line over
    scaled t, every other coefficient zero.

    Linear growth fits the line a * t + b to the scaled values and starts at
    k = a, m = b. Logistic growth fits it to logit(y / capacity), with the
    ratio clipped to [0.01, 0.99] as in Prophet's ``logistic_growth_init``
    (seasonal peaks can exceed the capacity), and starts at k = a,
    m = -b / a, so that k * (t - m) is that line. ``trend.capacity`` is in
    the units of ``y_scaled``. A zero slope, or one so small that -b / a
    overflows, has no such offset; the start is then k = m = 0.
    """
    t = design.t_scaled
    A = np.column_stack([t, np.ones_like(t)])
    x0 = np.zeros(2 + design.layout.width)
    if trend.growth == "linear":
        (x0[0], x0[1]), *_ = np.linalg.lstsq(A, y_scaled, rcond=None)
        return x0
    ratio = np.clip(y_scaled / trend.capacity, 0.01, 0.99)
    (a, b), *_ = np.linalg.lstsq(A, np.log(ratio / (1.0 - ratio)), rcond=None)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m0 = -b / a
    if np.isfinite(m0):
        x0[0], x0[1] = a, m0
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

    # The last parameters evaluated and their (value, parts, residuals): the
    # solver asks for derivatives at the point its accepted step just
    # evaluated, and sigma is estimated where it stopped.
    last = [None, None]
    gradient_and_hessian = _Derivatives(design, trend.growth)

    def evaluate(params):
        if last[0] is None or not np.array_equal(params, last[0]):
            last[:] = params, _objective(params, design, y_scaled, trend)
        return last[1]

    def objective(params):
        return evaluate(params)[0]

    def derivatives(params):
        value, parts, r = evaluate(params)
        if not np.isfinite(value):
            raise NonFiniteObjective(f"objective evaluated to {value}")
        gradient, hessian = gradient_and_hessian(parts, r)
        if not np.all(np.isfinite(gradient)):
            raise NonFiniteGradient("gradient contains non-finite entries")
        return gradient, hessian

    result = minimize(
        objective, derivatives, _initial_parameters(design, y_scaled, trend), iteration_callback
    )
    params = result.x
    k, m, delta, beta = _split_params(params, design)
    sigma = estimate_sigma(evaluate(params)[2])

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
