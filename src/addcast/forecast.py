"""Forecast generation: future grids, per-component point predictions, and
Monte-Carlo prediction intervals.

The point forecast is the sum of the reported components, so the additive
identity holds exactly for additive models. The model's layout
(``features.model_layout``) is the single owner of the components' order:
trend, each seasonal block, holidays, regressors. A forecast evaluates the
model on its grid once, for both the point forecast and the simulation.
Interval simulation draws future trend changes from the historical
changepoint behaviour plus per-timestamp observation noise, and is a pure
function of (model, grid, seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .estimator import FittedModel, ModelParts, _model_parts
from .features import design_for_grid, gamma_from_delta, logistic_trend, regressor_column
from .timeseries import format_epoch_day


@dataclass(frozen=True)
class FutureGrid:
    """Prediction timestamps: the training timestamps followed by consecutive
    future calendar days, with regressor values where declared."""

    timestamps: np.ndarray
    regressor_values: dict

    def __post_init__(self):
        t = np.ascontiguousarray(self.timestamps, dtype=np.int64)
        if np.any(np.diff(t) <= 0):
            raise DomainError("grid timestamps must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "timestamps", t)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class Forecast:
    """Per-timestamp point prediction, component contributions and interval
    bounds (original units).

    components always carries "trend", one entry per seasonal block,
    "holidays" and "regressors"; bounds maps coverage level to (lower, upper)
    arrays and is empty until intervals are simulated.
    """

    timestamps: np.ndarray
    yhat: np.ndarray
    components: dict
    bounds: dict

    def __len__(self) -> int:
        return len(self.timestamps)


def make_future_grid(model: FittedModel, periods: int, extra_regressors=None) -> FutureGrid:
    """Training timestamps plus the next ``periods`` consecutive calendar days.

    Regressor values for every grid timestamp must be available either in the
    model's regressor specs or in ``extra_regressors`` ({name: {day: value}}).
    """
    if periods < 0:
        raise DomainError("periods must be >= 0")
    future = np.arange(model.last_day + 1, model.last_day + 1 + periods, dtype=np.int64)
    timestamps = np.concatenate([model.train_timestamps, future])
    merged: dict = {}
    for spec in model.config.regressors:
        values = dict(spec.values)
        if extra_regressors and spec.name in extra_regressors:
            values.update(
                {int(k): float(v) for k, v in extra_regressors[spec.name].items()}
            )
        regressor_column(spec, timestamps, values)  # raises MissingRegressorValue
        merged[spec.name] = values
    return FutureGrid(timestamps=timestamps, regressor_values=merged)


@dataclass(frozen=True)
class _Evaluation:
    """The model evaluated on a grid, in scaled units: the model parts, the
    reported components and their sum."""

    t_scaled: np.ndarray
    parts: ModelParts
    components: dict
    yhat: np.ndarray


def _evaluate(model: FittedModel, grid: FutureGrid) -> _Evaluation:
    """Build the grid's design once and evaluate the model on it."""
    design = design_for_grid(
        grid.timestamps,
        model.config,
        model.time_scaling,
        model.changepoints_scaled,
        extra_regressors=grid.regressor_values,
    )
    params = np.concatenate(([model.k, model.m], model.delta, model.beta))
    parts = _model_parts(params, design, model.scaled_trend)
    layout = design.layout
    components = dict.fromkeys(layout.component_names, np.zeros_like(parts.trend))
    components["trend"] = parts.trend
    for block in layout.coefficients:
        contribution = design.columns(block) @ parts.beta[layout.beta_slice(block)]
        if block.mode == "multiplicative":
            contribution = parts.trend * contribution
        components[block.name] = contribution

    yhat = np.zeros_like(parts.trend)
    for contribution in components.values():
        yhat = yhat + contribution
    return _Evaluation(design.t_scaled, parts, components, yhat)


def _point_forecast(model: FittedModel, grid: FutureGrid, evaluation: _Evaluation) -> Forecast:
    return Forecast(
        timestamps=grid.timestamps,
        yhat=evaluation.yhat * model.y_scale,
        components={k: v * model.y_scale for k, v in evaluation.components.items()},
        bounds={},
    )


def predict(model: FittedModel, grid: FutureGrid) -> Forecast:
    """Point forecast with additive component decomposition, original units."""
    return _point_forecast(model, grid, _evaluate(model, grid))


def simulate_intervals(model: FittedModel, grid: FutureGrid, seed: int) -> dict:
    """Monte-Carlo prediction bounds per configured coverage level.

    Each draw samples future changepoints (count from a Poisson process at
    the historical changepoints-per-unit-scaled-time rate, locations uniform
    over the future span, magnitudes Laplace with scale mean|delta|) plus
    Normal(0, sigma) observation noise; bounds are type-7 empirical quantiles.
    Deterministic given (model, grid, seed); draws are sequential per sample.
    """
    return _simulate(model, _evaluate(model, grid), seed)


def _simulate(model: FittedModel, evaluation: _Evaluation, seed: int) -> dict:
    t = evaluation.t_scaled
    g = evaluation.parts.trend
    cps = model.changepoints_scaled
    n_hist = len(cps)
    future_span = float(max(0.0, t[-1] - 1.0)) if len(t) else 0.0
    laplace_scale = float(np.mean(np.abs(model.delta))) if n_hist else 0.0
    sample_trend = n_hist > 0 and laplace_scale > 0.0 and future_span > 0.0
    trend = model.scaled_trend
    logistic = trend.growth == "logistic"

    rng = np.random.Generator(np.random.Philox(int(seed)))
    n_samples = model.config.interval_samples
    samples = np.empty((n_samples, len(t)))
    seasonal_factor = 1.0 + evaluation.parts.s_mul
    for i in range(n_samples):
        deviation = 0.0
        if sample_trend:
            n_new = rng.poisson(n_hist * future_span)
            if n_new > 0:
                locs = np.sort(rng.uniform(1.0, 1.0 + future_span, n_new))
                mags = rng.laplace(0.0, laplace_scale, n_new)
                if logistic:
                    cps_aug = np.concatenate([cps, locs])
                    delta_aug = np.concatenate([model.delta, mags])
                    g_new = logistic_trend(
                        t,
                        model.k,
                        model.m,
                        delta_aug,
                        gamma_from_delta(cps_aug, delta_aug),
                        cps_aug,
                        trend.capacity,
                    )
                    deviation = g_new - g
                else:
                    active = t[:, np.newaxis] >= locs
                    deviation = (active * (t[:, np.newaxis] - locs)) @ mags
        noise = rng.normal(0.0, model.sigma, len(t))
        samples[i] = evaluation.yhat + deviation * seasonal_factor + noise

    levels = model.config.interval_levels
    qs = [q for level in levels for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0)]
    quantiles = np.quantile(samples, qs, axis=0) * model.y_scale
    return {level: (quantiles[2 * i], quantiles[2 * i + 1]) for i, level in enumerate(levels)}


def forecast_with_intervals(model: FittedModel, grid: FutureGrid, seed=None) -> Forecast:
    """predict plus simulate_intervals under the model's (or given) seed."""
    evaluation = _evaluate(model, grid)
    bounds = _simulate(model, evaluation, model.config.seed if seed is None else seed)
    return replace(_point_forecast(model, grid, evaluation), bounds=bounds)


def write_forecast_csv(forecast: Forecast, model: FittedModel, path) -> None:
    """Forecast table: ds, yhat, per-level bounds, then component columns
    (regressors only when the model declares any)."""
    levels = sorted(forecast.bounds)
    header = ["ds", "yhat"]
    for level in levels:
        pct = int(round(level * 100))
        header += [f"yhat_lower_{pct}", f"yhat_upper_{pct}"]
    names = model.layout.component_names
    if not model.config.regressors:
        names.remove("regressors")
    header += names
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, day in enumerate(forecast.timestamps):
            row = [format_epoch_day(int(day)), repr(float(forecast.yhat[i]))]
            for level in levels:
                lower, upper = forecast.bounds[level]
                row += [repr(float(lower[i])), repr(float(upper[i]))]
            row += [repr(float(forecast.components[name][i])) for name in names]
            writer.writerow(row)
