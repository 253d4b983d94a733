"""Forecast generation: future grids, per-component point predictions, and
Monte-Carlo prediction intervals.

The point forecast is the sum of the reported components, so the additive
identity holds exactly for additive models. The model's layout
(``features.model_layout``) is the single owner of the components' order:
trend, each seasonal block, holidays, regressors. A forecast evaluates the
model on its grid once, for both the point forecast and the simulation; a
day's point forecast is a function of (model, day). Interval simulation
draws future trend changes from the historical changepoint behaviour plus
per-timestamp observation noise, and is a pure function of (model, grid, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .estimator import FittedModel, ModelParts, _model_parts, row_dot
from .features import design_for_grid, expit, regressor_column
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
        contribution = row_dot(design.columns(block), parts.beta[layout.beta_slice(block)])
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
    Normal(0, sigma) observation noise. The bounds are numpy's default
    type-7 (linear) empirical quantiles, bit for bit, read from one sort of
    each row of the sample matrix.

    A pure function of (model, grid, seed). The seed is split into three
    independent Philox streams: history-row noise, future-row noise, and
    future trend changes. A future day's draws therefore do not depend on
    whether history rows are in the grid.
    """
    return _simulate(model, grid, _evaluate(model, grid), seed)


# Samples per block of trend-deviation temporaries; bounds the extra memory
# of the simulation to a few (future rows x block) arrays.
_SAMPLE_BLOCK = 128


def _streams(seed) -> tuple[np.random.Generator, ...]:
    """History-noise, future-noise and trend-change generators of a seed."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.Generator(np.random.Philox(child)) for child in children)


def _trend_deviations(model: FittedModel, evaluation: _Evaluation, first: int, stream):
    """Yield (columns, deviation) blocks of the sampled trend minus the fitted
    trend on the future rows ``[first:]``, in scaled units.

    All changepoint counts, locations and magnitudes are drawn from
    ``stream`` as three block draws; sample s owns the locations and
    magnitudes at [sum(counts[:s]), sum(counts[:s+1])). A changepoint at loc
    adds its magnitude to the rate and loc * magnitude to the negated offset
    of every row with t >= loc: a cumulative sum down the rows of what each
    changepoint adds at its first such row. The sampled trend is then
    evaluated exactly as the fitted one is, rate * t + offset (linear) or
    capacity * expit(rate * (t - offset)) (logistic), so a sample without
    changepoints up to a row deviates by exactly 0 there. Yields nothing
    when there are no future rows or no historical changepoint behaviour.
    """
    t = evaluation.t_scaled[first:]
    n_hist = len(model.changepoints_scaled)
    if len(t) == 0 or n_hist == 0:
        return
    laplace_scale = float(np.mean(np.abs(model.delta)))
    if laplace_scale == 0.0:
        return
    span = float(t[-1] - 1.0)
    n_samples = model.config.interval_samples
    counts = stream.poisson(n_hist * span, n_samples)
    locs = stream.uniform(1.0, 1.0 + span, int(counts.sum()))
    mags = stream.laplace(0.0, laplace_scale, len(locs))
    owner = np.repeat(np.arange(n_samples), counts)
    row = np.searchsorted(t, locs, side="left")
    cp_start = np.concatenate(([0], np.cumsum(counts)))

    parts = evaluation.parts
    rate = parts.rate[first:, np.newaxis]
    offset = parts.offset[first:, np.newaxis]
    g = parts.trend[first:, np.newaxis]
    t_col = t[:, np.newaxis]
    trend = model.scaled_trend
    n_rows = len(t)
    for lo in range(0, n_samples, _SAMPLE_BLOCK):
        hi = min(lo + _SAMPLE_BLOCK, n_samples)
        width = hi - lo
        cps = slice(cp_start[lo], cp_start[hi])
        cell = row[cps] * width + (owner[cps] - lo)

        def active_sum(weights):
            """Per (row, sample) sum of ``weights`` over changepoints <= t."""
            per_cell = np.bincount(cell, weights=weights, minlength=(n_rows + 1) * width)
            return np.cumsum(per_cell.reshape(n_rows + 1, width)[:n_rows], axis=0)

        new_rate = rate + active_sum(mags[cps])
        new_offset = offset - active_sum(locs[cps] * mags[cps])
        if trend.growth == "linear":
            g_new = new_rate * t_col + new_offset
        else:
            g_new = trend.capacity * expit(new_rate * (t_col - new_offset))
        yield slice(lo, hi), g_new - g


def _first_future_row(model: FittedModel, grid: FutureGrid) -> int:
    """Index of the first grid row after the model's last training day."""
    return int(np.searchsorted(grid.timestamps, model.last_day, side="right"))


def _simulate(model: FittedModel, grid: FutureGrid, evaluation: _Evaluation, seed: int) -> dict:
    """Bounds of the grid's rows, sampled as an (n_rows, S) matrix whose
    history and future rows are contiguous blocks."""
    history_stream, future_stream, trend_stream = _streams(seed)
    first = _first_future_row(model, grid)
    samples = np.empty((len(grid), model.config.interval_samples))
    history, future = samples[:first], samples[first:]
    for block, stream, yhat in (
        (history, history_stream, evaluation.yhat[:first]),
        (future, future_stream, evaluation.yhat[first:]),
    ):
        stream.standard_normal(out=block)
        block *= model.sigma
        block += yhat[:, np.newaxis]

    seasonal_factor = (1.0 + evaluation.parts.s_mul[first:])[:, np.newaxis]
    for columns, deviation in _trend_deviations(model, evaluation, first, trend_stream):
        deviation *= seasonal_factor
        future[:, columns] += deviation

    levels = model.config.interval_levels
    qs = [q for level in levels for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0)]
    quantiles = [bound * model.y_scale for bound in _row_quantiles(samples, qs)]
    return {level: (quantiles[2 * i], quantiles[2 * i + 1]) for i, level in enumerate(levels)}


def _row_quantiles(samples: np.ndarray, qs) -> list[np.ndarray]:
    """Type-7 quantiles of each row of ``samples`` at each q, bit for bit
    what ``np.quantile(samples, qs, axis=1)`` returns (up to the sign of a
    zero among tied zeros), read off one in-place sort of the rows.

    A row's q-quantile interpolates between its sorted entries ``below =
    floor((S - 1) * q)`` and the next one with numpy's ``_lerp``, which
    works from the nearer end; a row holding NaN gives NaN. Leaves
    ``samples`` sorted along its rows.
    """
    n = samples.shape[1]
    samples.sort(axis=1)
    has_nan = np.isnan(samples[:, -1])
    bounds = []
    for q in qs:
        virtual = (n - 1) * q
        below = math.floor(virtual)
        gamma = virtual - below
        a = samples[:, below]
        b = samples[:, min(below + 1, n - 1)]
        diff = b - a
        bound = b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma
        bound[has_nan] = np.nan
        bounds.append(bound)
    return bounds


def forecast_with_intervals(
    model: FittedModel, grid: FutureGrid, seed=None, history: bool = True
) -> Forecast:
    """predict plus simulate_intervals under the model's (or given) seed.

    With ``history=False`` only the grid's days after the model's last
    training day are built, evaluated and simulated. A day's point forecast
    is a function of (model, day), and on ``make_future_grid``'s consecutive
    days a future day's bounds are a function of (model, day, seed, last
    grid day), so both equal the full forecast's rows bit for bit.
    """
    if not history:
        future = grid.timestamps[_first_future_row(model, grid) :]
        grid = FutureGrid(future, grid.regressor_values)
    evaluation = _evaluate(model, grid)
    bounds = _simulate(model, grid, evaluation, model.config.seed if seed is None else seed)
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
    columns = [forecast.yhat]
    for level in levels:
        columns += forecast.bounds[level]
    columns += [forecast.components[name] for name in names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            zip(
                map(format_epoch_day, forecast.timestamps.tolist()),
                *(np.asarray(col, dtype=np.float64).tolist() for col in columns),
            )
        )
