"""Forecast generation: future grids, per-component point predictions, and
Monte-Carlo prediction intervals.

The point forecast is the sum of the reported components, so the additive
identity holds exactly for additive models. The model's layout
(``features.model_layout``) is the single owner of the components' order:
trend, each seasonal block, holidays, regressors. A forecast evaluates the
model on its grid once: ``predict`` keeps the evaluation on the Forecast,
and ``simulate_intervals`` reads it. A day's point forecast is a function of
(model, day). Interval simulation draws future trend changes from the
historical changepoint behaviour plus per-timestamp observation noise, and
is a pure function of (model, grid, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .estimator import FittedModel, ModelParts, _model_parts, row_dot
from .features import design_for_grid, fold_work, growth_curve, regressor_column
from .timeseries import MAX_EPOCH_DAY, format_epoch_day, frozen, write_table


@dataclass(frozen=True)
class FutureGrid:
    """Prediction timestamps: the training timestamps followed by consecutive
    future calendar days, with regressor values where declared."""

    timestamps: np.ndarray
    regressor_values: dict

    def __post_init__(self):
        t = frozen(self.timestamps, np.int64)
        if np.any(np.diff(t) <= 0):
            raise DomainError("grid timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", t)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class Forecast:
    """Per-timestamp point prediction, component contributions and interval
    bounds (original units).

    components always carries "trend", one entry per seasonal block,
    "holidays" and "regressors"; bounds maps coverage level to (lower, upper)
    arrays and is empty until intervals are simulated. evaluation is the
    model evaluated on the grid in scaled units, which ``simulate_intervals``
    reads.
    """

    timestamps: np.ndarray
    yhat: np.ndarray
    components: dict
    bounds: dict
    evaluation: _Evaluation = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.timestamps)


def make_future_grid(model: FittedModel, periods: int, extra_regressors=None) -> FutureGrid:
    """Training timestamps plus the next ``periods`` consecutive calendar days.

    Regressor values for every grid timestamp must be available either in the
    model's regressor specs or in ``extra_regressors`` ({name: {day: value}}),
    and like a spec's values they must be finite.
    """
    if periods < 0:
        raise DomainError("periods must be >= 0")
    if periods > MAX_EPOCH_DAY - model.last_day:
        raise DomainError(
            f"{periods} periods after {format_epoch_day(model.last_day)} run past "
            f"{format_epoch_day(MAX_EPOCH_DAY)}, the last representable date"
        )
    future = np.arange(model.last_day + 1, model.last_day + 1 + periods, dtype=np.int64)
    timestamps = np.concatenate([model.train_timestamps, future])
    merged: dict = {}
    for spec in model.config.regressors:
        values = dict(spec.values)
        if extra_regressors and spec.name in extra_regressors:
            # RegressorSpec converts the values and rejects a non-finite one
            values.update(replace(spec, values=extra_regressors[spec.name]).values)
        regressor_column(spec.name, timestamps, values)  # raises MissingRegressorValue
        merged[spec.name] = values
    return FutureGrid(timestamps=timestamps, regressor_values=merged)


class _Evaluation(NamedTuple):
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
        model.scaling,
        model.changepoints_scaled,
        extra_regressors=grid.regressor_values,
    )
    parts = _model_parts(model.params, design, model.scaled_trend)
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


def predict(model: FittedModel, grid: FutureGrid) -> Forecast:
    """Point forecast with additive component decomposition, original units,
    from one build of the grid's design. A forecast that overflows is a
    DomainError."""
    # A finite model can still overflow, in scaled or in original units;
    # _require_finite turns that into a DomainError, and not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        evaluation = _evaluate(model, grid)
        yhat = evaluation.yhat * model.y_scale
        components = {k: v * model.y_scale for k, v in evaluation.components.items()}
    _require_finite(grid.timestamps, [yhat, *components.values()])
    return Forecast(
        timestamps=grid.timestamps,
        yhat=yhat,
        components=components,
        bounds={},
        evaluation=evaluation,
    )


def _require_finite(timestamps: np.ndarray, columns) -> None:
    """A DomainError naming the first day on which a forecast column (a
    row of ``columns``) is not finite."""
    finite = np.isfinite(columns).all(axis=0)
    if not finite.all():
        day = format_epoch_day(int(timestamps[np.argmin(finite)]))
        raise DomainError(f"the forecast overflows on {day}")


# Sample cells (rows x samples) per block of rows, at least one row; bounds
# the simulation's matrices to about 128 KB each whatever the grid's length.
_BLOCK_CELLS = 16384


def _streams(seed) -> tuple[np.random.Generator, ...]:
    """History-noise, future-noise and trend-change generators of a seed."""
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.Generator(np.random.Philox(child)) for child in children)


def _trend_deviations(model: FittedModel, evaluation: _Evaluation, first: int, stream, step: int):
    """Yield the sampled trend minus the fitted trend on the future rows
    ``[first:]``, in scaled units, one (rows, samples) block per ``step`` rows.

    All changepoint counts, locations and magnitudes are drawn from
    ``stream`` up front, in three draws; sample s owns the locations and
    magnitudes at [sum(counts[:s]), sum(counts[:s+1])). A changepoint at loc
    adds its magnitude to the rate and -loc * magnitude to the offset of
    every row with t >= loc, as gamma does for a fitted changepoint, so the
    sampled trend line rate * t + offset stays continuous at loc for both
    growths: a running sum down the rows, carried across blocks, of what
    each changepoint adds at its first such row. The sampled trend is then
    ``features.growth_curve`` of the sampled rate and offset, as the fitted
    trend is, so a sample without changepoints up to a row deviates by
    exactly 0 there. Yields nothing when there are no future rows or no
    historical changepoint behaviour.
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
    # Sorted keys of (first row, draw index) put the changepoints in row
    # order and keep each row's in draw order, the order its sums add them
    # in; cell is then each one's (row, sample) cell, ascending.
    n_cps = len(locs)
    key = np.searchsorted(t, locs, side="left") * n_cps + np.arange(n_cps)
    key.sort()
    order = key % n_cps
    weights = mags[order], np.multiply(locs, mags, out=locs)[order]
    # the draws go as soon as the weights exist, and cell is built over key,
    # so at most six changepoint-sized arrays are alive at once
    del locs, mags
    cell = key
    cell //= n_cps
    cell *= n_samples
    cell += np.repeat(np.arange(n_samples), counts)[order]
    del order

    parts = evaluation.parts
    trend = model.scaled_trend
    carry = np.zeros((2, n_samples))
    for lo in range(0, len(t), step):
        hi = min(lo + step, len(t))
        a, b = np.searchsorted(cell, (lo * n_samples, hi * n_samples))
        sums = []
        for weight, last in zip(weights, carry):
            active = np.bincount(cell[a:b] - lo * n_samples, weight[a:b], (hi - lo) * n_samples)
            # bincount counts in int64 when a block has no changepoint at all
            active = active.astype(np.float64, copy=False).reshape(hi - lo, n_samples)
            for before, row in zip([last, *active], active):
                row += before
            sums.append(active)
            last[:] = active[-1]
        new_rate, new_offset = sums
        # The sampled rate and offset in place, and the trend with the fitted
        # trend's operations in its order, so a sample without changepoints
        # up to a row still deviates by exactly 0.
        rows = slice(first + lo, first + hi)
        new_rate += parts.rate[rows, np.newaxis]
        np.subtract(parts.offset[rows, np.newaxis], new_offset, out=new_offset)
        deviation = growth_curve(new_rate, new_offset, t[lo:hi, np.newaxis], trend)
        deviation -= parts.trend[rows, np.newaxis]
        yield deviation


def _first_future_row(model: FittedModel, grid: FutureGrid | Forecast) -> int:
    """Index of the first grid row after the model's last training day."""
    return int(np.searchsorted(grid.timestamps, model.last_day, side="right"))


def _shared_future_noise(scope, seed: int, stream, n_rows: int, n_samples: int):
    """``(n_rows, n_samples)`` standard normals of a seed's fresh future
    stream, kept read only in ``scope`` (``features.shared_fold_work``) for
    every simulation of the seed under the scope's config.

    ``standard_normal`` fills row-major, so the first r rows of a larger
    draw from a fresh stream are exactly an r-row draw: a request for no
    more rows than the scope holds gets a prefix of it. Otherwise ``stream``
    is drawn from and its matrix replaces the scope's draw.
    """
    if scope.noise is not None and scope.noise[0] == seed and len(scope.noise[1]) >= n_rows:
        return scope.noise[1][:n_rows]
    # Drop the stale matrix before drawing its successor, so that a miss
    # does not hold two at once.
    scope.noise = None
    noise = stream.standard_normal((n_rows, n_samples))
    noise.setflags(write=False)
    scope.noise = (seed, noise)
    return noise


def simulate_intervals(model: FittedModel, forecast: Forecast, seed: int) -> dict:
    """Monte-Carlo prediction bounds per configured coverage level, at the
    rows of ``forecast``, ``predict``'s point forecast of ``model``.

    Each draw samples future changepoints (count from a Poisson process at
    the historical changepoints-per-unit-scaled-time rate, locations uniform
    over the future span, magnitudes Laplace with scale mean|delta|) plus
    Normal(0, sigma) observation noise. The bounds are numpy's default
    type-7 (linear) empirical quantiles, bit for bit, read from one sort of
    each row of the sample matrix.

    A pure function of (model, grid, seed), where ``forecast`` is
    ``predict(model, grid)``. The seed is split into three independent
    Philox streams: history-row noise, future-row noise, and future trend
    changes. A future day's draws therefore do not depend on whether
    history rows are in the grid.

    Rows are drawn, sorted and read in blocks of about ``_BLOCK_CELLS``
    cells, history and future rows apart, so no sample matrix grows with
    the grid, and no bound depends on the block size. Inside
    ``features.shared_fold_work`` the simulations of a seed under the
    scope's config share one future-noise draw, and a shorter horizon reads
    a prefix of a longer one, which is exactly what its own draw would give.
    A bound that overflows is a DomainError.
    """
    history_stream, future_stream, trend_stream = _streams(seed)
    levels = model.config.interval_levels
    if not levels:
        return {}
    evaluation = forecast.evaluation
    first = _first_future_row(model, forecast)
    n_samples = model.config.interval_samples
    qs = [q for level in levels for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0)]
    bounds = np.empty((len(qs), len(forecast)))

    step = max(1, _BLOCK_CELLS // n_samples)
    scope = fold_work(model.config)
    shared = None if scope is None else _shared_future_noise(
        scope, int(seed), future_stream, len(forecast) - first, n_samples
    )
    deviations = _trend_deviations(model, evaluation, first, trend_stream, step)
    row_ranges = (0, first, history_stream), (first, len(forecast), future_stream)
    # as in predict: a bound that overflows is raised below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, stream in row_ranges:
            for lo in range(start, stop, step):
                hi = min(lo + step, stop)
                if lo < first or shared is None:
                    block = stream.standard_normal((hi - lo, n_samples))
                    block *= model.sigma
                else:
                    block = shared[lo - first : hi - first] * model.sigma
                block += evaluation.yhat[lo:hi, np.newaxis]
                deviation = next(deviations, None) if lo >= first else None
                if deviation is not None:
                    deviation *= 1.0 + evaluation.parts.s_mul[lo:hi, np.newaxis]
                    block += deviation
                bounds[:, lo:hi] = _row_quantiles(block, qs)
        bounds *= model.y_scale
    _require_finite(forecast.timestamps, bounds)
    return {level: (bounds[2 * i], bounds[2 * i + 1]) for i, level in enumerate(levels)}


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
    fc = predict(model, grid)
    bounds = simulate_intervals(model, fc, model.config.seed if seed is None else seed)
    return replace(fc, bounds=bounds)


def bound_columns(level: float) -> tuple[str, str]:
    """The forecast table's lower and upper bound column names at an
    interval level: ``yhat_lower_95`` and ``yhat_upper_95`` at 0.95."""
    pct = int(round(level * 100))
    return f"yhat_lower_{pct}", f"yhat_upper_{pct}"


def write_forecast_csv(forecast: Forecast, model: FittedModel, path) -> None:
    """Forecast table: ds, yhat, per-level bounds, then component columns
    (regressors only when the model declares any)."""
    levels = sorted(forecast.bounds)
    header = ["ds", "yhat"]
    for level in levels:
        header += bound_columns(level)
    names = model.layout.component_names
    if not model.config.regressors:
        names.remove("regressors")
    header += names
    columns = [forecast.yhat]
    for level in levels:
        columns += forecast.bounds[level]
    columns += [forecast.components[name] for name in names]
    write_table(
        path,
        header,
        zip(
            map(format_epoch_day, forecast.timestamps.tolist()),
            *(np.asarray(col, dtype=np.float64).tolist() for col in columns),
        ),
    )
