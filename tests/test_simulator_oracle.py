"""The interval simulator against its full-matrix form, bit for bit.

The simulator samples all rows in row blocks, carries the trend deviations'
running sums from block to block, shares one future-noise draw between the
simulations of a seed inside ``features.shared_fold_work``, and computes the
trend deviations in place. The oracle below is the form it
replaced: one (rows, S) sample matrix per call, filled by one history draw
and one fresh future draw, with the trend deviations of all future rows and
samples computed at once and out of place.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from addcast import features, forecast
from addcast.config import ModelConfig, SeasonalitySpec, TrendSpec
from addcast.estimator import fit
from addcast.evaluation import rolling_cv
from addcast.forecast import (
    FutureGrid,
    _evaluate,
    _first_future_row,
    _row_quantiles,
    _streams,
    bound_columns,
    forecast_with_intervals,
    make_future_grid,
    predict,
    simulate_intervals,
)
from addcast.timeseries import TimeSeries, filter_weekdays

from conftest import daily_days, trend_oracle


def _oracle_trend_deviations(model, evaluation, first, stream):
    """The (future rows, S) trend deviations, or None without any."""
    t = evaluation.t_scaled[first:]
    n_hist = len(model.changepoints_scaled)
    if len(t) == 0 or n_hist == 0:
        return None
    laplace_scale = float(np.mean(np.abs(model.delta)))
    if laplace_scale == 0.0:
        return None
    span = float(t[-1] - 1.0)
    n_samples = model.config.interval_samples
    counts = stream.poisson(n_hist * span, n_samples)
    locs = stream.uniform(1.0, 1.0 + span, int(counts.sum()))
    mags = stream.laplace(0.0, laplace_scale, len(locs))
    cell = np.searchsorted(t, locs, side="left") * n_samples
    cell += np.repeat(np.arange(n_samples), counts)

    def active_sum(weights):
        per_cell = np.bincount(cell, weights=weights, minlength=(len(t) + 1) * n_samples)
        return np.cumsum(per_cell.reshape(len(t) + 1, n_samples)[: len(t)], axis=0)

    parts = evaluation.parts
    new_rate = parts.rate[first:, np.newaxis] + active_sum(mags)
    new_offset = parts.offset[first:, np.newaxis] - active_sum(locs * mags)
    # each row's sampled rate and offset, with no further changepoints
    g_new = trend_oracle(t[:, np.newaxis], new_rate, new_offset, [], [], model.scaled_trend)
    return g_new - parts.trend[first:, np.newaxis]


def oracle_bounds(model, grid, seed):
    evaluation = _evaluate(model, grid)
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

    deviation = _oracle_trend_deviations(model, evaluation, first, trend_stream)
    if deviation is not None:
        deviation *= (1.0 + evaluation.parts.s_mul[first:])[:, np.newaxis]
        future += deviation

    levels = model.config.interval_levels
    qs = [q for level in levels for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0)]
    quantiles = [bound * model.y_scale for bound in _row_quantiles(samples, qs)]
    return {level: (quantiles[2 * i], quantiles[2 * i + 1]) for i, level in enumerate(levels)}


def assert_same_bits(got, expected):
    assert list(got) == list(expected)
    for level in expected:
        for a, b in zip(got[level], expected[level]):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def fold_scope(model):
    """A ``shared_fold_work`` scope for the simulations of ``model``."""
    return features.shared_fold_work(model.config, model.train_timestamps)


def kept_noise():
    """The shared future-noise entry of this thread's open scope, as (seed,
    array)."""
    return features._fold_scope.entry.noise


@pytest.fixture(scope="module", params=["linear", "logistic"])
def model(request):
    n = 730
    rng = np.random.default_rng(2024)
    days = daily_days("2020-01-01", n)
    y = 4.0 + 0.004 * np.arange(n) + np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.3, n)
    if request.param == "linear":
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=10),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        )
    else:
        config = ModelConfig(
            trend=TrendSpec(growth="logistic", n_changepoints=10, capacity=12.0),
            seasonalities=(
                SeasonalitySpec(
                    name="weekly", period=7.0, fourier_order=2, mode="multiplicative"
                ),
            ),
        )
    return fit(TimeSeries(days, y), config)


def with_samples(model, n_samples):
    """The model with ``n_samples`` interval samples. ModelConfig asks for
    at least 100; the simulator itself takes any count >= 1, and 1 and 7
    put every history row of a test into one block."""
    config = replace(model.config)
    object.__setattr__(config, "interval_samples", n_samples)
    return replace(model, config=config)


def grid_of(model, n_history, n_future):
    """The model's last ``n_history`` training days and next ``n_future``."""
    grid = make_future_grid(model, n_future)
    first = _first_future_row(model, grid)
    return FutureGrid(grid.timestamps[first - n_history :], grid.regressor_values)


class TestFullMatrixOracle:
    @pytest.mark.parametrize("n_samples", [1, 7, 100, 1000, 1001])
    def test_bounds_equal_oracle(self, model, n_samples):
        model = with_samples(model, n_samples)
        for n_history in (0, 1, 65, 730):
            for n_future in (0, 1, 90):
                grid = grid_of(model, n_history, n_future)
                got = simulate_intervals(model, predict(model, grid), 11)
                assert_same_bits(got, oracle_bounds(model, grid, 11))

    def test_one_history_row_per_block(self, model, monkeypatch):
        # 1 and 7 cells give blocks of one row, 20 cells of two, and 7 * 65
        # one block of all history rows; all of them split the future rows,
        # whether their noise is drawn block by block or read from a shared
        # draw
        model = with_samples(model, 7)
        grid = grid_of(model, 65, 90)
        expected = oracle_bounds(model, grid, 11)
        for cells in (1, 7, 20, 7 * 65):
            monkeypatch.setattr(forecast, "_BLOCK_CELLS", cells)
            assert_same_bits(simulate_intervals(model, predict(model, grid), 11), expected)
            with fold_scope(model):
                assert_same_bits(simulate_intervals(model, predict(model, grid), 11), expected)

    def test_no_interval_levels(self, model):
        config = replace(model.config, interval_levels=())
        model = replace(model, config=config)
        grid = grid_of(model, 65, 90)
        assert oracle_bounds(model, grid, 11) == {}
        assert simulate_intervals(model, predict(model, grid), 11) == {}

    def test_interleaved_seeds(self, model):
        grid = grid_of(model, 10, 90)
        with fold_scope(model):
            for seed in (3, 4, 3):
                got = simulate_intervals(model, predict(model, grid), seed)
                assert_same_bits(got, oracle_bounds(model, grid, seed))
            assert kept_noise()[0] == 3

    def test_shorter_horizon_reads_a_prefix(self, model):
        long, short = grid_of(model, 0, 90), grid_of(model, 0, 30)
        with fold_scope(model):
            assert_same_bits(
                simulate_intervals(model, predict(model, long), 5), oracle_bounds(model, long, 5)
            )
            noise = kept_noise()[1]
            assert len(noise) == 90
            assert_same_bits(
                simulate_intervals(model, predict(model, short), 5), oracle_bounds(model, short, 5)
            )
            assert kept_noise()[1] is noise

    def test_longer_horizon_draws_anew(self, model):
        short, long = grid_of(model, 0, 30), grid_of(model, 0, 90)
        with fold_scope(model):
            assert_same_bits(
                simulate_intervals(model, predict(model, short), 5), oracle_bounds(model, short, 5)
            )
            assert_same_bits(
                simulate_intervals(model, predict(model, long), 5), oracle_bounds(model, long, 5)
            )
            assert len(kept_noise()[1]) == 90

    def test_kept_noise_is_read_only(self, model):
        with fold_scope(model):
            simulate_intervals(model, predict(model, grid_of(model, 0, 20)), 5)
            noise = kept_noise()[1]
        assert not noise.flags.writeable
        with pytest.raises(ValueError):
            noise[0, 0] = 0.0

    def test_nothing_is_kept_outside_a_scope(self, model):
        grid = grid_of(model, 0, 20)
        simulate_intervals(model, predict(model, grid), 5)
        assert not hasattr(features._fold_scope, "entry")
        # a scope under another config keeps nothing either
        with features.shared_fold_work(replace(model.config), model.train_timestamps):
            simulate_intervals(model, predict(model, grid), 5)
            assert kept_noise() is None
        with fold_scope(model):
            simulate_intervals(model, predict(model, grid), 5)
            assert kept_noise() is not None
        assert not hasattr(features._fold_scope, "entry")

    def test_threads_with_different_seeds_match_serial(self, model):
        grids = [grid_of(model, 5, 90), grid_of(model, 0, 40)]
        seeds = (21, 22, 23)
        serial = {
            (seed, i): simulate_intervals(model, predict(model, grid), seed)
            for seed in seeds
            for i, grid in enumerate(grids)
        }
        failures = []

        def work(seed):
            try:
                with fold_scope(model):
                    for _ in range(15):
                        for i, grid in enumerate(grids):
                            got = simulate_intervals(model, predict(model, grid), seed)
                            assert_same_bits(got, serial[seed, i])
            except AssertionError as exc:  # reported by the main thread
                failures.append((seed, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert not hasattr(features._fold_scope, "entry")


def test_rolling_cv_on_weekdays_equals_folds_simulated_alone():
    rng = np.random.default_rng(99)
    n = 400
    days = daily_days("2021-01-01", n)
    y = 3.0 + 0.01 * np.arange(n) + np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.2, n)
    ts = filter_weekdays(TimeSeries(days, y))
    config = ModelConfig(
        trend=TrendSpec(n_changepoints=5),
        seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        interval_samples=300,
    )
    folds = rolling_cv(config, ts, initial=200, period=11, horizon=30)
    periods = set()
    for fold in folds:
        train = ts.slice_mask(ts.timestamps <= fold["cutoff"])
        model = fit(train, config)
        grid = make_future_grid(model, fold["cutoff"] + 30 - model.last_day)
        periods.add(len(grid) - len(train))
        horizon = FutureGrid(grid.timestamps[model.n_obs :], grid.regressor_values)
        alone = forecast_with_intervals(model, horizon)
        idx = np.searchsorted(alone.timestamps, fold["ds"])
        assert np.array_equal(fold["yhat"], alone.yhat[idx])
        for level, bounds in alone.bounds.items():
            for column, bound in zip(bound_columns(level), bounds):
                assert np.array_equal(fold[column].view(np.int64), bound[idx].view(np.int64))
    assert len(folds) >= 4 and len(periods) > 1
    assert not hasattr(features._fold_scope, "entry")
