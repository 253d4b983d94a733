import math
from dataclasses import replace

import numpy as np
import pytest

from addcast.config import ModelConfig, SeasonalitySpec, TrendSpec
from addcast.errors import (
    AddcastError,
    DomainError,
    EmptyInput,
    InvertedBounds,
    LengthMismatch,
    SpanTooShort,
    TooShort,
)
from addcast.estimator import fit
from addcast.evaluation import (
    coverage,
    dm_test,
    enumerate_cutoffs,
    evaluate_forecast,
    mae,
    mape,
    performance_by_horizon,
    rmse,
    rolling_cv,
    write_cv_folds_csv,
)
from addcast.forecast import bound_columns, forecast_with_intervals, make_future_grid
from addcast.timeseries import TimeSeries, chronological_split, filter_weekdays, parse_iso_date

from conftest import daily_days, make_series


class TestPointMetrics:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_errors(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert mae([0.0], [3.0]) == 3.0

    def test_hand_arithmetic(self):
        assert rmse([2.0, 4.0], [1.0, 5.0]) == 1.0
        assert mae([2.0, 4.0], [1.0, 5.0]) == 1.0
        assert mape([2.0, 4.0], [1.0, 5.0]) == pytest.approx(37.5, abs=1e-12)

    def test_mape_all_zero_truth_absent(self):
        assert mape([0.0, 0.0], [1.0, 2.0]) is None

    def test_mape_skips_zero_entries(self):
        # only the nonzero truth contributes
        assert mape([0.0, 2.0], [5.0, 1.0]) == pytest.approx(50.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1.0], [1.0, 2.0])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mae([], [])

    def test_rmse_dominates_mae(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            a = rng.normal(0, 3, n)
            b = rng.normal(0, 3, n)
            assert rmse(a, b) >= mae(a, b) - 1e-15

    def test_permutation_invariance(self, rng):
        a = rng.normal(0, 1, 30)
        b = rng.normal(0, 1, 30)
        perm = rng.permutation(30)
        assert rmse(a, b) == pytest.approx(rmse(a[perm], b[perm]), rel=1e-12)
        assert mae(a, b) == pytest.approx(mae(a[perm], b[perm]), rel=1e-12)
        assert mape(np.abs(a) + 1, b) == pytest.approx(
            mape(np.abs(a[perm]) + 1, b[perm]), rel=1e-12
        )


class TestCoverage:
    def test_two_of_three(self):
        got = coverage([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        assert got == pytest.approx(200.0 / 3.0, abs=1e-12)

    def test_full_and_none(self):
        assert coverage([1.0, 2.0], [0.0, 0.0], [5.0, 5.0]) == 100.0
        assert coverage([10.0, 20.0], [0.0, 0.0], [5.0, 5.0]) == 0.0

    def test_bounds_inclusive(self):
        assert coverage([2.0], [2.0], [2.0]) == 100.0

    def test_inverted_bounds(self):
        with pytest.raises(InvertedBounds):
            coverage([1.0], [2.0], [1.0])


class TestEnumerateCutoffs:
    @staticmethod
    def brute_force(first, last, initial, period, horizon):
        out = []
        i = 0
        while True:
            c = last - horizon - i * period
            if c < first + initial:
                break
            out.append(c)
            i += 1
        return sorted(out)

    def test_worked_example_twelve_cutoffs(self):
        ts = make_series("2013-01-01", np.arange(1826.0))
        assert ts.timestamps[-1] == parse_iso_date("2017-12-31")
        cutoffs = enumerate_cutoffs(ts, 730, 90, 90)
        oracle = self.brute_force(
            int(ts.timestamps[0]), int(ts.timestamps[-1]), 730, 90, 90
        )
        assert cutoffs == oracle
        assert len(cutoffs) == 12

    def test_boundary_single_cutoff(self):
        ts = make_series("2020-01-01", np.arange(101.0))  # span 100
        cutoffs = enumerate_cutoffs(ts, 70, 10, 30)
        assert len(cutoffs) == 1
        assert cutoffs[0] == int(ts.timestamps[-1]) - 30

    def test_span_too_short(self):
        ts = make_series("2020-01-01", np.arange(101.0))
        with pytest.raises(SpanTooShort):
            enumerate_cutoffs(ts, 80, 10, 30)

    def test_spacing_and_extremes(self, rng):
        ts = make_series("2015-06-01", np.arange(900.0))
        for _ in range(10):
            initial = int(rng.integers(50, 400))
            period = int(rng.integers(1, 120))
            horizon = int(rng.integers(1, 200))
            if initial + horizon > 899:
                continue
            cutoffs = enumerate_cutoffs(ts, initial, period, horizon)
            diffs = np.diff(cutoffs)
            assert np.all(diffs == period)
            assert cutoffs[0] >= int(ts.timestamps[0]) + initial
            assert cutoffs[-1] == int(ts.timestamps[-1]) - horizon
            assert cutoffs == self.brute_force(
                int(ts.timestamps[0]), int(ts.timestamps[-1]), initial, period, horizon
            )


def small_cv_setup(rng, n=280):
    days = daily_days("2020-01-01", n)
    y = 2.0 + 0.01 * np.arange(n) + 0.5 * np.sin(2 * np.pi * days / 7.0)
    y = y + rng.normal(0, 0.05, n)
    ts = TimeSeries(days, y)
    config = ModelConfig(
        trend=TrendSpec(n_changepoints=3),
        seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        interval_samples=200,
    )
    return ts, config


class TestRollingCv:
    def test_fold_count_and_leakage(self, rng):
        ts, config = small_cv_setup(rng)
        folds = rolling_cv(config, ts, initial=120, period=40, horizon=30)
        assert len(folds) == len(enumerate_cutoffs(ts, 120, 40, 30))
        for fold in folds:
            assert np.all(fold["ds"] > fold["cutoff"])
            assert np.all(fold["ds"] <= fold["cutoff"] + 30)

    def test_deterministic(self, rng):
        ts, config = small_cv_setup(rng)
        a = rolling_cv(config, ts, 150, 60, 25)
        b = rolling_cv(config, ts, 150, 60, 25)
        for fa, fb in zip(a, b):
            assert fa["cutoff"] == fb["cutoff"]
            assert np.array_equal(fa["yhat"], fb["yhat"])
            assert np.array_equal(fa["yhat_lower_95"], fb["yhat_lower_95"])

    def test_single_cutoff_matches_manual_pipeline(self, rng):
        ts, config = small_cv_setup(rng)
        horizon = 30
        # initial chosen so exactly one cutoff exists, at last - horizon
        initial = int(ts.timestamps[-1] - ts.timestamps[0]) - horizon
        folds = rolling_cv(config, ts, initial, 60, horizon)
        assert len(folds) == 1
        fold = folds[0]
        train, test = chronological_split(ts, fold["cutoff"])
        model = fit(train, config)
        grid = make_future_grid(model, horizon)
        fc = forecast_with_intervals(model, grid)
        idx = np.searchsorted(grid.timestamps, fold["ds"])
        assert np.array_equal(fold["yhat"], fc.yhat[idx])
        assert np.array_equal(fold["y"], test.values)
        # the fold simulates only its horizon, yet its bounds are the
        # full-grid forecast's bounds at the same days, bit for bit
        assert list(fold) == [
            "cutoff", "ds", "y", "yhat", *bound_columns(0.80), *bound_columns(0.95)
        ]
        for level in (0.80, 0.95):
            lo, hi = bound_columns(level)
            assert np.array_equal(fold[lo], fc.bounds[level][0][idx])
            assert np.array_equal(fold[hi], fc.bounds[level][1][idx])

    def test_fold_errors_annotated_with_cutoff(self, rng):
        from addcast.errors import UnderdeterminedModel
        from addcast.timeseries import format_epoch_day

        ts, _ = small_cv_setup(rng)
        # period chosen so the earliest cutoff leaves a 41-point window, far
        # below the default config's ~55 parameters
        with pytest.raises(UnderdeterminedModel) as exc:
            rolling_cv(ModelConfig(), ts, initial=40, period=209, horizon=30)
        first_cutoff = enumerate_cutoffs(ts, 40, 209, 30)[0]
        assert first_cutoff == int(ts.timestamps[0]) + 40
        assert format_epoch_day(first_cutoff) in str(exc.value)

    def test_folds_csv_schema(self, rng, tmp_path):
        ts, config = small_cv_setup(rng)
        folds = rolling_cv(config, ts, 200, 60, 20)
        out = tmp_path / "folds.csv"
        write_cv_folds_csv(folds, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "cutoff,ds,y,yhat,yhat_lower_95,yhat_upper_95"
        assert len(lines) == 1 + sum(len(f["ds"]) for f in folds)


class TestSharedDayColumnsInCv:
    """rolling_cv builds the seasonal and holiday columns of the series once
    and draws future noise once (``features.shared_fold_work``); its folds
    equal folds whose designs are all built and whose noise is all drawn
    alone, bit for bit, and the scope is dropped when it returns, also when
    a fold fails."""

    @staticmethod
    def without_scope(monkeypatch):
        import contextlib

        import addcast.evaluation

        monkeypatch.setattr(
            addcast.evaluation, "shared_fold_work", lambda *args: contextlib.nullcontext()
        )

    @pytest.mark.parametrize("weekdays", [False, True])
    @pytest.mark.parametrize(
        "name", ["linear_holidays_regressor", "logistic_multiplicative_holidays",
                 "interleaved_modes"]
    )
    def test_folds_equal_folds_built_alone(self, monkeypatch, name, weekdays):
        from addcast.features import _fold_scope

        from test_features import scope_configs

        rng = np.random.default_rng(7)
        days = daily_days("2021-03-01", 330)
        config = replace(scope_configs(days)[name], interval_samples=100)
        t = np.arange(len(days)) / len(days)
        y = 5.0 + 2.0 * t + 0.3 * np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.1, len(days))
        ts = TimeSeries(days, y)
        if weekdays:
            ts = filter_weekdays(ts)
        shared = rolling_cv(config, ts, 200, 37, 30)
        assert not hasattr(_fold_scope, "entry")
        self.without_scope(monkeypatch)
        alone = rolling_cv(config, ts, 200, 37, 30)
        assert len(shared) == len(alone) >= 3
        for a, b in zip(shared, alone):
            assert a["cutoff"] == b["cutoff"]
            assert list(a) == list(b)
            for column in list(a)[1:]:
                assert a[column].tobytes() == b[column].tobytes()

    def test_scope_open_during_folds_and_dropped_after(self, rng, monkeypatch):
        import addcast.evaluation
        from addcast.errors import UnderdeterminedModel
        from addcast.features import _fold_scope

        ts, config = small_cv_setup(rng)
        seen = []
        real_fit = addcast.evaluation.fit

        def spy(train, fit_config):
            seen.append(_fold_scope.entry.config is fit_config)
            return real_fit(train, fit_config)

        monkeypatch.setattr(addcast.evaluation, "fit", spy)
        folds = rolling_cv(config, ts, 150, 60, 25)
        assert seen == [True] * len(folds)
        assert not hasattr(_fold_scope, "entry")
        with pytest.raises(UnderdeterminedModel):
            rolling_cv(ModelConfig(), ts, initial=40, period=209, horizon=30)
        assert not hasattr(_fold_scope, "entry")

    def test_equal_horizon_folds_build_once_and_draw_once(self, rng, monkeypatch):
        """The share the CV medians rest on: four equal-horizon folds build
        the series' day columns once and draw future noise once. A fold
        that lost the scope (say, under a copy of the config) would build
        and draw its own, with the same bits."""
        import addcast.features
        from addcast.features import _fold_scope, _FoldWork

        ts, config = small_cv_setup(rng)
        builds, draws = [], []
        day_blocks, shared_noise = addcast.features._day_blocks, _FoldWork.future_noise

        def count_build(t, *args):
            builds.append(len(t))
            return day_blocks(t, *args)

        def keep_draw(*args):
            draws.append(shared_noise(*args))
            return draws[-1]

        monkeypatch.setattr(addcast.features, "_day_blocks", count_build)
        monkeypatch.setattr(_FoldWork, "future_noise", keep_draw)
        folds = rolling_cv(config, ts, 120, 40, 30)
        assert len(folds) == len(draws) == 4
        assert builds == [len(ts)]
        assert all(np.shares_memory(draws[0], draw) for draw in draws[1:])
        assert not hasattr(_fold_scope, "entry")


class TestPerformanceByHorizon:
    def test_row_per_lead_day(self, rng):
        ts, config = small_cv_setup(rng)
        folds = rolling_cv(config, ts, 240, 60, 3)
        table = performance_by_horizon(folds)
        assert sorted(table) == [1, 2, 3]

    def test_perfect_forecast_zero_rmse(self):
        fold = {
            "cutoff": 0,
            "ds": np.array([1, 2, 3]),
            "y": np.array([1.0, 2.0, 3.0]),
            "yhat": np.array([1.0, 2.0, 3.0]),
        }
        table = performance_by_horizon([fold])
        assert all(r["rmse"] == 0.0 for r in table.values())

    def test_matches_regroup_oracle(self, rng):
        folds = []
        for cutoff in (100, 130, 160):
            folds.append({
                "cutoff": cutoff,
                "ds": np.arange(cutoff + 1, cutoff + 8),
                "y": rng.normal(0, 1, 7) + 5,
                "yhat": rng.normal(0, 1, 7) + 5,
            })
        table = performance_by_horizon(folds)
        # brute-force regroup: pool rows with equal lead across folds
        for lead in range(1, 8):
            y = np.concatenate([[f["y"][lead - 1]] for f in folds])
            p = np.concatenate([[f["yhat"][lead - 1]] for f in folds])
            assert table[lead]["rmse"] == rmse(y, p)
            assert table[lead]["mae"] == mae(y, p)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            performance_by_horizon([])


def by_horizon_oracle(folds):
    """The per-lead definition: pool each lead's rows in fold order and call
    evaluate_forecast on them, with the 95% bounds when every fold has them."""
    bounded = all("yhat_lower_95" in f and "yhat_upper_95" in f for f in folds)
    groups = {}
    for fold in folds:
        for j in range(len(fold["ds"])):
            row = (
                fold["y"][j],
                fold["yhat"][j],
                fold["yhat_lower_95"][j] if bounded else None,
                fold["yhat_upper_95"][j] if bounded else None,
            )
            groups.setdefault(int(fold["ds"][j]) - fold["cutoff"], []).append(row)
    out = {}
    for lead in sorted(groups):
        y, pred, lo, hi = zip(*groups[lead])
        if not bounded:
            lo = hi = None
        out[lead] = evaluate_forecast(f"horizon_{lead}d", np.array(y), np.array(pred), lo, hi)
    return out


def outcome(fn, folds):
    """fn(folds) as ("ok", [(lead, bit patterns of the report)]) or as the
    type and message of what it raised."""
    try:
        table = fn(folds)
    except AddcastError as exc:
        return type(exc).__name__, str(exc)
    return "ok", [
        (lead, *(None if v is None else float(v).hex() for v in r.values()))
        for lead, r in table.items()
    ]


class TestPerformanceByHorizonOracle:
    """performance_by_horizon equals the per-lead evaluate_forecast
    definition bit for bit, errors included."""

    def folds(self, rng, n_folds, horizon=20, bounds=True):
        """Folds over a Monday-Friday series, so a lead's row count depends
        on the weekdays its cutoffs fall on."""
        ts = filter_weekdays(make_series("2021-01-01", rng.normal(100, 30, 400)))
        out = []
        for offset in np.sort(rng.choice(300, n_folds, replace=False)).tolist():
            cutoff = int(ts.timestamps[0]) + 30 + offset
            keep = (ts.timestamps > cutoff) & (ts.timestamps <= cutoff + horizon)
            y = ts.values[keep]
            pred = y + rng.normal(0, 5, len(y))
            half = np.abs(rng.normal(10, 3, len(y)))
            fold = {"cutoff": cutoff, "ds": ts.timestamps[keep], "y": y, "yhat": pred}
            if bounds:
                fold.update(yhat_lower_80=pred - half / 2, yhat_upper_80=pred + half / 2,
                            yhat_lower_95=pred - half, yhat_upper_95=pred + half)
            out.append(fold)
        return out

    def assert_same(self, folds):
        expected = outcome(by_horizon_oracle, folds)
        assert outcome(performance_by_horizon, folds) == expected
        return expected

    @pytest.mark.parametrize("n_folds", [1, 2, 7, 8, 13, 40])
    def test_ragged_leads(self, rng, n_folds):
        folds = self.folds(rng, n_folds)
        kind, rows = self.assert_same(folds)
        assert kind == "ok"
        leads = np.concatenate([f["ds"] - f["cutoff"] for f in folds])
        row_counts = np.unique(np.unique(leads, return_counts=True)[1])
        assert len(row_counts) > 1 or n_folds == 1

    def test_zero_truths(self, rng):
        folds = self.folds(rng, 12)
        for i, fold in enumerate(folds):
            fold["y"][::3] = 0.0
            if i % 2:
                fold["y"][:] = 0.0
        kind, rows = self.assert_same(folds)
        assert kind == "ok"
        assert any(r[3] is None for r in rows) and any(r[3] is not None for r in rows)

    def test_coverage_is_of_the_95_percent_bounds(self, rng):
        # a 99% level that covers every row used to be the one reported
        folds = [
            {**f, "yhat_lower_99": f["yhat"] - 1e6, "yhat_upper_99": f["yhat"] + 1e6}
            for f in self.folds(rng, 9)
        ]
        kind, rows = self.assert_same(folds)
        assert kind == "ok"
        assert min(float.fromhex(r[4]) for r in rows) < 100.0

    def test_folds_without_bounds(self, rng):
        # one fold without the 95% bounds leaves every lead without coverage
        folds = self.folds(rng, 9)
        del folds[4]["yhat_lower_95"], folds[4]["yhat_upper_95"]
        kind, rows = self.assert_same(folds)
        assert kind == "ok"
        assert all(r[4] is None for r in rows)
        kind, rows = self.assert_same(self.folds(rng, 9, bounds=False))
        assert kind == "ok"
        assert all(r[4] is None for r in rows)

    def test_inverted_bounds(self, rng):
        folds = self.folds(rng, 10)
        lo, hi = folds[6]["yhat_lower_95"], folds[6]["yhat_upper_95"]
        lo[3] = hi[3] + 1.0
        assert self.assert_same(folds)[0] == "InvertedBounds"

    @pytest.mark.parametrize("inverted_first", [False, True])
    def test_overflowing_metric(self, rng, inverted_first):
        folds = self.folds(rng, 10)
        # The lower lead decides which error a table with both raises.
        overflow, inverted = (folds[2], folds[7]) if not inverted_first else (folds[7], folds[2])
        overflow["y"][5] = 1e300
        overflow["yhat"][5] = -1e300
        lo, hi = inverted["yhat_lower_95"], inverted["yhat_upper_95"]
        lo[1] = hi[1] + 1.0
        lead_overflow = int(overflow["ds"][5]) - overflow["cutoff"]
        lead_inverted = int(inverted["ds"][1]) - inverted["cutoff"]
        expected = "InvertedBounds" if lead_inverted <= lead_overflow else "DomainError"
        assert self.assert_same(folds)[0] == expected


class TestDmTest:
    def test_worked_example(self):
        result = dm_test([2.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0], "squared", 1)
        # d = [3,-1,3,-1], dbar = 1, gamma0 = 4, DM = 1/sqrt(4/4) = 1
        assert result["statistic"] == pytest.approx(1.0, abs=1e-12)
        assert result["p_value"] == pytest.approx(0.3173105078629141, abs=1e-9)
        assert result["mean_loss_diff"] == pytest.approx(1.0, abs=1e-12)
        assert result["interpretation"] == "not significant"

    def test_identical_losses(self):
        result = dm_test([1.0, -2.0, 3.0], [1.0, -2.0, 3.0])
        assert result["statistic"] == 0.0
        assert result["p_value"] == 1.0
        assert result["interpretation"] == "not significant"

    def test_antisymmetry(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 60))
            e1 = rng.normal(0, 1, n)
            e2 = rng.normal(0, 1.5, n)
            loss = "squared" if rng.random() < 0.5 else "absolute"
            h = int(rng.integers(1, 4))
            a = dm_test(e1, e2, loss, h)
            b = dm_test(e2, e1, loss, h)
            assert a["statistic"] == pytest.approx(-b["statistic"], rel=1e-12, abs=1e-12)
            assert a["p_value"] == pytest.approx(b["p_value"], rel=1e-12, abs=1e-12)

    def test_newey_west_oracle_h2(self):
        # hand-computable case with h=2: d=[4,1,4,1,4,1], dbar=2.5,
        # centered=[1.5,-1.5,...], gamma0=2.25, gamma1=mean of 5 products
        # (each -2.25) = -2.25, var = gamma0 + 2*gamma1*(1-1/6) = -1.5 <= 0
        # so the fallback to gamma0 applies: DM = 2.5/sqrt(2.25/6)
        e1 = np.sqrt(np.array([4.0, 1.0, 4.0, 1.0, 4.0, 1.0]))
        e2 = np.zeros(6)
        result = dm_test(e1, e2, "squared", 2)
        expected = 2.5 / math.sqrt(2.25 / 6)
        assert result["statistic"] == pytest.approx(expected, rel=1e-12)
        p = math.erfc(abs(expected) / math.sqrt(2.0))
        assert result["p_value"] == pytest.approx(p, rel=1e-12)

    def test_newey_west_positive_var_h3(self, rng):
        # oracle recomputation of the weighted long-run variance
        e1 = rng.normal(0, 1.0, 40)
        e2 = rng.normal(0, 1.3, 40)
        result = dm_test(e1, e2, "absolute", 3)
        d = np.abs(e1) - np.abs(e2)
        n = len(d)
        dbar = d.mean()
        c = d - dbar
        var = float(np.mean(c**2))
        for lag in (1, 2):
            gamma = float(np.mean(c[lag:] * c[:-lag]))
            var += 2.0 * gamma * (1.0 - lag / n)
        if var <= 0:
            var = float(np.mean(c**2))
        assert result["statistic"] == pytest.approx(dbar / math.sqrt(var / n), rel=1e-12)

    def test_interpretation_thresholds(self):
        assert dm_test([5.0] * 30 + [5.1], [0.1] * 31)["interpretation"] in (
            "highly significant",
            "significant",
        )

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            dm_test([1.0, 2.0], [1.0])
        with pytest.raises(TooShort):
            dm_test([1.0], [1.0])


class TestEvaluateForecast:
    def test_matches_one_dimensional_definitions(self, rng):
        # The metrics reduce rows of (1, n) matrices; they equal the 1-D
        # reductions bit for bit, at every length numpy's summation splits.
        for n in (1, 2, 7, 8, 9, 16, 127, 128, 129, 300):
            y = rng.normal(0, 10, n)
            y[1::4] = 0.0
            pred = y + rng.normal(0, 1, n)
            lo, hi = pred - 1.0, pred + 1.0
            report = evaluate_forecast("m", y, pred, lo, hi)
            nz = y != 0
            assert report["rmse"] == float(np.sqrt(np.mean(np.square(y - pred))))
            assert report["mae"] == float(np.mean(np.abs(y - pred)))
            assert report["mape_percent"] == float(
                np.mean(np.abs((y[nz] - pred[nz]) / y[nz])) * 100.0
            )
            assert report["coverage_percent"] == float(np.mean((y >= lo) & (y <= hi)) * 100.0)

    def test_report_fields(self):
        report = evaluate_forecast(
            "m", [2.0, 4.0], [1.0, 5.0], [0.0, 0.0], [3.0, 3.0]
        )
        assert report["rmse"] == 1.0
        assert report["mae"] == 1.0
        assert report["mape_percent"] == pytest.approx(37.5)
        assert report["coverage_percent"] == 50.0
        assert list(report) == ["rmse", "mae", "mape_percent", "coverage_percent"]

    def test_no_bounds_no_coverage(self):
        report = evaluate_forecast("m", [1.0], [1.0])
        assert report["coverage_percent"] is None

    def test_overflowing_metric_rejected(self):
        # squared residuals of 1e300 overflow, so RMSE would read inf
        with pytest.raises(DomainError, match="m: a metric overflowed"):
            evaluate_forecast("m", [1e300, -1e300], [-1e300, 1e300])
