"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with pytest -s to see them)."""

import io
import json
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from addcast.baselines import fit_linear_lag_regressor, walk_forward_forecast
from addcast.cli import main
from addcast.config import ModelConfig, RegressorSpec, SeasonalitySpec, TrendSpec
from addcast.estimator import fit, map_gradient, map_objective
from addcast.evaluation import (
    coverage,
    dm_test,
    enumerate_cutoffs,
    mae,
    mape,
    rmse,
    rolling_cv,
)
from addcast.features import build_design
from addcast.forecast import forecast_with_intervals, make_future_grid, predict
from addcast.persistence import canonical_json_bytes, model_from_document, model_to_document
from addcast.timeseries import TimeSeries, format_epoch_day

from conftest import daily_days, program_trend


@contextmanager
def criterion(number, description):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS {description} ({time.time() - started:.1f}s)")


def test_criterion_01_trend_continuity():
    with criterion(1, "trend continuity at changepoints (1000 random configs, both growths)"):
        started = time.time()
        rng = np.random.default_rng(101)
        eps = 1e-9
        for _ in range(1000):
            n_cp = int(rng.integers(1, 6))
            cps = np.sort(rng.uniform(0.05, 0.95, n_cp))
            # keep 2*eps*slope below the jump budget so the check measures
            # the discontinuity, not the finite-difference floor
            delta = rng.uniform(-0.05, 0.05, n_cp)
            k = float(rng.uniform(-0.2, 0.2))
            m = float(rng.uniform(-5.0, 5.0))
            # the program's trend, just before and just after each changepoint,
            # for both growths on the same draws
            t = np.concatenate((cps - eps, cps + eps))
            for trend in (TrendSpec(), TrendSpec(growth="logistic", capacity=4.0)):
                g = program_trend(t, k, m, delta, cps, trend)
                assert np.max(np.abs(g[:n_cp] - g[n_cp:])) <= 1e-9
        assert time.time() - started < 5.0


def test_criterion_02_gradient_correctness():
    with criterion(2, "analytic gradient vs central differences (rel err <= 1e-4)"):
        started = time.time()
        rng = np.random.default_rng(202)
        n = 200
        days = daily_days("2019-01-01", n)
        y = 0.5 + 0.3 * np.arange(n) / n + rng.normal(0, 0.1, n)
        config = ModelConfig()  # defaults: 25 changepoints, yearly 10, weekly 4
        ts = TimeSeries(days, y)
        design = build_design(ts, config)
        n_params = 2 + design.X.shape[1]
        step = 1e-6
        worst = 0.0
        for _ in range(10):
            params = rng.normal(0, 0.5, n_params)
            analytic = map_gradient(params, design, y, config.trend)
            numeric = np.zeros(n_params)
            for i in range(n_params):
                hi = params.copy()
                lo = params.copy()
                hi[i] += step
                lo[i] -= step
                numeric[i] = (
                    map_objective(hi, design, y, config.trend)
                    - map_objective(lo, design, y, config.trend)
                ) / (2 * step)
            rel = np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0))
            worst = max(worst, float(rel))
        assert worst <= 1e-4
        assert time.time() - started < 10.0


def test_criterion_03_ridge_oracle_equivalence():
    with criterion(3, "fit equals closed-form ridge solution (<= 1e-6, 5 instances)"):
        started = time.time()
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
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
                [[0.0, 0.0]] + [1.0 / np.square(b.prior_scales) for b in design.layout.blocks[1:]]
            )
            theta = np.linalg.solve(
                A.T @ A + np.diag(penalties), A.T @ (y / model.y_scale)
            )
            fitted = np.concatenate(([model.k, model.m], model.delta, model.beta))
            assert np.max(np.abs(fitted - theta)) <= 1e-6
        assert time.time() - started < 5.0


def test_criterion_04_synthetic_recovery():
    with criterion(4, "trend RMSE <= 0.05 and weekly correlation >= 0.99 on synthetic"):
        started = time.time()
        rng = np.random.default_rng(404)
        n = 1000
        days = daily_days("2017-01-01", n)
        t = np.arange(n) / (n - 1)
        # piecewise-linear trend with 2 changepoints
        slopes = (0.8, 0.3, 0.75)
        cp = (0.35, 0.7)
        trend = (
            slopes[0] * t
            + (t > cp[0]) * (slopes[1] - slopes[0]) * (t - cp[0])
            + (t > cp[1]) * (slopes[2] - slopes[1]) * (t - cp[1])
        )
        cos_coef = np.array([0.30, 0.15, 0.05])
        sin_coef = np.array([0.20, 0.10, -0.05])
        ang = 2 * np.pi * np.outer(days, np.arange(1, 4)) / 7.0
        weekly = np.cos(ang) @ cos_coef + np.sin(ang) @ sin_coef
        y = trend + weekly + rng.normal(0, 0.1, n)
        model = fit(TimeSeries(days, y), ModelConfig())
        fc = predict(model, make_future_grid(model, 0))
        trend_rmse = float(np.sqrt(np.mean((fc.components["trend"] - trend) ** 2)))
        weekly_corr = float(np.corrcoef(fc.components["weekly"], weekly)[0, 1])
        assert trend_rmse <= 0.05, f"trend RMSE {trend_rmse:.4f}"
        assert weekly_corr >= 0.99, f"weekly correlation {weekly_corr:.4f}"
        assert time.time() - started < 30.0


def test_criterion_05_interval_calibration():
    with criterion(5, "95% coverage in [90,98] over 2000 held-out points; bands nested"):
        started = time.time()
        sigma_true = 0.15
        inside = 0
        total = 0
        for rep in range(10):
            rng = np.random.default_rng(500 + rep)
            n_train, n_test = 400, 200
            n = n_train + n_test
            days = daily_days("2016-01-01", n)
            t = np.arange(n) / (n_train - 1)
            trend = 2.0 + 0.5 * t
            ang = 2 * np.pi * np.outer(days, np.arange(1, 3)) / 7.0
            weekly = np.cos(ang) @ np.array([0.4, 0.1]) + np.sin(ang) @ np.array([0.3, -0.1])
            y = trend + weekly + rng.normal(0, sigma_true, n)
            config = ModelConfig(
                trend=TrendSpec(n_changepoints=5),
                seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
                interval_samples=1000,
                seed=900 + rep,
            )
            model = fit(TimeSeries(days[:n_train], y[:n_train]), config)
            grid = make_future_grid(model, n_test)
            fc = forecast_with_intervals(model, grid)
            lo95, hi95 = fc.bounds[0.95]
            lo80, hi80 = fc.bounds[0.80]
            assert np.all(lo95 < lo80) and np.all(hi80 < hi95)  # strictly nested
            y_test = y[n_train:]
            inside += int(np.sum((y_test >= lo95[n_train:]) & (y_test <= hi95[n_train:])))
            total += n_test
        assert total >= 2000
        observed = 100.0 * inside / total
        assert 90.0 <= observed <= 98.0, f"coverage {observed:.2f}%"
        assert time.time() - started < 60.0


def test_criterion_06_metric_oracles():
    with criterion(6, "metric worked examples match within 1e-12"):
        assert abs(rmse([2.0, 4.0], [1.0, 5.0]) - 1.0) <= 1e-12
        assert abs(mae([2.0, 4.0], [1.0, 5.0]) - 1.0) <= 1e-12
        assert abs(mape([2.0, 4.0], [1.0, 5.0]) - 37.5) <= 1e-12
        got = coverage([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        assert abs(got - 200.0 / 3.0) <= 1e-12


def test_criterion_07_dm_oracle():
    with criterion(7, "DM worked example, antisymmetry, degenerate case"):
        result = dm_test([2.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0], "squared", 1)
        assert abs(result["statistic"] - 1.000000) <= 1e-6
        assert abs(result["p_value"] - 0.317311) <= 1e-6
        rng = np.random.default_rng(707)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            e1 = rng.normal(0, 1, n)
            e2 = rng.normal(0, 1.4, n)
            fwd = dm_test(e1, e2)
            rev = dm_test(e2, e1)
            assert fwd["statistic"] == pytest.approx(-rev["statistic"], rel=1e-12, abs=1e-12)
            assert fwd["p_value"] == pytest.approx(rev["p_value"], rel=1e-12, abs=1e-12)
        same = dm_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert same["statistic"] == 0.0 and same["p_value"] == 1.0


def test_criterion_08_cv_enumeration_and_leakage():
    with criterion(8, "12 cutoffs on the 1825-day span; zero fold leakage"):
        rng = np.random.default_rng(808)
        n = 1826  # 2013-01-01 .. 2017-12-31, span 1825 days
        days = daily_days("2013-01-01", n)
        assert format_epoch_day(int(days[-1])) == "2017-12-31"
        y = 5.0 + 0.3 * np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.1, n)
        ts = TimeSeries(days, y)
        cutoffs = enumerate_cutoffs(ts, 730, 90, 90)
        # brute-force oracle
        oracle = []
        i = 0
        while int(days[-1]) - 90 - i * 90 >= int(days[0]) + 730:
            oracle.append(int(days[-1]) - 90 - i * 90)
            i += 1
        assert cutoffs == sorted(oracle)
        assert len(cutoffs) == 12
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=5),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
            interval_samples=100,
        )
        folds = rolling_cv(config, ts, 730, 90, 90)
        assert len(folds) == 12
        for fold in folds:
            assert np.all(fold["ds"] > fold["cutoff"])


def test_criterion_09_serialization_roundtrip(tmp_path):
    with criterion(9, "round-trip predictions bit-identical; documents byte-identical"):
        rng = np.random.default_rng(909)
        n = 300
        days = daily_days("2020-01-01", n)
        y = 3.0 + 0.02 * np.arange(n) + rng.normal(0, 0.2, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=6),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=3),),
            interval_samples=300,
        )
        model = fit(ts, config)
        doc_bytes = canonical_json_bytes(model_to_document(model))
        restored = model_from_document(json.loads(doc_bytes))
        grid_a = make_future_grid(model, 45)
        grid_b = make_future_grid(restored, 45)
        fc_a = forecast_with_intervals(model, grid_a, seed=11)
        fc_b = forecast_with_intervals(restored, grid_b, seed=11)
        assert np.array_equal(fc_a.yhat, fc_b.yhat)
        for level in fc_a.bounds:
            assert np.array_equal(fc_a.bounds[level][0], fc_b.bounds[level][0])
            assert np.array_equal(fc_a.bounds[level][1], fc_b.bounds[level][1])
        again = fit(ts, config)
        assert canonical_json_bytes(model_to_document(again)) == doc_bytes


def test_criterion_10_seed_determinism_across_processes(tmp_path):
    with criterion(10, "cmd_predict interval columns byte-identical across processes"):
        rng = np.random.default_rng(1010)
        n = 250
        days = daily_days("2021-01-01", n)
        y = 4.0 + 0.5 * np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.2, n)
        data = tmp_path / "data.csv"
        lines = ["ds,y"] + [
            f"{format_epoch_day(int(d))},{float(v)!r}" for d, v in zip(days, y)
        ]
        data.write_text("\n".join(lines) + "\n")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "trend": {"n_changepoints": 4},
                    "seasonalities": [{"name": "weekly", "period": 7.0, "fourier_order": 2}],
                    "interval_samples": 300,
                }
            )
        )
        model = tmp_path / "model.json"
        with redirect_stdout(io.StringIO()):
            assert main(
                ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
            ) == 0
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"forecast_{tag}.csv"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "addcast", "predict",
                    "--input", str(model), "--periods", "30",
                    "--output", str(out), "--seed", "123",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        header = outputs[0].decode().splitlines()[0]
        assert "yhat_lower_80" in header and "yhat_upper_95" in header


def test_criterion_11_directional_replication(tmp_path):
    with criterion(11, "additive beats baselines with DM p<0.05 on >=9/10 seeds"):
        started = time.time()
        wins = 0
        for rep in range(10):
            rng = np.random.default_rng(3000 + rep)
            n_train, n_test = 1095, 180
            n = n_train + n_test
            days = daily_days("2015-01-01", n)
            t = np.arange(n) / (n_train - 1)
            trend = 10.0 + 1.5 * t
            angw = 2 * np.pi * np.outer(days, np.arange(1, 3)) / 7.0
            weekly = np.cos(angw) @ np.array([1.5, 0.5]) + np.sin(angw) @ np.array([1.0, -0.4])
            angy = 2 * np.pi * np.outer(days, np.arange(1, 3)) / 365.25
            yearly = np.cos(angy) @ np.array([2.0, 0.7]) + np.sin(angy) @ np.array([1.5, 0.5])
            y = trend + weekly + yearly + rng.normal(0, 0.3, n)

            data = tmp_path / f"data_{rep}.csv"
            lines = ["ds,y"] + [
                f"{format_epoch_day(int(d))},{float(v)!r}" for d, v in zip(days, y)
            ]
            data.write_text("\n".join(lines) + "\n")
            additive = tmp_path / "additive.json"
            additive.write_text(
                json.dumps(
                    {
                        "name": "additive",
                        "trend": {"n_changepoints": 10},
                        "seasonalities": [
                            {"name": "yearly", "period": 365.25, "fourier_order": 6},
                            {"name": "weekly", "period": 7.0, "fourier_order": 3},
                        ],
                        "interval_samples": 100,
                    }
                )
            )
            snaive = tmp_path / "snaive.json"
            snaive.write_text(json.dumps({"baseline": "seasonal_naive", "period": 7}))
            lag = tmp_path / "lag.json"
            lag.write_text(json.dumps({"baseline": "lag_linear"}))
            out = tmp_path / f"compare_{rep}.json"
            with redirect_stdout(io.StringIO()):
                code = main(
                    [
                        "compare",
                        "--input", str(data),
                        "--config", str(additive), str(snaive), str(lag),
                        "--cutoff", format_epoch_day(int(days[n_train - 1])),
                        "--output", str(out),
                        "--seed", str(3000 + rep),
                    ]
                )
            assert code == 0
            payload = json.loads(out.read_text())
            models = payload["models"]
            rmse_ok = (
                models["additive"]["rmse"] < models["snaive"]["rmse"]
                and models["additive"]["rmse"] < models["lag"]["rmse"]
            )
            dm_ok = True
            for row in payload["dm_tests"]:
                if row["model_a"] == "additive":
                    dm_ok &= row["statistic"] < 0 and row["p_value"] < 0.05
                elif row["model_b"] == "additive":
                    dm_ok &= row["statistic"] > 0 and row["p_value"] < 0.05
            wins += int(rmse_ok and dm_ok)
        assert wins >= 9, f"{wins}/10 replications favoured the additive model"
        assert time.time() - started < 180.0


def test_criterion_12_walk_forward_leakage_freedom():
    with criterion(12, "poisoned test targets leave walk-forward output unchanged"):
        rng = np.random.default_rng(1212)
        n = 600
        days = daily_days("2019-01-01", n)
        y = 8.0 + np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.2, n)
        cut = 480
        train = TimeSeries(days[:cut], y[:cut])
        regressor = fit_linear_lag_regressor(train)
        clean = walk_forward_forecast(regressor, train, days[cut:])
        poisoned = y.copy()
        poisoned[cut:] = -1e12  # garbage in the held-out region
        train_p = TimeSeries(days[:cut], poisoned[:cut])
        regressor_p = fit_linear_lag_regressor(train_p)
        again = walk_forward_forecast(regressor_p, train_p, days[cut:])
        assert np.array_equal(clean, again)
        assert len(clean) == len(again) == len(days[cut:])
