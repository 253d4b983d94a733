import json
import subprocess
import sys

import numpy as np
import pytest

from addcast.cli import _load_candidate, _read_column, _read_forecast_table, main
from addcast.config import load_config, load_holiday_calendar
from addcast.errors import ParseError
from addcast.persistence import load_model, read_manifest
from addcast.timeseries import format_epoch_day, load_csv

from conftest import daily_days


def write_series_csv(path, days, values):
    lines = ["ds,y"]
    for d, v in zip(days, values):
        lines.append(f"{format_epoch_day(int(d))},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


def synthetic_csv(path, rng, n=300, weekly_amp=1.0):
    days = daily_days("2021-01-01", n)
    y = 3.0 + 0.01 * np.arange(n) + weekly_amp * np.sin(2 * np.pi * days / 7.0)
    y = y + rng.normal(0, 0.1, n)
    write_series_csv(path, days, y)
    return days, y


def small_config(path, n_changepoints=3, seed=42):
    path.write_text(
        json.dumps(
            {
                "trend": {"n_changepoints": n_changepoints},
                "seasonalities": [
                    {"name": "weekly", "period": 7.0, "fourier_order": 2}
                ],
                "interval_samples": 200,
                "seed": seed,
            }
        )
    )


def assert_one_error_line(capsys, error, fragment):
    """stderr holds exactly one JSON error line of the given type, naming
    ``fragment``, and no traceback."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error
    assert fragment in err["message"]


class TestFitCommand:
    def test_smoke(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config)
        code = main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        )
        assert code == 0
        assert model.exists()
        report = json.loads(capsys.readouterr().out)
        assert report["n_obs"] == 300
        assert report["in_sample"]["rmse"] >= 0

    def test_malformed_csv_names_row(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        data.write_text("ds,y\n2021-01-01,1.0\n2021-01-02,oops\n")
        config = tmp_path / "config.json"
        small_config(config)
        code = main(
            ["fit", "--input", str(data), "--config", str(config),
             "--output", str(tmp_path / "m.json")]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "row 3" in err["message"]

    def test_byte_identical_model_documents(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        synthetic_csv(data, rng)
        small_config(config)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert main(
                ["fit", "--input", str(data), "--config", str(config), "--output", str(out)]
            ) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_negative_seed_in_config_rejected(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config, seed=-3)
        code = main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        )
        assert code == 1
        assert not model.exists()
        assert_one_error_line(capsys, "DomainError", "seed")

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_non_integer_seed_in_config_rejected(self, tmp_path, rng, capsys, seed):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config, seed=seed)
        code = main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        )
        assert code == 1
        assert not model.exists()
        assert_one_error_line(capsys, "SchemaError", "seed must be an integer")

    @pytest.mark.parametrize(
        "extra, error, fragment",
        [
            (
                {"holidays": [{"name": "h", "dates": [20200101]}]},
                "ParseError",
                "invalid ISO-8601 date 20200101",
            ),
            (
                {"regressors": [{"name": "x", "prior_scale": 1.0, "values": [1.0, 2.0]}]},
                "SchemaError",
                "regressor values must be an object",
            ),
        ],
    )
    def test_malformed_config_entries_exit_1(self, tmp_path, rng, capsys, extra, error, fragment):
        # both ended in an AttributeError traceback
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config)
        config.write_text(json.dumps({**json.loads(config.read_text()), **extra}))
        code = main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        )
        assert code == 1
        assert not model.exists()
        assert_one_error_line(capsys, error, fragment)

    def test_overflowing_in_sample_metric_writes_nothing(self, tmp_path, rng, capsys):
        # the fit is finite, but squared residuals of ~1e299 overflow the RMSE
        data = tmp_path / "data.csv"
        days = daily_days("2021-01-01", 120)
        write_series_csv(data, days, 1e300 * (1.0 + 0.3 * rng.normal(size=120)))
        config = tmp_path / "config.json"
        small_config(config)
        model = tmp_path / "model.json"
        code = main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        )
        assert code == 1
        assert not model.exists()
        assert_one_error_line(capsys, "DomainError", "a metric overflowed")

    def test_preprocessing_flags(self, tmp_path, rng, capsys):
        days = daily_days("2021-01-04", 200)
        y = np.abs(rng.normal(5, 1, 200))
        data = tmp_path / "data.csv"
        lines = ["ds,y"]
        for i, (d, v) in enumerate(zip(days, y)):
            lines.append(f"{format_epoch_day(int(d))},{'NA' if i == 10 else repr(float(v))}")
        data.write_text("\n".join(lines) + "\n")
        config = tmp_path / "config.json"
        small_config(config, n_changepoints=0)
        code = main(
            ["fit", "--input", str(data), "--config", str(config),
             "--output", str(tmp_path / "m.json"),
             "--weekdays-only", "--forward-fill", "--log-offset", "1.0"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_obs"] < 200  # weekends removed


class TestPredictCommand:
    def fit_once(self, tmp_path, rng):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config)
        assert main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        ) == 0
        return model

    def test_zero_periods_in_sample_only(self, tmp_path, rng, capsys):
        model = self.fit_once(tmp_path, rng)
        out = tmp_path / "forecast.csv"
        assert main(
            ["predict", "--input", str(model), "--periods", "0", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 300

    def test_schema_and_seed_determinism(self, tmp_path, rng, capsys):
        model = self.fit_once(tmp_path, rng)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(
                ["predict", "--input", str(model), "--periods", "30",
                 "--output", str(out), "--seed", "7"]
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == (
            "ds,yhat,yhat_lower_80,yhat_upper_80,yhat_lower_95,yhat_upper_95,"
            "trend,weekly,holidays"
        )
        out_c = tmp_path / "c.csv"
        assert main(
            ["predict", "--input", str(model), "--periods", "30",
             "--output", str(out_c), "--seed", "8"]
        ) == 0
        assert out_c.read_bytes() != out_a.read_bytes()


    def test_negative_seed_flag_rejected(self, tmp_path, rng, capsys):
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        out = tmp_path / "forecast.csv"
        code = main(
            ["predict", "--input", str(model), "--periods", "5",
             "--output", str(out), "--seed", "-1"]
        )
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "DomainError", "seed")

    def test_no_interval_levels_writes_point_forecasts(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config)
        config.write_text(json.dumps({**json.loads(config.read_text()), "interval_levels": []}))
        assert main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        ) == 0
        out = tmp_path / "forecast.csv"
        assert main(
            ["predict", "--input", str(model), "--periods", "30", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ds,yhat,trend,weekly,holidays"
        assert len(lines) == 1 + 300 + 30
        # cv simulates its folds, then declines to export them without bounds
        capsys.readouterr()
        assert main(
            ["cv", "--input", str(data), "--config", str(config), "--initial-days", "150",
             "--period-days", "60", "--horizon-days", "30",
             "--output", str(tmp_path / "folds.csv")]
        ) == 1
        assert_one_error_line(capsys, "DomainError", "95% interval bounds")

    def test_grid_past_year_9999_rejected(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        days = daily_days("9999-12-31", 1)[0] - np.arange(119, -1, -1)
        write_series_csv(data, days, 3.0 + rng.normal(0, 0.1, len(days)))
        small_config(config)
        assert main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        ) == 0
        capsys.readouterr()
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--input", str(model), "--periods", "3", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "DomainError", "9999-12-31")

    def test_model_document_with_negative_seed_rejected(self, tmp_path, rng, capsys):
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["config"]["seed"] = -3
        model.write_text(json.dumps(doc))
        code = main(
            ["predict", "--input", str(model), "--periods", "5",
             "--output", str(tmp_path / "forecast.csv")]
        )
        assert code == 1
        assert_one_error_line(capsys, "DomainError", "seed")

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_model_document_with_non_integer_seed_rejected(self, tmp_path, rng, capsys, seed):
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["config"]["seed"] = seed
        model.write_text(json.dumps(doc))
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--input", str(model), "--periods", "5", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "SchemaError", "seed must be an integer")


    @pytest.mark.parametrize(
        "section, key, index, value",
        [
            ("parameters", "sigma", None, float("nan")),
            ("parameters", "k", None, float("inf")),
            ("parameters", "m", None, float("-inf")),
            ("parameters", "delta", 0, float("nan")),
            ("parameters", "changepoints", 1, float("inf")),
            ("scaling", "y_scale", None, float("inf")),
            ("scaling", "t_start", None, float("nan")),
        ],
    )
    def test_model_document_with_non_finite_value_rejected(
        self, tmp_path, rng, capsys, section, key, index, value
    ):
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        if index is None:
            doc[section][key] = value
        else:
            doc[section][key][index] = value
        model.write_text(json.dumps(doc))  # NaN and Infinity literals
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--input", str(model), "--periods", "5", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "DomainError", "must be finite")

    def test_model_document_with_non_finite_coefficient_rejected(self, tmp_path, rng, capsys):
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["parameters"]["blocks"][0]["values"][0] = float("nan")
        model.write_text(json.dumps(doc))
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--input", str(model), "--periods", "5", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "DomainError", "beta must be finite")

class TestNonUtf8Input:
    """A file that is not UTF-8 text is a ParseError in every reader the CLI
    reaches, never a UnicodeDecodeError."""

    @pytest.mark.parametrize(
        "read",
        [load_csv, load_holiday_calendar, _read_forecast_table, lambda p: _read_column(p, "e")],
    )
    def test_csv_readers(self, tmp_path, read):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"ds,e,holiday,lower_window,upper_window\n2021-01-01,1.0,caf\xe9,0,0\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read(path)

    @pytest.mark.parametrize("read", [load_config, _load_candidate, load_model, read_manifest])
    def test_json_readers(self, tmp_path, read):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        with pytest.raises(ParseError, match="not UTF-8"):
            read(path)

    @pytest.mark.parametrize("bad", ["input", "config"])
    def test_fit_exits_1(self, tmp_path, rng, capsys, bad):
        paths = {"input": tmp_path / "data.csv", "config": tmp_path / "config.json"}
        synthetic_csv(paths["input"], rng)
        small_config(paths["config"])
        paths[bad].write_bytes(paths[bad].read_bytes().replace(b"2", b"\xe9", 1))
        model = tmp_path / "model.json"
        code = main(
            ["fit", "--input", str(paths["input"]), "--config", str(paths["config"]),
             "--output", str(model)]
        )
        assert code == 1
        assert not model.exists()
        assert_one_error_line(capsys, "ParseError", "not UTF-8")


class TestRegressorFlow:
    def test_fit_and_predict_with_regressor(self, tmp_path, rng, capsys):
        n = 200
        days = daily_days("2021-01-01", n)
        x = rng.normal(0, 1, n)
        y = 2.0 + 0.5 * x + rng.normal(0, 0.05, n)
        data = tmp_path / "data.csv"
        write_series_csv(data, days, y)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "trend": {"n_changepoints": 0},
                    "seasonalities": [],
                    "regressors": [
                        {
                            "name": "x",
                            "prior_scale": 5.0,
                            "values": {
                                format_epoch_day(int(d)): float(v)
                                for d, v in zip(days, x)
                            },
                        }
                    ],
                    "interval_samples": 100,
                }
            )
        )
        model = tmp_path / "model.json"
        assert main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        ) == 0
        capsys.readouterr()
        # predicting past the training span needs future values
        out = tmp_path / "f.csv"
        assert main(
            ["predict", "--input", str(model), "--periods", "2", "--output", str(out)]
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingRegressorValue"
        future = tmp_path / "future.csv"
        future.write_text(
            "ds,x\n"
            + "\n".join(
                f"{format_epoch_day(int(days[-1]) + i)},0.0" for i in (1, 2)
            )
            + "\n"
        )
        assert main(
            ["predict", "--input", str(model), str(future),
             "--periods", "2", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + n + 2
        assert lines[0].endswith(",holidays,regressors")


class TestCvCommand:
    def test_folds_and_metrics(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        synthetic_csv(data, rng, n=320)
        small_config(config)
        folds_csv = tmp_path / "folds.csv"
        code = main(
            ["cv", "--input", str(data), "--config", str(config),
             "--initial-days", "150", "--period-days", "60", "--horizon-days", "30",
             "--output", str(folds_csv)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # oracle: cutoffs at last-30-60i >= first+150 over span 319
        expected_folds = len([i for i in range(10) if 319 - 30 - 60 * i >= 150])
        assert payload["n_folds"] == expected_folds
        lines = folds_csv.read_text().splitlines()
        assert lines[0] == "cutoff,ds,y,yhat,yhat_lower_95,yhat_upper_95"
        from addcast.timeseries import parse_iso_date

        for line in lines[1:]:
            cutoff, ds = line.split(",")[:2]
            assert parse_iso_date(ds) > parse_iso_date(cutoff)  # leakage check
        metrics = json.loads((tmp_path / "folds.csv.metrics.json").read_text())
        for day, report in metrics["metrics"].items():
            assert set(report) == {"rmse", "mae", "mape_percent", "coverage_percent"}


class TestEvaluateCommand:
    def test_identical_files_zero_rmse(self, tmp_path, rng, capsys):
        days = daily_days("2022-01-01", 10)
        y = rng.normal(0, 1, 10) + 4
        truth = tmp_path / "truth.csv"
        write_series_csv(truth, days, y)
        pred = tmp_path / "pred.csv"
        lines = ["ds,yhat"]
        for d, v in zip(days, y):
            lines.append(f"{format_epoch_day(int(d))},{float(v)!r}")
        pred.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pred"]["rmse"] == 0.0

    def test_hand_computed_two_rows(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2022-01-01,2.0\n2022-01-02,4.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("ds,yhat\n2022-01-01,1.0\n2022-01-02,5.0\n")
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 0
        report = json.loads(capsys.readouterr().out)["pred"]
        assert report["rmse"] == 1.0
        assert report["mae"] == 1.0
        assert report["mape_percent"] == pytest.approx(37.5)

    def test_date_mismatch_lists_difference(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2022-01-01,2.0\n2022-01-02,4.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("ds,yhat\n2022-01-01,1.0\n2022-01-03,5.0\n")
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "LengthMismatch"
        assert "2022-01-02" in err["message"] and "2022-01-03" in err["message"]


    def test_bad_prediction_date_names_file_and_row(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2021-01-01,2.0\n2021-01-02,4.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("ds,yhat\n2021-01-01,1.0\n2021-13-02,5.0\n")
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 1
        assert_one_error_line(capsys, "ParseError", f"{pred}: row 3: invalid ISO-8601 date")

    def test_missing_prediction_date_names_file_and_row(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2021-01-01,2.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("yhat,ds\n1.0\n")
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 1
        assert_one_error_line(capsys, "ParseError", f"{pred}: row 2: missing date field")

class TestDmCommand:
    def write_errors(self, path, values):
        path.write_text("e\n" + "\n".join(repr(float(v)) for v in values) + "\n")

    def test_worked_example(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_errors(a, [2.0, 0.0, 2.0, 0.0])
        self.write_errors(b, [1.0, 1.0, 1.0, 1.0])
        assert main(["dm", "--input", str(a), str(b), "--loss", "squared", "--h", "1"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["statistic"] == pytest.approx(1.0, abs=1e-9)
        assert result["p_value"] == pytest.approx(0.317311, abs=1e-6)

    def test_identical_inputs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_errors(a, [1.0, 2.0, 3.0])
        self.write_errors(b, [1.0, 2.0, 3.0])
        assert main(["dm", "--input", str(a), str(b)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["statistic"] == 0.0
        assert result["p_value"] == 1.0

    def test_swap_negates(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_errors(a, [2.0, 0.5, 1.5, 0.1, 2.2])
        self.write_errors(b, [1.0, 1.1, 0.9, 1.2, 0.8])
        assert main(["dm", "--input", str(a), str(b)]) == 0
        fwd = json.loads(capsys.readouterr().out)
        assert main(["dm", "--input", str(b), str(a)]) == 0
        rev = json.loads(capsys.readouterr().out)
        assert fwd["statistic"] == pytest.approx(-rev["statistic"], rel=1e-12)
        assert fwd["p_value"] == pytest.approx(rev["p_value"], rel=1e-12)


class TestCompareCommand:
    def seasonal_data(self, path, rng, n=900):
        days = daily_days("2019-01-01", n)
        t = np.arange(n) / 730.0
        y = (
            10.0
            + 1.5 * t
            + 2.0 * np.sin(2 * np.pi * days / 365.25)
            + 1.2 * np.sin(2 * np.pi * days / 7.0)
            + 0.8 * np.cos(2 * np.pi * days / 7.0)
            + rng.normal(0, 0.3, n)
        )
        write_series_csv(path, days, y)
        return days

    def test_additive_beats_seasonal_naive(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng)
        model_cfg = tmp_path / "additive.json"
        model_cfg.write_text(
            json.dumps(
                {
                    "name": "additive",
                    "trend": {"n_changepoints": 5},
                    "seasonalities": [
                        {"name": "yearly", "period": 365.25, "fourier_order": 6},
                        {"name": "weekly", "period": 7.0, "fourier_order": 3},
                    ],
                    "interval_samples": 200,
                }
            )
        )
        naive_cfg = tmp_path / "snaive.json"
        naive_cfg.write_text(json.dumps({"baseline": "seasonal_naive", "period": 7}))
        out = tmp_path / "compare.json"
        cutoff = format_epoch_day(int(days[720]))
        code = main(
            ["compare", "--input", str(data), "--config", str(model_cfg), str(naive_cfg),
             "--cutoff", cutoff, "--output", str(out), "--seed", "42"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["models"]["additive"]["rmse"] < payload["models"]["snaive"]["rmse"]
        row = payload["dm_tests"][0]
        assert row["model_a"] == "additive" and row["model_b"] == "snaive"
        assert row["statistic"] < 0 and row["p_value"] < 0.05
        manifest = json.loads((tmp_path / "compare.json.manifest.json").read_text())
        assert manifest["seed"] == 42
        assert len(manifest["config_digest"]) == 64

    @pytest.mark.parametrize("cutoff", ["20200101", "2020W013", "2020-W01-3"])
    def test_cutoff_must_be_strict_yyyy_mm_dd(self, tmp_path, rng, capsys, cutoff):
        data = tmp_path / "data.csv"
        self.seasonal_data(data, rng, n=400)
        cfg = tmp_path / "m.json"
        small_config(cfg)
        out = tmp_path / "out.json"
        code = main(
            ["compare", "--input", str(data), "--config", str(cfg),
             "--cutoff", cutoff, "--output", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "ParseError", "YYYY-MM-DD")

    def test_single_model_no_dm_rows(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        cfg = tmp_path / "m.json"
        small_config(cfg)
        out = tmp_path / "out.json"
        cutoff = format_epoch_day(int(days[320]))
        assert main(
            ["compare", "--input", str(data), "--config", str(cfg),
             "--cutoff", cutoff, "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["dm_tests"] == []
        assert list(payload["models"]) == ["m"]

    def test_report_schema_stable(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        cfg = tmp_path / "m.json"
        small_config(cfg)
        out = tmp_path / "out.json"
        cutoff = format_epoch_day(int(days[320]))
        assert main(
            ["compare", "--input", str(data), "--config", str(cfg),
             "--cutoff", cutoff, "--output", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"cutoff", "n_test_points", "models", "dm_tests"}
        entry = payload["models"]["m"]
        assert {"rmse", "mae", "mape_percent", "coverage_percent", "n_predicted"} <= set(entry)


    def run_compare(self, tmp_path, rng, seeds, flags=()):
        """compare over one config per seed (None: a naive baseline)."""
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        configs = []
        for i, seed in enumerate(seeds):
            path = tmp_path / f"m{i}.json"
            if seed is None:
                path.write_text(json.dumps({"baseline": "naive", "name": f"b{i}"}))
            else:
                small_config(path, seed=seed)
            configs.append(path)
        out = tmp_path / "out.json"
        code = main(
            ["compare", "--input", str(data), "--config", *map(str, configs),
             "--cutoff", format_epoch_day(int(days[320])), "--output", str(out), *flags]
        )
        return code, configs, tmp_path / "out.json.manifest.json"

    @pytest.mark.parametrize(
        "seeds,flags,recorded",
        [
            ((7,), (), 7),
            ((7, 7, None), (), 7),
            ((3, 5), ("--seed", "9"), 9),
            ((None, None), (), 42),
        ],
    )
    def test_manifest_seed_and_digest(self, tmp_path, rng, capsys, seeds, flags, recorded):
        from addcast.config import config_to_dict, load_config
        from addcast.persistence import canonical_json_bytes, sha256_hex

        code, configs, manifest_path = self.run_compare(tmp_path, rng, seeds, flags)
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["seed"] == recorded
        forms = [
            json.loads(p.read_text()) if seed is None else config_to_dict(load_config(p))
            for p, seed in zip(configs, seeds)
        ]
        assert manifest["config_digest"] == sha256_hex(canonical_json_bytes(forms))

    def test_differing_seeds_need_seed_flag(self, tmp_path, rng, capsys):
        code, _, manifest_path = self.run_compare(tmp_path, rng, (3, 5))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError" and "--seed" in err["message"]
        assert not manifest_path.exists()

    @pytest.mark.parametrize("seeds", [(None,), (7,)])
    def test_negative_seed_exits_1(self, tmp_path, rng, capsys, seeds):
        code, _, manifest_path = self.run_compare(tmp_path, rng, seeds, ("--seed", "-1"))
        assert code == 1
        assert_one_error_line(capsys, "DomainError", "seed must be >= 0")
        assert not (tmp_path / "out.json").exists()
        assert not manifest_path.exists()

    def test_non_object_config_exits_1(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        cfg = tmp_path / "list.json"
        cfg.write_text("[]")
        assert main(
            ["compare", "--input", str(data), "--config", str(cfg),
             "--cutoff", format_epoch_day(int(days[320])),
             "--output", str(tmp_path / "o.json")]
        ) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestImports:
    @staticmethod
    def imported_modules(args):
        """Modules a fresh interpreter imports running ``args``, read from
        the interpreter's -X importtime log."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    def test_commands_do_not_load_numpy_ma(self, tmp_path, rng):
        # np.unique and np.quantile import numpy.ma on first use; no command
        # calls either
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        naive = tmp_path / "naive.json"
        model = tmp_path / "model.json"
        days, _ = synthetic_csv(data, rng)
        small_config(config)
        naive.write_text(json.dumps({"baseline": "naive"}))
        for args in (  # fit first: predict reads its model
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)],
            ["predict", "--input", str(model), "--periods", "10",
             "--output", str(tmp_path / "forecast.csv")],
            ["compare", "--input", str(data), "--config", str(config), str(naive),
             "--cutoff", format_epoch_day(int(days[240])),
             "--output", str(tmp_path / "compare.json")],
            ["cv", "--input", str(data), "--config", str(config), "--initial-days", "200",
             "--period-days", "30", "--horizon-days", "30",
             "--output", str(tmp_path / "folds.csv")],
        ):
            modules = self.imported_modules(["-m", "addcast", *args])
            assert "addcast.cli" in modules
            assert not {m for m in modules if m.split(".")[:2] == ["numpy", "ma"]}, args[0]

    def test_cli_runs_without_scipy(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config)
        assert main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        ) == 0
        for args in (
            ["-c", "import addcast.cli"],
            ["-m", "addcast", "predict", "--input", str(model), "--periods", "10",
             "--output", str(tmp_path / "forecast.csv")],
        ):
            modules = self.imported_modules(args)
            assert "addcast.cli" in modules
            assert not {m for m in modules if m.split(".")[0] == "scipy"}
