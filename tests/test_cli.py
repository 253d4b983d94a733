import gc
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from addcast.__main__ import main as entry_main
from addcast.cli import _load_candidate, main
from addcast.config import load_config
from addcast.errors import ParseError, SchemaError
from addcast.persistence import load_model
from addcast.timeseries import format_epoch_day, load_csv, read_columns

from conftest import daily_days

NAN = float("nan")
INF = float("inf")


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


def blank_day(path, day):
    """Empty the value of ``day``'s row in a ds,y CSV."""
    date = format_epoch_day(int(day))
    lines = [f"{date}," if line.startswith(date + ",") else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


def assert_one_error_line(capsys, error, fragment):
    """stderr holds exactly one JSON error line of the given type, naming
    ``fragment``, and no traceback."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == error
    assert fragment in err["message"]


def read_fifo_during(fifo, run):
    """``(run(), the bytes written to the FIFO meanwhile)``, read by a
    thread. A read-write descriptor held open while ``run`` runs keeps both
    ends from blocking; once it closes, the reader sees the end of file."""
    keep = os.open(fifo, os.O_RDWR)
    reader = open(fifo, "rb")
    received = []
    thread = threading.Thread(target=lambda: received.append(reader.read()))
    thread.start()
    try:
        result = run()
    finally:
        os.close(keep)
        thread.join(timeout=60)
        reader.close()
    assert not thread.is_alive()
    return result, b"".join(received)


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
            *(
                ({"seasonalities": [{"name": "w", "fourier_order": 2, **entry}]},
                 "DomainError", fragment)
                for entry, fragment in [
                    ({"period": NAN}, "period must be positive"),
                    ({"period": INF}, "period must be positive and finite"),
                    ({"period": 7.0, "prior_scale": NAN}, "prior_scale must be positive"),
                ]
            ),
            (
                {"holidays": [{"name": "h", "dates": ["2021-01-01"], "prior_scale": NAN}]},
                "DomainError",
                "prior_scale must be positive",
            ),
            (
                {"regressors": [{"name": "x", "prior_scale": NAN}]},
                "DomainError",
                "prior_scale must be positive",
            ),
            (
                {"regressors": [{"name": "x", "prior_scale": 1.0,
                                 "values": {"2021-01-01": NAN}}]},
                "DomainError",
                "values must be finite",
            ),
            (
                {"trend": {"changepoint_prior_scale": NAN}},
                "DomainError",
                "changepoint_prior_scale must be positive",
            ),
            *(
                ({"trend": {"growth": "logistic", "capacity": capacity}},
                 "DomainError", "capacity must be positive and finite")
                for capacity in (NAN, INF)
            ),
            (
                {"holidays": [{"name": "h", "dates": ["2021-01-01"], "upper_window": 10**30}]},
                "DomainError",
                "span of representable dates",
            ),
            # a non-object trend was read as dict(trend), so "" and a list
            # of pairs passed as a trend
            ({"trend": ""}, "SchemaError", "trend must be an object"),
            ({"trend": [["growth", "linear"]]}, "SchemaError", "trend must be an object"),
            ({"seasonalities": ["x"]}, "SchemaError", "seasonality must be an object"),
            ({"holidays": [7]}, "SchemaError", "holiday must be an object"),
            # 1 / inf**2 is 0, so an infinite scale passed; the fit then
            # ended in a traceback from saving the model
            (
                {"seasonalities": [{"name": "w", "fourier_order": 2, "period": 7.0,
                                    "prior_scale": INF}]},
                "DomainError",
                "prior_scale must be positive and finite",
            ),
            (
                {"holidays": [{"name": "h", "dates": ["2021-01-01"], "prior_scale": INF}]},
                "DomainError",
                "prior_scale must be positive and finite",
            ),
            (
                {"regressors": [{"name": "x", "prior_scale": INF}]},
                "DomainError",
                "prior_scale must be positive and finite",
            ),
            (
                {"trend": {"changepoint_prior_scale": INF}},
                "DomainError",
                "changepoint_prior_scale must be positive and finite",
            ),
            # the changepoint penalty's curvature 1e5 / scale overflowed, a
            # RuntimeWarning that escaped main under -W error
            (
                {"trend": {"changepoint_prior_scale": 5e-324}},
                "DomainError",
                "changepoint_prior_scale 5e-324 is too small: "
                "1 / changepoint_prior_scale**2 overflows",
            ),
            (
                {"seasonalities": [{"name": "w", "period": 7.0, "fourier_order": 2,
                                    "mode": "both"}]},
                "DomainError",
                "seasonality 'w': unknown mode 'both'",
            ),
            (
                {"holidays": [{"name": "h", "dates": ["2021-01-01"]},
                              {"name": "h", "dates": ["2021-02-01"]}]},
                "DomainError",
                "holiday names must be unique",
            ),
            (
                {"regressors": [{"name": "x", "prior_scale": 1.0},
                                {"name": "x", "prior_scale": 2.0}]},
                "DomainError",
                "regressor names must be unique",
            ),
        ],
    )
    def test_malformed_config_entries_exit_1(self, tmp_path, rng, capsys, extra, error, fragment):
        # the first two ended in an AttributeError traceback; a NaN passed
        # every check and failed inside the fit, or not at all
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

    @pytest.mark.parametrize("offset", ["nan", "inf"])
    def test_non_finite_log_offset_exits_1(self, tmp_path, rng, capsys, offset):
        # nan failed later as "series contains missing values", inf as a
        # ParseError "values must be finite"
        data = tmp_path / "data.csv"
        synthetic_csv(data, rng, n=60)
        config = tmp_path / "config.json"
        small_config(config, n_changepoints=0)
        code = main(
            ["fit", "--input", str(data), "--config", str(config),
             "--output", str(tmp_path / "m.json"), "--log-offset", offset]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == sorted([data, config])
        assert_one_error_line(
            capsys, "DomainError", f"log offset must be finite and nonnegative, got {offset}"
        )


    def test_huge_changepoint_count_places_every_eligible_day(self, tmp_path, rng, capsys):
        # 10**21 changepoints ended in a numpy ValueError traceback, and
        # 10**9 in an out-of-memory kill
        data = tmp_path / "data.csv"
        synthetic_csv(data, rng, n=500)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trend": {"n_changepoints": 10**21}}))
        model = tmp_path / "model.json"
        code = main(["fit", "--input", str(data), "--config", str(config), "--output", str(model)])
        assert code == 0
        assert capsys.readouterr().err == ""
        # the first 0.8 * 500 days but the first
        assert len(load_model(model).changepoints_scaled) == 399


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

    def test_out_of_memory_is_one_error_line(self, tmp_path, rng):
        # 200 million samples ask for a 1.5 GiB draw for a single row, the
        # smallest block the simulator forms; a 1 GiB address-space limit on
        # the child alone makes that allocation fail, which ended in a numpy
        # traceback
        import resource

        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        small_config(config)
        samples = {**json.loads(config.read_text()), "interval_samples": 200_000_000}
        config.write_text(json.dumps(samples))
        assert main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        ) == 0
        out = tmp_path / "forecast.csv"

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "addcast", "predict", "--input", str(model),
             "--periods", "10", "--output", str(out)],
            preexec_fn=limit_address_space, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "MemoryError"
        assert error["message"].startswith("Unable to allocate")
        assert not out.exists()

    # Runs ``python -m addcast ARGS`` and prints its exit code and peak RSS.
    # It spawns the command from a small interpreter: Linux counts the
    # resident set of the process a child was spawned from into the child's
    # ru_maxrss, and that of the test process would hide the command's own.
    PEAK_RSS = (
        "import os, sys\n"
        "argv = [sys.executable, '-m', 'addcast', *sys.argv[1:]]\n"
        "_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )

    def test_peak_memory_is_nearly_flat_in_the_horizon(self, tmp_path, rng):
        # The simulator holds blocks of about 16384 samples whatever the
        # horizon. What still grows with it is the grid, its design, the CSV
        # and the future changepoint draws: 25 per sample per 300 days here,
        # 0.84 million at 10000 days. Measured on a 2-core x86-64 Linux VM
        # (numpy 2.4.6) with this 300-day series, 25 changepoints and 1000
        # samples, 90 periods peak at 37.4 MB and 10000 periods at 77.0 MB.
        # A simulator that forms one (rows x samples) future matrix peaks at
        # 259 MB there.
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        synthetic_csv(data, rng)
        config.write_text(json.dumps({"seed": 3}))
        assert main(
            ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        ) == 0
        peak_mb = {}
        for periods in (90, 10000):
            proc = subprocess.run(
                [sys.executable, "-c", self.PEAK_RSS, "predict", "--input", str(model),
                 "--periods", str(periods), "--output", str(tmp_path / "forecast.csv")],
                capture_output=True, text=True, timeout=60,
            )
            code, max_rss_kib = map(int, proc.stdout.split())
            assert code == 0, proc.stderr
            peak_mb[periods] = max_rss_kib / 1024
        assert peak_mb[10000] <= peak_mb[90] + 60.0

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

    @pytest.mark.parametrize(
        "y_scale, k, m, sigma, row",
        [
            # the point forecast overflows in original units
            (1.7e308, 0.0, 5.0, 0.0, 0),
            # the point forecast is finite, the upper bound is not
            (1e308, 0.0, 1.0, 1.0, 0),
            # the trend line overflows in scaled units after its first day
            (1.0, 1.7e308, 1.797e308, 0.0, 1),
            # the noise overflows in scaled units
            (1.0, 0.0, 1.0, 1e308, 0),
        ],
        ids=["point", "bounds", "scaled", "noise"],
    )
    def test_model_document_whose_forecast_overflows_rejected(
        self, tmp_path, rng, capsys, y_scale, k, m, sigma, row
    ):
        # such a forecast was written as inf with exit 0, after numpy
        # overflow warnings
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        params = doc["parameters"]
        params.update(k=k, m=m, sigma=sigma, delta=[0.0] * len(params["delta"]))
        for block in params["blocks"]:
            block["values"] = [0.0] * len(block["values"])
        doc["scaling"]["y_scale"] = y_scale
        model.write_text(json.dumps(doc))
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--input", str(model), "--periods", "3", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        day = format_epoch_day(doc["train_summary"]["timestamps"][row])
        assert_one_error_line(capsys, "DomainError", f"the forecast overflows on {day}")

    @pytest.mark.parametrize(
        "section, key, value, fragment",
        [
            ("parameters", "sigma", -1.0, "sigma must be nonnegative"),
            ("scaling", "t_span", 0.0, "scaling spans must be positive"),
            ("scaling", "y_scale", 0.0, "scaling spans must be positive"),
        ],
    )
    def test_model_document_with_out_of_range_value_rejected(
        self, tmp_path, rng, capsys, section, key, value, fragment
    ):
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc[section][key] = value
        model.write_text(json.dumps(doc))
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--input", str(model), "--periods", "5", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "DomainError", fragment)

    @pytest.mark.parametrize("samples", [10**20, 2**63 - 1])
    def test_model_document_with_huge_sample_count_rejected(self, tmp_path, rng, capsys, samples):
        # these counts ended in numpy ValueError tracebacks
        model = self.fit_once(tmp_path, rng)
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["config"]["interval_samples"] = samples
        model.write_text(json.dumps(doc))
        out = tmp_path / "forecast.csv"
        code = main(["predict", "--input", str(model), "--periods", "5", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "DomainError", "interval_samples must be in [100, ")

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
        [
            load_csv,
            pytest.param(lambda p: read_columns(p, ("e",)), id="read_columns"),
            lambda p: read_columns(p, ("e",), date_column=None),
        ],
    )
    def test_csv_readers(self, tmp_path, read):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"ds,e,holiday,lower_window,upper_window\n2021-01-01,1.0,caf\xe9,0,0\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read(path)

    @pytest.mark.parametrize("read", [load_config, _load_candidate, load_model])
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


class TestDeeplyNestedJson:
    """JSON nested deeper than the parser's recursion limit is a
    SchemaError in every JSON reader, never a RecursionError."""

    @staticmethod
    def write_deep(path):
        path.write_text("[" * 100000)
        return path

    @pytest.mark.parametrize("read", [load_config, _load_candidate, load_model])
    def test_json_readers(self, tmp_path, read):
        with pytest.raises(SchemaError, match="nested too deeply"):
            read(self.write_deep(tmp_path / "deep.json"))

    def test_predict_exits_1(self, tmp_path, capsys):
        out = tmp_path / "forecast.csv"
        code = main(
            ["predict", "--input", str(self.write_deep(tmp_path / "deep.json")),
             "--periods", "3", "--output", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, "SchemaError", "nested too deeply")


def test_predict_refuses_a_version_1_model(tmp_path, rng, capsys):
    data, config, model = tmp_path / "data.csv", tmp_path / "config.json", tmp_path / "m.json"
    synthetic_csv(data, rng)
    small_config(config)
    assert main(["fit", "--input", str(data), "--config", str(config),
                 "--output", str(model)]) == 0
    document = json.loads(model.read_text())
    document["format_version"] = 1
    old = tmp_path / "v1.json"
    old.write_text(json.dumps(document))
    capsys.readouterr()
    out = tmp_path / "forecast.csv"
    code = main(["predict", "--input", str(old), "--periods", "3", "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert_one_error_line(capsys, "UnsupportedVersion", "format_version 1")


class TestRegressorFlow:
    N = 200

    def fit_model(self, tmp_path, rng, capsys):
        """A model with one regressor ``x`` fit on N days; returns
        (model path, last training day)."""
        days = daily_days("2021-01-01", self.N)
        x = rng.normal(0, 1, self.N)
        y = 2.0 + 0.5 * x + rng.normal(0, 0.05, self.N)
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
        return model, int(days[-1])

    def test_fit_and_predict_with_regressor(self, tmp_path, rng, capsys):
        model, last = self.fit_model(tmp_path, rng, capsys)
        # predicting past the training span needs future values
        out = tmp_path / "f.csv"
        assert main(
            ["predict", "--input", str(model), "--periods", "2", "--output", str(out)]
        ) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingRegressorValue"
        future = tmp_path / "future.csv"
        # a column the model does not declare is not read
        future.write_text(
            "ds,x,note\n"
            + "\n".join(f"{format_epoch_day(last + i)},0.0,text" for i in (1, 2))
            + "\n"
        )
        assert main(
            ["predict", "--input", str(model), str(future),
             "--periods", "2", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + self.N + 2
        assert lines[0].endswith(",holidays,regressors")

    @pytest.mark.parametrize(
        "values, error, fragment",
        [
            (["nan", "0.0"], "ParseError", "row 2: non-finite value 'nan'"),
            (["0.0", "inf"], "ParseError", "row 3: non-finite value 'inf'"),
            (["0.0", "NA"], "ParseError", "row 3: invalid number 'NA'"),
            (["0.0", "0.0"], "DuplicateTimestamp", "duplicate date"),
        ],
    )
    def test_bad_future_values_exit_1_and_write_nothing(
        self, tmp_path, rng, capsys, values, error, fragment
    ):
        # the nan and inf rows, and a duplicated date, were read: predict
        # exited 0 writing nan/inf forecast rows, or the last row won
        model, last = self.fit_model(tmp_path, rng, capsys)
        days = [last + 1, last + 2] if error == "ParseError" else [last + 1, last + 1]
        future = tmp_path / "future.csv"
        future.write_text(
            "ds,x\n" + "".join(f"{format_epoch_day(d)},{v}\n" for d, v in zip(days, values))
        )
        out = tmp_path / "f.csv"
        code = main(
            ["predict", "--input", str(model), str(future), "--periods", "2",
             "--output", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert_one_error_line(capsys, error, f"{future}: {fragment}")


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

    def test_metrics_coverage_is_recomputable_from_the_folds_csv(self, tmp_path, rng, capsys):
        # with a 99% level beside the 95% one, the metrics used to report
        # the 99% coverage, which the folds CSV does not hold
        from addcast.evaluation import coverage
        from addcast.timeseries import parse_iso_date

        data = tmp_path / "data.csv"
        synthetic_csv(data, rng, n=400)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "trend": {"n_changepoints": 3},
            "seasonalities": [{"name": "weekly", "period": 7.0, "fourier_order": 2}],
            "interval_levels": [0.95, 0.99],
            "interval_samples": 200,
        }))
        folds_csv = tmp_path / "folds.csv"
        code = main(
            ["cv", "--input", str(data), "--config", str(config),
             "--initial-days", "150", "--period-days", "20", "--horizon-days", "30",
             "--output", str(folds_csv)]
        )
        assert code == 0
        capsys.readouterr()
        rows = {}
        for line in folds_csv.read_text().splitlines()[1:]:
            cutoff, ds, *values = line.split(",")
            lead = parse_iso_date(ds) - parse_iso_date(cutoff)
            rows.setdefault(lead, []).append([float(v) for v in values])
        metrics = json.loads((tmp_path / "folds.csv.metrics.json").read_text())["metrics"]
        assert sorted(map(int, metrics)) == sorted(rows)
        recomputed = {}
        for lead, table in rows.items():
            y, _, lo, hi = np.array(table).T
            recomputed[lead] = coverage(y, lo, hi)
            assert metrics[str(lead)]["coverage_percent"] == recomputed[lead], lead
        assert min(recomputed.values()) < 100.0


    def test_without_95_level_fails_before_fitting_and_writes_nothing(
        self, tmp_path, rng, capsys, monkeypatch
    ):
        import addcast.evaluation

        data = tmp_path / "data.csv"
        synthetic_csv(data, rng, n=400)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trend": {"n_changepoints": 3}, "interval_levels": [0.8]}))
        fits = []
        real_fit = addcast.evaluation.fit
        monkeypatch.setattr(
            addcast.evaluation, "fit", lambda *args: fits.append(args) or real_fit(*args)
        )
        folds_csv = tmp_path / "folds.csv"
        code = main(
            ["cv", "--input", str(data), "--config", str(config),
             "--initial-days", "200", "--period-days", "60", "--horizon-days", "30",
             "--output", str(folds_csv)]
        )
        assert code == 1
        assert fits == []
        assert sorted(tmp_path.iterdir()) == sorted([data, config])
        assert json.loads(capsys.readouterr().err) == {
            "error": "DomainError",
            "message": "fold export requires 95% interval bounds",
        }

    def test_overflowing_horizon_metric_writes_nothing(self, tmp_path, capsys):
        # the folds CSV used to be written before the metrics overflowed
        data = tmp_path / "data.csv"
        days = daily_days("2021-01-01", 500)
        write_series_csv(data, days, 1e300 * (1 + 0.1 * np.sin(np.arange(500) / 7)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"interval_samples": 100}))
        folds_csv = tmp_path / "folds.csv"
        code = main(
            ["cv", "--input", str(data), "--config", str(config),
             "--initial-days", "300", "--period-days", "60", "--horizon-days", "30",
             "--output", str(folds_csv)]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == sorted([data, config])
        assert_one_error_line(capsys, "DomainError", "horizon_1d: a metric overflowed")

    def test_missing_value_fails_before_fitting_and_writes_nothing(
        self, tmp_path, rng, capsys, monkeypatch
    ):
        # every fold used to be fit, and then the NaN read as an overflowed
        # horizon metric
        import addcast.evaluation

        data = tmp_path / "data.csv"
        days, _ = synthetic_csv(data, rng, n=400)
        blank_day(data, days[-1])
        config = tmp_path / "config.json"
        small_config(config)
        monkeypatch.setattr(
            addcast.evaluation, "fit", lambda *args: pytest.fail("a fold was fit")
        )
        code = main(
            ["cv", "--input", str(data), "--config", str(config),
             "--initial-days", "200", "--period-days", "60", "--horizon-days", "30",
             "--output", str(tmp_path / "folds.csv")]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == sorted([data, config])
        assert_one_error_line(
            capsys, "DomainError",
            f"{data}: missing value on {format_epoch_day(int(days[-1]))};"
            " pass --forward-fill to fill it",
        )

    @pytest.mark.parametrize("old_folds", [None, b"cutoff,ds\r\n"], ids=["new", "existing"])
    def test_failing_metrics_write_leaves_the_folds_file_as_it_was(
        self, tmp_path, rng, capsys, old_folds
    ):
        # the folds CSV used to be published before the metrics write failed
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        synthetic_csv(data, rng, n=320)
        small_config(config)
        folds_csv = tmp_path / "folds.csv"
        if old_folds is not None:
            folds_csv.write_bytes(old_folds)
        (tmp_path / "folds.csv.metrics.json").mkdir()
        before = sorted(tmp_path.iterdir())
        code = main(
            ["cv", "--input", str(data), "--config", str(config),
             "--initial-days", "150", "--period-days", "60", "--horizon-days", "30",
             "--output", str(folds_csv)]
        )
        assert code == 1
        assert_one_error_line(capsys, "IsADirectoryError", "folds.csv.metrics.json")
        assert sorted(tmp_path.iterdir()) == before
        if old_folds is None:
            assert not folds_csv.exists()
        else:
            assert folds_csv.read_bytes() == old_folds

    @pytest.mark.parametrize(
        "days, fragment",
        [
            (("150", "0", "30"), "period must be >= 1 day"),
            (("-1", "60", "30"), "initial must be >= 0 and horizon >= 1"),
            (("150", "60", "0"), "initial must be >= 0 and horizon >= 1"),
        ],
        ids=["period_0", "initial_-1", "horizon_0"],
    )
    def test_out_of_range_day_counts_exit_1(self, tmp_path, rng, capsys, days, fragment):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        synthetic_csv(data, rng, n=320)
        small_config(config)
        initial, period, horizon = days
        code = main(
            ["cv", "--input", str(data), "--config", str(config),
             "--initial-days", initial, "--period-days", period, "--horizon-days", horizon,
             "--output", str(tmp_path / "folds.csv")]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == sorted([data, config])
        assert_one_error_line(capsys, "DomainError", fragment)

    def test_fold_export_checks_every_fold_before_opening(self, tmp_path, rng):
        from addcast.errors import DomainError
        from addcast.evaluation import write_cv_folds_csv

        days = daily_days("2021-01-01", 4)
        with_95 = {"cutoff": 0, "ds": days[:2], "y": np.ones(2), "yhat": np.ones(2),
                   "yhat_lower_95": np.zeros(2), "yhat_upper_95": np.ones(2)}
        without = {"cutoff": 0, "ds": days[2:], "y": np.ones(2), "yhat": np.ones(2),
                   "yhat_lower_80": np.zeros(2), "yhat_upper_80": np.ones(2)}
        out = tmp_path / "folds.csv"
        with pytest.raises(DomainError, match="fold export requires 95% interval bounds"):
            write_cv_folds_csv([with_95, without], out)
        assert not out.exists()


class TestPriorScaleExtremes:
    """A prior scale whose square overflows fits without a numpy warning and
    gives the model it gave before the squares were cached; one whose
    precision 1 / scale**2 is not finite is a config error. Both run as
    fresh processes, so any warning would reach stderr."""

    # The model document for prior_scale 1e300 on the file below; pinned
    # like tests/test_golden.py's digests, on the same platform.
    HUGE_MODEL_SHA256 = "0a10fdf206fb84c31ccd9022e1f7464977940d37620229f4f3a3fb14567a2229"

    @staticmethod
    def fit(tmp_path, prior_scale):
        # Exact decimal values, so the input bytes do not depend on numpy.
        lines = ["ds,y"]
        for i, d in enumerate(daily_days("2021-01-01", 200)):
            y = 3 + i / 100 + [0.5, 0.25, 0, -0.25, -0.5, -0.25, 0][i % 7]
            y += [0.125, -0.125, 0.0625][i % 3]
            lines.append(f"{format_epoch_day(int(d))},{y!r}")
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "trend": {"n_changepoints": 3},
            "seasonalities": [{"name": "weekly", "period": 7.0, "fourier_order": 2,
                               "prior_scale": prior_scale}],
            "interval_samples": 200,
        }))
        model = tmp_path / "model.json"
        proc = subprocess.run(
            [sys.executable, "-m", "addcast", "fit", "--input", str(data),
             "--config", str(config), "--output", str(model)],
            capture_output=True, text=True, timeout=120,
        )
        return proc, model

    def test_huge_scale_fits_silently_with_unchanged_model(self, tmp_path):
        import hashlib

        proc, model = self.fit(tmp_path, 1e300)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.HUGE_MODEL_SHA256

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_tiny_scale_is_a_config_error(self, tmp_path, scale):
        proc, model = self.fit(tmp_path, scale)
        assert proc.returncode == 1
        assert not model.exists()
        assert json.loads(proc.stderr) == {
            "error": "DomainError",
            "message": f"seasonality 'weekly': prior_scale {scale!r} is too small: "
            "1 / prior_scale**2 overflows",
        }


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

    def test_unused_columns_are_ignored(self, tmp_path, capsys):
        # a text column used to fail the run: "row 2: invalid number 'ok'"
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2022-01-02,4.0\n2022-01-01,2.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "note,yhat,ds,yhat_lower_95\nok,1.0,2022-01-01,x\nlate,5.0,2022-01-02,y\n"
        )
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 0
        report = json.loads(capsys.readouterr().out)["pred"]
        assert report["rmse"] == 1.0 and report["coverage_percent"] is None

    def test_bounds_give_coverage(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2022-01-01,2.0\n2022-01-02,4.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "ds,yhat,yhat_lower_95,yhat_upper_95\n"
            "2022-01-02,5.0,4.5,6.0\n2022-01-01,1.0,0.0,3.0\n"
        )
        out = tmp_path / "report.json"
        assert main(["evaluate", "--input", str(truth), str(pred), "--output", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)["pred"]
        assert report["coverage_percent"] == 50.0
        assert json.loads(out.read_text())["pred"] == report

    @pytest.mark.parametrize(
        "body, error, fragment",
        [
            ("2021-01-01,NA\n2021-01-02,5.0\n", "ParseError", "row 2: invalid number 'NA'"),
            ("2021-01-01,1.0\n2021-01-02,inf\n", "ParseError", "row 3: non-finite value"),
            ("2021-01-01,1.0\n2021-01-01,5.0\n", "DuplicateTimestamp", "duplicate date"),
        ],
    )
    def test_bad_prediction_values_name_the_file(self, tmp_path, capsys, body, error, fragment):
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2021-01-01,2.0\n2021-01-02,4.0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("ds,yhat\n" + body)
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 1
        assert_one_error_line(capsys, error, f"{pred}: {fragment}")

    def test_missing_truth_value_names_the_file(self, tmp_path, capsys):
        # used to read as "a metric overflowed: {'rmse': nan, ...}"
        truth = tmp_path / "truth.csv"
        truth.write_text("ds,y\n2021-01-01,2.0\n2021-01-02,NA\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("ds,yhat\n2021-01-01,1.0\n2021-01-02,5.0\n")
        assert main(["evaluate", "--input", str(truth), str(pred)]) == 1
        assert_one_error_line(
            capsys, "DomainError", f"{truth}: missing truth value on 2021-01-02"
        )

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

    @pytest.mark.parametrize(
        "value, error, fragment",
        [
            (1e200, "DomainError", "the loss differential overflowed"),
            ("nan", "ParseError", "row 3: non-finite value 'nan'"),
            ("inf", "ParseError", "row 3: non-finite value 'inf'"),
            ("NA", "ParseError", "row 3: invalid number 'NA'"),
        ],
    )
    def test_unusable_errors_exit_1(self, tmp_path, capsys, value, error, fragment):
        # each used to end in a ValueError traceback from the JSON output
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(f"e\n1.0\n{value}\n2.0\n")
        self.write_errors(b, [1.0, 1.0, 1.0])
        out = tmp_path / "dm.json"
        assert main(["dm", "--input", str(a), str(b), "--output", str(out)]) == 1
        assert not out.exists()
        assert_one_error_line(capsys, error, fragment)

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

    @pytest.mark.parametrize(
        "entries,flags,error,fragment",
        [
            # the manifest could not serialize it: a ValueError traceback
            ({"b": {"baseline": "naive", "note": NAN}}, [], "SchemaError", "not JSON compliant"),
            # int(NaN): a ValueError traceback
            ({"b": {"baseline": "seasonal_naive", "period": NAN}}, [], "SchemaError",
             "period must be an integer"),
            # ran as period 2
            ({"b": {"baseline": "seasonal_naive", "period": 2.7}}, [], "SchemaError",
             "period must be an integer"),
            # kept the last entry's metrics and compared naive with naive
            ({"naive": {"baseline": "naive"}, "b": {"baseline": "seasonal_naive", "name": "naive"}},
             [], "SchemaError", "unique, got ['m', 'naive', 'naive']"),
            # failed in the DM test, after every candidate had run
            ({"b": {"baseline": "naive"}}, ["--h", "0"], "DomainError",
             "horizon h must be >= 1, got 0"),
        ],
        ids=["nan_note", "nan_period", "fractional_period", "duplicate_name", "zero_h"],
    )
    def test_bad_candidates_exit_1_before_any_candidate_runs(
        self, tmp_path, rng, capsys, monkeypatch, entries, flags, error, fragment
    ):
        import addcast.cli

        monkeypatch.setattr(
            addcast.cli, "_run_candidate", lambda *args: pytest.fail("a candidate ran")
        )
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        model = tmp_path / "m.json"
        small_config(model)
        paths = [model]
        for stem, entry in entries.items():
            paths.append(tmp_path / f"{stem}.json")
            paths[-1].write_text(json.dumps(entry))
        before = sorted(tmp_path.iterdir())
        code = main(
            ["compare", "--input", str(data), "--config", *map(str, paths),
             "--cutoff", format_epoch_day(int(days[320])), "--output", str(tmp_path / "o.json"),
             *flags]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == before
        assert_one_error_line(capsys, error, fragment)

    # A test row and the last train row were read by a baseline and gave "a
    # metric overflowed"; an early row no baseline reads gave a report.
    @pytest.mark.parametrize("row", [330, 320, 10], ids=["test", "last_train", "early"])
    def test_missing_value_fails_before_any_candidate_runs(
        self, tmp_path, rng, capsys, monkeypatch, row
    ):
        import addcast.cli

        monkeypatch.setattr(
            addcast.cli, "_run_candidate", lambda *args: pytest.fail("a candidate ran")
        )
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        blank_day(data, days[row])
        paths = [tmp_path / "naive.json", tmp_path / "seasonal.json"]
        paths[0].write_text(json.dumps({"baseline": "naive"}))
        paths[1].write_text(json.dumps({"baseline": "seasonal_naive"}))
        code = main(
            ["compare", "--input", str(data), "--config", *map(str, paths),
             "--cutoff", format_epoch_day(int(days[320])), "--output", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == sorted([data, *paths])
        assert_one_error_line(
            capsys, "DomainError",
            f"{data}: missing value on {format_epoch_day(int(days[row]))};"
            " pass --forward-fill to fill it",
        )

    def test_failing_manifest_writes_nothing(self, tmp_path, rng, capsys, monkeypatch):
        # the report used to be written before the manifest was built
        import addcast.cli
        from addcast.errors import DomainError

        def fail(*args):
            raise DomainError("manifest failed")

        monkeypatch.setattr(addcast.cli, "make_manifest", fail)
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        cfg = tmp_path / "naive.json"
        cfg.write_text(json.dumps({"baseline": "naive"}))
        code = main(
            ["compare", "--input", str(data), "--config", str(cfg),
             "--cutoff", format_epoch_day(int(days[320])), "--output", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == sorted([data, cfg])
        assert_one_error_line(capsys, "DomainError", "manifest failed")

    @pytest.mark.parametrize("old_report", [None, b"{}\n"], ids=["new", "existing"])
    def test_failing_manifest_write_leaves_the_report_as_it_was(
        self, tmp_path, rng, capsys, old_report
    ):
        # the report used to be published before the manifest write failed
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        cfg = tmp_path / "naive.json"
        cfg.write_text(json.dumps({"baseline": "naive"}))
        out = tmp_path / "o.json"
        if old_report is not None:
            out.write_bytes(old_report)
        (tmp_path / "o.json.manifest.json").mkdir()
        before = sorted(tmp_path.iterdir())
        code = main(
            ["compare", "--input", str(data), "--config", str(cfg),
             "--cutoff", format_epoch_day(int(days[320])), "--output", str(out)]
        )
        assert code == 1
        assert_one_error_line(capsys, "IsADirectoryError", "o.json.manifest.json")
        assert sorted(tmp_path.iterdir()) == before
        if old_report is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == old_report

    def test_failing_candidate_is_named(self, tmp_path, rng, capsys):
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        ok, big, naive = (tmp_path / f"{stem}.json" for stem in ("ok", "big", "nv"))
        small_config(ok)
        big.write_text(json.dumps(
            {"seasonalities": [{"name": "yearly", "period": 365.25, "fourier_order": 200}]}
        ))
        naive.write_text(json.dumps({"baseline": "naive"}))
        before = sorted(tmp_path.iterdir())
        code = main(
            ["compare", "--input", str(data), "--config", str(ok), str(big), str(naive),
             "--cutoff", format_epoch_day(int(days[320])), "--output", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert sorted(tmp_path.iterdir()) == before
        assert_one_error_line(capsys, "UnderdeterminedModel", "candidate 'big': ")

    def test_model_candidates_do_not_interact(self, tmp_path, rng, capsys):
        """Two models under one seed, horizon and sample count get the
        entries, in the report and in the manifest, that each gets in a
        compare of its own."""
        data = tmp_path / "data.csv"
        days = self.seasonal_data(data, rng, n=400)
        a, b, naive = (tmp_path / f"{stem}.json" for stem in ("a", "b", "naive"))
        small_config(a, n_changepoints=3)
        small_config(b, n_changepoints=5)
        naive.write_text(json.dumps({"baseline": "naive"}))

        def compare(*configs):
            out = tmp_path / ("_".join(p.stem for p in configs) + ".json")
            assert main(
                ["compare", "--input", str(data), "--config", *map(str, configs),
                 "--cutoff", format_epoch_day(int(days[320])), "--output", str(out),
                 "--seed", "11"]
            ) == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            return json.loads(out.read_text())["models"], manifest["metrics"]

        together = compare(a, b, naive)
        for model in (a, b):
            for got, alone in zip(together, compare(model, naive)):
                assert got[model.stem] == alone[model.stem]
        assert together[0]["a"] != together[0]["b"]


class TestOutputFiles:
    """Every output is published whole through one writer: a new file gets
    mode 0o666 & ~umask, and a target that is not a regular file is
    written in place."""

    def test_fit_and_predict_write_into_a_fifo(self, tmp_path, rng, capsys):
        # a FIFO used to be replaced by a regular file of mode 0600
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        synthetic_csv(data, rng, n=120)
        small_config(config)
        model, fifo = tmp_path / "model.json", tmp_path / "fifo"
        os.mkfifo(fifo)
        fit = ["fit", "--input", str(data), "--config", str(config), "--output"]
        assert main([*fit, str(model)]) == 0
        code, received = read_fifo_during(fifo, lambda: main([*fit, str(fifo)]))
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == model.read_bytes()

        forecast = tmp_path / "forecast.csv"
        predict = ["predict", "--input", str(model), "--periods", "3", "--output"]
        assert main([*predict, str(forecast)]) == 0
        code, received = read_fifo_during(fifo, lambda: main([*predict, str(fifo)]))
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == forecast.read_bytes()

    def test_outputs_get_the_umask_mode(self, tmp_path, rng, capsys):
        # models and manifests used to be 0600, whatever the umask
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        days, _ = synthetic_csv(data, rng, n=320)
        small_config(config)
        errors = tmp_path / "e.csv"
        errors.write_text("e\n1.0\n2.0\n0.5\n")
        pred = tmp_path / "pred.csv"
        pred.write_text(data.read_text().replace("ds,y", "ds,yhat", 1))
        out = tmp_path / "out"
        out.mkdir()
        commands = [
            ["fit", "--input", data, "--config", config, "--output", out / "model.json"],
            ["predict", "--input", out / "model.json", "--periods", "3",
             "--output", out / "forecast.csv"],
            ["cv", "--input", data, "--config", config, "--initial-days", "200",
             "--period-days", "60", "--horizon-days", "30", "--output", out / "folds.csv"],
            ["compare", "--input", data, "--config", config, "--cutoff",
             format_epoch_day(int(days[280])), "--output", out / "compare.json"],
            ["evaluate", "--input", data, pred, "--output", out / "evaluate.json"],
            ["dm", "--input", errors, errors, "--output", out / "dm.json"],
        ]
        old = os.umask(0o027)
        try:
            assert [main([str(arg) for arg in argv]) for argv in commands] == [0] * 6
        finally:
            os.umask(old)
        written = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
        assert sorted(written) == sorted(
            ["model.json", "forecast.csv", "folds.csv", "folds.csv.metrics.json",
             "compare.json", "compare.json.manifest.json", "evaluate.json", "dm.json"]
        )
        assert set(written.values()) == {0o640}


class TestClosedStdout:
    @pytest.mark.parametrize("command", ["dm", "fit"])
    def test_a_gone_reader_is_one_error_line_and_exit_1(self, tmp_path, rng, command):
        data = tmp_path / "data.csv"
        config = tmp_path / "config.json"
        model = tmp_path / "model.json"
        if command == "dm":
            data.write_text("e\n1.0\n2.0\n0.5\n")
            argv = ["dm", "--input", str(data), str(data)]
        else:
            synthetic_csv(data, rng)
            small_config(config)
            argv = ["fit", "--input", str(data), "--config", str(config), "--output", str(model)]
        # stdout block-buffered: the print reaches the pipe only when flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "addcast", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [
            {"error": "BrokenPipeError", "message": "[Errno 32] Broken pipe"}
        ]
        if command == "fit":
            # the model document, written before the print, is complete
            written = model.read_bytes()
            assert main(argv) == 0
            assert model.read_bytes() == written


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

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    @pytest.mark.parametrize("threads_env, threads", [(None, 1), ("2", 2)])
    def test_entry_runs_blas_on_one_thread_unless_the_variable_is_set(
        self, tmp_path, threads_env, threads
    ):
        if threads > (os.cpu_count() or 1):
            pytest.skip(f"needs {threads} cores")
        errors = tmp_path / "e.csv"
        errors.write_text("e\n1.0\n2.0\n0.5\n")
        script = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from worker import blas_threads\n"
            "from addcast.__main__ import main\n"
            "assert main(['dm', '--input', sys.argv[2], sys.argv[2]]) == 0\n"
            "print(json.dumps(blas_threads()))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads_env is not None:
            env["OPENBLAS_NUM_THREADS"] = threads_env
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(perfbench), str(errors)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        blas = json.loads(proc.stdout.splitlines()[-1])
        if blas["threads"] is None:
            pytest.skip("no OpenBLAS thread-count getter found")
        assert blas["threads"] == threads

    def test_entry_leaves_the_environment_alone_once_numpy_is_loaded(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        errors = tmp_path / "e.csv"
        errors.write_text("e\n1.0\n2.0\n0.5\n")
        before = dict(os.environ), gc.isenabled(), gc.get_freeze_count()
        assert "numpy" in sys.modules
        assert entry_main(["dm", "--input", str(errors), str(errors)]) == 0
        assert (dict(os.environ), gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("enabled", [True, False])
    def test_cold_entry_runs_no_collection_and_restores_the_collector(self, tmp_path, enabled):
        errors = tmp_path / "e.csv"
        errors.write_text("e\n1.0\n2.0\n0.5\n")
        script = (
            "import gc, json, sys\n"
            "from addcast.__main__ import main\n"
            "if sys.argv[2] == 'False':\n"
            "    gc.disable()\n"
            "runs = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and runs.append(info))\n"
            "assert main(['dm', '--input', sys.argv[1], sys.argv[1]]) == 0\n"
            "print(json.dumps([len(runs), gc.isenabled(), gc.get_freeze_count() > 0]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(errors), str(enabled)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # the heap the command built is frozen, so exit collections skip it
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, enabled, True]

    def test_console_script_runs_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"addcast": "addcast.__main__:main"}

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
