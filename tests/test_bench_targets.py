"""The benchmark's tracer (perfbench/spans.py) wraps functions by the names
addcast modules bind. A name that no longer resolves, or that the commands
no longer call, leaves its per-layer metrics reading 0 without any error.
These tests run each command once under the tracer and check which spans
it records; they read perfbench/ without changing it."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from addcast import cli
from addcast.timeseries import format_epoch_day

from conftest import daily_days

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Span names no command records. The bounds are read off one sort of the
# sample rows rather than numpy.quantile, so the forecast.quantile_* metrics
# read 0 on every workload.
NEVER_RECORDED = {"forecast.quantile"}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable(spans):
    assert spans.TARGETS
    missing = [
        (module, attr)
        for module, attr, _name, _counters in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_commands_record_every_traced_span_but_the_known_ones(spans, tmp_path, rng):
    n = 500
    days = daily_days("2021-01-01", n)
    y = 3.0 + 0.01 * np.arange(n) + np.sin(2 * np.pi * days / 7.0) + rng.normal(0, 0.1, n)
    series = tmp_path / "series.csv"
    series.write_text(
        "ds,y\n" + "".join(f"{format_epoch_day(int(d))},{float(v)!r}\n" for d, v in zip(days, y))
    )
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"interval_samples": 100}))
    naive = tmp_path / "naive.json"
    naive.write_text(json.dumps({"baseline": "naive"}))
    lag = tmp_path / "lag.json"
    lag.write_text(json.dumps({"baseline": "lag_linear"}))
    fitted = tmp_path / "fitted.json"
    commands = [
        ["fit", "--input", series, "--config", config, "--output", fitted],
        ["predict", "--input", fitted, "--periods", "10", "--output", tmp_path / "fc.csv"],
        ["cv", "--input", series, "--config", config, "--initial-days", "300",
         "--period-days", "60", "--horizon-days", "30", "--output", tmp_path / "folds.csv"],
        ["compare", "--input", series, "--config", config, naive, lag,
         "--cutoff", format_epoch_day(int(days[-31])), "--output", tmp_path / "cmp.json"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.main([str(arg) for arg in argv]) for argv in commands]
    finally:
        tracer.restore()
    assert codes == [0, 0, 0, 0]
    traced = {name for _module, _attr, name, _counters in spans.TARGETS}
    recorded = {span["name"] for span in tracer.spans}
    assert traced - recorded == NEVER_RECORDED
