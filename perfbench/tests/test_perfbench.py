"""Tests of the benchmark itself. Run from the repository root with
``python -m pytest perfbench/tests -q``; they take about two minutes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace and workload.startswith("cv_"):
        # Every cv op has 4 folds with one fit each, whichever worker ran it.
        assert result["metrics"]["evaluation.folds"]["value"] == 4
        assert result["metrics"]["estimator.fit.calls"]["value"] == 4


def _corrupt(path: Path) -> None:
    lines = path.read_text().splitlines()
    lines[10] = lines[10].split(",")[0] + ",not-a-number"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,name", [("cv_linear_2y", "series.csv"), ("cli_cold", "train.csv")])
def test_op_on_corrupted_csv_fails_without_crashing_the_run(workload, name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    items = gen.generate(workload, 5, tmp_path / "inputs")
    _corrupt(items[0] / name)
    result = worker.run_loop(workload, items, tmp_path / "out", 0.5, False, 0, 5)
    assert all(op["ok"] for op in result["warmup"])
    assert not result["ops"][0]["ok"] and result["ops"][0]["problems"] == ["exit code 1"]
    if workload == "cv_linear_2y":
        assert result["ops"][1]["ok"]
    summary = run.summarize([{**result, "setup_s": 1.0}], trace=0)
    assert summary["failed"] >= 1
    assert summary["attempted"] == len(result["ops"]) + len(result["warmup"])


def test_traced_self_times_add_up_to_op_wall_time(tmp_path, monkeypatch):
    import addcast.cli
    import addcast.forecast
    import numpy

    originals = (addcast.cli.main, addcast.forecast.simulate_intervals, numpy.quantile)
    monkeypatch.chdir(ROOT)
    items = gen.generate("cv_linear_2y", 7, tmp_path / "inputs")
    result = worker.run_loop("cv_linear_2y", items, tmp_path / "out", 1.0, True, 0, 5)
    assert (addcast.cli.main, addcast.forecast.simulate_intervals, numpy.quantile) == originals

    traced = [(i, op) for i, op in enumerate(result["ops"]) if op["traced"]]
    assert traced and all(op["ok"] for _, op in traced)
    for index, op in traced:
        op_spans = [s for s in result["spans"] if s["op"] == index]
        roots = [s for s in op_spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["cli.main"]
        root_s = (roots[0]["end"] - roots[0]["start"]) / 1e9
        assert sum(spans.self_times(op_spans).values()) == pytest.approx(root_s, rel=1e-9)
        # What the spans miss is the wrapper install and restore around main.
        assert 0.0 <= op["latency_s"] - root_s < 0.01 + 0.02 * op["latency_s"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
