"""Output checks for every benchmark op.

Each check returns a list of problems; an empty list means the op's output is
correct. Accuracy is judged against the noise sd the generator used: a
holdout RMSE above RMSE_LIMIT noise sd fails the op.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date
from pathlib import Path

from gen import COMPARE_HOLDOUT, LINEAR_DAYS, PREDICT_PERIODS

RMSE_LIMIT = 3.0
COMPARE_MODELS = 4
COMPARE_DM_ROWS = COMPARE_MODELS * (COMPARE_MODELS - 1) // 2


def _day(text: str) -> int:
    return date.fromisoformat(text).toordinal()


def _read_series(path: Path) -> dict[int, float]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {_day(row["ds"]): float(row["y"]) for row in csv.DictReader(fh)}


def _rmse(pairs) -> float:
    pairs = list(pairs)
    return math.sqrt(sum((a - b) ** 2 for a, b in pairs) / len(pairs))


def expected_cutoffs(first: int, last: int, initial: int, period: int, horizon: int):
    """The cutoffs rolling-origin CV must use, ascending."""
    cutoffs = []
    c = last - horizon
    while c >= first + initial:
        cutoffs.append(c)
        c -= period
    return cutoffs[::-1]


def check_cv(series: Path, folds: Path, flags: dict, sigma: float) -> list[str]:
    truth = _read_series(series)
    cutoffs = expected_cutoffs(
        min(truth), max(truth), flags["initial"], flags["period"], flags["horizon"]
    )
    problems = []
    if len(cutoffs) != flags["folds"]:
        problems.append(f"inputs give {len(cutoffs)} folds, expected {flags['folds']}")
    with open(folds, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = ["cutoff", "ds", "y", "yhat", "yhat_lower_95", "yhat_upper_95"]
        if reader.fieldnames != header:
            return [f"folds header {reader.fieldnames}"]
        rows = list(reader)
    per_cutoff: dict[int, int] = {}
    pairs = []
    for row in rows:
        cutoff, ds = _day(row["cutoff"]), _day(row["ds"])
        per_cutoff[cutoff] = per_cutoff.get(cutoff, 0) + 1
        if not cutoff < ds <= cutoff + flags["horizon"]:
            problems.append(f"ds {row['ds']} outside fold {row['cutoff']}")
        if float(row["yhat_lower_95"]) > float(row["yhat_upper_95"]):
            problems.append(f"inverted bounds at {row['ds']}")
        if float(row["y"]) != truth.get(ds):
            problems.append(f"y at {row['ds']} differs from the input")
        pairs.append((float(row["y"]), float(row["yhat"])))
    expected = {c: flags["horizon"] for c in cutoffs}
    if per_cutoff != expected:
        problems.append(f"rows per fold {sorted(per_cutoff.values())}, expected {flags['horizon']} x {len(cutoffs)}")
    if pairs and _rmse(pairs) > RMSE_LIMIT * sigma:
        problems.append(f"holdout RMSE {_rmse(pairs):.3f} > {RMSE_LIMIT} x noise sd {sigma:.3f}")
    metrics = json.loads(Path(str(folds) + ".metrics.json").read_text(encoding="utf-8"))
    if metrics.get("n_folds") != len(cutoffs) or len(metrics.get("metrics", {})) != flags["horizon"]:
        problems.append("metrics JSON disagrees with the folds")
    return problems


def check_fit(stdout: str, model: Path, sigma: float) -> list[str]:
    report = json.loads(stdout)
    document = json.loads(model.read_text(encoding="utf-8"))
    problems = []
    if report["n_obs"] != LINEAR_DAYS or "parameters" not in document:
        problems.append("fit report or model document incomplete")
    if report["in_sample"]["rmse"] > RMSE_LIMIT * sigma:
        problems.append(f"in-sample RMSE {report['in_sample']['rmse']:.3f} > {RMSE_LIMIT} x noise sd")
    return problems


def check_predict(forecast: Path) -> list[str]:
    with open(forecast, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != LINEAR_DAYS + PREDICT_PERIODS:
        problems.append(f"{len(rows)} forecast rows, expected {LINEAR_DAYS + PREDICT_PERIODS}")
    days = [_day(row["ds"]) for row in rows]
    if any(b - a != 1 for a, b in zip(days, days[1:])):
        problems.append("forecast days are not consecutive")
    for row in rows:
        for pct in (80, 95):
            if float(row[f"yhat_lower_{pct}"]) > float(row[f"yhat_upper_{pct}"]):
                problems.append(f"inverted {pct}% bounds at {row['ds']}")
                break
    return problems


def check_compare(report: Path, sigma: float) -> list[str]:
    data = json.loads(report.read_text(encoding="utf-8"))
    manifest = Path(str(report) + ".manifest.json")
    problems = []
    if len(data["models"]) != COMPARE_MODELS:
        problems.append(f"{len(data['models'])} models, expected {COMPARE_MODELS}")
    if len(data["dm_tests"]) != COMPARE_DM_ROWS:
        problems.append(f"{len(data['dm_tests'])} DM rows, expected {COMPARE_DM_ROWS}")
    if data["n_test_points"] != COMPARE_HOLDOUT:
        problems.append(f"{data['n_test_points']} test points, expected {COMPARE_HOLDOUT}")
    if data["models"]["additive"]["rmse"] > RMSE_LIMIT * sigma:
        problems.append(f"additive holdout RMSE > {RMSE_LIMIT} x noise sd")
    if not manifest.is_file() or "dataset_digest" not in json.loads(manifest.read_text()):
        problems.append("no run manifest")
    return problems
