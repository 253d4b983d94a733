"""Span tracing from outside the program, and the per-layer report.

The tracer replaces the names each addcast module binds at import (for
example ``addcast.evaluation.forecast_with_intervals``) with wrappers that
record a span per call: name, start, end, parent span and op id, plus a few
counters read from the arguments or the result. Spans stay in memory until
the run writes them out. ``restore`` puts every original function back.

A span's self time is its duration minus the part of it that its child
spans cover. Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

MIN_HISTORY = 365  # addcast.baselines.MIN_HISTORY: rows the lag fit skips


def _cells(result, *args, **kwargs):
    return {"cells": int(result.X.shape[0] * result.X.shape[1])}


def _nit_nfev(result, *args, **kwargs):
    return {"nit": int(result.nit), "nfev": int(result.nfev)}


def _sim_cells(result, model, grid, *args, **kwargs):
    return {"cells": int(model.config.interval_samples * len(grid))}


def _len_result(result, *args, **kwargs):
    return {"n": len(result)}


def _lag_rows(result, train, *args, **kwargs):
    return {"n": max(len(train) - MIN_HISTORY, 0)}


def _steps(result, regressor, train, test_dates, *args, **kwargs):
    return {"n": len(test_dates)}


def _saved_bytes(result, model, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _loaded_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, counters). Each module is patched where the
# caller looks the name up, so one function can appear under several modules.
TARGETS = [
    ("addcast.cli", "main", "cli.main", None),
    ("addcast.cli", "load_csv", "timeseries.load_csv", _len_result),
    ("addcast.cli", "load_config", "config.load", None),
    ("addcast.cli", "config_from_dict", "config.load", None),
    ("addcast.cli", "fit", "estimator.fit", None),
    ("addcast.evaluation", "fit", "estimator.fit", None),
    ("addcast.estimator", "minimize", "estimator.minimize", _nit_nfev),
    ("addcast.estimator", "build_design", "features.build_design", None),
    ("addcast.features", "design_for_grid", "features.design_for_grid", _cells),
    ("addcast.forecast", "design_for_grid", "features.design_for_grid", _cells),
    ("addcast.cli", "make_future_grid", "forecast.make_future_grid", None),
    ("addcast.evaluation", "make_future_grid", "forecast.make_future_grid", None),
    ("addcast.cli", "forecast_with_intervals", "forecast.forecast_with_intervals", None),
    ("addcast.evaluation", "forecast_with_intervals", "forecast.forecast_with_intervals", None),
    ("addcast.cli", "predict", "forecast.predict", None),
    ("addcast.forecast", "predict", "forecast.predict", None),
    ("addcast.forecast", "simulate_intervals", "forecast.simulate_intervals", _sim_cells),
    ("numpy", "quantile", "forecast.quantile", None),
    ("addcast.cli", "write_forecast_csv", "forecast.write_csv", None),
    ("addcast.cli", "rolling_cv", "evaluation.rolling_cv", _len_result),
    ("addcast.cli", "performance_by_horizon", "evaluation.by_horizon", None),
    ("addcast.cli", "write_cv_folds_csv", "evaluation.write_folds", None),
    ("addcast.cli", "evaluate_forecast", "evaluation.evaluate_forecast", None),
    ("addcast.cli", "dm_test", "evaluation.dm_test", None),
    ("addcast.cli", "naive_forecast", "baselines.naive", None),
    ("addcast.cli", "seasonal_naive", "baselines.naive", None),
    ("addcast.cli", "fit_linear_lag_regressor", "baselines.lag_fit", _lag_rows),
    ("addcast.cli", "walk_forward_forecast", "baselines.walk_forward", _steps),
    ("addcast.cli", "save_model", "persistence.save", _saved_bytes),
    ("addcast.cli", "load_model", "persistence.load", _loaded_bytes),
    ("addcast.cli", "dataset_digest", "persistence.manifest", None),
    ("addcast.cli", "write_manifest", "persistence.manifest", None),
]


class Tracer:
    """Records spans for calls into the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        # (import seconds, modules added) of each traced child process.
        self.imports: list[tuple] = []
        self.op_id = None
        self._stack: list[dict] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        import importlib

        for module_name, attr, name, counters in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counters))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1]["id"] if self._stack else None
            span = {"op": self.op_id, "id": len(self.spans), "parent": parent, "name": name}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            if counters is not None:
                span["counters"] = counters(result, *args, **kwargs)
            return result

        return wrapper


def rebase(spans: list[dict], offset: int, op) -> list[dict]:
    """Shift span ids by ``offset`` and set their op id, so spans recorded
    in another process or worker can join a list without clashing ids."""
    for span in spans:
        span["id"] += offset
        if span["parent"] is not None:
            span["parent"] += offset
        span["op"] = op(span["op"])
    return spans


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its direct children."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (span["end"] - span["start"] - covered) / 1e9
    return out


# Per-layer metric -> unit. Sums are per traced op; the import figures are
# per interpreter, sim_matrix_mb is the largest matrix of the run, and
# sim_cells_per_s and s_per_iteration are ratios of run totals.
LAYER_UNITS = {
    "forecast.simulate.self_s": "s",
    "forecast.sim_cells": "count",
    "forecast.sim_cells_per_s": "1/s",
    "forecast.quantile_calls": "count",
    "forecast.quantile_s": "s",
    "forecast.sim_matrix_mb": "MB",
    "forecast.predict.self_s": "s",
    "forecast.grid.self_s": "s",
    "forecast.write_csv.self_s": "s",
    "estimator.fit.calls": "count",
    "estimator.fit.self_s": "s",
    "estimator.iterations": "count",
    "estimator.objective_evals": "count",
    "estimator.s_per_iteration": "s",
    "features.design_builds": "count",
    "features.design_cells": "count",
    "features.self_s": "s",
    "cli.import_s": "s",
    "cli.import_modules": "count",
    "cli.self_s": "s",
    "evaluation.folds": "count",
    "evaluation.rolling_cv.self_s": "s",
    "evaluation.by_horizon.self_s": "s",
    "evaluation.write_folds.self_s": "s",
    "evaluation.dm_tests": "count",
    "baselines.lag_fit.self_s": "s",
    "baselines.lag_rows": "count",
    "baselines.walk_forward.self_s": "s",
    "baselines.walk_forward_steps": "count",
    "persistence.save.self_s": "s",
    "persistence.load.self_s": "s",
    "persistence.doc_bytes": "bytes",
    "persistence.manifest.self_s": "s",
    "timeseries.load_csv.self_s": "s",
    "timeseries.rows_parsed": "count",
    "config.load.self_s": "s",
    "trace.overhead_s": "s",
}

# Self-time metrics: the span names whose self time each one sums.
_SELF = {
    "forecast.simulate.self_s": ("forecast.simulate_intervals",),
    "forecast.quantile_s": ("forecast.quantile",),
    "forecast.predict.self_s": ("forecast.predict",),
    "forecast.grid.self_s": ("forecast.make_future_grid",),
    "forecast.write_csv.self_s": ("forecast.write_csv",),
    "estimator.fit.self_s": ("estimator.fit", "estimator.minimize"),
    "features.self_s": ("features.build_design", "features.design_for_grid"),
    "cli.self_s": ("cli.main",),
    "evaluation.rolling_cv.self_s": ("evaluation.rolling_cv",),
    "evaluation.by_horizon.self_s": ("evaluation.by_horizon",),
    "evaluation.write_folds.self_s": ("evaluation.write_folds",),
    "baselines.lag_fit.self_s": ("baselines.lag_fit",),
    "baselines.walk_forward.self_s": ("baselines.walk_forward",),
    "persistence.save.self_s": ("persistence.save",),
    "persistence.load.self_s": ("persistence.load",),
    "persistence.manifest.self_s": ("persistence.manifest",),
    "timeseries.load_csv.self_s": ("timeseries.load_csv",),
    "config.load.self_s": ("config.load",),
}

# Count metrics: (span names, counter key or None for the number of calls).
_COUNT = {
    "forecast.sim_cells": (("forecast.simulate_intervals",), "cells"),
    "forecast.quantile_calls": (("forecast.quantile",), None),
    "estimator.fit.calls": (("estimator.fit",), None),
    "estimator.iterations": (("estimator.minimize",), "nit"),
    "estimator.objective_evals": (("estimator.minimize",), "nfev"),
    "features.design_builds": (("features.design_for_grid",), None),
    "features.design_cells": (("features.design_for_grid",), "cells"),
    "evaluation.folds": (("evaluation.rolling_cv",), "n"),
    "evaluation.dm_tests": (("evaluation.dm_test",), None),
    "baselines.lag_rows": (("baselines.lag_fit",), "n"),
    "baselines.walk_forward_steps": (("baselines.walk_forward",), "n"),
    "persistence.doc_bytes": (("persistence.save", "persistence.load"), "bytes"),
    "timeseries.rows_parsed": (("timeseries.load_csv",), "n"),
}


def layer_report(spans, n_ops, import_s, import_modules, overhead_s) -> dict:
    """Per-layer metrics per traced op from the spans of ``n_ops`` ops.

    ``import_s`` and ``import_modules`` are per interpreter; the caller
    passes their median.
    """
    n_ops = max(n_ops, 1)
    own = self_times(spans)
    self_sum: dict[str, float] = {}
    counts: dict[tuple, int] = {}  # (span name, counter key); key None counts calls
    for span in spans:
        name = span["name"]
        self_sum[name] = self_sum.get(name, 0.0) + own[span["id"]]
        for key, value in [(None, 1), *span.get("counters", {}).items()]:
            counts[name, key] = counts.get((name, key), 0) + value

    def span_seconds(name):
        return sum((s["end"] - s["start"]) / 1e9 for s in spans if s["name"] == name)

    out = {}
    for metric, names in _SELF.items():
        out[metric] = sum(self_sum.get(n, 0.0) for n in names) / n_ops
    for metric, (names, key) in _COUNT.items():
        out[metric] = sum(counts.get((n, key), 0) for n in names) / n_ops
    sim_s = span_seconds("forecast.simulate_intervals")
    sim_cells = counts.get(("forecast.simulate_intervals", "cells"), 0)
    out["forecast.sim_cells_per_s"] = sim_cells / sim_s if sim_s else 0.0
    out["forecast.sim_matrix_mb"] = max(
        (s["counters"]["cells"] * 8 / 1e6 for s in spans
         if s["name"] == "forecast.simulate_intervals" and "counters" in s),
        default=0.0,
    )
    nit = counts.get(("estimator.minimize", "nit"), 0)
    out["estimator.s_per_iteration"] = span_seconds("estimator.minimize") / nit if nit else 0.0
    out["cli.import_s"] = import_s
    out["cli.import_modules"] = import_modules
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
