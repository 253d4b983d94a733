"""Command-line surface: fit, predict, cross-validate, evaluate, compare and
DM-test, all deterministic given (inputs, flags, seed).

Exit codes: 0 success, 2 usage error, 1 any domain error, an allocation
that runs out of memory or a stdout whose reader has gone (with a
machine-readable JSON line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    fit_linear_lag_regressor,
    naive_forecast,
    seasonal_naive,
    walk_forward_forecast,
)
from .config import (
    DEFAULT_SEED,
    ModelConfig,
    _integer,
    checked_seed,
    config_from_dict,
    load_config,
    read_json,
)
from .errors import AddcastError, DomainError, EmptyInput, LengthMismatch, SchemaError
from .estimator import fit
from .evaluation import (
    COVERAGE_LEVEL,
    dm_test,
    evaluate_forecast,
    holdout_forecast,
    performance_by_horizon,
    require_fold_export_level,
    rolling_cv,
    write_cv_folds_csv,
)
from .forecast import (
    bound_columns,
    forecast_with_intervals,
    make_future_grid,
    predict,
    write_forecast_csv,
)
from .persistence import (  # noqa: F401 -- perfbench/spans.py wraps addcast.cli.dataset_digest
    canonical_json_bytes,
    dataset_digest,
    load_model,
    make_manifest,
    save_model,
    write_manifest,
)
from .timeseries import (
    TimeSeries,
    chronological_split,
    filter_weekdays,
    format_epoch_day,
    forward_fill,
    load_csv,
    log_transform,
    parse_iso_date,
    published_together,
    read_columns,
    write_output,
)


def _add_preprocessing_flags(parser):
    parser.add_argument(
        "--weekdays-only", action="store_true", help="drop Saturday/Sunday rows"
    )
    parser.add_argument(
        "--forward-fill", action="store_true", help="fill missing values forward"
    )
    parser.add_argument(
        "--log-offset",
        type=float,
        default=None,
        metavar="OFFSET",
        help="apply ln(y + OFFSET) before fitting",
    )


def _preprocess(ts: TimeSeries, args) -> TimeSeries:
    # Mirrors the standard pipeline order: calendar filter, fill, transform.
    if args.weekdays_only:
        ts = filter_weekdays(ts)
    if args.forward_fill:
        ts = forward_fill(ts)
    if args.log_offset is not None:
        ts = log_transform(ts, args.log_offset)
    return ts


def _refuse_missing(ts: TimeSeries, path, what="value", hint="; pass --forward-fill to fill it"):
    """A DomainError naming the first day of ``ts`` whose value is missing."""
    if ts.has_missing:
        day = format_epoch_day(int(ts.timestamps[np.isnan(ts.values)][0]))
        raise DomainError(f"{path}: missing {what} on {day}{hint}")


def _effective_config(path, seed) -> ModelConfig:
    config = load_config(path)
    if seed is not None:
        config = config.with_seed(seed)
    return config


def _dump_json(data, path=None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        write_output(path, (text + "\n").encode("utf-8"))
    return text


def cmd_fit(args) -> int:
    config = _effective_config(args.config, args.seed)
    ts = _preprocess(load_csv(args.input[0]), args)
    model = fit(ts, config)
    fc = predict(model, make_future_grid(model, 0))
    report = evaluate_forecast("in_sample", ts.values, fc.yhat)
    save_model(model, args.output)
    print(
        _dump_json(
            {
                "model_path": str(args.output),
                "n_obs": model.n_obs,
                "train_start": format_epoch_day(model.first_day),
                "train_end": format_epoch_day(model.last_day),
                "sigma": model.sigma_rescaled,
                "in_sample": report,
            }
        )
    )
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.input[0])
    extra = None
    if len(args.input) > 1:
        names = [(spec.name,) for spec in model.config.regressors]
        days, columns = read_columns(args.input[1], (), optional=names)
        extra = {name: dict(zip(days.tolist(), col.tolist())) for name, col in columns.items()}
    grid = make_future_grid(model, args.periods, extra_regressors=extra)
    fc = forecast_with_intervals(model, grid, seed=args.seed)
    write_forecast_csv(fc, model, args.output)
    return 0


def cmd_cv(args) -> int:
    config = _effective_config(args.config, args.seed)
    ts = _preprocess(load_csv(args.input[0]), args)
    _refuse_missing(ts, args.input[0])  # before any fold is fit
    require_fold_export_level(config.interval_levels)  # before any fold is fit
    folds = rolling_cv(config, ts, args.initial_days, args.period_days, args.horizon_days)
    metrics = {str(day): report for day, report in performance_by_horizon(folds).items()}
    with published_together(args.output, f"{args.output}.metrics.json") as paths:
        folds_path, metrics_path = paths
        write_cv_folds_csv(folds, folds_path)
        text = _dump_json({"n_folds": len(folds), "metrics": metrics}, metrics_path)
    print(text)
    return 0


def cmd_evaluate(args) -> int:
    truth = load_csv(args.input[0])
    _refuse_missing(truth, args.input[0], "truth value", "")
    bounds = bound_columns(COVERAGE_LEVEL)
    days, table = read_columns(args.input[1], ("yhat",), optional=[bounds])
    if not np.array_equal(days, truth.timestamps):
        only_truth = np.setdiff1d(truth.timestamps, days)[:5].tolist()
        only_pred = np.setdiff1d(days, truth.timestamps)[:5].tolist()
        raise LengthMismatch(
            "date sets differ; only in truth: "
            f"{[format_epoch_day(d) for d in only_truth]}, only in prediction: "
            f"{[format_epoch_day(d) for d in only_pred]}"
        )
    lower, upper = (table.get(column) for column in bounds)
    name = Path(args.input[1]).stem
    report = evaluate_forecast(name, truth.values, table["yhat"], lower, upper)
    print(_dump_json({name: report}, args.output))
    return 0


def cmd_dm(args) -> int:
    errors = []
    for path in args.input:
        _, columns = read_columns(path, ("e",), date_column=None)
        if not len(columns["e"]):
            raise EmptyInput(f"{path}: no data rows")
        errors.append(columns["e"])
    result = dm_test(*errors, loss=args.loss, h=args.h)
    print(_dump_json(result, args.output))
    return 0


def _load_candidate(path):
    """One compare entry as (name, ModelConfig or baseline dict). A
    baseline dict names a known baseline, its ``period`` (default 7) is a
    JSON integer, and it holds only values the manifest can serialize."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    name = str(data.get("name") or Path(path).stem)
    if "baseline" not in data:
        return name, config_from_dict(data)
    if data["baseline"] not in ("naive", "seasonal_naive", "lag_linear"):
        raise SchemaError(f"{path}: unknown baseline {data['baseline']!r}")
    _integer(data.get("period", 7), f"{path}: period")
    try:
        canonical_json_bytes(data)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return name, data


def _compare_seed(seed, configs) -> int:
    """The seed a compare run records: ``--seed`` when given, else the model
    candidates' shared seed, else DEFAULT_SEED when all are baselines. A
    ``--seed`` is checked by ``config.checked_seed``."""
    if seed is not None:
        return checked_seed(seed)
    seeds = sorted({c.seed for c in configs if isinstance(c, ModelConfig)})
    if len(seeds) > 1:
        raise DomainError(f"model configs have different seeds {seeds}; pass --seed")
    return seeds[0] if seeds else DEFAULT_SEED


def _run_candidate(spec, train: TimeSeries, test: TimeSeries, seed):
    """Forecast every row of ``test`` from ``train``: (yhat, COVERAGE_LEVEL
    bounds or None). lag_linear fits on at least MIN_HISTORY + 1 rows, so
    its walk forward predicts every test day."""
    if isinstance(spec, dict):
        kind = spec["baseline"]
        if kind == "lag_linear":
            weights = fit_linear_lag_regressor(train)
            return walk_forward_forecast(weights, train, test.timestamps), None
        if kind == "naive":
            return naive_forecast(train.values, len(test)), None
        return seasonal_naive(train.values, len(test), spec.get("period", 7)), None

    config = spec.with_seed(seed)
    yhat, bounds = holdout_forecast(config, train, test.timestamps, int(test.timestamps[-1]))
    return yhat, bounds.get(COVERAGE_LEVEL)


def cmd_compare(args) -> int:
    ts = _preprocess(load_csv(args.input[0]), args)
    _refuse_missing(ts, args.input[0])  # before any candidate is fit
    cutoff = parse_iso_date(args.cutoff)
    train, test = chronological_split(ts, cutoff)

    specs = [_load_candidate(path) for path in args.config]
    names = [name for name, _ in specs]
    if len(set(names)) != len(names):
        raise SchemaError(f"candidate names must be unique, got {names}")
    configs = [spec for _, spec in specs]
    seed = _compare_seed(args.seed, configs)
    if args.h < 1:
        raise DomainError(f"horizon h must be >= 1, got {args.h}")
    candidates = []
    for name, spec in specs:
        try:
            candidates.append((name, *_run_candidate(spec, train, test, seed)))
        except AddcastError as exc:
            raise type(exc)(f"candidate {name!r}: {exc}") from exc

    y_true = test.values
    models = {}
    errors = []
    for name, yhat, bounds in candidates:
        report = evaluate_forecast(name, y_true, yhat, *(bounds or (None, None)))
        models[name] = {**report, "n_predicted": len(yhat)}
        errors.append((name, y_true - yhat))
    dm_rows = [
        {"model_a": a, "model_b": b, **dm_test(ea, eb, loss=args.loss, h=args.h)}
        for (a, ea), (b, eb) in itertools.combinations(errors, 2)
    ]

    payload = {
        "cutoff": args.cutoff,
        "n_test_points": len(y_true),
        "models": models,
        "dm_tests": dm_rows,
    }
    manifest = make_manifest(seed, configs, ts, models)
    with published_together(args.output, f"{args.output}.manifest.json") as paths:
        report_path, manifest_path = paths
        text = _dump_json(payload, report_path)
        write_manifest(manifest, manifest_path)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addcast",
        description="Additive time-series forecasting and evaluation harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and write its document")
    p_fit.add_argument("--input", nargs=1, required=True, help="training CSV (ds,y)")
    p_fit.add_argument("--config", required=True, help="model config JSON")
    p_fit.add_argument("--output", required=True, help="model document path")
    p_fit.add_argument("--seed", type=int, default=None)
    _add_preprocessing_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="forecast from a model document")
    p_pred.add_argument(
        "--input",
        nargs="+",
        required=True,
        help="model document [+ future-regressors CSV]",
    )
    p_pred.add_argument("--periods", type=int, default=0)
    p_pred.add_argument("--output", required=True, help="forecast CSV path")
    p_pred.add_argument("--seed", type=int, default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_cv = sub.add_parser("cv", help="rolling-origin cross-validation")
    p_cv.add_argument("--input", nargs=1, required=True)
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--initial-days", type=int, required=True)
    p_cv.add_argument("--period-days", type=int, required=True)
    p_cv.add_argument("--horizon-days", type=int, required=True)
    p_cv.add_argument("--output", required=True, help="folds CSV path")
    p_cv.add_argument("--seed", type=int, default=None)
    _add_preprocessing_flags(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_eval = sub.add_parser("evaluate", help="metrics for a forecast CSV")
    p_eval.add_argument(
        "--input", nargs=2, required=True, metavar=("TRUTH", "PRED")
    )
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_dm = sub.add_parser("dm", help="Diebold-Mariano test on two error series")
    p_dm.add_argument("--input", nargs=2, required=True, metavar=("ERRORS_A", "ERRORS_B"))
    p_dm.add_argument("--loss", choices=("squared", "absolute"), default="squared")
    p_dm.add_argument("--h", type=int, default=1)
    p_dm.add_argument("--output", default=None)
    p_dm.set_defaults(func=cmd_dm)

    p_cmp = sub.add_parser("compare", help="side-by-side models with DM tests")
    p_cmp.add_argument("--input", nargs=1, required=True)
    p_cmp.add_argument(
        "--config", nargs="+", required=True, help="model/baseline config JSONs"
    )
    p_cmp.add_argument("--cutoff", required=True, help="train/test split date")
    p_cmp.add_argument("--loss", choices=("squared", "absolute"), default="squared")
    p_cmp.add_argument("--h", type=int, default=1)
    p_cmp.add_argument("--output", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)
    _add_preprocessing_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing does not
    change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed stdout is reported here, not at exit
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except (AddcastError, OSError, MemoryError) as exc:
        # numpy's failed allocations raise a private subclass of MemoryError
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        line = json.dumps({"error": kind, "message": str(exc)})
        print(line, file=sys.stderr)
        return 1

