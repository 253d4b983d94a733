"""Command-line surface: fit, predict, cross-validate, evaluate, compare and
DM-test, all deterministic given (inputs, flags, seed).

Exit codes: 0 success, 2 usage error, 1 any domain error (with a
machine-readable JSON line on stderr).
"""

from __future__ import annotations

import argparse
import functools
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
from .config import DEFAULT_SEED, ModelConfig, config_from_dict, load_config, read_json
from .errors import AddcastError, DomainError, EmptyInput, LengthMismatch, ParseError, SchemaError
from .estimator import fit
from .evaluation import (
    dm_test,
    evaluate_forecast,
    performance_by_horizon,
    require_fold_export_level,
    rolling_cv,
    write_cv_folds_csv,
)
from .forecast import (
    forecast_with_intervals,
    make_future_grid,
    predict,
    shared_future_noise,
    write_forecast_csv,
)
from .persistence import (  # noqa: F401 -- perfbench/spans.py wraps addcast.cli.dataset_digest
    dataset_digest,
    load_model,
    make_manifest,
    save_model,
    write_manifest,
)
from .timeseries import (
    TimeSeries,
    chronological_split,
    csv_field,
    csv_reader,
    filter_weekdays,
    format_epoch_day,
    forward_fill,
    load_csv,
    log_transform,
    parse_iso_date,
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
    if getattr(args, "weekdays_only", False):
        ts = filter_weekdays(ts)
    if getattr(args, "forward_fill", False):
        ts = forward_fill(ts)
    if getattr(args, "log_offset", None) is not None:
        ts = log_transform(ts, args.log_offset)
    return ts


def _effective_config(path, seed) -> ModelConfig:
    config = load_config(path)
    if seed is not None:
        config = config.with_seed(seed)
    return config


def _dump_json(data, path=None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def _read_column(path, column: str) -> np.ndarray:
    with csv_reader(path, (column,)) as (columns, rows):
        index = columns[column]
        out = []
        for lineno, row in enumerate(rows, start=2):
            raw = csv_field(row, index)
            try:
                out.append(float(raw))
            except (TypeError, ValueError):
                raise ParseError(
                    f"{path}: row {lineno}: invalid number {raw!r}"
                ) from None
    if not out:
        raise EmptyInput(f"{path}: no data rows")
    return np.array(out)


def _read_forecast_table(path) -> dict[str, dict[int, float]]:
    """Forecast CSV as {column: {epoch_day: value}} for ds-aligned joins."""
    with csv_reader(path, ("ds",)) as (columns, rows):
        date_index = columns["ds"]
        stores = {c: (i, {}) for c, i in columns.items() if c != "ds"}
        for lineno, row in enumerate(rows, start=2):
            raw_date = csv_field(row, date_index)
            if raw_date is None:
                raise ParseError(f"{path}: row {lineno}: missing date field")
            try:
                day = parse_iso_date(raw_date)
            except ParseError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from None
            for index, store in stores.values():
                raw = csv_field(row, index)
                try:
                    store[day] = float(raw)
                except (TypeError, ValueError):
                    raise ParseError(
                        f"{path}: row {lineno}: invalid number {raw!r}"
                    ) from None
    return {c: store for c, (_, store) in stores.items()}


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
                "in_sample": report.to_dict(),
            }
        )
    )
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.input[0])
    seed = args.seed if args.seed is not None else model.config.seed
    extra = None
    if len(args.input) > 1:
        extra = _read_forecast_table(args.input[1])
    grid = make_future_grid(model, args.periods, extra_regressors=extra)
    fc = forecast_with_intervals(model, grid, seed=seed)
    write_forecast_csv(fc, model, args.output)
    return 0


def cmd_cv(args) -> int:
    config = _effective_config(args.config, args.seed)
    ts = _preprocess(load_csv(args.input[0]), args)
    require_fold_export_level(config.interval_levels)  # before any fold is fit
    folds = rolling_cv(config, ts, args.initial_days, args.period_days, args.horizon_days)
    write_cv_folds_csv(folds, args.output)
    by_horizon = performance_by_horizon(folds)
    metrics = {str(day): report.to_dict() for day, report in by_horizon.items()}
    metrics_path = str(args.output) + ".metrics.json"
    print(_dump_json({"n_folds": len(folds), "metrics": metrics}, metrics_path))
    return 0


def cmd_evaluate(args) -> int:
    truth = load_csv(args.input[0])
    table = _read_forecast_table(args.input[1])
    if "yhat" not in table:
        raise ParseError(f"{args.input[1]}: missing 'yhat' column")
    pred_days = set(table["yhat"])
    truth_days = set(int(d) for d in truth.timestamps)
    if truth_days != pred_days:
        only_truth = sorted(truth_days - pred_days)[:5]
        only_pred = sorted(pred_days - truth_days)[:5]
        raise LengthMismatch(
            "date sets differ; only in truth: "
            f"{[format_epoch_day(d) for d in only_truth]}, only in prediction: "
            f"{[format_epoch_day(d) for d in only_pred]}"
        )
    days = [int(d) for d in truth.timestamps]
    yhat = np.array([table["yhat"][d] for d in days])
    lower = upper = None
    if "yhat_lower_95" in table and "yhat_upper_95" in table:
        lower = np.array([table["yhat_lower_95"][d] for d in days])
        upper = np.array([table["yhat_upper_95"][d] for d in days])
    name = Path(args.input[1]).stem
    report = evaluate_forecast(name, truth.values, yhat, lower, upper)
    print(_dump_json({name: report.to_dict()}, args.output))
    return 0


def cmd_dm(args) -> int:
    e1 = _read_column(args.input[0], "e")
    e2 = _read_column(args.input[1], "e")
    result = dm_test(e1, e2, loss=args.loss, h=args.h)
    print(
        _dump_json(
            {
                "statistic": result.statistic,
                "p_value": result.p_value,
                "mean_loss_diff": result.mean_loss_diff,
                "interpretation": result.interpretation,
            },
            args.output,
        )
    )
    return 0


def _load_candidate(path):
    """One compare entry as (name, ModelConfig or baseline dict)."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    name = str(data.get("name") or Path(path).stem)
    if "baseline" not in data:
        return name, config_from_dict(data)
    if data["baseline"] not in ("naive", "seasonal_naive", "lag_linear"):
        raise SchemaError(f"{path}: unknown baseline {data['baseline']!r}")
    return name, data


def _compare_seed(seed, configs) -> int:
    """The seed a compare run records: ``--seed`` when given, else the model
    candidates' shared seed, else DEFAULT_SEED when all are baselines. A
    negative ``--seed`` is a DomainError."""
    if seed is not None:
        seed = int(seed)
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {seed}")
        return seed
    seeds = sorted({c.seed for c in configs if isinstance(c, ModelConfig)})
    if len(seeds) > 1:
        raise DomainError(f"model configs have different seeds {seeds}; pass --seed")
    return seeds[0] if seeds else DEFAULT_SEED


def _run_candidate(spec, train: TimeSeries, test: TimeSeries, seed):
    """Forecast ``test`` from ``train``: ({day: prediction}, bounds95, n_skipped)."""
    test_days = [int(d) for d in test.timestamps]

    if isinstance(spec, dict):
        kind = spec["baseline"]
        if kind == "lag_linear":
            regressor = fit_linear_lag_regressor(train)
            result = walk_forward_forecast(regressor, train, test.timestamps)
            return (
                dict(zip([int(d) for d in result.dates], result.predictions)),
                None,
                result.n_skipped,
            )
        if kind == "naive":
            preds = naive_forecast(train.values, len(test))
        else:
            preds = seasonal_naive(train.values, len(test), int(spec.get("period", 7)))
        return dict(zip(test_days, preds)), None, 0

    config = spec if seed is None else spec.with_seed(seed)
    model = fit(train, config)
    periods = int(test.timestamps[-1]) - model.last_day
    grid = make_future_grid(model, periods)
    fc = forecast_with_intervals(model, grid, history=False)
    idx = np.searchsorted(fc.timestamps, test.timestamps)
    bounds95 = None
    if 0.95 in fc.bounds:
        lo, hi = fc.bounds[0.95]
        bounds95 = (lo[idx], hi[idx])
    return dict(zip(test_days, fc.yhat[idx])), bounds95, 0


@shared_future_noise()
def cmd_compare(args) -> int:
    ts = _preprocess(load_csv(args.input[0]), args)
    cutoff = parse_iso_date(args.cutoff)
    split = chronological_split(ts, cutoff)

    specs = [_load_candidate(path) for path in args.config]
    configs = [spec for _, spec in specs]
    seed = _compare_seed(args.seed, configs)
    candidates = [
        (name, *_run_candidate(spec, split.train, split.test, args.seed))
        for name, spec in specs
    ]

    common = set(int(d) for d in split.test.timestamps)
    for _, preds, _, _ in candidates:
        common &= set(preds)
    if not common:
        raise EmptyInput("no common predicted dates across models")
    days = sorted(common)
    day_index = {int(d): i for i, d in enumerate(split.test.timestamps)}
    sel = [day_index[d] for d in days]
    y_true = split.test.values[sel]

    models = {}
    errors = {}
    order = []
    for name, preds, bounds95, n_skipped in candidates:
        yhat = np.array([preds[d] for d in days])
        lower = upper = None
        if bounds95 is not None:
            lower = bounds95[0][sel]
            upper = bounds95[1][sel]
        report = evaluate_forecast(name, y_true, yhat, lower, upper)
        entry = report.to_dict()
        entry["n_predicted"] = len(preds)
        if n_skipped:
            entry["walk_forward_skipped"] = n_skipped
        models[name] = entry
        errors[name] = y_true - yhat
        order.append(name)

    dm_rows = []
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            result = dm_test(errors[order[i]], errors[order[j]], loss=args.loss, h=args.h)
            dm_rows.append(
                {
                    "model_a": order[i],
                    "model_b": order[j],
                    "statistic": result.statistic,
                    "p_value": result.p_value,
                    "mean_loss_diff": result.mean_loss_diff,
                    "interpretation": result.interpretation,
                }
            )

    payload = {
        "cutoff": args.cutoff,
        "n_test_points": len(days),
        "models": models,
        "dm_tests": dm_rows,
    }
    print(_dump_json(payload, args.output))

    manifest = make_manifest(seed, configs, ts, models)
    write_manifest(manifest, str(args.output) + ".manifest.json")
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
        return args.func(args)
    except (AddcastError, OSError, json.JSONDecodeError) as exc:
        line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
