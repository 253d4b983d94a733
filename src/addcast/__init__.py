"""addcast: additive time-series forecasting with a reproducibility-oriented
evaluation harness.

A series is decomposed into piecewise trend, harmonic seasonal blocks,
holiday effects, and external regressors; parameters are estimated by
penalized maximum a posteriori, and prediction intervals come from seeded
Monte-Carlo simulation. The evaluation side provides rolling-origin
cross-validation, accuracy metrics, reference baselines, and the
Diebold-Mariano comparison test.

Importing the package loads neither numpy nor any submodule: a public name
(``addcast.fit``) or a submodule (``addcast.cli``) is imported on first use
(PEP 562), so the command-line entry can configure the process before numpy
loads.
"""

import importlib

__version__ = "0.1.0"

# Each public name, mapped to the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "baselines": (
            "build_lag_features", "fit_linear_lag_regressor", "naive_forecast",
            "seasonal_naive", "walk_forward_forecast",
        ),
        "config": (
            "HolidaySpec", "ModelConfig", "RegressorSpec", "SeasonalitySpec", "TrendSpec",
            "config_from_dict", "config_to_dict", "load_config",
        ),
        "errors": ("AddcastError",),
        "estimator": ("FittedModel", "estimate_sigma", "fit", "map_gradient", "map_objective"),
        "evaluation": (
            "coverage", "dm_test", "enumerate_cutoffs", "evaluate_forecast", "mae",
            "mape", "performance_by_horizon", "rmse", "rolling_cv", "write_cv_folds_csv",
        ),
        "features": (
            "DesignMatrix", "TimeScaling", "build_design", "changepoint_basis",
            "fourier_features", "gamma_from_delta", "holiday_features", "place_changepoints",
        ),
        "forecast": (
            "Forecast", "FutureGrid", "forecast_with_intervals", "make_future_grid",
            "predict", "simulate_intervals", "write_forecast_csv",
        ),
        "persistence": (
            "config_digest", "dataset_digest", "load_model", "make_manifest",
            "model_from_document", "model_to_document", "save_model", "write_manifest",
        ),
        "timeseries": (
            "TimeSeries", "chronological_split", "filter_weekdays", "forward_fill",
            "load_csv", "log_transform",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli"})

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
