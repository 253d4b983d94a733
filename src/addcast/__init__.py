"""addcast: additive time-series forecasting with a reproducibility-oriented
evaluation harness.

A series is decomposed into piecewise trend, harmonic seasonal blocks,
holiday effects, and external regressors; parameters are estimated by
penalized maximum a posteriori, and prediction intervals come from seeded
Monte-Carlo simulation. The evaluation side provides rolling-origin
cross-validation, accuracy metrics, reference baselines, and the
Diebold-Mariano comparison test.
"""

__version__ = "0.1.0"

from .baselines import (
    LinearLagRegressor,
    build_lag_features,
    fit_linear_lag_regressor,
    naive_forecast,
    seasonal_naive,
    walk_forward_forecast,
)
from .config import (
    HolidaySpec,
    ModelConfig,
    RegressorSpec,
    SeasonalitySpec,
    TrendSpec,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .errors import AddcastError
from .estimator import FittedModel, estimate_sigma, fit, map_gradient, map_objective
from .evaluation import (
    CvFold,
    DmResult,
    MetricReport,
    coverage,
    dm_test,
    enumerate_cutoffs,
    evaluate_forecast,
    mae,
    mape,
    performance_by_horizon,
    rmse,
    rolling_cv,
    write_cv_folds_csv,
)
from .features import (
    DesignMatrix,
    build_design,
    changepoint_basis,
    fourier_features,
    gamma_from_delta,
    holiday_features,
    place_changepoints,
)
from .forecast import (
    Forecast,
    FutureGrid,
    forecast_with_intervals,
    make_future_grid,
    predict,
    simulate_intervals,
    write_forecast_csv,
)
from .persistence import (
    config_digest,
    dataset_digest,
    load_model,
    make_manifest,
    model_from_document,
    model_to_document,
    save_model,
    write_manifest,
)
from .timeseries import (
    TimeSeries,
    chronological_split,
    filter_weekdays,
    forward_fill,
    load_csv,
    log_transform,
)
