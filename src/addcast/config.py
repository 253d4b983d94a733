"""Declarative model configuration: trend, seasonal blocks, holidays,
regressors, priors, and interval settings.

A ModelConfig fully determines a model up to the data it is fit on, and has a
canonical dict form used for JSON config files and content digests.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from datetime import date

from .errors import DomainError, SchemaError
from .timeseries import MAX_EPOCH_DAY, format_epoch_day, open_text, parse_iso_date

DEFAULT_SEED = 42
# Days from 0001-01-01 to 9999-12-31. A wider holiday window covers no more
# representable dates, and the bound keeps t +- window inside int64.
MAX_HOLIDAY_WINDOW = date.max.toordinal() - date.min.toordinal()
# The largest fourier_order and interval_samples. A grid or series holds at
# most ~3.7e6 < 2**22 days, so a float64 matrix of one row per day and up to
# 2 * MAX_COUNT columns stays below numpy's 2**63-byte limit: a count within
# the bound that memory cannot hold fails as an allocation (MemoryError),
# never as an array numpy cannot describe.
MAX_COUNT = 2**32


@dataclass(frozen=True)
class TrendSpec:
    """Growth-curve settings: mode, changepoint placement, and flexibility.

    ``changepoint_prior_scale`` is the Laplace scale on per-changepoint rate
    adjustments; smaller values give a stiffer trend. ``capacity`` is the
    saturation ceiling, required iff growth is logistic.
    """

    growth: str = "linear"
    n_changepoints: int = 25
    changepoint_range: float = 0.8
    changepoint_prior_scale: float = 0.05
    capacity: float | None = None

    def __post_init__(self):
        if self.growth not in ("linear", "logistic"):
            raise DomainError(f"unknown growth mode {self.growth!r}")
        if self.n_changepoints < 0:
            raise DomainError("n_changepoints must be >= 0")
        if not (0 < self.changepoint_range <= 1):
            raise DomainError("changepoint_range must be in (0, 1]")
        _check_prior_scale("", self.changepoint_prior_scale, "changepoint_prior_scale")
        if self.growth == "logistic":
            if self.capacity is None:
                raise DomainError("logistic growth requires a capacity")
            if not 0 < self.capacity < math.inf:
                raise DomainError("capacity must be positive and finite")
        elif self.capacity is not None:
            raise DomainError("capacity is only meaningful for logistic growth")


def _check_prior_scale(owner: str, scale: float, name: str = "prior_scale") -> None:
    """A scale must be finite, and so must 1 / scale**2: a positive scale
    whose square underflows to 0, or whose inverse square overflows, is
    rejected. That is the precision of a coefficient's Gaussian prior. The
    changepoint prior's Laplace penalty has curvature up to
    1 / (softabs(0) * scale) = 1e5 / scale in the solver's Hessian, which
    overflows below a scale of ~5.6e-304; the same bound keeps it far from
    that."""
    if not 0 < scale < math.inf:
        raise DomainError(f"{owner}{name} must be positive and finite")
    square = scale * scale
    if square == 0.0 or math.isinf(1.0 / square):
        raise DomainError(f"{owner}{name} {scale!r} is too small: 1 / {name}**2 overflows")


@dataclass(frozen=True)
class SeasonalitySpec:
    """One periodic block: harmonic-pair count, prior scale, and mode."""

    name: str
    period: float
    fourier_order: int
    prior_scale: float = 10.0
    mode: str = "additive"

    def __post_init__(self):
        if not 0 < self.period < math.inf:
            raise DomainError(f"seasonality {self.name!r}: period must be positive and finite")
        if not 1 <= self.fourier_order <= MAX_COUNT:
            raise DomainError(
                f"seasonality {self.name!r}: fourier_order must be in [1, {MAX_COUNT}]"
            )
        # The largest harmonic angle, computed in features.fourier_features'
        # order: every angle at a representable day is then finite.
        if math.isinf(2.0 * math.pi / self.period * MAX_EPOCH_DAY * self.fourier_order):
            raise DomainError(
                f"seasonality {self.name!r}: period {self.period!r} is too small for"
                f" fourier_order {self.fourier_order}: the harmonic angles overflow"
            )
        _check_prior_scale(f"seasonality {self.name!r}: ", self.prior_scale)
        if self.mode not in ("additive", "multiplicative"):
            raise DomainError(f"seasonality {self.name!r}: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class HolidaySpec:
    """Named recurring event: base dates plus a symmetric-count window.

    ``lower_window``/``upper_window`` are nonnegative counts of days before /
    after each base date over which the effect also applies, at most
    MAX_HOLIDAY_WINDOW.
    """

    name: str
    dates: frozenset[int]
    lower_window: int = 0
    upper_window: int = 0
    prior_scale: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "dates", frozenset(int(d) for d in self.dates))
        if not self.dates:
            raise DomainError(f"holiday {self.name!r}: needs at least one date")
        if self.lower_window < 0 or self.upper_window < 0:
            raise DomainError(
                f"holiday {self.name!r}: windows are day counts and must be >= 0"
            )
        if max(self.lower_window, self.upper_window) > MAX_HOLIDAY_WINDOW:
            raise DomainError(
                f"holiday {self.name!r}: windows must be <= {MAX_HOLIDAY_WINDOW} days,"
                " the span of representable dates"
            )
        _check_prior_scale(f"holiday {self.name!r}: ", self.prior_scale)


@dataclass(frozen=True)
class RegressorSpec:
    """External per-timestamp covariate; a value must exist for every
    timestamp the model is asked to fit or predict."""

    name: str
    prior_scale: float
    values: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_prior_scale(f"regressor {self.name!r}: ", self.prior_scale)
        values = {int(k): float(v) for k, v in self.values.items()}
        if not all(map(math.isfinite, values.values())):
            raise DomainError(f"regressor {self.name!r}: values must be finite")
        object.__setattr__(self, "values", values)


def default_seasonalities() -> tuple[SeasonalitySpec, ...]:
    """Yearly (order 10) plus weekly (order 4) blocks."""
    return (
        SeasonalitySpec(name="yearly", period=365.25, fourier_order=10),
        SeasonalitySpec(name="weekly", period=7.0, fourier_order=4),
    )


@dataclass(frozen=True)
class ModelConfig:
    """Full declarative model specification."""

    trend: TrendSpec = field(default_factory=TrendSpec)
    seasonalities: tuple[SeasonalitySpec, ...] = field(
        default_factory=default_seasonalities
    )
    holidays: tuple[HolidaySpec, ...] = ()
    regressors: tuple[RegressorSpec, ...] = ()
    interval_levels: tuple[float, ...] = (0.80, 0.95)
    interval_samples: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "seasonalities", tuple(self.seasonalities))
        object.__setattr__(self, "holidays", tuple(self.holidays))
        object.__setattr__(self, "regressors", tuple(self.regressors))
        levels = tuple(float(x) for x in self.interval_levels)
        if any(not (0 < x < 1) for x in levels):
            raise DomainError("interval levels must lie in (0, 1)")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DomainError("interval levels must be strictly increasing")
        object.__setattr__(self, "interval_levels", levels)
        if not 100 <= self.interval_samples <= MAX_COUNT:
            raise DomainError(f"interval_samples must be in [100, {MAX_COUNT}]")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        names = [s.name for s in self.seasonalities]
        if len(set(names)) != len(names):
            raise DomainError("seasonality names must be unique")
        reserved = {"trend", "holidays", "regressors"}
        if reserved & set(names):
            raise DomainError(f"seasonality names {reserved} are reserved")
        hnames = [h.name for h in self.holidays]
        if len(set(hnames)) != len(hnames):
            raise DomainError("holiday names must be unique")
        rnames = [r.name for r in self.regressors]
        if len(set(rnames)) != len(rnames):
            raise DomainError("regressor names must be unique")

    def with_seed(self, seed: int) -> "ModelConfig":
        return replace(self, seed=int(seed))


# --- canonical dict form ----------------------------------------------------
#
# The spec dataclasses are the schema of the dict form: a config's keys are
# their fields, and a field without a default is a required key.

def config_to_dict(config: ModelConfig) -> dict:
    """Canonical plain-dict form, one walk of the spec values: a dataclass
    becomes its set (not None) fields, holiday dates sorted ISO dates,
    regressor values ISO-date keys, a tuple a list."""
    if is_dataclass(config):
        items = ((f.name, getattr(config, f.name)) for f in fields(config))
        return {key: config_to_dict(value) for key, value in items if value is not None}
    if isinstance(config, frozenset):
        return [format_epoch_day(d) for d in sorted(config)]
    if isinstance(config, dict):
        return {format_epoch_day(k): config[k] for k in sorted(config)}
    if isinstance(config, tuple):
        return [config_to_dict(v) for v in config]
    return config


def _integer(value, name: str) -> int:
    """``value`` if it is a JSON integer; a bool, a float (also 7.0), a
    string or null is a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def _object(value, name: str) -> dict:
    """``value`` if it is a JSON object; anything else is a SchemaError."""
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be an object, got {value!r}")
    return value


def _spec(cls, data, name: str):
    """The ``cls`` that the JSON object ``data``, called ``name`` in
    messages, describes: its fields in order, each read by the reader of
    its annotation or left to its default. A missing required key is a
    KeyError; other keys are ignored."""
    data = _object(data, name)
    values = {}
    for f in fields(cls):
        if f.name in data:
            values[f.name] = _READERS[f.type](data[f.name], f"{name} {f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**values)


def _entries(cls, kind: str):
    return lambda value, name: tuple(_spec(cls, entry, kind) for entry in value)


# The reader of each field annotation of the spec dataclasses, as
# ``reader(value, name)``; ``name`` is the key's name in messages, and a
# spec object is named as its kind.
_READERS = {
    "str": lambda value, name: str(value),
    "float": lambda value, name: float(value),
    "float | None": lambda value, name: float(value),
    "int": _integer,
    "frozenset[int]": lambda value, name: frozenset(map(parse_iso_date, value)),
    "dict[int, float]": lambda value, name: {
        parse_iso_date(k): float(v) for k, v in _object(value, name).items()
    },
    "tuple[float, ...]": lambda value, name: tuple(value),
    "TrendSpec": lambda value, name: _spec(TrendSpec, value, "trend"),
    "tuple[SeasonalitySpec, ...]": _entries(SeasonalitySpec, "seasonality"),
    "tuple[HolidaySpec, ...]": _entries(HolidaySpec, "holiday"),
    "tuple[RegressorSpec, ...]": _entries(RegressorSpec, "regressor"),
}


def config_from_dict(data: dict) -> ModelConfig:
    try:
        return _spec(ModelConfig, data, "model config")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed model config: {exc}") from None


def read_json(path):
    """The JSON value in a UTF-8 file; invalid JSON, or JSON nested deeper
    than the parser's recursion limit, is a SchemaError."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError(f"{path}: invalid JSON: nested too deeply") from None


def load_config(path) -> ModelConfig:
    return config_from_dict(read_json(path))
