"""Declarative model configuration: trend, seasonal blocks, holidays,
regressors, priors, and interval settings.

A ModelConfig fully determines a model up to the data it is fit on, and has a
canonical dict form used for JSON config files and content digests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .errors import DomainError, ParseError, SchemaError
from .timeseries import csv_field, csv_reader, format_epoch_day, open_text, parse_iso_date

DEFAULT_CHANGEPOINT_PRIOR_SCALE = 0.05
DEFAULT_SEASONALITY_PRIOR_SCALE = 10.0
DEFAULT_HOLIDAY_PRIOR_SCALE = 10.0
DEFAULT_SEED = 42


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
    changepoint_prior_scale: float = DEFAULT_CHANGEPOINT_PRIOR_SCALE
    capacity: float | None = None

    def __post_init__(self):
        if self.growth not in ("linear", "logistic"):
            raise DomainError(f"unknown growth mode {self.growth!r}")
        if self.n_changepoints < 0:
            raise DomainError("n_changepoints must be >= 0")
        if not (0 < self.changepoint_range <= 1):
            raise DomainError("changepoint_range must be in (0, 1]")
        if self.changepoint_prior_scale <= 0:
            raise DomainError("changepoint_prior_scale must be positive")
        if self.growth == "logistic":
            if self.capacity is None:
                raise DomainError("logistic growth requires a capacity")
            if self.capacity <= 0:
                raise DomainError("capacity must be positive")
        elif self.capacity is not None:
            raise DomainError("capacity is only meaningful for logistic growth")


def _check_prior_scale(owner: str, scale: float) -> None:
    """A coefficient's Gaussian prior has precision 1 / scale**2, which
    must be finite: a positive scale whose square underflows to 0, or is so
    small that its inverse overflows, is rejected."""
    if scale <= 0:
        raise DomainError(f"{owner}: prior_scale must be positive")
    square = scale * scale
    if square == 0.0 or math.isinf(1.0 / square):
        raise DomainError(
            f"{owner}: prior_scale {scale!r} is too small: 1 / prior_scale**2 overflows"
        )


@dataclass(frozen=True)
class SeasonalitySpec:
    """One periodic block: harmonic-pair count, prior scale, and mode."""

    name: str
    period: float
    fourier_order: int
    prior_scale: float = DEFAULT_SEASONALITY_PRIOR_SCALE
    mode: str = "additive"

    def __post_init__(self):
        if self.period <= 0:
            raise DomainError(f"seasonality {self.name!r}: period must be positive")
        if self.fourier_order < 1:
            raise DomainError(f"seasonality {self.name!r}: fourier_order must be >= 1")
        _check_prior_scale(f"seasonality {self.name!r}", self.prior_scale)
        if self.mode not in ("additive", "multiplicative"):
            raise DomainError(f"seasonality {self.name!r}: unknown mode {self.mode!r}")


@dataclass(frozen=True)
class HolidaySpec:
    """Named recurring event: base dates plus a symmetric-count window.

    ``lower_window``/``upper_window`` are nonnegative counts of days before /
    after each base date over which the effect also applies.
    """

    name: str
    dates: frozenset[int]
    lower_window: int = 0
    upper_window: int = 0
    prior_scale: float = DEFAULT_HOLIDAY_PRIOR_SCALE

    def __post_init__(self):
        object.__setattr__(self, "dates", frozenset(int(d) for d in self.dates))
        if not self.dates:
            raise DomainError(f"holiday {self.name!r}: needs at least one date")
        if self.lower_window < 0 or self.upper_window < 0:
            raise DomainError(
                f"holiday {self.name!r}: windows are day counts and must be >= 0"
            )
        _check_prior_scale(f"holiday {self.name!r}", self.prior_scale)

    def expanded_dates(self) -> frozenset[int]:
        out = set()
        for d in self.dates:
            out.update(range(d - self.lower_window, d + self.upper_window + 1))
        return frozenset(out)


@dataclass(frozen=True)
class RegressorSpec:
    """External per-timestamp covariate; a value must exist for every
    timestamp the model is asked to fit or predict."""

    name: str
    prior_scale: float
    values: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_prior_scale(f"regressor {self.name!r}", self.prior_scale)
        object.__setattr__(
            self, "values", {int(k): float(v) for k, v in self.values.items()}
        )


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
        if self.interval_samples < 100:
            raise DomainError("interval_samples must be >= 100")
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

def config_to_dict(config: ModelConfig) -> dict:
    """Canonical plain-dict form (ISO dates, sorted holiday dates)."""
    trend = {
        "growth": config.trend.growth,
        "n_changepoints": config.trend.n_changepoints,
        "changepoint_range": config.trend.changepoint_range,
        "changepoint_prior_scale": config.trend.changepoint_prior_scale,
    }
    if config.trend.capacity is not None:
        trend["capacity"] = config.trend.capacity
    return {
        "trend": trend,
        "seasonalities": [
            {
                "name": s.name,
                "period": s.period,
                "fourier_order": s.fourier_order,
                "prior_scale": s.prior_scale,
                "mode": s.mode,
            }
            for s in config.seasonalities
        ],
        "holidays": [
            {
                "name": h.name,
                "dates": [format_epoch_day(d) for d in sorted(h.dates)],
                "lower_window": h.lower_window,
                "upper_window": h.upper_window,
                "prior_scale": h.prior_scale,
            }
            for h in config.holidays
        ],
        "regressors": [
            {
                "name": r.name,
                "prior_scale": r.prior_scale,
                "values": {
                    format_epoch_day(k): r.values[k] for k in sorted(r.values)
                },
            }
            for r in config.regressors
        ],
        "interval_levels": list(config.interval_levels),
        "interval_samples": config.interval_samples,
        "seed": config.seed,
    }


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


def config_from_dict(data: dict) -> ModelConfig:
    if not isinstance(data, dict):
        raise SchemaError("model config must be a JSON object")
    try:
        trend_data = dict(data.get("trend", {}))
        trend = TrendSpec(
            growth=trend_data.get("growth", "linear"),
            n_changepoints=_integer(trend_data.get("n_changepoints", 25), "n_changepoints"),
            changepoint_range=float(trend_data.get("changepoint_range", 0.8)),
            changepoint_prior_scale=float(
                trend_data.get("changepoint_prior_scale", DEFAULT_CHANGEPOINT_PRIOR_SCALE)
            ),
            capacity=(
                float(trend_data["capacity"]) if "capacity" in trend_data else None
            ),
        )
        if "seasonalities" in data:
            seasonalities = tuple(
                SeasonalitySpec(
                    name=str(s["name"]),
                    period=float(s["period"]),
                    fourier_order=_integer(s["fourier_order"], "fourier_order"),
                    prior_scale=float(
                        s.get("prior_scale", DEFAULT_SEASONALITY_PRIOR_SCALE)
                    ),
                    mode=str(s.get("mode", "additive")),
                )
                for s in data["seasonalities"]
            )
        else:
            seasonalities = default_seasonalities()
        holidays = tuple(
            HolidaySpec(
                name=str(h["name"]),
                dates=frozenset(parse_iso_date(d) for d in h["dates"]),
                lower_window=_integer(h.get("lower_window", 0), "lower_window"),
                upper_window=_integer(h.get("upper_window", 0), "upper_window"),
                prior_scale=float(h.get("prior_scale", DEFAULT_HOLIDAY_PRIOR_SCALE)),
            )
            for h in data.get("holidays", ())
        )
        regressors = tuple(
            RegressorSpec(
                name=str(r["name"]),
                prior_scale=float(r["prior_scale"]),
                values={
                    parse_iso_date(k): float(v)
                    for k, v in _object(r.get("values", {}), "regressor values").items()
                },
            )
            for r in data.get("regressors", ())
        )
        return ModelConfig(
            trend=trend,
            seasonalities=seasonalities,
            holidays=holidays,
            regressors=regressors,
            interval_levels=tuple(data.get("interval_levels", (0.80, 0.95))),
            interval_samples=_integer(data.get("interval_samples", 1000), "interval_samples"),
            seed=_integer(data.get("seed", DEFAULT_SEED), "seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed model config: {exc}") from None


def read_json(path):
    """The JSON value in a UTF-8 file; invalid JSON is a SchemaError."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from None


def load_config(path) -> ModelConfig:
    return config_from_dict(read_json(path))


def load_holiday_calendar(path) -> tuple[HolidaySpec, ...]:
    """Load holiday specs from a CSV with columns
    ``holiday,ds,lower_window,upper_window`` (one row per occurrence).

    Window columns must agree across rows of the same holiday name.
    """
    required = ("holiday", "ds", "lower_window", "upper_window")
    grouped: dict[str, dict] = {}  # in order of first appearance
    with csv_reader(path, required) as (columns, rows):
        for lineno, row in enumerate(rows, start=2):
            name, ds, lower, upper = (csv_field(row, columns[c]) for c in required)
            name = (name or "").strip()
            if not name:
                raise ParseError(f"{path}: row {lineno}: empty holiday name")
            for col, value in zip(required[1:], (ds, lower, upper)):
                if value is None:
                    raise ParseError(f"{path}: row {lineno}: missing field {col!r}")
            try:
                day = parse_iso_date(ds)
                lower = int(lower)
                upper = int(upper)
            except (ParseError, ValueError) as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from None
            entry = grouped.setdefault(name, {"dates": set(), "windows": (lower, upper)})
            if entry["windows"] != (lower, upper):
                raise ParseError(
                    f"{path}: row {lineno}: window mismatch for holiday {name!r}"
                )
            entry["dates"].add(day)
    if not grouped:
        raise ParseError(f"{path}: no holiday rows")
    return tuple(
        HolidaySpec(
            name=name,
            dates=frozenset(grouped[name]["dates"]),
            lower_window=grouped[name]["windows"][0],
            upper_window=grouped[name]["windows"][1],
        )
        for name in grouped
    )
