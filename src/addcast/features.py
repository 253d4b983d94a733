"""Feature construction for the additive model: piecewise trend basis,
harmonic seasonal features, holiday indicators, and regressor columns.

``model_layout`` is the single owner of a model's coefficient blocks: their
order (trend, each seasonal block, holidays, regressors), widths, prior
scales and seasonal modes. design_for_grid, the estimator, the forecast
and the model document all read block structure from it.

Internal time is affinely rescaled so the training span maps to [0, 1]
(changepoints and trend parameters live in that scale); seasonal features are
computed directly on epoch-days so their phase is calendar-anchored. The
seasonal and holiday columns are therefore a function of the day alone, and
inside ``shared_fold_work``, which ``evaluation.rolling_cv`` opens, every
design of a series takes them from one build; the same scope keeps the
folds' shared future-noise draw for ``forecast.simulate_intervals``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import ModelConfig, TrendSpec
from .errors import DomainError, DuplicateTimestamp, MissingRegressorValue
from .timeseries import TimeSeries, format_epoch_day


def place_changepoints(
    train_timestamps: np.ndarray, n: int, range_fraction: float = 0.8
) -> np.ndarray:
    """Candidate changepoint times at uniform index quantiles of the first
    ``range_fraction`` of the observed timestamps.

    Returns epoch-days strictly after the first observation; requests for
    more changepoints than the eligible window holds collapse silently.
    """
    t = np.asarray(train_timestamps, dtype=np.int64)
    if len(t) < 2:
        raise DomainError("changepoint placement needs at least 2 observations")
    if n < 0:
        raise DomainError("changepoint count must be >= 0")
    eligible = int(np.floor(range_fraction * len(t)))
    # Every n >= eligible - 1 places all of t[1:eligible]. Capped there, the
    # step eligible / (n + 1) is at least 1, so idx rises strictly from 1.
    n = min(n, eligible - 1)
    idx = (np.arange(1, n + 1, dtype=np.int64) * eligible) // (n + 1)
    return t[idx]


def changepoint_basis(t, changepoints) -> np.ndarray:
    """Indicator matrix a(t): entry j is 1 iff t >= changepoint j (closed
    boundary). Scalar t gives shape (S,), vector t gives (n, S)."""
    cps = np.asarray(changepoints, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    return (t_arr[..., np.newaxis] >= cps).astype(np.float64)


def gamma_from_delta(changepoints, delta) -> np.ndarray:
    """Offset adjustments that keep the trend line continuous, for both
    growths: gamma_j = -t_j * delta_j."""
    cps = np.asarray(changepoints, dtype=np.float64)
    d = np.asarray(delta, dtype=np.float64)
    if cps.shape != d.shape:
        raise DomainError("changepoints and delta must have equal length")
    return -cps * d


def expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)) as 0.5 * (1 + u)^2 / (1 + u^2)
    with u = tanh(x / 4), which cannot overflow. Unlike 0.5 + 0.5 * tanh(x / 2)
    it keeps relative precision for x << 0 (within 2e-12 down to x = -20), and
    numpy's tanh gives the same bits at every SIMD level from AVX2 up, which
    its exponential does not."""
    u = np.tanh(0.25 * x)
    return 0.5 * np.square(1.0 + u) / (1.0 + np.square(u))


def growth_curve(rate, offset, t, trend: TrendSpec) -> np.ndarray:
    """The growth curve g at times ``t`` from its per-row growth ``rate`` and
    ``offset``. Both growths share the trend line rate * t + offset: linear
    growth is the line itself and logistic growth is capacity * expit(line),
    so a continuous line (Taylor & Letham 2018, section 2.1) gives a
    continuous trend in both. ``trend``'s capacity is in the units of g.
    ``rate`` and ``offset`` have the shape of g, and ``t`` broadcasts
    against them."""
    g = rate * t
    g += offset
    if trend.growth == "logistic":
        g = expit(g)
        g *= trend.capacity
    return g


def fourier_features(t, period: float, order: int) -> np.ndarray:
    """Truncated harmonic expansion of t (days) at the given period.

    Columns are interleaved cos/sin per harmonic:
    [cos(2*pi*1*t/P), sin(2*pi*1*t/P), cos(2*pi*2*t/P), ...], 2*order wide.
    """
    if period <= 0:
        raise DomainError("period must be positive")
    if order < 1:
        raise DomainError("order must be >= 1")
    t_arr = np.asarray(t, dtype=np.float64)
    harmonics = np.arange(1, order + 1, dtype=np.float64)
    angles = (2.0 * np.pi / period) * t_arr[..., np.newaxis] * harmonics
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1).reshape(*t_arr.shape, 2 * order)


def holiday_features(timestamps, specs) -> np.ndarray:
    """0/1 indicator matrix, one column per holiday spec in order; entry is 1
    iff the timestamp t falls in the spec's window around some base date d,
    d - lower_window <= t <= d + upper_window.

    The timestamps must be distinct. The window test is
    t - upper_window <= d <= t + lower_window, so the first base date at or
    after t - upper_window, found by one search of the sorted base dates,
    decides it."""
    t = np.asarray(timestamps, dtype=np.int64)
    sorted_t = np.sort(t)
    if np.any(sorted_t[1:] == sorted_t[:-1]):
        raise DuplicateTimestamp("holiday features need distinct timestamps")
    out = np.zeros((len(t), len(specs)), dtype=np.float64)
    for j, spec in enumerate(specs):
        base = np.array(sorted(spec.dates), dtype=np.int64)
        start = t - spec.upper_window
        d = base[np.minimum(np.searchsorted(base, start), len(base) - 1)]
        out[:, j] = (start <= d) & (d <= t + spec.lower_window)
    return out


class Block(NamedTuple):
    """Column range [start, stop) of one feature group, with per-column prior
    scales. kind is one of trend / seasonal / holidays / regressors."""

    kind: str
    name: str
    start: int
    stop: int
    prior_scales: np.ndarray
    mode: str = "additive"

    @property
    def width(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Layout:
    """Ordered coefficient blocks of one model; see ``model_layout``.

    The trend block's columns carry delta, the changepoint rate adjustments;
    the columns of every later block carry beta, in the same order.
    """

    blocks: tuple[Block, ...]

    @property
    def width(self) -> int:
        return self.blocks[-1].stop

    @property
    def trend(self) -> Block:
        return self.blocks[0]

    @property
    def coefficients(self) -> tuple[Block, ...]:
        """The blocks after the trend, whose coefficients make up beta."""
        return self.blocks[1:]

    @property
    def component_names(self) -> list[str]:
        """Reported forecast components: trend, each seasonal block, then
        holidays and regressors, which are reported even when undeclared."""
        seasonal = [b.name for b in self.blocks if b.kind == "seasonal"]
        return ["trend", *seasonal, "holidays", "regressors"]

    def beta_slice(self, block: Block) -> slice:
        """Where ``block``'s coefficients sit in beta."""
        return slice(block.start - self.trend.stop, block.stop - self.trend.stop)

    @cached_property
    def prior_scales(self) -> np.ndarray:
        """Per-coefficient prior scales of beta."""
        parts = [b.prior_scales for b in self.coefficients]
        return np.concatenate(parts) if parts else np.empty(0)

    @cached_property
    def prior_variances(self) -> np.ndarray:
        """Squared prior scales of beta. A scale whose square overflows gives
        inf, a flat prior, without a floating-point warning."""
        with np.errstate(over="ignore"):
            return np.square(self.prior_scales)

    @cached_property
    def multiplicative_mask(self) -> np.ndarray:
        """True where a beta coefficient belongs to a multiplicative block."""
        mask = np.zeros(self.width - self.trend.stop, dtype=bool)
        for b in self.coefficients:
            mask[self.beta_slice(b)] = b.mode == "multiplicative"
        return mask


def model_layout(config: ModelConfig, n_changepoints: int) -> Layout:
    """Blocks of a model with ``n_changepoints`` placed changepoints: the
    trend (one changepoint indicator per column), each seasonal block in
    config order (2 * fourier_order harmonic columns), then holidays and
    regressors (one column per spec) when the config declares any."""
    tau = config.trend.changepoint_prior_scale
    parts = [("trend", "trend", np.full(n_changepoints, tau), "additive")]
    parts += [
        ("seasonal", s.name, np.full(2 * s.fourier_order, s.prior_scale), s.mode)
        for s in config.seasonalities
    ]
    for kind, specs in (("holidays", config.holidays), ("regressors", config.regressors)):
        if specs:
            parts.append((kind, kind, np.array([s.prior_scale for s in specs]), "additive"))
    blocks = []
    start = 0
    for kind, name, scales, mode in parts:
        blocks.append(Block(kind, name, start, start + len(scales), scales, mode))
        start += len(scales)
    return Layout(tuple(blocks))


class TimeScaling(NamedTuple):
    """Affine map from epoch-days to model time: (day - t_start) / t_span."""

    t_start: float
    t_span: float

    def scale(self, days) -> np.ndarray:
        return (np.asarray(days, dtype=np.float64) - self.t_start) / self.t_span


@dataclass(frozen=True)
class DesignMatrix:
    """Feature columns laid out by ``layout``, plus the scaled time axis the
    trend evaluates on and the scaling that maps days onto it (the identity
    for a design built on model times directly).

    The trend block's columns are the changepoint indicators a(t); the
    remaining blocks enter the prediction linearly.
    """

    t_scaled: np.ndarray
    changepoints_scaled: np.ndarray
    X: np.ndarray
    layout: Layout
    scaling: TimeScaling = TimeScaling(t_start=0.0, t_span=1.0)

    def __post_init__(self):
        if self.layout.width != self.X.shape[1]:
            raise DomainError(
                f"block widths sum to {self.layout.width} "
                f"but design has {self.X.shape[1]} columns"
            )

    @cached_property
    def mode_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """X's beta columns split by seasonal mode, (multiplicative,
        additive), gathered once. The gather is column-major: that layout is
        part of the contract, because ``estimator.row_dot`` reads these at
        every objective evaluation and its bits depend on its operand's
        layout."""
        beta_columns = self.X[:, self.layout.trend.stop :]
        mask = self.layout.multiplicative_mask
        return beta_columns[:, mask], beta_columns[:, ~mask]

    def columns(self, block: Block) -> np.ndarray:
        return self.X[:, block.start : block.stop]


def regressor_column(name: str, timestamps: np.ndarray, values: dict) -> np.ndarray:
    """Values of regressor ``name`` at ``timestamps``, read from ``values``
    ({day: value}); raises MissingRegressorValue at the first day it does
    not cover."""
    col = np.empty(len(timestamps), dtype=np.float64)
    for i, day in enumerate(timestamps):
        day = int(day)
        if day not in values:
            raise MissingRegressorValue(
                f"regressor {name!r} has no value for {format_epoch_day(day)}"
            )
        col[i] = values[day]
    return col


def _day_blocks(t: np.ndarray, config: ModelConfig, layout: Layout) -> list[np.ndarray]:
    """The columns of ``layout``'s seasonal and holiday blocks at days
    ``t``, one matrix per block in layout order."""
    seasonalities = {spec.name: spec for spec in config.seasonalities}
    columns = []
    for block in layout.coefficients:
        if block.kind == "seasonal":
            spec = seasonalities[block.name]
            columns.append(fourier_features(t, spec.period, spec.fourier_order))
        elif block.kind == "holidays":
            columns.append(holiday_features(t, config.holidays))
    return columns


# The current thread's open shared_fold_work scope, or no attribute.
_fold_scope = threading.local()


class _FoldWork:
    """What the folds of a CV run under one config share: the seasonal and
    holiday columns of the series' days, in layout order, built at the first
    design that asks (one row per day of the series, however far apart the
    days are), and the last future-noise draw of a simulation, kept by
    ``forecast.simulate_intervals`` as (seed, read-only array)."""

    def __init__(self, config: ModelConfig, days: np.ndarray):
        self.config = config
        self.days = days
        self.columns = None
        self.noise = None

    def day_columns(self, t: np.ndarray, layout: Layout) -> np.ndarray | None:
        """The day columns at the days ``t``, a slice of the build, when
        ``t`` is a run of consecutive series days; otherwise None. A CV fit
        design is a prefix of the series, and a CV forecast grid is
        calendar-consecutive days."""
        if len(t) == 0:
            return None
        start = int(np.searchsorted(self.days, t[0]))
        if not np.array_equal(self.days[start : start + len(t)], t):
            return None
        if self.columns is None:
            blocks = _day_blocks(self.days, self.config, layout)
            self.columns = np.hstack(blocks) if blocks else np.empty((len(self.days), 0))
        return self.columns[start : start + len(t)]


@contextmanager
def shared_fold_work(config: ModelConfig, days: np.ndarray):
    """Within the block, the current thread's designs and simulations under
    ``config`` (this object) share what the folds of a series with days
    ``days`` (strictly increasing) have in common: a design of a run of
    consecutive series days takes its seasonal and holiday columns from one
    build, and the simulations of a seed share one future-noise draw. Every
    design and bound equals its own build or draw bit for bit. Everything
    is dropped when the block exits. ``evaluation.rolling_cv`` opens it;
    scopes do not nest."""
    _fold_scope.entry = _FoldWork(config, np.asarray(days, dtype=np.int64))
    try:
        yield
    finally:
        del _fold_scope.entry


def fold_work(config: ModelConfig) -> _FoldWork | None:
    """The current thread's open ``shared_fold_work`` scope when ``config``
    is its config, else None."""
    scope = getattr(_fold_scope, "entry", None)
    return scope if scope is not None and scope.config is config else None


def design_for_grid(
    timestamps: np.ndarray,
    config: ModelConfig,
    scaling: TimeScaling,
    changepoints_scaled: np.ndarray,
    extra_regressors: dict[str, dict[int, float]] | None = None,
) -> DesignMatrix:
    """Assemble the design for arbitrary timestamps under a fixed scaling and
    changepoint set (used both at fit time and when extending to a future grid).
    A regressor's values are ``extra_regressors[name]`` ({day: value}) when
    given, else its spec's.

    Inside ``shared_fold_work`` the seasonal and holiday columns of a run
    of consecutive series days are a slice of the scope's build."""
    t = np.asarray(timestamps, dtype=np.int64)
    t_scaled = scaling.scale(t)
    cps = np.asarray(changepoints_scaled, dtype=np.float64)
    layout = model_layout(config, len(cps))

    columns = [changepoint_basis(t_scaled, cps)]
    scope = fold_work(config)
    day = None if scope is None else scope.day_columns(t, layout)
    if day is None:
        columns += _day_blocks(t, config, layout)
    else:
        columns.append(day)
    if config.regressors:
        extra = extra_regressors or {}
        columns.append(
            np.column_stack(
                [regressor_column(r.name, t, extra.get(r.name, r.values))
                 for r in config.regressors]
            )
        )
    return DesignMatrix(
        t_scaled=t_scaled, changepoints_scaled=cps, X=np.hstack(columns), layout=layout,
        scaling=scaling,
    )


def build_design(ts: TimeSeries, config: ModelConfig) -> DesignMatrix:
    """Training-time design: derives the time scaling from the series span and
    places changepoints over the observed timestamps."""
    if len(ts) < 2:
        raise DomainError("design construction needs at least 2 observations")
    t = ts.timestamps
    scaling = TimeScaling(t_start=float(t[0]), t_span=float(t[-1] - t[0]))
    cp_days = place_changepoints(
        t, config.trend.n_changepoints, config.trend.changepoint_range
    )
    return design_for_grid(t, config, scaling, scaling.scale(cp_days))
