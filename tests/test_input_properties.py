"""Generated model configs, model documents and compare candidates: every
call returns or raises an AddcastError, never another exception, and every
``addcast compare`` exits 0, 1 or 2 without a traceback. A config that loads
also fits and its model document round-trips through canonical JSON, or the
fit raises an AddcastError; a model document that loads also forecasts and
its forecast is written, or the forecast raises an AddcastError.

Configs and documents start from a valid one and get up to three
mutations: a value anywhere in the tree replaced by an arbitrary JSON value
(huge integers, NaN and infinities included), a key deleted or a key added.
Most such configs fail to load, so configs also come with the valid one's
shape and one to three of its numbers set to edge values, which reach the
value checks.
"""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from addcast import errors
from addcast.cli import main
from addcast.config import ModelConfig, config_from_dict, config_to_dict
from addcast.errors import AddcastError
from addcast.estimator import FittedModel, fit
from addcast.forecast import forecast_with_intervals, make_future_grid, write_forecast_csv
from addcast.persistence import canonical_json_bytes, model_from_document, model_to_document
from addcast.timeseries import TimeSeries, format_epoch_day

from conftest import UNFORECASTABLE_DOCUMENTS, daily_days

SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ERROR_NAMES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, AddcastError)
}

scalars = st.one_of(
    st.sampled_from(
        [10**400, -(10**400), math.nan, math.inf, -math.inf, 0, -1, 7, 1.5, True, None,
         "", "2021-01-01", "logistic", "multiplicative"]
    ),
    st.integers(),
    st.floats(),
    st.text("ab -:019é", max_size=6),
)
json_values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text("ab -:019é", max_size=6), scalars, max_size=3),
)

VALID_CONFIG = {
    "trend": {"growth": "logistic", "n_changepoints": 2, "changepoint_range": 0.8,
              "changepoint_prior_scale": 0.05, "capacity": 10.0},
    "seasonalities": [
        {"name": "weekly", "period": 7.0, "fourier_order": 2, "prior_scale": 10.0,
         "mode": "multiplicative"},
    ],
    "holidays": [{"name": "h", "dates": ["2021-01-05"], "lower_window": 0,
                  "upper_window": 1, "prior_scale": 10.0}],
    "regressors": [{"name": "x", "prior_scale": 0.5, "values": {"2021-01-01": 1.0}}],
    "interval_levels": [0.8, 0.95],
    "interval_samples": 100,
    "seed": 3,
}


def _paths(tree, prefix=()):
    """Every location in a JSON tree, the root included."""
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _paths(value, (*prefix, key))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _paths(value, (*prefix, i))


def _leaf(tree, path):
    """The value at ``path`` in a JSON tree."""
    for step in path:
        tree = tree[step]
    return tree


@st.composite
def mutated(draw, valid):
    """A deep copy of the JSON tree ``valid`` with up to three mutations."""
    tree = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(tree))))
        if not path:
            tree = draw(json_values)
            continue
        *parents, key = path
        node = _leaf(tree, parents)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = draw(json_values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text("ab -:019é", max_size=6))] = draw(json_values)
        else:
            node.append(draw(json_values))
    return tree


EDGE_VALUES = [
    0, -0.0, -1, -0.5, math.inf, -math.inf, math.nan, 1e308, 5e-324, 2**63, True, False,
]


@st.composite
def edge_valued(draw, valid):
    """A deep copy of the JSON tree ``valid`` with one to three of its
    numbers set to edge values: zeros, negatives, infinities, NaN, huge and
    subnormal magnitudes, booleans, or a float where an integer stands."""
    tree = json.loads(json.dumps(valid))
    numbers = [path for path in _paths(tree) if type(_leaf(tree, path)) in (int, float)]
    for path in draw(st.lists(st.sampled_from(numbers), min_size=1, max_size=3, unique=True)):
        *parents, key = path
        value = _leaf(tree, path)
        floats = [float(value), value + 0.5] if type(value) is int else []
        _leaf(tree, parents)[key] = draw(st.sampled_from(EDGE_VALUES + floats))
    return tree


configs = st.one_of(mutated(VALID_CONFIG), edge_valued(VALID_CONFIG))


@SETTINGS
@given(data=configs)
def test_config_from_dict_returns_a_config_or_raises_an_addcast_error(data):
    try:
        config = config_from_dict(data)
    except AddcastError:
        return
    assert isinstance(config, ModelConfig)
    assert config_from_dict(config_to_dict(config)) == config


def with_entry(key, **changes):
    """VALID_CONFIG with ``changes`` made to its ``key`` entry (the first
    entry of a list)."""
    entry = VALID_CONFIG[key]
    if isinstance(entry, list):
        return {**VALID_CONFIG, key: [{**entry[0], **changes}, *entry[1:]]}
    return {**VALID_CONFIG, key: {**entry, **changes}}


@SETTINGS
@given(data=configs)
# an infinite scale loaded, and its fit's document could not be written
@example(data=with_entry("trend", changepoint_prior_scale=math.inf))
@example(data=with_entry("seasonalities", prior_scale=math.inf))
@example(data=with_entry("holidays", prior_scale=math.inf))
@example(data=with_entry("regressors", prior_scale=math.inf))
# a numpy ValueError: the harmonic matrix's shape was too large to describe
@example(data=with_entry("seasonalities", fourier_order=2**63))
# numpy warnings: the harmonic angles were not finite
@example(data=with_entry("seasonalities", period=5e-324))
def test_accepted_configs_fit_save_and_reload_or_raise_an_addcast_error(data):
    try:
        config = config_from_dict(data)
    except AddcastError:
        return
    days = daily_days("2021-01-01", 30)
    y = 3.0 + (np.arange(30) % 7) / 4
    # every regressor gets a value on every day, its own values kept
    regressors = tuple(
        replace(spec, values={**dict.fromkeys(days.tolist(), 1.0), **spec.values})
        for spec in config.regressors
    )
    try:
        model = fit(TimeSeries(days, y), replace(config, regressors=regressors))
        document = model_to_document(model)
        loaded = model_from_document(json.loads(canonical_json_bytes(document)))
    except AddcastError:
        return
    assert canonical_json_bytes(model_to_document(loaded)) == canonical_json_bytes(document)


def _valid_document():
    days = daily_days("2021-01-01", 30)
    y = 3.0 + (np.arange(30) % 7) / 4
    config = config_from_dict({**VALID_CONFIG, "regressors": []})
    return model_to_document(fit(TimeSeries(days, y), config))


VALID_DOCUMENT = _valid_document()


def edited(case):
    """A copy of VALID_DOCUMENT with an UNFORECASTABLE_DOCUMENTS edit made."""
    document = json.loads(json.dumps(VALID_DOCUMENT))
    UNFORECASTABLE_DOCUMENTS[case][0](document)
    return document


@SETTINGS
@given(data=mutated(VALID_DOCUMENT))
# each loaded, and its forecast ended in an exception that is not an
# AddcastError or asked for GiBs of simulation
@example(data=edited("no_days"))
@example(data=edited("one_day"))
@example(data=edited("nested_days"))
@example(data=edited("nested_delta"))
@example(data=edited("days_plus_1e9"))
@example(data=edited("days_minus_1e9"))
@example(data=edited("last_day_2**62"))
@example(data=edited("t_start_after_last_day"))
@example(data=edited("t_span_1e300"))
@example(data=edited("t_span_1e-3"))
@example(data=edited("t_span_1e-6"))
def test_model_documents_load_or_raise_an_addcast_error(data):
    try:
        model = model_from_document(data)
    except AddcastError:
        return
    assert isinstance(model, FittedModel)
    # a mutated sample count may ask for more memory than a test may take
    assume(model.config.interval_samples <= 10_000)
    try:
        forecast = forecast_with_intervals(model, make_future_grid(model, 3))
    except AddcastError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        write_forecast_csv(forecast, model, Path(tmp) / "forecast.csv")


N_DAYS = 400
CUTOFF = format_epoch_day(int(daily_days("2021-01-01", N_DAYS)[369]))

baseline_entries = st.fixed_dictionaries(
    {"baseline": st.one_of(
        st.sampled_from(["naive", "seasonal_naive", "lag_linear"]), json_values
    )},
    optional={
        "period": st.one_of(st.integers(-2, 40), json_values),
        "name": st.one_of(st.sampled_from(["a", "b", ""]), json_values),
        "note": json_values,
    },
)
arguments = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["x", "1.5", ""]))


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    """A 400-day series, exact in float64; the training part before CUTOFF
    holds the 366 rows lag_linear needs."""
    path = tmp_path_factory.mktemp("compare") / "series.csv"
    days = daily_days("2021-01-01", N_DAYS).tolist()
    path.write_text(
        "ds,y\n" + "".join(
            f"{format_epoch_day(d)},{3.0 + (i % 7) / 4 + i / 64!r}\n" for i, d in enumerate(days)
        )
    )
    return path


@SETTINGS
@given(
    entries=st.lists(baseline_entries, min_size=1, max_size=3),
    h=arguments,
    seed=st.one_of(st.none(), arguments),
)
def test_compare_on_generated_baselines_exits_cleanly(series, entries, h, seed):
    with tempfile.TemporaryDirectory() as tmp:
        configs = []
        for i, entry in enumerate(entries):
            configs.append(Path(tmp) / f"c{i}.json")
            configs[-1].write_text(json.dumps(entry))
        out = Path(tmp) / "out.json"
        argv = ["compare", "--input", str(series), "--config", *map(str, configs),
                "--cutoff", CUTOFF, "--output", str(out), "--h", h]
        if seed is not None:
            argv += ["--seed", seed]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        written = sorted(Path(tmp).iterdir())
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert written == sorted([*configs, out, Path(f"{out}.manifest.json")])
    elif code == 1:
        (line,) = stderr.getvalue().splitlines()
        assert json.loads(line)["error"] in ERROR_NAMES
        assert written == sorted(configs)
    else:
        assert code == 2
