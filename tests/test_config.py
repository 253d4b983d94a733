import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from addcast.config import (
    _READERS,
    MAX_COUNT,
    HolidaySpec,
    ModelConfig,
    RegressorSpec,
    SeasonalitySpec,
    TrendSpec,
    config_from_dict,
    config_to_dict,
)
from addcast.errors import DomainError, ParseError, SchemaError
from addcast.features import fourier_features
from addcast.timeseries import MAX_EPOCH_DAY, parse_iso_date


class TestTrendSpec:
    def test_logistic_requires_capacity(self):
        with pytest.raises(DomainError):
            TrendSpec(growth="logistic")

    def test_capacity_only_for_logistic(self):
        with pytest.raises(DomainError):
            TrendSpec(growth="linear", capacity=5.0)

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            TrendSpec(changepoint_range=0.0)
        with pytest.raises(DomainError):
            TrendSpec(changepoint_range=1.5)

    def test_nonpositive_prior(self):
        with pytest.raises(DomainError):
            TrendSpec(changepoint_prior_scale=0.0)


class TestSeasonalitySpec:
    @pytest.mark.parametrize("period, order", [(5e-324, 1), (1e-320, 3), (1e-300, 2000)])
    def test_period_too_small_for_its_harmonics_rejected(self, period, order):
        # these fits printed numpy overflow or invalid-value warnings
        with pytest.raises(DomainError, match=f"too small for fourier_order {order}"):
            SeasonalitySpec(name="w", period=period, fourier_order=order)
        # the smallest period accepted gives finite features at the extreme days
        smallest = 2.0 * math.pi * MAX_EPOCH_DAY * order / sys.float_info.max
        while True:
            try:
                SeasonalitySpec(name="w", period=smallest, fourier_order=order)
                break
            except DomainError:
                smallest = math.nextafter(smallest, math.inf)
        days = [parse_iso_date("0001-01-01"), 0, MAX_EPOCH_DAY]
        assert np.all(np.isfinite(fourier_features(days, smallest, order)))

    def test_fourier_order_above_max_count_rejected(self):
        SeasonalitySpec(name="w", period=7.0, fourier_order=MAX_COUNT)
        for order in (MAX_COUNT + 1, 2**63):
            with pytest.raises(DomainError, match="fourier_order must be in"):
                SeasonalitySpec(name="w", period=7.0, fourier_order=order)


class TestModelConfig:
    def test_interval_levels_must_increase(self):
        with pytest.raises(DomainError):
            ModelConfig(interval_levels=(0.95, 0.80))

    def test_interval_levels_in_open_unit(self):
        with pytest.raises(DomainError):
            ModelConfig(interval_levels=(0.5, 1.0))

    def test_minimum_samples(self):
        with pytest.raises(DomainError):
            ModelConfig(interval_samples=99)

    def test_samples_above_max_count_rejected(self):
        assert ModelConfig(interval_samples=MAX_COUNT).interval_samples == MAX_COUNT
        with pytest.raises(DomainError, match="interval_samples must be in"):
            ModelConfig(interval_samples=MAX_COUNT + 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            ModelConfig(seed=-3)
        with pytest.raises(DomainError, match="seed"):
            ModelConfig().with_seed(-1)
        with pytest.raises(DomainError, match="seed"):
            config_from_dict({"seed": -1})
        assert ModelConfig(seed=0).seed == 0

    @pytest.mark.parametrize("seed", [1.5, 7.0, True, False, "7", None, float("nan")])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(SchemaError, match="seed must be an integer"):
            config_from_dict({"seed": seed})

    @pytest.mark.parametrize("seed", [1.5, 7.0, True, "7", None, float("nan")])
    def test_non_integer_seed_rejected_in_every_config(self, seed):
        # ModelConfig(seed=1.5) used to be kept, written as 1.5 and drawn
        # as seed 1; with_seed truncated it
        for build in (lambda: ModelConfig(seed=seed), lambda: ModelConfig().with_seed(seed)):
            with pytest.raises(DomainError, match="^seed must be an integer, got "):
                build()

    def test_seed_is_kept_as_an_int(self):
        config = ModelConfig(seed=np.int64(3))
        assert type(config.seed) is int
        assert config_to_dict(config)["seed"] == 3
        assert type(ModelConfig().with_seed(np.uint8(4)).seed) is int


    @pytest.mark.parametrize("value", [2.7, 3.0, True, "3", None])
    @pytest.mark.parametrize(
        "field", ["fourier_order", "n_changepoints", "interval_samples",
                  "lower_window", "upper_window"]
    )
    def test_non_integer_count_rejected(self, field, value):
        data = {
            "trend": {"n_changepoints": 3},
            "seasonalities": [{"name": "weekly", "period": 7.0, "fourier_order": 3}],
            "holidays": [{"name": "h", "dates": ["2021-01-01"],
                          "lower_window": 1, "upper_window": 1}],
            "interval_samples": 300,
        }
        target = {
            "fourier_order": data["seasonalities"][0],
            "n_changepoints": data["trend"],
            "interval_samples": data,
            "lower_window": data["holidays"][0],
            "upper_window": data["holidays"][0],
        }[field]
        config_from_dict(data)  # valid as written
        target[field] = value
        with pytest.raises(SchemaError, match=f"{field} must be an integer"):
            config_from_dict(data)
    def test_duplicate_seasonality_names(self):
        with pytest.raises(DomainError):
            ModelConfig(
                seasonalities=(
                    SeasonalitySpec(name="s", period=7.0, fourier_order=1),
                    SeasonalitySpec(name="s", period=30.5, fourier_order=1),
                )
            )

    def test_reserved_seasonality_name(self):
        with pytest.raises(DomainError):
            ModelConfig(
                seasonalities=(SeasonalitySpec(name="trend", period=7.0, fourier_order=1),)
            )

    def test_defaults(self):
        config = ModelConfig()
        assert [s.name for s in config.seasonalities] == ["yearly", "weekly"]
        assert config.seasonalities[0].fourier_order == 10
        assert config.seasonalities[1].fourier_order == 4
        assert config.trend.n_changepoints == 25
        assert config.trend.changepoint_prior_scale == 0.05
        assert config.interval_levels == (0.80, 0.95)
        assert config.interval_samples == 1000
        assert config.seed == 42


class TestConfigDictRoundtrip:
    def test_roundtrip(self):
        config = ModelConfig(
            trend=TrendSpec(growth="logistic", n_changepoints=7, capacity=12.0),
            seasonalities=(
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=3, mode="multiplicative"),
            ),
            holidays=(
                HolidaySpec(name="h", dates=frozenset([18500, 18865]), upper_window=2),
            ),
            interval_levels=(0.5, 0.9),
            interval_samples=250,
            seed=7,
        )
        back = config_from_dict(config_to_dict(config))
        assert back == config

    def test_dict_is_json_serializable(self):
        json.dumps(config_to_dict(ModelConfig()))

    def test_malformed_rejected(self):
        with pytest.raises(SchemaError):
            config_from_dict({"seasonalities": [{"name": "weekly"}]})
        with pytest.raises(SchemaError):
            config_from_dict("not a dict")

    @pytest.mark.parametrize("text", ["20200101", "2020W013", "2020-W01-3"])
    def test_holiday_date_must_be_strict_yyyy_mm_dd(self, text):
        with pytest.raises(ParseError, match="YYYY-MM-DD"):
            config_from_dict({"holidays": [{"name": "h", "dates": ["2019-12-25", text]}]})

    def test_unset_seasonalities_default_explicit_empty_respected(self):
        assert len(config_from_dict({}).seasonalities) == 2
        assert len(config_from_dict({"seasonalities": []}).seasonalities) == 0


SPECS = (TrendSpec, SeasonalitySpec, HolidaySpec, RegressorSpec, ModelConfig)


def full_config() -> ModelConfig:
    """A config that sets every field of every spec to a non-default value."""
    return ModelConfig(
        trend=TrendSpec(
            growth="logistic", n_changepoints=4, changepoint_range=0.7,
            changepoint_prior_scale=0.2, capacity=9.5,
        ),
        seasonalities=(
            SeasonalitySpec(
                name="monthly", period=30.5, fourier_order=3, prior_scale=2.0,
                mode="multiplicative",
            ),
        ),
        holidays=(
            HolidaySpec(
                name="h", dates=frozenset([18600, 18262]), lower_window=1,
                upper_window=2, prior_scale=3.0,
            ),
        ),
        regressors=(RegressorSpec(name="r", prior_scale=0.5, values={18263: 1.5, 18262: -2.0}),),
        interval_levels=(0.5, 0.9),
        interval_samples=300,
        seed=7,
    )


def assert_keys_are_fields(spec, plain):
    """Every dict of ``plain`` holds exactly the set fields of its spec."""
    assert list(plain) == [f.name for f in fields(spec) if getattr(spec, f.name) is not None]
    for key, value in plain.items():
        nested = getattr(spec, key)
        if is_dataclass(nested):
            assert_keys_are_fields(nested, value)
        elif isinstance(nested, tuple) and nested and is_dataclass(nested[0]):
            for entry, entry_plain in zip(nested, value, strict=True):
                assert_keys_are_fields(entry, entry_plain)


class TestSchemaWalk:
    """The spec dataclasses are the dict form's one schema."""

    def test_every_field_annotation_has_a_reader(self):
        missing = [
            (spec.__name__, f.name, f.type)
            for spec in SPECS for f in fields(spec) if f.type not in _READERS
        ]
        assert missing == []

    def test_dict_keys_are_the_dataclass_fields_at_every_level(self):
        config = full_config()
        plain = config_to_dict(config)
        assert_keys_are_fields(config, plain)
        assert plain["holidays"][0]["dates"] == ["2020-01-01", "2020-12-04"]
        assert plain["regressors"][0]["values"] == {"2020-01-01": -2.0, "2020-01-02": 1.5}
        assert "capacity" not in config_to_dict(ModelConfig())["trend"]

    def test_full_config_round_trips(self):
        config = full_config()
        plain = config_to_dict(config)
        assert config_from_dict(plain) == config
        assert config_from_dict(json.loads(json.dumps(plain))) == config

    def test_required_key_is_a_field_without_default(self):
        for key in ("name", "period", "fourier_order"):
            entry = {"name": "w", "period": 7.0, "fourier_order": 2}
            del entry[key]
            with pytest.raises(SchemaError, match=f"malformed model config: '{key}'"):
                config_from_dict({"seasonalities": [entry]})
        with pytest.raises(SchemaError, match="malformed model config: 'prior_scale'"):
            config_from_dict({"regressors": [{"name": "r"}]})

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"trend": ""}, "trend must be an object, got ''"),
            ({"trend": [["growth", "linear"]]}, "trend must be an object"),
            ({"seasonalities": ["x"]}, "seasonality must be an object, got 'x'"),
            ({"holidays": [7]}, "holiday must be an object, got 7"),
            ({"regressors": [None]}, "regressor must be an object, got None"),
        ],
    )
    def test_non_object_spec_entry_is_a_schema_error(self, data, fragment):
        with pytest.raises(SchemaError, match=fragment):
            config_from_dict(data)
