import json

import numpy as np
import pytest

from addcast.config import ModelConfig, SeasonalitySpec, TrendSpec, load_config
from addcast.errors import SchemaError, UnsupportedVersion
from addcast.estimator import FittedModel, fit
from addcast.features import TimeScaling
from addcast.forecast import forecast_with_intervals, make_future_grid, predict
from addcast.persistence import (
    canonical_json_bytes,
    config_digest,
    dataset_digest,
    load_model,
    make_manifest,
    model_from_document,
    model_to_document,
    save_model,
    sha256_hex,
    write_manifest,
)
from addcast.timeseries import TimeSeries

from conftest import daily_days


@pytest.fixture
def fitted(rng):
    n = 160
    days = daily_days("2021-01-01", n)
    y = 4.0 + 0.01 * np.arange(n) + rng.normal(0, 0.2, n)
    ts = TimeSeries(days, y)
    config = ModelConfig(
        trend=TrendSpec(n_changepoints=4),
        seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),),
        interval_samples=200,
    )
    return ts, config, fit(ts, config)


class TestModelDocument:
    def test_roundtrip_predictions_bit_identical(self, fitted, tmp_path):
        _, _, model = fitted
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        grid_a = make_future_grid(model, 30)
        grid_b = make_future_grid(restored, 30)
        fc_a = forecast_with_intervals(model, grid_a, seed=5)
        fc_b = forecast_with_intervals(restored, grid_b, seed=5)
        assert np.array_equal(fc_a.yhat, fc_b.yhat)
        for level in fc_a.bounds:
            assert np.array_equal(fc_a.bounds[level][0], fc_b.bounds[level][0])
            assert np.array_equal(fc_a.bounds[level][1], fc_b.bounds[level][1])

    def test_refit_byte_identical_documents(self, fitted):
        ts, config, model = fitted
        again = fit(ts, config)
        assert canonical_json_bytes(model_to_document(model)) == canonical_json_bytes(
            model_to_document(again)
        )

    def test_unknown_version_rejected(self, fitted):
        _, _, model = fitted
        data = model_to_document(model)
        data["format_version"] = 99
        with pytest.raises(UnsupportedVersion):
            model_from_document(data)

    def test_version_1_rejected(self, fitted):
        # a version 1 logistic m is the midpoint of k * (t - m), not the
        # trend line's offset, so reading it as version 2 would misread it
        _, _, model = fitted
        data = model_to_document(model)
        assert data["format_version"] == 2
        data["format_version"] = 1
        with pytest.raises(UnsupportedVersion, match="format_version 1"):
            model_from_document(data)

    def test_missing_key_rejected(self, fitted):
        _, _, model = fitted
        data = model_to_document(model)
        del data["parameters"]
        with pytest.raises(SchemaError):
            model_from_document(data)

    def test_wrong_block_width_rejected(self, fitted):
        _, _, model = fitted
        data = model_to_document(model)
        data["parameters"]["blocks"][0]["values"].append(0.0)
        with pytest.raises(SchemaError):
            model_from_document(data)

    @pytest.mark.parametrize("edit", ["shifted_widths", "renamed", "kind"])
    def test_block_layout_mismatch_rejected(self, edit):
        days = daily_days("2021-01-01", 60)
        model = FittedModel(
            config=ModelConfig(),  # yearly (20 values) and weekly (8 values)
            k=0.1, m=1.0, delta=[], beta=np.arange(28.0), sigma=0.1,
            scaling=TimeScaling(float(days[0]), 59.0), y_scale=1.0,
            changepoints_scaled=[], train_timestamps=days,
        )
        data = model_to_document(model)
        model_from_document(data)
        yearly, weekly = data["parameters"]["blocks"]
        if edit == "shifted_widths":  # 19 + 9 keeps the total at 28
            weekly["values"].insert(0, yearly["values"].pop())
        elif edit == "renamed":
            weekly["name"] = "daily"
        else:
            weekly["kind"] = "holidays"
        with pytest.raises(SchemaError, match="coefficient blocks"):
            model_from_document(data)

    def test_all_zero_deltas_forecast_as_no_changepoints(self, fitted):
        # the simulator returns early on a zero changepoint rate scale
        _, _, model = fitted
        zero = model_to_document(model)
        zero["parameters"]["delta"] = [0.0] * len(zero["parameters"]["delta"])
        none = model_to_document(model)
        none["parameters"]["delta"] = none["parameters"]["changepoints"] = []
        fc_zero, fc_none = (
            forecast_with_intervals(m, make_future_grid(m, 30), seed=5)
            for m in map(model_from_document, (zero, none))
        )
        assert np.array_equal(fc_zero.yhat, fc_none.yhat)
        assert fc_zero.components.keys() == fc_none.components.keys()
        for name in fc_zero.components:
            assert np.array_equal(fc_zero.components[name], fc_none.components[name])
        assert fc_zero.bounds.keys() == fc_none.bounds.keys()
        for level in fc_zero.bounds:
            assert np.array_equal(fc_zero.bounds[level], fc_none.bounds[level])

    def test_tampering_is_digest_evident(self, fitted):
        _, _, model = fitted
        doc_bytes = canonical_json_bytes(model_to_document(model))
        original_digest = sha256_hex(doc_bytes)
        data = json.loads(doc_bytes)
        data["parameters"]["delta"][0] += 0.5
        assert sha256_hex(canonical_json_bytes(data)) != original_digest
        # and the edit genuinely changes predictions
        edited = model_from_document(data)
        grid = make_future_grid(model, 10)
        grid_e = make_future_grid(edited, 10)
        assert not np.array_equal(predict(model, grid).yhat, predict(edited, grid_e).yhat)

    def test_float_binary_exactness(self, fitted, tmp_path):
        _, _, model = fitted
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.k == model.k
        assert restored.sigma == model.sigma
        assert np.array_equal(restored.delta, model.delta)
        assert np.array_equal(restored.beta, model.beta)

    def test_logistic_model_roundtrip(self, rng, tmp_path):
        n = 200
        days = daily_days("2021-01-01", n)
        t = np.arange(n) / (n - 1)
        y = 6.0 / (1.0 + np.exp(-5.0 * (t - 0.4))) + rng.normal(0, 0.05, n)
        ts = TimeSeries(days, y)
        config = ModelConfig(
            trend=TrendSpec(growth="logistic", n_changepoints=3, capacity=7.0),
            seasonalities=(),
            interval_samples=150,
        )
        model = fit(ts, config)
        path = tmp_path / "logistic.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.config.trend.capacity == 7.0
        grid = make_future_grid(model, 20)
        grid_r = make_future_grid(restored, 20)
        assert np.array_equal(predict(model, grid).yhat, predict(restored, grid_r).yhat)


class TestCanonicalJson:
    def test_key_order_independent(self):
        a = canonical_json_bytes({"b": 1, "a": [1.5, 2.25]})
        b = canonical_json_bytes({"a": [1.5, 2.25], "b": 1})
        assert a == b

    def test_shortest_roundtrip_floats(self):
        x = 0.1 + 0.2
        data = json.loads(canonical_json_bytes({"x": x}))
        assert data["x"] == x

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json_bytes({"x": float("nan")})


class TestDigests:
    def test_config_digest_whitespace_invariant(self, tmp_path):
        compact = tmp_path / "a.json"
        spaced = tmp_path / "b.json"
        compact.write_text('{"trend":{"n_changepoints":3},"seasonalities":[]}')
        spaced.write_text(
            '{\n  "trend": {\n    "n_changepoints": 3\n  },\n  "seasonalities": []\n}\n'
        )
        assert config_digest(load_config(compact)) == config_digest(load_config(spaced))

    def test_dataset_digest_sensitivity(self, rng):
        days = daily_days("2020-01-01", 30)
        a = TimeSeries(days, rng.normal(0, 1, 30))
        b = TimeSeries(days, a.values + 1e-12)
        assert dataset_digest(a) != dataset_digest(b)
        assert dataset_digest(a) == dataset_digest(TimeSeries(days, a.values.copy()))


class TestManifest:
    def test_roundtrip(self, fitted, tmp_path):
        ts, config, _ = fitted
        manifest = make_manifest(42, config, ts, {"m": {"rmse": 1.0}})
        path = tmp_path / "run.json"
        write_manifest(manifest, path)
        assert json.loads(path.read_text()) == manifest

    def test_determinism_up_to_wall_clock(self, fitted):
        ts, config, _ = fitted
        a = make_manifest(42, config, ts, {"m": {"rmse": 1.0}})
        b = make_manifest(42, config, ts, {"m": {"rmse": 1.0}})
        a.pop("created_at")
        b.pop("created_at")
        assert a == b

    def test_changed_dataset_changes_digest(self, fitted):
        ts, config, _ = fitted
        other = TimeSeries(ts.timestamps, ts.values * 1.0001)
        a = make_manifest(42, config, ts, {})
        b = make_manifest(42, config, other, {})
        assert a["dataset_digest"] != b["dataset_digest"]
        assert a["config_digest"] == b["config_digest"]
