"""Bit-exact model serialization and reproducibility run-manifests.

Documents are canonical JSON: sorted keys, compact separators, floats as
shortest round-trip decimals. Equal models therefore produce byte-identical
documents, and SHA-256 digests of the canonical bytes are stable identifiers
for configs and datasets.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone

from . import __version__
from .config import ModelConfig, config_from_dict, config_to_dict, read_json
from .errors import SchemaError, UnsupportedVersion
from .estimator import FittedModel
from .features import TimeScaling, model_layout
from .timeseries import TimeSeries, format_epoch_day, write_output

# Version 2: m is the value at t = 0 of the trend line k * t + m for both
# growths; in version 1 a logistic m was the midpoint of k * (t - m).
FORMAT_VERSION = 2


def canonical_json_bytes(obj) -> bytes:
    """Canonical UTF-8 JSON: sorted keys, no whitespace, no NaN/Inf."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config_form(config):
    if isinstance(config, ModelConfig):
        return config_to_dict(config)
    return config if isinstance(config, dict) else [_config_form(c) for c in config]


def config_digest(config) -> str:
    """Content hash of the canonical config form; whitespace-only edits of a
    config file do not change it. A list (the candidates of a compare run,
    ModelConfigs or baseline dicts) hashes as the list of their forms."""
    return sha256_hex(canonical_json_bytes(_config_form(config)))


def dataset_digest(ts: TimeSeries) -> str:
    values = [None if math.isnan(v) else float(v) for v in ts.values]
    payload = {
        # a constant, so that the digests equal those of earlier versions
        "name": "y",
        "timestamps": [int(t) for t in ts.timestamps],
        "values": values,
    }
    return sha256_hex(canonical_json_bytes(payload))


def model_to_document(model: FittedModel) -> dict:
    """The model document: the dict whose canonical bytes ``save_model``
    writes, and which ``model_from_document`` reads back bit-exactly."""
    layout = model.layout
    blocks = [
        {"kind": b.kind, "name": b.name, "values": model.beta[layout.beta_slice(b)].tolist()}
        for b in layout.coefficients
    ]
    return {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(model.config),
        "parameters": {
            "k": model.k,
            "m": model.m,
            "delta": [float(v) for v in model.delta],
            "changepoints": [float(v) for v in model.changepoints_scaled],
            "blocks": blocks,
            "sigma": model.sigma,
        },
        "scaling": {
            "t_start": model.scaling.t_start,
            "t_span": model.scaling.t_span,
            "y_scale": model.y_scale,
        },
        "train_summary": {
            "n_obs": model.n_obs,
            "first": format_epoch_day(model.first_day),
            "last": format_epoch_day(model.last_day),
            "timestamps": [int(t) for t in model.train_timestamps],
        },
    }


def model_from_document(data) -> FittedModel:
    """The model of a document dict. A non-object is a SchemaError, a
    format_version other than FORMAT_VERSION is UnsupportedVersion, and a
    missing top-level key or a malformed value is a SchemaError."""
    if not isinstance(data, dict):
        raise SchemaError("model document must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"unsupported format_version {version!r}")
    for key in ("config", "parameters", "scaling", "train_summary"):
        if key not in data:
            raise SchemaError(f"model document missing key {key!r}")
    params, scaling = data["parameters"], data["scaling"]
    try:
        config = config_from_dict(data["config"])
        layout = model_layout(config, len(params["changepoints"]))
        found = [(b["kind"], b["name"], len(b["values"])) for b in params["blocks"]]
        expected = [(b.kind, b.name, b.width) for b in layout.coefficients]
        if found != expected:
            raise SchemaError(
                f"coefficient blocks (kind, name, width) are {found}, expected {expected}"
            )
        model = FittedModel(
            config=config,
            k=float(params["k"]),
            m=float(params["m"]),
            delta=params["delta"],
            beta=[v for b in params["blocks"] for v in b["values"]],
            sigma=float(params["sigma"]),
            scaling=TimeScaling(float(scaling["t_start"]), float(scaling["t_span"])),
            y_scale=float(scaling["y_scale"]),
            changepoints_scaled=params["changepoints"],
            train_timestamps=data["train_summary"]["timestamps"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from None
    if len(model.delta) != len(model.changepoints_scaled):
        raise SchemaError("delta and changepoints length mismatch")
    return model


def save_model(model: FittedModel, path) -> None:
    write_output(path, canonical_json_bytes(model_to_document(model)))


def load_model(path) -> FittedModel:
    return model_from_document(read_json(path))


def make_manifest(seed: int, config, ts: TimeSeries, metrics: dict) -> dict:
    """Record of one run on ``ts``: seed, content digests, and metric
    reports; ``config`` is a ModelConfig or a list as taken by
    config_digest.

    Output bytes are a function of the inputs, flags, seed, numpy build,
    OpenBLAS core kernel and numpy SIMD level, and not of the BLAS thread
    count. Re-running with equal digests, flags and seed on the same numpy
    build, kernel and SIMD level reproduces equal metrics, and only
    created_at (wall clock, UTC ISO-8601) differs; another kernel or SIMD
    level may change their last digits.
    """
    return {
        "seed": int(seed),
        "version": __version__,
        "config_digest": config_digest(config),
        "dataset_digest": dataset_digest(ts),
        "metrics": metrics,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, path) -> None:
    write_output(path, canonical_json_bytes(manifest))
