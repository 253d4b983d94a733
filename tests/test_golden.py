"""Pinned SHA-256 digests of every file the CLI writes for two small seeded
models, and of compare reports over every candidate kind, so a change that
alters any output byte shows here.

The linear model has additive seasonality, a holiday and a regressor; the
logistic one mixes a multiplicative and an additive seasonal block. Together
they cover every coefficient block kind.

Output bytes are a function of the inputs, flags, seed, numpy build,
OpenBLAS core kernel and numpy SIMD level, and not of the BLAS thread
count. The digests were produced on x86_64 with Python 3.11.7, numpy 2.4.6
and the OpenBLAS 0.3.31 that numpy's wheel bundles (scipy-openblas64), with
the SkylakeX kernel and AVX512 dispatch; the package imports nothing else.
They hold with one BLAS thread as with two, and at AVX2-level dispatch
(numpy's AVX512 targets turned off), which tests check in fresh processes.
The inputs of both tests are exact in float64 and built without numpy, so
they do not change there; of the numpy functions the package calls,
np.tanh, sin, cos and sqrt give the same bits there, and np.log, which
only the logistic start and the log transform call, differs in the last
bit on about 0.2% of inputs, which changes none of these digests.
Another kernel (OPENBLAS_CORETYPE=Haswell) changes the last digits of
every output, so these tests fail there; a test below runs the flow under
that kernel and holds every number it writes to the reference within
CROSS_KERNEL_TOLERANCE instead. A deliberate change to numeric output
updates these digests and says why in CHANGES.md.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    __cpu_features__ = {}

from addcast.cli import main
from addcast.timeseries import format_epoch_day

from conftest import daily_days

N_DAYS = 240
CUTOFF_INDEX = 200

GOLDEN = {
    "linear": {
        "model": "963aae20dd4d8d625b6b2192b1e06b0ecaf49e309fcf968a6ba93e7a79848596",
        "forecast": "be44bf51152d7a6ad89813cd569761b6675e49ad231168619fd557d48f104a4f",
        "folds": "966e896ca96860e0fdb7c2867d9c414b0f086da51bad6d5126c722ced384ce6e",
        "metrics": "2456177907f0db00b51a2937aa8583af5e0d689b3d93ba46bd8716ddb16bc9d4",
    },
    "logistic": {
        "model": "4ce7244b00461545acd738d1621c6d204f11a34045fe80af7158245e151758c2",
        "forecast": "081664cffa37282bed20cf428b61a6f9b5d5db572ab6567c0fdd24e16873c611",
        "folds": "8d11b8dfcce871aea215940160aaac472c3796df997cf0df23b1b7c16f71435a",
        "metrics": "49399af7c3b2282fd52208845bf28e40881b9a99771be46089dc5933116ceff6",
    },
    "compare": "c3a3e4de700fa84d5700faecf06010c0740e4385408d675336a4d7df62fc784c",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The inputs are exact in float64 and built without numpy, like
# GOLDEN_COMPARE's: the trend is a smoothstep S-curve from 2 that saturates
# at 8 after 136 days, 2 + 6 * (3p^2 - 2p^3) with p = min(max(i - 8, 0), 128)
# / 128, and every other term is a small integer over a power of two.


def _write_inputs(tmp_path):
    days = daily_days("2022-01-01", N_DAYS).tolist()
    x = [((i * 40503 + 7) % 61 - 30) / 16 for i in range(N_DAYS)]
    y = []
    for i, d in enumerate(days):
        p = min(max(i - 8, 0), 128) / 128
        y.append(
            2.0
            + 6 * (3 * p * p - 2 * p * p * p)
            + WEEKLY[d % 7] / 8
            + abs(i % 30 - 15) / 32
            + (0.75 if d % 30 in (0, 1) else 0.0)
            + x[i] / 4
            + ((i * 7919 + 13) % 97 - 48) / 512
        )
    data = tmp_path / "data.csv"
    data.write_text(
        "ds,y\n"
        + "".join(f"{format_epoch_day(d)},{v!r}\n" for d, v in zip(days, y))
    )
    future = tmp_path / "future.csv"
    future.write_text(
        "ds,x\n"
        + "".join(f"{format_epoch_day(days[-1] + i)},{i / 8!r}\n" for i in range(1, 15))
    )
    linear = {
        "name": "linear",
        "trend": {"n_changepoints": 4},
        "seasonalities": [
            {"name": "weekly", "period": 7.0, "fourier_order": 2},
            {"name": "monthly", "period": 30.5, "fourier_order": 1, "prior_scale": 5.0},
        ],
        "holidays": [
            {
                "name": "payday",
                "dates": [format_epoch_day(d) for d in days if d % 30 == 0],
                "upper_window": 1,
                "prior_scale": 2.0,
            }
        ],
        "regressors": [
            {
                "name": "x",
                "prior_scale": 1.0,
                "values": {format_epoch_day(d): v for d, v in zip(days, x)},
            }
        ],
        "interval_samples": 100,
        "seed": 11,
    }
    logistic = {
        "name": "logistic",
        "trend": {"growth": "logistic", "n_changepoints": 3, "capacity": 12.0},
        "seasonalities": [
            {"name": "weekly", "period": 7.0, "fourier_order": 2, "mode": "multiplicative"},
            {"name": "monthly", "period": 30.5, "fourier_order": 1},
        ],
        "interval_levels": [0.5, 0.95],
        "interval_samples": 100,
        "seed": 5,
    }
    paths = {}
    for name, config in (("linear", linear), ("logistic", logistic)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    return data, future, paths, days


def golden_digests(tmp_path) -> dict:
    """Run the CLI over ``_write_inputs`` in ``tmp_path``; the digests of
    what it wrote, in GOLDEN's shape."""
    data, future, configs, days = _write_inputs(tmp_path)
    digests = {}
    for name, config in configs.items():
        model = tmp_path / f"{name}.model.json"
        forecast = tmp_path / f"{name}.forecast.csv"
        folds = tmp_path / f"{name}.folds.csv"
        assert main(["fit", "--input", str(data), "--config", str(config),
                     "--output", str(model)]) == 0
        assert main(["predict", "--input", str(model), str(future), "--periods", "14",
                     "--output", str(forecast)]) == 0
        assert main(["cv", "--input", str(data), "--config", str(config),
                     "--initial-days", "150", "--period-days", "40",
                     "--horizon-days", "30", "--output", str(folds)]) == 0
        digests[name] = {
            "model": _sha256(model),
            "forecast": _sha256(forecast),
            "folds": _sha256(folds),
            "metrics": _sha256(tmp_path / f"{name}.folds.csv.metrics.json"),
        }
    naive = tmp_path / "naive.json"
    naive.write_text(json.dumps({"baseline": "seasonal_naive", "period": 7}))
    report = tmp_path / "compare.json"
    assert main(["compare", "--input", str(data),
                 "--config", str(configs["linear"]), str(configs["logistic"]), str(naive),
                 "--cutoff", format_epoch_day(days[CUTOFF_INDEX]),
                 "--output", str(report), "--seed", "3"]) == 0
    digests["compare"] = _sha256(report)
    return digests


def test_cli_outputs_match_pinned_digests(tmp_path, capsys):
    digests = golden_digests(tmp_path)
    capsys.readouterr()
    assert digests == GOLDEN


def digests_in_fresh_process(tmp_path, **env) -> dict:
    """``golden_digests`` run by ``addcast.cli.main`` in a new interpreter
    whose environment adds ``env``."""
    script = (
        "import json, pathlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_golden import golden_digests\n"
        "digests = golden_digests(pathlib.Path(sys.argv[2]))\n"
        "pathlib.Path(sys.argv[2], 'digests.json').write_text(json.dumps(digests))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent), str(tmp_path)],
        env=dict(os.environ, **env), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "digests.json").read_text())


# The CLI entry runs BLAS on one thread unless OPENBLAS_NUM_THREADS is set,
# while the in-process tests above run at the library default.
@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_outputs_match_pinned_digests_at_each_blas_thread_count(tmp_path, threads):
    assert digests_in_fresh_process(tmp_path, OPENBLAS_NUM_THREADS=threads) == GOLDEN


# numpy's dispatch targets above AVX2; the AVX2 test turns them off.
AVX512_TARGETS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


@pytest.mark.skipif(
    not all(__cpu_features__.get(name) for name in AVX512_TARGETS),
    reason="needs the AVX512 dispatch targets active, to turn them off",
)
def test_cli_outputs_match_pinned_digests_at_avx2_dispatch(tmp_path):
    digests = digests_in_fresh_process(
        tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS)
    )
    assert digests == GOLDEN


def _dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS was built with DYNAMIC_ARCH, which lets
    OPENBLAS_CORETYPE choose its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26, or no BLAS entry
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# Measured under OPENBLAS_CORETYPE=Haswell against the SkylakeX kernel, the
# largest |b - a| / max(1, |a|) over every number written is 2.0e-15 (a linear
# forecast value near 0.76), about 500 times below this tolerance.
CROSS_KERNEL_TOLERANCE = 1e-12


def _written(path):
    """The content of an output file: a CSV file as its rows, each field a
    float when it reads as one, and a JSON file as its value, less a
    manifest's wall-clock ``created_at``."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [[_number_or_text(field) for field in row] for row in csv.reader(fh)]
    value = json.loads(path.read_text())
    value.pop("created_at", None)
    return value


def _number_or_text(field: str):
    try:
        return float(field)
    except ValueError:
        return field


def assert_agrees(reference, other, where=""):
    """``other`` equals ``reference`` apart from its numbers, each within
    CROSS_KERNEL_TOLERANCE * max(1, |reference|) of the reference's."""
    if isinstance(reference, dict):
        assert isinstance(other, dict) and sorted(other) == sorted(reference), where
        for key, value in reference.items():
            assert_agrees(value, other[key], f"{where}/{key}")
    elif isinstance(reference, list):
        assert isinstance(other, list) and len(other) == len(reference), where
        for i, (a, b) in enumerate(zip(reference, other)):
            assert_agrees(a, b, f"{where}/{i}")
    elif isinstance(reference, (int, float)) and not isinstance(reference, bool):
        assert isinstance(other, (int, float)) and not isinstance(other, bool), where
        assert abs(other - reference) <= CROSS_KERNEL_TOLERANCE * max(1.0, abs(reference)), (
            where, reference, other
        )
    else:
        assert other == reference, where


@pytest.mark.skipif(
    not (_dynamic_arch() and __cpu_features__.get("AVX2")),
    reason="needs an OpenBLAS built with DYNAMIC_ARCH and an AVX2 CPU to run its Haswell kernel",
)
def test_cli_outputs_agree_under_another_blas_kernel(tmp_path, capsys):
    reference, haswell = tmp_path / "reference", tmp_path / "haswell"
    reference.mkdir()
    haswell.mkdir()
    golden_digests(reference)
    capsys.readouterr()
    digests_in_fresh_process(haswell, OPENBLAS_CORETYPE="Haswell")
    outputs = [f"{name}.{suffix}" for name in ("linear", "logistic")
               for suffix in ("model.json", "forecast.csv", "folds.csv", "folds.csv.metrics.json")]
    outputs += ["compare.json", "compare.json.manifest.json"]
    for name in outputs:
        assert_agrees(_written(reference / name), _written(haswell / name), name)


# Compare over a model and every baseline kind, plain and --weekdays-only.
# The series is exact in float64: each term is a small integer over a power
# of two and every sum a multiple of 1/64 below 128, with no numpy call, so
# its CSV text does not depend on the numpy build or SIMD level. The training part holds more than the 366
# rows lag_linear needs, weekdays only as well.
COMPARE_DAYS = 560
COMPARE_CUTOFF_INDEX = 529
WEEKLY = (0, 3, 5, 4, 2, -1, -3)

GOLDEN_COMPARE = {
    "plain": "c1575c6afecb27373ab668cce662b190de2271057c303592591d3fd93966e81a",
    "weekdays": "252a7d562fc681066fb6a0d90feff53c6c87a9618e587c9effca26f6202bfaaa",
}


def _write_compare_inputs(tmp_path):
    days = daily_days("2021-01-01", COMPARE_DAYS)
    lines = ["ds,y"]
    for i, d in enumerate(days.tolist()):
        y = (
            50.0
            + i / 16
            + WEEKLY[d % 7] / 2
            + abs(i % 365 - 182) / 32
            + ((i * 7919 + 13) % 97 - 48) / 64
        )
        lines.append(f"{format_epoch_day(d)},{y!r}")
    data = tmp_path / "series.csv"
    data.write_text("\n".join(lines) + "\n")
    candidates = {
        "additive": {
            "trend": {"n_changepoints": 5},
            "seasonalities": [
                {"name": "yearly", "period": 365.25, "fourier_order": 2},
                {"name": "weekly", "period": 7.0, "fourier_order": 3},
            ],
            "interval_samples": 100,
            "seed": 7,
        },
        "naive": {"baseline": "naive"},
        "snaive": {"baseline": "seasonal_naive", "period": 7},
        "lag": {"baseline": "lag_linear"},
    }
    paths = []
    for name, config in candidates.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(config))
    return data, paths, format_epoch_day(int(days[COMPARE_CUTOFF_INDEX]))


def test_compare_of_every_candidate_kind_matches_pinned_digests(tmp_path, capsys):
    data, configs, cutoff = _write_compare_inputs(tmp_path)
    digests = {}
    for variant, flags in (("plain", []), ("weekdays", ["--weekdays-only"])):
        report = tmp_path / f"{variant}.json"
        assert main(["compare", "--input", str(data), "--config", *map(str, configs),
                     "--cutoff", cutoff, "--output", str(report), *flags]) == 0
        payload = json.loads(report.read_text())
        assert sorted(payload["models"]) == ["additive", "lag", "naive", "snaive"]
        for entry in payload["models"].values():
            assert entry["n_predicted"] == payload["n_test_points"]
        digests[variant] = _sha256(report)
    capsys.readouterr()
    assert digests == GOLDEN_COMPARE
