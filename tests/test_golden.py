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
They hold with one BLAS thread as with the default. Another kernel
(OPENBLAS_CORETYPE=Haswell) changes the last digits of every output, so
both tests fail there. GOLDEN's inputs are built with numpy ufuncs, whose
bits change at AVX2-level dispatch, so GOLDEN fails there too although
addcast's outputs for equal inputs do not change; GOLDEN_COMPARE's inputs
are exact in float64 and it passes there. A deliberate change to numeric
output updates these digests and says why in CHANGES.md.
"""

import hashlib
import json

import numpy as np

from addcast.cli import main
from addcast.timeseries import format_epoch_day

from conftest import daily_days

N_DAYS = 240
CUTOFF_INDEX = 200

GOLDEN = {
    "linear": {
        "model": "8fd762e668066022b87d70b03621246e0f0c7ae164404291ea503744cc5f9aa3",
        "forecast": "0a3047b898ede0878d6c0def2a696462ff1cacf231ae9496e600410469c0b259",
        "folds": "05976f28d61f20d46ee77df014174a6a5c31d4bc1c202d541642bcfc2df0ec3d",
        "metrics": "298d8d441cd3a29faf1fdf2ae912a4bd8888fdb50bde23bbc3c0a9ce2f1fdb4c",
    },
    "logistic": {
        "model": "d3773ccf8cd262b273ea248a318eff575e493eb186f709be0a1ad4bbc5a75111",
        "forecast": "24ff814908a33d2c4e384864d175806aa0542ff7c9b1c49788bb2e16073c59d9",
        "folds": "8af6e61793b62cd801d6cb674219d57a9353411f13fef0b376fac24b6e122c45",
        "metrics": "c169cbbcbe7d5f2fcbcff713071bb0f1af3e42575306bdc7bb9c9490c53e0a36",
    },
    "compare": "5d37409b89a7d1e90330c190f6e5534019b64c2f6945e4892fabb4a2dcf805c4",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_inputs(tmp_path):
    rng = np.random.default_rng(20240601)
    days = daily_days("2022-01-01", N_DAYS)
    t = np.arange(N_DAYS) / N_DAYS
    x = rng.normal(0.0, 1.0, N_DAYS)
    holiday = np.isin(days % 30, (0, 1)).astype(float)
    y = (
        8.0 / (1.0 + np.exp(-4.0 * (t - 0.3)))
        + 0.6 * np.sin(2 * np.pi * days / 7.0)
        + 0.3 * np.cos(2 * np.pi * days / 30.5)
        + 0.8 * holiday
        + 0.4 * x
        + rng.normal(0.0, 0.1, N_DAYS)
    )
    data = tmp_path / "data.csv"
    data.write_text(
        "ds,y\n"
        + "".join(f"{format_epoch_day(int(d))},{float(v)!r}\n" for d, v in zip(days, y))
    )
    future = tmp_path / "future.csv"
    future.write_text(
        "ds,x\n"
        + "".join(f"{format_epoch_day(int(days[-1]) + i)},{0.1 * i!r}\n" for i in range(1, 15))
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
                "dates": [format_epoch_day(int(d)) for d in days if d % 30 == 0],
                "upper_window": 1,
                "prior_scale": 2.0,
            }
        ],
        "regressors": [
            {
                "name": "x",
                "prior_scale": 1.0,
                "values": {format_epoch_day(int(d)): float(v) for d, v in zip(days, x)},
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


def test_cli_outputs_match_pinned_digests(tmp_path, capsys):
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
                 "--cutoff", format_epoch_day(int(days[CUTOFF_INDEX])),
                 "--output", str(report), "--seed", "3"]) == 0
    digests["compare"] = _sha256(report)
    capsys.readouterr()
    assert digests == GOLDEN


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
