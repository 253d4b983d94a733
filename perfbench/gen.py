"""Seeded input generator for the benchmark workloads.

Everything the program under test receives is a file written here: series
CSVs, model and baseline config JSONs (holiday definitions live inside the
logistic configs, the only place the CLI reads them from). The same
(workload, seed) always writes the same bytes. Each pool item also gets a
``meta.json`` with the generating parameters the output checks need, such as
the noise standard deviation.
"""

from __future__ import annotations

import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

START = date(2020, 1, 1)
YEAR = 365.25

# Each pool is larger than the number of ops a 30-second run makes, so a run
# times distinct inputs and its median does not hang on a few of them.
POOL_SIZE = {"cv_linear_2y": 60, "cv_logistic_3y": 24, "cli_cold": 15}

CV_FLAGS = {
    "cv_linear_2y": {"initial": 365, "period": 90, "horizon": 90, "folds": 4},
    "cv_logistic_3y": {"initial": 730, "period": 90, "horizon": 30, "folds": 4},
}
LINEAR_DAYS = 730
LOGISTIC_DAYS = 1095
COMPARE_DAYS = 1095
PREDICT_PERIODS = 90
COMPARE_HOLDOUT = 90


def iso(day_index: int) -> str:
    return (START + timedelta(days=int(day_index))).isoformat()


def _write_series(path: Path, y: np.ndarray) -> None:
    lines = ["ds,y"] + [f"{iso(i)},{float(v)!r}" for i, v in enumerate(y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fourier(t_days: np.ndarray, period: float, amplitudes) -> np.ndarray:
    out = np.zeros(len(t_days))
    for order, (a, b) in enumerate(amplitudes, start=1):
        x = 2.0 * np.pi * order * t_days / period
        out += a * np.sin(x) + b * np.cos(x)
    return out


def linear_series(rng: np.random.Generator, n_days: int) -> tuple[np.ndarray, float]:
    """Linear trend + yearly + weekly seasonality + Gaussian noise; returns
    (values, noise sd)."""
    t = np.arange(n_days, dtype=np.float64)
    level = rng.uniform(80.0, 120.0)
    slope = rng.uniform(5.0, 20.0) / YEAR
    yearly = _fourier(t, YEAR, rng.uniform(-6.0, 6.0, (3, 2)))
    weekly = _fourier(t, 7.0, rng.uniform(-3.0, 3.0, (2, 2)))
    sigma = rng.uniform(1.5, 2.5)
    y = level + slope * t + yearly + weekly + rng.normal(0.0, sigma, n_days)
    return y, float(sigma)


def _holidays(rng: np.random.Generator, n_days: int) -> list[dict]:
    """Eight holidays recurring on a fixed day of each year, 1-day windows."""
    days_of_year = np.sort(rng.choice(np.arange(5, 360), size=8, replace=False))
    holidays = []
    for h, doy in enumerate(days_of_year):
        dates = [iso(int(doy + round(year * YEAR))) for year in range(n_days // 365 + 2)]
        holidays.append(
            {"name": f"holiday_{h}", "dates": dates, "lower_window": 0, "upper_window": 1}
        )
    return holidays


def logistic_series(rng: np.random.Generator, n_days: int):
    """Saturating growth with multiplicative seasonality and holiday bumps;
    returns (values, noise sd, model config)."""
    t = np.arange(n_days, dtype=np.float64)
    ceiling = rng.uniform(900.0, 1100.0)
    rate = rng.uniform(2.0, 3.0) / YEAR
    midpoint = rng.uniform(0.9, 1.4) * YEAR
    trend = ceiling / (1.0 + np.exp(-rate * (t - midpoint)))
    seasonal = _fourier(t, YEAR, rng.uniform(-0.04, 0.04, (2, 2)))
    seasonal += _fourier(t, 7.0, rng.uniform(-0.02, 0.02, (1, 2)))
    holidays = _holidays(rng, n_days)
    bumps = np.zeros(n_days)
    for spec in holidays:
        effect = rng.uniform(20.0, 50.0) * rng.choice([-1.0, 1.0])
        for ds in spec["dates"]:
            first = (date.fromisoformat(ds) - START).days
            for d in (first, first + 1):
                if 0 <= d < n_days:
                    bumps[d] += effect
    sigma = rng.uniform(8.0, 12.0)
    y = trend * (1.0 + seasonal) + bumps + rng.normal(0.0, sigma, n_days)
    config = {
        # The capacity is the ceiling of the generating trend, above the
        # trend everywhere. Seasonal peaks and holiday bumps may exceed it; a
        # capacity 10% higher leaves the model unable to saturate in time and
        # gave holdout RMSE of 6-10 noise sd.
        "trend": {"growth": "logistic", "capacity": round(ceiling, 3)},
        "seasonalities": [
            {"name": "yearly", "period": YEAR, "fourier_order": 10, "mode": "multiplicative"},
            {"name": "weekly", "period": 7.0, "fourier_order": 4, "mode": "multiplicative"},
        ],
        "holidays": holidays,
        "interval_samples": 100,
        "seed": int(rng.integers(0, 2**31)),
    }
    return y, float(sigma), config


def generate(workload: str, seed: int, root: Path) -> list[Path]:
    """Write the pool for ``workload`` under ``root``; return the item dirs."""
    if workload not in POOL_SIZE:
        raise ValueError(f"unknown workload {workload!r}")
    root.mkdir(parents=True, exist_ok=True)
    streams = np.random.SeedSequence([seed, sorted(POOL_SIZE).index(workload)])
    items = []
    for i, child in enumerate(streams.spawn(POOL_SIZE[workload])):
        rng = np.random.default_rng(child)
        item = root / f"item{i:02d}"
        item.mkdir(exist_ok=True)
        meta = {"item": i}
        if workload == "cv_linear_2y":
            y, meta["sigma"] = linear_series(rng, LINEAR_DAYS)
            _write_series(item / "series.csv", y)
            _write_json(item / "model.json", {"seed": int(rng.integers(0, 2**31))})
        elif workload == "cv_logistic_3y":
            y, meta["sigma"], config = logistic_series(rng, LOGISTIC_DAYS)
            _write_series(item / "series.csv", y)
            _write_json(item / "model.json", config)
        else:
            y, meta["sigma"] = linear_series(rng, LINEAR_DAYS)
            _write_series(item / "train.csv", y)
            _write_json(item / "model.json", {"seed": int(rng.integers(0, 2**31))})
            y, meta["compare_sigma"] = linear_series(rng, COMPARE_DAYS)
            _write_series(item / "compare.csv", y)
            meta["cutoff"] = iso(COMPARE_DAYS - 1 - COMPARE_HOLDOUT)
            _write_json(
                item / "additive.json",
                {"name": "additive", "interval_samples": 200,
                 "seed": int(rng.integers(0, 2**31))},
            )
            _write_json(item / "naive.json", {"name": "naive", "baseline": "naive"})
            _write_json(
                item / "seasonal_naive.json",
                {"name": "seasonal_naive", "baseline": "seasonal_naive", "period": 7},
            )
            _write_json(item / "lag_linear.json", {"name": "lag_linear", "baseline": "lag_linear"})
        _write_json(item / "meta.json", meta)
        items.append(item)
    return items
