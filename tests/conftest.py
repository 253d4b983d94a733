import os
from pathlib import Path

import numpy as np
import pytest

from addcast.timeseries import TimeSeries, parse_iso_date

# pyproject.toml puts src/ on this process's path; tests that start
# `python -m addcast` need it too when the package is not installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def daily_days(start_iso: str, n: int) -> np.ndarray:
    start = parse_iso_date(start_iso)
    return np.arange(start, start + n, dtype=np.int64)


def make_series(start_iso: str, values) -> TimeSeries:
    values = np.asarray(values, dtype=np.float64)
    return TimeSeries(daily_days(start_iso, len(values)), values)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_temporary_output_files(request):
    """Fail a test that leaves one of ``write_output``'s temporary files
    (``.<name>.<pid>.tmp``) in its ``tmp_path``."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    tmp_path = request.getfixturevalue("tmp_path")
    yield
    left = sorted(p.name for p in tmp_path.rglob(".*.tmp"))
    if left:
        pytest.fail(f"temporary output files left behind: {left}")
