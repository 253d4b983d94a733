"""One workload process: import, one warm-up op, then a closed loop of timed
ops with a single caller until the time is up.

``run.py`` starts this script with the checkout as working directory and
``src`` on PYTHONPATH, which the ``cli_cold`` children inherit, and reads the JSON it writes to ``--result``. The
timed ops start at pool item ``--start`` and each takes the next item, so no
two consecutive ops share an input. The warm-up runs on ``--warmup-item``,
which another worker times, so every run repeats some ops on the same input
in another process. In a traced run every second op is traced; the
difference between the traced and untraced medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
COLD_COMMANDS = ("fit", "predict", "compare")
OP_TIMEOUT_S = 120


@dataclass
class Op:
    """One call into the program: ``run`` is the timed part and returns the
    exit code; ``check`` lists problems with the outputs afterwards."""

    key: str
    run: Callable[[], int]
    check: Callable[[], list]
    outputs: list


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class CvOps:
    """Each op is an in-process ``addcast.cli.main(["cv", ...])`` call."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, workload, items, out, start):
        import gen

        self.flags = gen.CV_FLAGS[workload]
        self.items, self.out, self.start = items, out, start

    def op(self, index: int, item: Path | None = None) -> Op:
        import addcast.cli
        import checks

        item = item or self.items[(self.start + index) % len(self.items)]
        folds = self.out / item.name / "folds.csv"
        folds.parent.mkdir(parents=True, exist_ok=True)
        sigma = json.loads((item / "meta.json").read_text())["sigma"]
        argv = [
            "cv", "--input", str(item / "series.csv"), "--config", str(item / "model.json"),
            "--initial-days", str(self.flags["initial"]),
            "--period-days", str(self.flags["period"]),
            "--horizon-days", str(self.flags["horizon"]),
            "--output", str(folds),
        ]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return addcast.cli.main(argv)

        return Op(
            key=f"cv:{item.name}",
            run=run,
            check=lambda: checks.check_cv(item / "series.csv", folds, self.flags, sigma),
            outputs=[folds, Path(str(folds) + ".metrics.json")],
        )

    def traced(self, op: Op, index: int, tracer) -> Callable[[], int]:
        def run():
            tracer.op_id = index
            tracer.install()
            try:
                return op.run()
            finally:
                tracer.restore()

        return run


class ColdOps:
    """Each op is a fresh ``python -m addcast`` subprocess; the ops cycle
    through fit, predict (from that fit's model) and compare."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, workload, items, out, start):
        self.items, self.out, self.start = items, out, start

    def op(self, index: int, item: Path | None = None) -> Op:
        import checks
        import gen

        command = COLD_COMMANDS[index % 3]
        item = item or self.items[(self.start + index // 3) % len(self.items)]
        out = self.out / item.name
        out.mkdir(parents=True, exist_ok=True)
        meta = json.loads((item / "meta.json").read_text())
        model, forecast, report = out / "model.json", out / "forecast.csv", out / "compare.json"
        stdout: list = []
        if command == "fit":
            args = ["fit", "--input", str(item / "train.csv"), "--config",
                    str(item / "model.json"), "--output", str(model)]
            outputs = [model]

            def check():
                return checks.check_fit(stdout[0], model, meta["sigma"])
        elif command == "predict":
            args = ["predict", "--input", str(model), "--periods",
                    str(gen.PREDICT_PERIODS), "--output", str(forecast)]
            outputs = [forecast]

            def check():
                return checks.check_predict(forecast)
        else:
            configs = [str(item / f"{name}.json")
                       for name in ("additive", "naive", "seasonal_naive", "lag_linear")]
            args = ["compare", "--input", str(item / "compare.csv"), "--config", *configs,
                    "--cutoff", meta["cutoff"], "--output", str(report)]
            outputs = [report]

            def check():
                return checks.check_compare(report, meta["compare_sigma"])

        def run(prefix=(sys.executable, "-m", "addcast")):
            proc = subprocess.run(
                [*prefix, *args], capture_output=True, text=True,
                timeout=OP_TIMEOUT_S,
            )
            stdout.append(proc.stdout)
            return proc.returncode

        return Op(key=f"{command}:{item.name}", run=run, check=check, outputs=outputs)

    def traced(self, op: Op, index: int, tracer) -> Callable[[], int]:
        import spans

        spans_file = self.out / "child-spans.json"

        def run():
            spans_file.unlink(missing_ok=True)
            rc = op.run((sys.executable, str(HERE / "cold_entry.py"), str(spans_file)))
            child = json.loads(spans_file.read_text())
            tracer.spans += spans.rebase(child["spans"], len(tracer.spans), lambda _: index)
            tracer.imports.append((child["import_s"], child["import_modules"]))
            return rc

        return run


def execute(ops, op: Op, run: Callable[[], int], digests: dict) -> dict:
    """Time one op, then check its outputs; an exception fails the op."""
    cpu0 = _cpu_s(ops.rusage)
    t0 = time.perf_counter()
    try:
        rc = run()
    except Exception:
        rc, problems = None, [traceback.format_exc(limit=3)]
    latency = time.perf_counter() - t0
    cpu = _cpu_s(ops.rusage) - cpu0
    if rc == 0:
        try:
            problems = op.check()
        except Exception:
            problems = [traceback.format_exc(limit=3)]
    elif rc is not None:
        problems = [f"exit code {rc}"]
    if not problems:
        digest = _digest(op.outputs)
        if digests.setdefault(op.key, digest) != digest:
            problems = ["output differs from an earlier op on the same input"]
    return {"key": op.key, "latency_s": latency, "cpu_s": cpu, "ok": not problems,
            "problems": problems[:3]}


def run_loop(workload, items, out, seconds, trace, start, warmup_item) -> dict:
    """Warm up on ``items[warmup_item]``, then run timed ops until
    ``seconds`` have passed (at least one op, or in a traced run one traced
    and one untraced op).

    The warm-up is one op, or for ``cli_cold`` one fit, predict and compare.
    """
    import spans

    ops = (ColdOps if workload == "cli_cold" else CvOps)(workload, items, out, start)
    tracer = spans.Tracer() if trace else None
    digests: dict = {}
    warmup = []
    for index in range(3 if workload == "cli_cold" else 1):
        warm = ops.op(index, items[warmup_item])
        warmup.append(execute(ops, warm, warm.run, digests))

    first_op_at = time.monotonic()
    deadline = first_op_at + seconds
    records = []
    index = 0
    while True:
        op = ops.op(index)
        traced = tracer is not None and index % 2 == 1
        run = ops.traced(op, index, tracer) if traced else op.run
        record = execute(ops, op, run, digests)
        record["traced"] = traced
        records.append(record)
        index += 1
        if time.monotonic() >= deadline and index >= (2 if trace else 1):
            break
    return {
        "first_op_at": first_op_at,
        "warmup": warmup,
        "ops": records,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(ops.rusage).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer is not None else [],
        "child_imports": tracer.imports if tracer is not None else [],
    }


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return {"library": os.path.basename(lib), "threads": getter()}
    return {"library": "unknown", "threads": None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--warmup-item", type=int, default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    imported = {}
    if args.workload != "cli_cold":
        # Timed before anything else loads numpy, so it matches a cold start.
        before = len(sys.modules)
        t0 = time.perf_counter()
        import addcast.cli

        imported = {"import_s": time.perf_counter() - t0,
                    "import_modules": len(sys.modules) - before}
        src = (Path.cwd() / "src").resolve()
        if src not in Path(addcast.cli.__file__).resolve().parents:
            print(f"addcast imported from {addcast.cli.__file__}, not {src}", file=sys.stderr)
            return 2
    items = sorted(p for p in args.inputs.iterdir() if p.is_dir())
    result = run_loop(args.workload, items, args.out, args.seconds, bool(args.trace),
                      args.start, args.warmup_item)
    result.update(imported)
    result["blas"] = blas_threads()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
