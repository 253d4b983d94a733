"""The addcast benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It generates the workload's inputs from
the seed, starts SETUPS worker processes one after another (each imports the
program, warms up with one op and then runs timed ops for S / SETUPS
seconds), checks every op's output, and prints the metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a run in
which every second op is traced.

Workloads (closed loop, one caller):
  cv_linear_2y    in-process ``cv`` on a 730-day linear series, 1000 samples:
                  the interval simulator does most of the work.
  cv_logistic_3y  in-process ``cv`` on a 1095-day logistic series with
                  multiplicative seasonality and holidays: the optimizer does.
  cli_cold        a fresh ``python -m addcast`` per op, cycling fit, predict
                  and compare: interpreter start and imports dominate.

Limits: the page cache is not dropped between runs and nothing is traced
system-wide; BLAS threads are left at the library's default, as users have
them. A full record of each run (environment, tail percentile, worker
set-ups, output digests) is written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cv_linear_2y", "cv_logistic_3y", "cli_cold")
SETUPS = 3
RUN_BUDGET_S = 170
TAIL_BEYOND = 10
E2E_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_s_per_op": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond). Below TAIL_BEYOND + 1 samples it is
    the maximum, with fewer samples beyond."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def environment(checkout: Path, blas: dict) -> dict:
    import numpy
    import scipy

    blas_build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (checkout / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_build.get('name')} {blas_build.get('version')}",
        "blas_library": blas.get("library"),
        "blas_threads": blas.get("threads"),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": commit,
        "limits": "page cache not dropped; no system-wide tracing; BLAS threads not pinned",
    }


def run_workers(workload, seed, seconds, trace, checkout, run_dir) -> list[dict]:
    items = gen.generate(workload, seed, run_dir / "inputs")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH")) if p
    )
    budget_end = time.monotonic() + RUN_BUDGET_S
    results = []
    starts = [w * len(items) // SETUPS for w in range(SETUPS)]
    for w in range(SETUPS):
        result_path = run_dir / f"worker{w}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--inputs", str(run_dir / "inputs"), "--out", str(run_dir / f"out{w}"),
            "--seconds", repr(seconds / SETUPS), "--trace", str(trace),
            "--start", str(starts[w]), "--warmup-item", str(starts[w - 1]),
            "--result", str(result_path),
        ]
        spawned = time.monotonic()
        # Its own process group, so a timeout also stops the worker's children.
        with subprocess.Popen(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
            try:
                _, stderr = proc.communicate(timeout=max(budget_end - spawned, 1.0))
                error = stderr[-2000:] if proc.returncode else None
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                error = "worker timed out"
        if error is None:
            result = json.loads(result_path.read_text(encoding="utf-8"))
            result["setup_s"] = result["first_op_at"] - spawned
            # Op ids become "<worker>.<op>" and span ids unique across workers.
            spans.rebase(result["spans"], sum(len(r.get("spans", ())) for r in results),
                         lambda op, w=w: f"{w}.{op}")
        else:
            result = {"error": error}
        results.append(result)
    return results


def summarize(workers: list[dict], trace: int) -> dict:
    ok_workers = [w for w in workers if "error" not in w]
    ops = [op for w in ok_workers for op in w["ops"]]
    warmups = [op for w in ok_workers for op in w["warmup"]]
    failed = [op for op in ops + warmups if not op["ok"]]
    # Ops on the same input must write byte-identical files in every worker.
    digests: dict[str, str] = {}
    mismatched = []
    for w in ok_workers:
        for key, digest in w["digests"].items():
            if digests.setdefault(key, digest) != digest:
                mismatched.append(key)
    n_errors = len(workers) - len(ok_workers)
    summary = {
        "attempted": len(ops) + len(warmups) + n_errors,
        "failed": len(failed) + len(mismatched) + n_errors,
        "problems": [w["error"] for w in workers if "error" in w]
        + [f"{op['key']}: {op['problems']}" for op in failed][:10]
        + [f"{key}: outputs differ between workers" for key in mismatched],
        "outputs_sha256": dict(sorted(digests.items())),
        "n_ops": len(ops),
        "ops": [{k: op[k] for k in ("key", "latency_s", "cpu_s", "traced", "ok")} for op in ops],
    }
    if not ops:
        return summary
    untraced = [op["latency_s"] for op in ops if not op["traced"]]
    if trace:
        traced_ops = [op for op in ops if op["traced"]]
        traced = [op["latency_s"] for op in traced_ops]
        overhead = spans.median_or_zero(traced) - spans.median_or_zero(untraced)
        imports = [(w["import_s"], w["import_modules"]) for w in ok_workers if "import_s" in w]
        imports += [tuple(i) for w in ok_workers for i in w["child_imports"]]
        summary["metrics"] = spans.layer_report(
            [s for w in ok_workers for s in w["spans"]],
            len(traced_ops),
            spans.median_or_zero([i[0] for i in imports]),
            spans.median_or_zero([i[1] for i in imports]),
            overhead,
        )
        summary["traced_ops"] = len(traced_ops)
        return summary
    value, percentile, beyond = tail(untraced)
    metrics = {
        "op_p50_s": statistics.median(untraced),
        "op_tail_s": value,
        "cpu_s_per_op": statistics.median(op["cpu_s"] for op in ops),
        "setup_s": statistics.median(w["setup_s"] for w in ok_workers),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in ok_workers),
    }
    summary["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    summary["tail"] = {"percentile": percentile, "samples_beyond": beyond, "samples": len(untraced)}
    summary["setups_s"] = [w["setup_s"] for w in ok_workers]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="addcast benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "addcast" / "__init__.py").is_file():
        print(f"{checkout}: no src/addcast here; run from the root of an addcast checkout",
              file=sys.stderr)
        return 2

    work = checkout / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        workers = run_workers(args.workload, args.seed, args.seconds, args.trace,
                              checkout, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    summary = summarize(workers, args.trace)
    blas = next((w["blas"] for w in workers if "blas" in w), {})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(checkout, blas), **summary,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(work / f"{args.workload}-seed{args.seed}-spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for w in workers:
                for span in w.get("spans", ()):
                    fh.write(json.dumps(span) + "\n")

    for problem in summary["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    if "metrics" not in summary:
        print("no op completed; no metrics", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed} ops={summary['n_ops']} "
          f"environment={json.dumps(record['environment'], sort_keys=True)}")
    if "tail" in summary:
        print(f"# op_tail_s is p{summary['tail']['percentile']:.1f} of "
              f"{summary['tail']['samples']} ops, {summary['tail']['samples_beyond']} beyond it")
    for name, metric in summary["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
