"""The command-line entry, run by ``python -m addcast`` and by the ``addcast``
script."""

import gc
import os
import sys


def main(argv=None) -> int:
    if "numpy" in sys.modules:
        # an in-process call: leave the process's settings alone
        from .cli import main as run

        return run(argv)
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and
    # otherwise starts one worker thread per core, which spins while idle.
    # addcast's fits have at most ~100 parameters, where a second thread
    # saves little (a 7300-row, 53-parameter fit: 14.2 ms on 2 threads,
    # 15.4 ms on 1), while the spinning worker burns CPU in every cold call:
    # a fresh `python -c "import numpy"` took 253 ms CPU and 257 ms wall at
    # the default 2 threads, 179 ms and 183 ms at 1 (medians of 20, 2-core
    # x86-64, numpy 2.4.6 with OpenBLAS 0.3.31). A value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # The cyclic collector finds almost nothing to free in a command (about
    # 500 unreachable objects whatever the input size), but it ran 37-38
    # times while the modules loaded and scanned the ~23k objects left at
    # exit: main() returning to the process ending took 24 ms, and 6 ms
    # with the collector off and the heap frozen (medians of 30 cold calls
    # per command, 2-core x86-64, Python 3.11.7). So it stays off for the
    # command; gc.freeze() leaves the exit collections nothing to scan, and
    # the caller's collector state is restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        from .cli import main as run

        return run(argv)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()
        _settle_stdout()


def _settle_stdout() -> None:
    """Flush stdout; if that fails (its reader has gone), point its
    descriptor at os.devnull, so the interpreter's own flush at exit cannot
    fail a second time and turn the exit code into 120."""
    if sys.stdout is None:
        return
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
