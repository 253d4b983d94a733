"""The command-line entry, run by ``python -m addcast`` and by the ``addcast``
script."""

import os
import sys


def main(argv=None) -> int:
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and
    # otherwise starts one worker thread per core, which spins while idle.
    # addcast's fits have at most ~100 parameters, where a second thread
    # saves little (a 7300-row, 53-parameter fit: 14.2 ms on 2 threads,
    # 15.4 ms on 1), while the spinning worker burns CPU in every cold call:
    # a fresh `python -c "import numpy"` took 253 ms CPU and 257 ms wall at
    # the default 2 threads, 179 ms and 183 ms at 1 (medians of 20, 2-core
    # x86-64, numpy 2.4.6 with OpenBLAS 0.3.31). A value the user set wins,
    # and once numpy is loaded the variable no longer counts.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
