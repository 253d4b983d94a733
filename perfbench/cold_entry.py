"""Child-process entry for a traced ``cli_cold`` op.

Usage: ``python perfbench/cold_entry.py SPANS_JSON <addcast argv...>``

Times ``import addcast.cli`` and counts the modules it adds, installs the
span wrappers, runs ``addcast.cli.main(argv)`` and writes the import figures
and the spans to SPANS_JSON. The exit code is the command's.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import addcast.cli

    import_s = time.perf_counter() - t0
    import_modules = len(sys.modules) - before

    from spans import Tracer

    tracer = Tracer()
    tracer.op_id = 0
    tracer.install()
    try:
        return addcast.cli.main(argv)
    finally:
        tracer.restore()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"import_s": import_s, "import_modules": import_modules, "spans": tracer.spans},
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
