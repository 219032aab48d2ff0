"""Run one starrep CLI command, as the `starrep` console script does.

With PERFBENCH_TRACE=<file> set, the span wrappers are installed first and
the spans of the call are written to that file when it ends.
"""
import os
import sys

from starrep.cli import main

if __name__ == "__main__":
    out = os.environ.get("PERFBENCH_TRACE")
    if not out:
        sys.exit(main())
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("cli"):
            code = main()
    finally:
        tracer.dump(out)
    sys.exit(code)
