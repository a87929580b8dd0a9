"""Run the stressdraw command line with its public functions traced.

    python3 bench/cli_traced.py SPAN_FILE <stressdraw arguments...>

Installs the span wrappers, calls `stressdraw.cli.run` with the remaining
arguments, writes the spans to SPAN_FILE and exits with the CLI's code.
The time spent installing wrappers is written with the spans, so the
caller can subtract it from the child's wall time.
"""
from __future__ import annotations

import sys
import time


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    import stressdraw.cli

    import tracer

    start = time.perf_counter()
    rec = tracer.Recorder()
    tracer.install(rec)
    wrap_s = time.perf_counter() - start
    code = stressdraw.cli.run(argv)
    rec.dump(span_file, wrap_s=wrap_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
