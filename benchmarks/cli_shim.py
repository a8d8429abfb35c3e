"""Run one gml command with the benchmark's tracer installed.

Usage: python3 benchmarks/cli_shim.py SPANS.npz [gml arguments ...]

Times ``import gml.cli``, wraps gml's functions the way ``tracer.py``
does in the benchmark process, calls ``gml.cli.main`` with the remaining
arguments inside a ``cli.main`` span, saves the spans and the import time
to SPANS.npz and exits with main's return code.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import gml.cli
    import_s = time.perf_counter() - start

    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        code = tracer.span("cli.main", gml.cli.main, argv)
    tracer.spans().save(spans_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
