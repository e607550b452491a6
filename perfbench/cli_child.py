"""`python -m spectower.cli ARGS` with spans, for traced cli-docs runs.

Run as `cli_child.py ARGS` with PYTHONPATH holding the package and
PERFBENCH_SPAWN set to the parent's `time.monotonic()` just before the
spawn.  stdout and the exit code are the CLI's own; the spans follow the
CLI's stderr as one last line, after a marker.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    t0 = time.perf_counter()
    import spectower.cli
    t1 = time.perf_counter()

    import tracing

    tracer = tracing.Tracer()
    tracer.begin_op(0)
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    tracer.add("cli.startup", 0.0, T_START - spawn)
    tracer.add("cli.import", t0, t1)
    tracing.install(tracer)
    try:
        code = spectower.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        sys.stderr.buffer.write(tracing.SPANS_MARK + json.dumps(tracer.spans).encode() + b"\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
