"""Run one `kv-calc` command with per-layer tracing.

Usage: python3 perfbench/trace_child.py SPAWN_TIME STATS_FILE KV-CALC-ARGS...

SPAWN_TIME is the parent's `time.perf_counter()` just before it started this
interpreter (CLOCK_MONOTONIC is shared by all processes on Linux), so the
`import` layer is interpreter start plus `import kvcalc.cli`.  The tracer is
imported and installed only after that, before the command runs.  The
command's stdout is the same as `kv-calc`'s; the trace goes to STATS_FILE.
"""

import json
import sys
import time

import kvcalc.cli

imported = time.perf_counter()

import tracer  # noqa: E402  (kept out of the import-layer time)


def main() -> int:
    spawned, stats_file, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t = tracer.Tracer()
    t.install()
    code = t.run(kvcalc.cli.run, argv)
    stats = t.stats()
    stats["import_s"] = imported - spawned
    with open(stats_file, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
