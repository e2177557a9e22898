"""Split one `kv-calc` command into start, import, run and exit.

    python3 scripts/startup_split.py weyl --type A2

Spawns fresh interpreters one at a time, the command interleaved with a bare
`python -c pass`, and prints the median of each phase in ms: start (spawn to
the child's first statement), import (`import kvcalc.cli`), run (`cli.main()`
up to an `atexit` stamp) and exit (the stamp to `wait4` returning).  Parent
and child read the same monotonic clock.  Uses the standard library only.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SPAWNS = 21
CHILD = """import atexit, os, time; t1 = time.perf_counter()
import kvcalc.cli
t2 = time.perf_counter()
atexit.register(lambda: os.write(2, f"\\n{t1!r} {t2!r} {time.perf_counter()!r}\\n".encode()))
kvcalc.cli.main()
"""


def spawn(args, env):
    """(spawn time, time wait4 returned, stderr) of `python ARGS`."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, _ = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return t0, end, err.read().decode()


def main(argv):
    drop = ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    phases, bare = [], []
    for i in range(SPAWNS + 1):  # the first pair writes the bytecode and is not counted
        t0, end, err = spawn(["-c", CHILD, *argv], env)
        try:
            t1, t2, stamp = map(float, err.splitlines()[-1].split())
        except (IndexError, ValueError):
            raise SystemExit(f"error: the command left no exit stamp:\n{err}") from None
        s0, s1, _ = spawn(["-c", "pass"], env)
        if i:
            phases.append((t1 - t0, t2 - t1, stamp - t2, end - stamp))
            bare.append(s1 - s0)
    print(f"kv-calc {' '.join(argv)}: medians of {SPAWNS} spawns, ms")
    for name, values in zip(("start", "import", "run", "exit"), zip(*phases)):
        print(f"{name}\t{1000 * statistics.median(values):.1f}")
    print(f"python -c pass\t{1000 * statistics.median(bare):.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
