"""kvcalc benchmark: `kv-calc` commands, each in a fresh interpreter.

Usage, from the root of a kvcalc checkout:

    python3 perfbench/run.py --workload {interactive,nilcone,sweep} \\
        [--seed N] [--seconds S] [--trace 0|1] [--commands K]

The package runs from the checkout's `src` without being installed, with its
bytecode compiled before anything is timed.  One run builds the workload's
command list from the seed, then:

- `--trace 0` runs the command list once, then cycles through it (cheap
  commands repeated, see `cycle`) until `--seconds` have passed, and reports
  the end-to-end metrics from the median time of each command; `setup_s` is
  the median of interpreter starts up to `import kvcalc.cli`, probed every
  few seconds in the same window;
- `--trace 1` runs the command list once untraced and once traced (see
  `tracer.py`) and reports the per-layer metrics and the tracing overhead.

Every command's exit status and output are checked (`checks.py`); at the
default seed the command list must also be the recorded one.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it records the environment and the seed.
`--commands K` keeps only the first K commands, for quick tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer
import workloads

DEFAULT_SEED = 1
SETUP_MIN_REPS = 7   # set-up probes per run, at least
SETUP_EVERY_S = 2.0  # and one probe before a command once this much time has passed
REPEAT_S = 0.5       # see `cycle`
COMMAND_TIMEOUT_S = 120
# Largest gap allowed between a traced command's own clock and the sum of its
# layers' self times: the wrapper of the outermost call, outside its span.
SELF_TIME_SLACK_S = 1e-3
KV_CALC = ["-c", "import sys; from kvcalc.cli import main; sys.exit(main())"]
IMPORT_ONLY = ["-c", "import time, kvcalc.cli; print(repr(time.perf_counter()))"]
TRACE_CHILD = [str(Path(__file__).with_name("trace_child.py"))]

# Public lru_caches whose hit ratio is reported (as found at the time the
# benchmark was defined); a cache that no longer exists reports 0 lookups.
CACHES = ("weyl.coweight_reflection", "weyl.root_reflection", "weyl.enumerate_group",
          "weyl.coxeter_elements", "weyl.parabolic_subgroup",
          "multiplicity.weight_system", "multiplicity.kostant_partition",
          "multiplicity.dominant_below", "rootdata.fundamental_group",
          "strata.fundamental_weight_root_coords")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for name in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Runner:
    """Starts one child interpreter at a time and reaps it with its rusage."""

    def __init__(self, root: Path):
        self.root = root
        self.env = child_env(root)
        self.out = root / workloads.WORKDIR / "stdout"
        self.err = root / workloads.WORKDIR / "stderr"

    def spawn(self, args: list[str]) -> tuple[float, float, int, int]:
        """Run `python3 ARGS`; return (spawn time, seconds to exit, max RSS
        in KiB, exit status); stdout is left in `self.out`."""
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            t0 = time.perf_counter()
            args = [a.replace("{spawned}", repr(t0)) for a in args]
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t0, elapsed, usage.ru_maxrss, proc.returncode

    def stdout(self) -> bytes:
        return self.out.read_bytes()


class Tally:
    """Command results: time samples per command, failures, peak RSS.

    With `frozen` (the default seed, whole list) the command list must be the
    recorded one: a command without a recorded digest fails its check, and
    each recorded command missing from the list counts as attempted and
    failed."""

    def __init__(self, cmds, digests, frozen=False):
        self.cmds = cmds
        self.digests = digests
        self.frozen = frozen
        self.samples = [[] for _ in cmds]
        self.attempted = 0
        self.failures = []
        self.peak_rss_kb = 0
        if frozen:
            for k in sorted(set(digests) - {checks.key(argv) for argv in cmds}):
                self.attempted += 1
                self.failures.append(f"{k}: recorded command not generated")

    def add(self, i, seconds, rss_kb, returncode, stdout, trace_error=None):
        self.attempted += 1
        self.samples[i].append(seconds)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        reason = (checks.check(self.cmds[i], returncode, stdout, self.digests, self.frozen)
                  or trace_error)
        if reason is not None:
            self.failures.append(f"{checks.key(self.cmds[i])}: {reason}")

    def medians(self):
        return [statistics.median(s) for s in self.samples]


def run_command(runner, tally, i):
    _, seconds, rss, code = runner.spawn([*KV_CALC, *tally.cmds[i]])
    tally.add(i, seconds, rss, code, runner.stdout())
    return seconds


def probe_setup(runner) -> float:
    """Time from spawning an interpreter until `kvcalc.cli` is imported."""
    t0, _, _, code = runner.spawn(IMPORT_ONLY)
    if code != 0:
        raise SystemExit(f"error: import kvcalc.cli failed with exit status {code}")
    return float(runner.stdout()) - t0


def tail_quantile(n: int) -> float:
    """The highest percentile up to p90 with at least ten samples beyond it;
    p90 itself when there are too few samples for that."""
    return min(0.9, (n - 10) / n) if n >= 20 else 0.9


def hd_quantile(values, q, steps=200):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density, integrated by
    the midpoint rule over each 1/n slice.  On a list of ten commands it
    rests on three or four of them rather than one, so one command's noisy
    median moves it less."""
    values = sorted(values)
    n = len(values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    m = steps * n
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log(1 - t)
            for t in ((k + 0.5) / m for k in range(m))]
    top = max(logs)
    dens = [math.exp(x - top) for x in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def cycle(first_s):
    """One cycle of command indices after the first pass.  A command that
    took less than REPEAT_S is repeated about REPEAT_S / its time per cycle,
    the repeats spread over the cycle, so that a cheap command's median rests
    on enough samples to be steady; every command runs at least once."""
    reps = [max(1, int(REPEAT_S / t)) for t in first_s]
    return [k for j in range(max(reps)) for k in range(len(reps)) if reps[k] > j]


def timed(runner, tally, seconds):
    """Run every command once, then cycle until `seconds` have passed.  Host
    speed drifts over seconds to minutes, so the set-up probes are spread
    over the same window as the commands."""
    setup = [probe_setup(runner)]
    last_probe = start = time.perf_counter()

    def run(k):
        nonlocal last_probe
        if time.perf_counter() - last_probe >= SETUP_EVERY_S:
            setup.append(probe_setup(runner))
            last_probe = time.perf_counter()
        return run_command(runner, tally, k)

    n = len(tally.cmds)
    order = cycle([run(k) for k in range(n)])
    i = 0
    while time.perf_counter() < start + seconds:
        run(order[i % len(order)])
        i += 1
    while len(setup) < SETUP_MIN_REPS:
        setup.append(probe_setup(runner))
    med = tally.medians()
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(med), "s"),
        "cmd_p50_ms": (1000 * hd_quantile(med, 0.5), "ms"),
        "cmd_p90_ms": (1000 * hd_quantile(med, tail_quantile(n)), "ms"),
        "peak_rss_mb": (tally.peak_rss_kb / 1024, "MB"),
    }


def check_self_times(stats):
    """The layers' self times must add up to the command's time on its own
    clock (`Tracer.run`), up to the wrapper of the outermost call: nothing
    double-counted or dropped."""
    layer_sum = sum(stats["self_s"].values())
    if not 0 <= stats["run_s"] - layer_sum <= SELF_TIME_SLACK_S:
        return (f"layer self times add up to {layer_sum:.6f} s, "
                f"the command took {stats['run_s']:.6f} s")
    return None


def traced(runner, tally):
    """One untraced pass, then one traced pass; per-layer metrics."""
    untraced_s = sum(run_command(runner, tally, i) for i in range(len(tally.cmds)))
    stats_file = runner.root / workloads.WORKDIR / "trace.json"
    traced_s = command_s = 0.0
    self_s = dict.fromkeys(("import",) + tracer.LAYERS, 0.0)
    calls = dict.fromkeys(("import",) + tracer.LAYERS, 0)
    work = dict.fromkeys(tracer.WORK, 0)
    caches = {name: [0, 0] for name in CACHES}
    for i, argv in enumerate(tally.cmds):
        stats_file.unlink(missing_ok=True)
        _, seconds, rss, code = runner.spawn([*TRACE_CHILD, "{spawned}", str(stats_file), *argv])
        traced_s += seconds
        if not stats_file.exists():
            tally.add(i, seconds, rss, code, runner.stdout(), "traced run wrote no stats")
            continue
        stats = json.loads(stats_file.read_text(encoding="utf-8"))
        tally.add(i, seconds, rss, code, runner.stdout(), check_self_times(stats))
        command_s += stats["command_s"]
        self_s["import"] += stats["import_s"]
        calls["import"] += 1
        for layer in tracer.LAYERS:
            self_s[layer] += stats["self_s"][layer]
            calls[layer] += stats["calls"][layer]
        for name in tracer.WORK:
            work[name] += stats["work"][name]
        for name, (hits, misses) in stats["caches"].items():
            if name in caches:
                caches[name][0] += hits
                caches[name][1] += misses
    metrics = {}
    for layer in self_s:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    for name, (hits, misses) in caches.items():
        lookups = hits + misses
        metrics[f"{name}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics[f"{name}.lookups"] = (lookups, "count")
    for name, value in work.items():
        metrics[name] = (value, "count")
    metrics["trace.command_s"] = (command_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def environment(root, args, n_cmds):
    src = hashlib.sha256()
    for path in sorted((root / "src" / "kvcalc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (root / ".git").exists():  # not in an exported checkout, nor a parent's repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commands": n_cmds,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha, "src_sha256": src.hexdigest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--commands", type=int, default=None)
    return p.parse_args(argv)


def prepare(root: Path, args) -> tuple[Runner, list[list[str]]]:
    """Compile the package's bytecode and build the command list."""
    if not (root / "src" / "kvcalc" / "cli.py").is_file():
        raise SystemExit("error: run from the root of a kvcalc checkout "
                         "(src/kvcalc/cli.py not found)")
    runner = Runner(root)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/kvcalc"], cwd=root,
                   env=runner.env, check=True, stdout=subprocess.DEVNULL, timeout=300)
    sys.path.insert(0, str(root / "src"))
    cmds = workloads.build(args.workload, args.seed, root)[:args.commands]
    return runner, cmds


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    runner, cmds = prepare(root, args)
    frozen = args.seed == DEFAULT_SEED and args.commands is None
    tally = Tally(cmds, checks.load_digests(args.workload), frozen)
    if args.trace:
        metrics = traced(runner, tally)
    else:
        metrics = timed(runner, tally, args.seconds)
    for line in tally.failures:
        print(f"FAIL {line}", file=sys.stderr)
    info = environment(root, args, len(cmds))
    info["executions"] = tally.attempted
    info["fail_frac"] = f"{len(tally.failures)}/{tally.attempted}"
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
