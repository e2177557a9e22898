"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestChecker:
    WEYL = ["weyl", "--type", "B2"]
    DIM = ["dim", "--class", "c.json", "--lambda", "2,1"]

    def test_good_outputs_pass(self):
        assert checks.check(self.WEYL, 0, b"order 8\nlongest-length 4\n", {}) is None
        dim = b"nonempty true\nd 2\nc 0\ndimension 4\n"
        assert checks.check(self.DIM, 0, dim, {}) is None

    @pytest.mark.parametrize("argv,stdout", [
        (WEYL, b"order 9\nlongest-length 4\n"),
        (["weyl", "--type", "A1xA1", "--coxeter"], b"s1 s2\ns2 s1\ncount 2\n"),
        (["nilcone", "--type", "A2"],
         b"1,2\ts1 s2 s1\t3\t5\t.\n1,2\ts2 s1\t2\t6\t.\n2\ts2\t1\t4\t.\n"
         b"summary dim 6 top 2 strata 3\n"),
        (["verify", "lower-bound"], b"A2\t2,2\t1,1\t2\t2\tpass\nFAIL\n"),
        (DIM, b"nonempty true\nd 2\nc 0\ndimension 5\n"),
        (["mult", "--type", "A2", "--lambda", "1,1", "--mu", "0,0"], b"two\n"),
    ])
    def test_corrupted_output_fails(self, argv, stdout):
        assert checks.check(argv, 0, stdout, {}) is not None

    def test_digest_mismatch_and_exit_status_fail(self):
        good = b"order 8\nlongest-length 4\n"
        digests = {checks.key(self.WEYL): checks.digest(good)}
        assert checks.check(self.WEYL, 0, good, digests) is None
        assert checks.check(self.WEYL, 0, good + b"\n", digests) is not None
        assert checks.check(self.WEYL, 1, good, digests) is not None

    def test_corrupted_output_counts_as_failure(self):
        tally = run.Tally([self.WEYL], {})
        tally.add(0, 0.1, 1000, 0, b"order 8\nlongest-length 4\n")
        tally.add(0, 0.1, 1000, 0, b"order 8\nlongest-length 5\n")
        assert (tally.attempted, len(tally.failures)) == (2, 1)

    def test_unrecorded_and_missing_commands_fail_a_frozen_list(self):
        good = b"order 8\nlongest-length 4\n"
        digests = {checks.key(self.WEYL): checks.digest(good),
                   "weyl --type G2": checks.digest(b"order 12\nlongest-length 6\n")}
        tally = run.Tally([self.WEYL, ["weyl", "--type", "A2"]], digests, frozen=True)
        tally.add(0, 0.1, 1000, 0, good)
        tally.add(1, 0.1, 1000, 0, b"order 6\nlongest-length 3\n")
        assert (tally.attempted, len(tally.failures)) == (3, 2)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_default_seed_list_is_the_recorded_one(workload):
    _, cmds = run.prepare(ROOT, run.parse_args(["--workload", workload]))
    assert {checks.key(argv) for argv in cmds} == set(checks.load_digests(workload))


def test_self_time_check_catches_dropped_and_double_counted_time():
    t = tracer.Tracer()
    leaf = t._wrap("weyl", lambda: time.sleep(0.01), None)
    top = t._wrap("cli", lambda: (time.sleep(0.01), leaf()), None)
    t.run(top)
    stats = t.stats()
    assert run.check_self_times(stats) is None
    dropped = copy.deepcopy(stats)
    dropped["self_s"]["weyl"] = 0.0
    doubled = copy.deepcopy(stats)
    doubled["self_s"]["cli"] += stats["self_s"]["weyl"]
    assert run.check_self_times(dropped) is not None
    assert run.check_self_times(doubled) is not None
    # time spent outside every span is dropped time too
    t = tracer.Tracer()
    top = t._wrap("cli", lambda: time.sleep(0.01), None)
    t.run(lambda: (time.sleep(0.01), top()))
    assert run.check_self_times(t.stats()) is not None


def test_tail_quantile_leaves_ten_samples_beyond():
    assert run.tail_quantile(104) == 0.9
    assert run.tail_quantile(60) == 50 / 60
    assert run.tail_quantile(11) == 0.9


def test_hd_quantile():
    assert run.hd_quantile([0.3] * 7, 0.9) == pytest.approx(0.3)
    assert run.hd_quantile(range(11), 0.5) == pytest.approx(5)
    values = list(range(104))
    assert 92 < run.hd_quantile(values, 0.9) < 94
    assert run.hd_quantile(values, 0.5) < run.hd_quantile(values, 0.9)


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", ["interactive", "nilcone", "sweep"])
@pytest.mark.parametrize("trace,spec", [(0, "end_to_end"), (1, "per_layer")])
def test_smallest_run_reports_every_metric(workload, trace, spec):
    r = result("--workload", workload, "--commands", "1", "--seconds", "0.1",
               "--trace", str(trace))
    assert sorted(r) == ["attempted", "correct", "failed", "metrics"]
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert {name: m["unit"] for name, m in r["metrics"].items()} == units(SPEC[spec])


def test_traced_counts_repeat_exactly():
    args = ("--workload", "nilcone", "--commands", "3", "--trace", "1")
    first, second = result(*args), result(*args)
    counts = {name for name, m in first["metrics"].items() if m["unit"] in ("count", "ratio")}
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["weyl.coset_reps"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "nilcone", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
