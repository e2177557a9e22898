"""End-to-end command-line behaviour: exit codes, exact output, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvcalc import cli, conjugacy, weyl
from kvcalc.errors import InvariantViolation
from oracles import report_from_json


def run(argv):
    buf = io.StringIO()
    code = cli.run(argv, out=buf)
    return code, buf.getvalue()


@pytest.fixture
def split_class_file(tmp_path):
    path = tmp_path / "class.json"
    path.write_text(json.dumps({
        "type": "A2",
        "isogeny": "sc",
        "w": [],
        "nu_bar": {"num": [0, 0], "den": 1},
        "residual": [{"root": [1, 1], "val": "1"}],
        "kappa": [0, 0],
    }))
    return str(path)


@pytest.fixture
def inconsistent_class_file(tmp_path):
    # a formally valid ramified datum whose discriminant data force a
    # half-integral dimension, which the calculator must refuse
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "type": "A1",
        "isogeny": "sc",
        "w": [1],
        "nu_bar": {"num": [0], "den": 1},
        "residual": [{"root": [1], "val": "1"}],
        "kappa": [0],
    }))
    return str(path)


class TestExitCodes:
    def test_success(self):
        code, _ = run(["weyl", "--type", "A2"])
        assert code == 0

    def test_missing_type_is_usage(self):
        code, _ = run(["weyl"])
        assert code == 1

    def test_bad_label_is_usage(self):
        code, _ = run(["weyl", "--type", "Z9"])
        assert code == 1

    def test_unknown_suite_is_usage(self):
        code, _ = run(["verify", "no-such-suite"])
        assert code == 1

    def test_malformed_class_json_is_usage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(["dim", "--class", str(path), "--lambda", "1,1"])
        assert code == 1

    def test_missing_class_file_is_usage(self):
        code, _ = run(["dim", "--class", "/no/such/file.json", "--lambda", "1"])
        assert code == 1

    def test_inconsistent_datum_is_invariant_violation(self, inconsistent_class_file):
        code, _ = run(["dim", "--class", inconsistent_class_file, "--lambda", "1"])
        assert code == 2

    def test_mult_needs_operands(self):
        code, _ = run(["mult", "--type", "A2"])
        assert code == 1

    @pytest.mark.parametrize("argv", [["--help"], ["weyl", "-h"]])
    def test_help_is_written_to_out(self, argv, capsys):
        code, text = run(argv)
        assert code == 0
        assert text.startswith("usage: kv-calc")
        assert capsys.readouterr().out == ""


def write_class(tmp_path, **fields):
    path = tmp_path / "class.json"
    path.write_text(json.dumps({"type": "A2", "nu_bar": [0, 0], **fields}))
    return str(path)


class TestMalformedInput:
    """Each malformed input ends in exit 1 with one `error:` line on stderr."""

    def check(self, argv, capsys):
        code, text = run(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert text == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_missing_isogeny_file(self, capsys):
        self.check(["weyl", "--type", "A2", "--isogeny", "custom:/missing.json"], capsys)

    def test_non_string_type(self, tmp_path, capsys):
        path = write_class(tmp_path, type=5)
        self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)

    def test_zero_nu_bar_denominator(self, tmp_path, capsys):
        path = write_class(tmp_path, nu_bar={"num": [1, 1], "den": 0})
        self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)

    @pytest.mark.parametrize("fields", [
        {"residual": [{"root": [1, 1], "val": "1/0"}]},
        {"residual": [{"root": [1, 1], "val": {"num": 1, "den": 0}}]},
        {"kappa": ["a"]},
        {"e": "x"},
        {"w": ["a"]},
        {"kappa": 5},
        {"residual": 5},
    ], ids=["residual-text-den-0", "residual-den-0", "kappa-text", "e-text", "w-text",
            "kappa-int", "residual-int"])
    def test_malformed_class_field(self, tmp_path, capsys, fields):
        path = write_class(tmp_path, **fields)
        self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)

    # int() would truncate these; each must be refused, not read as an integer
    @pytest.mark.parametrize("fields", [
        {"w": [1.5]},
        {"e": 1.5},
        {"kappa": [0.7, 0]},
        {"residual": [{"root": [1.9, 0], "val": "1"}]},
        {"nu_bar": {"num": [1.5, 0], "den": 1}},
        {"nu_bar": {"num": [1, 1], "den": 1.5}},
        {"residual": [{"root": [1, 1], "val": {"num": 1.5, "den": 1}}]},
        {"w": [float("inf")]},
        {"isogeny": [[1, 0], [0, 1.9]]},
    ], ids=["w-float", "e-float", "kappa-float", "residual-root-float", "nu-num-float",
            "nu-den-float", "residual-num-float", "w-infinite", "isogeny-float"])
    def test_non_integral_number_in_integer_field(self, tmp_path, capsys, fields):
        path = write_class(tmp_path, **fields)
        self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)

    # json reads both 1e400 and Infinity as an infinite float
    @pytest.mark.parametrize("fields", [
        {"isogeny": [[1, 0], [0, float("inf")]]},
        {"residual": [{"root": [1, 1], "val": float("inf")}]},
        {"nu_bar": [float("inf"), 0]},
    ], ids=["isogeny-infinite", "residual-val-infinite", "nu-bar-infinite"])
    def test_infinite_number(self, tmp_path, capsys, fields):
        path = write_class(tmp_path, **fields)
        self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)

    def test_infinite_number_in_isogeny_file(self, tmp_path, capsys):
        path = tmp_path / "isogeny.json"
        path.write_text("[[1, 0], [0, Infinity]]")
        self.check(["weyl", "--type", "A2", "--isogeny", f"custom:{path}"], capsys)

    def test_integer_strings_still_parse(self, tmp_path):
        path = write_class(tmp_path, w=["1"], e="2", kappa=["0", "0"],
                           nu_bar={"num": ["0", "0"], "den": "1"},
                           residual=[{"root": ["1", "0"], "val": "1/2"}])
        code, text = run(["dim", "--class", path, "--lambda", "1,1"])
        assert code == 0 and "dimension 2\n" in text

    def test_class_json_holding_a_string(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text(json.dumps("not a class"))
        self.check(["dim", "--class", str(path), "--lambda", "1,1"], capsys)

    def test_split_class_kappa_off_the_class_of_nu_bar(self, tmp_path, capsys):
        # kappa_G(t^nu) = [nu]: nu_bar = 1 lies in the coroot lattice, so kappa = 0
        path = write_class(tmp_path, type="A1", isogeny="adjoint", nu_bar=["1"], kappa=[1])
        self.check(["dim", "--class", path, "--lambda", "3/2"], capsys)

    def test_newton_point_off_the_cocharacter_lattice(self, tmp_path, capsys):
        path = write_class(tmp_path, type="A1", isogeny="sc", nu_bar=["1/2"], kappa=[0])
        self.check(["dim", "--class", path, "--lambda", "3/2"], capsys)

    def test_non_numeric_cvals(self, capsys):
        self.check(["strata", "steinberg", "--type", "A2", "--lambda", "1,1",
                    "--cvals", "abc,1"], capsys)

    def test_suite_checking_nothing_fails(self, capsys):
        self.check(["verify", "lower-bound", "--height", "-3"], capsys)

    def test_oversized_grid_is_refused_before_it_starts(self, capsys):
        start = time.perf_counter()
        self.check(["verify", "stratification-disjoint", "--height", "100000"], capsys)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("argv", [
        ["mult", "--type", "A2", "--lambda", "3000,3000", "--mu", "0,0"],
        ["strata", "polytope", "--type", "A2", "--lambda", "3000,3000", "--nu", "1/3,1/3"],
        ["dim", "--class", None, "--lambda", "3000,3000"],
    ], ids=["mult", "strata-polytope", "dim"])
    def test_oversized_dominance_interval_is_refused_before_it_starts(
            self, split_class_file, argv):
        # in a child with a timeout, so that a walk that does start fails the
        # test instead of hanging it
        argv = [split_class_file if a is None else a for a in argv]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kvcalc.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=20)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "the dominance interval" in proc.stderr

    def test_oversized_freudenthal_recursion_is_refused_before_it_starts(self):
        # the dominance interval of (300, 300) passes its guard, but its
        # recursion would take about 28M alpha-string steps
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kvcalc.cli", "mult", "--type", "A2",
             "--lambda", "300,300", "--mu", "0,0"],
            capture_output=True, text=True, env=env, timeout=30)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: Freudenthal's recursion"), proc.stderr

    def test_oversized_coxeter_enumeration_is_refused(self, capsys):
        # 2^25 orientations of the Coxeter graph, over the cap
        self.check(["weyl", "--type", "A6xA6xA6xA6xA6", "--coxeter"], capsys)


class TestWeyl:
    def test_order_output(self):
        code, text = run(["weyl", "--type", "G2"])
        assert code == 0
        assert text == "order 12\nlongest-length 6\n"

    def test_coxeter_output(self):
        code, text = run(["weyl", "--type", "A2", "--coxeter"])
        assert code == 0
        assert text == "s1 s2\ns2 s1\ncount 2\n"

    def test_weyl_order_builds_no_descent_masks(self):
        weyl._descent_masks.cache_clear()
        code, text = run(["weyl", "--type", "F4"])
        assert code == 0 and text == "order 1152\nlongest-length 24\n"
        assert weyl._descent_masks.cache_info().misses == 0


class TestMult:
    def test_single_value(self):
        code, text = run(["mult", "--type", "A2", "--lambda", "1,1", "--mu", "0,0"])
        assert code == 0
        assert text == "2\n"

    def test_sweep_is_tsv(self):
        code, text = run(["mult", "--type", "A1", "--sweep", "4"])
        assert code == 0
        rows = [line.split("\t") for line in text.strip().splitlines()]
        assert ["1", "1", "1"] in rows
        assert all(len(r) == 3 for r in rows)


class TestDim:
    def test_text_report(self, split_class_file):
        code, text = run(["dim", "--class", split_class_file, "--lambda", "1,1"])
        assert code == 0
        assert "nonempty true" in text
        assert "dimension 3" in text

    def test_json_report_round_trips(self, split_class_file):
        code, text = run(["dim", "--class", split_class_file, "--lambda", "1,1",
                          "--json"])
        assert code == 0
        data = json.loads(text)
        assert data["nonempty"] is True
        rep = report_from_json(data)
        assert rep.dimension == 3

    def test_split_class_builds_no_weyl_table(self, tmp_path):
        path = write_class(tmp_path, type="E6", w=[], nu_bar=[0] * 6)
        weyl.enumerate_group.cache_clear()
        code, text = run(["dim", "--class", path, "--lambda", "1,2,2,3,2,1"])
        assert code == 0
        assert "regular-orbit-bound 32" in text
        assert weyl.enumerate_group.cache_info().misses == 0

    def test_newton_point_off_the_coroot_lattice(self, tmp_path):
        # PGL2, nu_bar = 1/2: e * nu_bar lies in the cocharacter lattice for e = 1
        path = write_class(tmp_path, type="A1", isogeny="adjoint", nu_bar=["1/2"], kappa=[1])
        code, text = run(["dim", "--class", path, "--lambda", "3/2"])
        assert code == 0
        assert "dimension 1\n" in text

    def test_split_class_beyond_the_weyl_cap(self, tmp_path):
        # |W(B6xB5)| is far above the enumeration cap, and no table is needed
        path = write_class(tmp_path, type="B6xB5", w=[], nu_bar=[0] * 11)
        code, text = run(["dim", "--class", path, "--lambda", ",".join(["0"] * 11)])
        assert code == 0
        assert "dimension 0" in text
        assert "regular-orbit-bound 512" in text

    def test_components(self, split_class_file):
        code, text = run(["components", "--class", split_class_file,
                          "--lambda", "1,1"])
        assert code == 0
        assert text.splitlines()[0] == "predicted-orbits 2"

    COMPONENT_KEYS = ("predicted-orbits", "regular-orbit-bound", "regular-bound-exact")

    @pytest.mark.parametrize("fields,lam", [
        ({"residual": [{"root": [1, 1], "val": "1"}]}, "1,1"),
        ({"type": "B2", "nu_bar": [1, 1]}, "4,3"),
        ({"w": [1, 2], "residual": [{"root": r, "val": "1/3"}
                                    for r in ([1, 0], [0, 1], [1, 1])]}, "2,1"),
        ({"type": "A1", "w": [1], "nu_bar": [0], "residual": [{"root": [1], "val": "1/2"}]},
         "2"),
        ({"type": "A1", "nu_bar": [2]}, "1"),
    ], ids=["split", "split-b2", "twisted-coxeter", "twisted-a1", "empty"])
    def test_components_prints_the_lines_of_dim(self, tmp_path, fields, lam):
        path = write_class(tmp_path, **fields)
        code, dim_text = run(["dim", "--class", path, "--lambda", lam])
        assert code == 0
        code, text = run(["components", "--class", path, "--lambda", lam])
        assert code == 0
        if "nonempty false\n" in dim_text:
            assert text == "empty\n"
            return
        lines = dict(line.split(" ", 1) for line in dim_text.splitlines())
        assert text == "".join(f"{k} {lines[k]}\n" for k in self.COMPONENT_KEYS)

    def test_components_builds_no_chen_zhu_grid(self, split_class_file, monkeypatch):
        from kvcalc import kv

        def refuse(rd, nu):
            raise InvariantViolation("the Chen-Zhu grid was built")

        monkeypatch.setattr(kv, "chen_zhu_approx", refuse)
        argv = ["--class", split_class_file, "--lambda", "1,1"]
        assert run(["components", *argv])[0] == 0
        assert run(["dim", *argv])[0] == 2


class TestStrata:
    def test_polytope_membership(self):
        code, text = run(["strata", "polytope", "--type", "A2",
                          "--lambda", "1,1", "--nu", "0,0"])
        assert code == 0
        assert text == "closed true\nopen false\n"

    def test_polytope_intersection(self):
        code, text = run(["strata", "polytope", "--type", "A2",
                          "--lambda", "2,2", "--lambda2", "1,1"])
        assert code == 0
        assert text == "intersection 1,1\n"

    def test_steinberg(self):
        code, text = run(["strata", "steinberg", "--type", "A1",
                          "--lambda", "2", "--cvals", "inf"])
        assert code == 0
        assert text == "stratum 0\n"


class TestNilcone:
    def test_table_and_summary(self):
        code, text = run(["nilcone", "--type", "A1"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[-1] == "summary dim 2 top 1 strata 2"
        assert any(line.endswith("top") for line in lines[:-1])


class TestVerify:
    def test_nilcone_suite_passes(self):
        code, text = run(["verify", "nilcone", "--type", "A1,A2"])
        assert code == 0
        assert text.strip().splitlines()[-1] == "PASS"

    def test_levi_relation_reported_only_after_a_trial(self):
        argv = ["verify", "dimension-consistency", "--type", "A2", "--height", "0"]
        code, text = run(argv + ["--count", "0"])
        assert code == 0
        assert "levi-relation" not in text
        code, text = run(argv + ["--count", "1"])
        assert code == 0
        assert "A2\tlevi-relation\tpass\n" in text

    def test_dimension_consistency_fails_on_a_disagreement(self, monkeypatch, capsys):
        # the check runs inside kv.unramified_dimension, which the suite calls
        r_invariant = conjugacy.r_invariant
        monkeypatch.setattr(conjugacy, "r_invariant", lambda cd: r_invariant(cd) + 1)
        code, _ = run(["verify", "dimension-consistency", "--type", "A2", "--height", "1"])
        assert code == 2
        assert "dimension formulas disagree" in capsys.readouterr().err

    def test_chen_zhu_is_report_only(self):
        code, text = run(["verify", "chen-zhu-compare", "--height", "2"])
        assert code == 0
        assert text.strip().splitlines()[-1] == "REPORT"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["weyl", "--type", "B2", "--coxeter"],
        ["nilcone", "--type", "B2"],
        ["mult", "--type", "A2", "--sweep", "5"],
        ["verify", "dimension-consistency", "--type", "A2", "--height", "3",
         "--count", "3"],
    ])
    def test_repeated_runs_identical(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0


def test_invariant_violation_survives_python_O(inconsistent_class_file):
    """The checks that refuse an inconsistent datum are not asserts: they
    still exit 2 when the interpreter strips asserts.  Under -O pytest would
    strip the test's own asserts as well, so the calculator runs in a child."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kvcalc.cli", "dim", "--class",
         inconsistent_class_file, "--lambda", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("invariant violated:") for line in proc.stderr.splitlines())


# ---------------------------------------------------------------------------
# start-up: what `import kvcalc.cli` and one command load


@lru_cache(maxsize=None)
def _loaded(code: str = "") -> frozenset:
    """The modules in sys.modules after `code` ran in a fresh interpreter.
    With no code this is the interpreter's own baseline (`python -c pass`),
    which `site` may already have filled with `.pth` imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    probe = f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def _added(code: str) -> frozenset:
    return _loaded(code) - _loaded()


class TestStartup:
    def test_import_loads_no_heavy_stdlib_module(self):
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "random"}
        assert not _added("import kvcalc.cli") & heavy

    def test_import_loads_only_the_base_layers(self):
        layers = {m for m in _added("import kvcalc.cli") if m.startswith("kvcalc")}
        assert layers <= {"kvcalc", "kvcalc.cli", "kvcalc.errors", "kvcalc.rootdata",
                          "kvcalc.linalg"}

    def test_weyl_loads_no_other_layer(self):
        added = _added("import io\nfrom kvcalc import cli\n"
                       "assert cli.run(['weyl', '--type', 'A2'], io.StringIO()) == 0")
        assert "kvcalc.weyl" in added
        unused = ("vinberg", "strata", "kv", "conjugacy", "multiplicity")
        assert not added & {f"kvcalc.{m}" for m in unused}


# ---------------------------------------------------------------------------
# argv fuzz: whatever the arguments, exit 0, 1 or 2, print only to `out`, and
# never a traceback

_RANKS = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "B3": 3, "C3": 3, "G2": 2, "A1xA1": 2,
          "A1xA2": 3, "A1xG2": 3}
_JUNK = st.sampled_from(["", "x", "Z9", "A0", "A2xQ1", "1,,2", "1/0", "inf", "nan",
                         "1e999", "-1", "--", "-h", "\u00e9"])
_FLAGS = {
    "weyl": ["--type", "--isogeny", "--coxeter"],
    "mult": ["--type", "--isogeny", "--lambda", "--mu", "--sweep"],
    "dim": ["--class", "--lambda", "--json"],
    "components": ["--class", "--lambda"],
    "strata": ["--type", "--isogeny", "--lambda", "--lambda2", "--nu", "--cvals"],
    "nilcone": ["--type", "--isogeny"],
    "verify": ["--type", "--seed"],
}


@st.composite
def _argv(draw):
    """An argv of a small command, mostly well formed: each token is junk
    with probability 1/10, and coordinates come in the rank of the type."""
    def value(strategy):
        return draw(_JUNK if draw(st.integers(0, 9)) == 9 else strategy)

    command = value(st.sampled_from(sorted(_FLAGS)))
    label = value(st.sampled_from(sorted(_RANKS)))
    # the class files of `fuzz_files` are of type A2; "{name}" stands for one
    rank = 2 if command in ("dim", "components") else _RANKS.get(label, 2)

    def coords(*extra):
        entry = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", *extra])
        return st.lists(entry, min_size=rank, max_size=rank).map(",".join)

    small = st.integers(-1, 3).map(str)
    values = {
        "--type": st.just(label),
        "--isogeny": st.sampled_from(["sc", "sc", "adjoint", "adjoint", "custom:{isogeny}",
                                      "custom:{missing}", "custom:{malformed}"]),
        "--class": st.sampled_from(["{split}", "{split}", "{split}", "{inconsistent}",
                                    "{malformed}", "{missing}"]),
        "--lambda": coords(), "--lambda2": coords(), "--mu": coords(), "--nu": coords("-2/3"),
        "--cvals": coords("inf"), "--sweep": small, "--seed": small, "--count": small,
        # heights above 1 make stratification-disjoint take seconds on rank 3
        "--height": st.integers(-1, 1).map(str),
        "--coxeter": None, "--json": None,
    }
    argv = [command]
    if command == "strata":
        argv.append(value(st.sampled_from(["polytope", "steinberg"])))
    if command == "verify":
        argv.append(value(st.sampled_from(sorted(cli.VERIFY_SUITES))))
    flags = [f for f in _FLAGS.get(command, []) if draw(st.integers(0, 4)) < 4]
    if command == "verify":  # the defaults (6 and 20) are too slow to fuzz
        flags += ["--height", "--count"]
    if draw(st.integers(0, 9)) == 9:  # a flag of another command
        flags.append(draw(st.sampled_from(sorted(values))))
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if values[flag] is not None:
            argv.append(value(values[flag]))
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(_JUNK | st.just("--bogus")))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "split": {"type": "A2", "nu_bar": [0, 0], "residual": [{"root": [1, 1], "val": "1"}]},
        "inconsistent": {"type": "A1", "w": [1], "nu_bar": [0],
                         "residual": [{"root": [1], "val": "1"}]},
        "isogeny": [[1, 0], [0, 1]],
    }
    files = {"missing": str(root / "missing.json"), "malformed": str(root / "malformed.json")}
    (root / "malformed.json").write_text("{not json")
    for name, data in contents.items():
        files[name] = str(root / f"{name}.json")
        Path(files[name]).write_text(json.dumps(data))
    return files


# one valid command per handler, so that every deferred import runs
@example(["weyl", "--type", "A2"])
@example(["weyl", "--type", "B2", "--coxeter", "--isogeny", "custom:{isogeny}"])
@example(["mult", "--type", "A2", "--lambda", "2,1", "--mu", "0,0"])
@example(["mult", "--type", "G2", "--sweep", "2"])
@example(["dim", "--class", "{split}", "--lambda", "2,1"])
@example(["dim", "--class", "{split}", "--lambda", "2,1", "--json"])
@example(["dim", "--class", "{inconsistent}", "--lambda", "1"])
@example(["components", "--class", "{split}", "--lambda", "2,1"])
@example(["strata", "polytope", "--type", "A2", "--lambda", "2,1", "--nu", "1/2,1/2"])
@example(["strata", "polytope", "--type", "A2", "--lambda", "2,1", "--lambda2", "1,1"])
@example(["strata", "steinberg", "--type", "A2", "--lambda", "2,1", "--cvals", "1,inf"])
@example(["nilcone", "--type", "B2"])
@example(["verify", "lower-bound", "--type", "A2", "--height", "2"])
@example(["verify", "nilcone", "--type", "A2"])
@example(["verify", "freudenthal-kostant", "--type", "A2", "--height", "2"])
@example(["verify", "dimension-consistency", "--type", "A2", "--height", "1", "--count", "1"])
@example(["verify", "stratification-disjoint", "--type", "A2", "--height", "1"])
@example(["verify", "chen-zhu-compare", "--type", "A2", "--height", "1"])
@given(argv=_argv())
@settings(max_examples=200, deadline=None)
def test_fuzzed_argv_exits_cleanly(fuzz_files, argv):
    argv = [a.format(**fuzz_files) if "{" in a else a for a in argv]
    err, stdout = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(stdout):
        code = cli.run(argv, out=io.StringIO())
    assert code in (0, 1, 2), (argv, code)
    assert stdout.getvalue() == "", (argv, "printed to sys.stdout, not to out")
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
