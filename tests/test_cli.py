"""End-to-end command-line behaviour: exit codes, exact output, determinism."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kvcalc import cli, weyl


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
    ], ids=["w-float", "e-float", "kappa-float", "residual-root-float", "nu-num-float",
            "nu-den-float", "residual-num-float", "w-infinite"])
    def test_non_integral_number_in_integer_field(self, tmp_path, capsys, fields):
        path = write_class(tmp_path, **fields)
        self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)

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
        from kvcalc import kv
        rep = kv.KVReport.from_json(data)
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
