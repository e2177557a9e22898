"""End-to-end command-line behaviour: exit codes, exact output, determinism."""

import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvcalc import cli, conjugacy, kv, rootdata, weyl
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

    FLAGS = {  # every flag of each command, which its usage line names
        "weyl": ["--type", "--isogeny", "--coxeter"],
        "mult": ["--type", "--isogeny", "--lambda", "--mu", "--sweep"],
        "dim": ["--class", "--lambda", "--json"],
        "components": ["--class", "--lambda"],
        "strata": ["--type", "--isogeny", "--lambda", "--lambda2", "--nu", "--cvals"],
        "nilcone": ["--type", "--isogeny"],
        "verify": ["--type", "--isogeny", "--height", "--seed", "--count"],
    }

    @pytest.mark.parametrize("argv", [["--help"], *([name, "-h"] for name in FLAGS)])
    def test_help_is_written_to_out(self, argv, capsys):
        code, text = run(argv)
        assert code == 0
        assert text.startswith("usage: kv-calc")
        assert capsys.readouterr().out == ""
        if argv[0] in self.FLAGS:
            usage = text.splitlines()[0]
            assert sorted(re.findall(r"--[a-z0-9]+", usage)) == sorted(self.FLAGS[argv[0]])

    def test_help_describes_the_calculator_not_its_implementation(self):
        code, text = run(["--help"])
        assert code == 0
        assert ("Exact-arithmetic calculator for dimensions and component counts of "
                "Kottwitz-Viehmann varieties") in text.splitlines()
        assert "os._exit" not in text


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
        return err

    def test_missing_isogeny_file(self, capsys):
        self.check(["weyl", "--type", "A2", "--isogeny", "custom:/missing.json"], capsys)

    @pytest.mark.parametrize("isogeny", ["garbage", "custom:/no/such.json"])
    @pytest.mark.parametrize("suite", sorted(cli.VERIFY_SUITES))
    def test_verify_suite_refuses_a_bad_isogeny(self, suite, isogeny, capsys):
        argv = ["verify", suite, "--type", "A2", "--height", "3", "--count", "1"]
        self.check(argv + ["--isogeny", isogeny], capsys)

    # A2 comes first and yields rows at this height; each datum is built, and
    # the bad one refused, before the first row is printed
    @pytest.mark.parametrize("suite", sorted(cli.VERIFY_SUITES))
    def test_verify_suite_refuses_a_bad_later_type_before_any_row(self, suite, capsys):
        self.check(["verify", suite, "--type", "A2,Z9", "--height", "3", "--count", "1"], capsys)

    @pytest.mark.parametrize("suite", sorted(cli.VERIFY_SUITES))
    def test_verify_suite_refuses_a_later_type_off_the_isogeny_file_before_any_row(
            self, suite, tmp_path, capsys):
        path = tmp_path / "isogeny.json"
        path.write_text(json.dumps([[1, 0], [0, 1]]))  # two generators: a lattice for A2, not A3
        argv = ["verify", suite, "--type", "A2,A3", "--height", "3", "--count", "1"]
        self.check(argv + ["--isogeny", f"custom:{path}"], capsys)

    # a custom isogeny is rank-many integer lists; a string or a dict used to be
    # iterated, "1" and ["10", "01"] into the adjoint lattice's generators
    def test_isogeny_flag_that_is_neither_name_nor_file(self, capsys):
        argv = ["mult", "--type", "A1", "--isogeny", "1", "--lambda", "1/2", "--mu", "1/2"]
        assert self.check(argv, capsys).startswith("error: cannot read isogeny '1'")

    @pytest.mark.parametrize("isogeny", [["10", "01"], {"10": 0, "01": 1}],
                             ids=["strings", "dict"])
    def test_isogeny_file_of_non_lists(self, isogeny, tmp_path, capsys):
        path = tmp_path / "isogeny.json"
        path.write_text(json.dumps(isogeny))
        err = self.check(["weyl", "--type", "A2", "--isogeny", f"custom:{path}"], capsys)
        assert err.startswith("error: cannot read isogeny ")

    @pytest.mark.parametrize("isogeny", [["10", "01"], {"10": 0, "01": 1}],
                             ids=["strings", "dict"])
    def test_class_isogeny_of_non_lists(self, isogeny, tmp_path, capsys):
        path = write_class(tmp_path, isogeny=isogeny)
        err = self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)
        assert err.startswith("error: cannot read isogeny ")

    def test_integer_strings_inside_generators_are_read(self, tmp_path):
        path = write_class(tmp_path, isogeny=[["1", "0"], ["0", "1"]])
        code, text = run(["dim", "--class", path, "--lambda", "1,1"])
        assert code == 0 and "dimension 2\n" in text

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

    # int(True) is 1 and Fraction(False) is 0; a JSON boolean is refused, not read as either
    @pytest.mark.parametrize("fields", [
        {"nu_bar": [False, False]},
        {"nu_bar": {"num": [True, True], "den": 1}},
        {"nu_bar": {"num": [1, 1], "den": True}},
        {"residual": [{"root": [True, True], "val": 1}]},
        {"residual": [{"root": [1, 1], "val": True}]},
        {"residual": [{"root": [1, 1], "val": {"num": True, "den": 1}}]},
        {"residual": [{"root": [1, 1], "val": {"num": 1, "den": True}}]},
        {"kappa": [False, False]},
        {"w": [True]},
        {"e": True},
        {"isogeny": [[True, False], [False, True]]},
    ], ids=["nu-bar-list", "nu-num", "nu-den", "residual-root", "residual-val",
            "residual-num", "residual-den", "kappa", "w", "e", "isogeny"])
    def test_boolean_in_a_number_field(self, tmp_path, capsys, fields):
        path = write_class(tmp_path, **fields)
        self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)

    def test_boolean_in_isogeny_file(self, tmp_path, capsys):
        path = tmp_path / "isogeny.json"
        path.write_text(json.dumps([[True, False], [False, True]]))
        err = self.check(["weyl", "--type", "A2", "--isogeny", f"custom:{path}"], capsys)
        assert err.startswith("error: cannot read isogeny ")

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

    # the file is decoded once: a string that holds a class is not a class
    def test_class_json_holding_a_string_that_holds_a_class(self, tmp_path, capsys):
        path = tmp_path / "class.json"
        path.write_text(json.dumps(json.dumps({"type": "A2", "nu_bar": [0, 0]})))
        err = self.check(["dim", "--class", str(path), "--lambda", "2,2"], capsys)
        assert err == "error: class JSON must be an object\n"

    # every list field is a JSON list: a string or an object would iterate
    # into integers, "12" into the word s1 s2 and {"1": 0} into s1
    @pytest.mark.parametrize("fields", [
        {"w": "12"},
        {"w": {"1": 0}},
        {"kappa": "00"},
        {"kappa": {"0": 1}},
        {"nu_bar": "00"},
        {"nu_bar": {"num": "00", "den": 1}},
        {"residual": [{"root": "11", "val": 1}]},
    ], ids=["w-string", "w-object", "kappa-string", "kappa-object", "nu-string",
            "nu-num-string", "residual-root-string"])
    def test_list_field_that_is_not_a_list(self, tmp_path, capsys, fields):
        path = write_class(tmp_path, **fields)
        self.check(["dim", "--class", path, "--lambda", "2,2"], capsys)

    def test_residual_root_listed_twice(self, tmp_path, capsys):
        path = write_class(tmp_path, residual=[{"root": [1, 1], "val": 1},
                                               {"root": [1, 1], "val": 2}])
        err = self.check(["dim", "--class", path, "--lambda", "2,2"], capsys)
        assert "residual-root: duplicate entry for (1, 1)" in err

    def test_splitting_degree_off_the_twist_order(self, tmp_path, capsys):
        path = write_class(tmp_path, w=[1], e=3)
        err = self.check(["dim", "--class", path, "--lambda", "1,1"], capsys)
        assert err == ("error: invalid class datum: splitting-degree: e=3 but the twist "
                       "has order 2\n")

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

    @pytest.mark.parametrize("operand", [["--lambda", "1,1"], ["--mu", "0,0"]])
    def test_mult_sweep_refuses_a_single_query_operand(self, operand, capsys):
        self.check(["mult", "--type", "A2", "--sweep", "2", *operand], capsys)

    # on A2 every dominant lambda has <lambda + rho, theta-vee> >= 2
    @pytest.mark.parametrize("cap", ["-1", "0", "1"])
    def test_mult_sweep_that_reaches_no_lambda(self, cap, capsys):
        err = self.check(["mult", "--type", "A2", "--sweep", cap], capsys)
        assert err == f"error: mult --sweep {cap} reaches no dominant lambda\n"

    def test_strata_polytope_refuses_both_nu_and_lambda2(self, capsys):
        self.check(["strata", "polytope", "--type", "A2", "--lambda", "2,1",
                    "--nu", "1/2,1/2", "--lambda2", "1,1"], capsys)

    def test_strata_polytope_refuses_cvals(self, capsys):
        self.check(["strata", "polytope", "--type", "A2", "--lambda", "2,1",
                    "--nu", "1/2,1/2", "--cvals", "1,inf"], capsys)

    @pytest.mark.parametrize("operand", [["--nu", "1/2,1/2"], ["--lambda2", "1,1"]])
    def test_strata_steinberg_refuses_a_polytope_operand(self, operand, capsys):
        self.check(["strata", "steinberg", "--type", "A2", "--lambda", "2,1",
                    "--cvals", "1,inf", *operand], capsys)

    # argv is read off the command table first; then each handler checks
    # --type, then its flags, in this order
    @pytest.mark.parametrize("argv,message", [
        ([], f"no command; choose from {sorted(cli.COMMANDS)}"),
        (["bogus"], f"unknown command 'bogus'; choose from {sorted(cli.COMMANDS)}"),
        (["weyl", "--type", "A2", "--bogus"], "unrecognized argument '--bogus'"),
        (["weyl", "--type"], "--type needs a value"),
        (["verify", "nilcone", "--height", "x"], "--height takes an integer, not 'x'"),
        (["weyl", "--type", "A2", "--coxeter=1"], "--coxeter takes no value"),
        (["strata", "--type", "A2", "--lambda", "1,1"],
         "no kind; choose from ['polytope', 'steinberg']"),
        (["strata", "bad", "--type", "A2", "--lambda", "1,1"],
         "unknown kind 'bad'; choose from ['polytope', 'steinberg']"),
        (["verify", "--type", "A2"], f"no suite; choose from {sorted(cli.VERIFY_SUITES)}"),
        (["dim", "--lambda", "1,1"], "dim needs --class"),
        # a prefix of a flag is not the flag
        (["mult", "--type", "A2", "--lam", "1,1", "--mu", "0,0"], "unrecognized argument '--lam'"),
        (["weyl"], "--type is required"),
        (["nilcone", "--type", ""], "--type is required"),
        (["mult", "--sweep", "2", "--mu", "0,0"], "--type is required"),
        (["strata", "steinberg", "--lambda", "1,1"], "--type is required"),
        (["mult", "--type", "A2", "--lambda", "1,1"], "mult needs --lambda and --mu (or --sweep)"),
        (["mult", "--type", "A2", "--sweep", "2", "--mu", "0,0"],
         "mult --sweep takes no --lambda or --mu"),
        (["strata", "polytope", "--type", "A2", "--lambda", "1,1", "--cvals", "1,1"],
         "polytope needs --nu or --lambda2"),
        (["strata", "polytope", "--type", "A2", "--lambda", "1,1", "--nu", "0,0",
          "--lambda2", "1,1", "--cvals", "1,1"], "polytope takes --nu or --lambda2, not both"),
        (["strata", "polytope", "--type", "A2", "--lambda", "1,1", "--nu", "0,0",
          "--cvals", "1,1"], "polytope takes no --cvals"),
        (["strata", "steinberg", "--type", "A2", "--lambda", "1,1", "--nu", "0,0"],
         "steinberg needs --cvals"),
        (["strata", "steinberg", "--type", "A2", "--lambda", "x", "--cvals", "1,1",
          "--lambda2", "1,1"], "steinberg takes no --nu or --lambda2"),
        (["verify", "lower-bound", "--type", "A2,"], "cannot parse type label ''"),
    ])
    def test_flag_rules_name_their_fault(self, argv, message, capsys):
        assert self.check(argv, capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("argv,prefix", [
        (["weyl", "--type", "A2", "--isogeny", "custom:{missing}"], "cannot read isogeny file: "),
        (["weyl", "--type", "A2", "--isogeny", "custom:{malformed}"], "malformed isogeny JSON: "),
        (["dim", "--class", "{missing}", "--lambda", "1,1"], "cannot read class file: "),
        (["dim", "--class", "{malformed}", "--lambda", "1,1"], "malformed class JSON: "),
    ])
    def test_json_file_errors_name_the_file_kind(self, argv, prefix, tmp_path, capsys):
        malformed = tmp_path / "malformed.json"
        malformed.write_text("[[1, 0],")
        paths = {"missing": tmp_path / "missing.json", "malformed": malformed}
        argv = [arg.format(**paths) for arg in argv]
        assert self.check(argv, capsys).startswith("error: " + prefix)

    # on A2 sc, 1,3 is integral but not dominant and 2/3,1/3 is dominant but
    # off the coroot lattice; each operand is refused, by its own name
    @pytest.mark.parametrize("coweight,refusal", [("1,3", "must be dominant"),
                                                  ("2/3,1/3", "is not in the isogeny lattice")],
                             ids=["not-dominant", "off-the-lattice"])
    @pytest.mark.parametrize("argv,name", [
        (["mult", "--type", "A2", "--lambda", None, "--mu", "0,0"], "lambda"),
        (["mult", "--type", "A2", "--lambda", "1,1", "--mu", None], "mu"),
        (["dim", "--class", "CLASS", "--lambda", None], "lambda"),
        (["components", "--class", "CLASS", "--lambda", None], "lambda"),
        (["strata", "polytope", "--type", "A2", "--lambda", None, "--nu", "0,0"], "lambda"),
        (["strata", "polytope", "--type", "A2", "--lambda", "1,1", "--lambda2", None],
         "lambda2"),
        (["strata", "steinberg", "--type", "A2", "--lambda", None, "--cvals", "1,inf"],
         "lambda"),
    ], ids=["mult-lambda", "mult-mu", "dim", "components", "polytope-lambda",
            "polytope-lambda2", "steinberg"])
    def test_coweight_off_the_dominant_lattice_is_refused(self, argv, name, coweight, refusal,
                                                         tmp_path, capsys):
        argv = [coweight if a is None else write_class(tmp_path) if a == "CLASS" else a
                for a in argv]
        assert f"error: {name} {refusal}\n" == self.check(argv, capsys)

    def test_suite_checking_nothing_fails(self, capsys):
        self.check(["verify", "lower-bound", "--height", "-3"], capsys)

    def test_oversized_grid_is_refused_before_it_starts(self, capsys):
        start = time.perf_counter()
        self.check(["verify", "stratification-disjoint", "--height", "100000"], capsys)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("argv", [
        ["mult", "--type", "A2", "--lambda", "3000,3000", "--mu", "0,0"],
        ["dim", "--class", None, "--lambda", "3000,3000"],
    ], ids=["mult", "dim"])
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

    def test_oversized_levi_trials_are_refused_before_they_start(self):
        # 10^8 trials of 2 Levi relations each; in a child with a timeout, so
        # that trials that do start fail the test instead of hanging it
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kvcalc.cli", "verify", "dimension-consistency",
             "--type", "A1", "--height", "0", "--count", "100000000"],
            capture_output=True, text=True, env=env, timeout=20)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: the Levi trials") and proc.stderr.count("\n") == 1

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
        weyl.enumerate_group.cache_clear()
        code, text = run(["weyl", "--type", "F4"])
        assert code == 0 and text == "order 1152\nlongest-length 24\n"
        assert weyl._descent_masks.cache_info().misses == 0
        assert weyl.enumerate_group.cache_info().misses == 0

    # |W| and l(w0) are printed from closed forms, checked here against the table
    @pytest.mark.parametrize("label", [
        *(f"A{n}" for n in range(1, 7)), *(f"B{n}" for n in range(2, 7)),
        *(f"C{n}" for n in range(2, 7)), "D4", "D5", "D6", "E6", "F4", "G2",
        "A1xB2", "A2xG2", "B3xC3"])
    def test_order_and_longest_length_are_the_table_s(self, label):
        group = weyl.enumerate_group(rootdata.build_root_datum(label))
        expected = f"order {len(group)}\nlongest-length {group[-1].length}\n"
        assert run(["weyl", "--type", label]) == (0, expected)

    @pytest.mark.parametrize("label,order,length", [("E6xA1", 103680, 37),
                                                    ("A5xA5", 518400, 30)])
    def test_product_over_the_enumeration_cap_answers(self, label, order, length):
        code, text = run(["weyl", "--type", label])
        assert (code, text) == (0, f"order {order}\nlongest-length {length}\n")

    def test_repeated_flag_takes_its_last_value(self):
        assert run(["weyl", "--type", "A1", "--type", "A2"]) == (0, "order 6\nlongest-length 3\n")

    def test_order_at_the_enumeration_cap(self):
        code, text = run(["weyl", "--type", "E6"])
        assert code == 0 and text == "order 51840\nlongest-length 36\n"


class TestMult:
    def test_single_value(self):
        code, text = run(["mult", "--type", "A2", "--lambda", "1,1", "--mu", "0,0"])
        assert code == 0
        assert text == "2\n"

    def test_sweep_is_tsv(self):
        code, text = run(["mult", "--type", "A1", "--sweep", "4"])
        assert code == 0
        rows = [line.split("\t") for line in text.strip().splitlines()]
        # rows by (lambda, mu), each increasing: lambda = 1 lists mu = 0, then 1
        assert rows == [["0", "0", "1"], ["1", "0", "1"], ["1", "1", "1"]]


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

    def test_twisted_class_beyond_the_weyl_cap(self, tmp_path):
        # |W(A5xA5)| = 518400 is above the enumeration cap; the twist's word needs no table
        alpha2 = [0, 1] + [0] * 8
        path = write_class(tmp_path, type="A5xA5", w=[2], nu_bar=[0] * 10,
                           residual=[{"root": alpha2, "val": "1/2"}])
        lam = ",".join(["1"] * 10)
        weyl.enumerate_group.cache_clear()
        code, text = run(["dim", "--class", path, "--lambda", lam])
        assert code == 0 and "dimension 10\n" in text
        code, text = run(["components", "--class", path, "--lambda", lam])
        assert code == 0 and text.startswith("predicted-orbits 25\n")
        assert weyl.enumerate_group.cache_info().misses == 0

    # validate accepts a class whose dimension is a half-integer at every lambda
    # of its fundamental-group class; at a lambda off that class it is empty
    def test_class_with_no_integral_dimension_is_answered_off_its_class(self, tmp_path,
                                                                          capsys):
        positive = rootdata.build_root_datum("B3", "adjoint").positive_roots
        path = write_class(tmp_path, type="B3", isogeny="adjoint", w=[1, 2, 3],
                           nu_bar=[0, 0, 0], kappa=[0, 0, 1],
                           residual=[{"root": list(root), "val": "7/6"} for root in positive])
        code, text = run(["dim", "--class", path, "--lambda", "1,2,1"])
        assert code == 0 and text.startswith("nonempty false\n")
        code, text = run(["dim", "--class", path, "--lambda", "1,2,3/2"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "invariant violated: dimension 27/2 is not an integer\n"

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

    def test_polytope_membership_walks_no_dominance_interval(self):
        # the open stratum is decided by the covers lambda - beta; the interval
        # below (3000, 3000) would be over the grid cap.  In a child with a
        # timeout, so that a walk that does start fails the test.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kvcalc.cli", "strata", "polytope", "--type", "A2",
             "--lambda", "3000,3000", "--nu", "1/3,1/3"],
            capture_output=True, text=True, env=env, timeout=20)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "closed true\nopen false\n"

    def test_steinberg(self):
        code, text = run(["strata", "steinberg", "--type", "A1",
                          "--lambda", "2", "--cvals", "inf"])
        assert code == 0
        assert text == "stratum 0\n"

    @pytest.mark.parametrize("inf_cvals,same_cvals", [
        ("inf,1", ["Infinite,1", "OO,1", "3,1", "7/2,1", "10,1"]),
        ("inf,inf", ["OO,Infinite", "infinite,oo", "3,3", "inf,10"]),
    ])
    def test_steinberg_reads_inf_as_any_valuation_of_at_least_lambda(self, inf_cvals,
                                                                     same_cvals):
        # lambda = 3,3: a c-valuation of 3 or more bounds mu below no more than
        # an infinite one, and every spelling of infinity is the same value
        argv = ["strata", "steinberg", "--type", "A2", "--lambda", "3,3", "--cvals"]
        code, text = run(argv + [inf_cvals])
        assert code == 0 and text.startswith("stratum ") and text != "stratum 3,3\n"
        for cvals in same_cvals:
            assert run(argv + [cvals]) == (0, text), cvals

    @pytest.mark.parametrize("argv,flag,value", [
        (["strata", "polytope", "--type", "A2", "--lambda", "1,1"], "--nu", "-1/2,1"),
        (["strata", "steinberg", "--type", "A2", "--lambda", "2,1"], "--cvals", "-5,1"),
        (["mult", "--lambda", "2,1", "--mu", "0,0"], "--type", "A2"),
        (["mult", "--type", "A2", "--mu", "0,0"], "--lambda", "2,1"),
        (["mult", "--type", "A2", "--lambda", "2,1"], "--mu", "0,0"),
        (["mult", "--type", "A2", "--lambda", "2,1"], "--mu", "-1,2"),
    ])
    def test_negative_list_after_its_flag_is_its_value(self, argv, flag, value, capsys):
        # the token after a value flag is its value, negative or not, and
        # --flag=value reads the same
        spaced = run(argv + [flag, value]), capsys.readouterr().err
        attached = run(argv + [f"{flag}={value}"]), capsys.readouterr().err
        assert spaced == attached
        assert "expected one argument" not in spaced[1]

    def test_negative_lambda_is_refused_as_not_dominant(self, capsys):
        code, text = run(["strata", "polytope", "--type", "A2", "--lambda", "-1,1",
                          "--nu", "0,0"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: lambda must be dominant\n"


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
        # the suite compares the report's dimension with <rho, lam - mu> + r(gamma)
        r_invariant = conjugacy.r_invariant
        monkeypatch.setattr(conjugacy, "r_invariant", lambda cd: r_invariant(cd) + 1)
        code, _ = run(["verify", "dimension-consistency", "--type", "A2", "--height", "1"])
        assert code == 2
        assert "dimension formulas disagree" in capsys.readouterr().err

    def test_dimension_consistency_fails_on_a_wrong_mu_star(self, monkeypatch, capsys):
        # mu* searched above 0 instead of above the Newton point mu: the
        # report's mu* leaves the proven case, where it is mu itself
        least_above = rootdata._least_above
        monkeypatch.setattr(rootdata, "_least_above",
                            lambda rd, lam, low: least_above(rd, lam, [Fraction(0)] * len(low)))
        # height 2 reaches lambda = 1,1; at height 1 the only row is lambda = mu = 0
        code, _ = run(["verify", "dimension-consistency", "--type", "A2", "--height", "2"])
        assert code == 2
        assert "mu* of the split class at 1,1 is 0,0, not mu = 1,1" in capsys.readouterr().err

    def test_suites_build_the_datum_under_the_isogeny(self):
        # the adjoint lattice holds the fundamental coweights, which sit under 3/4,3/4
        argv = ["verify", "chen-zhu-compare", "--type", "A2", "--height", "2"]
        code, sc = run(argv)
        assert code == 0
        assert "A2\t3/4,3/4\tmin-above 1,1\tmax-below 0,0\tdiffer\n" in sc
        code, adjoint = run(argv + ["--isogeny", "adjoint"])
        assert code == 0
        assert "A2\t3/4,3/4\tmin-above 1,1\tmax-below 1/3,2/3 2/3,1/3\tdiffer\n" in adjoint

    # one small run of each suite over two types: its flags and the sha256 of its stdout
    TWO_TYPE_RUNS = {
        "lower-bound": (["--type", "A2,B2", "--height", "6"],
                        "a2448a851c7cbc2d79e28a9877828d56b0028faaa8c8c9ee894672943df0264e"),
        "nilcone": (["--type", "A1,B2", "--isogeny", "adjoint"],
                    "5f2b4817434ad0683658c716a70d5801bad4f538c24b05d560f40f3783795336"),
        "freudenthal-kostant": (["--type", "A1,B2", "--height", "5", "--isogeny", "adjoint"],
                                "409a4c827067d51452bb7134e2669505c91ff8bcd0f601b335fe94f990bc462f"),
        "dimension-consistency": (["--type", "A2,A3", "--height", "2", "--count", "2"],
                                  "f752e73ba474109d6f43107733a80fd80c803267180eecb01153e9a04f31de93"),
        "stratification-disjoint": (["--type", "A2,B2", "--height", "1"],
                                    "d18179fa1995dc48f962137f0d3154c2d0f69ed79558c648acaf2cebeceba9c9"),
        "chen-zhu-compare": (["--type", "A2,G2", "--height", "2", "--isogeny", "adjoint"],
                             "0247898a6b3a5f3e0a0feef14763c5e7b5ecfcea30339225af4d4688670234f7"),
    }

    @pytest.mark.parametrize("suite", TWO_TYPE_RUNS)
    def test_run_over_two_types_is_byte_identical(self, suite):
        flags, digest = self.TWO_TYPE_RUNS[suite]
        code, text = run(["verify", suite, *flags])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_every_suite_has_a_two_type_run(self):
        assert sorted(self.TWO_TYPE_RUNS) == sorted(cli.VERIFY_SUITES)

    def test_chen_zhu_takes_the_highest_lambda_above_nu(self):
        # the suite reads mu* from the first lambda above nu, and must print
        # what the highest one gives; at height 8 on A2 the first highest
        # lambda of the sweep is not above every nu of the grid, so the filter
        # decides; the oracle compares in Fractions, as the suite did before
        # it scaled lambda by 4
        datum = rootdata.build_root_datum("A2")
        code, text = run(["verify", "chen-zhu-compare", "--type", "A2", "--height", "8"])
        assert code == 0
        lams = rootdata.dominant_integral_sweep(datum, 8 + 2 * datum.rank)
        rows = [line.split("\t") for line in text.splitlines()[:-1]]
        nus = [rootdata.parse_coweight(datum, nu) for _, nu, *_ in rows]
        assert not all(rootdata.leq_q(datum, nu, max(lams, key=sum)) for nu in nus)
        for (_, _, min_above, *_), nu in zip(rows, nus):
            top = max((lam for lam in lams if rootdata.leq_q(datum, nu, lam)), key=sum)
            mu_star = kv.best_integral_approx(datum, nu, top)
            assert min_above == f"min-above {rootdata.format_coweight(mu_star)}"

    def test_chen_zhu_is_report_only(self):
        code, text = run(["verify", "chen-zhu-compare", "--height", "2"])
        assert code == 0
        assert text.strip().splitlines()[-1] == "REPORT"


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """Every `kv-calc` line of the README's "Command line" block exits 0,
    `dim` with and without its optional --json, on the README's class file."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    (tmp_path / "cls.json").write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    argvs = []
    for line in block.splitlines():
        argv = line.split("#", 1)[0].split()
        assert argv[0] == "kv-calc", line
        if "[--json]" in argv:
            argv.remove("[--json]")
            argvs.append(argv + ["--json"])
        argvs.append(argv)
    assert len(argvs) == 12
    for argv in argvs:
        assert run(argv[1:])[0] == 0, argv


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
# the entry point: `main` flushes the block-buffered stdout of a pipe, then
# ends in `os._exit`


def _entry_point(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout stays block-buffered, as by default
    return subprocess.run([sys.executable, "-m", "kvcalc.cli", *argv], capture_output=True,
                          env=env, timeout=120)


class TestEntryPoint:
    @pytest.mark.parametrize("argv", [
        ["nilcone", "--type", "A4"],
        ["dim", "--class", "{split}", "--lambda", "2,1", "--json"],
    ])
    def test_stdout_is_byte_identical_to_run(self, argv, split_class_file):
        argv = [a.format(split=split_class_file) for a in argv]
        code, text = run(argv)
        assert code == 0
        proc = _entry_point(argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == text.encode()

    def test_usage_error_exits_1_with_one_error_line(self):
        proc = _entry_point(["weyl"])
        assert proc.returncode == 1
        assert proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # the table of D5 is about 220 KB, more than a pipe buffer, so the
        # child is still printing when the reader closes the pipe
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        with subprocess.Popen([sys.executable, "-m", "kvcalc.cli", "nilcone", "--type", "D5"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()  # a no-op once the child has exited
            assert first == b"-\te\t0\t0\t.\n"
            assert code == 1
            assert proc.stderr.read() == b""

    def test_run_leaves_the_freeze_count_as_it_found_it(self, split_class_file):
        # tests and library callers run many commands in one process, whose
        # collections must keep seeing what those commands leave behind
        before = gc.get_freeze_count()
        assert run(["weyl", "--type", "B3"])[0] == 0
        assert run(["dim", "--class", split_class_file, "--lambda", "2,1"])[0] == 0
        assert run(["weyl"])[0] == 1
        assert gc.get_freeze_count() == before


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
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "json", "random",
                 "argparse", "gettext", "fractions", "decimal"}
        assert not _added("import kvcalc.cli") & heavy

    def test_import_loads_only_the_base_layers(self):
        layers = {m for m in _added("import kvcalc.cli") if m.startswith("kvcalc")}
        assert layers <= {"kvcalc", "kvcalc.cli", "kvcalc.errors", "kvcalc.rootdata",
                          "kvcalc.linalg"}

    def test_weyl_loads_no_other_layer(self):
        # |W| and l(w0) need no layer beyond the import's and no Fraction;
        # the Coxeter elements need the Weyl layer alone
        added = _added("import io\nfrom kvcalc import cli\n"
                       "assert cli.run(['weyl', '--type', 'A2'], io.StringIO()) == 0")
        assert added == _added("import kvcalc.cli")
        added = _added("import io\nfrom kvcalc import cli\n"
                       "assert cli.run(['weyl', '--type', 'A2', '--coxeter'], io.StringIO()) == 0")
        assert "kvcalc.weyl" in added
        unused = ("vinberg", "strata", "kv", "conjugacy", "multiplicity")
        assert not added & {f"kvcalc.{m}" for m in unused}

    def test_nilcone_loads_no_fractions(self):
        added = _added("import io\nfrom kvcalc import cli\n"
                       "assert cli.run(['nilcone', '--type', 'B2'], io.StringIO()) == 0")
        assert "kvcalc.vinberg" in added and "fractions" not in added

    def test_strata_polytope_loads_neither_kv_nor_conjugacy(self):
        added = _added("import io\nfrom kvcalc import cli\n"
                       "assert cli.run(['strata', 'polytope', '--type', 'A2', '--lambda',"
                       " '2,1', '--nu', '1/2,1/2'], io.StringIO()) == 0")
        assert "kvcalc.strata" in added
        assert not added & {"kvcalc.kv", "kvcalc.conjugacy"}

    def test_strata_polytope_loads_neither_multiplicity_nor_weyl(self):
        # and neither does `strata steinberg`, whose stratum is an ascent in rootdata
        for kind, flag, value in (("polytope", "--nu", "1/2,1/2"),
                                  ("steinberg", "--cvals", "1,inf")):
            argv = ["strata", kind, "--type", "A2", "--lambda", "2,1", flag, value]
            added = _added(f"import io\nfrom kvcalc import cli\n"
                           f"assert cli.run({argv!r}, io.StringIO()) == 0")
            assert "kvcalc.strata" in added
            assert not added & {"kvcalc.multiplicity", "kvcalc.weyl"}

    def test_mult_loads_no_weyl(self):
        added = _added("import io\nfrom kvcalc import cli\n"
                       "assert cli.run(['mult', '--type', 'A2', '--lambda', '2,1',"
                       " '--mu', '0,0'], io.StringIO()) == 0")
        assert "kvcalc.multiplicity" in added
        assert "kvcalc.weyl" not in added


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
    "verify": ["--type", "--isogeny", "--seed"],
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
@example(["mult", "--type", "G2", "--sweep", "6"])
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
