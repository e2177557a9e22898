#!/usr/bin/env python3
"""Byte-identity corpus: a fixed list of `kv-calc` commands and what each printed.

    python3 scripts/identity.py SRC_DIR > identity.txt

Imports `kvcalc` from SRC_DIR (a checkout's `src` directory), runs every
command of the corpus through `cli.run` in this one interpreter, and prints
one line per command: the exit code, short sha256 digests of its stdout and
stderr, and the command.  The last line counts the commands, the uncaught
exceptions ("tracebacks") and the exit codes.  To check that a change keeps
every answer and every refusal, run the script against the parent's `src`
and against the change's, and `diff` the two outputs.

Its output is committed as `scripts/identity_expected.txt`, and CI diffs
every run against that file on each interpreter it tests.  A change that
alters output on purpose, or edits the command lists of
`perfbench/workloads.py` that the corpus runs, regenerates the file with

    python3 scripts/identity.py src > scripts/identity_expected.txt

and lists the changed lines in `CHANGES.md`.

The corpus: the benchmark's `interactive` lists at seeds 0-3 and its
`nilcone` and `sweep` lists (from `perfbench/workloads.py`); `nilcone` on
fourteen types; every verify suite at its defaults and under the adjoint
isogeny; the README's command lines; `dim`, `dim --json` and `components` on
split and twisted classes; seeded `strata steinberg` runs, large lambdas
included; `chen-zhu-compare` and `dimension-consistency` at several heights
and isogenies; and malformed inputs, which reach exits 1 and 2.  Class and
isogeny files are written into a temporary working directory and named by
relative paths, so the printed lines do not depend on where it is.  Uses the
standard library only.  A run of its 1092 commands takes about 6 s on a
2-core VM with CPython 3.11.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NILCONE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "D5", "G2", "F4",
                 "A1xB2", "E6"]
SMALL_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xB2"]

README_CLASS = {"type": "A2", "isogeny": "sc", "w": [], "nu_bar": {"num": [0, 0], "den": 1},
                "residual": [{"root": [1, 1], "val": "1"}], "kappa": [0, 0]}
README = [
    "weyl --type G2",
    "weyl --type A3 --coxeter",
    "mult --type A2 --lambda 1,1 --mu 0,0",
    "mult --type B2 --sweep 8",
    "dim --class cls.json --lambda 2,1",
    "dim --class cls.json --lambda 2,1 --json",
    "components --class cls.json --lambda 2,1",
    "strata polytope --type A2 --lambda 1,1 --nu 1/2,1/2",
    "strata polytope --type A2 --lambda 2,2 --lambda2 1,1",
    "strata steinberg --type A1 --lambda 2 --cvals inf",
    "nilcone --type B2",
    "verify nilcone",
]

# (type, isogeny, height cap) of the class-report family: five dominant lattice
# lambdas each, spread over the grid of `lattice_lambdas`; E6 has its own
REPORT_TYPES = [("A1", "adjoint", 4), ("A2", "sc", 8), ("A3", "sc", 5), ("B3", "sc", 5),
                ("B3", "adjoint", 4), ("G2", "sc", 8)]
E6_LAMBDAS = ["0,0,0,0,0,0", "1,2,2,3,2,1", "2,2,3,4,3,2", "2,4,4,6,4,2", "4,3,5,6,4,2"]


def lattice_lambdas(label, isogeny, cap):
    """Five dominant lambdas in the lattice, of height at most cap, over the
    denominator of the lattice's exponent."""
    from fractions import Fraction
    from kvcalc import rootdata
    from kvcalc.errors import UsageError
    rd = rootdata.build_root_datum(label, isogeny)
    q = max(rootdata.fundamental_group(rd).invariant_factors, default=1)
    out = []
    for k in rootdata.dominant_grid(rd, cap, q):
        v = tuple(Fraction(x, q) for x in k)
        try:
            rootdata.check_dominant(rd, v, "lambda")
        except UsageError:
            continue
        out.append(rootdata.format_coweight(v))
    return out[::max(1, len(out) // 5)][:5]


def class_json(label, isogeny, twisted):
    """A split class (nu_bar = 0, one residual on the first simple root) or
    the class twisted by s1 with residual 1/2 on that root."""
    from kvcalc import rootdata
    r = rootdata.build_root_datum(label, isogeny).rank
    first = [int(i == 0) for i in range(r)]
    return {"type": label, "isogeny": isogeny, "w": [1] if twisted else [],
            "nu_bar": [0] * r, "residual": [{"root": first, "val": "1/2" if twisted else "1"}],
            "kappa": [0] * r}


def write(name, data):
    Path(name).write_text(json.dumps(data, sort_keys=True) + "\n", encoding="utf-8")
    return name


def report_family():
    out = []
    families = [(label, isogeny, lattice_lambdas(label, isogeny, cap))
                for label, isogeny, cap in REPORT_TYPES] + [("E6", "sc", E6_LAMBDAS)]
    for label, isogeny, lams in families:
        for twisted in (False, True):
            path = write(f"{label}-{isogeny}-{'twisted' if twisted else 'split'}.json",
                         class_json(label, isogeny, twisted))
            for lam in lams:
                out += [["dim", "--class", path, "--lambda", lam],
                        ["dim", "--class", path, "--lambda", lam, "--json"],
                        ["components", "--class", path, "--lambda", lam]]
    return out


def steinberg_family():
    """Seeded Steinberg strata on the small types, then lambdas far from 0,
    including the two refused by the dominance-interval bound."""
    from kvcalc import rootdata
    rng = random.Random(26)
    grids = {}
    out = []
    for _ in range(300):
        label, isogeny = rng.choice(SMALL_TYPES), rng.choice(("sc", "adjoint"))
        if (label, isogeny) not in grids:
            rd = rootdata.build_root_datum(label, isogeny)
            grids[label, isogeny] = rd.rank, rootdata.dominant_integral_sweep(rd, 8)
        rank, lams = grids[label, isogeny]
        lam = rootdata.format_coweight(rng.choice(lams))
        cvals = ",".join(rng.choice(("inf", "0", "1", "2", "3", "5", "1/2", "7/3", "-1", "-1/2"))
                         for _ in range(rank))
        out.append(["strata", "steinberg", "--type", label, "--isogeny", isogeny,
                    "--lambda", lam, "--cvals", cvals])
    for lam, cvals in [("40,40", "3,3"), ("40,40", "inf,2"), ("100,100", "3,3"),
                       ("100,100", "inf,inf"), ("100,100", "250,1/2"), ("3000,3000", "1,1"),
                       ("3000,3000", "inf,inf")]:
        out.append(["strata", "steinberg", "--type", "A2", "--lambda", lam, "--cvals", cvals])
    out.append(["strata", "steinberg", "--type", "B3", "--lambda", "30,60,45",
                "--cvals", "4,inf,7/2"])
    return out


def verify_family():
    from kvcalc import cli
    out = []
    for suite in cli.VERIFY_SUITES:
        out += [["verify", suite],
                ["verify", suite, "--isogeny", "adjoint", "--height", "3", "--count", "2"]]
    for label in ("A2", "B2", "G2", "A3", "A1xB2"):
        for isogeny in ("sc", "adjoint"):
            for height in (2, 4, 5):
                common = ["--type", label, "--isogeny", isogeny, "--height", str(height)]
                out += [["verify", "chen-zhu-compare", *common],
                        ["verify", "dimension-consistency", *common, "--count", "1"]]
    return out


def malformed_family():
    """Refused inputs: exit 1 with one `error:` line, or 2 on an inconsistent datum."""
    base = {"type": "A2", "nu_bar": [0, 0]}
    classes = [
        {}, {"type": 5}, {"nu_bar": {"num": [1, 1], "den": 0}},
        {"residual": [{"root": [1, 1], "val": "1/0"}]},
        {"residual": [{"root": [1, 1], "val": {"num": 1, "den": 0}}]},
        {"kappa": ["a"]}, {"e": "x"}, {"w": ["a"]}, {"kappa": 5}, {"residual": 5},
        {"w": [1.5]}, {"e": 1.5}, {"kappa": [0.7, 0]},
        {"residual": [{"root": [1.9, 0], "val": "1"}]},
        {"nu_bar": {"num": [1.5, 0], "den": 1}}, {"nu_bar": {"num": [1, 1], "den": 1.5}},
        {"isogeny": [[1, 0], [0, 1.9]]}, {"isogeny": ["10", "01"]},
        {"isogeny": {"10": 0, "01": 1}}, {"isogeny": [["1", "0"], ["0", "1"]]},
        {"w": "12"}, {"w": {"1": 0}}, {"kappa": "00"}, {"nu_bar": "00"},
        {"residual": [{"root": "11", "val": 1}]},
        {"residual": [{"root": [1, 1], "val": 1}, {"root": [1, 1], "val": 2}]},
        {"w": [1], "e": 3},
        {"type": "A1", "isogeny": "adjoint", "nu_bar": ["1"], "kappa": [1]},
        {"type": "A1", "isogeny": "sc", "nu_bar": ["1/2"], "kappa": [0]},
        {"type": "A1", "w": [1], "nu_bar": [0], "residual": [{"root": [1], "val": "1"}]},
    ]
    out = []
    for k, fields in enumerate(classes):
        path = write(f"malformed-{k}.json", {**base, **fields})
        lam = "1" if fields.get("type") == "A1" else "1,1"
        out.append(["dim", "--class", path, "--lambda", lam])
    Path("broken.json").write_text("{not json", encoding="utf-8")
    Path("string.json").write_text(json.dumps("not a class"), encoding="utf-8")
    b3 = write("b3-seven-sixths.json", {
        "type": "B3", "isogeny": "adjoint", "w": [1, 2, 3], "nu_bar": [0, 0, 0],
        "kappa": [0, 0, 1], "residual": [{"root": root, "val": "7/6"} for root in (
            [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1], [0, 1, 2],
            [1, 1, 2], [1, 2, 2])]})
    identity = write("identity.json", [[1, 0], [0, 1]])
    out += [
        ["dim", "--class", "broken.json", "--lambda", "1,1"],
        ["dim", "--class", "string.json", "--lambda", "1,1"],
        ["dim", "--class", "/no/such/file.json", "--lambda", "1"],
        ["dim", "--class", b3, "--lambda", "1,2,1"],
        ["dim", "--class", b3, "--lambda", "1,2,3/2"],
        ["dim", "--class", "A2-sc-split.json", "--lambda", "3000,3000"],
        ["weyl", "--type", "A2", "--isogeny", "custom:/missing.json"],
        ["weyl", "--type", "A2", "--isogeny", f"custom:{identity}"],
        ["weyl", "--type", "A3", "--isogeny", f"custom:{identity}"],
        ["mult", "--type", "A1", "--isogeny", "1", "--lambda", "1/2", "--mu", "1/2"],
        ["mult", "--type", "A2", "--lambda", "300,300", "--mu", "0,0"],
        ["mult", "--type", "A2"],
        ["strata", "steinberg", "--type", "A2", "--lambda", "1,1", "--cvals", "abc,1"],
        ["strata", "steinberg", "--type", "A2", "--lambda", "2,1", "--cvals", "1,inf",
         "--nu", "1/2,1/2"],
        ["strata", "polytope", "--type", "A2", "--lambda", "2,1", "--nu", "1/2,1/2",
         "--cvals", "1,inf"],
        ["strata", "polytope", "--type", "A2", "--lambda", "1,1", "--nu", "-1/2,1"],
        ["strata", "polytope", "--type", "A2", "--lambda", "-1,1", "--nu", "0,0"],
        ["verify", "no-such-suite"],
        ["verify", "lower-bound", "--type", "A2,"],
        ["weyl"],
        ["nilcone", "--type", ""],
        ["weyl", "--type", "Z9"],
        ["weyl", "--type", "A7"],
    ]
    for suite in ("lower-bound", "nilcone", "chen-zhu-compare"):
        out += [["verify", suite, "--type", "A2,Z9", "--height", "3"],
                ["verify", suite, "--type", "A2", "--isogeny", "garbage"],
                ["verify", suite, "--type", "A2,A3", "--isogeny", f"custom:{identity}"]]
    return out


def corpus(work):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    out = []
    for seed in range(4):
        out += workloads.build("interactive", seed, work)
    out += workloads.build("nilcone", 0, work) + workloads.build("sweep", 0, work)
    out += [["nilcone", "--type", label] for label in NILCONE_TYPES]
    out.append(["verify", "nilcone", "--type", "E6"])
    write("cls.json", README_CLASS)
    out += [line.split() for line in README]
    out += report_family() + steinberg_family() + verify_family() + malformed_family()
    return out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    from kvcalc import cli
    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"kvcalc was imported from {cli.__file__}, not from {src}")
    exits = {}
    tracebacks = 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        commands = corpus(Path(tmp))
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(argv, out)
                except Exception:
                    traceback.print_exc(file=err)
                    code = "traceback"
                    tracebacks += 1
            exits[code] = exits.get(code, 0) + 1
            print(f"{code}\t{digest(out.getvalue())}\t{digest(err.getvalue())}\t{' '.join(argv)}")
        os.chdir(ROOT)
    counts = " ".join(f"{code}:{n}" for code, n in sorted(exits.items(), key=str))
    print(f"commands {len(commands)} tracebacks {tracebacks} exits {counts}")
    sys.exit(1 if tracebacks else 0)


if __name__ == "__main__":
    main()
