"""Output checks behind `fail_frac`.

`check(argv, returncode, stdout, digests)` returns None when the output of
one `kv-calc` command is acceptable, else a one-line reason.  Every command
must exit 0.  A command recorded in `expected_digests.json` (every command of
the default seed, per workload) must reproduce the recorded stdout byte for
byte; with `frozen`, a command must be one of the recorded ones.  Beyond that,
each kind of command is checked against facts the benchmark knows on its own:
Weyl group orders and Coxeter counts from a table, the top-stratum count of
`nilcone`, the dimension identity of `dim`, and the verdict line of `verify`.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

DIGESTS_FILE = Path(__file__).with_name("expected_digests.json")

# |W| and the number of positive roots (the length of w0) per simple type.
SIMPLE_TYPES = {
    "A1": (2, 1), "A2": (6, 3), "A3": (24, 6), "A4": (120, 10), "A5": (720, 15),
    "B2": (8, 4), "B3": (48, 9), "B4": (384, 16), "B5": (3840, 25),
    "C2": (8, 4), "C3": (48, 9), "C4": (384, 16), "C5": (3840, 25),
    "D4": (192, 12), "D5": (1920, 20), "F4": (1152, 24), "G2": (12, 6),
}


def type_facts(label: str) -> tuple[int, int, int, int]:
    """(|W|, |Phi+|, rank, Coxeter count) of a product type such as A1xG2.
    The Coxeter count is the product of 2^(r-1) over the simple factors."""
    order, positive, rank, coxeter = 1, 0, 0, 1
    for factor in label.split("x"):
        w, n = SIMPLE_TYPES[factor]
        r = int(factor[1:])
        order, positive, rank, coxeter = order * w, positive + n, rank + r, coxeter * 2 ** (r - 1)
    return order, positive, rank, coxeter


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))[workload]


def key(argv) -> str:
    return " ".join(argv)


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _fields(lines):
    out = {}
    for line in lines:
        name, _, value = line.partition(" ")
        out[name] = value
    return out


def _check_weyl(argv, lines):
    order, positive, _, coxeter = type_facts(_flag(argv, "--type"))
    if "--coxeter" in argv:
        if lines[-1:] != [f"count {coxeter}"] or len(lines) != coxeter + 1:
            return f"expected {coxeter} Coxeter elements"
    elif lines != [f"order {order}", f"longest-length {positive}"]:
        return f"expected order {order} and longest-length {positive}"
    return None


def _check_nilcone(argv, lines):
    _, positive, _, coxeter = type_facts(_flag(argv, "--type"))
    rows = lines[:-1]
    want = f"summary dim {2 * positive} top {coxeter} strata {len(rows)}"
    if lines[-1:] != [want]:
        return f"expected '{want}'"
    if sum(row.endswith("\ttop") for row in rows) != coxeter:
        return f"expected {coxeter} top strata"
    return None


def _check_verify(argv, lines):
    verdict = "REPORT" if argv[1] == "chen-zhu-compare" else "PASS"
    if lines[-1:] != [verdict]:
        return f"verify does not end in {verdict}"
    if argv[1] == "nilcone":
        for row in lines[:-1]:
            label, top = row.split("\t")[0], row.split("\t")[2]
            if top != f"top {type_facts(label)[3]}":
                return f"{label}: top count is not the Coxeter count"
    return None


def _check_dim(argv, lines):
    f = _fields(lines)
    if f.get("nonempty") == "false":
        return None
    lam = [Fraction(x) for x in _flag(argv, "--lambda").split(",")]
    want = sum(lam) + Fraction(int(f["d"]) - int(f["c"]), 2)
    if Fraction(f["dimension"]) != want:
        return f"dimension {f['dimension']} != <rho,lambda> + (d-c)/2 = {want}"
    return None


def _check_mult(argv, lines):
    if "--sweep" in argv:
        ok = lines and all(len(row.split("\t")) == 3 and int(row.split("\t")[2]) > 0
                           for row in lines)
    else:
        ok = len(lines) == 1 and int(lines[0]) >= 0
    return None if ok else "malformed multiplicity output"


def _check_strata(argv, lines):
    if argv[1] == "polytope" and "--nu" in argv:
        # open implies closed
        ok = lines in (["closed true", "open true"], ["closed true", "open false"],
                       ["closed false", "open false"])
    elif argv[1] == "polytope":
        lam = [Fraction(x) for x in _flag(argv, "--lambda").split(",")]
        lam2 = [Fraction(x) for x in _flag(argv, "--lambda2").split(",")]
        want = ",".join(str(min(a, b)) for a, b in zip(lam, lam2))
        ok = lines == [f"intersection {want}"]
    else:
        ok = len(lines) == 1 and lines[0].startswith("stratum ")
    return None if ok else "malformed strata output"


def _check_components(argv, lines):
    ok = lines == ["empty"] or (len(lines) == 3 and lines[0].startswith("predicted-orbits "))
    return None if ok else "malformed components output"


CHECKERS = {
    "weyl": _check_weyl,
    "nilcone": _check_nilcone,
    "verify": _check_verify,
    "dim": _check_dim,
    "mult": _check_mult,
    "strata": _check_strata,
    "components": _check_components,
}


def check(argv, returncode: int, stdout: bytes, digests: dict[str, str],
          frozen: bool = False) -> str | None:
    """None if the command's result is acceptable, else the reason."""
    if returncode != 0:
        return f"exit status {returncode}"
    expected = digests.get(key(argv))
    if expected is None and frozen:
        return "not a recorded command of this workload"
    if expected is not None and digest(stdout) != expected:
        return "stdout differs from the recorded digest"
    try:
        return CHECKERS[argv[0]](argv, stdout.decode().splitlines())
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc!r}"
