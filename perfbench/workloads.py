"""The benchmark's workloads: lists of `kv-calc` argument vectors.

`nilcone` and `sweep` are fixed lists (only the `--seed` of one verify suite
follows the workload seed).  `interactive` is generated from the seed: a fixed
template of small single-answer commands whose parameters (isogeny, lambda,
nu, class data) are drawn with a seeded RNG, each valid by construction (see
`_Draws`), so that the list depends on the seed alone.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

NAMES = ("interactive", "nilcone", "sweep")
WORKDIR = "perfbench/.work"   # generated class files, relative to the checkout root

# `nilcone --type B4` (7.3 s) is left out: it was 60% of a pass, so a run got
# only two samples of it and of the other heavy commands, and the spread of
# `wall_s` and `cmd_p90_ms` over runs came close to their bounds.
NILCONE = [
    ["nilcone", "--type", "B3"],
    ["nilcone", "--type", "C3"],
    ["verify", "nilcone"],
    ["weyl", "--type", "F4", "--coxeter"],
    ["weyl", "--type", "A5"],
    ["weyl", "--type", "F4"],
    ["weyl", "--type", "D5"],
    ["weyl", "--type", "B5"],
    ["nilcone", "--type", "A4"],
    ["nilcone", "--type", "D4"],
]

# Class files of the `sweep` workload, written into the work directory.
SWEEP_CLASSES = {
    "A3": {"type": "A3", "isogeny": "sc", "w": [], "nu_bar": {"num": [1, 1, 1], "den": 1},
           "residual": [{"root": [0, 1, 0], "val": "1"}], "kappa": [0, 0, 0]},
    "D4": {"type": "D4", "isogeny": "sc", "w": [], "nu_bar": {"num": [0, 0, 0, 0], "den": 1},
           "residual": [{"root": [0, 1, 0, 0], "val": "1"}], "kappa": [0, 0, 0, 0]},
}


# `dimension-consistency` runs at height 7 and `stratification-disjoint` at
# height 6, not 8: at 8 they took 1.7 s and 3.5 s of a 10 s pass, a run got
# three samples of each, and the spread of `cmd_p90_ms` over runs reached its
# bound.
def sweep(seed: int, root: Path) -> list[list[str]]:
    a3 = write_class(root, SWEEP_CLASSES["A3"])
    d4 = write_class(root, SWEEP_CLASSES["D4"])
    return [
        ["dim", "--class", a3, "--lambda", "4,4,4"],
        ["components", "--class", a3, "--lambda", "4,4,4"],
        ["dim", "--class", d4, "--lambda", "2,4,2,2"],
        ["mult", "--type", "A3", "--sweep", "8"],
        ["mult", "--type", "D4", "--sweep", "8"],
        ["mult", "--type", "B3", "--sweep", "9"],
        ["verify", "lower-bound", "--height", "8"],
        ["verify", "freudenthal-kostant", "--height", "10"],
        ["verify", "dimension-consistency", "--height", "7", "--seed", str(seed)],
        ["verify", "stratification-disjoint", "--height", "6"],
        ["verify", "chen-zhu-compare", "--height", "6"],
    ]


def write_class(root: Path, data: dict) -> str:
    """Write a class file named by its content; return its path relative to
    the checkout root, so that the argument vector is the same in every
    checkout and can key the expected-output table."""
    text = json.dumps(data, sort_keys=True)
    rel = f"{WORKDIR}/cls-{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
    path = root / rel
    if not path.exists():
        path.write_text(text + "\n", encoding="utf-8")
    return rel


# ---------------------------------------------------------------------------
# interactive

INTERACTIVE_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1"]
LAMBDA_CAP = 6      # coordinate-sum cap for lambda drawn from the sweep
NU_CAP = 4          # coordinate-sum cap for nu and nu_bar
# Order of the Coxeter element, which bounds the residual denominators of a
# Coxeter-twisted class.
COXETER_NUMBER = {"A1": 2, "A2": 3, "B2": 4, "G2": 6, "A3": 4, "B3": 6, "C3": 6, "A1xA1": 2}
# (twisted, nonempty) kinds of class file; each type gets two of them for
# `dim` and one for `components`, rotating so each kind appears equally often.
CLASS_KINDS = [(False, True), (False, False), (True, True), (True, False)]


class _Draws:
    """Seeded commands for one root-system type.  Every draw is a valid
    question by construction, so the command list depends only on the seed
    and the root data, never on how `kv-calc` answers.

    lambda and nu come from `rootdata.dominant_integral_sweep`, whose
    coweights have integer coroot coordinates: they all lie in the coroot
    lattice, so their pi_1 classes are 0 under either isogeny and <rho, .>
    (the coordinate sum) is an integer."""

    def __init__(self, rng, label, root):
        from kvcalc import rootdata

        self.rootdata = rootdata
        self.rng = rng
        self.label = label
        self.root = root
        self.rds = {iso: rootdata.build_root_datum(label, iso) for iso in ("sc", "adjoint")}
        self.lams = {iso: rootdata.dominant_integral_sweep(rd, LAMBDA_CAP)
                     for iso, rd in self.rds.items()}
        self.nus = {iso: rootdata.dominant_integral_sweep(rd, NU_CAP)
                    for iso, rd in self.rds.items()}

    def iso(self):
        return self.rng.choice(("sc", "adjoint"))

    def fmt(self, v):
        return self.rootdata.format_coweight(v)

    def argv(self, iso, command, *flags):
        return [*command.split(), "--type", self.label, "--isogeny", iso, *flags]

    def mult(self):
        iso = self.iso()
        lam = self.rng.choice(self.lams[iso])
        below = [mu for mu in self.lams[iso] if self.rootdata.leq_q(self.rds[iso], mu, lam)]
        mu = self.rng.choice(below)
        return self.argv(iso, "mult", "--lambda", self.fmt(lam), "--mu", self.fmt(mu))

    def polytope_nu(self):
        iso = self.iso()
        lam = self.rng.choice(self.lams[iso])
        nu = tuple(x / 2 for x in self.rng.choice(self.nus[iso]))
        return self.argv(iso, "strata polytope", "--lambda", self.fmt(lam), "--nu", self.fmt(nu))

    def polytope_lambda2(self):
        # both in the coroot lattice, so their pi_1 classes match
        iso = self.iso()
        lam, lam2 = self.rng.choice(self.lams[iso]), self.rng.choice(self.lams[iso])
        return self.argv(iso, "strata polytope", "--lambda", self.fmt(lam),
                         "--lambda2", self.fmt(lam2))

    def steinberg(self):
        # lambda itself always meets the c-values, and the candidates are
        # closed under componentwise minimum, so a unique stratum exists
        iso = self.iso()
        lam = self.rng.choice(self.lams[iso])
        cvals = ",".join(self.rng.choice(("inf", "0", "1", "2", "3"))
                         for _ in range(self.rds[iso].rank))
        return self.argv(iso, "strata steinberg", "--lambda", self.fmt(lam), "--cvals", cvals)

    def split_class(self, nonempty):
        """A split class with a dominant integral Newton point nu, kappa its
        class (0), and lambda drawn so that nu <= lambda exactly when the
        variety should be nonempty.  The dimension is then
        <rho, lambda - nu> + sum of residuals, a nonnegative integer."""
        rng = self.rng
        iso = self.iso()
        rd = self.rds[iso]
        nu = rng.choice([v for v in self.nus[iso] if nonempty or any(v)])
        lam = rng.choice([v for v in self.lams[iso]
                          if self.rootdata.leq_q(rd, nu, v) == nonempty])
        residual = [{"root": list(root), "val": str(rng.randrange(3))}
                    for root in rd.positive_roots
                    if self.rootdata.pair_root(rd, root, nu) == 0]
        return self.class_datum(iso, [], nu, residual, [0] * rd.rank), lam

    def twisted_class(self, nonempty):
        """A class twisted by a Coxeter element, with nu_bar = 0 and one
        residual value k/h on every root (Galois-symmetric).  It is nonempty
        exactly when kappa is lambda's class, 0.  An empty one needs a
        nonzero kappa, so it uses the adjoint isogeny; G2 has none, and gets
        a nonempty one instead.  Nonempty draws keep to the (lambda, k) whose
        dimension <rho, lambda> + (d - c)/2 is a nonnegative integer, with
        d = 2 (k/h) |Phi+| and c = rank."""
        rng = self.rng
        iso = "adjoint" if not nonempty else self.iso()
        rd = self.rds[iso]
        r, h, n_pos = rd.rank, COXETER_NUMBER[self.label], len(rd.positive_roots)
        kappa = [0] * r
        if not nonempty:
            factors = self.rootdata.fundamental_group(rd).invariant_factors
            kappas = [list(k) for k in itertools.product(*(range(f) for f in factors)) if any(k)]
            if kappas:
                kappa = rng.choice(kappas)
            else:
                nonempty = True
        pairs = []
        for lam in self.lams[iso]:
            for k in range(2 * h):
                d = 2 * Fraction(k, h) * n_pos
                dim = sum(lam) + (d - r) / 2
                if d.denominator == 1 and (not nonempty or (dim.denominator == 1 and dim >= 0)):
                    pairs.append((lam, k))
        lam, k = rng.choice(pairs)
        residual = [{"root": list(root), "val": str(Fraction(k, h))}
                    for root in rd.positive_roots]
        word = list(range(1, r + 1))
        return self.class_datum(iso, word, (0,) * r, residual, kappa), lam

    def class_datum(self, iso, word, nu, residual, kappa):
        data = {"type": self.label, "isogeny": iso, "w": word,
                "nu_bar": {"num": [int(x) for x in nu], "den": 1},
                "residual": residual, "kappa": kappa}
        return write_class(self.root, data)

    def class_command(self, command, kind):
        twisted, nonempty = kind
        path, lam = (self.twisted_class if twisted else self.split_class)(nonempty)
        return [command, "--class", path, "--lambda", self.fmt(lam)]


def interactive(seed: int, root: Path) -> list[list[str]]:
    rng = random.Random(seed)
    out = []
    for t, label in enumerate(INTERACTIVE_TYPES):
        s = _Draws(rng, label, root)
        out += [
            s.argv(s.iso(), "weyl"),
            s.argv(s.iso(), "weyl", "--coxeter"),
            s.argv(s.iso(), "nilcone"),
            s.mult(), s.mult(), s.mult(),
            s.polytope_nu(), s.polytope_nu(),
            s.polytope_lambda2(),
            s.steinberg(),
            s.class_command("dim", CLASS_KINDS[(2 * t) % 4]),
            s.class_command("dim", CLASS_KINDS[(2 * t + 1) % 4]),
            s.class_command("components", CLASS_KINDS[(t + 2) % 4]),
        ]
    return out


def build(name: str, seed: int, root: Path) -> list[list[str]]:
    """The workload's argument vectors; `root` is the checkout root, and
    `kvcalc` must be importable from its `src`."""
    (root / WORKDIR).mkdir(parents=True, exist_ok=True)
    if name == "interactive":
        return interactive(seed, root)
    if name == "nilcone":
        return [list(argv) for argv in NILCONE]
    if name == "sweep":
        return sweep(seed, root)
    raise ValueError(f"unknown workload {name!r}")
