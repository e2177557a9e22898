"""Command-line interface: every calculator plus verification sweeps.

Exit codes: 0 success, 1 usage error, 2 a checked identity failed or an
input datum is internally inconsistent.  All enumerations are emitted in
sorted order, so output is byte-deterministic for fixed flags.  Each
handler imports the modules it uses, so a command loads only its own layers.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import combinations

from . import rootdata
from .errors import InvariantViolation, KVError, UsageError

DEFAULT_NILCONE_TYPES = ["A1", "A2", "B2", "G2", "A3"]
DEFAULT_BOUND_TYPES = ["A2", "B2", "G2", "A3"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _word_str(word) -> str:
    return " ".join(f"s{i + 1}" for i in word) if word else "e"


def _fmt(v) -> str:
    return rootdata.format_coweight(v)


def _build(args) -> rootdata.RootDatum:
    isogeny = args.isogeny
    if isinstance(isogeny, str) and isogeny.startswith("custom:"):
        import json
        try:
            with open(isogeny[len("custom:"):], encoding="utf-8") as fh:
                isogeny = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read isogeny file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed isogeny JSON: {exc}") from None
    return rootdata.build_root_datum(args.type, isogeny)


def _parse_cvals(rd, text):
    from . import strata
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rd.rank:
        raise UsageError(f"expected {rd.rank} c-valuations, got {len(parts)}")
    out = []
    for p in parts:
        if p.lower() in ("inf", "infinite", "oo"):
            out.append(strata.INFINITE)
        else:
            try:
                out.append(Fraction(p))
            except (ValueError, ZeroDivisionError):
                raise UsageError(f"bad c-valuation {p!r}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_weyl(args, out):
    from . import weyl
    rd = _build(args)
    if args.coxeter:
        elements = weyl.coxeter_elements(rd)
        for e in elements:
            print(_word_str(e.word), file=out)
        print(f"count {len(elements)}", file=out)
    else:
        group = weyl.enumerate_group(rd)
        print(f"order {len(group)}", file=out)
        print(f"longest-length {max(e.length for e in group)}", file=out)


def cmd_mult(args, out):
    from . import multiplicity
    rd = _build(args)
    if args.sweep is not None:
        rows = []
        for lam in multiplicity.sweep_dominant(rd, args.sweep):
            wsys = multiplicity.weight_system(rd, lam)
            rows.extend((lam, mu, m) for mu, m in wsys.items())
        for lam, mu, m in sorted(rows):
            print(f"{_fmt(lam)}\t{_fmt(mu)}\t{m}", file=out)
        return
    lam = rootdata.parse_coweight(rd, args.lam)
    mu = rootdata.parse_coweight(rd, args.mu)
    print(multiplicity.multiplicity_freudenthal(rd, lam, mu), file=out)


def _load_class(args):
    import json
    from . import conjugacy
    try:
        with open(args.class_file, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read class file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed class JSON: {exc}") from None
    return conjugacy.class_from_json(data)


def _report_text(rep, out):
    print(f"nonempty {str(rep.nonempty).lower()}", file=out)
    print(f"newton {_fmt(rep.newton)}", file=out)
    print(f"d {rep.d}", file=out)
    print(f"c {rep.c}", file=out)
    print(f"regular-orbit-bound {rep.regular_orbit_bound}", file=out)
    if rep.nonempty:
        print(f"dimension {rep.dimension}", file=out)
        print(f"mu-star {_fmt(rep.mu_star)}", file=out)
        print(f"predicted-orbits {rep.predicted_orbits}", file=out)
        print(f"regular-bound-exact {str(rep.regular_bound_exact).lower()}", file=out)
        print(f"d-plus {rep.d_plus}", file=out)
        czs = " ".join(_fmt(v) for v in rep.chen_zhu_mu) or "-"
        print(f"chen-zhu {czs}", file=out)


def cmd_dim(args, out):
    from . import kv
    cd = _load_class(args)
    lam = rootdata.parse_coweight(cd.rd, args.lam)
    rep = kv.report(cd, lam)
    if args.json:
        import json
        print(json.dumps(rep.to_json(), sort_keys=True), file=out)
    else:
        _report_text(rep, out)


def cmd_components(args, out):
    """The component-count lines of the `dim` report, without its Chen-Zhu set."""
    from . import kv
    cd = _load_class(args)
    rep = kv.report(cd, rootdata.parse_coweight(cd.rd, args.lam), chen_zhu=False)
    if not rep.nonempty:
        print("empty", file=out)
        return
    print(f"predicted-orbits {rep.predicted_orbits}", file=out)
    print(f"regular-orbit-bound {rep.regular_orbit_bound}", file=out)
    print(f"regular-bound-exact {str(rep.regular_bound_exact).lower()}", file=out)


def cmd_strata(args, out):
    from . import strata
    rd = _build(args)
    if args.strata_kind == "polytope":
        lam = rootdata.parse_coweight(rd, args.lam)
        if args.lam2 is not None:
            lam2 = rootdata.parse_coweight(rd, args.lam2)
            mu = strata.polytope_intersection(rd, lam, lam2)
            print(f"intersection {_fmt(mu)}", file=out)
            return
        nu = rootdata.parse_coweight(rd, args.nu)
        closed = strata.polytope_member(rd, nu, lam, open_stratum=False)
        opened = closed and strata.polytope_member(rd, nu, lam, open_stratum=True)
        print(f"closed {str(closed).lower()}", file=out)
        print(f"open {str(opened).lower()}", file=out)
    else:
        lam = rootdata.parse_coweight(rd, args.lam)
        c_vals = _parse_cvals(rd, args.cvals)
        v = strata.ValuationVector(b_vals=(), c_vals=c_vals)
        mu = strata.steinberg_stratum(rd, v, lam)
        print(f"stratum {_fmt(mu)}", file=out)


def cmd_nilcone(args, out):
    from . import vinberg
    rd = _build(args)
    strata_list = vinberg.nilcone_strata(rd)
    for s in strata_list:
        j = ",".join(str(i + 1) for i in sorted(s.j)) or "-"
        top = "top" if s.is_top else "."
        print(f"{j}\t{_word_str(s.w.word)}\t{s.w.length}\t{s.dim}\t{top}", file=out)
    summary = vinberg.nilcone_report(rd, strata_list)
    print(
        f"summary dim {summary.dim} top {summary.top_count} strata {summary.strata_count}",
        file=out,
    )


# ---------------------------------------------------------------------------
# verification suites: each returns (all cases passed, number of cases checked)


def _types(args, default):
    return args.type.split(",") if args.type else default


def verify_lower_bound(args, out) -> tuple[bool, int]:
    from . import multiplicity, weyl
    ok = True
    checked = 0
    for label in _types(args, DEFAULT_BOUND_TYPES):
        rd = rootdata.build_root_datum(label)
        bound = weyl.coxeter_count(rd)
        for lam in rootdata.dominant_integral_sweep(rd, args.height):
            if not all(p > 0 for p in rootdata.simple_pairings(rd, lam)):
                continue
            for mu in multiplicity.dominant_below(rd, lam):
                if not all(x > 0 for x in rootdata.sub(lam, mu)):
                    continue
                m = multiplicity.multiplicity_freudenthal(rd, lam, mu)
                line_ok = m >= bound
                ok = ok and line_ok
                checked += 1
                print(
                    f"{label}\t{_fmt(lam)}\t{_fmt(mu)}\t{m}\t{bound}\t"
                    f"{'pass' if line_ok else 'FAIL'}",
                    file=out,
                )
    return ok, checked


def verify_nilcone(args, out) -> tuple[bool, int]:
    from . import vinberg
    labels = _types(args, DEFAULT_NILCONE_TYPES)
    for label in labels:
        rd = rootdata.build_root_datum(label)
        summary = vinberg.nilcone_report(rd, vinberg.nilcone_strata(rd))  # raises on violation
        print(
            f"{label}\tdim {summary.dim}\ttop {summary.top_count}\t"
            f"strata {summary.strata_count}\tpass",
            file=out,
        )
    return True, len(labels)


def verify_freudenthal_kostant(args, out) -> tuple[bool, int]:
    from . import multiplicity
    ok = True
    checked = 0
    for label in _types(args, ["A1", "A2", "B2", "G2"]):
        rd = rootdata.build_root_datum(label)
        for lam in multiplicity.sweep_dominant(rd, args.height):
            wsys = multiplicity.weight_system(rd, lam)
            for mu, a in sorted(wsys.items()):
                b = multiplicity.multiplicity_kostant(rd, lam, mu)
                line_ok = a == b
                ok = ok and line_ok
                checked += 1
                print(
                    f"{label}\t{_fmt(lam)}\t{_fmt(mu)}\t{a}\t{b}\t"
                    f"{'pass' if line_ok else 'FAIL'}",
                    file=out,
                )
    return ok, checked


def verify_dimension_consistency(args, out) -> tuple[bool, int]:
    import random
    from . import conjugacy, kv, multiplicity
    rng = random.Random(args.seed)
    ok = True
    checked = 0
    for label in _types(args, ["A2", "A3"]):
        rd = rootdata.build_root_datum(label)
        for lam in rootdata.dominant_integral_sweep(rd, args.height):
            for mu in multiplicity.dominant_below(rd, lam):
                residual = {
                    root: Fraction(rng.randrange(0, 3))
                    for root in rd.positive_roots
                    if rootdata.pair_root(rd, root, mu) == 0
                }
                # raises InvariantViolation when <rho, lam - mu> + r(gamma) disagrees
                dim, _ = kv.unramified_dimension(rd, mu, residual, lam)
                checked += 1
                print(f"{label}\t{_fmt(lam)}\t{_fmt(mu)}\tdim {dim}\tpass", file=out)
        # Levi relation on randomized residual data with nu_bar = 0
        zero = rootdata.zero_coweight(rd)
        levi_ok = True
        for trial in range(args.count):
            residual = {
                root: Fraction(rng.randrange(0, 4)) for root in rd.positive_roots
            }
            cd = conjugacy.split_class(rd, zero, residual)
            for size in range(rd.rank + 1):
                for levi in combinations(range(rd.rank), size):
                    _, relation = conjugacy.r_levi(cd, frozenset(levi))
                    levi_ok = levi_ok and relation
                    checked += 1
                    if not relation:
                        print(f"{label}\tlevi {levi}\ttrial {trial}\tFAIL", file=out)
        ok = ok and levi_ok
        if args.count > 0:
            print(f"{label}\tlevi-relation\t{'pass' if levi_ok else 'FAIL'}", file=out)
    return ok, checked


def verify_stratification_disjoint(args, out) -> tuple[bool, int]:
    from . import strata
    ok = True
    checked = 0
    for label in _types(args, ["A2"]):
        rd = rootdata.build_root_datum(label)
        lam_cap = args.height + 2 * rd.rank
        lams = rootdata.dominant_integral_sweep(rd, lam_cap)
        for nu in strata.rational_grid(rd, args.height, 6):
            hits = [lam for lam in lams
                    if strata.polytope_member(rd, nu, lam, open_stratum=True)]
            line_ok = len(hits) == 1
            ok = ok and line_ok
            checked += 1
            print(
                f"{label}\t{_fmt(nu)}\t{len(hits)}\t{'pass' if line_ok else 'FAIL'}",
                file=out,
            )
    return ok, checked


def verify_chen_zhu_compare(args, out) -> tuple[bool, int]:
    from . import kv, strata
    reported = 0
    for label in _types(args, ["A2"]):
        rd = rootdata.build_root_datum(label)
        lam_cap = args.height + 2 * rd.rank
        lams = rootdata.dominant_integral_sweep(rd, lam_cap)
        for nu in strata.rational_grid(rd, args.height, 4):
            above = [lam for lam in lams if rootdata.leq_q(rd, nu, lam)]
            if not above:
                continue
            big = max(above, key=lambda v: sum(v))
            mu_star = kv.best_integral_approx(rd, nu, big)
            below = kv.chen_zhu_approx(rd, nu)
            czs = " ".join(_fmt(v) for v in below) or "-"
            same = len(below) == 1 and below[0] == mu_star
            print(f"{label}\t{_fmt(nu)}\tmin-above {_fmt(mu_star)}\tmax-below {czs}\t"
                  f"{'equal' if same else 'differ'}", file=out)
            reported += 1
    return True, reported  # report only, never a failure


VERIFY_SUITES = {
    "lower-bound": verify_lower_bound,
    "nilcone": verify_nilcone,
    "freudenthal-kostant": verify_freudenthal_kostant,
    "dimension-consistency": verify_dimension_consistency,
    "stratification-disjoint": verify_stratification_disjoint,
    "chen-zhu-compare": verify_chen_zhu_compare,
}


def cmd_verify(args, out):
    suite = VERIFY_SUITES.get(args.suite)
    if suite is None:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {sorted(VERIFY_SUITES)}"
        )
    ok, checked = suite(args, out)
    if checked == 0:
        raise UsageError(f"verification suite {args.suite} checked no cases")
    if args.suite == "chen-zhu-compare":
        print("REPORT", file=out)
        return
    print("PASS" if ok else "FAIL", file=out)
    if not ok:
        raise InvariantViolation(f"verification suite {args.suite} failed")


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(p):
    p.add_argument("--type", default=None, help="root-system label, e.g. A2 or A1xA1")
    p.add_argument("--isogeny", default="sc",
                   help="sc | adjoint | custom:<json-file with generator vectors>")


def build_parser() -> _Parser:
    parser = _Parser(prog="kv-calc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weyl", help="Weyl group data")
    _add_common(p)
    p.add_argument("--coxeter", action="store_true")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("mult", help="weight multiplicities of the dual group")
    _add_common(p)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--mu")
    p.add_argument("--sweep", type=int, default=None)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("dim", help="full report for a class and lambda")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("components", help="component-count prediction")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("strata", help="polytope and Steinberg-base strata")
    p.add_argument("strata_kind", choices=["polytope", "steinberg"])
    _add_common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--lambda2", dest="lam2", default=None)
    p.add_argument("--nu", default=None)
    p.add_argument("--cvals", default=None)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("nilcone", help="nilpotent-cone strata table")
    _add_common(p)
    p.set_defaults(func=cmd_nilcone)

    p = sub.add_parser("verify", help="verification sweeps")
    p.add_argument("suite")
    _add_common(p)
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_verify)
    return parser


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        stdout, sys.stdout = sys.stdout, out  # argparse prints --help to sys.stdout
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help printed, then argparse exited
            return exc.code
        finally:
            sys.stdout = stdout
        if getattr(args, "func", None) in (cmd_weyl, cmd_mult, cmd_strata, cmd_nilcone):
            if not args.type:
                raise UsageError("--type is required")
        if getattr(args, "func", None) is cmd_mult and args.sweep is None:
            if args.lam is None or args.mu is None:
                raise UsageError("mult needs --lambda and --mu (or --sweep)")
        if getattr(args, "func", None) is cmd_strata:
            if args.strata_kind == "polytope" and args.nu is None and args.lam2 is None:
                raise UsageError("polytope needs --nu or --lambda2")
            if args.strata_kind == "steinberg" and args.cvals is None:
                raise UsageError("steinberg needs --cvals")
        args.func(args, out)
        return 0
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except KVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
