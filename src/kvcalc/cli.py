"""Command-line interface: every calculator plus verification sweeps.

Exit codes: 0 success, 1 usage error, 2 a checked identity failed or an
input datum is internally inconsistent.  All enumerations are emitted in
sorted order, so output is byte-deterministic for fixed flags.  Each
handler imports the modules it uses, `fractions` included, so a command
loads only what it runs.  `parse_args` reads argv off the table `COMMANDS`.
`main` flushes stdout and stderr and ends in `os._exit`, and exits 1 without
a message when the reader closes stdout; `run` does neither.
A verify suite yields one tab-separated row per checked case; `cmd_verify`
builds every datum first, then prints, counts and judges the rows.
"""

from __future__ import annotations

import os
import sys
from itertools import combinations
from operator import le, mul
from types import SimpleNamespace

from . import rootdata
from .errors import InvariantViolation, KVError, UsageError


def _word_str(rd):
    """The formatter of rd's Weyl words, its letters named once; `e` if empty."""
    letters = [f"s{i + 1}" for i in range(rd.rank)]
    return lambda word: " ".join([letters[i] for i in word]) or "e"


def _fmt(v) -> str:
    return rootdata.format_coweight(v)


def _read_json(path, what):
    """The JSON document in the file at ``path``; ``what`` names the file in
    an error message."""
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed {what} JSON: {exc}") from None


def _build(args, label=None) -> rootdata.RootDatum:
    """The datum of ``label`` (by default ``--type``, which is then required)
    under ``--isogeny``."""
    if label is None:
        if not args.type:
            raise UsageError("--type is required")
        label = args.type
    isogeny = args.isogeny
    if isinstance(isogeny, str) and isogeny.startswith("custom:"):
        isogeny = _read_json(isogeny[len("custom:"):], "isogeny")
    return rootdata.build_root_datum(label, isogeny)


def _parse_cvals(rd, text):
    from fractions import Fraction
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
    rd = _build(args)
    if args.coxeter:
        from . import weyl
        elements = weyl.coxeter_elements(rd)
        word_str = _word_str(rd)
        for e in elements:
            print(word_str(e.word), file=out)
        print(f"count {len(elements)}", file=out)
    else:
        print(f"order {rd.weyl_order}", file=out)  # closed forms: no table
        print(f"longest-length {rd.num_positive_roots}", file=out)  # l(w0) = |Phi+|


def cmd_mult(args, out):
    from . import multiplicity
    rd = _build(args)
    if args.sweep is None and (args.lam is None or args.mu is None):
        raise UsageError("mult needs --lambda and --mu (or --sweep)")
    if args.sweep is not None and (args.lam is not None or args.mu is not None):
        raise UsageError("mult --sweep takes no --lambda or --mu")
    if args.sweep is not None:
        lams = multiplicity.sweep_dominant(rd, args.sweep)
        if not lams:
            raise UsageError(f"mult --sweep {args.sweep} reaches no dominant lambda")
        for lam in lams:
            for mu, m in multiplicity.weight_system(rd, lam).items():
                print(f"{_fmt(lam)}\t{_fmt(mu)}\t{m}", file=out)
        return
    lam = rootdata.parse_coweight(rd, args.lam)
    mu = rootdata.parse_coweight(rd, args.mu)
    print(multiplicity.multiplicity_freudenthal(rd, lam, mu), file=out)


def _load_class(args):
    from . import conjugacy
    return conjugacy.class_from_json(_read_json(args.class_file, "class"))


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
    if args.kind == "polytope":
        if args.nu is None and args.lam2 is None:
            raise UsageError("polytope needs --nu or --lambda2")
        if args.nu is not None and args.lam2 is not None:
            raise UsageError("polytope takes --nu or --lambda2, not both")
        if args.cvals is not None:
            raise UsageError("polytope takes no --cvals")
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
        if args.cvals is None:
            raise UsageError("steinberg needs --cvals")
        if args.nu is not None or args.lam2 is not None:
            raise UsageError("steinberg takes no --nu or --lambda2")
        lam = rootdata.parse_coweight(rd, args.lam)
        mu = strata.steinberg_stratum(rd, _parse_cvals(rd, args.cvals), lam)
        print(f"stratum {_fmt(mu)}", file=out)


def cmd_nilcone(args, out):
    from . import vinberg
    rd = _build(args)
    strata_list = vinberg.nilcone_strata(rd)
    word_str, top_dim = _word_str(rd), rd.dim_g - rd.rank
    j = None
    for s in strata_list:
        if s.j != j:  # the strata come grouped by J: label each J once
            j, label = s.j, ",".join(str(i + 1) for i in sorted(s.j)) or "-"
        top = "top" if s.dim == top_dim else "."
        print(f"{label}\t{word_str(s.w.word)}\t{s.w.length}\t{s.dim}\t{top}", file=out)
    summary = vinberg.nilcone_report(rd, strata_list)
    print(
        f"summary dim {summary.dim} top {summary.top_count} strata {summary.strata_count}",
        file=out,
    )


# ---------------------------------------------------------------------------
# verification suites: per checked case, the fields of a row, label first, verdict last


def _verdict(ok) -> str:
    return "pass" if ok else "FAIL"


def verify_lower_bound(args, data):
    from . import multiplicity, weyl
    for label, rd in data:
        bound = weyl.coxeter_count(rd)
        for lam in rootdata.dominant_integral_sweep(rd, args.height):
            if not all(p > 0 for p in rootdata._pairings(rd, lam)):
                continue
            # lam has a row at mu = 0; the weights come in increasing order
            for mu, m in multiplicity.weight_system(rd, lam).items():
                if not all(x > 0 for x in rootdata.sub(lam, mu)):
                    continue
                yield label, _fmt(lam), _fmt(mu), m, bound, _verdict(m >= bound)


def verify_nilcone(args, data):
    from . import vinberg
    for label, rd in data:
        summary = vinberg.nilcone_report(rd, vinberg.nilcone_strata(rd))  # raises on violation
        yield (label, f"dim {summary.dim}", f"top {summary.top_count}",
               f"strata {summary.strata_count}", "pass")


def verify_freudenthal_kostant(args, data):
    from . import multiplicity
    for label, rd in data:
        for lam in multiplicity.sweep_dominant(rd, args.height):
            for mu, a in multiplicity.weight_system(rd, lam).items():
                b = multiplicity.multiplicity_kostant(rd, lam, mu)
                yield label, _fmt(lam), _fmt(mu), a, b, _verdict(a == b)


def verify_dimension_consistency(args, data):
    """The class report of a split class with integral Newton point mu <= lam
    against the paper's proven case: mu* = mu and the dimension
    <rho, lam - mu> + r(gamma).  One `rng` draws across all types, so each
    type's cases depend on those before.  A Levi trial checks 2^rank relations."""
    import random
    from . import conjugacy, kv, multiplicity
    for _, rd in data:
        rootdata.guard_grid_size(args.count * 2 ** rd.rank, "the Levi trials")
    rng = random.Random(args.seed)
    for label, rd in data:
        grp = rootdata.fundamental_group(rd)
        for lam in rootdata.dominant_integral_sweep(rd, args.height):
            for mu in multiplicity.weight_system(rd, lam):
                pairings = rootdata._pairings(rd, rootdata._scale(mu)[1])
                residual = {
                    root: rng.randrange(0, 3)
                    for root in rd.positive_roots
                    if not sum(map(mul, root, pairings))
                }
                cd = conjugacy.split_class(rd, mu, residual, grp.project(mu))
                rep = kv.report(cd, lam, chen_zhu=False)
                if not rep.nonempty or rep.mu_star != mu:
                    found = _fmt(rep.mu_star) if rep.nonempty else "undefined (empty variety)"
                    raise InvariantViolation(
                        f"mu* of the split class at {_fmt(lam)} is {found}, not mu = {_fmt(mu)}")
                dim = rootdata.rho_pair(rd, rootdata.sub(lam, mu)) + conjugacy.r_invariant(cd)
                if rep.dimension != dim:
                    raise InvariantViolation(
                        f"dimension formulas disagree: {rep.dimension} vs <rho,lam-mu>+r = {dim}")
                yield label, _fmt(lam), _fmt(mu), f"dim {rep.dimension}", "pass"
        # Levi relation on randomized residual data with nu_bar = 0: a relation
        # that holds prints nothing, and one line per type sums the trials up
        zero = rootdata.zero_coweight(rd)
        levi_ok = True
        for trial in range(args.count):
            residual = {root: rng.randrange(0, 4) for root in rd.positive_roots}
            cd = conjugacy.split_class(rd, zero, residual)
            for size in range(rd.rank + 1):
                for levi in combinations(range(rd.rank), size):
                    _, relation = conjugacy.r_levi(cd, frozenset(levi))
                    if not relation:
                        levi_ok = False
                        yield label, f"levi {levi}", f"trial {trial}", "FAIL"
        if args.count > 0:
            yield label, "levi-relation", _verdict(levi_ok)


def verify_stratification_disjoint(args, data):
    from fractions import Fraction
    from . import strata
    for label, rd in data:
        d = 6  # nu = k / d over the grid, and every lam is d times an integer tuple
        lams = [tuple(d * x for x in k)
                for k in rootdata.dominant_grid(rd, args.height + 2 * rd.rank, 1)]
        for k in rootdata.dominant_grid(rd, args.height, d):
            hits = strata.open_strata(rd, d, k, lams)
            yield label, _fmt(Fraction(x, d) for x in k), len(hits), _verdict(len(hits) == 1)


def verify_chen_zhu_compare(args, data):
    """Report only: mu* from the first lam above nu (all agree) against the maximal mu below nu."""
    from fractions import Fraction
    from . import kv
    for label, rd in data:
        lams = [tuple(4 * x for x in lam)  # scaled by 4, as nu = k / 4 is
                for lam in rootdata.dominant_grid(rd, args.height + 2 * rd.rank, 1)]
        for k in rootdata.dominant_grid(rd, args.height, 4):
            nu = tuple(Fraction(x, 4) for x in k)
            lam = next((lam for lam in lams if all(map(le, k, lam))), None)
            if lam is None:
                continue
            mu_star = kv.best_integral_approx(rd, nu, [x // 4 for x in lam])
            below = kv.chen_zhu_approx(rd, nu)
            czs = " ".join(_fmt(v) for v in below) or "-"
            same = len(below) == 1 and below[0] == mu_star
            yield (label, _fmt(nu), f"min-above {_fmt(mu_star)}", f"max-below {czs}",
                   "equal" if same else "differ")


VERIFY_SUITES = {  # name -> (suite, default types)
    "lower-bound": (verify_lower_bound, ["A2", "B2", "G2", "A3"]),
    "nilcone": (verify_nilcone, ["A1", "A2", "B2", "G2", "A3"]),
    "freudenthal-kostant": (verify_freudenthal_kostant, ["A1", "A2", "B2", "G2"]),
    "dimension-consistency": (verify_dimension_consistency, ["A2", "A3"]),
    "stratification-disjoint": (verify_stratification_disjoint, ["A2"]),
    "chen-zhu-compare": (verify_chen_zhu_compare, ["A2"]),
}


def cmd_verify(args, out):
    suite, default_types = VERIFY_SUITES[args.suite]
    labels = args.type.split(",") if args.type else default_types
    data = [(label, _build(args, label)) for label in labels]  # refuse before any output
    checked = failed = 0
    for row in suite(args, data):
        print("\t".join(map(str, row)), file=out)
        checked += 1
        failed += row[-1] == "FAIL"
    if checked == 0:
        raise UsageError(f"verification suite {args.suite} checked no cases")
    if args.suite == "chen-zhu-compare":  # report only, never a failure
        print("REPORT", file=out)
        return
    print("FAIL" if failed else "PASS", file=out)
    if failed:
        raise InvariantViolation(f"verification suite {args.suite} failed")


# ---------------------------------------------------------------------------
# argv


_TYPE = {"--type": ("type", str, None), "--isogeny": ("isogeny", str, "sc")}
_CLASS = {"--class": ("class_file", str, None), "--lambda": ("lam", str, None)}

# name -> (handler, positional as (dest, choices) or None, flags, required flags);
# a flag maps to (dest, str | int | bool, default), bool being a switch
COMMANDS = {
    "weyl": (cmd_weyl, None, {**_TYPE, "--coxeter": ("coxeter", bool, False)}, ()),
    "mult": (cmd_mult, None, {**_TYPE, "--lambda": ("lam", str, None), "--mu": ("mu", str, None),
                              "--sweep": ("sweep", int, None)}, ()),
    "dim": (cmd_dim, None, {**_CLASS, "--json": ("json", bool, False)}, tuple(_CLASS)),
    "components": (cmd_components, None, _CLASS, tuple(_CLASS)),
    "strata": (cmd_strata, ("kind", ("polytope", "steinberg")),
               {**_TYPE, "--lambda": ("lam", str, None), "--lambda2": ("lam2", str, None),
                "--nu": ("nu", str, None), "--cvals": ("cvals", str, None)}, ("--lambda",)),
    "nilcone": (cmd_nilcone, None, _TYPE, ()),
    "verify": (cmd_verify, ("suite", VERIFY_SUITES),
               {**_TYPE, "--height": ("height", int, 6), "--seed": ("seed", int, 20240817),
                "--count": ("count", int, 20)}, ()),
}


def _print_usage(name, out):
    """The usage line of command ``name``, or what kv-calc is and every command's."""
    if name is None:
        print("usage: kv-calc COMMAND [FLAGS]\n\nExact-arithmetic calculator for dimensions "
              "and component counts of Kottwitz-Viehmann varieties\n", file=out)
    for name in COMMANDS if name is None else [name]:
        _, positional, flags, required = COMMANDS[name]
        words = ["usage: kv-calc", name]
        if positional:
            words.append("{" + ",".join(positional[1]) + "}")
        for flag, (_, kind, _) in flags.items():
            word = flag if kind is bool else f"{flag} {flag[2:].upper()}"
            words.append(word if flag in required else f"[{word}]")
        print(" ".join(words), file=out)


def _choice(what, token, choices):
    if token not in choices:
        found = f"unknown {what} {token!r}" if token else f"no {what}"
        raise UsageError(f"{found}; choose from {sorted(choices)}")
    return token


def parse_args(argv):
    """(handler, args) for argv, read off ``COMMANDS``: the token after a
    value flag is its value, ``--flag=value`` is read too and the last of a
    repeated flag wins.  ``-h`` or ``--help`` before any fault gives
    ``_print_usage`` and the command (None before one); a token that fits
    no entry of the table, a prefix of a flag included, raises UsageError."""
    if argv and argv[0] in ("-h", "--help"):
        return _print_usage, None
    name = _choice("command", argv[0] if argv else None, COMMANDS)
    handler, positional, flags, required = COMMANDS[name]
    values = {dest: default for dest, _, default in flags.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _print_usage, name
        flag, eq, value = token.partition("=")
        if flag in flags:
            dest, kind, _ = flags[flag]
            if kind is bool:
                if eq:
                    raise UsageError(f"{flag} takes no value")
                value = True
            elif not eq and (value := next(tokens, None)) is None:
                raise UsageError(f"{flag} needs a value")
            try:
                values[dest] = kind(value)
            except ValueError:  # only int() raises
                raise UsageError(f"{flag} takes an integer, not {value!r}") from None
        elif positional and positional[0] not in values and not token.startswith("-"):
            values[positional[0]] = token
        else:
            raise UsageError(f"unrecognized argument {token!r}")
    if positional:
        _choice(positional[0], values.get(positional[0]), positional[1])
    missing = [flag for flag in required if values[flags[flag][0]] is None]
    if missing:
        raise UsageError(f"{name} needs {' and '.join(missing)}")
    return handler, SimpleNamespace(**values)


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        handler(args, out)
        return 0
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except KVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The `kv-calc` entry point: `run` on sys.argv, then flush and end the
    process without the interpreter's teardown."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: exit 1 with nothing on stderr
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
