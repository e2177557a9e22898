"""Weight multiplicities of the Langlands dual group.

The dual group is read off the root datum: its weights are the coweights of
rd in simple-coroot coordinates, its positive roots are
``rd.positive_coroots`` and its rho is ``rd.rho_check``; its coroots are the
roots of rd, paired with a weight by ``rootdata.pair_root``.  The invariant
form is (x, y) = sum over positive roots beta of <beta, x><beta, y>, which W
preserves because it permutes the roots up to sign; on each simple factor it
is a positive multiple of the form that symmetrizes the Cartan matrix, and
Freudenthal's formula holds for any such form.

Freudenthal's recursion runs over the dominant weights of V(lam) only (the
dominance interval ``dominant_below``), reading the multiplicity of each
mu + k alpha at its dominant representative.  Kostant's alternating sum over
the Weyl group of the literal dual datum (with a brute-force partition
function) is an independent oracle kept for tests.

Freudenthal's recursion and the interval walk run on integers: lam and the
weights below it are scaled once by D, the lcm of lam's denominators, and
walked, reduced to dominant and summed in the Gram form as integers.
``_interval`` caches the scaled interval per (rd, lam) beside the Fraction
coweights it stands for, which are built once and are the keys every caller
sees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import add, le, mul
from types import MappingProxyType

from . import rootdata, weyl
from .errors import InvariantViolation, UsageError
from .rootdata import Coweight, RootDatum


def _check_weight(rd: RootDatum, v) -> Coweight:
    v = rootdata.coweight(v)
    if not rootdata.is_integral(rd, v):
        raise UsageError("coweight is not in the isogeny lattice")
    if not rootdata.is_dominant(rd, v):
        raise UsageError("coweight must be dominant")
    return v


@lru_cache(maxsize=None)
def _gram(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of (x, y) = sum over beta > 0 of <beta, x><beta, y> in
    simple-coroot coordinates."""
    r = rd.rank
    unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    rows = [[int(rootdata.pair_root(rd, beta, e)) for e in unit] for beta in rd.positive_roots]
    return tuple(tuple(sum(p[i] * p[j] for p in rows) for j in range(r)) for i in range(r))


@lru_cache(maxsize=None)
def weight_system(rd: RootDatum, lam: Coweight) -> MappingProxyType:
    """The dominant weights of the dual-group irreducible V(lam), with their
    multiplicities, as a read-only mapping.

    lam and the weights are in simple-coroot coordinates of rd.  Freudenthal's
    recursion visits ``dominant_below(rd, lam)`` in decreasing height and reads
    m(mu + k alpha) as m of its dominant representative.  A dict lookup is
    enough, for two reasons: that representative is at least mu + k alpha in
    dominance, so it is higher than mu and already computed; and the weights on
    an alpha-string form an unbroken string, so the first k whose
    representative is not a weight ends the string.

    Everything is scaled by D (see ``_interval``): with x = X / D the Casimir
    value (x, x) + (x, 2 rho) is C(X) / D^2, C(X) = (X, X) + D (X, 2 rho), and
    Freudenthal's m = 2 sum m(y) (y, alpha) / (C(lam) - C(mu)) becomes
    2 D sum m(Y) (Y, alpha) / (C(D lam) - C(D mu)), all in integers.
    """
    lam = _check_weight(rd, lam)
    d, interval = _interval(rd, lam)
    g = _gram(rd)

    def gram_times(x):
        return tuple(sum(map(mul, row, x)) for row in g)

    two_rho = tuple(int(2 * x) for x in rd.rho_check)
    g_two_rho = gram_times(two_rho)

    def casimir(x):
        return sum(map(mul, x, gram_times(x))) + d * sum(map(mul, x, g_two_rho))

    # per positive root alpha of the dual: D alpha, g alpha and D (alpha, alpha)
    strings = []
    for alpha in rd.positive_coroots:
        g_alpha = gram_times(alpha)
        strings.append((tuple(d * a for a in alpha), g_alpha, d * sum(map(mul, alpha, g_alpha))))

    # Each alpha-string step reduces y = D mu + k D alpha, whose dominant
    # representative lies above y; the string ends by the time ht(y) exceeds
    # ht(D lam), so it takes at most (ht D lam - ht D mu) // (D ht alpha) + 1.
    highest, *rest = interval
    h = sum(highest)
    rootdata.guard_grid_size(sum((h - sum(mu)) // sum(step) + 1
                                 for mu in rest for step, _, _ in strings),
                             "Freudenthal's recursion")
    top = casimir(highest)
    mult = {highest: 1}
    for mu in rest:
        total = 0
        for step, g_alpha, growth in strings:
            y = mu
            form = sum(map(mul, mu, g_alpha))  # (Y, alpha), Y = mu + k D alpha
            while True:
                y = tuple(map(add, y, step))
                form += growth
                m_y = mult.get(rootdata._reduce_ints(rd, y)[0])
                if m_y is None:
                    break
                total += m_y * form
        denom = top - casimir(mu)
        if denom <= 0:
            raise InvariantViolation(
                f"Freudenthal denominator {Fraction(denom, d * d)} at {interval[mu]} below {lam}")
        m, rest = divmod(2 * d * total, denom)
        if rest or m <= 0:
            raise InvariantViolation(
                f"Freudenthal multiplicity {Fraction(2 * d * total, denom)} at {interval[mu]} "
                f"below {lam}")
        mult[mu] = m
    return MappingProxyType({interval[mu]: m for mu, m in mult.items()})


def multiplicity_freudenthal(rd: RootDatum, lam, mu) -> int:
    """m_{lam,mu} for the dual group; 0 when mu is not a weight of V(lam)."""
    lam = _check_weight(rd, lam)
    mu = _check_weight(rd, mu)
    return weight_system(rd, lam).get(mu, 0)


# ---------------------------------------------------------------------------
# Kostant oracle


@lru_cache(maxsize=None)
def kostant_partition(rd: RootDatum, beta: tuple[int, ...]) -> int:
    """Number of ways to write beta (simple-coroot coords, nonnegative
    integers) as an N-combination of positive roots of the dual group."""
    if any(b < 0 for b in beta):
        return 0
    dual = rd.dual()
    roots = tuple(sorted(dual.positive_roots, key=lambda a: (-sum(a), a)))
    return _kp(tuple(int(b) for b in beta), roots, 0)


@lru_cache(maxsize=None)
def _kp(beta, roots, idx) -> int:
    if all(b == 0 for b in beta):
        return 1
    if idx >= len(roots):
        return 0
    a = roots[idx]
    cap = min(b // x for b, x in zip(beta, a) if x > 0)
    total = 0
    for k in range(cap + 1):
        rest = tuple(b - k * x for b, x in zip(beta, a))
        if all(b >= 0 for b in rest):
            total += _kp(rest, roots, idx + 1)
    return total


def multiplicity_kostant(rd: RootDatum, lam, mu) -> int:
    """Kostant's formula: sum over W of (-1)^l(w) P(w(lam+rho)-(mu+rho))."""
    lam = _check_weight(rd, lam)
    mu = _check_weight(rd, mu)
    # lam + rho and mu + rho over one denominator D, so W acts on integers
    d, n = rootdata._scale(rootdata.add(lam, rd.rho_check) + rootdata.add(mu, rd.rho_check))
    lam_rho, mu_rho = n[:rd.rank], n[rd.rank:]
    total = 0
    for w in weyl.enumerate_group(rd.dual()):
        diff = rootdata.sub(w.apply_root(lam_rho), mu_rho)
        if any(x % d or x < 0 for x in diff):
            continue
        total += (-1) ** w.length * kostant_partition(rd, tuple(x // d for x in diff))
    if total < 0:
        raise InvariantViolation(f"Kostant sum {total} is negative")
    return total


# ---------------------------------------------------------------------------
# dominance intervals


@lru_cache(maxsize=None)
def dominant_below(rd: RootDatum, lam) -> tuple[Coweight, ...]:
    """Dominant lattice coweights mu with lam - mu a nonnegative integer
    combination of simple coroots (this forces matching pi_1 classes).

    The walk steps down by simple coroots from lam scaled by D, the lcm of its
    denominators, keeping a step whose dominant representative stays below
    lam; every coordinate stays a nonnegative integer.  Coordinate i of a
    visited tuple lies between 0 and D lam_i and is congruent to D lam_i mod
    D, so the walk visits at most prod(floor(lam_i) + 1) tuples.
    """
    lam = _check_weight(rd, lam)
    d, top = rootdata._scale(lam)
    rootdata.guard_grid_size(prod(t // d + 1 for t in top), "the dominance interval")
    out = []
    visited = {top}
    stack = [top]
    while stack:
        v = stack.pop()
        if rootdata.is_dominant(rd, v):
            out.append(v)
        for i in range(rd.rank):
            if v[i] < d:
                continue
            w = v[:i] + (v[i] - d,) + v[i + 1:]
            if w in visited:
                continue
            if all(map(le, rootdata._reduce_ints(rd, w)[0], top)):
                visited.add(w)
                stack.append(w)
    out.sort()
    out = tuple(tuple(Fraction(x, d) for x in v) for v in out)
    # every lattice point below lam stays in the lattice (coroot steps)
    if not all(rootdata.is_integral(rd, v) for v in out):
        raise InvariantViolation(f"a coweight below {lam} left the isogeny lattice")
    return out


@lru_cache(maxsize=None)
def _interval(rd: RootDatum, lam) -> tuple[int, dict[tuple[int, ...], Coweight]]:
    """(D, {D mu: mu}) over mu in ``dominant_below(rd, lam)`` by decreasing
    height, lam first; D is the lcm of lam's denominators, so every D mu is an
    integer tuple.  It reads ``dominant_below``, so that every interval is
    walked in that one function, once, and passes through its cache and its
    per-layer work count whichever caller asks first; the Fraction coweights
    are the public ones, not copies."""
    coweights = dominant_below(rd, lam)
    d, _ = rootdata._scale(rootdata.coweight(lam))
    scaled = [(tuple(x.numerator * (d // x.denominator) for x in mu), mu) for mu in coweights]
    scaled.sort(key=lambda item: (-sum(item[0]), item[0]))
    return d, dict(scaled)


# ---------------------------------------------------------------------------
# sweep helpers


def highest_root_pairing(rd: RootDatum, lam) -> Fraction:
    """max over the dual's positive roots theta of <lam + rho, theta-vee>;
    the coroots theta-vee are the positive roots of rd."""
    shifted = rootdata.add(rootdata.coweight(lam), rd.rho_check)
    return max(Fraction(rootdata.pair_root(rd, beta, shifted)) for beta in rd.positive_roots)


def sweep_dominant(rd: RootDatum, cap: int) -> list[Coweight]:
    """Dominant lattice coweights lam with <lam+rho, theta-vee> <= cap."""
    out = []
    for v in rootdata.dominant_integral_sweep(rd, cap):
        if highest_root_pairing(rd, v) <= cap:
            out.append(v)
    return out
