"""Weight multiplicities of the Langlands dual group.

The dual group is read off the root datum: its weights are the coweights of
rd in simple-coroot coordinates, its positive roots are
``rd.positive_coroots`` and its rho is half of ``rd.two_rho_check``; its coroots
are the roots of rd, paired with a weight by ``rootdata.pair_root``.  The invariant
form is (x, y) = sum over positive roots beta of <beta, x><beta, y>, which W
preserves because it permutes the roots up to sign; on each simple factor it
is a positive multiple of the form that symmetrizes the Cartan matrix, and
Freudenthal's formula holds for any such form.

Freudenthal's recursion runs over the dominant weights of V(lam) only (the
dominance interval), reading the multiplicity of each mu + k alpha at its
dominant representative.  Kostant's alternating sum over the Weyl group
(with a brute-force partition function) is an independent check of it, run
by the verify suite: it reads the dual group off rd as Freudenthal does, its
W the cached table of ``weyl.enumerate_group(rd)`` acting on coweights and
its positive roots the positive coroots.  The tests check both readings
against the literal dual datum, built from the transposed Cartan matrix.

The dominance interval is walked once per (rd, lam), by ``_interval``, inside
the cached weight system: lam is scaled by D, the lcm of its denominators,
and the walk steps down along covers, each a positive coroot, through
dominant integer tuples only.  Every dominant mu <= lam is a weight of V(lam),
so the keys of ``weight_system`` are the interval, in increasing tuple order:
the printed order, which extends dominance, so the recursion runs over it
reversed.  The public functions check lam and mu; the private cores trust them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import add, mul, sub
from types import MappingProxyType

from . import rootdata
from .errors import InvariantViolation
from .rootdata import Coweight, RootDatum


@lru_cache(maxsize=None)
def _gram(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of (x, y) = sum over beta > 0 of <beta, x><beta, y> in
    simple-coroot coordinates, with <beta, alpha_j-vee> = sum_i beta_i cartan[j][i]."""
    r = rd.rank
    rows = [[sum(map(mul, beta, row)) for row in rd.cartan] for beta in rd.positive_roots]
    return tuple(tuple(sum(p[i] * p[j] for p in rows) for j in range(r)) for i in range(r))


def weight_system(rd: RootDatum, lam) -> MappingProxyType:
    """The dominant weights of the dual-group irreducible V(lam), with their
    multiplicities, as a read-only mapping in increasing order: its keys are
    the dominance interval below lam."""
    return _weight_system(rd, rootdata.check_dominant(rd, lam, "lambda"))


@lru_cache(maxsize=None)
def _weight_system(rd: RootDatum, lam: Coweight) -> MappingProxyType:
    """``weight_system`` for a checked lam, cached per (rd, lam).

    lam and the weights are in simple-coroot coordinates of rd.  Freudenthal's
    recursion visits the scaled interval in reverse, from D lam down, and
    reads m(mu + k alpha) as m of its dominant representative.  A dict lookup
    is enough, for two reasons: that representative is at least mu + k alpha
    in dominance, so it is a larger tuple than mu and already computed; and
    the weights on an alpha-string form an unbroken string, so the first k
    whose representative is not a weight ends the string.

    Everything is scaled by D (see ``_interval``): with x = X / D the Casimir
    value (x, x) + (x, 2 rho) is C(X) / D^2, C(X) = (X, X) + D (X, 2 rho), and
    Freudenthal's m = 2 sum m(y) (y, alpha) / (C(lam) - C(mu)) becomes
    2 D sum m(Y) (Y, alpha) / (C(D lam) - C(D mu)), all in integers.
    """
    d, scaled = rootdata._scale(lam)
    interval = _interval(rd, d, scaled)  # increasing, D lam = scaled last
    g = _gram(rd)

    def unscale(x):
        return tuple(Fraction(v, d) for v in x)

    def gram_times(x):
        return tuple(sum(map(mul, row, x)) for row in g)

    g_two_rho = gram_times(rd.two_rho_check)

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
    h = sum(scaled)
    rootdata.guard_grid_size(sum((h - sum(mu)) // sum(step) + 1
                                 for mu in interval[:-1] for step, _, _ in strings),
                             "Freudenthal's recursion")
    top = casimir(scaled)
    mult = {scaled: 1}
    memo = {}  # y -> m of its representative or None, final when first read
    for mu in reversed(interval[:-1]):
        total = 0
        for step, g_alpha, growth in strings:
            y = mu
            form = sum(map(mul, mu, g_alpha))  # (Y, alpha), Y = mu + k D alpha
            while True:
                y = tuple(map(add, y, step))
                form += growth
                if y not in memo:
                    memo[y] = mult.get(rootdata._reduce_ints(rd, y)[0])
                m_y = memo[y]
                if m_y is None:
                    break
                total += m_y * form
        denom = top - casimir(mu)
        if denom <= 0:
            raise InvariantViolation(
                f"Freudenthal denominator {Fraction(denom, d * d)} at {unscale(mu)} below {lam}")
        m, rest = divmod(2 * d * total, denom)
        if rest or m <= 0:
            raise InvariantViolation(
                f"Freudenthal multiplicity {Fraction(2 * d * total, denom)} at {unscale(mu)} "
                f"below {lam}")
        mult[mu] = m
    return MappingProxyType({unscale(mu): mult[mu] for mu in interval})


def multiplicity_freudenthal(rd: RootDatum, lam, mu) -> int:
    """m_{lam,mu} for the dual group; 0 when mu is not a weight of V(lam)."""
    lam = rootdata.check_dominant(rd, lam, "lambda")
    mu = rootdata.check_dominant(rd, mu, "mu")
    return _weight_system(rd, lam).get(mu, 0)


# ---------------------------------------------------------------------------
# Kostant oracle


@lru_cache(maxsize=None)
def kostant_partition(rd: RootDatum, beta: tuple[int, ...]) -> int:
    """Number of ways to write beta (simple-coroot coords, nonnegative
    integers) as an N-combination of positive roots of the dual group."""
    if any(b < 0 for b in beta):
        return 0
    roots = tuple(sorted(rd.positive_coroots, key=lambda a: (-sum(a), a)))
    return _kp(tuple(int(b) for b in beta), roots, 0)


@lru_cache(maxsize=None)
def _kp(beta, roots, idx) -> int:
    if all(b == 0 for b in beta):
        return 1
    if idx >= len(roots):
        return 0
    a = roots[idx]
    cap = min(b // x for b, x in zip(beta, a) if x > 0)  # so no coordinate goes negative
    return sum(_kp(tuple(b - k * x for b, x in zip(beta, a)), roots, idx + 1)
               for k in range(cap + 1))


def multiplicity_kostant(rd: RootDatum, lam, mu) -> int:
    """Kostant's formula: sum over W of (-1)^l(w) P(w(lam+rho)-(mu+rho))."""
    from . import weyl

    lam = rootdata.check_dominant(rd, lam, "lambda")
    mu = rootdata.check_dominant(rd, mu, "mu")
    # lam + rho and mu + rho over one denominator 2D, so W acts on integers
    d, n = rootdata._scale(lam + mu)
    n = tuple(2 * x + d * t for x, t in zip(n, rd.two_rho_check + rd.two_rho_check))
    lam_rho, mu_rho, d = n[:rd.rank], n[rd.rank:], 2 * d
    total = 0
    for w in weyl.enumerate_group(rd):
        diff = rootdata.sub(w.apply(lam_rho), mu_rho)
        if any(x % d or x < 0 for x in diff):
            continue
        total += (-1) ** w.length * kostant_partition(rd, tuple(x // d for x in diff))
    if total < 0:
        raise InvariantViolation(f"Kostant sum {total} is negative")
    return total


# ---------------------------------------------------------------------------
# dominance intervals


def _interval(rd: RootDatum, d: int, scaled) -> list[tuple[int, ...]]:
    """The scaled dominant lattice coweights D mu, mu <= lam, in increasing
    tuple order, D lam = scaled last; D is the lcm of lam's denominators, so
    every D mu is an integer tuple.  When mu < nu, nu - mu is nonnegative, so
    nu is the larger tuple: the order extends dominance.

    The walk steps down from D lam by D beta, beta a positive coroot, and
    keeps the dominant results.  By Stembridge (*The partial order of
    dominant weights*, Adv. Math. 136, 1998) every dominant mu that a
    dominant nu covers is nu - beta, so the covers reach the whole interval.
    A dominant coweight has nonnegative coordinates, so coordinate i of D mu
    lies between 0 and D lam_i and is congruent to D lam_i mod D: the
    interval holds at most prod(floor(lam_i) + 1) points.  lam is checked.
    """
    rootdata.guard_grid_size(prod(t // d + 1 for t in scaled), "the dominance interval")
    steps = [tuple(d * b for b in beta) for beta in rd.positive_coroots]
    seen = {scaled}
    stack = [scaled]
    while stack:
        v = stack.pop()
        for step in steps:
            w = tuple(map(sub, v, step))
            if w not in seen and rootdata._dominant(rd, w):
                seen.add(w)
                stack.append(w)
    # every lattice point below lam stays in the lattice (coroot steps)
    if not all(rootdata._is_integral_ints(rd, d, v) for v in seen):
        raise InvariantViolation(f"a coweight below {tuple(Fraction(t, d) for t in scaled)} "
                                 "left the isogeny lattice")
    return sorted(seen)


# ---------------------------------------------------------------------------
# sweep helpers


def highest_root_pairing(rd: RootDatum, lam) -> Fraction:
    """max over the dual's positive roots theta of <lam + rho, theta-vee>;
    theta-vee runs over the positive roots beta of rd, <beta, rho> = ht beta."""
    d, n = rootdata._scale(rootdata.coweight(lam))
    p = rootdata._pairings(rd, n)
    return Fraction(max(sum(map(mul, beta, p)) + d * sum(beta) for beta in rd.positive_roots), d)


def sweep_dominant(rd: RootDatum, cap: int) -> list[Coweight]:
    """Dominant lattice coweights lam with <lam+rho, theta-vee> <= cap, in
    increasing order."""
    return [v for v in rootdata.dominant_integral_sweep(rd, cap)
            if highest_root_pairing(rd, v) <= cap]
