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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


def _form(g, x, y):
    return sum(g[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))


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
    """
    lam = _check_weight(rd, lam)
    g = _gram(rd)
    rho = rd.rho_check

    def casimir(x):
        return _form(g, x, x) + 2 * _form(g, x, rho)

    top = casimir(lam)
    mult = {}
    for mu in sorted(dominant_below(rd, lam), key=lambda v: (-sum(v), v)):
        if mu == lam:
            mult[mu] = 1
            continue
        total = 0
        for alpha in rd.positive_coroots:
            k = 1
            while True:
                y = tuple(x + k * a for x, a in zip(mu, alpha))
                m_y = mult.get(rootdata.dominant_reduce(rd, y)[0])
                if m_y is None:
                    break
                total += m_y * _form(g, y, alpha)
                k += 1
        denom = top - casimir(mu)
        if denom <= 0:
            raise InvariantViolation(f"Freudenthal denominator {denom} at {mu} below {lam}")
        m = 2 * Fraction(total) / denom
        if m.denominator != 1 or m <= 0:
            raise InvariantViolation(f"Freudenthal multiplicity {m} at {mu} below {lam}")
        mult[mu] = int(m)
    return MappingProxyType(mult)


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
    dual = rd.dual()
    lam_rho = rootdata.add(lam, rd.rho_check)
    mu_rho = rootdata.add(mu, rd.rho_check)
    total = 0
    for w in weyl.enumerate_group(dual):
        img = w.apply_root(lam_rho)
        diff = rootdata.sub(tuple(Fraction(x) for x in img), mu_rho)
        if any(x.denominator != 1 or x < 0 for x in diff):
            continue
        total += (-1) ** w.length * kostant_partition(rd, tuple(int(x) for x in diff))
    if total < 0:
        raise InvariantViolation(f"Kostant sum {total} is negative")
    return total


# ---------------------------------------------------------------------------
# dominance intervals and orbit sizes


@lru_cache(maxsize=None)
def dominant_below(rd: RootDatum, lam) -> tuple[Coweight, ...]:
    """Dominant lattice coweights mu with lam - mu a nonnegative integer
    combination of simple coroots (this forces matching pi_1 classes)."""
    lam = _check_weight(rd, lam)
    out = []
    visited = {lam}
    stack = [lam]
    while stack:
        v = stack.pop()
        if rootdata.is_dominant(rd, v):
            out.append(v)
        for i in range(rd.rank):
            w = tuple(x - int(i == j) for j, x in enumerate(v))
            if w in visited or any(x < 0 for x in w):
                continue
            dom, _ = rootdata.dominant_reduce(rd, w)
            if rootdata.leq_q(rd, dom, lam):
                visited.add(w)
                stack.append(w)
    # every lattice point below lam stays in the lattice (coroot steps)
    if not all(rootdata.is_integral(rd, v) for v in out):
        raise InvariantViolation(f"a coweight below {lam} left the isogeny lattice")
    out.sort()
    return tuple(out)


def weyl_orbit(rd: RootDatum, v) -> set[Coweight]:
    v0, _ = rootdata.dominant_reduce(rd, rootdata.coweight(v))
    orbit = {v0}
    frontier = [v0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(rd.rank):
                y = rootdata.reflect(rd, i, x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return orbit


def orbit_size(rd: RootDatum, v) -> int:
    return len(weyl_orbit(rd, v))


def dimension_sum(rd: RootDatum, lam) -> int:
    """Sum of m_{lam,mu} * |W.mu| over dominant weights of V(lam); equals
    the Weyl dimension formula when everything is consistent."""
    wsys = weight_system(rd, rootdata.coweight(lam))
    return sum(m * orbit_size(rd, x) for x, m in wsys.items())


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
