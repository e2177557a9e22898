"""Weight multiplicities of the Langlands dual group.

The dual group is realized concretely as the root system with transposed
Cartan matrix, so simple-coroot coordinates of G are simple-root coordinates
of the dual with the same indexing.  Freudenthal's recursion is the
production algorithm; Kostant's alternating sum over the Weyl group (with a
brute-force partition function) is an independent oracle kept for tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import rootdata, weyl
from .errors import InvariantViolation, UsageError
from .rootdata import Coweight, RootDatum


def _check_weight(rd: RootDatum, v, dominant=True) -> Coweight:
    v = rootdata.coweight(v)
    if not rootdata.is_integral(rd, v):
        raise UsageError("coweight is not in the isogeny lattice")
    if dominant and not rootdata.is_dominant(rd, v):
        raise UsageError("coweight must be dominant")
    return v


@lru_cache(maxsize=None)
def _symmetrizer(dual: RootDatum) -> tuple[int, ...]:
    """Positive integers d_i making diag(d) @ cartan symmetric."""
    r = dual.rank
    c = dual.cartan
    d: list[Fraction] = [Fraction(0)] * r
    remaining = set(range(r))
    while remaining:
        seed = min(remaining)
        d[seed] = Fraction(1)
        remaining.discard(seed)
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in list(remaining):
                if c[i][j] != 0:
                    d[j] = d[i] * Fraction(c[i][j], c[j][i])
                    remaining.discard(j)
                    stack.append(j)
    mult = lcm(*(x.denominator for x in d))
    out = [int(x * mult) for x in d]
    for i in range(r):
        for j in range(r):
            if out[i] * c[i][j] != out[j] * c[j][i]:
                raise InvariantViolation("Cartan matrix is not symmetrizable")
    return tuple(out)


def _inner(dual: RootDatum, d, a, b):
    """W-invariant form on dual-weight space; a, b in dual-root coords."""
    r = dual.rank
    return sum(d[i] * dual.cartan[i][j] * a[i] * b[j] for i in range(r) for j in range(r))


@lru_cache(maxsize=None)
def _dual_rho(rd: RootDatum) -> Coweight:
    """rho of the dual group in the dual's simple-root coordinates."""
    dual = rd.dual()
    s = [Fraction(0)] * rd.rank
    for root in dual.positive_roots:
        for j in range(rd.rank):
            s[j] += Fraction(root[j], 2)
    return tuple(s)


def _dual_pairing(dual: RootDatum, x, coroot_idx: int):
    """Pairing of a dual weight x (dual-root coords) with the coroot of the
    positive root number coroot_idx of the dual."""
    coroot = dual.positive_coroots[coroot_idx]
    r = dual.rank
    return sum(dual.cartan[i][j] * coroot[i] * x[j] for i in range(r) for j in range(r))


@lru_cache(maxsize=None)
def weight_system(rd: RootDatum, lam: Coweight) -> dict[Coweight, int]:
    """All weights of the dual-group irreducible V(lam) with multiplicities.

    lam and the returned weights are in simple-coroot coordinates of rd.
    Weight set by saturated root-string descent; multiplicities by
    Freudenthal's recursion from the top.
    """
    lam = _check_weight(rd, lam)
    dual = rd.dual()
    r = rd.rank
    weights = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for x in frontier:
            for k, root in enumerate(dual.positive_roots):
                p = _dual_pairing(dual, x, k)
                if p > 0:
                    for step in range(1, int(p) + 1):
                        y = tuple(x[j] - step * root[j] for j in range(r))
                        if y not in weights:
                            weights.add(y)
                            nxt.append(y)
        frontier = nxt

    d = _symmetrizer(dual)
    rho = _dual_rho(rd)
    norm_lam = _inner(dual, d, lam, lam) + 2 * _inner(dual, d, lam, rho)
    mult = {lam: 1}
    for x in sorted(weights, key=lambda v: (-sum(v), v)):
        if x == lam:
            continue
        total = Fraction(0)
        for root in dual.positive_roots:
            k = 1
            while True:
                y = tuple(x[j] + k * root[j] for j in range(r))
                if y not in weights:
                    break
                m_y = mult.get(y, 0)
                if m_y:
                    total += m_y * _inner(dual, d, y, root)
                k += 1
        denom = norm_lam - (_inner(dual, d, x, x) + 2 * _inner(dual, d, x, rho))
        if denom <= 0:
            raise InvariantViolation(f"Freudenthal denominator {denom} at {x} below {lam}")
        m = 2 * Fraction(total) / denom
        if m.denominator != 1 or m < 0:
            raise InvariantViolation(f"Freudenthal multiplicity {m} at {x} below {lam}")
        if m:
            mult[x] = int(m)
    return mult


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
    rho = _dual_rho(rd)
    lam_rho = rootdata.add(lam, rho)
    mu_rho = rootdata.add(mu, rho)
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
    total = 0
    for x, m in weight_system(rd, rootdata.coweight(lam)).items():
        if rootdata.is_dominant(rd, x):
            total += m * orbit_size(rd, x)
    return total


# ---------------------------------------------------------------------------
# sweep helpers


def highest_root_pairing(rd: RootDatum, lam) -> Fraction:
    """max over the dual's positive roots theta of <lam + rho, theta-vee>."""
    dual = rd.dual()
    shifted = rootdata.add(rootdata.coweight(lam), _dual_rho(rd))
    return max(
        Fraction(_dual_pairing(dual, shifted, k)) for k in range(len(dual.positive_roots))
    )


def sweep_dominant(rd: RootDatum, cap: int) -> list[Coweight]:
    """Dominant lattice coweights lam with <lam+rho, theta-vee> <= cap."""
    out = []
    for v in rootdata.dominant_integral_sweep(rd, cap):
        if highest_root_pairing(rd, v) <= cap:
            out.append(v)
    return out
