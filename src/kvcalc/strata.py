"""Coweight-polytope and Steinberg-base stratifications.

P_lambda is the set of dominant rational coweights dominated by lambda; its
open stratum removes every smaller polytope in the same lattice class.  The
Steinberg-base strata classify valuation vectors of the characteristic
coordinates (a_i, b_i); the classifying coweight is recovered as a unique
minimal element, never by tie-breaking.

Both minimal elements (the open-stratum test through ``kv``, and the
Steinberg stratum here) are found among the dominance interval scaled to
integers: ``rootdata._extremes`` confirms the lowest candidate by height in
one pass and runs the pairwise filter only when that fails, to list the tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import kv, multiplicity, rootdata
from .errors import InvariantViolation, UniquenessError, UsageError
from .rootdata import Coweight, RootDatum


class _Infinite:
    """Explicit tag for an identically-zero coordinate (infinite valuation)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def is_infinite(x) -> bool:
    return x is INFINITE


@dataclass(frozen=True)
class ValuationVector:
    """Valuations of the extended Steinberg-base coordinates.

    b_vals are the abelianization coordinates (finite, >= 0, determined by
    lambda); c_vals are the twisted trace coordinates, INFINITE allowed.
    """

    b_vals: tuple[Fraction, ...]
    c_vals: tuple  # Fractions and/or INFINITE

    def __post_init__(self):
        if any(x < 0 for x in self.b_vals):
            raise UsageError("b-valuations must be nonnegative")


# ---------------------------------------------------------------------------
# dominant coweight polytopes


def polytope_member(rd: RootDatum, nu, lam, open_stratum: bool = False) -> bool:
    """Membership of nu in P_lambda (closed) or its open stratum."""
    nu = rootdata.coweight(nu)
    lam = rootdata.coweight(lam)
    if not rootdata.is_dominant(rd, lam) or not rootdata.is_integral(rd, lam):
        raise UsageError("lambda must be dominant and in the isogeny lattice")
    if not rootdata.is_dominant(rd, nu) or not rootdata.leq_q(rd, nu, lam):
        return False
    if not open_stratum:
        return True
    # lambda, nu and nu <= lambda are checked above
    return kv._best_integral_approx(rd, nu, lam) == lam


def polytope_intersection(rd: RootDatum, lam1, lam2) -> Coweight:
    """The coweight mu with P_lam1 meet P_lam2 = P_mu, constructively.

    Writing lam1 - lam2 in the coroot basis, the positive and negative parts
    have disjoint support; mu = lam1 - (positive part) is the componentwise
    minimum, and is dominant whenever the two classes match.
    """
    lam1 = rootdata.coweight(lam1)
    lam2 = rootdata.coweight(lam2)
    grp = rootdata.fundamental_group(rd)
    for lam in (lam1, lam2):
        if not rootdata.is_dominant(rd, lam) or not rootdata.is_integral(rd, lam):
            raise UsageError("both coweights must be dominant lattice elements")
    if grp.project(lam1) != grp.project(lam2):
        raise UsageError("polytope intersection requires matching pi_1 classes")
    beta1 = tuple(max(x, Fraction(0)) for x in rootdata.sub(lam1, lam2))
    mu = rootdata.sub(lam1, beta1)
    if mu != tuple(min(a, b) for a, b in zip(lam1, lam2)):
        raise InvariantViolation(f"intersection {mu} is not the componentwise minimum")
    if not rootdata.is_dominant(rd, mu):
        raise InvariantViolation(f"intersection coweight {mu} is not dominant")
    if not (rootdata.leq_q(rd, mu, lam1) and rootdata.leq_q(rd, mu, lam2)):
        raise InvariantViolation(f"intersection coweight {mu} is not below both")
    return mu


def rational_grid(rd: RootDatum, height_cap, denominator: int):
    """Dominant rational coweights with bounded denominator and height."""
    steps = int(height_cap * denominator)
    rootdata.guard_grid_size(max(steps + 1, 0) ** rd.rank, "the rational grid")
    limit = height_cap * denominator
    out = []
    # k / denominator is dominant exactly when k is, and sorts as k does
    for coords in product(range(steps + 1), repeat=rd.rank):
        if sum(coords) > limit:
            continue
        if rootdata.is_dominant(rd, coords):
            out.append(coords)
    out.sort()
    return [tuple(Fraction(k, denominator) for k in coords) for coords in out]


# ---------------------------------------------------------------------------
# Steinberg-base strata


def steinberg_stratum(rd: RootDatum, v: ValuationVector, lam) -> Coweight:
    """The unique minimal dominant lattice mu <= lam with
    val(c_{iota(i)}) >= <lambda - mu, omega_i> for every i."""
    lam = rootdata.coweight(lam)
    if not rootdata.is_dominant(rd, lam) or not rootdata.is_integral(rd, lam):
        raise UsageError("lambda must be dominant and in the isogeny lattice")
    if len(v.c_vals) != rd.rank:
        raise UsageError("need one c-valuation per fundamental coordinate")
    if v.b_vals and tuple(v.b_vals) != tuple(lam[rd.iota[i]] for i in range(rd.rank)):
        raise UsageError("b-valuations are inconsistent with lambda")
    # mu_i >= lam_i - a_i, in the interval scaled by D: D mu_i >= D lam_i - floor(D a_i)
    d, interval = multiplicity._interval(rd, lam)
    top = next(iter(interval))
    bounds = []
    for i in range(rd.rank):
        a_i = v.c_vals[rd.iota[i]]
        if not is_infinite(a_i):
            a_i = Fraction(a_i)
            bounds.append((i, top[i] - a_i.numerator * d // a_i.denominator))
    candidates = [mu for mu in interval if all(mu[i] >= low for i, low in bounds)]
    if not candidates:
        raise UsageError("valuation vector matches no stratum below lambda")
    minimal = rootdata._extremes(candidates)
    if len(minimal) != 1:
        minimal = sorted(interval[mu] for mu in minimal)
        raise UniquenessError(f"Steinberg stratum below {lam} is not unique: {minimal}")
    return interval[minimal[0]]
