"""Coweight-polytope and Steinberg-base stratifications.

P_lambda is the set of dominant rational coweights dominated by lambda; its
open stratum removes every smaller polytope in the same lattice class.  The
Steinberg-base strata classify valuation vectors of the characteristic
coordinates (a_i, b_i); the classifying coweight is recovered as a unique
minimal element, never by tie-breaking.

Polytope membership decides on nu and lambda scaled once to integers.  Its
open stratum walks no interval: by Stembridge (Adv. Math. 136, 1998) each
dominant mu that lambda covers is lambda - beta, beta a positive coroot, so
nu lies in it exactly when nu <= lambda and no dominant lambda - beta is
above nu.  The Steinberg stratum is the minimal element of a part of the
dominance interval, found by ``multiplicity._minimal_above`` as mu* is.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le

from . import rootdata
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


class ValuationVector(rootdata.Record):
    """Valuations of the extended Steinberg-base coordinates.

    b_vals are the abelianization coordinates (finite, >= 0, determined by
    lambda); c_vals are the twisted trace coordinates, INFINITE allowed.
    """

    __slots__ = _fields = ("b_vals", "c_vals")

    def __init__(self, b_vals: tuple[Fraction, ...], c_vals: tuple):
        if any(x < 0 for x in b_vals):
            raise UsageError("b-valuations must be nonnegative")
        self.b_vals = b_vals
        self.c_vals = c_vals  # Fractions and/or INFINITE


# ---------------------------------------------------------------------------
# dominant coweight polytopes


def polytope_member(rd: RootDatum, nu, lam, open_stratum: bool = False) -> bool:
    """Membership of nu in P_lambda (closed) or its open stratum."""
    d, n = rootdata._scale(rootdata.coweight(lam) + rootdata.coweight(nu))
    lam, nu = n[:rd.rank], n[rd.rank:]
    rootdata._check_dominant_ints(rd, d, lam, "lambda")
    return _member(rd, d, nu, lam, open_stratum) and rootdata._dominant(rd, nu)


def open_strata(rd: RootDatum, d: int, nu, lams) -> list:
    """The lam in ``lams`` whose open stratum contains nu, all scaled by d to
    integer tuples: nu dominant, each lam a dominant lattice coweight."""
    return [lam for lam in lams if _member(rd, d, nu, lam, True)]


def _member(rd: RootDatum, d: int, nu, lam, open_stratum: bool) -> bool:
    """nu <= lam and, for the open stratum, no dominant lam - beta above nu:
    membership for nu dominant and lam dominant and in the lattice, scaled by d."""
    if not all(map(le, nu, lam)):
        return False
    if not open_stratum:
        return True
    for beta in rd.positive_coroots:
        mu = tuple(x - d * b for x, b in zip(lam, beta))
        if all(map(le, nu, mu)) and rootdata._dominant(rd, mu):
            return False
    return True


def polytope_intersection(rd: RootDatum, lam1, lam2) -> Coweight:
    """The coweight mu with P_lam1 meet P_lam2 = P_mu, constructively.

    Writing lam1 - lam2 in the coroot basis, the positive and negative parts
    have disjoint support; mu = lam1 - (positive part) is the componentwise
    minimum, and is dominant whenever the two classes match.
    """
    lam1 = rootdata.check_dominant(rd, lam1, "lambda")
    lam2 = rootdata.check_dominant(rd, lam2, "lambda2")
    grp = rootdata.fundamental_group(rd)
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


# ---------------------------------------------------------------------------
# Steinberg-base strata


def steinberg_stratum(rd: RootDatum, v: ValuationVector, lam) -> Coweight:
    """The unique minimal dominant lattice mu <= lam with
    val(c_{iota(i)}) >= <lambda - mu, omega_i> for every i."""
    from . import multiplicity

    lam = rootdata.check_dominant(rd, lam, "lambda")
    if len(v.c_vals) != rd.rank:
        raise UsageError("need one c-valuation per fundamental coordinate")
    if v.b_vals and tuple(v.b_vals) != tuple(lam[rd.iota[i]] for i in range(rd.rank)):
        raise UsageError("b-valuations are inconsistent with lambda")
    # mu_i >= lam_i - a_i; an infinite a_i bounds nothing, and dominant mu_i >= 0
    low = [0 if is_infinite(a) else x - Fraction(a)
           for x, a in zip(lam, (v.c_vals[j] for j in rd.iota))]
    minimal = multiplicity._minimal_above(rd, lam, low)
    if not minimal:
        raise UsageError("valuation vector matches no stratum below lambda")
    if len(minimal) != 1:
        raise UniquenessError(f"Steinberg stratum below {lam} is not unique: {minimal}")
    return minimal[0]
