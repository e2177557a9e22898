"""Coweight-polytope and Steinberg-base stratifications.

P_lambda is the set of dominant rational coweights dominated by lambda; its
open stratum removes every smaller polytope in the same lattice class.  The
Steinberg-base strata classify the valuations (a_i, b_i) of the characteristic
coordinates.  The b-part is fixed by lambda (b_i = lambda_{iota(i)}), so the
c-valuations alone decide a stratum; INFINITE is the valuation of a zero
coordinate.  The classifying coweight is the least element of a set closed
under the componentwise minimum, so it is unique and needs no tie-breaking.

Polytope membership decides on nu and lambda scaled once to integers.  Its
open stratum walks no interval: by Stembridge (Adv. Math. 136, 1998) each
dominant mu that lambda covers is lambda - beta, beta a positive coroot, so
nu lies in it exactly when nu <= lambda and no dominant lambda - beta is
above nu.  The Steinberg stratum walks no interval either: it is the least
dominant mu <= lambda above the floor lambda_i - a_{iota(i)}, reached by
``rootdata._least_above`` as mu* is.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le

from . import rootdata
from .errors import UsageError
from .rootdata import Coweight, RootDatum


INFINITE = None  # the valuation of an identically-zero coordinate


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
    """The coweight mu with P_lam1 meet P_lam2 = P_mu: the componentwise
    minimum of the coroot coordinates, for lam1 and lam2 in one pi_1 class.

    mu is dominant: where mu_i = lam1_i, the off-diagonal Cartan entries are
    <= 0 and mu_j <= lam1_j, so <alpha_i, mu> >= <alpha_i, lam1> >= 0.  It
    lies in the lattice: lam1 - mu = max(lam1 - lam2, 0) is integral, since
    matching classes make lam1 - lam2 a coroot combination.  It is below
    both, and every nu below both is below it, so P_lam1 meet P_lam2 = P_mu.
    """
    lam1 = rootdata.check_dominant(rd, lam1, "lambda")
    lam2 = rootdata.check_dominant(rd, lam2, "lambda2")
    grp = rootdata.fundamental_group(rd)
    if grp.project(lam1) != grp.project(lam2):
        raise UsageError("polytope intersection requires matching pi_1 classes")
    return tuple(map(min, lam1, lam2))


# ---------------------------------------------------------------------------
# Steinberg-base strata


def steinberg_stratum(rd: RootDatum, c_vals: tuple, lam) -> Coweight:
    """The least dominant lattice mu <= lam with
    val(c_{iota(i)}) >= <lambda - mu, omega_i> for every i, given one
    c-valuation per fundamental coordinate, each a Fraction or INFINITE."""
    lam = rootdata.check_dominant(rd, lam, "lambda")
    if len(c_vals) != rd.rank:
        raise UsageError("need one c-valuation per fundamental coordinate")
    # mu_i >= lam_i - a_i; an infinite a_i bounds nothing, and dominant mu_i >= 0
    low = [0 if a is INFINITE else x - Fraction(a)
           for x, a in zip(lam, (c_vals[j] for j in rd.iota))]
    mu = rootdata._least_above(rd, lam, low)
    if mu is None:
        raise UsageError("valuation vector matches no stratum below lambda")
    return mu
