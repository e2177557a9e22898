"""Dimension and component-count calculator for a class/coweight pair.

Everything here composes the other modules: nonemptiness from the fundamental-group
class and Newton point, dimension from the discriminant valuation and the
split-rank defect, component predictions from weight multiplicities of the
dual group, and the Coxeter-count bound for regular-locus orbits.  `report`
is the only place that puts these together: mu* and m_{lambda,mu*} are
computed there and nowhere else, for `dim` and `components` alike.

The approximations mu* (minimal above the Newton point) and Chen-Zhu
(maximal below it) compare scaled integers: the candidates are integer
tuples over one denominator, and ``rootdata._extremes`` confirms the lowest
(highest) one by height against every other in one pass, falling back to the
pairwise filter only to list a tie.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from operator import le

from . import conjugacy, multiplicity, rootdata, weyl
from .conjugacy import ClassDatum
from .errors import EmptyVarietyError, InvariantViolation, UniquenessError, UsageError
from .rootdata import Coweight, RootDatum


def _check_lambda(rd: RootDatum, lam) -> Coweight:
    lam = rootdata.coweight(lam)
    if not rootdata.is_dominant(rd, lam):
        raise UsageError("lambda must be dominant")
    if not rootdata.is_integral(rd, lam):
        raise UsageError("lambda is not in the isogeny lattice")
    return lam


def nonempty(cd: ClassDatum, lam) -> bool:
    """Fundamental-group class match plus Newton point dominated by lambda."""
    lam = _check_lambda(cd.rd, lam)
    grp = rootdata.fundamental_group(cd.rd)
    if grp.project(lam) != cd.kappa:
        return False
    return rootdata.leq_q(cd.rd, conjugacy.newton_point(cd), lam)


def dimension(cd: ClassDatum, lam) -> int:
    """<rho, lambda> + (d - c)/2; asserted to be a nonnegative integer."""
    lam = _check_lambda(cd.rd, lam)
    if not nonempty(cd, lam):
        raise EmptyVarietyError("variety is empty for this class and lambda")
    d = conjugacy.disc_valuation(cd)
    c = conjugacy.c_invariant(cd)
    dim = rootdata.rho_pair(cd.rd, lam) + Fraction(d - c, 2)
    if Fraction(dim).denominator != 1:
        raise InvariantViolation(f"dimension {dim} is not an integer")
    if dim < 0:
        raise InvariantViolation(f"dimension {dim} is negative on a nonempty variety")
    return int(dim)


def unramified_dimension(rd: RootDatum, mu, residual, lam):
    """Dimension and orbit count for a split class with integral Newton
    point mu: <rho, lambda - mu> + r(gamma), with m_{lambda,mu} orbits."""
    mu = rootdata.coweight(mu)
    lam = _check_lambda(rd, lam)
    if not (rootdata.is_dominant(rd, mu) and rootdata.is_integral(rd, mu)):
        raise UsageError("mu must be dominant and in the isogeny lattice")
    grp = rootdata.fundamental_group(rd)
    cd = conjugacy.split_class(rd, mu, residual, grp.project(mu))
    if not nonempty(cd, lam):
        raise EmptyVarietyError("variety is empty for this class and lambda")
    dim_a = dimension(cd, lam)
    r_gamma = conjugacy.r_invariant(cd)
    dim_b = rootdata.rho_pair(rd, rootdata.sub(lam, mu)) + r_gamma
    if dim_a != dim_b:
        raise InvariantViolation(
            f"dimension formulas disagree: {dim_a} vs <rho,lam-mu>+r = {dim_b}"
        )
    return dim_a, multiplicity.multiplicity_freudenthal(rd, lam, mu)


def best_integral_approx(rd: RootDatum, nu, lam) -> Coweight:
    """The unique minimal dominant lattice coweight mu with nu <= mu <= lam.

    Uniqueness is asserted, not assumed: a tie raises UniquenessError.
    """
    nu = rootdata.coweight(nu)
    lam = _check_lambda(rd, lam)
    if not rootdata.is_dominant(rd, nu):
        raise UsageError("nu must be dominant")
    if not rootdata.leq_q(rd, nu, lam):
        raise UsageError("nu must be dominated by lambda")
    return _best_integral_approx(rd, nu, lam)


def _best_integral_approx(rd: RootDatum, nu: Coweight, lam: Coweight) -> Coweight:
    """``best_integral_approx`` for a dominant nu <= lam, lam dominant and in
    the lattice, unchecked.

    With the interval scaled by D, mu >= nu exactly when D mu >= ceil(D nu)
    coordinatewise, since D mu is an integer tuple."""
    d, interval = multiplicity._interval(rd, lam)
    dn, n = rootdata._scale(nu)
    low = tuple(-(-x * d // dn) for x in n)  # ceil(D nu)
    candidates = [mu for mu in interval if all(map(le, low, mu))]
    if not candidates:
        raise InvariantViolation(f"lambda {lam} is not a candidate above {nu}")
    minimal = rootdata._extremes(candidates)
    if len(minimal) != 1:
        minimal = sorted(interval[mu] for mu in minimal)
        raise UniquenessError(
            f"minimal dominant approximations of {nu} below {lam} are not unique: {minimal}"
        )
    return interval[minimal[0]]


def chen_zhu_approx(rd: RootDatum, nu):
    """Maximal dominant lattice coweights dominated by nu (report-only).

    Returns a sorted tuple; empty when no lattice point sits under nu.  The
    grid k / q has k_i <= floor(q nu_i), so each of its points lies below nu;
    dominance and lattice membership are tested on k itself.
    """
    nu = rootdata.coweight(nu)
    if not rootdata.is_dominant(rd, nu):
        raise UsageError("nu must be dominant")
    q = max(rootdata.fundamental_group(rd).invariant_factors, default=1)
    sizes = [int(x * q) + 1 for x in nu]
    rootdata.guard_grid_size(prod(sizes), "the Chen-Zhu grid")
    candidates = [k for k in product(*map(range, sizes))
                  if rootdata.is_dominant(rd, k) and rootdata._is_integral_ints(rd, q, k)]
    maximal = rootdata._extremes(candidates, highest=True)
    return tuple(sorted(tuple(Fraction(x, q) for x in k) for k in maximal))


def regular_bound_exact(rd: RootDatum, lam, mu_star) -> bool:
    """Exactness condition: lambda interior-dominant and lambda - mu*
    interior to the positive coroot cone."""
    lam = rootdata.coweight(lam)
    mu_star = rootdata.coweight(mu_star)
    if not all(p > 0 for p in rootdata.simple_pairings(rd, lam)):
        return False
    return all(x > 0 for x in rootdata.sub(lam, mu_star))


def extended_disc_valuation(cd: ClassDatum, lam) -> Fraction:
    """d_+ = <2 rho, lambda> + d(gamma); nonnegative whenever the variety is
    nonempty, and zero exactly in the split rigid case nu = lambda."""
    lam = _check_lambda(cd.rd, lam)
    if not nonempty(cd, lam):
        raise EmptyVarietyError("variety is empty for this class and lambda")
    d_plus = 2 * rootdata.rho_pair(cd.rd, lam) + conjugacy.disc_valuation(cd)
    if d_plus < 0:
        raise InvariantViolation(f"d_+ = {d_plus} is negative on a nonempty variety")
    if d_plus == 0:
        problems = []
        if not conjugacy.is_split(cd):
            problems.append("class is not split")
        if conjugacy.newton_point(cd) != lam:
            problems.append("Newton point differs from lambda")
        if dimension(cd, lam) != 0:
            problems.append("dimension is nonzero")
        if problems:
            raise InvariantViolation("d_+ = 0 but " + "; ".join(problems))
    return Fraction(d_plus)


# ---------------------------------------------------------------------------
# full report


class KVReport(rootdata.Record):
    __slots__ = _fields = ("nonempty", "newton", "d", "c", "regular_orbit_bound",
                           "dimension", "mu_star", "predicted_orbits",
                           "regular_bound_exact", "d_plus", "chen_zhu_mu")

    def __init__(self, nonempty: bool, newton: Coweight, d: int, c: int,
                 regular_orbit_bound: int, dimension: int | None = None,
                 mu_star: Coweight | None = None, predicted_orbits: int | None = None,
                 regular_bound_exact: bool = False, d_plus: Fraction | None = None,
                 chen_zhu_mu: tuple[Coweight, ...] = ()):
        self.nonempty = nonempty
        self.newton = newton
        self.d = d
        self.c = c
        self.regular_orbit_bound = regular_orbit_bound
        self.dimension = dimension
        self.mu_star = mu_star
        self.predicted_orbits = predicted_orbits
        self.regular_bound_exact = regular_bound_exact
        self.d_plus = d_plus
        self.chen_zhu_mu = chen_zhu_mu

    def to_json(self) -> dict:
        def cw(v):
            return None if v is None else [str(x) for x in v]

        return {
            "nonempty": self.nonempty,
            "newton": cw(self.newton),
            "d": self.d,
            "c": self.c,
            "regular_orbit_bound": self.regular_orbit_bound,
            "dimension": self.dimension,
            "mu_star": cw(self.mu_star),
            "predicted_orbits": self.predicted_orbits,
            "regular_bound_exact": self.regular_bound_exact,
            "d_plus": None if self.d_plus is None else str(self.d_plus),
            "chen_zhu_mu": [cw(v) for v in self.chen_zhu_mu],
        }


def report(cd: ClassDatum, lam, chen_zhu: bool = True) -> KVReport:
    """The one composition of the class-report quantities, for `dim` and
    `components`.  ``chen_zhu=False`` leaves ``chen_zhu_mu`` empty and never
    builds the Chen-Zhu grid, which `components` does not print."""
    lam = _check_lambda(cd.rd, lam)
    rd = cd.rd
    newton = conjugacy.newton_point(cd)
    d = conjugacy.disc_valuation(cd)
    c = conjugacy.c_invariant(cd)
    bound = weyl.coxeter_count(rd)
    if not nonempty(cd, lam):
        return KVReport(nonempty=False, newton=newton, d=int(d), c=c,
                        regular_orbit_bound=bound)
    mu_star = best_integral_approx(rd, newton, lam)
    return KVReport(
        nonempty=True,
        newton=newton,
        d=int(d),
        c=c,
        regular_orbit_bound=bound,
        dimension=dimension(cd, lam),
        mu_star=mu_star,
        predicted_orbits=multiplicity.multiplicity_freudenthal(rd, lam, mu_star),
        regular_bound_exact=regular_bound_exact(rd, lam, mu_star),
        d_plus=extended_disc_valuation(cd, lam),
        chen_zhu_mu=chen_zhu_approx(rd, newton) if chen_zhu else (),
    )
