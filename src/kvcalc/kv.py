"""Dimension and component-count calculator for a class/coweight pair.

Everything here composes the other modules: nonemptiness from the fundamental-group
class and Newton point, dimension from the discriminant valuation and the
split-rank defect, component predictions from weight multiplicities of the
dual group, and the Coxeter-count bound for regular-locus orbits.  `report`
is the only place that puts these together, for `dim` and `components` alike:
it checks lambda once, reads the Newton point, d(gamma) and c(gamma) once
each, and computes the dimension, mu*, m_{lambda,mu*} and d_+ from them.

Each public function checks its coweight operands once; the private cores
here and in ``multiplicity`` trust them, so one `dim` report checks lambda once.

The approximations mu* (least above the Newton point, an ascent by
``rootdata._least_above``) and Chen-Zhu (maximal below it) compare scaled
integers.  The Chen-Zhu candidates are integer tuples over one denominator,
and ``rootdata._extremes`` confirms the highest one by height against every
other in one pass, falling back to the pairwise filter only to list a tie.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
from operator import gt

from . import conjugacy, multiplicity, rootdata, weyl
from .conjugacy import ClassDatum
from .errors import InvariantViolation, UsageError
from .rootdata import Coweight, RootDatum


def best_integral_approx(rd: RootDatum, nu, lam) -> Coweight:
    """The unique minimal dominant lattice coweight mu with nu <= mu <= lam:
    the least, as the dominant coweights of lam's pi_1 class are closed under
    the componentwise minimum (``strata.polytope_intersection``)."""
    nu = rootdata.coweight(nu)
    lam = rootdata.check_dominant(rd, lam, "lambda")
    if not rootdata.is_dominant(rd, nu):
        raise UsageError("nu must be dominant")
    if not rootdata.leq_q(rd, nu, lam):
        raise UsageError("nu must be dominated by lambda")
    return _best_integral_approx(rd, nu, lam)


def _best_integral_approx(rd: RootDatum, nu: Coweight, lam: Coweight) -> Coweight:
    """``best_integral_approx`` for a dominant nu <= lam, lam dominant and in
    the lattice, unchecked."""
    mu = rootdata._least_above(rd, lam, nu)
    if mu is None:
        raise InvariantViolation(f"lambda {lam} is not a candidate above {nu}")
    return mu


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
                  if rootdata._dominant(rd, k) and rootdata._is_integral_ints(rd, q, k)]
    maximal = rootdata._extremes(candidates)
    return tuple(sorted(tuple(Fraction(x, q) for x in k) for k in maximal))


def regular_bound_exact(rd: RootDatum, lam, mu_star) -> bool:
    """Exactness condition: lambda interior-dominant and lambda - mu*
    interior to the positive coroot cone."""
    _, n = rootdata._scale(rootdata.coweight(lam) + rootdata.coweight(mu_star))
    lam, mu_star = n[:rd.rank], n[rd.rank:]  # over one denominator D > 0
    return min(rootdata._pairings(rd, lam)) > 0 and all(map(gt, lam, mu_star))


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
        """The fields by name, each Fraction as its string and tuple as a list."""
        def encode(v):
            if isinstance(v, tuple):
                return [encode(x) for x in v]
            return str(v) if isinstance(v, Fraction) else v

        return {f: encode(getattr(self, f)) for f in self._fields}


def report(cd: ClassDatum, lam, chen_zhu: bool = True) -> KVReport:
    """The one composition of the class-report quantities, for `dim` and
    `components`.  ``chen_zhu=False`` leaves ``chen_zhu_mu`` empty and never
    builds the Chen-Zhu grid, which `components` does not print.

    d_+ = <2 rho, lambda> + d(gamma) = 2 dim + c is nonnegative on a nonempty
    variety, and zero exactly in the split rigid case nu = lambda: d_+ = 0
    forces dim = c = 0, and c = 0 makes the twist the identity, so only
    nu = lambda is left to check."""
    rd = cd.rd
    lam = rootdata.check_dominant(rd, lam, "lambda")
    newton = conjugacy.newton_point(cd)
    is_nonempty = (rootdata.fundamental_group(rd).project(lam) == cd.kappa
                   and rootdata.leq_q(rd, newton, lam))
    d = conjugacy.disc_valuation(cd)
    c = cd.c
    bound = weyl.coxeter_count(rd)
    if not is_nonempty:
        return KVReport(nonempty=False, newton=newton, d=int(d), c=c,
                        regular_orbit_bound=bound)
    mu_star = _best_integral_approx(rd, newton, lam)
    rho = rootdata.rho_pair(rd, lam)
    dim = rho + Fraction(d - c, 2)
    if dim.denominator != 1:
        raise InvariantViolation(f"dimension {dim} is not an integer")
    if dim < 0:
        raise InvariantViolation(f"dimension {dim} is negative on a nonempty variety")
    dim = int(dim)
    predicted = multiplicity._weight_system(rd, lam).get(mu_star, 0)
    exact = regular_bound_exact(rd, lam, mu_star)
    d_plus = 2 * rho + d
    if d_plus == 0 and newton != lam:
        raise InvariantViolation("d_+ = 0 but Newton point differs from lambda")
    return KVReport(nonempty=True, newton=newton, d=int(d), c=c, regular_orbit_bound=bound,
                    dimension=dim, mu_star=mu_star, predicted_orbits=predicted,
                    regular_bound_exact=exact, d_plus=Fraction(d_plus),
                    chen_zhu_mu=chen_zhu_approx(rd, newton) if chen_zhu else ())
