"""Combinatorics of the extended nilpotent cone and arc-space strata.

The nilpotent cone is stratified by pairs (J, w) where J is a set of simple
roots, w runs over minimal-length double-coset representatives for the
parabolic on the complement of J, and every simple root of J must appear in
w.  Dimensions are exact integers; the top strata are detected and checked
against the Coxeter-element count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import multiplicity, rootdata, weyl
from .errors import InvariantViolation, UsageError
from .rootdata import Coweight, RootDatum


@dataclass(frozen=True)
class NilconeStratum:
    j: frozenset[int]
    w: weyl.WeylElement
    dim: int
    is_top: bool


def levi_dimension(rd: RootDatum, subset: frozenset[int]) -> int:
    """Dimension of the standard Levi on the given simple roots."""
    count = sum(
        1 for root in rd.positive_roots
        if all(root[i] == 0 for i in range(rd.rank) if i not in subset)
    )
    return 2 * count + rd.rank


def nilcone_strata(rd: RootDatum) -> tuple[NilconeStratum, ...]:
    """All strata (J, w) with w a minimal double-coset representative for
    the complement of J and Supp(w) containing J."""
    r = rd.rank
    top_dim = rd.dim_g - r
    out = []
    for size in range(r + 1):
        for j in combinations(range(r), size):
            j = frozenset(j)
            jc = frozenset(range(r)) - j
            dim_l = levi_dimension(rd, jc)
            for w in weyl.min_double_coset_reps(rd, jc, jc):
                if not j <= w.support:
                    continue
                dim = rd.dim_g - dim_l - w.length + len(j)
                out.append(NilconeStratum(j=j, w=w, dim=dim, is_top=dim == top_dim))
    out.sort(key=lambda s: (sorted(s.j), s.w.word))
    return tuple(out)


@dataclass(frozen=True)
class NilconeSummary:
    dim: int
    top_count: int
    strata_count: int


def nilcone_report(rd: RootDatum, strata) -> NilconeSummary:
    """Summary of the strata from `nilcone_strata(rd)`, with the structural
    identities checked: the maximum stratum dimension is dim G - r, attained
    exactly at (Delta, Coxeter)."""
    top_dim = rd.dim_g - rd.rank
    max_dim = max(s.dim for s in strata)
    if max_dim != top_dim:
        raise InvariantViolation(
            f"max stratum dimension {max_dim} != dim G - r = {top_dim}"
        )
    top = [s for s in strata if s.dim == top_dim]
    coxeter = {w.key for w in weyl.coxeter_elements(rd)}
    top_ws = {s.w.key for s in top}
    full = frozenset(range(rd.rank))
    if any(s.j != full for s in top) or top_ws != coxeter:
        raise InvariantViolation("top strata are not exactly (Delta, Coxeter)")
    if len(top) != len(coxeter):
        raise InvariantViolation("top stratum count differs from the Coxeter count")
    for s in strata:
        if not s.is_top and s.dim >= top_dim:
            raise InvariantViolation("non-top stratum reaches the top dimension")
    return NilconeSummary(dim=max_dim, top_count=len(top), strata_count=len(strata))


def arc_strata_index(rd: RootDatum, lam) -> tuple[Coweight, ...]:
    """Index set of the arc-space Cartan strata: dominant mu <= lam."""
    lam = rootdata.coweight(lam)
    if not rootdata.is_dominant(rd, lam) or not rootdata.is_integral(rd, lam):
        raise UsageError("lambda must be dominant and in the isogeny lattice")
    return multiplicity.dominant_below(rd, lam)


def b_constant(rd: RootDatum, lam) -> int:
    """b(lambda) = max over i of <lambda, omega_i - w0(omega_i)>."""
    lam = rootdata.coweight(lam)
    if not rootdata.is_dominant(rd, lam) or not rootdata.is_integral(rd, lam):
        raise UsageError("lambda must be dominant and in the isogeny lattice")
    best = max(lam[i] + lam[rd.iota[i]] for i in range(rd.rank))
    if best < 0 or best.denominator != 1:
        raise InvariantViolation(f"b(lambda) = {best} is not a nonnegative integer")
    return int(best)
