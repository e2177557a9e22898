"""Combinatorics of the extended nilpotent cone.

The nilpotent cone is stratified by pairs (J, w) where J is a set of simple
roots, w runs over minimal-length double-coset representatives for the
parabolic on the complement of J, and every simple root of J must appear in
w.  Dimensions are exact integers; the top strata are detected and checked
against the Coxeter-element count.
"""

from __future__ import annotations

from itertools import combinations

from . import rootdata, weyl
from .errors import InvariantViolation
from .rootdata import RootDatum


class NilconeStratum(rootdata.Record):
    __slots__ = _fields = ("j", "w", "dim", "is_top")

    def __init__(self, j: frozenset[int], w: weyl.WeylElement, dim: int, is_top: bool):
        self.j = j
        self.w = w
        self.dim = dim
        self.is_top = is_top


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


class NilconeSummary(rootdata.Record):
    __slots__ = _fields = ("dim", "top_count", "strata_count")

    def __init__(self, dim: int, top_count: int, strata_count: int):
        self.dim = dim
        self.top_count = top_count
        self.strata_count = strata_count


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
