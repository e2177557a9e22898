"""Combinatorics of the extended nilpotent cone.

The nilpotent cone is stratified by pairs (J, w) where J is a set of simple
roots, w runs over minimal-length double-coset representatives for the
parabolic on the complement of J, and every simple root of J must appear in
w.  Dimensions are exact integers, and the strata come in print order: J as
a sorted tuple, then w by word.  The top strata, of dimension dim G - r, are
checked against the Coxeter elements.
"""

from __future__ import annotations

from itertools import chain, combinations

from . import rootdata, weyl
from .errors import InvariantViolation
from .rootdata import RootDatum


class NilconeStratum(rootdata.Record):
    __slots__ = _fields = ("j", "w", "dim")

    def __init__(self, j: frozenset[int], w: weyl.WeylElement, dim: int):
        self.j = j
        self.w = w
        self.dim = dim


def levi_dimension(rd: RootDatum, subset: frozenset[int]) -> int:
    """Dimension of the standard Levi on the given simple roots."""
    return 2 * len(rootdata.levi_roots(rd, subset)) + rd.rank


def nilcone_strata(rd: RootDatum) -> tuple[NilconeStratum, ...]:
    """All strata (J, w) with w a minimal double-coset representative for
    the complement of J and Supp(w) containing J, sorted by (sorted J, word)."""
    r = rd.rank
    out = []
    for j in sorted(chain.from_iterable(combinations(range(r), k) for k in range(r + 1))):
        j = frozenset(j)
        jc = frozenset(range(r)) - j
        base = rd.dim_g - levi_dimension(rd, jc) + len(j)
        reps = sorted((w for w in weyl.min_double_coset_reps(rd, jc, jc) if j <= w.support),
                      key=lambda w: w.word)
        out.extend(NilconeStratum(j, w, base - w.length) for w in reps)
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
    return NilconeSummary(dim=max_dim, top_count=len(top), strata_count=len(strata))
