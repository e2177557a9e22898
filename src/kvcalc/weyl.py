"""Weyl group enumeration: lengths, supports, Coxeter elements, cosets.

An element w is (rd, key, word), its only encoding.  The key is w(2 rho_check)
in simple-coroot coordinates; 2 rho_check has a trivial stabilizer, so the key
decides equality.  The word is the lexicographically first reduced word.  w
acts on coweights, and on roots through the dual datum, by walking its word
(`_apply_word`); it keeps no matrix, and the identity acts with no work.

The group is built once per datum as a breadth-first orbit table of
2 rho_check (`enumerate_group`); s_i rewrites one coordinate
(`rootdata.reflect`).  One key -> index map per datum (`_index`) finds an
element in that table, for `word_to_element` and for the descent masks.

The descents of every element are two integer bitmasks, built once per
datum on first use (`_descent_masks`).  Bit i of the left mask is set when
s_i w, looked up in the map, is shorter than w; these lookups are the
left-multiplication rows of the table.  The right mask of w is the left mask
of w^-1, found by walking the reversed word of w through those rows from the
identity, with integer lookups only.  The minimal representatives of
W_J1 \\ W / W_J2 are the elements with no left descent in J1 and no right
descent in J2 (Bjorner-Brenti, Combinatorics of Coxeter Groups, section
2.4): a two-mask test.  `enumerate_group`, `identity_element` and
`coxeter_elements` build neither map nor masks.

The Coxeter elements are enumerated by orientation of the Coxeter graph, one
word per orientation (2^edges of them), not by trying all r! orderings of
the simple reflections.

`vinberg.nilcone_strata` asks for the representatives one J at a time.  An
enumeration driven by the masks (D_L and D_R inside J, J inside the support)
would visit only the strata, but perfbench's `nilcone` workload counts the
calls of `min_double_coset_reps`, so the per-J loop stays until that
workload is re-recorded.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub

from . import linalg, rootdata
from .errors import InvariantViolation, SizeGuardError, UsageError
from .rootdata import WEYL_ORDER_CAP, Coweight, RootDatum


@lru_cache(maxsize=None)
def _two_rho_check(rd: RootDatum) -> tuple[int, ...]:
    return tuple(int(2 * x) for x in rd.rho_check)


def _apply_word(rd: RootDatum, word, v):
    """Apply the word to v, letters in application order (left to right)."""
    for i in word:
        v = rootdata.reflect(rd, i, v)
    return v


class WeylElement(rootdata.Record):
    __slots__ = _fields = ("rd", "key", "word")

    def __init__(self, rd: RootDatum, key: tuple[int, ...], word: tuple[int, ...]):
        self.rd = rd
        self.key = key  # w(2 rho_check), simple-coroot coordinates
        self.word = word  # a reduced word, application order left-to-right

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.word)

    def apply(self, v: Coweight) -> Coweight:
        return _apply_word(self.rd, self.word, v)

    def apply_root(self, root) -> tuple[int, ...]:
        """w on a root (simple-root coordinates): the dual datum's Cartan
        matrix is the transpose, so its coweights are our roots."""
        return _apply_word(self.rd.dual(), self.word, tuple(root))

    def order(self) -> int:
        origin = _two_rho_check(self.rd)
        v = self.key
        k = 1
        while v != origin:
            v = self.apply(v)
            k += 1
            if k > self.rd.weyl_order:
                raise InvariantViolation(f"element {self.word} has order above |W|")
        return k

    def is_identity(self) -> bool:
        return self.key == _two_rho_check(self.rd)


def identity_element(rd: RootDatum) -> WeylElement:
    return WeylElement(rd, _two_rho_check(rd), ())


@lru_cache(maxsize=None)
def enumerate_group(rd: RootDatum) -> tuple[WeylElement, ...]:
    """Full Weyl group as the orbit table of 2 rho_check: breadth-first from
    the identity, by length, then by word."""
    if rd.weyl_order > WEYL_ORDER_CAP:
        raise SizeGuardError(
            f"|W| = {rd.weyl_order} exceeds the enumeration cap {WEYL_ORDER_CAP}"
        )
    ident = identity_element(rd)
    seen = {ident.key}
    out = [ident]
    frontier = [ident]
    while frontier:
        # The frontier is sorted by word, so each level is found in word
        # order and keeps the lexicographically first reduced words.
        nxt = []
        for w in frontier:
            for i in range(rd.rank):
                key = rootdata.reflect(rd, i, w.key)
                if key not in seen:
                    seen.add(key)
                    nxt.append(WeylElement(rd, key, w.word + (i,)))
        out.extend(nxt)
        frontier = nxt
    if len(out) != rd.weyl_order:
        raise InvariantViolation(
            f"orbit of 2 rho_check has {len(out)} points, |W| = {rd.weyl_order}"
        )
    return tuple(out)


@lru_cache(maxsize=None)
def _index(rd: RootDatum) -> dict[tuple[int, ...], int]:
    """Position of each element of `enumerate_group(rd)`, by key."""
    return {e.key: n for n, e in enumerate(enumerate_group(rd))}


@lru_cache(maxsize=None)
def _descent_masks(rd: RootDatum) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(left, right): per element of `enumerate_group(rd)`, the bitmask of
    the i with s_i w shorter than w, and that of the i with w s_i shorter."""
    group = enumerate_group(rd)
    index = _index(rd)
    length = [e.length for e in group]
    rows = [[index[rootdata.reflect(rd, i, e.key)] for i in range(rd.rank)] for e in group]
    left = tuple(sum(1 << i for i, m in enumerate(row) if length[m] < length[n])
                 for n, row in enumerate(rows))
    right = []
    for e in group:
        n = 0  # the identity; w^-1 = s_{a_1} ... s_{a_l} for the word a of w
        for i in reversed(e.word):
            n = rows[n][i]
        right.append(left[n])
    return left, tuple(right)


def word_to_element(rd: RootDatum, word) -> WeylElement:
    """Element with the given word (not necessarily reduced); the stored
    reduced word is recovered from the enumeration table."""
    word = tuple(int(i) for i in word)
    for i in word:
        if not 0 <= i < rd.rank:
            raise UsageError(f"reflection index {i} out of range for rank {rd.rank}")
    return enumerate_group(rd)[_index(rd)[_apply_word(rd, word, _two_rho_check(rd))]]


@lru_cache(maxsize=None)
def coxeter_elements(rd: RootDatum) -> tuple[WeylElement, ...]:
    """One product of all simple reflections per orientation of the Coxeter
    graph, written as the orientation's lexicographically least linear
    extension; sorted by word.  Two orderings give the same element exactly
    when they orient every edge alike (Shi, J. Algebraic Combin. 6 (1997)),
    and a Dynkin diagram is a forest, so every orientation occurs."""
    rootdata.guard_grid_size(coxeter_count(rd), "the Coxeter elements")
    r = rd.rank
    edges = [(i, j) for i in range(r) for j in range(i + 1, r) if rd.cartan[i][j]]
    origin = _two_rho_check(rd)
    out = []
    for bits in range(1 << len(edges)):
        before = [0] * r  # bit i of before[j]: s_i comes before s_j
        for n, (i, j) in enumerate(edges):
            if bits >> n & 1:
                before[i] |= 1 << j
            else:
                before[j] |= 1 << i
        word, done = [], 0
        while len(word) < r:
            k = next(k for k in range(r) if not (done >> k & 1 or before[k] & ~done))
            word.append(k)
            done |= 1 << k
        out.append(WeylElement(rd, _apply_word(rd, word, origin), tuple(word)))
    return tuple(sorted(out, key=lambda e: e.word))


def coxeter_count(rd: RootDatum) -> int:
    """Predicted |Cox(W,S)|: product of 2^(rank-1) over the simple factors."""
    out = 1
    for _, n in rd.label:
        out *= 2 ** (n - 1)
    return out


def min_double_coset_reps(rd: RootDatum, j1, j2) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of the double cosets W_J1 \\ W / W_J2:
    the elements with no left descent in J1 and no right descent in J2."""
    j1, j2 = ({int(i) for i in j} for j in (j1, j2))
    if any(not 0 <= i < rd.rank for i in j1 | j2):
        raise UsageError("parabolic index out of range")
    m1, m2 = (sum(1 << i for i in j) for j in (j1, j2))
    left, right = _descent_masks(rd)
    return tuple(w for w, a, b in zip(enumerate_group(rd), left, right)
                 if not (a & m1 or b & m2))


def fixed_space_dim(w: WeylElement) -> int:
    """Dimension of the fixed space of w: the number of zero invariant
    factors of the integer matrix with rows w(e_j) - e_j."""
    r = w.rd.rank
    units = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    d, _, _ = linalg.smith_normal_form(
        [tuple(map(sub, _apply_word(w.rd, w.word, e), e)) for e in units])
    return sum(d[i][i] == 0 for i in range(r))
