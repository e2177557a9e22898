"""Weyl group enumeration: lengths, supports, Coxeter elements, cosets.

An element w is encoded by w(2 rho_check), the image of the regular integer
coweight 2 rho_check in simple-coroot coordinates.  That vector has a trivial
stabilizer, so its image decides equality.  Each element also stores its
lexicographically first reduced word.

The group is built once per datum as a breadth-first orbit table of
2 rho_check (`enumerate_group`); s_i rewrites one coordinate
(`rootdata.reflect`).  Descents are read off the same image:
<alpha_i, w(2 rho_check)> < 0 exactly when s_i w is shorter than w (a left
descent), and the right descents of w are the left descents of w^-1.  The
minimal representatives of W_J1 \\ W / W_J2 are the elements with no left
descent in J1 and no right descent in J2 (Bjorner-Brenti, Combinatorics of
Coxeter Groups, section 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations

from . import linalg, rootdata
from .errors import InvariantViolation, SizeGuardError, UsageError
from .rootdata import WEYL_ORDER_CAP, Coweight, RootDatum

Matrix = tuple[tuple[int, ...], ...]


def _two_rho_check(rd: RootDatum) -> tuple[int, ...]:
    return tuple(int(2 * x) for x in rd.rho_check)


def _apply_word(rd: RootDatum, word, v):
    """Apply the word to v, letters in application order (left to right)."""
    for i in word:
        v = rootdata.reflect(rd, i, v)
    return v


def _descents(rd: RootDatum, key) -> frozenset[int]:
    return frozenset(i for i, p in enumerate(rootdata.simple_pairings(rd, key)) if p < 0)


def _word_matrix(rd: RootDatum, word) -> Matrix:
    """Matrix of the word acting on the coweights of rd."""
    r = rd.rank
    cols = [_apply_word(rd, word, tuple(int(i == j) for i in range(r))) for j in range(r)]
    return tuple(zip(*cols))


@dataclass(frozen=True)
class WeylElement:
    rd: RootDatum
    key: tuple[int, ...]  # w(2 rho_check), simple-coroot coordinates
    word: tuple[int, ...]  # a reduced word, application order left-to-right

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.word)

    @cached_property
    def left_descents(self) -> frozenset[int]:
        """The i with s_i w shorter than w: <alpha_i, w(2 rho_check)> < 0."""
        return _descents(self.rd, self.key)

    @cached_property
    def right_descents(self) -> frozenset[int]:
        """The i with w s_i shorter than w: the left descents of w^-1."""
        inverse_key = _apply_word(self.rd, reversed(self.word), _two_rho_check(self.rd))
        return _descents(self.rd, inverse_key)

    @cached_property
    def action(self) -> Matrix:
        """Matrix of w on coweights (simple-coroot coordinates)."""
        return _word_matrix(self.rd, self.word)

    @cached_property
    def root_action(self) -> Matrix:
        """Matrix of w on roots (simple-root coordinates): the dual datum's
        Cartan matrix is the transpose, so its coweights are our roots."""
        return _word_matrix(self.rd.dual(), self.word)

    def apply(self, v: Coweight) -> Coweight:
        r = self.rd.rank
        return tuple(sum(self.action[i][j] * v[j] for j in range(r)) for i in range(r))

    def apply_root(self, root) -> tuple[int, ...]:
        m = self.root_action
        r = self.rd.rank
        return tuple(sum(m[i][j] * root[j] for j in range(r)) for i in range(r))

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
def _by_key(rd: RootDatum) -> dict[tuple[int, ...], WeylElement]:
    return {e.key: e for e in enumerate_group(rd)}


def word_to_element(rd: RootDatum, word) -> WeylElement:
    """Element with the given word (not necessarily reduced); the stored
    reduced word is recovered from the enumeration table."""
    word = tuple(int(i) for i in word)
    for i in word:
        if not 0 <= i < rd.rank:
            raise UsageError(f"reflection index {i} out of range for rank {rd.rank}")
    return _by_key(rd)[_apply_word(rd, word, _two_rho_check(rd))]


def longest_element(rd: RootDatum) -> WeylElement:
    return enumerate_group(rd)[-1]


@lru_cache(maxsize=None)
def coxeter_elements(rd: RootDatum) -> tuple[WeylElement, ...]:
    """Products of all simple reflections in every order, deduplicated by
    their image of 2 rho_check (no group table needed)."""
    seen = {}
    origin = _two_rho_check(rd)
    for perm in permutations(range(rd.rank)):
        key = _apply_word(rd, perm, origin)
        if key not in seen:
            seen[key] = WeylElement(rd, key, perm)
    return tuple(sorted(seen.values(), key=lambda e: e.word))


def coxeter_count(rd: RootDatum) -> int:
    """Predicted |Cox(W,S)|: product of 2^(rank-1) over the simple factors."""
    out = 1
    for _, n in rd.label:
        out *= 2 ** (n - 1)
    return out


def parabolic_subgroup(rd: RootDatum, gens: frozenset[int]) -> tuple[WeylElement, ...]:
    """The standard parabolic subgroup W_J: the elements with support in J."""
    gens = frozenset(gens)
    return tuple(e for e in enumerate_group(rd) if e.support <= gens)


def min_double_coset_reps(rd: RootDatum, j1, j2) -> tuple[WeylElement, ...]:
    """Minimal-length representatives of the double cosets W_J1 \\ W / W_J2:
    the elements with no left descent in J1 and no right descent in J2."""
    j1 = frozenset(int(i) for i in j1)
    j2 = frozenset(int(i) for i in j2)
    for j in (j1, j2):
        if any(not 0 <= i < rd.rank for i in j):
            raise UsageError("parabolic index out of range")
    return tuple(w for w in enumerate_group(rd)
                 if not (j1 & w.left_descents or j2 & w.right_descents))


def fixed_space_dim(w: WeylElement) -> int:
    r = w.rd.rank
    m = tuple(
        tuple(Fraction(w.action[i][j] - int(i == j)) for j in range(r)) for i in range(r)
    )
    return r - linalg.rank(m)


def inversions(w: WeylElement) -> int:
    """Number of positive roots sent to negative roots by w."""
    count = 0
    for root in w.rd.positive_roots:
        image = w.apply_root(root)
        if all(x <= 0 for x in image) and any(x < 0 for x in image):
            count += 1
    return count
