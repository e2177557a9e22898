"""Weyl group enumeration, Coxeter elements, cosets, fixed spaces.

The brute-force constructions below (parabolic closure, covering-set double
cosets, coset sizes) multiply action matrices with `linalg.mat_mul`.  They
are the oracles for the descent-mask filters of `weyl`, which never multiply
matrices.  The masks themselves are checked against descents read off
`Fraction` pairings (`descent_oracle`).
"""

from fractions import Fraction
from itertools import combinations

import pytest

from kvcalc import linalg, rootdata, weyl
from kvcalc.errors import SizeGuardError, UsageError


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def subsets(n):
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]


def parabolic_actions(datum, gens):
    """Action matrices of W_J, by closing the generators under products."""
    ident = weyl.identity_element(datum).action
    seen = {ident}
    frontier = [ident]
    gens = [weyl.word_to_element(datum, [i]).action for i in sorted(gens)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = linalg.mat_mul(g, m)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def descent_oracle(datum, w):
    """(left, right) descent bitmasks of w from pairings: i is a left descent
    when <alpha_i, w(2 rho_check)> < 0, and a right descent when it is a left
    descent of w^-1, whose image of 2 rho_check is the reversed word applied
    to 2 rho_check."""
    def mask(v):
        return sum(1 << i for i, p in enumerate(rootdata.simple_pairings(datum, v)) if p < 0)

    inverse = tuple(2 * x for x in datum.rho_check)
    for i in reversed(w.word):
        inverse = rootdata.reflect(datum, i, inverse)
    return mask(tuple(Fraction(x) for x in w.key)), mask(inverse)


def double_coset(left, w, right):
    return {linalg.mat_mul(linalg.mat_mul(a, w.action), b) for a in left for b in right}


def covering_reps(datum, j1, j2):
    """Minimal double-coset representatives by covering: scan W by (length,
    word) and keep each element no earlier double coset contains."""
    left = parabolic_actions(datum, j1)
    right = parabolic_actions(datum, j2)
    covered = set()
    reps = []
    for w in sorted(weyl.enumerate_group(datum), key=lambda e: (e.length, e.word)):
        if w.action in covered:
            continue
        reps.append(w)
        covered |= double_coset(left, w, right)
    return reps


def double_coset_size(datum, j1, j2, w):
    return len(double_coset(parabolic_actions(datum, j1), w, parabolic_actions(datum, j2)))


def all_reduced_words(datum, element):
    """Every reduced word of an element: extend words breadth-first from the
    identity, keeping only length-increasing extensions (small groups only)."""
    if element.length == 0:
        return {()}
    frontier = {(): weyl.identity_element(datum)}
    for _ in range(element.length):
        nxt = {}
        for word, w in frontier.items():
            for i in range(datum.rank):
                cand = weyl.word_to_element(datum, word + (i,))
                if cand.length == len(word) + 1:
                    nxt[word + (i,)] = cand
        frontier = nxt
    return {word for word, w in frontier.items() if w.action == element.action}


class TestEnumeration:
    @pytest.mark.parametrize("label,order", [("A1", 2), ("A2", 6), ("B2", 8),
                                             ("G2", 12), ("A3", 24), ("A1xA1", 4)])
    def test_group_orders(self, label, order):
        assert len(weyl.enumerate_group(rd(label))) == order

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                       "B5", "C3", "D4", "D5", "F4", "G2"])
    def test_group_orders_match_sympy(self, label):
        from sympy.liealgebras.weyl_group import WeylGroup

        assert len(weyl.enumerate_group(rd(label))) == WeylGroup(label).group_order()

    def test_a2_length_multiset(self):
        lengths = sorted(e.length for e in weyl.enumerate_group(rd("A2")))
        assert lengths == [0, 1, 1, 2, 2, 3]

    def test_identity_first(self):
        group = weyl.enumerate_group(rd("B2"))
        assert group[0].is_identity()

    def test_length_equals_inversions(self):
        # oracle: the positive roots that w sends to negative roots
        for label in ["A2", "B2", "G2"]:
            datum = rd(label)
            for e in weyl.enumerate_group(datum):
                images = [e.apply_root(root) for root in datum.positive_roots]
                assert e.length == sum(
                    1 for x in images if all(c <= 0 for c in x) and any(c < 0 for c in x)
                )

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            weyl.enumerate_group(rd("B6xB5"))

    def test_longest_element(self):
        for label in ["A2", "B2", "G2", "A3"]:
            datum = rd(label)
            w0 = weyl.longest_element(datum)
            assert w0.length == datum.num_positive_roots
            assert linalg.mat_mul(w0.action, w0.action) == weyl.identity_element(datum).action

    def test_iota_matches_w0(self):
        for label in ["A2", "A3", "D4", "G2", "B3"]:
            datum = rd(label)
            assert tuple(datum.iota[datum.iota[i]] for i in range(datum.rank)) == tuple(
                range(datum.rank)
            )
            # -w0 sends the simple coroot i to the simple coroot iota(i)
            w0 = weyl.longest_element(datum).action
            for i in range(datum.rank):
                assert tuple(-w0[j][i] for j in range(datum.rank)) == tuple(
                    int(j == datum.iota[i]) for j in range(datum.rank)
                )


class TestCoxeterElements:
    def test_a1_single(self):
        elements = weyl.coxeter_elements(rd("A1"))
        assert len(elements) == 1
        assert elements[0].word == (0,)

    def test_a2_two(self):
        assert len(weyl.coxeter_elements(rd("A2"))) == 2

    def test_product_count_multiplies(self):
        assert len(weyl.coxeter_elements(rd("A1xA1"))) == 1
        assert len(weyl.coxeter_elements(rd("A2xA2"))) == 4

    def test_full_support_and_length(self):
        for label in ["A3", "B2", "G2"]:
            datum = rd(label)
            for e in weyl.coxeter_elements(datum):
                assert e.length == datum.rank
                assert e.support == frozenset(range(datum.rank))

    @pytest.mark.parametrize("label,h", [("A1", 2), ("A2", 3), ("A3", 4),
                                         ("B2", 4), ("G2", 6)])
    def test_coxeter_number(self, label, h):
        for e in weyl.coxeter_elements(rd(label)):
            assert e.order() == h


class TestDoubleCosets:
    def test_full_parabolic_single_coset(self):
        datum = rd("A2")
        reps = weyl.min_double_coset_reps(datum, {0, 1}, {0, 1})
        assert len(reps) == 1 and reps[0].is_identity()

    def test_empty_parabolic_all_elements(self):
        datum = rd("A2")
        reps = weyl.min_double_coset_reps(datum, set(), set())
        assert len(reps) == 6

    def test_a2_proper_parabolic_reps(self):
        # exhaustive scan oracle: group the 6 elements into double cosets.
        # W_{s1} \ W / W_{s1} in S3 has cosets of sizes 2 and 4.
        datum = rd("A2")
        sub = parabolic_actions(datum, {0})
        cosets = {frozenset(double_coset(sub, w, sub)) for w in weyl.enumerate_group(datum)}
        assert sorted(len(c) for c in cosets) == [2, 4]
        reps = weyl.min_double_coset_reps(datum, {0}, {0})
        assert len(reps) == len(cosets) == 2

    def test_partition_covers_group(self):
        for label, j1, j2 in [("B2", {0}, {1}), ("A3", {0, 2}, {1}), ("G2", {1}, {1})]:
            datum = rd(label)
            reps = weyl.min_double_coset_reps(datum, j1, j2)
            total = sum(double_coset_size(datum, j1, j2, w) for w in reps)
            assert total == len(weyl.enumerate_group(datum))

    def test_reps_are_minimal(self):
        datum = rd("B2")
        sub = parabolic_actions(datum, {0})
        table = {e.action: e for e in weyl.enumerate_group(datum)}
        for w in weyl.min_double_coset_reps(datum, {0}, {0}):
            for a in sub:
                for b in sub:
                    other = table[linalg.mat_mul(linalg.mat_mul(a, w.action), b)]
                    assert w.length <= other.length

    @pytest.mark.parametrize("label", ["A3", "B3", "G2", "A1xB2"])
    def test_descent_filter_matches_covering_oracle(self, label):
        datum = rd(label)
        for j1 in subsets(datum.rank):
            for j2 in subsets(datum.rank):
                reps = weyl.min_double_coset_reps(datum, j1, j2)
                assert list(reps) == covering_reps(datum, j1, j2), (j1, j2)

    @pytest.mark.parametrize("label", ["A3", "B3", "G2", "A1xB2"])
    def test_parabolic_matches_closure(self, label):
        # W_J is the set of elements with support in J
        datum = rd(label)
        for j in subsets(datum.rank):
            sub = [e for e in weyl.enumerate_group(datum) if e.support <= j]
            assert {e.action for e in sub} == parabolic_actions(datum, j)
            assert len(sub) == len(parabolic_actions(datum, j))

    def test_index_out_of_range(self):
        for j1, j2 in [({2}, set()), (set(), {-1})]:
            with pytest.raises(UsageError):
                weyl.min_double_coset_reps(rd("A2"), j1, j2)


class TestDescentMasks:
    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                       "C3", "C4", "D4", "D5", "G2", "F4", "A1xA1",
                                       "A1xB2", "A2xG2"])
    def test_masks_match_pairing_oracle(self, label):
        datum = rd(label)
        group = weyl.enumerate_group(datum)
        assert len(group) <= 2000
        left, right = weyl._descent_masks(datum)
        assert list(zip(left, right)) == [descent_oracle(datum, w) for w in group]


class TestSupportAndFixedSpace:
    def test_support_independent_of_reduced_word(self):
        for label in ["A2", "B2", "A3"]:
            datum = rd(label)
            for e in weyl.enumerate_group(datum):
                if e.length > 4:
                    continue
                supports = {frozenset(word) for word in all_reduced_words(datum, e)}
                assert supports == {e.support}

    def test_identity_fixes_everything(self):
        datum = rd("A3")
        assert weyl.fixed_space_dim(weyl.identity_element(datum)) == 3

    def test_a1_reflection(self):
        datum = rd("A1")
        s = weyl.word_to_element(datum, [0])
        assert weyl.fixed_space_dim(s) == 0

    def test_a2_coxeter_elliptic(self):
        datum = rd("A2")
        for e in weyl.coxeter_elements(datum):
            assert weyl.fixed_space_dim(e) == 0

    def test_b2_reflection_fixes_line(self):
        datum = rd("B2")
        s = weyl.word_to_element(datum, [0])
        assert weyl.fixed_space_dim(s) == 1
