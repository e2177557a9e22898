"""Root datum construction, lattice arithmetic, and dominance."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcalc import conjugacy, kv, linalg, multiplicity, rootdata, vinberg, weyl
from kvcalc.errors import UsageError
from oracles import (dual_datum, frac_matrix, integer_inverse, inverse, is_integral, mat_mul,
                     oracle_root_closure, reflect, weyl_dimension)
from test_weyl import A3_MIDDLE_LATTICE


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


# hand-checked positive root lists (simple-root coordinates)
A2_POSITIVE = {(1, 0), (0, 1), (1, 1)}
B2_POSITIVE = {(1, 0), (0, 1), (1, 1), (1, 2)}
G2_POSITIVE = {(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)}


class TestConstruction:
    def test_a1_defining_data(self):
        datum = rd("A1")
        assert datum.rank == 1
        assert datum.num_positive_roots == 1
        assert datum.dim_g == 3

    def test_a2_defining_data(self):
        datum = rd("A2")
        assert datum.num_positive_roots == 3
        assert datum.dim_g == 8
        assert set(datum.positive_roots) == A2_POSITIVE

    def test_b2_and_g2_closures(self):
        assert set(rd("B2").positive_roots) == B2_POSITIVE
        assert set(rd("G2").positive_roots) == G2_POSITIVE

    @pytest.mark.parametrize(
        "label,count",
        [("A3", 6), ("A4", 10), ("A5", 15), ("B3", 9), ("C3", 9),
         ("D4", 12), ("F4", 24), ("E6", 36), ("A1xA1", 2), ("A2xB2", 7)],
    )
    def test_positive_root_counts(self, label, count):
        assert rd(label).num_positive_roots == count

    def test_g2_coroot_pairings(self):
        # <rho, .> of a coroot is its coordinate sum.  The coroot of the
        # highest root (2,3) has height 3 (dual Coxeter number 4 minus one);
        # the highest coroot belongs to the highest short root (1,2) and has
        # height 5 (Coxeter number 6 minus one).
        datum = rd("G2")
        by_root = dict(zip(datum.positive_roots, datum.positive_coroots))
        assert sum(by_root[(2, 3)]) == 3
        assert sum(by_root[(1, 2)]) == 5
        assert max(sum(c) for c in datum.positive_coroots) == 5

    def test_cartan_invariants(self):
        for label in ["A2", "B3", "C3", "G2", "F4", "D4"]:
            datum = rd(label)
            for i in range(datum.rank):
                assert datum.cartan[i][i] == 2
                for j in range(datum.rank):
                    if i != j:
                        assert datum.cartan[i][j] <= 0

    def test_rho_check_pairs_to_one(self):
        for label in ["A1", "A2", "B2", "G2", "A3", "F4"]:
            datum = rd(label)
            pair = rootdata._pairings(datum, datum.two_rho_check)
            assert all(p == 2 for p in pair)

    def test_unknown_label_rejected(self):
        with pytest.raises(UsageError):
            rd("H3")
        with pytest.raises(UsageError):
            rd("A9")
        with pytest.raises(UsageError):
            rd("B1")

    def test_custom_isogeny_validation(self):
        # generators must contain the coroot lattice
        with pytest.raises(UsageError):
            rd("A1", [[3]])
        # half the coroot lattice in fundamental-coweight coords is fine
        datum = rd("A1", [[1]])
        assert datum.isogeny == "custom"
        with pytest.raises(UsageError):
            rd("A2", [[1, 0]])  # wrong generator count

    # on A1xA1 the simple coroots are (2, 0) and (0, 2) in fundamental-coweight
    # coordinates; each lattice here holds one of them and not the other
    @pytest.mark.parametrize("gens", [[[1, 0], [0, 4]], [[4, 0], [0, 1]]])
    def test_every_simple_coroot_must_lie_in_the_lattice(self, gens):
        with pytest.raises(UsageError, match="does not contain the coroot lattice"):
            rd("A1xA1", gens)

    def test_linearly_dependent_generators_refused(self):
        with pytest.raises(UsageError, match="linearly dependent"):
            rd("A2", [[1, 0], [2, 0]])

    def test_lattice_sandwich(self):
        for label, iso in [("A2", "sc"), ("A2", "adjoint"), ("B2", "sc")]:
            datum = rd(label, iso)
            for i in range(datum.rank):
                coroot = rootdata.coweight(
                    [1 if j == i else 0 for j in range(datum.rank)]
                )
                assert rootdata._is_integral_ints(datum, *rootdata._scale(coroot))


class TestHash:
    def test_separate_builds_are_one_cache_key(self):
        a, b = rd("A2"), rd("A2")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != rd("A2", "adjoint")
        lam = rootdata.coweight((7, 5))
        first = multiplicity.weight_system(a, lam)
        info = multiplicity._weight_system.cache_info()
        assert multiplicity.weight_system(b, lam) is first
        again = multiplicity._weight_system.cache_info()
        assert (again.hits, again.misses) == (info.hits + 1, info.misses)

    def test_value_classes_compare_and_hash_their_fields(self):
        datum = rd("A2")
        cd = conjugacy.make_class(datum, weyl.identity_element(datum), (0, 0))
        nilcone = vinberg.nilcone_strata(datum)
        objects = [
            datum,
            rootdata.fundamental_group(datum),
            weyl.enumerate_group(datum)[3],
            cd,
            kv.report(cd, rootdata.coweight((2, 1))),
            nilcone[0],
            vinberg.nilcone_report(datum, nilcone),
        ]
        assert len({type(a) for a in objects}) == 7
        for a in objects:
            fields = tuple(getattr(a, f) for f in a._fields)
            b = type(a)(*fields)  # the same fields, in the order of __init__
            assert a is not b and a == b and hash(a) == hash(b)
            assert type(a)(*fields[:-1], object()) != a
            assert a != fields and fields != a
            assert all(a != c for c in objects if c is not a)


class TestDominance:
    def test_single_reflection(self):
        datum = rd("A1")
        v, word = rootdata.dominant_reduce(datum, [Fraction(-1, 2)])
        assert v == (Fraction(1, 2),)
        assert word == (0,)

    def test_dominant_fixed(self):
        datum = rd("A2")
        v, word = rootdata.dominant_reduce(datum, [1, 1])
        assert v == rootdata.coweight([1, 1])
        assert word == ()

    def test_a2_orbit_scan_oracle(self):
        # dominant representative agrees with an exhaustive orbit scan
        datum = rd("A2")
        start = rootdata.coweight([1, -1])
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for i in range(2):
                    y = reflect(datum, i, x)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        dominant = [x for x in orbit if rootdata.is_dominant(datum, x)]
        assert len(dominant) == 1
        got, _ = rootdata.dominant_reduce(datum, start)
        assert got == dominant[0]

    def test_leq_q_examples(self):
        datum = rd("A2")
        assert rootdata.leq_q(datum, rootdata.coweight([Fraction(1, 2)] * 2),
                              rootdata.coweight([1, 1]))
        assert rootdata.leq_q(datum, rootdata.coweight([1, 1]),
                              rootdata.coweight([1, 1]))
        assert not rootdata.leq_q(datum, rootdata.coweight([2, 0]),
                                  rootdata.coweight([1, 1]))

    @given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_dominant_reduce_idempotent(self, coords):
        datum = rd("A2")
        v, word = rootdata.dominant_reduce(datum, coords)
        assert rootdata.is_dominant(datum, v)
        again, word2 = rootdata.dominant_reduce(datum, v)
        assert again == v and word2 == ()
        # replay the word
        x = rootdata.coweight(coords)
        for i in word:
            x = reflect(datum, i, x)
        assert x == v

    @given(st.lists(st.fractions(min_value=-2, max_value=2), min_size=2, max_size=2),
           st.lists(st.integers(min_value=0, max_value=1), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_dominant_reduce_orbit_invariant(self, coords, word):
        datum = rd("B2")
        x = rootdata.coweight(coords)
        y = x
        for i in word:
            y = reflect(datum, i, y)
        assert rootdata.dominant_reduce(datum, x)[0] == rootdata.dominant_reduce(datum, y)[0]

    @given(st.lists(st.fractions(min_value=-2, max_value=2), min_size=2, max_size=2),
           st.lists(st.fractions(min_value=-2, max_value=2), min_size=2, max_size=2),
           st.lists(st.fractions(min_value=-2, max_value=2), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_leq_q_partial_order(self, a, b, c):
        datum = rd("A2")
        a, b, c = map(rootdata.coweight, (a, b, c))
        assert rootdata.leq_q(datum, a, a)
        if rootdata.leq_q(datum, a, b) and rootdata.leq_q(datum, b, a):
            assert a == b
        if rootdata.leq_q(datum, a, b) and rootdata.leq_q(datum, b, c):
            assert rootdata.leq_q(datum, a, c)


class TestFundamentalGroup:
    def test_sl2_trivial(self):
        grp = rootdata.fundamental_group(rd("A1"))
        assert prod(grp.invariant_factors) == 1

    def test_pgl2_z2(self):
        grp = rootdata.fundamental_group(rd("A1", "adjoint"))
        assert grp.invariant_factors == (2,)

    def test_pgl3_z3(self):
        grp = rootdata.fundamental_group(rd("A2", "adjoint"))
        assert grp.invariant_factors == (1, 3)
        assert prod(grp.invariant_factors) == 3

    @pytest.mark.parametrize("label,iso", [("A2", "adjoint"), ("B2", "adjoint"),
                                           ("A3", "adjoint"), ("A1", "sc")])
    def test_simple_coroots_die(self, label, iso):
        datum = rd(label, iso)
        grp = rootdata.fundamental_group(datum)
        for i in range(datum.rank):
            coroot = rootdata.coweight([1 if j == i else 0 for j in range(datum.rank)])
            assert grp.project(coroot) == grp.zero()

    def test_order_matches_lattice_index(self):
        datum = rd("A3", "adjoint")
        grp = rootdata.fundamental_group(datum)
        b = frac_matrix(datum.lattice_basis)
        # index = |det(coroot basis in Lambda coords)| = |det C^T| / |det B|
        cartan_t = frac_matrix(
            [[datum.cartan[j][i] for j in range(datum.rank)] for i in range(datum.rank)]
        )
        rel = mat_mul(inverse(b), cartan_t)
        d, _, _ = linalg.smith_normal_form([[int(x) for x in row] for row in rel])
        det = 1
        for i in range(datum.rank):
            det *= d[i][i]
        assert prod(grp.invariant_factors) == det == 4

    def test_kappa_padding(self):
        datum = rd("A2")
        assert rootdata.parse_kappa(datum, [0]) == (0, 0)
        with pytest.raises(UsageError):
            rootdata.parse_kappa(datum, [0, 0, 0])


class TestWeylDimension:
    def test_trivial_rep(self):
        assert weyl_dimension(rd("A2"), rootdata.coweight([0, 0])) == 1

    def test_a1_three_dim(self):
        # dual weight 2 in coroot units is the adjoint representation of the
        # dual SL2
        assert weyl_dimension(rd("A1"), rootdata.coweight([1])) == 3

    def test_a2_adjoint(self):
        assert weyl_dimension(rd("A2"), rootdata.coweight([1, 1])) == 8

    def test_non_dominant_rejected(self):
        with pytest.raises(UsageError):
            weyl_dimension(rd("A2"), rootdata.coweight([-1, 0]))

    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
    def test_dimension_positive_integer(self, label):
        datum = rd(label)
        for lam in rootdata.dominant_integral_sweep(datum, 3):
            assert weyl_dimension(datum, lam) >= 1


# ---------------------------------------------------------------------------
# Fraction oracles for the integer kernel: each predicate computed directly,
# with every pairing, lattice coordinate and comparison in Fractions.


def oracle_simple_pairings(datum, v):
    r = datum.rank
    return tuple(sum(datum.cartan[j][i] * v[j] for j in range(r)) for i in range(r))


def oracle_is_dominant(datum, v):
    return all(p >= 0 for p in oracle_simple_pairings(datum, v))


@lru_cache(maxsize=None)
def oracle_lattice_basis_inverse(datum):
    return inverse(frac_matrix(datum.lattice_basis))


def oracle_lattice_coords(datum, v):
    b_inv = oracle_lattice_basis_inverse(datum)
    f = tuple(Fraction(p) for p in oracle_simple_pairings(datum, v))
    return tuple(sum(row[j] * f[j] for j in range(len(f))) for row in b_inv)


def oracle_is_integral(datum, v):
    return all(x.denominator == 1 for x in oracle_lattice_coords(datum, v))


def oracle_leq_q(nu, lam):
    return all(a <= b for a, b in zip(nu, lam))


def oracle_pair_root(datum, root, v):
    return sum(a * p for a, p in zip(root, oracle_simple_pairings(datum, v)))


def oracle_dominant_reduce(datum, v):
    v = tuple(Fraction(x) for x in v)
    word = []
    while True:
        pair = oracle_simple_pairings(datum, v)
        i = next((k for k in range(datum.rank) if pair[k] < 0), None)
        if i is None:
            return v, tuple(word)
        v = v[:i] + (v[i] - pair[i],) + v[i + 1:]
        word.append(i)


@lru_cache(maxsize=None)
def oracle_fundamental_group(datum):
    """(invariant factors, u) from the Fraction lattice coordinates of the
    simple coroots, by Smith normal form."""
    r = datum.rank
    cols = [oracle_lattice_coords(datum, tuple(int(i == j) for j in range(r)))
            for i in range(r)]
    assert all(c.denominator == 1 for col in cols for c in col)
    rel = tuple(tuple(int(cols[j][i]) for j in range(r)) for i in range(r))
    d, u, _ = linalg.smith_normal_form(rel)
    return tuple(d[i][i] for i in range(r)), u


def oracle_project(datum, v):
    """pi_1 class of v, or None when v is not in the lattice."""
    factors, u = oracle_fundamental_group(datum)
    x = oracle_lattice_coords(datum, v)
    if any(c.denominator != 1 for c in x):
        return None
    raw = (sum(row[j] * int(x[j]) for j in range(len(x))) for row in u)
    return tuple(c % d for c, d in zip(raw, factors))


def coroot_plus_twice_coweight(label):
    """Generators, in fundamental-coweight coordinates, of the lattice spanned
    by the coroots and twice the fundamental coweights: sc, adjoint or strictly
    between (A3, A5), in a basis read off a Smith normal form, so that the
    lattice basis differs from the built-in ones."""
    datum = rd(label)
    r = datum.rank
    gens = [list(row) for row in datum.cartan] + [
        [2 * int(i == j) for j in range(r)] for i in range(r)
    ]
    d, _, v = linalg.smith_normal_form(gens)
    v_inv = inverse(v)
    return [[int(d[i][i] * x) for x in v_inv[i]] for i in range(r)]


# every simple type in its supported rank range, and two products
SUPPORTED_TYPES = [f"{letter}{n}" for letter, (lo, hi) in rootdata._RANK_RANGE.items()
                   for n in range(lo, hi + 1)] + ["A1xB2", "A2xG2"]

KERNEL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "G2", "F4",
                "A1xB2"]


# sympy 1.14 raises on CartanMatrix("A1") and CartanMatrix("C2")
@pytest.mark.parametrize("label", [label for label in SUPPORTED_TYPES
                                   if "x" not in label and label not in ("A1", "C2")])
def test_cartan_matrix_matches_sympy(label):
    from sympy.liealgebras.cartan_matrix import CartanMatrix

    m = CartanMatrix(label)
    theirs = tuple(tuple(int(x) for x in m.row(i)) for i in range(m.rows))
    assert rd(label).cartan in (theirs, tuple(zip(*theirs)))


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_root_closure_matches_breadth_first_oracle(label):
    cartan = rootdata._block_diag([rootdata._simple_cartan(letter, n)
                                   for letter, n in rootdata.parse_label(label)])
    assert rootdata._root_closure(cartan) == oracle_root_closure(cartan)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_positive_coroots_are_the_dual_positive_roots(label):
    """The dual group's positive roots, read off rd, against the literal
    dual datum built from the transposed Cartan matrix."""
    datum = rd(label)
    assert set(datum.positive_coroots) == set(dual_datum(datum).positive_roots)


@pytest.mark.parametrize("label,isogeny",
                         [(label, iso) for label in ["A2", "A3", "B2", "G2", "D4", "A1xB2"]
                          for iso in ("sc", "adjoint")] + [("A3", A3_MIDDLE_LATTICE)])
def test_dominant_sweep_matches_lattice_filtered_grid(label, isogeny):
    """The sweep tests no lattice membership: Lambda contains the coroot
    lattice, so every integer tuple lies in it."""
    datum = rd(label, isogeny)
    cap = 6
    grid = [c for c in product(range(cap + 1), repeat=datum.rank)
            if sum(c) <= cap and rootdata.is_dominant(datum, c)
            and is_integral(datum, c)]
    sweep = rootdata.dominant_integral_sweep(datum, cap)
    assert sweep == sorted(rootdata.coweight(c) for c in grid)
    assert all(type(x) is Fraction for v in sweep for x in v)


@pytest.mark.parametrize("den", [1, 4, 6])
@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "A1xB2"])
def test_dominant_grid_matches_filtered_product(label, den):
    """Oracle: every tuple k of the box, kept when k / den is dominant and of
    height at most the cap."""
    datum = rd(label)
    cap = 3
    expected = [k for k in product(range(cap * den + 1), repeat=datum.rank)
                if sum(k) <= cap * den
                and rootdata.is_dominant(datum, tuple(Fraction(x, den) for x in k))]
    assert rootdata.dominant_grid(datum, cap, den) == expected
    if den == 1:
        assert rootdata.dominant_integral_sweep(datum, cap) == [
            tuple(Fraction(x) for x in k) for k in expected]


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_levi_roots_are_the_roots_of_the_principal_sub_cartan_matrix(label):
    """Oracle: the root closure of the Cartan matrix restricted to I, with
    each root's coordinates put back at the indices of I."""
    datum = rd(label)
    for subset in (frozenset(c) for k in range(datum.rank + 1)
                   for c in combinations(range(datum.rank), k)):
        index = sorted(subset)
        sub_cartan = tuple(tuple(datum.cartan[i][j] for j in index) for i in index)
        embedded = set()
        for root in rootdata._root_closure(sub_cartan)[0]:
            full = [0] * datum.rank
            for i, x in zip(index, root):
                full[i] = x
            embedded.add(tuple(full))
        got = rootdata.levi_roots(datum, subset)
        assert len(got) == len(embedded) and set(got) == embedded, sorted(subset)


def rationals(size):
    fraction = st.builds(Fraction, st.integers(-36, 36), st.integers(1, 12))
    return st.lists(fraction, min_size=size, max_size=size).map(tuple)


class TestIntegerKernelAgainstFractionOracles:
    @pytest.mark.parametrize("isogeny", ["sc", "adjoint", "custom"])
    @pytest.mark.parametrize("label", KERNEL_TYPES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_predicates_match(self, label, isogeny, data):
        datum = rd(label, coroot_plus_twice_coweight(label) if isogeny == "custom"
                   else isogeny)
        r = datum.rank
        v = data.draw(rationals(r), label="v")
        step = data.draw(rationals(r).map(lambda t: tuple(abs(x) for x in t)),
                         label="step")
        above = tuple(a + b for a, b in zip(v, step))
        ints = data.draw(st.lists(st.integers(-12, 12), min_size=r, max_size=r).map(tuple),
                         label="ints")
        for x in (v, above, ints):
            assert rootdata.is_dominant(datum, x) == oracle_is_dominant(datum, x)
            assert (rootdata._is_integral_ints(datum, *rootdata._scale(x))
                    == oracle_is_integral(datum, x))
            num, s = rootdata._lattice_numerators(datum, *rootdata._scale(x))
            assert tuple(Fraction(c, s) for c in num) == oracle_lattice_coords(datum, x)
            assert rootdata.dominant_reduce(datum, x) == oracle_dominant_reduce(datum, x)
            negated = tuple(-a for a in datum.positive_roots[-1])
            for root in datum.positive_roots + (negated,):
                assert rootdata.pair_root(datum, root, x) == oracle_pair_root(datum, root, x)
            expected = oracle_project(datum, x)
            grp = rootdata.fundamental_group(datum)
            if expected is None:
                with pytest.raises(UsageError):
                    grp.project(x)
            else:
                assert grp.project(x) == expected
        for a, b in [(v, above), (above, v), (v, ints), (ints, v), (v, v)]:
            assert rootdata.leq_q(datum, a, b) == oracle_leq_q(a, b)
        assert rootdata.leq_q(datum, v, above)

    @pytest.mark.parametrize("isogeny", ["sc", "adjoint", "custom"])
    @pytest.mark.parametrize("label", KERNEL_TYPES)
    def test_fundamental_group_matches(self, label, isogeny):
        datum = rd(label, coroot_plus_twice_coweight(label) if isogeny == "custom"
                   else isogeny)
        grp = rootdata.fundamental_group(datum)
        assert (grp.invariant_factors, grp._u) == oracle_fundamental_group(datum)

    @pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
    @pytest.mark.parametrize("label", SUPPORTED_TYPES)
    def test_lattice_inverse_matches(self, label, isogeny):
        datum = rd(label, isogeny)
        assert datum.lattice_inverse == integer_inverse(datum.lattice_basis)
        assert rootdata._integer_inverse(datum.cartan) == integer_inverse(datum.cartan)

    # None: the lattice of `coroot_plus_twice_coweight`
    @pytest.mark.parametrize("label,generators",
                             [("A1", [[1]])] + [(label, None) for label in KERNEL_TYPES])
    def test_custom_lattice_inverse_matches(self, label, generators):
        datum = rd(label, generators or coroot_plus_twice_coweight(label))
        assert datum.isogeny == "custom"
        assert datum.lattice_inverse == integer_inverse(datum.lattice_basis)

    def test_custom_lattice_lies_strictly_between(self):
        # A3: pi_1 of the custom lattice is Z/2, between sc (trivial) and
        # adjoint (Z/4); the lattice index over the coroots says so
        datum = rd("A3", coroot_plus_twice_coweight("A3"))
        assert prod(rootdata.fundamental_group(datum).invariant_factors) == 2
