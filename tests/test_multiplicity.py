"""Weight multiplicities: two algorithms plus brute-force oracles."""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcalc import multiplicity, rootdata, weyl
from kvcalc.errors import InvariantViolation, UsageError
from oracles import (dimension_sum, dual_datum, frac_matrix, generic_char_valuation, inverse,
                     is_integral, oracle_dominant_below, oracle_gram, orbit_size,
                     rational_grid, weyl_dimension)


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def cw(*coords):
    return rootdata.coweight(coords)


def naive_partition_count(datum, beta):
    """Independent oracle: iterate over all bounded coefficient vectors."""
    dual = dual_datum(datum)
    roots = dual.positive_roots
    caps = []
    for a in roots:
        caps.append(min(b // x for b, x in zip(beta, a) if x > 0))
    count = 0
    for coeffs in product(*(range(c + 1) for c in caps)):
        total = [0] * datum.rank
        for k, a in zip(coeffs, roots):
            for j in range(datum.rank):
                total[j] += k * a[j]
        if tuple(total) == tuple(beta):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Full-weight Freudenthal oracle: every weight of V(lam), found by saturated
# root-string descent on the literal dual datum, with the symmetrizer form.
# This was the production algorithm before the dominant-only recursion.


@lru_cache(maxsize=None)
def _symmetrizer(dual):
    """Positive integers d_i making diag(d) @ cartan symmetric."""
    r = dual.rank
    c = dual.cartan
    d = [Fraction(0)] * r
    remaining = set(range(r))
    while remaining:
        seed = min(remaining)
        d[seed] = Fraction(1)
        remaining.discard(seed)
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in list(remaining):
                if c[i][j] != 0:
                    d[j] = d[i] * Fraction(c[i][j], c[j][i])
                    remaining.discard(j)
                    stack.append(j)
    mult = lcm(*(x.denominator for x in d))
    out = [int(x * mult) for x in d]
    for i in range(r):
        for j in range(r):
            if out[i] * c[i][j] != out[j] * c[j][i]:
                raise InvariantViolation("Cartan matrix is not symmetrizable")
    return tuple(out)


def _inner(dual, d, a, b):
    """W-invariant form on dual-weight space; a, b in dual-root coords."""
    r = dual.rank
    return sum(d[i] * dual.cartan[i][j] * a[i] * b[j] for i in range(r) for j in range(r))


@lru_cache(maxsize=None)
def _dual_rho(rd):
    """rho of the dual group in the dual's simple-root coordinates."""
    dual = dual_datum(rd)
    s = [Fraction(0)] * rd.rank
    for root in dual.positive_roots:
        for j in range(rd.rank):
            s[j] += Fraction(root[j], 2)
    return tuple(s)


def _dual_pairing(dual, x, coroot_idx):
    """Pairing of a dual weight x (dual-root coords) with the coroot of the
    positive root number coroot_idx of the dual."""
    coroot = dual.positive_coroots[coroot_idx]
    r = dual.rank
    return sum(dual.cartan[i][j] * coroot[i] * x[j] for i in range(r) for j in range(r))


@lru_cache(maxsize=None)
def full_weight_system(rd, lam):
    """All weights of the dual-group irreducible V(lam) with multiplicities."""
    lam = rootdata.coweight(lam)
    dual = dual_datum(rd)
    r = rd.rank
    weights = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for x in frontier:
            for k, root in enumerate(dual.positive_roots):
                p = _dual_pairing(dual, x, k)
                if p > 0:
                    for step in range(1, int(p) + 1):
                        y = tuple(x[j] - step * root[j] for j in range(r))
                        if y not in weights:
                            weights.add(y)
                            nxt.append(y)
        frontier = nxt

    d = _symmetrizer(dual)
    rho = _dual_rho(rd)
    norm_lam = _inner(dual, d, lam, lam) + 2 * _inner(dual, d, lam, rho)
    mult = {lam: 1}
    for x in sorted(weights, key=lambda v: (-sum(v), v)):
        if x == lam:
            continue
        total = Fraction(0)
        for root in dual.positive_roots:
            k = 1
            while True:
                y = tuple(x[j] + k * root[j] for j in range(r))
                if y not in weights:
                    break
                m_y = mult.get(y, 0)
                if m_y:
                    total += m_y * _inner(dual, d, y, root)
                k += 1
        denom = norm_lam - (_inner(dual, d, x, x) + 2 * _inner(dual, d, x, rho))
        if denom <= 0:
            raise InvariantViolation(f"Freudenthal denominator {denom} at {x} below {lam}")
        m = 2 * Fraction(total) / denom
        if m.denominator != 1 or m < 0:
            raise InvariantViolation(f"Freudenthal multiplicity {m} at {x} below {lam}")
        if m:
            mult[x] = int(m)
    return mult


def fundamental_weight_root_coords(rd, i):
    """omega_i of rd in simple-root coordinates (column i of the inverse
    Cartan matrix)."""
    inv = inverse(frac_matrix(rd.cartan))
    return tuple(inv[j][i] for j in range(rd.rank))


def oracle_char_valuation(rd, mu, i):
    """min over every weight chi of V(omega_i) of <chi, mu>, with V(omega_i)
    built by the full-weight oracle on the adjoint dual datum."""
    wsys = full_weight_system(dual_datum(rd, "adjoint"), fundamental_weight_root_coords(rd, i))
    return min(Fraction(rootdata.pair_root(rd, chi, rootdata.coweight(mu))) for chi in wsys)


def mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def dominant_lattice_weights(datum, cap):
    """Dominant lattice coweights whose simple-root pairings sum to at most
    cap; unlike `dominant_integral_sweep` this reaches every pi_1 class."""
    r = datum.rank
    pairings_inv = inverse(
        frac_matrix([[datum.cartan[j][i] for j in range(r)] for i in range(r)])
    )
    out = []
    for c in product(range(cap + 1), repeat=r):
        if sum(c) <= cap:
            v = mat_vec(pairings_inv, c)
            if is_integral(datum, v):
                out.append(v)
    return out


# (type, pairing cap): every lambda up to the cap, a few seconds in all
ORACLE_TYPES = [("A1", 6), ("A2", 4), ("A3", 3), ("A4", 2), ("B2", 3), ("B3", 2),
                ("B4", 1), ("C3", 2), ("D4", 1), ("G2", 2), ("A1xB2", 3)]

# rank 4 to 6 for the interval walk alone: the full-weight oracle would take
# about 100 s on these four rows
INTERVAL_ONLY_TYPES = [("F4", 1), ("E6", 1), ("D5", 2), ("C4", 2)]


# A3 with pi_1 = Z/2: fundamental coweights x with x1 + x3 even
A3_CUSTOM = [[1, 0, 1], [0, 1, 0], [0, 0, 2]]


class TestIntegerInterval:
    @pytest.mark.parametrize("label,cap,isogeny",
                             [(label, cap, iso) for label, cap in ORACLE_TYPES
                              for iso in ("sc", "adjoint")] + [("A3", 3, A3_CUSTOM)]
                             + [(label, cap, iso) for label, cap in INTERVAL_ONLY_TYPES
                                for iso in ("sc", "adjoint")])
    def test_matches_fraction_walk(self, label, cap, isogeny):
        """The interval, unscaled, is the oracle's tuple, in its increasing
        order with lam last; so are the weight system's keys, on every type
        small enough to compute it."""
        datum = rd(label, isogeny)
        lams = dominant_lattice_weights(datum, cap)
        # a nontrivial pi_1 puts lambdas off the coroot lattice: fractional coordinates
        fractional = any(x.denominator != 1 for lam in lams for x in lam)
        assert fractional == (prod(rootdata.fundamental_group(datum).invariant_factors) > 1)
        with_weights = (label, cap) not in INTERVAL_ONLY_TYPES
        for lam in lams:
            below = oracle_dominant_below(datum, lam)
            d, scaled = rootdata._scale(lam)
            assert d == lcm(*(x.denominator for x in lam))
            interval = multiplicity._interval(datum, d, scaled)
            assert interval[-1] == scaled
            assert tuple(tuple(Fraction(x, d) for x in v) for v in interval) == below, lam
            if with_weights:
                assert tuple(multiplicity.weight_system(datum, lam)) == below, lam


# every simple type in its supported rank range, and three products
GRAM_TYPES = [f"{letter}{n}" for letter, (lo, hi) in rootdata._RANK_RANGE.items()
              for n in range(lo, hi + 1)] + ["A1xB2", "A2xG2", "B3xC3"]


@pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
@pytest.mark.parametrize("label", GRAM_TYPES)
def test_gram_matches_fraction_pairings(label, isogeny):
    assert multiplicity._gram(rd(label, isogeny)) == oracle_gram(rd(label, isogeny))


class TestFullWeightOracle:
    @pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
    @pytest.mark.parametrize("label,cap", ORACLE_TYPES)
    def test_dominant_multiplicities_match(self, label, cap, isogeny):
        datum = rd(label, isogeny)
        lams = dominant_lattice_weights(datum, cap)
        assert len(lams) > 1
        for lam in lams:
            full = full_weight_system(datum, lam)
            dominant = {mu: m for mu, m in full.items() if rootdata.is_dominant(datum, mu)}
            assert dict(multiplicity.weight_system(datum, lam)) == dominant, lam

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3", "A1xB2"])
    def test_generic_char_valuation_non_dominant_and_rational(self, label):
        datum = rd(label)
        grid = [Fraction(-3, 2), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)]
        for mu in product(grid, repeat=datum.rank):
            for i in range(datum.rank):
                assert generic_char_valuation(datum, mu, i) == oracle_char_valuation(
                    datum, mu, i
                ), (mu, i)

    def test_result_is_read_only(self):
        wsys = multiplicity.weight_system(rd("A2"), cw(1, 1))
        with pytest.raises(TypeError):
            wsys[cw(0, 0)] = 5
        assert wsys[cw(0, 0)] == 2


class TestKostantPartition:
    def test_zero(self):
        assert multiplicity.kostant_partition(rd("A2"), (0, 0)) == 1

    def test_a1_single_root(self):
        assert multiplicity.kostant_partition(rd("A1"), (1,)) == 1

    def test_a2_theta_two_ways(self):
        # alpha1+alpha2 as itself or as the two simple roots
        assert multiplicity.kostant_partition(rd("A2"), (1, 1)) == 2

    def test_negative_is_zero(self):
        assert multiplicity.kostant_partition(rd("A2"), (-1, 0)) == 0

    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_against_naive_oracle(self, label):
        datum = rd(label)
        for beta in product(range(4), repeat=2):
            assert multiplicity.kostant_partition(datum, beta) == naive_partition_count(
                datum, beta
            )


class TestFreudenthal:
    def test_highest_weight_is_one(self):
        for label, lam in [("A1", (3,)), ("A2", (2, 1)), ("B2", (2, 1))]:
            datum = rd(label)
            assert multiplicity.multiplicity_freudenthal(datum, lam, lam) == 1

    def test_a1_ladder(self):
        # V(2 alpha) of the dual SL2 is the 5-dimensional representation
        datum = rd("A1")
        assert multiplicity.multiplicity_freudenthal(datum, (2,), (0,)) == 1
        assert multiplicity.multiplicity_freudenthal(datum, (2,), (1,)) == 1
        assert multiplicity.multiplicity_freudenthal(datum, (1,), (0,)) == 1

    def test_a2_adjoint_zero_weight(self):
        assert multiplicity.multiplicity_freudenthal(rd("A2"), (1, 1), (0, 0)) == 2

    def test_disjoint_classes_are_zero(self):
        # in the adjoint lattice, the minuscule coweight and 0 fall in
        # different pi_1 classes, so the multiplicity vanishes
        datum = rd("A1", "adjoint")
        assert multiplicity.multiplicity_freudenthal(
            datum, cw(Fraction(1, 2)), (0,)
        ) == 0

    def test_rejects_outside_lattice(self):
        with pytest.raises(UsageError):
            multiplicity.multiplicity_freudenthal(rd("A1"), (Fraction(1, 2),), (0,))

    def test_rejects_non_dominant(self):
        with pytest.raises(UsageError):
            multiplicity.multiplicity_freudenthal(rd("A2"), (-1, 0), (0, 0))

    @pytest.mark.parametrize("label,isogeny,lam", [
        ("A1", "adjoint", (Fraction(7, 2),)),
        ("A2", "sc", (6, 4)),
        ("B2", "sc", (5, 3)),
        ("G2", "sc", (7, 4)),
        ("A3", "adjoint", (Fraction(15, 4), Fraction(9, 2), Fraction(13, 4))),
    ])
    def test_step_bound_covers_the_recursion(self, monkeypatch, label, isogeny, lam):
        """The count passed to the size guard is at least the number of
        alpha-string steps, one `_reduce_ints` call each."""
        datum = rd(label, isogeny)
        lam = cw(*lam)
        multiplicity._weight_system.cache_clear()
        guard, reduce_ints = rootdata.guard_grid_size, rootdata._reduce_ints
        guarded, calls = [], []
        monkeypatch.setattr(rootdata, "guard_grid_size",
                            lambda count, what: guarded.append((what, count)) or guard(count, what))
        monkeypatch.setattr(rootdata, "_reduce_ints",
                            lambda *args: calls.append(args) or reduce_ints(*args))
        multiplicity.weight_system(datum, lam)
        multiplicity._weight_system.cache_clear()
        # the interval's guard runs first, inside the same call
        [bound] = [count for what, count in guarded if what == "Freudenthal's recursion"]
        assert 0 < len(calls) <= bound

    def test_large_weight_under_the_step_cap_answers(self):
        # about 1.07M alpha-string steps, under the cap; V(100 theta) of SL3
        # has a zero weight of multiplicity 101
        assert multiplicity.multiplicity_freudenthal(rd("A2"), (100, 100), (0, 0)) == 101


class TestKostantFormula:
    def test_highest_weight(self):
        assert multiplicity.multiplicity_kostant(rd("B2"), (1, 1), (1, 1)) == 1

    def test_a1_interior(self):
        assert multiplicity.multiplicity_kostant(rd("A1"), (2,), (1,)) == 1

    def test_b2_zero_weight_cross_check(self):
        datum = rd("B2")
        lam = rootdata.dominant_reduce(datum, (1, 1))[0]
        a = multiplicity.multiplicity_kostant(datum, lam, (0, 0))
        b = multiplicity.multiplicity_freudenthal(datum, lam, (0, 0))
        assert a == b

    @pytest.mark.parametrize("label", ["A1", "A2", "B2"])
    def test_oracle_agreement_small(self, label):
        datum = rd(label)
        for lam in multiplicity.sweep_dominant(datum, 8):
            wsys = multiplicity.weight_system(datum, lam)
            for mu in wsys:
                if rootdata.is_dominant(datum, mu):
                    assert wsys[mu] == multiplicity.multiplicity_kostant(datum, lam, mu)

    # B3 and C3 are each other's duals, and the dual of F4 is F4 numbered in
    # reverse: on each, the transposed Cartan matrix differs from rd's own
    @pytest.mark.parametrize("label,cap", [("B3", 14), ("C3", 14), ("F4", 18)])
    def test_oracle_agreement_rank_three_and_four(self, label, cap):
        datum = rd(label)
        checked = 0
        for lam in multiplicity.sweep_dominant(datum, cap):
            for mu, m in multiplicity.weight_system(datum, lam).items():
                assert m == multiplicity.multiplicity_kostant(datum, lam, mu), (lam, mu)
                checked += 1
        assert checked >= 15

    def test_sums_over_the_cached_weyl_table(self):
        """Kostant builds no second Weyl table: the one it sums over is
        ``enumerate_group(rd)``, which every other caller reads."""
        datum = rd("F4")
        lam = multiplicity.sweep_dominant(datum, 14)[-1]
        weyl.enumerate_group.cache_clear()
        assert multiplicity.multiplicity_kostant(datum, lam, lam) == 1
        assert weyl.enumerate_group.cache_info().currsize == 1
        hits = weyl.enumerate_group.cache_info().hits
        weyl.enumerate_group(datum)
        info = weyl.enumerate_group.cache_info()
        assert (info.hits, info.currsize) == (hits + 1, 1)


class TestHighestRootPairing:
    # the grid's fractional lambda put rho's half-integers and lambda's
    # denominator D in one sum, which the integral sweeps never do
    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "C3"])
    def test_matches_the_fraction_pairing_with_rho(self, label):
        datum = rd(label)
        rho = tuple(Fraction(x, 2) for x in datum.two_rho_check)
        for lam in rational_grid(datum, 3, 6):
            shifted = tuple(x + y for x, y in zip(lam, rho))
            expected = max(rootdata.pair_root(datum, beta, shifted) for beta in datum.positive_roots)
            assert multiplicity.highest_root_pairing(datum, lam) == expected


class TestWeightSystem:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_dimension_sum_matches_weyl_formula(self, label):
        datum = rd(label)
        for lam in multiplicity.sweep_dominant(datum, 9):
            assert dimension_sum(datum, lam) == weyl_dimension(datum, lam)

    def test_dominant_weights_have_positive_multiplicity(self):
        datum = rd("B2")
        wsys = multiplicity.weight_system(datum, cw(2, 2))
        for mu in oracle_dominant_below(datum, cw(2, 2)):
            assert wsys[mu] >= 1

    def test_weights_closed_under_dominance_interval(self):
        datum = rd("A2")
        lam = cw(2, 2)
        wsys = multiplicity.weight_system(datum, lam)
        dominant_weights = {m for m in wsys if rootdata.is_dominant(datum, m)}
        assert dominant_weights == set(oracle_dominant_below(datum, lam))


class TestDominantBelow:
    def test_a1_ladder(self):
        assert tuple(multiplicity.weight_system(rd("A1"), cw(1))) == (cw(0), cw(1))

    def test_zero(self):
        assert tuple(multiplicity.weight_system(rd("A2"), cw(0, 0))) == (cw(0, 0),)

    def test_a2_theta(self):
        assert tuple(multiplicity.weight_system(rd("A2"), cw(1, 1))) == (cw(0, 0), cw(1, 1))

    def test_adjoint_minuscule_is_alone(self):
        datum = rd("A1", "adjoint")
        omega = cw(Fraction(1, 2))
        assert tuple(multiplicity.weight_system(datum, omega)) == (omega,)

    # `weight_system` checks lambda itself: `_weight_system` and the
    # `_interval` behind it trust the lambda they are given
    @pytest.mark.parametrize("lam,refusal", [
        ((1, 3), "lambda must be dominant"),
        ((Fraction(2, 3), Fraction(1, 3)), "lambda is not in the isogeny lattice"),
    ], ids=["not-dominant", "off-the-lattice"])
    def test_public_view_refuses_lambda(self, lam, refusal):
        with pytest.raises(UsageError, match=refusal):
            multiplicity.weight_system(rd("A2"), lam)

    def test_interval_is_downward_closed_within_class(self):
        datum = rd("B2")
        lam = cw(2, 2)
        below = tuple(multiplicity.weight_system(datum, lam))
        for mu in below:
            for nu in multiplicity.weight_system(datum, mu):
                assert nu in below

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_orbit_sum_bounds_dimension(self, a, b):
        datum = rd("A2")
        lam, _ = rootdata.dominant_reduce(datum, cw(a, b))
        total = dimension_sum(datum, lam)
        assert total == weyl_dimension(datum, lam)


class TestOrbits:
    def test_regular_orbit_size(self):
        assert orbit_size(rd("A2"), cw(1, 1)) == 6

    def test_singular_orbit_size(self):
        # (2,1) in B2 coroot coordinates lies on one wall: orbit |W|/2
        assert orbit_size(rd("B2"), cw(2, 1)) == 4
        assert orbit_size(rd("B2"), cw(0, 0)) == 1
