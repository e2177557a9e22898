"""Polytope and Steinberg-base stratifications."""

import random
from fractions import Fraction
from itertools import product

import pytest

from kvcalc import kv, multiplicity, rootdata, strata
from kvcalc.errors import SizeGuardError, UsageError
from oracles import (generic_char_valuation, is_integral, oracle_dominant_below,
                     rational_grid, valuation_vector_for)
from test_multiplicity import dominant_lattice_weights


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def cw(*coords):
    return rootdata.coweight(coords)


class TestPolytopeMember:
    def test_lambda_in_own_open_stratum(self):
        datum = rd("A2")
        assert strata.polytope_member(datum, [1, 1], [1, 1], open_stratum=True)

    def test_zero_in_closed_not_open(self):
        datum = rd("A1")
        assert strata.polytope_member(datum, [0], [1])
        assert not strata.polytope_member(datum, [0], [1], open_stratum=True)

    def test_half_theta_in_open(self):
        datum = rd("A2")
        nu = cw(Fraction(1, 2), Fraction(1, 2))
        assert strata.polytope_member(datum, nu, [1, 1], open_stratum=True)

    def test_non_dominant_point_not_member(self):
        datum = rd("A2")
        assert not strata.polytope_member(datum, [1, -1], [1, 1])


class TestCovers:
    """The open-stratum test and the interval walk assume Stembridge's lemma:
    every dominant mu that lambda covers is lambda - beta for a positive
    coroot beta.  Here the covers are read off the coroot-step oracle of the
    dominance interval, which does not assume the lemma."""

    # (type, pairing cap): every dominant lattice lambda up to the cap,
    # fractional coroot coordinates included under the adjoint isogeny
    COVER_TYPES = [("A2", 6), ("B2", 6), ("G2", 5), ("A3", 4), ("B3", 4), ("C3", 4),
                   ("D4", 3), ("A1xA2", 4)]

    @pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
    @pytest.mark.parametrize("label,cap", COVER_TYPES)
    def test_every_cover_is_lambda_minus_a_positive_coroot(self, label, cap, isogeny):
        datum = rd(label, isogeny)
        coroots = set(datum.positive_coroots)
        covers = 0
        for lam in dominant_lattice_weights(datum, cap):
            below = [mu for mu in oracle_dominant_below(datum, lam) if mu != lam]
            for mu in below:
                if not any(m != mu and rootdata.leq_q(datum, mu, m) for m in below):
                    assert rootdata.sub(lam, mu) in coroots, (lam, mu)
                    covers += 1
        assert covers > 0


class TestPolytopeIntersection:
    def test_equal(self):
        datum = rd("A2")
        assert strata.polytope_intersection(datum, [1, 1], [1, 1]) == cw(1, 1)

    def test_nested(self):
        datum = rd("A2")
        assert strata.polytope_intersection(datum, [2, 2], [1, 1]) == cw(1, 1)

    def test_a2_adjoint_crossing(self):
        datum = rd("A2", "adjoint")
        mu = strata.polytope_intersection(datum, [2, 1], [1, 2])
        assert mu == cw(1, 1)

    def test_class_mismatch_rejected(self):
        datum = rd("A2", "adjoint")
        omega1 = cw(Fraction(2, 3), Fraction(1, 3))
        with pytest.raises(UsageError):
            strata.polytope_intersection(datum, omega1, [1, 1])

    @pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xB2"])
    def test_componentwise_minimum_is_dominant_and_below_both(self, label, isogeny):
        # every pi_1 class of the lattice points k / q, fractional coroot
        # coordinates included, with q the largest invariant factor of pi_1
        datum = rd(label, isogeny)
        grp = rootdata.fundamental_group(datum)
        q = max(grp.invariant_factors)
        classes = {}
        for k in rootdata.dominant_grid(datum, 6, q):
            lam = cw(*[Fraction(x, q) for x in k])
            if is_integral(datum, lam):
                classes.setdefault(grp.project(lam), []).append(lam)
        for lams in classes.values():
            for lam1, lam2 in product(lams, repeat=2):
                mu = strata.polytope_intersection(datum, lam1, lam2)
                assert mu == tuple(min(a, b) for a, b in zip(lam1, lam2))
                assert rootdata.check_dominant(datum, mu, "mu") == mu
                assert rootdata.leq_q(datum, mu, lam1) and rootdata.leq_q(datum, mu, lam2)

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_grid_membership_oracle(self, label):
        # P_mu must equal P_lam1 meet P_lam2 on a denominator-4 grid
        rng = random.Random(5)
        datum = rd(label)
        lams = rootdata.dominant_integral_sweep(datum, 5)
        for _ in range(25):
            lam1, lam2 = rng.choice(lams), rng.choice(lams)
            mu = strata.polytope_intersection(datum, lam1, lam2)
            top = max(max(lam1), max(lam2))
            for coords in product(range(int(top * 4) + 1), repeat=datum.rank):
                nu = cw(*[Fraction(k, 4) for k in coords])
                both = strata.polytope_member(datum, nu, lam1) and strata.polytope_member(
                    datum, nu, lam2
                )
                assert both == strata.polytope_member(datum, nu, mu)


class TestGenericCharValuation:
    def test_zero_cocharacter(self):
        datum = rd("B2")
        for i in range(2):
            assert generic_char_valuation(datum, [0, 0], i) == 0

    def test_a1_standard(self):
        assert generic_char_valuation(rd("A1"), [1], 0) == -1

    def test_a2_standard_at_theta(self):
        assert generic_char_valuation(rd("A2"), [1, 1], 0) == -1

    def test_lowest_weight_formula(self):
        # for dominant mu the minimum is the lowest weight:
        # -<omega_{iota(i)}, mu> = -mu_{iota(i)}
        for label in ["A2", "B2", "G2"]:
            datum = rd(label)
            for mu in rootdata.dominant_integral_sweep(datum, 3):
                for i in range(datum.rank):
                    assert generic_char_valuation(datum, mu, i) == -mu[datum.iota[i]]


class TestSteinbergStratum:
    def test_zero_cvals_give_lambda(self):
        datum = rd("A2")
        assert strata.steinberg_stratum(datum, (Fraction(0), Fraction(0)), [1, 1]) == cw(1, 1)

    def test_infinite_cvals_give_minimum(self):
        datum = rd("A1")
        assert strata.steinberg_stratum(datum, (strata.INFINITE,), [2]) == cw(0)

    def test_a1_middle_rung(self):
        datum = rd("A1")
        assert strata.steinberg_stratum(datum, (Fraction(1),), [2]) == cw(1)


class TestCoherence:
    @pytest.mark.parametrize("label", ["A1", "A2"])
    def test_split_generic_class_lands_in_its_stratum(self, label):
        datum = rd(label)
        for lam in rootdata.dominant_integral_sweep(datum, 4):
            for mu in multiplicity.weight_system(datum, lam):
                v = valuation_vector_for(datum, lam, mu)
                assert strata.steinberg_stratum(datum, v, lam) == mu
                assert kv.best_integral_approx(datum, mu, lam) == mu


class TestDisjointness:
    def test_a2_grid_lies_in_exactly_one_open_stratum(self):
        datum = rd("A2")
        lams = rootdata.dominant_integral_sweep(datum, 8)
        for nu in rational_grid(datum, 4, 6):
            hits = [lam for lam in lams
                    if strata.polytope_member(datum, nu, lam, open_stratum=True)]
            assert len(hits) == 1, (nu, hits)


class TestSizeGuards:
    """Each grid enumeration, and the walk of a dominance interval, bounds its
    tuple count and refuses, before starting, one over `rootdata.GRID_SIZE_CAP`."""

    @pytest.mark.parametrize("build", [
        lambda: rootdata.dominant_integral_sweep(rd("A2"), 10**4),
        lambda: rootdata.dominant_grid(rd("A2"), 10**3, 6),
        lambda: kv.chen_zhu_approx(rd("A1", "adjoint"), [10**7]),
        lambda: multiplicity.weight_system(rd("A2"), (3000, 3000)),
    ], ids=["dominant-sweep", "rational-grid", "chen-zhu-grid", "dominance-interval"])
    def test_oversized_grid_refused(self, build):
        with pytest.raises(SizeGuardError):
            build()

