"""The headline calculator: nonemptiness, dimensions, approximations,
component predictions, and the report object."""

import random
from fractions import Fraction

import pytest

from kvcalc import conjugacy, kv, multiplicity, rootdata, weyl
from kvcalc.errors import EmptyVarietyError, UsageError


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def cw(*coords):
    return rootdata.coweight(coords)


def ramified_sl2(r_alpha=Fraction(1, 2)):
    datum = rd("A1")
    s = weyl.word_to_element(datum, [0])
    return conjugacy.make_class(datum, s, [0], {(1,): r_alpha})


class TestNonempty:
    def test_equality_case(self):
        cd = conjugacy.split_class(rd("A1"), [1])
        assert kv.nonempty(cd, [1])

    def test_newton_not_dominated(self):
        cd = conjugacy.split_class(rd("A1"), [1])
        assert not kv.nonempty(cd, [0])

    def test_ramified_zero_newton(self):
        assert kv.nonempty(ramified_sl2(), [1])

    def test_class_mismatch(self):
        datum = rd("A1", "adjoint")
        cd = conjugacy.split_class(datum, [0, ][:1])
        # lambda in the nontrivial pi_1 class while kappa is trivial
        assert not kv.nonempty(cd, [Fraction(1, 2)])

    def test_invalid_lambda_rejected(self):
        cd = conjugacy.split_class(rd("A2"), [0, 0])
        with pytest.raises(UsageError):
            kv.nonempty(cd, [-1, 0])


class TestDimension:
    def test_split_with_residual(self):
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [0], {(1,): Fraction(1)})
        assert kv.dimension(cd, [1]) == 2

    def test_ramified(self):
        assert kv.dimension(ramified_sl2(), [1]) == 1

    def test_rigid_case_is_zero(self):
        # nu = lambda with generic units: d = -<2 rho, lambda>, c = 0, so the
        # dimension collapses to <rho, lambda - nu> = 0
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [1])
        assert kv.dimension(cd, [1]) == 0

    def test_empty_raises(self):
        cd = conjugacy.split_class(rd("A1"), [1])
        with pytest.raises(EmptyVarietyError):
            kv.dimension(cd, [0])

    def test_empty_raises_on_random_sweep(self):
        rng = random.Random(3)
        datum = rd("A2")
        for _ in range(30):
            nu = cw(rng.randrange(0, 4), rng.randrange(0, 4))
            nu, _ = rootdata.dominant_reduce(datum, nu)
            cd = conjugacy.split_class(datum, nu)
            lams = [lam for lam in rootdata.dominant_integral_sweep(datum, 5)
                    if not kv.nonempty(cd, lam)]
            for lam in lams[:5]:
                with pytest.raises(EmptyVarietyError):
                    kv.dimension(cd, lam)

    def test_central_shift_moves_dimension_by_rho(self):
        # adding a dominant shift keeps d and c fixed and adds <rho, shift>
        datum = rd("A2")
        cd = conjugacy.split_class(datum, [0, 0], {(1, 1): Fraction(2)})
        base = kv.dimension(cd, [1, 1])
        shifted = kv.dimension(cd, [2, 2])
        assert shifted - base == rootdata.rho_pair(datum, cw(1, 1))


class TestUnramifiedDimension:
    def test_rigid(self):
        assert kv.unramified_dimension(rd("A2"), [1, 1], {}, [1, 1]) == (0, 1)

    def test_a1_basic(self):
        assert kv.unramified_dimension(rd("A1"), [0], {}, [1]) == (1, 1)

    def test_a2_adjoint_pair(self):
        assert kv.unramified_dimension(rd("A2"), [0, 0], {}, [1, 1]) == (2, 2)

    def test_adjoint_newton_point_off_the_coroot_lattice(self):
        # PGL2: mu = 1/2 is a lattice coweight outside the coroot lattice
        datum = rd("A1", "adjoint")
        assert kv.unramified_dimension(datum, [Fraction(1, 2)], None, [Fraction(3, 2)]) == (1, 1)

    def test_matches_general_formula_with_residual(self):
        datum = rd("B2")
        residual = {
            root: Fraction(1)
            for root in datum.positive_roots
            if rootdata.pair_root(datum, root, cw(0, 0)) == 0
        }
        dim, orbits = kv.unramified_dimension(datum, [0, 0], residual, [1, 1])
        cd = conjugacy.split_class(datum, [0, 0], residual)
        assert dim == kv.dimension(cd, [1, 1])
        assert orbits == multiplicity.multiplicity_freudenthal(datum, cw(1, 1), cw(0, 0))


class TestBestIntegralApprox:
    def test_integral_fixed_point(self):
        datum = rd("A2")
        assert kv.best_integral_approx(datum, [1, 1], [2, 1]) == cw(1, 1)

    def test_sl2_half(self):
        assert kv.best_integral_approx(rd("A1"), [Fraction(1, 2)], [1]) == cw(1)

    def test_a2_half_theta(self):
        lam = cw(1, 1)
        nu = cw(Fraction(1, 2), Fraction(1, 2))
        assert kv.best_integral_approx(rd("A2"), nu, lam) == lam

    def test_precondition_errors(self):
        datum = rd("A1")
        with pytest.raises(UsageError):
            kv.best_integral_approx(datum, [2], [1])
        with pytest.raises(UsageError):
            kv.best_integral_approx(datum, [Fraction(-1, 2)], [1])

    @pytest.mark.parametrize("label,lam_coords", [("A2", (2, 2)), ("B2", (2, 2)),
                                                  ("G2", (3, 2))])
    def test_uniqueness_over_rational_grid(self, label, lam_coords):
        # a UniquenessError anywhere here would falsify the minimality lemma
        datum = rd(label)
        lam = cw(*lam_coords)
        for num1 in range(0, 9):
            for num2 in range(0, 9):
                nu = cw(Fraction(num1, 4), Fraction(num2, 4))
                if not rootdata.is_dominant(datum, nu):
                    continue
                if not rootdata.leq_q(datum, nu, lam):
                    continue
                mu = kv.best_integral_approx(datum, nu, lam)
                assert rootdata.leq_q(datum, nu, mu)
                assert rootdata.leq_q(datum, mu, lam)


class TestChenZhu:
    def test_integral_fixed_point(self):
        datum = rd("A2")
        assert kv.chen_zhu_approx(datum, [1, 1]) == (cw(1, 1),)

    def test_sl2_half_floors_to_zero(self):
        assert kv.chen_zhu_approx(rd("A1"), [Fraction(1, 2)]) == (cw(0),)

    def test_zero(self):
        assert kv.chen_zhu_approx(rd("B2"), [0, 0]) == (cw(0, 0),)

    def test_may_be_empty_in_nontrivial_class(self):
        datum = rd("A1", "adjoint")
        # nothing integral sits below a quarter coweight except 0, which works
        assert kv.chen_zhu_approx(datum, [Fraction(1, 4)]) == (cw(0),)


class TestComponentsAndBounds:
    def test_rigid_prediction_is_one(self):
        cd = conjugacy.split_class(rd("A2"), [1, 1])
        assert kv.predicted_components(cd, [1, 1]) == 1

    def test_unramified_prediction_matches_multiplicity(self):
        datum = rd("A2")
        cd = conjugacy.split_class(datum, [0, 0])
        assert kv.predicted_components(cd, [1, 1]) == 2

    def test_ramified_sl2(self):
        cd = ramified_sl2()
        # best approximation of 0 below 2 alpha-vee is 0; the dual weight
        # space is 1-dimensional
        assert kv.predicted_components(cd, [2]) == 1

    @pytest.mark.parametrize("label,bound", [("A1", 1), ("A2", 2), ("A3", 4), ("G2", 2),
                                             ("F4", 8), ("A2xB3", 8)])
    def test_regular_orbit_bound(self, label, bound):
        # the closed-form count against the brute force over r! orderings
        datum = rd(label)
        assert kv.regular_orbit_bound(datum) == len(weyl.coxeter_elements(datum)) == bound

    def test_exactness_flag(self):
        datum = rd("A2")
        assert kv.regular_bound_exact(datum, cw(2, 2), cw(1, 1))
        assert not kv.regular_bound_exact(datum, cw(2, 0), cw(1, 1))  # on a wall
        assert not kv.regular_bound_exact(datum, cw(2, 2), cw(2, 1))  # not interior


class TestExtendedDisc:
    def test_rigid_zero(self):
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [1])
        assert kv.extended_disc_valuation(cd, [1]) == 0

    def test_ramified_value(self):
        # <2 rho, alpha-vee> + d = 2 + 1
        assert kv.extended_disc_valuation(ramified_sl2(), [1]) == 3

    def test_nonnegative_on_random_nonempty_data(self):
        rng = random.Random(23)
        datum = rd("B2")
        for _ in range(40):
            nu, _ = rootdata.dominant_reduce(
                datum, cw(rng.randrange(0, 3), rng.randrange(0, 3))
            )
            residual = {
                root: Fraction(rng.randrange(0, 3))
                for root in datum.positive_roots
                if rootdata.pair_root(datum, root, nu) == 0
            }
            cd = conjugacy.split_class(datum, nu, residual)
            for lam in rootdata.dominant_integral_sweep(datum, 5):
                if kv.nonempty(cd, lam):
                    assert kv.extended_disc_valuation(cd, lam) >= 0


class TestMvDimension:
    def test_diagonal(self):
        datum = rd("A2")
        assert kv.mv_dimension(datum, [1, 1], [1, 1]) == 4

    def test_a1(self):
        assert kv.mv_dimension(rd("A1"), [1], [0]) == 1

    def test_a2_theta(self):
        assert kv.mv_dimension(rd("A2"), [1, 1], [0, 0]) == 2

    def test_precondition(self):
        with pytest.raises(UsageError):
            kv.mv_dimension(rd("A1"), [0], [1])


class TestReport:
    def test_json_round_trip(self):
        cd = conjugacy.split_class(rd("A2"), [0, 0], {(1, 1): Fraction(1)})
        rep = kv.report(cd, [2, 1])
        assert kv.KVReport.from_json(rep.to_json()) == rep

    def test_empty_report(self):
        cd = conjugacy.split_class(rd("A1"), [2])
        rep = kv.report(cd, [1])
        assert not rep.nonempty
        assert rep.dimension is None and rep.mu_star is None

    def test_report_fields_consistent(self):
        cd = ramified_sl2()
        rep = kv.report(cd, [2])
        assert rep.nonempty
        assert rep.dimension == kv.dimension(cd, [2])
        assert rep.predicted_orbits >= 1
        assert rep.d_plus == kv.extended_disc_valuation(cd, [2])
