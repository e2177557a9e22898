"""The headline calculator: nonemptiness, dimensions, approximations,
component predictions, and the report object."""

import io
import json
import random
from fractions import Fraction

import pytest

from kvcalc import cli, conjugacy, kv, multiplicity, rootdata, weyl
from kvcalc.errors import InvariantViolation, KVError, UsageError
from oracles import (class_to_json, conjugate_class, fraction_disc_valuation,
                     levi_coxeter_classes, minimal_above, report_from_json)


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
        assert kv.report(cd, [1], chen_zhu=False).nonempty

    def test_newton_not_dominated(self):
        cd = conjugacy.split_class(rd("A1"), [1])
        assert not kv.report(cd, [0], chen_zhu=False).nonempty

    def test_ramified_zero_newton(self):
        assert kv.report(ramified_sl2(), [1], chen_zhu=False).nonempty

    def test_newton_point_is_the_dominant_representative(self):
        # nu_bar = -alpha-vee lies below 0, its Newton point alpha-vee does not
        cd = conjugacy.split_class(rd("A1"), [-1])
        assert not kv.report(cd, [0], chen_zhu=False).nonempty
        rep = kv.report(cd, [1], chen_zhu=False)
        assert rep.nonempty and rep.newton == rep.mu_star == cw(1)

    def test_class_mismatch(self):
        datum = rd("A1", "adjoint")
        cd = conjugacy.split_class(datum, [0, ][:1])
        # lambda in the nontrivial pi_1 class while kappa is trivial
        assert not kv.report(cd, [Fraction(1, 2)], chen_zhu=False).nonempty

    def test_invalid_lambda_rejected(self):
        cd = conjugacy.split_class(rd("A2"), [0, 0])
        with pytest.raises(UsageError, match="lambda must be dominant"):
            kv.report(cd, [-1, 0], chen_zhu=False)


class TestDimension:
    def test_split_with_residual(self):
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [0], {(1,): Fraction(1)})
        assert kv.report(cd, [1], chen_zhu=False).dimension == 2

    def test_ramified(self):
        assert kv.report(ramified_sl2(), [1], chen_zhu=False).dimension == 1

    def test_rigid_case_is_zero(self):
        # nu = lambda with generic units: d = -<2 rho, lambda>, c = 0, so the
        # dimension collapses to <rho, lambda - nu> = 0
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [1])
        assert kv.report(cd, [1], chen_zhu=False).dimension == 0

    def test_empty_raises(self):
        # the report of an empty variety carries no dimension
        cd = conjugacy.split_class(rd("A1"), [1])
        rep = kv.report(cd, [0], chen_zhu=False)
        assert not rep.nonempty and rep.dimension is None and rep.d_plus is None

    def test_empty_raises_on_random_sweep(self):
        rng = random.Random(3)
        datum = rd("A2")
        for _ in range(30):
            nu = cw(rng.randrange(0, 4), rng.randrange(0, 4))
            nu, _ = rootdata.dominant_reduce(datum, nu)
            cd = conjugacy.split_class(datum, nu)
            lams = [lam for lam in rootdata.dominant_integral_sweep(datum, 5)
                    if not kv.report(cd, lam, chen_zhu=False).nonempty]
            for lam in lams[:5]:
                rep = kv.report(cd, lam, chen_zhu=False)
                assert rep.dimension is rep.mu_star is rep.predicted_orbits is rep.d_plus is None

    def test_central_shift_moves_dimension_by_rho(self):
        # adding a dominant shift keeps d and c fixed and adds <rho, shift>
        datum = rd("A2")
        cd = conjugacy.split_class(datum, [0, 0], {(1, 1): Fraction(2)})
        base = kv.report(cd, [1, 1], chen_zhu=False).dimension
        shifted = kv.report(cd, [2, 2], chen_zhu=False).dimension
        assert shifted - base == rootdata.rho_pair(datum, cw(1, 1))


def unramified_split_class(datum, mu, residual=None):
    """The split class with integral Newton point mu, in the pi_1 class of mu."""
    return conjugacy.split_class(datum, mu, residual,
                                 rootdata.fundamental_group(datum).project(cw(*mu)))


def unramified_dimension(datum, mu, residual, lam):
    """(dimension, predicted orbits) from the report of the unramified class,
    each checked against the proven case: <rho, lam - mu> + r(gamma) and
    m_{lam,mu}, with mu* = mu."""
    mu, lam = cw(*mu), cw(*lam)
    cd = unramified_split_class(datum, mu, residual)
    rep = kv.report(cd, lam, chen_zhu=False)
    assert rep.nonempty and rep.mu_star == mu
    assert rep.dimension == (rootdata.rho_pair(datum, rootdata.sub(lam, mu))
                             + conjugacy.r_invariant(cd))
    assert rep.predicted_orbits == multiplicity.multiplicity_freudenthal(datum, lam, mu)
    return rep.dimension, rep.predicted_orbits


class TestUnramifiedDimension:
    def test_rigid(self):
        assert unramified_dimension(rd("A2"), [1, 1], {}, [1, 1]) == (0, 1)

    def test_a1_basic(self):
        assert unramified_dimension(rd("A1"), [0], {}, [1]) == (1, 1)

    def test_a2_adjoint_pair(self):
        assert unramified_dimension(rd("A2"), [0, 0], {}, [1, 1]) == (2, 2)

    def test_adjoint_newton_point_off_the_coroot_lattice(self):
        # PGL2: mu = 1/2 is a lattice coweight outside the coroot lattice
        datum = rd("A1", "adjoint")
        assert unramified_dimension(datum, [Fraction(1, 2)], None, [Fraction(3, 2)]) == (1, 1)

    def test_empty_variety_is_refused(self):
        # mu = 2 alpha-vee is not below lambda = 0: the report is empty
        rep = kv.report(unramified_split_class(rd("A1"), [2], {}), [0], chen_zhu=False)
        assert not rep.nonempty and rep.dimension is None and rep.predicted_orbits is None

    def test_matches_general_formula_with_residual(self):
        datum = rd("B2")
        residual = {
            root: Fraction(1)
            for root in datum.positive_roots
            if rootdata.pair_root(datum, root, cw(0, 0)) == 0
        }
        dim, orbits = unramified_dimension(datum, [0, 0], residual, [1, 1])
        cd = conjugacy.split_class(datum, [0, 0], residual)
        assert dim == kv.report(cd, [1, 1], chen_zhu=False).dimension
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
        # a second minimal element in the oracle's list would falsify the
        # minimality lemma
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
                assert minimal_above(datum, lam, nu) == [mu]


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
        assert kv.report(cd, [1, 1]).predicted_orbits == 1

    def test_unramified_prediction_matches_multiplicity(self):
        datum = rd("A2")
        cd = conjugacy.split_class(datum, [0, 0])
        assert kv.report(cd, [1, 1]).predicted_orbits == 2

    def test_ramified_sl2(self):
        cd = ramified_sl2()
        # best approximation of 0 below 2 alpha-vee is 0; the dual weight
        # space is 1-dimensional
        assert kv.report(cd, [2]).predicted_orbits == 1

    @pytest.mark.parametrize("label,bound", [("A1", 1), ("A2", 2), ("A3", 4), ("G2", 2),
                                             ("F4", 8), ("A2xB3", 8)])
    def test_regular_orbit_bound(self, label, bound):
        # the closed-form count against the brute force over r! orderings
        datum = rd(label)
        assert weyl.coxeter_count(datum) == len(weyl.coxeter_elements(datum)) == bound

    def test_exactness_flag(self):
        datum = rd("A2")
        assert kv.regular_bound_exact(datum, cw(2, 2), cw(1, 1))
        assert not kv.regular_bound_exact(datum, cw(2, 0), cw(1, 1))  # not dominant
        assert not kv.regular_bound_exact(datum, cw(2, 1), cw(0, 0))  # on the alpha_2 wall
        assert not kv.regular_bound_exact(datum, cw(2, 2), cw(2, 1))  # not interior


class TestExtendedDisc:
    def test_rigid_zero(self):
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [1])
        assert kv.report(cd, [1], chen_zhu=False).d_plus == 0

    def test_ramified_value(self):
        # <2 rho, alpha-vee> + d = 2 + 1
        assert kv.report(ramified_sl2(), [1], chen_zhu=False).d_plus == 3

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
                rep = kv.report(cd, lam, chen_zhu=False)
                if rep.nonempty:
                    assert rep.d_plus >= 0


class TestReport:
    def test_json_round_trip(self):
        cd = conjugacy.split_class(rd("A2"), [0, 0], {(1, 1): Fraction(1)})
        rep = kv.report(cd, [2, 1])
        assert report_from_json(rep.to_json()) == rep

    def test_empty_report(self):
        cd = conjugacy.split_class(rd("A1"), [2])
        rep = kv.report(cd, [1])
        assert not rep.nonempty
        assert rep.dimension is None and rep.mu_star is None

    def test_report_fields_consistent(self):
        # dimension <rho, lambda> + (d - c)/2 and d_+ = 2 <rho, lambda> + d,
        # with d from the Fraction oracle and c from the twist's fixed space
        a2 = rd("A2")
        cases = [(ramified_sl2(), cw(2), 1),
                 (conjugacy.split_class(a2, [0, 0], {(1, 1): Fraction(1)}), cw(2, 1), 0),
                 (conjugacy.make_class(a2, weyl.word_to_element(a2, [0, 1]), [0, 0]), cw(2, 2), 2)]
        for cd, lam, c in cases:
            rep = kv.report(cd, lam)
            assert rep.nonempty
            d = fraction_disc_valuation(cd)
            rho = rootdata.rho_pair(cd.rd, lam)
            assert (rep.d, rep.c) == (d, c)
            assert rep.dimension == rho + (d - c) / 2
            assert rep.predicted_orbits >= 1
            assert rep.d_plus == 2 * rho + d

    def test_d_plus_zero_off_the_rigid_case_is_refused(self):
        # r = -1 passes no validation; built directly it gives d = -2, so at
        # lambda = alpha-vee d_+ = 0 and the dimension is 0, with nu = 0 != lambda
        datum = rd("A1")
        cd = conjugacy.ClassDatum(rd=datum, w=weyl.identity_element(datum), e=1, nu_bar=cw(0),
                                  residual=(((1,), Fraction(-1)),), kappa=(0,))
        with pytest.raises(InvariantViolation,
                           match="^d_\\+ = 0 but Newton point differs from lambda$"):
            kv.report(cd, [1])

    def test_lambda_is_checked_once_and_nonemptiness_tested_once(self, monkeypatch):
        calls = count_checks(monkeypatch)
        tested = []
        real = rootdata.leq_q

        def counted(*args):
            tested.append(args)
            return real(*args)
        monkeypatch.setattr(rootdata, "leq_q", counted)
        cd = conjugacy.split_class(rd("A2"), [0, 0], {(1, 1): Fraction(1)})
        assert kv.report(cd, [2, 1]).nonempty
        assert calls == ["lambda"]
        assert len(tested) == 1


# each type under sc and adjoint, but A4 under sc only: its adjoint family of
# 667 classes would take as long as all the others together
CONJUGATION_DATA = [(label, isogeny) for label in ["A2", "B2", "G2", "A3", "B3", "C3", "A1xB2"]
                    for isogeny in ("sc", "adjoint")] + [("A4", "sc")]


def report_outcome(cd, lam):
    """The report, or the refusal (type and message) of a class whose
    dimension at lam is not an integer."""
    try:
        return kv.report(cd, lam)
    except KVError as exc:
        return type(exc).__name__, str(exc)


class TestConjugateRecords:
    """(w, e, nu_bar, r, kappa) and (s w s^-1, e, s nu_bar, r o s^-1, kappa)
    record one class gamma, and the variety depends on gamma alone, so every
    report field agrees.  r(gamma), which depends on the positive system
    relative to nu_bar, is no report field.  Half of the Levi-Coxeter family
    has nu_bar off the dominant chamber, and a conjugate moves it, so the
    report must read the dominant Newton point, not the recorded nu_bar."""

    @pytest.mark.parametrize("label,isogeny", CONJUGATION_DATA)
    def test_report_depends_on_the_class_alone(self, label, isogeny):
        datum = rd(label, isogeny)
        rng = random.Random(f"{label} {isogeny}")
        group = weyl.enumerate_group(datum)
        sweep = rootdata.dominant_integral_sweep(datum, 4)
        classes = levi_coxeter_classes(datum)
        assert classes and not any(conjugacy.is_split(cd) for cd in classes)
        for cd in classes:
            reports = [report_outcome(cd, lam) for lam in sweep]
            for s in rng.sample(group, 3):
                other = conjugate_class(cd, s)
                assert [report_outcome(other, lam) for lam in sweep] == reports, (cd, s)

    def test_the_family_leaves_the_dominant_chamber(self):
        classes = [cd for label, isogeny in CONJUGATION_DATA
                   for cd in levi_coxeter_classes(rd(label, isogeny))]
        off = [cd for cd in classes if not rootdata.is_dominant(cd.rd, cd.nu_bar)]
        assert len(classes) == 903 and len(off) == 445
        assert sum(any(cd.nu_bar) for cd in classes) == 746


def count_checks(monkeypatch) -> list:
    """The ``what`` of every ``rootdata.check_dominant`` call from now on."""
    calls = []
    real = rootdata.check_dominant

    def counted(rd, v, what):
        calls.append(what)
        return real(rd, v, what)
    monkeypatch.setattr(rootdata, "check_dominant", counted)
    return calls


class TestCheckedOnce:
    """Each coweight operand is checked once, by the public function it
    enters; the interval, the weight system and mu* trust that check."""

    def test_a_dim_report_checks_lambda_once(self, monkeypatch, tmp_path):
        # a cold cache, so that the weight system and its interval are built here
        multiplicity._weight_system.cache_clear()
        path = tmp_path / "class.json"
        path.write_text(json.dumps(class_to_json(conjugacy.split_class(rd("A3"), [2, 2, 2]))))
        calls = count_checks(monkeypatch)
        out = io.StringIO()
        assert cli.run(["dim", "--class", str(path), "--lambda", "4,4,4"], out=out) == 0
        assert "nonempty true" in out.getvalue()
        assert calls == ["lambda"]  # five before this change

    def test_components_checks_lambda_once(self, monkeypatch, tmp_path):
        path = tmp_path / "class.json"
        path.write_text(json.dumps(class_to_json(conjugacy.split_class(rd("A3"), [1, 1, 1]))))
        calls = count_checks(monkeypatch)
        out = io.StringIO()
        assert cli.run(["components", "--class", str(path), "--lambda", "3,3,3"], out=out) == 0
        assert out.getvalue().startswith("predicted-orbits ")
        assert calls == ["lambda"]

    def test_lower_bound_reads_each_weight_system_once(self, monkeypatch):
        calls = count_checks(monkeypatch)
        out = io.StringIO()
        argv = ["verify", "lower-bound", "--type", "A2,B2,G2,A3,B3,C3", "--height", "8"]
        assert cli.run(argv, out=out) == 0
        *rows, verdict = [line.split("\t") for line in out.getvalue().splitlines()]
        assert verdict == ["PASS"] and len(rows) == 77
        lams = {(label, lam) for label, lam, *_ in rows}
        # lambda once per lambda with a row (its weight system), mu never
        assert len(lams) == 17
        assert calls == ["lambda"] * len(lams)

    def test_dimension_consistency_checks_each_row_operand_once(self, monkeypatch):
        calls = count_checks(monkeypatch)
        out = io.StringIO()
        argv = ["verify", "dimension-consistency", "--height", "7", "--count", "0"]
        assert cli.run(argv, out=out) == 0
        *rows, verdict = [line.split("\t") for line in out.getvalue().splitlines()]
        assert verdict == ["PASS"]
        lams = {(label, lam) for label, lam, *_ in rows}
        # lambda once per row (`kv.report`) and once per `weight_system`, mu never
        assert calls.count("mu") == 0
        assert len(calls) == len(rows) + len(lams) == 126
