"""Nilpotent-cone strata in the graded setting: dimensions, top strata,
fiber indexing, and the boundedness constant."""

from fractions import Fraction

import pytest

from kvcalc import multiplicity, rootdata, vinberg, weyl


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def cw(*coords):
    return rootdata.coweight(coords)


class TestLeviDimension:
    def test_torus(self):
        assert vinberg.levi_dimension(rd("A2"), frozenset()) == 2

    def test_full_group(self):
        datum = rd("B2")
        assert vinberg.levi_dimension(datum, frozenset({0, 1})) == datum.dim_g

    def test_a2_line(self):
        # one SL2 block plus the complementary torus line
        assert vinberg.levi_dimension(rd("A2"), frozenset({0})) == 4


class TestNilconeStrata:
    def test_a1_dims(self):
        dims = sorted(s.dim for s in vinberg.nilcone_strata(rd("A1")))
        assert dims == [0, 2]

    def test_a2_top_strata(self):
        datum = rd("A2")
        tops = [s for s in vinberg.nilcone_strata(datum) if s.is_top]
        assert len(tops) == 2
        cox_actions = {e.action for e in weyl.coxeter_elements(datum)}
        for s in tops:
            assert s.j == frozenset({0, 1})
            assert s.w.action in cox_actions
            assert s.dim == datum.dim_g - datum.rank == 6

    def test_zero_stratum_present(self):
        strata_list = vinberg.nilcone_strata(rd("B2"))
        zero = [s for s in strata_list if s.j == frozenset() and s.w.is_identity()]
        assert len(zero) == 1
        assert zero[0].dim == 0

    def test_j_contained_in_support(self):
        for s in vinberg.nilcone_strata(rd("B2")):
            assert s.j <= s.w.support

    @pytest.mark.parametrize(
        "label,dim,top,count",
        [("A1", 2, 1, 2), ("A2", 6, 2, 6), ("B2", 8, 2, 10), ("G2", 12, 2, 16),
         ("F4", 48, 8, 2630)],
    )
    def test_report_values(self, label, dim, top, count):
        datum = rd(label)
        summary = vinberg.nilcone_report(datum, vinberg.nilcone_strata(datum))
        assert summary.dim == dim
        assert summary.top_count == top == weyl.coxeter_count(datum)
        assert summary.strata_count == count

    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "F4"])
    def test_top_strata_are_exactly_coxeter(self, label):
        datum = rd(label)
        tops = {s.w.action for s in vinberg.nilcone_strata(datum) if s.is_top}
        assert tops == {e.action for e in weyl.coxeter_elements(datum)}


class TestArcStrataIndex:
    def test_zero(self):
        assert vinberg.arc_strata_index(rd("A2"), cw(0, 0)) == (cw(0, 0),)

    def test_adjoint_minuscule(self):
        datum = rd("A1", "adjoint")
        omega = cw(Fraction(1, 2))
        assert vinberg.arc_strata_index(datum, omega) == (omega,)

    def test_a2_theta(self):
        assert vinberg.arc_strata_index(rd("A2"), cw(1, 1)) == (cw(0, 0), cw(1, 1))

    def test_matches_dominant_interval(self):
        datum = rd("B2")
        lam = cw(2, 1)
        assert vinberg.arc_strata_index(datum, lam) == multiplicity.dominant_below(
            datum, lam
        )


class TestBConstant:
    def test_zero(self):
        assert vinberg.b_constant(rd("A2"), cw(0, 0)) == 0

    def test_a2_theta(self):
        assert vinberg.b_constant(rd("A2"), cw(1, 1)) == 2

    def test_a1(self):
        assert vinberg.b_constant(rd("A1"), cw(1)) == 2

    def test_monotone_in_lambda(self):
        datum = rd("B2")
        for lam in rootdata.dominant_integral_sweep(datum, 4):
            for mu in multiplicity.dominant_below(datum, lam):
                assert vinberg.b_constant(datum, mu) <= vinberg.b_constant(datum, lam)
