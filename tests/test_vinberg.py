"""Nilpotent-cone strata in the graded setting: dimensions and top strata."""

from fractions import Fraction

import pytest

from kvcalc import multiplicity, rootdata, vinberg, weyl
from oracles import action, oracle_nilcone_strata


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
        tops = [s for s in vinberg.nilcone_strata(datum) if s.dim == datum.dim_g - datum.rank]
        assert len(tops) == 2
        cox_actions = {action(e) for e in weyl.coxeter_elements(datum)}
        for s in tops:
            assert s.j == frozenset({0, 1})
            assert action(s.w) in cox_actions
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
        tops = {action(s.w) for s in vinberg.nilcone_strata(datum)
                if s.dim == datum.dim_g - datum.rank}
        assert tops == {action(e) for e in weyl.coxeter_elements(datum)}

    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4",
                                       "F4", "A1xB2"])
    def test_table_matches_brute_force_in_print_order(self, label):
        """Content and order of the whole table, against the strata read off
        every element's descents and support, with no double-coset filter."""
        datum = rd(label)
        got = [(tuple(sorted(s.j)), s.w.word, s.dim) for s in vinberg.nilcone_strata(datum)]
        assert got == oracle_nilcone_strata(datum)


class TestArcStrataIndex:
    """The arc-space Cartan strata in the closure of the lambda-stratum are
    indexed by the dominance interval: dominant mu <= lambda."""

    def test_zero(self):
        assert tuple(multiplicity.weight_system(rd("A2"), cw(0, 0))) == (cw(0, 0),)

    def test_adjoint_minuscule(self):
        datum = rd("A1", "adjoint")
        omega = cw(Fraction(1, 2))
        assert tuple(multiplicity.weight_system(datum, omega)) == (omega,)

    def test_a2_theta(self):
        assert tuple(multiplicity.weight_system(rd("A2"), cw(1, 1))) == (cw(0, 0), cw(1, 1))
