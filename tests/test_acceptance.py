"""Acceptance suite: the ten headline guarantees of the package, each as a
single test printing one PASS line.  Tolerances are exact (all arithmetic is
rational); budgets are generous and every test runs well inside them."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from kvcalc import conjugacy, kv, multiplicity, rootdata, strata, vinberg, weyl
from oracles import action, dimension_sum, valuation_vector_for, weyl_dimension


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def cw(*coords):
    return rootdata.coweight(coords)


def _report(name):
    print(f"PASS {name}")


def test_01_coxeter_counts():
    """Products of distinct simple reflections give 2^(r-1) distinct elements
    per simple factor, checked by enumerating all r! orderings."""
    singles = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "G2", "F4"]
    for label in singles + ["A2xB2", "A1xG2", "A3xA2"]:
        datum = rd(label)
        factor_ranks = [r for _, r in datum.label]
        expected = 1
        for r in factor_ranks:
            expected *= 2 ** (r - 1)
        # brute force over every ordering of the simple reflections
        actions = set()
        for perm in permutations(range(datum.rank)):
            actions.add(action(weyl.word_to_element(datum, perm)))
        assert len(actions) == expected, label
        assert len(weyl.coxeter_elements(datum)) == expected, label
        assert weyl.coxeter_count(datum) == expected, label
    _report("coxeter-counts 2^(r-1) per factor, brute forced over r! orderings")


def test_02_freudenthal_equals_kostant():
    checked = 0
    for label in ["A1", "A2", "B2", "G2"]:
        datum = rd(label)
        for lam in multiplicity.sweep_dominant(datum, 12):
            wsys = multiplicity.weight_system(datum, lam)
            for mu in wsys:
                if not rootdata.is_dominant(datum, mu):
                    continue
                assert wsys[mu] == multiplicity.multiplicity_kostant(datum, lam, mu)
                checked += 1
    assert checked > 200
    _report(f"freudenthal-kostant agreement on {checked} dominant pairs")


def test_03_dimension_sum_equals_weyl_formula():
    checked = 0
    for label in ["A1", "A2", "B2", "G2"]:
        datum = rd(label)
        for lam in multiplicity.sweep_dominant(datum, 12):
            assert dimension_sum(datum, lam) == weyl_dimension(datum, lam)
            checked += 1
    _report(f"dimension-sum equals Weyl formula for {checked} highest weights")


def test_04_multiplicity_lower_bound():
    expected_bound = {"A2": 2, "B2": 2, "G2": 2, "A3": 4}
    checked = 0
    for label, bound in expected_bound.items():
        datum = rd(label)
        assert weyl.coxeter_count(datum) == bound
        for lam in rootdata.dominant_integral_sweep(datum, 10):
            if not all(p > 0 for p in rootdata.simple_pairings(datum, lam)):
                continue
            for mu in multiplicity.dominant_below(datum, lam):
                if not all(x > 0 for x in rootdata.sub(lam, mu)):
                    continue
                m = multiplicity.multiplicity_freudenthal(datum, lam, mu)
                assert m >= bound, (label, lam, mu, m, bound)
                checked += 1
    assert checked > 100
    _report(f"multiplicity lower bound m >= |Cox| on {checked} interior pairs")


def test_05_nilcone_strata():
    for label in ["A1", "A2", "B2", "G2", "A3"]:
        datum = rd(label)
        strata_list = vinberg.nilcone_strata(datum)
        top_dim = datum.dim_g - datum.rank
        tops = [s for s in strata_list if s.dim == top_dim]
        assert max(s.dim for s in strata_list) == top_dim, label
        assert len(tops) == len(weyl.coxeter_elements(datum)), label
        for s in strata_list:
            if s not in tops:
                assert s.dim < top_dim, (label, s)
        vinberg.nilcone_report(datum, strata_list)  # internal invariants re-checked
    _report("nilcone max dim = dim G - r with |Cox| top strata, others smaller")


def test_06_polytope_intersection_vs_grid_oracle():
    rng = random.Random(20240817)
    pair_count = 0
    for label in ["A2", "B2"]:
        datum = rd(label)
        lams = rootdata.dominant_integral_sweep(datum, 8)
        while pair_count < (100 if label == "A2" else 200):
            lam1, lam2 = rng.choice(lams), rng.choice(lams)
            mu = strata.polytope_intersection(datum, lam1, lam2)
            top = int(max(max(lam1), max(lam2)))
            for coords in product(range(4 * top + 1), repeat=datum.rank):
                for den in (1, 2, 3, 4):
                    nu = cw(*[Fraction(k, den) for k in coords])
                    if any(x > top for x in nu):
                        continue
                    both = strata.polytope_member(datum, nu, lam1) and (
                        strata.polytope_member(datum, nu, lam2)
                    )
                    assert both == strata.polytope_member(datum, nu, mu)
            pair_count += 1
    assert pair_count == 200
    _report("polytope intersection matches grid-membership oracle on 200 pairs")


def test_07_stratification_disjoint():
    datum = rd("A2")
    lams = rootdata.dominant_integral_sweep(datum, 6 + 2 * datum.rank)
    points = 0
    for nu in strata.rational_grid(datum, 6, 6):
        hits = [lam for lam in lams
                if strata.polytope_member(datum, nu, lam, open_stratum=True)]
        assert len(hits) == 1, (nu, hits)
        points += 1
    assert points > 100
    _report(f"open strata partition the dominant cone at {points} grid points")


def test_08_steinberg_equals_best_approx_equals_mu():
    rng = random.Random(11)
    cases = []
    for label in ["A1", "A2"]:
        datum = rd(label)
        for lam in rootdata.dominant_integral_sweep(datum, 6):
            for mu in multiplicity.dominant_below(datum, lam):
                cases.append((datum, lam, mu))
    cases = [rng.choice(cases) for _ in range(100)]
    for datum, lam, mu in cases:
        v = valuation_vector_for(datum, lam, mu)
        s = strata.steinberg_stratum(datum, v, lam)
        b = kv.best_integral_approx(datum, mu, lam)
        assert s == b == mu, (datum.label, lam, mu, s, b)
    _report("steinberg stratum = best integral approx = mu on 100 split classes")


def test_09_dimension_formula_coherence():
    rng = random.Random(101)
    checked = levi_checked = 0
    for label in ["A2", "A3"]:
        datum = rd(label)
        for lam in rootdata.dominant_integral_sweep(datum, 5):
            for mu in multiplicity.dominant_below(datum, lam):
                residual = {
                    root: Fraction(rng.randrange(0, 3))
                    for root in datum.positive_roots
                    if rootdata.pair_root(datum, root, mu) == 0
                }
                cd = conjugacy.split_class(
                    datum, mu, residual, rootdata.fundamental_group(datum).project(mu)
                )
                general = kv.dimension(cd, lam)
                unram, _ = kv.unramified_dimension(datum, mu, residual, lam)
                direct = rootdata.rho_pair(datum, rootdata.sub(lam, mu)) + (
                    conjugacy.r_invariant(cd)
                )
                assert general == unram == direct
                checked += 1
        # Levi decomposition of the discriminant on full residual data
        zero = rootdata.zero_coweight(datum)
        for _ in range(20):
            residual = {
                root: Fraction(rng.randrange(0, 4)) for root in datum.positive_roots
            }
            cd = conjugacy.split_class(datum, zero, residual)
            for size in range(datum.rank + 1):
                for levi in combinations(range(datum.rank), size):
                    levi = frozenset(levi)
                    r_n, relation = conjugacy.r_levi(cd, levi)
                    assert relation
                    d_m = conjugacy.levi_disc_valuation(cd, levi)
                    assert conjugacy.disc_valuation(cd) == d_m + 2 * r_n
                    levi_checked += 1
    _report(
        f"dimension formulas agree on {checked} classes; "
        f"d_G = d_M + 2 r_N on {levi_checked} Levi cases"
    )


def test_10_degenerate_cases():
    rng = random.Random(42)
    zero_cases = approx_cases = 0
    for label in ["A1", "A2", "B2"]:
        datum = rd(label)
        for _ in range(40):
            raw = cw(*[rng.randrange(0, 3) for _ in range(datum.rank)])
            nu, _ = rootdata.dominant_reduce(datum, raw)
            residual = {
                root: Fraction(rng.randrange(0, 3))
                for root in datum.positive_roots
                if rootdata.pair_root(datum, root, nu) == 0
            }
            cd = conjugacy.split_class(datum, nu, residual)
            for lam in rootdata.dominant_integral_sweep(datum, 4):
                if not kv.nonempty(cd, lam):
                    continue
                d_plus = kv.extended_disc_valuation(cd, lam)
                assert d_plus >= 0
                if d_plus == 0:
                    assert kv.dimension(cd, lam) == 0
                    assert conjugacy.newton_point(cd) == lam
                    zero_cases += 1
        # the minimal-approximant set must be a singleton everywhere we look
        for lam in rootdata.dominant_integral_sweep(datum, 4):
            for coords in product(range(9), repeat=datum.rank):
                nu = cw(*[Fraction(k, 4) for k in coords])
                if not rootdata.is_dominant(datum, nu):
                    continue
                if not rootdata.leq_q(datum, nu, lam):
                    continue
                kv.best_integral_approx(datum, nu, lam)  # raises if non-unique
                approx_cases += 1
    assert zero_cases > 0
    _report(
        f"d+ = 0 forces dimension 0 and nu = lambda ({zero_cases} hits); "
        f"best-approximant unique in {approx_cases} cases"
    )
