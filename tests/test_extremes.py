"""Least and greatest elements: mu*, the Steinberg stratum and the Chen-Zhu
set against the searches they replaced.

mu* and the Steinberg stratum are the least dominant coweight below lambda
above a floor, found by ``rootdata._least_above`` as an ascent from the
floor.  Its oracle, ``oracles.minimal_above``, searches the whole dominance
interval and lists every minimal element, so a tie would show there.  The
Chen-Zhu set walks its candidates, scaled integers, in decreasing tuple
order and keeps each one that no kept candidate is above.  The other oracles
below are the former Fraction code: every candidate tested against every
other with ``rootdata.leq_q``, over the dominance interval of
``oracle_dominant_below``.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from kvcalc import kv, rootdata, strata
from kvcalc.errors import InvariantViolation, SizeGuardError, UniquenessError, UsageError
from oracles import is_integral, minimal_above, oracle_dominant_below, rational_grid
from test_multiplicity import dominant_lattice_weights


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def cw(*coords):
    return rootdata.coweight(coords)


def pairwise_minimal(datum, candidates):
    return [mu for mu in candidates
            if not any(m != mu and rootdata.leq_q(datum, m, mu) for m in candidates)]


def pairwise_maximal(datum, candidates):
    return [v for v in candidates
            if not any(m != v and rootdata.leq_q(datum, v, m) for m in candidates)]


def oracle_best_integral_approx(datum, nu, lam):
    nu = rootdata.coweight(nu)
    lam = rootdata.coweight(lam)
    candidates = [mu for mu in oracle_dominant_below(datum, lam)
                  if rootdata.leq_q(datum, nu, mu)]
    if not candidates:
        raise InvariantViolation(f"lambda {lam} is not a candidate above {nu}")
    minimal = pairwise_minimal(datum, candidates)
    if len(minimal) != 1:
        raise UniquenessError(
            f"minimal dominant approximations of {nu} below {lam} are not unique: {minimal}"
        )
    return minimal[0]


def oracle_steinberg_stratum(datum, c_vals, lam):
    lam = rootdata.coweight(lam)
    candidates = []
    for mu in oracle_dominant_below(datum, lam):
        ok = True
        for i in range(datum.rank):
            a_i = c_vals[datum.iota[i]]
            if a_i is strata.INFINITE:
                continue
            if Fraction(a_i) < lam[i] - mu[i]:
                ok = False
                break
        if ok:
            candidates.append(mu)
    if not candidates:
        raise UsageError("valuation vector matches no stratum below lambda")
    minimal = pairwise_minimal(datum, candidates)
    if len(minimal) != 1:
        raise UniquenessError(f"Steinberg stratum below {lam} is not unique: {minimal}")
    return minimal[0]


def oracle_chen_zhu_approx(datum, nu):
    nu = rootdata.coweight(nu)
    q = max(rootdata.fundamental_group(datum).invariant_factors, default=1)
    grids = [[Fraction(k, q) for k in range(int(x * q) + 1)] for x in nu]
    candidates = []
    for coords in product(*grids):
        v = rootdata.coweight(coords)
        if (rootdata.leq_q(datum, v, nu) and rootdata.is_dominant(datum, v)
                and is_integral(datum, v)):
            candidates.append(v)
    return tuple(sorted(pairwise_maximal(datum, candidates)))


def outcome(fn, *args):
    """The value, or the type and text of the error, so that two functions
    can be compared on inputs where they refuse."""
    try:
        return fn(*args)
    except (InvariantViolation, UniquenessError, UsageError) as exc:
        return type(exc).__name__, str(exc)


# (type, height of the nu grids, pairing cap of the lambdas); rank 3 smaller
GRID_TYPES = [("A1", 3, 6), ("A2", 2, 5), ("B2", 2, 4), ("G2", 2, 3), ("A3", 1, 3),
              ("B3", 1, 3), ("A1xB2", 1, 3)]


@pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
@pytest.mark.parametrize("label,height,cap", GRID_TYPES)
def test_minimal_and_maximal_match_pairwise_oracle(label, height, cap, isogeny):
    datum = rd(label, isogeny)
    lams = dominant_lattice_weights(datum, cap)
    pairs = 0
    for den in range(1, 7):
        for nu in rational_grid(datum, height, den):
            assert kv.chen_zhu_approx(datum, nu) == oracle_chen_zhu_approx(datum, nu)
            for lam in lams:
                if rootdata.leq_q(datum, nu, lam):
                    assert (outcome(kv.best_integral_approx, datum, nu, lam)
                            == outcome(oracle_best_integral_approx, datum, nu, lam)), (nu, lam)
                    assert (strata.polytope_member(datum, nu, lam, open_stratum=True)
                            == (oracle_best_integral_approx(datum, nu, lam) == lam))
                    pairs += 1
    assert pairs > len(lams)


@pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
@pytest.mark.parametrize("label,height,cap", GRID_TYPES)
def test_steinberg_matches_pairwise_oracle(label, height, cap, isogeny):
    datum = rd(label, isogeny)
    rng = random.Random(5)
    for lam in dominant_lattice_weights(datum, cap):
        for _ in range(12):
            den = rng.randint(1, 6)
            c_vals = tuple(strata.INFINITE if rng.random() < 0.25
                           else Fraction(rng.randint(0, 3 * den), den)
                           for _ in range(datum.rank))
            assert (outcome(strata.steinberg_stratum, datum, c_vals, lam)
                    == outcome(oracle_steinberg_stratum, datum, c_vals, lam)), (lam, c_vals)


def test_extremes_match_pairwise_on_hand_built_points():
    datum = rd("A2")
    points = [(1, 2), (2, 1), (2, 2), (3, 3), (0, 4)]
    coweights = [cw(*p) for p in points]
    assert rootdata._extremes(points) == [(0, 4), (3, 3)]
    assert ([cw(*p) for p in rootdata._extremes(points)]
            == sorted(pairwise_maximal(datum, coweights)))
    assert rootdata._extremes(points[1:4]) == [(3, 3)]
    assert rootdata._extremes([]) == []


@pytest.mark.parametrize("isogeny", ["sc", "adjoint"])
@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_mu_star_is_the_same_from_every_integral_lambda_above_nu(label, isogeny):
    """Over the grid of `verify chen-zhu-compare --height 4`: an integral
    lambda only bounds the ascent from ceil(nu), so the suite may read mu*
    from the first lambda above nu."""
    datum = rd(label, isogeny)
    lams = rootdata.dominant_integral_sweep(datum, 4 + 2 * datum.rank)
    for nu in rational_grid(datum, 4, 4):
        above = [lam for lam in lams if rootdata.leq_q(datum, nu, lam)]
        assert len(above) > 1, nu
        assert len({kv.best_integral_approx(datum, nu, lam) for lam in above}) == 1, nu


# (type, isogeny, cap on the pairings of lambda): sc, adjoint, products and
# the A3 lattice between them, with lambda up to height 40 on A2
LEAST_ABOVE_TYPES = [
    ("A1", "sc", 12), ("A1", "adjoint", 12), ("A2", "sc", 40), ("A2", "adjoint", 10),
    ("A3", "sc", 5), ("A3", "adjoint", 4), ("A3", [[1, 0, 1], [0, 1, 0], [0, 0, 2]], 4),
    ("A4", "sc", 3), ("B2", "sc", 16), ("B2", "adjoint", 8), ("B3", "sc", 4), ("B4", "sc", 2),
    ("C3", "sc", 4), ("C3", "adjoint", 3), ("D4", "sc", 3), ("G2", "sc", 12), ("F4", "sc", 2),
    ("E6", "sc", 2), ("A1xB2", "sc", 4), ("A1xA2", "adjoint", 4),
]


def test_least_above_is_the_one_minimal_element_of_the_interval():
    """At every lambda: the zero floor, lambda itself, and four random
    rational floors, some below 0 and some above lambda."""
    rng = random.Random(26)
    cases = 0
    for label, isogeny, cap in LEAST_ABOVE_TYPES:
        datum = rd(label, isogeny)
        for lam in dominant_lattice_weights(datum, cap):
            floors = [[0] * datum.rank, list(lam)]
            for _ in range(4):
                den = rng.randint(1, 6)
                floors.append([Fraction(rng.randint(-den, int((x + 1) * den)), den) for x in lam])
            for low in floors:
                least = rootdata._least_above(datum, lam, low)
                assert minimal_above(datum, lam, low) == ([] if least is None else [least]), \
                    (label, isogeny, lam, low)
                cases += 1
    assert cases > 4000


def test_least_above_keeps_the_bound_of_the_interval_it_no_longer_walks():
    datum = rd("A2")
    lam = cw(3000, 3000)  # a box of 3001^2 points, over the cap
    refused = "the dominance interval would visit 9006001 tuples, over the cap of 2000000"
    with pytest.raises(SizeGuardError) as exc:
        kv.best_integral_approx(datum, cw(0, 0), lam)
    assert str(exc.value) == refused
    with pytest.raises(SizeGuardError) as exc:
        strata.steinberg_stratum(datum, (1, 1), lam)
    assert str(exc.value) == refused
    # under the cap, answered by the ascent alone (iota swaps the two c-values)
    lam = cw(1400, 1400)
    assert kv.best_integral_approx(datum, cw(0, 0), lam) == cw(0, 0)
    assert strata.steinberg_stratum(datum, (Fraction(1, 2), 3), lam) == cw(1397, 1400)
