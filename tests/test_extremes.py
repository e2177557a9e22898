"""Minimal and maximal elements: mu*, the Steinberg stratum and the Chen-Zhu
set against the pairwise filters they replaced.

The production code confirms the lowest (highest) candidate by height in one
pass over scaled integers and falls back to the pairwise filter only to list a
tie.  The oracles below are the former Fraction code: every candidate tested
against every other with ``rootdata.leq_q``.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from kvcalc import kv, multiplicity, rootdata, strata
from kvcalc.errors import InvariantViolation, UniquenessError, UsageError
from oracles import is_integral, rational_grid
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
    candidates = [mu for mu in multiplicity.dominant_below(datum, lam)
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
    for mu in multiplicity.dominant_below(datum, lam):
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
    assert rootdata._extremes(points) == [(1, 2), (2, 1), (0, 4)]
    assert [cw(*p) for p in rootdata._extremes(points)] == pairwise_minimal(datum, coweights)
    assert [cw(*p) for p in rootdata._extremes(points, highest=True)] == \
        pairwise_maximal(datum, coweights)
    assert rootdata._extremes(points[1:4]) == [(2, 1)]
    assert rootdata._extremes(points[1:4], highest=True) == [(3, 3)]
    assert rootdata._extremes([]) == []


@pytest.fixture
def tied_interval(monkeypatch):
    """A2, lambda = (2, 2), with the interval cut to (1,2), (2,1), (2,2):
    two minimal elements, which no true interval has."""
    lam = cw(2, 2)
    tied = (1, {(2, 2): lam, (1, 2): cw(1, 2), (2, 1): cw(2, 1)})
    real = multiplicity._interval
    monkeypatch.setattr(multiplicity, "_interval",
                        lambda datum, v: tied if tuple(v) == lam else real(datum, v))
    yield rd("A2"), lam


def test_tie_raises_the_oracle_message(tied_interval):
    datum, lam = tied_interval
    nu = cw(0, 0)
    with pytest.raises(UniquenessError) as got:
        kv.best_integral_approx(datum, nu, lam)
    with pytest.raises(UniquenessError) as want:
        oracle_best_integral_approx(datum, nu, lam)
    assert str(got.value) == str(want.value)
    assert "[(Fraction(1, 1), Fraction(2, 1)), (Fraction(2, 1), Fraction(1, 1))]" in str(got.value)

    v = (strata.INFINITE, strata.INFINITE)
    with pytest.raises(UniquenessError) as got:
        strata.steinberg_stratum(datum, v, lam)
    with pytest.raises(UniquenessError) as want:
        oracle_steinberg_stratum(datum, v, lam)
    assert str(got.value) == str(want.value)
