"""Class data: validation, Newton points, discriminant valuations, Levi
invariants, and the JSON interchange format."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvcalc import conjugacy, multiplicity, rootdata, weyl
from kvcalc.errors import InvariantViolation, KVError, UsageError
from oracles import (class_to_json, fraction_disc_valuation, fraction_levi_disc_valuation,
                     fraction_r_invariant, fraction_r_levi, fraction_residual_value,
                     fraction_val_one_minus, is_integral, levi_coxeter_classes, reflect,
                     val_one_minus)


def rd(label, isogeny="sc"):
    return rootdata.build_root_datum(label, isogeny)


def cw(*coords):
    return rootdata.coweight(coords)


def ramified_sl2(r_alpha=Fraction(1, 2)):
    datum = rd("A1")
    s = weyl.word_to_element(datum, [0])
    return conjugacy.make_class(datum, s, [0], {(1,): r_alpha})


class TestValidation:
    def test_split_datum_ok(self):
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [1])
        assert conjugacy.validate(cd) == []

    def test_unstable_newton_rejected(self):
        datum = rd("A1")
        s = weyl.word_to_element(datum, [0])
        with pytest.raises(UsageError, match="w\\(nu_bar\\)"):
            conjugacy.make_class(datum, s, [Fraction(1, 2)])

    def test_newton_point_must_be_in_the_cocharacter_lattice(self):
        # e * nu_bar must lie in X_*(T): 1/2 does for PGL2, not for SL2
        assert conjugacy.validate(
            conjugacy.split_class(rd("A1", "adjoint"), [Fraction(1, 2)], kappa=(1,))
        ) == []
        with pytest.raises(UsageError, match="newton-denominator"):
            conjugacy.split_class(rd("A1"), [Fraction(1, 2)])

    def test_split_kappa_is_the_class_of_nu_bar(self):
        datum = rd("A1", "adjoint")
        with pytest.raises(UsageError, match="fundamental-group class"):
            conjugacy.split_class(datum, [Fraction(1, 2)])
        with pytest.raises(UsageError, match="fundamental-group class"):
            conjugacy.split_class(datum, [1], kappa=(1,))

    def test_residual_denominator_rejected(self):
        with pytest.raises(UsageError, match="denominator"):
            ramified_sl2(Fraction(1, 3))

    def test_negative_residual_rejected(self):
        datum = rd("A1")
        with pytest.raises(UsageError, match="negative"):
            conjugacy.split_class(datum, [0], {(1,): Fraction(-1)})

    def test_residual_must_vanish_on_newton(self):
        datum = rd("A1")
        with pytest.raises(UsageError, match="vanish"):
            conjugacy.split_class(datum, [1], {(1,): Fraction(1)})

    def test_w_symmetry_of_residual(self):
        # the Coxeter twist of A2 permutes the three positive root pairs, so
        # unequal values are inconsistent
        datum = rd("A2")
        cox = weyl.word_to_element(datum, [0, 1])
        with pytest.raises(UsageError, match="symmetry"):
            conjugacy.make_class(
                datum, cox, [0, 0],
                {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3), (1, 1): Fraction(1, 3)},
            )
        cd = conjugacy.make_class(
            datum, cox, [0, 0],
            {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 1): Fraction(1, 3)},
        )
        assert cd.e == 3


class TestNewtonPoint:
    def test_dominant_is_fixed(self):
        datum = rd("A2")
        cd = conjugacy.split_class(datum, [2, 1])
        assert conjugacy.newton_point(cd) == cw(2, 1)

    def test_antidominant_goes_to_w0_image(self):
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [-1])
        assert conjugacy.newton_point(cd) == cw(1)

    def test_ramified_is_zero(self):
        assert conjugacy.newton_point(ramified_sl2()) == cw(0)


class TestDiscValuation:
    def test_split_central(self):
        datum = rd("A1")
        for n in range(4):
            cd = conjugacy.split_class(datum, [0], {(1,): Fraction(n)})
            assert conjugacy.disc_valuation(cd) == 2 * n

    def test_split_regular_newton(self):
        # diag(pi, pi^-1) in SL2: val(alpha(gamma)-1) + val(alpha^-1(gamma)-1)
        # = 0 + (-2)
        datum = rd("A1")
        cd = conjugacy.split_class(datum, [1])
        assert conjugacy.disc_valuation(cd) == -2

    def test_ramified_half(self):
        assert conjugacy.disc_valuation(ramified_sl2()) == 1

    def test_invariant_under_weyl_image_of_newton(self):
        datum = rd("B2")
        for coords in [(1, 0), (0, 1), (2, 1)]:
            lam, _ = rootdata.dominant_reduce(datum, cw(*coords))
            base = conjugacy.split_class(datum, lam)
            d0 = conjugacy.disc_valuation(base)
            for i in range(datum.rank):
                flipped = conjugacy.split_class(datum, reflect(datum, i, lam))
                assert conjugacy.disc_valuation(flipped) == d0

    def test_unramified_specialization(self):
        # w = id and r = 0 force d = -<2 rho, dominant Newton point>
        datum = rd("A3")
        for lam in rootdata.dominant_integral_sweep(datum, 4):
            cd = conjugacy.split_class(datum, lam)
            assert conjugacy.disc_valuation(cd) == -2 * rootdata.rho_pair(datum, lam)

    def test_shifted_positivity(self):
        # d + <2 rho, nu> = 2 sum r_alpha >= 0 on randomized valid data
        rng = random.Random(7)
        datum = rd("B2")
        for _ in range(50):
            lam, _ = rootdata.dominant_reduce(
                datum, cw(rng.randrange(0, 3), rng.randrange(0, 3))
            )
            residual = {
                root: Fraction(rng.randrange(0, 3))
                for root in datum.positive_roots
                if rootdata.pair_root(datum, root, lam) == 0
            }
            cd = conjugacy.split_class(datum, lam, residual)
            slack = conjugacy.disc_valuation(cd) + 2 * rootdata.rho_pair(
                datum, conjugacy.newton_point(cd)
            )
            assert slack == 2 * sum(residual.values())
            assert slack >= 0


# ---------------------------------------------------------------------------
# the pair_root-based invariants that the cached nu_bar pairings replaced


def oracle_disc_valuation(cd):
    total = 2 * sum(v for _, v in cd.residual)
    for root in cd.rd.positive_roots:
        total -= abs(rootdata.pair_root(cd.rd, root, cd.nu_bar))
    return Fraction(total)


def oracle_val_one_minus(cd, root):
    p = rootdata.pair_root(cd.rd, root, cd.nu_bar)
    if p != 0:
        return min(Fraction(p), Fraction(0))
    return cd.residual_value(root)


def pairing_classes():
    """Split classes with rational nu_bar, built without validation (a split
    class needs e = 1, so validation would refuse the fractions), and valid
    classes twisted by a Coxeter element of one factor, fixing a rational
    nu_bar on the other."""
    rng = random.Random(3)
    out = []
    for label in ["A2", "B2", "G2", "A3", "A1xB2"]:
        datum = rd(label)
        for _ in range(6):
            nu_bar = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                           for _ in range(datum.rank))
            residual = tuple((root, Fraction(rng.randint(0, 6), rng.randint(1, 3)))
                             for root in datum.positive_roots[:2])
            out.append(conjugacy.ClassDatum(
                rd=datum, w=weyl.identity_element(datum), e=1, nu_bar=nu_bar,
                residual=residual, kappa=rootdata.fundamental_group(datum).zero()))
    # Coxeter element of the second factor; nu_bar = (k/2, 0, ...) on the first
    for label, word, order in [("A1xB2", [1, 2], 4), ("A1xA1", [1], 2)]:
        datum = rd(label)
        cox = weyl.word_to_element(datum, word)
        residual = {root: Fraction(1, order) for root in datum.positive_roots if root[0] == 0}
        for k in range(-3, 4):
            nu_bar = (Fraction(k, 2),) + (0,) * (datum.rank - 1)
            out.append(conjugacy.make_class(datum, cox, nu_bar, residual))
    return out


class TestCachedPairings:
    def test_root_pairings_match_pair_root(self):
        for cd in pairing_classes():
            d, p = cd.nu_pairings
            for root in cd.rd.positive_roots:
                got = Fraction(sum(a * b for a, b in zip(root, p)), d)
                assert got == rootdata.pair_root(cd.rd, root, cd.nu_bar), (cd, root)

    def test_invariants_match_pair_root_oracles(self):
        classes = pairing_classes()
        assert any(not conjugacy.is_split(cd) and any(cd.nu_bar) for cd in classes)
        for cd in classes:
            big, vals, d = cd.valuations
            assert Fraction(d, big) == oracle_disc_valuation(cd)
            if d % big:
                with pytest.raises(InvariantViolation, match="is not an integer"):
                    conjugacy.disc_valuation(cd)
            else:
                assert conjugacy.disc_valuation(cd) == oracle_disc_valuation(cd)
            for root in cd.rd.positive_roots:
                for r in (root, tuple(-x for x in root)):
                    assert Fraction(vals[r], big) == oracle_val_one_minus(cd, r)
            assert conjugacy.r_invariant(cd) == sum(
                (oracle_val_one_minus(cd, root) for root in cd.rd.positive_roots), Fraction(0))


def table_classes():
    """Split classes with random integer residuals on some of the roots that
    vanish on a random nu_bar in the lattice, under sc and adjoint, and
    classes twisted by a Coxeter element of order h with residual k/h on
    every root (those with d(gamma) an integer, which validation asks for)."""
    rng = random.Random(7)
    out = []
    for label in ["A2", "A3", "B2", "G2", "B3", "C3", "A1xB2"]:
        for isogeny in ("sc", "adjoint"):
            datum = rd(label, isogeny)
            grp = rootdata.fundamental_group(datum)
            q = max(grp.invariant_factors)
            while sum(cd.rd == datum for cd in out) < 8:
                nu_bar = cw(*(Fraction(rng.randint(-2, 2), q) for _ in range(datum.rank)))
                if not is_integral(datum, nu_bar):
                    continue
                residual = {root: Fraction(rng.randint(0, 3)) for root in datum.positive_roots
                            if rootdata.pair_root(datum, root, nu_bar) == 0 and rng.random() < 0.7}
                out.append(conjugacy.split_class(datum, nu_bar, residual, grp.project(nu_bar)))
        datum = rd(label)
        cox = weyl.word_to_element(datum, list(range(datum.rank)))
        h = cox.order()
        for k in range(4):
            if 2 * datum.num_positive_roots * k % h == 0:
                residual = {root: Fraction(k, h) for root in datum.positive_roots}
                zero = rootdata.zero_coweight(datum)
                out.append(conjugacy.make_class(datum, cox, zero, residual))
    return out


def levi_coxeter_family():
    """`levi_coxeter_classes` under sc and adjoint: twisted classes, most
    with nu_bar not 0 and many with nu_bar off the dominant chamber."""
    return [cd for label in ["A2", "B2", "G2", "A3", "A1xB2"] for isogeny in ("sc", "adjoint")
            for cd in levi_coxeter_classes(rd(label, isogeny))]


def outcome(f, *args):
    """f(*args), or the type and text of the KVError it raised."""
    try:
        return f(*args)
    except KVError as exc:
        return type(exc), str(exc)


class TestIntegerTable:
    """The per-class integer table against the Fraction sums it replaced."""

    @pytest.mark.parametrize("classes", [table_classes, pairing_classes, levi_coxeter_family])
    def test_invariants_match_the_fraction_sums(self, classes):
        classes = classes()
        assert any(not conjugacy.is_split(cd) for cd in classes)
        assert any(x.denominator != 1 for cd in classes for x in cd.nu_bar)
        for cd in classes:
            datum = cd.rd
            big, vals, _ = cd.valuations
            for root in datum.positive_roots:
                for r in (root, tuple(-x for x in root)):
                    assert cd.residual_value(r) == fraction_residual_value(cd, r)
                    assert Fraction(vals[r], big) == fraction_val_one_minus(cd, r)
            assert conjugacy.r_invariant(cd) == fraction_r_invariant(cd)
            assert (outcome(conjugacy.disc_valuation, cd)
                    == outcome(fraction_disc_valuation, cd))
            for size in range(datum.rank + 1):
                for levi in combinations(range(datum.rank), size):
                    got = outcome(conjugacy.r_levi, cd, frozenset(levi))
                    assert got == outcome(fraction_r_levi, cd, frozenset(levi))
                    if got[1] is True:  # then r_levi's d_M is d_G - 2 r_N
                        d_m = fraction_disc_valuation(cd) - 2 * got[0]
                        assert d_m == fraction_levi_disc_valuation(cd, levi)

    def test_split_classes_reach_the_levi_relation(self):
        # the split classes above check r_levi's sums, not only its refusals
        split = [cd for cd in table_classes() if conjugacy.is_split(cd)]
        assert len(split) == 7 * 2 * 8
        assert any(cd.residual for cd in split)
        assert all(conjugacy.r_levi(cd, frozenset(range(cd.rd.rank)))[1] for cd in split)

    def test_a_fractional_discriminant_is_refused(self):
        # the Coxeter element of A1xB2 has order 4; r = 1/4 on all 5 positive
        # roots passes every other check, and d = 2 * 5/4 is not an integer
        datum = rd("A1xB2")
        cox = weyl.word_to_element(datum, [0, 1, 2])
        residual = {root: Fraction(1, 4) for root in datum.positive_roots}
        with pytest.raises(UsageError) as got:
            conjugacy.make_class(datum, cox, [0, 0, 0], residual)
        assert str(got.value) == "invalid class datum: discriminant: d = 5/2 is not an integer"

    def test_a_root_given_twice_keeps_the_messages_in_order(self):
        datum = rd("A2")
        with pytest.raises(UsageError) as got:
            conjugacy.split_class(datum, [0, 0], {(1, 1): 1, ("1", "1"): 2})
        assert str(got.value) == (
            "invalid class datum: residual-root: duplicate entry for (1, 1); "
            "residual-symmetry: r differs on (1, 1) and its w-image")
        cd = conjugacy.ClassDatum(rd=datum, w=weyl.identity_element(datum), e=1,
                                  nu_bar=cw(0, 0), residual=(((1, 1), Fraction(1)),
                                                             ((1, 1), Fraction(2))),
                                  kappa=(0, 0))
        # the first entry is the one read, as the scan of the list read it
        assert cd.residual_value((1, 1)) == cd.residual_value((-1, -1)) == 1
        assert fraction_residual_value(cd, (1, 1)) == 1


class TestCInvariant:
    def test_split_is_zero(self):
        assert conjugacy.split_class(rd("A2"), [1, 1]).c == 0

    def test_sl2_reflection(self):
        assert ramified_sl2().c == 1

    def test_a2_coxeter_elliptic(self):
        datum = rd("A2")
        cox = weyl.word_to_element(datum, [0, 1])
        cd = conjugacy.make_class(datum, cox, [0, 0])
        assert cd.c == 2


class TestLeviInvariants:
    def test_a2_worked_example(self):
        datum = rd("A2")
        cd = conjugacy.split_class(
            datum, [0, 0],
            {(1, 0): Fraction(1), (0, 1): Fraction(2), (1, 1): Fraction(3)},
        )
        assert conjugacy.disc_valuation(cd) == 12
        r_n, relation = conjugacy.r_levi(cd, {0})
        assert r_n == 5
        assert relation
        assert conjugacy.disc_valuation(cd) - 2 * r_n == 2 == fraction_levi_disc_valuation(cd, {0})

    def test_full_levi_is_trivial(self):
        datum = rd("A2")
        cd = conjugacy.split_class(datum, [0, 0], {(1, 0): Fraction(2)})
        r_n, relation = conjugacy.r_levi(cd, {0, 1})
        assert r_n == 0 and relation

    def test_borel_case(self):
        datum = rd("A2")
        cd = conjugacy.split_class(datum, [0, 0], {(1, 1): Fraction(4)})
        r_n, relation = conjugacy.r_levi(cd, set())
        assert 2 * r_n == conjugacy.disc_valuation(cd)
        assert relation

    @pytest.mark.parametrize("label", ["A2", "A3"])
    def test_nested_levi_additivity(self, label):
        rng = random.Random(11)
        datum = rd(label)
        zero = rootdata.zero_coweight(datum)
        for _ in range(10):
            residual = {
                root: Fraction(rng.randrange(0, 4)) for root in datum.positive_roots
            }
            cd = conjugacy.split_class(datum, zero, residual)
            subsets = [frozenset(c) for k in range(datum.rank + 1)
                       for c in combinations(range(datum.rank), k)]
            for small in subsets:
                for big in subsets:
                    if not small <= big:
                        continue
                    r_small, rel1 = conjugacy.r_levi(cd, small)
                    r_big, rel2 = conjugacy.r_levi(cd, big)
                    assert rel1 and rel2
                    intermediate = [
                        a for a in datum.positive_roots
                        if all(a[i] == 0 for i in range(datum.rank) if i not in big)
                        and any(a[i] != 0 for i in range(datum.rank) if i not in small)
                    ]
                    extra = sum(
                        (val_one_minus(cd, a) for a in intermediate),
                        Fraction(0),
                    )
                    assert r_small == r_big + extra


class TestJsonInterchange:
    def test_round_trip(self):
        datum = rd("A2")
        cox = weyl.word_to_element(datum, [0, 1])
        cd = conjugacy.make_class(
            datum, cox, [0, 0],
            {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 1): Fraction(1, 3)},
        )
        again = conjugacy.class_from_json(class_to_json(cd))
        assert again == cd

    def test_parse_with_short_kappa(self):
        cd = conjugacy.class_from_json(
            {
                "type": "A2",
                "isogeny": "sc",
                "w": [],
                "e": 1,
                "nu_bar": {"num": [1, 1], "den": 1},
                "residual": [],
                "kappa": [0],
            }
        )
        assert cd.nu_bar == cw(1, 1)
        assert cd.kappa == (0, 0)

    def test_missing_field_is_usage_error(self):
        with pytest.raises(UsageError):
            conjugacy.class_from_json({"type": "A2"})

    def test_split_round_trip_with_residual(self):
        datum = rd("B2")
        cd = conjugacy.split_class(datum, [1, 1], {})
        assert conjugacy.class_from_json(class_to_json(cd)) == cd

    def test_parse_from_text(self):
        # the CLI decodes the file once and passes the object; a text is refused
        cd = conjugacy.split_class(rd("B2"), [1, 1], {})
        text = json.dumps(class_to_json(cd))
        assert conjugacy.class_from_json(json.loads(text)) == cd
        with pytest.raises(UsageError, match="^class JSON must be an object$"):
            conjugacy.class_from_json(text)


# Well-shaped class JSON: the label is drawn first, so that most vectors
# have its rank; each field then holds a plausible value or any JSON scalar,
# list or object of the wrong kind, and the optional fields may be absent.
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6,
)
_number = (st.integers(-3, 3) | st.sampled_from(["1/2", "-1/3", "2", "x", "1/0", "inf"])
           | st.floats())
_fraction = _number | st.fixed_dictionaries({"num": _number}, optional={"den": _number})
_RANKS = {"A1": 1, "A2": 2, "B2": 2, "G2": 2, "A1xA1": 2, "A3": 3}


@st.composite
def _class_json(draw):
    label = draw(st.sampled_from(list(_RANKS) + ["Z9", "A0", None]))
    rank = _RANKS.get(label, 2)
    if label is None:
        label = draw(_junk)
    size = st.integers(rank - 1, rank + 1) | st.just(rank)

    def vector(entries):
        return size.flatmap(lambda n: st.lists(entries, min_size=max(n, 0), max_size=max(n, 0)))

    fields = {
        "type": st.just(label),
        "nu_bar": vector(_number) | st.fixed_dictionaries(
            {"num": vector(_number)}, optional={"den": _number}) | _junk,
    }
    optional = {
        "isogeny": st.sampled_from(["sc", "adjoint", "other"])
                   | vector(vector(st.integers(-2, 2))) | _junk,
        "w": st.lists(st.integers(-1, rank + 1), max_size=4)
             | st.lists(st.integers(-1, rank + 1) | _number, max_size=4) | _junk,
        "e": _number | _junk,
        "residual": st.lists(st.fixed_dictionaries(
            {"root": vector(st.integers(-1, 2)), "val": _fraction}) | _junk, max_size=3) | _junk,
        "kappa": vector(st.integers(-2, 2) | _number) | _junk,
    }
    return draw(st.fixed_dictionaries(fields, optional=optional))


@given(data=_class_json())
@settings(max_examples=200, deadline=None)
def test_class_from_json_raises_only_kv_errors(data):
    """A class file either parses or raises a KVError, which the CLI turns
    into exit 1 or 2 with one line on stderr; nothing else escapes."""
    try:
        conjugacy.class_from_json(data)
    except KVError:
        pass
