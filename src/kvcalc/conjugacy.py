"""Cameral models of regular semisimple conjugacy classes.

A class is recorded by its twist Weyl element w, splitting degree e,
Galois-stable valuation coweight nu_bar, residual valuations r_alpha on the
roots vanishing on nu_bar, and its fundamental-group class kappa.  All the
numerical invariants (Newton point, discriminant valuation, split-rank defect c,
Levi-relative r_N) are exact rationals computed from these data.

Every invariant reads the pairings <alpha, nu_bar> of the roots.  A class
scales nu_bar once and caches its simple pairings as integers
(``ClassDatum.nu_pairings``); a root's pairing is then one integer dot
product, and a Fraction is built only for a value that is returned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import mul

from . import rootdata, weyl
from .errors import InvariantViolation, UsageError
from .rootdata import Coweight, RootDatum


def _neg(root):
    return tuple(-x for x in root)


def _positive(root) -> bool:
    return any(x > 0 for x in root) and all(x >= 0 for x in root)


class ClassDatum(rootdata.Record):
    _fields = ("rd", "w", "e", "nu_bar", "residual", "kappa")

    def __init__(self, rd: RootDatum, w: weyl.WeylElement, e: int, nu_bar: Coweight,
                 residual: tuple[tuple[tuple[int, ...], Fraction], ...],
                 kappa: tuple[int, ...]):
        self.rd = rd
        self.w = w
        self.e = e
        self.nu_bar = nu_bar
        self.residual = residual  # positive roots only
        self.kappa = kappa

    def residual_value(self, root) -> Fraction:
        """r_alpha, with the +/- symmetry applied; unspecified roots are 0."""
        key = tuple(root) if _positive(root) else _neg(root)
        for r, v in self.residual:
            if r == key:
                return v
        return Fraction(0)

    @cached_property
    def nu_pairings(self) -> tuple[int, tuple[int, ...]]:
        """(D, p): nu_bar scaled by D, the lcm of its denominators, paired
        with the simple roots, so that <alpha, nu_bar> = sum(alpha_j p_j) / D
        for a root alpha in simple-root coordinates."""
        d, n = rootdata._scale(self.nu_bar)
        return d, rootdata.simple_pairings(self.rd, n)


def _nu_pairing(cd: ClassDatum, root) -> int:
    """D <alpha, nu_bar>, with D as in ``ClassDatum.nu_pairings``."""
    return sum(map(mul, root, cd.nu_pairings[1]))


def make_class(rd: RootDatum, w: weyl.WeylElement, nu_bar, residual=None, kappa=None,
               e=None) -> ClassDatum:
    nu_bar = rootdata.coweight(nu_bar)
    order = w.order()
    res = tuple(sorted((tuple(int(x) for x in r), Fraction(v)) for r, v in
                       (residual or {}).items()))
    if kappa is None:
        kappa = rootdata.fundamental_group(rd).zero()
    cd = ClassDatum(rd=rd, w=w, e=order if e is None else int(e), nu_bar=nu_bar,
                    residual=res, kappa=tuple(kappa))
    errors = validate(cd)
    if errors:
        raise UsageError("invalid class datum: " + "; ".join(errors))
    return cd


def split_class(rd: RootDatum, nu_bar, residual=None, kappa=None) -> ClassDatum:
    return make_class(rd, weyl.identity_element(rd), nu_bar, residual, kappa)


def validate(cd: ClassDatum) -> list[str]:
    """Check every datum invariant; returns a list of violation messages."""
    errors = []
    rd = cd.rd
    if cd.e != cd.w.order():
        errors.append(f"splitting-degree: e={cd.e} but the twist has order {cd.w.order()}")
    if cd.w.apply(cd.nu_bar) != cd.nu_bar:
        errors.append("galois-stability: w(nu_bar) != nu_bar")
    # e nu_bar must lie in X_*(T)
    e_nu_integral = rootdata.is_integral(rd, tuple(cd.e * x for x in cd.nu_bar))
    if not e_nu_integral:
        errors.append(f"newton-denominator: e*nu_bar is not in the cocharacter lattice for e={cd.e}")
    seen = set()
    for root, val in cd.residual:
        if root not in rd.positive_roots:
            errors.append(f"residual-root: {root} is not a positive root")
            continue
        if root in seen:
            errors.append(f"residual-root: duplicate entry for {root}")
        seen.add(root)
        if _nu_pairing(cd, root) != 0:
            errors.append(f"residual-domain: root {root} does not vanish on nu_bar")
        if val < 0:
            errors.append(f"residual-value: r_{root} = {val} is negative")
        if cd.e % Fraction(val).denominator != 0:
            errors.append(f"residual-denominator: r_{root} = {val} has denominator not dividing e={cd.e}")
    # Galois symmetry r_{w(alpha)} = r_alpha (the +/- symmetry is built in)
    for root, val in cd.residual:
        if cd.residual_value(cd.w.apply_root(root)) != val:
            errors.append(f"residual-symmetry: r differs on {root} and its w-image")
    grp = rootdata.fundamental_group(rd)
    if len(cd.kappa) != rd.rank:
        errors.append(f"fundamental-group class: expected {rd.rank} components")
    elif grp.reduce(cd.kappa) != tuple(cd.kappa):
        errors.append("fundamental-group class: entries not reduced modulo the invariant factors")
    elif cd.e == 1 and e_nu_integral and cd.w.is_identity():
        # kappa_G(t^nu) = [nu] in pi_1 (Kottwitz, Compositio 109, 1997)
        nu_class = grp.project(cd.nu_bar)
        if nu_class != cd.kappa:
            errors.append(f"fundamental-group class: a split class needs kappa = "
                          f"{list(nu_class)}, the class of nu_bar")
    if not errors:
        d = disc_valuation(cd, _checked=False)
        if d.denominator != 1:
            errors.append(f"discriminant: d = {d} is not an integer")
    return errors


def newton_point(cd: ClassDatum) -> Coweight:
    nu, _ = rootdata.dominant_reduce(cd.rd, cd.nu_bar)
    return nu


def disc_valuation(cd: ClassDatum, _checked=True):
    """d(gamma) = 2 * sum of residual valuations on the vanishing roots
    minus <2 rho, dominant Newton point>; exact and possibly negative.

    Written in a form invariant under Weyl images of nu_bar: the second term
    is the sum of |<alpha, nu_bar>| over positive roots.
    """
    newton = sum(abs(_nu_pairing(cd, root)) for root in cd.rd.positive_roots)
    total = 2 * sum(v for _, v in cd.residual) - Fraction(newton, cd.nu_pairings[0])
    if _checked and total.denominator != 1:
        raise InvariantViolation(f"discriminant valuation {total} is not an integer")
    return total


def c_invariant(cd: ClassDatum) -> int:
    """Rank minus the dimension of the twist's fixed space."""
    return cd.rd.rank - weyl.fixed_space_dim(cd.w)


def is_split(cd: ClassDatum) -> bool:
    return cd.w.is_identity()


def val_one_minus(cd: ClassDatum, root) -> Fraction:
    """val(1 - alpha(gamma)) for any root alpha."""
    p = _nu_pairing(cd, root)
    if p != 0:
        return Fraction(min(p, 0), cd.nu_pairings[0])
    return cd.residual_value(root)


def r_invariant(cd: ClassDatum) -> Fraction:
    """r(gamma) = sum over positive roots of val(alpha(gamma) - 1)."""
    return sum((val_one_minus(cd, root) for root in cd.rd.positive_roots), Fraction(0))


def r_levi(cd: ClassDatum, levi: frozenset[int] | set[int]):
    """r_N for the standard parabolic with Levi subset I, plus the check
    d_G = d_M + 2 r_N.

    The relation requires the N-part of the Newton pairings to cancel (it
    always does for gamma integral over the Levi, e.g. nu_bar = 0); the
    boolean reports whether it holds for this datum.
    """
    rd = cd.rd
    if not is_split(cd):
        raise UsageError("Levi-relative invariants are implemented for split classes only")
    levi = frozenset(int(i) for i in levi)
    if any(not 0 <= i < rd.rank for i in levi):
        raise UsageError("Levi index out of range")
    phi_n = [a for a in rd.positive_roots if any(a[i] != 0 for i in range(rd.rank) if i not in levi)]
    r_n = sum((val_one_minus(cd, a) for a in phi_n), Fraction(0))
    relation = disc_valuation(cd) == levi_disc_valuation(cd, levi) + 2 * r_n
    return r_n, relation


def levi_disc_valuation(cd: ClassDatum, levi) -> Fraction:
    """d_M: val(1 - alpha(gamma)) summed over the roots alpha of the Levi M
    with simple roots I, both signs."""
    levi = frozenset(int(i) for i in levi)
    rd = cd.rd
    total = Fraction(0)
    for a in rd.positive_roots:
        if all(a[i] == 0 for i in range(rd.rank) if i not in levi):
            total += val_one_minus(cd, a) + val_one_minus(cd, _neg(a))
    return total


# ---------------------------------------------------------------------------
# JSON interchange


def _frac_from_json(obj) -> Fraction:
    if isinstance(obj, dict):
        return Fraction(rootdata._as_int(obj["num"]), rootdata._as_int(obj.get("den", 1)))
    return Fraction(obj)


def class_from_json(data) -> ClassDatum:
    """Parse a class datum from the JSON schema.

    The reduced word uses 1-based reflection indices; "residual" lists
    positive roots only; a short "kappa" is padded with zeros.
    """
    if isinstance(data, (str, bytes)):
        import json
        try:
            data = json.loads(data)
        except ValueError as exc:
            raise UsageError(f"malformed class JSON: {exc}") from None
    try:
        label = data["type"]
        isogeny = data.get("isogeny", "sc")
        word = data.get("w", [])
        nu = data["nu_bar"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"class JSON missing field: {exc}") from None
    try:
        word = [rootdata._as_int(i) - 1 for i in word]
    except (TypeError, ValueError):
        raise UsageError(f"malformed twist word {word!r}") from None
    rd = rootdata.build_root_datum(label, isogeny)
    try:
        if isinstance(nu, dict):
            den = rootdata._as_int(nu.get("den", 1))
            nu_bar = tuple(Fraction(rootdata._as_int(n), den) for n in nu["num"])
        else:
            nu_bar = rootdata.coweight(nu)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"malformed nu_bar {nu!r}: {exc}") from None
    if len(nu_bar) != rd.rank:
        raise UsageError("nu_bar has the wrong number of coordinates")
    # a split class needs no Weyl table, which E6 and larger types pay for
    w = weyl.word_to_element(rd, word) if word else weyl.identity_element(rd)
    items = data.get("residual", [])
    if not isinstance(items, (list, tuple)):
        raise UsageError(f"residual must be a list of entries, not {items!r}")
    residual = {}
    for item in items:
        try:
            root = tuple(rootdata._as_int(x) for x in item["root"])
            residual[root] = _frac_from_json(item["val"])
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise UsageError(f"malformed residual entry {item!r}: {exc}") from None
    kappa = rootdata.parse_kappa(rd, data.get("kappa", []))
    try:
        e = rootdata._as_int(data["e"]) if "e" in data else None
    except (TypeError, ValueError):
        raise UsageError(f"malformed splitting degree {data['e']!r}") from None
    return make_class(rd, w, nu_bar, residual, kappa, e=e)
