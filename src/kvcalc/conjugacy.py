"""Cameral models of regular semisimple conjugacy classes.

A class is recorded by its twist Weyl element w, splitting degree e,
Galois-stable valuation coweight nu_bar, residual valuations r_alpha on the
roots vanishing on nu_bar, and its fundamental-group class kappa.  All the
numerical invariants (Newton point, discriminant valuation, split-rank defect c,
Levi-relative r_N) are exact rationals computed from these data.

Every invariant is a sum of val(1 - alpha(gamma)) over roots.  A class
builds one integer table on first use (``ClassDatum.valuations``): L times
val(1 - alpha(gamma)) for every root, both signs, and L d(gamma), over one
common denominator L.  The invariants and ``validate`` read that table, and a
Fraction is built only for a value that is returned.  Each invariant has one
reader: ``disc_valuation`` for d(gamma), ``ClassDatum.c`` for c(gamma),
``r_invariant`` for r(gamma), and ``r_levi`` for r_N, with d_M summed there
only to check d_G = d_M + 2 r_N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul, neg

from . import rootdata, weyl
from .errors import InvariantViolation, UsageError
from .rootdata import Coweight, RootDatum


def _neg(root):
    return tuple(map(neg, root))


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
        self._by_root = dict(reversed(residual))  # the first entry for a root wins

    def residual_value(self, root) -> Fraction:
        """r_alpha, with the +/- symmetry applied; unspecified roots are 0."""
        key = tuple(root) if min(root) >= 0 and max(root) > 0 else _neg(root)
        return self._by_root.get(key, Fraction(0))

    @cached_property
    def nu_pairings(self) -> tuple[int, tuple[int, ...]]:
        """(D, p): nu_bar scaled by D, the lcm of its denominators, paired
        with the simple roots, so that <alpha, nu_bar> = sum(alpha_j p_j) / D
        for a root alpha in simple-root coordinates."""
        d, n = rootdata._scale(self.nu_bar)
        return d, rootdata._pairings(self.rd, n)

    @cached_property
    def valuations(self) -> tuple[int, dict[tuple[int, ...], int], int]:
        """(L, v, Ld): L the lcm of D (see ``nu_pairings``) and the residual
        denominators; for every root alpha, both signs, v[alpha] is
        L val(1 - alpha(gamma)): L min(<alpha, nu_bar>, 0), or L r_alpha where
        that pairing is 0; and Ld = L d(gamma)."""
        d, p = self.nu_pairings
        big = lcm(d, *(v.denominator for _, v in self.residual))
        vals = {}
        newton = 0
        for root in self.rd.positive_roots:
            q = sum(map(mul, root, p)) * (big // d)
            if q:
                vals[root], vals[_neg(root)] = min(q, 0), min(-q, 0)
                newton += abs(q)
            else:
                r = self._by_root.get(root, 0)
                vals[root] = vals[_neg(root)] = r.numerator * (big // r.denominator)
        twice_r = 2 * sum(v.numerator * (big // v.denominator) for _, v in self.residual)
        return big, vals, twice_r - newton

    @cached_property
    def c(self) -> int:
        """Rank minus the dimension of the twist's fixed space."""
        return self.rd.rank - weyl.fixed_space_dim(self.w)


def make_class(rd: RootDatum, w: weyl.WeylElement, nu_bar, residual=None, kappa=None,
               e=None) -> ClassDatum:
    """``residual`` maps roots to r_alpha, or lists (root, r_alpha) pairs."""
    nu_bar = rootdata.coweight(nu_bar)
    order = w.order()
    items = residual.items() if isinstance(residual, dict) else residual or ()
    res = tuple(sorted((tuple(int(x) for x in r), Fraction(v)) for r, v in items))
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
    den, num = rootdata._scale(cd.nu_bar)
    e_nu_integral = rootdata._is_integral_ints(rd, den, tuple(cd.e * x for x in num))
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
        if sum(map(mul, root, cd.nu_pairings[1])):
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
        big, _, d = cd.valuations
        if d % big:
            errors.append(f"discriminant: d = {Fraction(d, big)} is not an integer")
    return errors


def newton_point(cd: ClassDatum) -> Coweight:
    nu, _ = rootdata.dominant_reduce(cd.rd, cd.nu_bar)
    return nu


def disc_valuation(cd: ClassDatum) -> Fraction:
    """d(gamma) = 2 * sum of residual valuations on the vanishing roots
    minus <2 rho, dominant Newton point>; exact and possibly negative.

    Written in a form invariant under Weyl images of nu_bar: the second term
    is the sum of |<alpha, nu_bar>| over positive roots.
    """
    big, _, d = cd.valuations
    if d % big:
        raise InvariantViolation(f"discriminant valuation {Fraction(d, big)} is not an integer")
    return Fraction(d, big)


def is_split(cd: ClassDatum) -> bool:
    return cd.w.is_identity()


def r_invariant(cd: ClassDatum) -> Fraction:
    """r(gamma) = sum over positive roots of val(alpha(gamma) - 1)."""
    big, vals, _ = cd.valuations
    return Fraction(sum(vals[root] for root in cd.rd.positive_roots), big)


def r_levi(cd: ClassDatum, levi: frozenset[int] | set[int]):
    """r_N for the standard parabolic with Levi subset I, plus the check
    d_G = d_M + 2 r_N, with d_M the sum of val(1 - alpha(gamma)) over the
    roots of the Levi M, both signs.

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
    disc_valuation(cd)  # raises unless d(gamma) is an integer
    big, vals, d = cd.valuations
    in_levi = set(rootdata.levi_roots(rd, levi))
    r_n = sum(vals[a] for a in rd.positive_roots if a not in in_levi)
    d_m = sum(vals[a] + vals[_neg(a)] for a in in_levi)
    return Fraction(r_n, big), d == d_m + 2 * r_n


# ---------------------------------------------------------------------------
# JSON interchange


def _frac_from_json(obj) -> Fraction:
    if isinstance(obj, dict):
        return Fraction(rootdata._as_int(obj["num"]), rootdata._as_int(obj.get("den", 1)))
    if isinstance(obj, bool):
        raise TypeError(f"{obj!r} is not a number")
    return Fraction(obj)


def class_from_json(data) -> ClassDatum:
    """Parse a class datum from the decoded JSON schema, an object.

    The reduced word uses 1-based reflection indices; "residual" lists
    positive roots only; a short "kappa" is padded with zeros.  Every list
    field must be a JSON list, and a residual root may be listed once.
    """
    if not isinstance(data, dict):
        raise UsageError("class JSON must be an object")
    try:
        label = data["type"]
        isogeny = data.get("isogeny", "sc")
        word = data.get("w", [])
        nu = data["nu_bar"]
    except KeyError as exc:
        raise UsageError(f"class JSON missing field: {exc}") from None
    try:
        word = [i - 1 for i in rootdata._as_ints(word)]
    except (TypeError, ValueError):
        raise UsageError(f"malformed twist word {word!r}") from None
    rd = rootdata.build_root_datum(label, isogeny)
    try:
        if isinstance(nu, dict):
            den = rootdata._as_int(nu.get("den", 1))
            nu_bar = tuple(Fraction(n, den) for n in rootdata._as_ints(nu["num"]))
        elif isinstance(nu, (list, tuple)):
            if any(isinstance(x, bool) for x in nu):
                raise TypeError("a boolean is not a number")
            nu_bar = rootdata.coweight(nu)
        else:
            raise TypeError("not a list")
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"malformed nu_bar {nu!r}: {exc}") from None
    if len(nu_bar) != rd.rank:
        raise UsageError("nu_bar has the wrong number of coordinates")
    w = weyl.word_to_element(rd, word)
    items = data.get("residual", [])
    if not isinstance(items, (list, tuple)):
        raise UsageError(f"residual must be a list of entries, not {items!r}")
    residual = []
    for item in items:
        try:
            residual.append((rootdata._as_ints(item["root"]), _frac_from_json(item["val"])))
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise UsageError(f"malformed residual entry {item!r}: {exc}") from None
    kappa = rootdata.parse_kappa(rd, data.get("kappa", []))
    try:
        e = rootdata._as_int(data["e"]) if "e" in data else None
    except (TypeError, ValueError):
        raise UsageError(f"malformed splitting degree {data['e']!r}") from None
    return make_class(rd, w, nu_bar, residual, kappa, e=e)
