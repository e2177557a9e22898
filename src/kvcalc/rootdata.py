"""Root data with exact rational lattice arithmetic.

Coordinate conventions used throughout the package:

* coweights are vectors in the simple-coroot basis (entries are Fractions);
* weights are vectors in the fundamental-weight basis;
* roots are vectors in the simple-root basis;
* the Cartan matrix entry ``cartan[i][j]`` is the pairing of the j-th simple
  root against the i-th simple coroot, so pairings of arbitrary roots with
  arbitrary coweights route through it.

All arithmetic is exact; no floats anywhere.  The predicates (dominance,
lattice membership, rational dominance ``leq_q``, root pairings and
``dominant_reduce``) never compute with Fractions: a coweight is scaled once to
``(D, n)``, D the lcm of its denominators and n integers, and tested against
integer data cached per datum (the Cartan columns, and the inverse of
``lattice_basis`` as an integer matrix ``adj`` over a scale ``det``).
Fractions are built only at the boundary, for the values a function returns.
The layers above share two private kernels on such scaled integers:
``_reduce_ints`` (the reflection loop of ``dominant_reduce``) and
``_extremes`` (the minimal or maximal elements of a set of scaled coweights).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm
from operator import ge, le, mul

from . import linalg
from .errors import InvariantViolation, SizeGuardError, UsageError

Coweight = tuple[Fraction, ...]

#: Hard cap on the Weyl group order for full enumerations (E6 just fits).
WEYL_ORDER_CAP = 51840

#: Hard cap on the number of tuples a grid enumeration may visit
#: (`dominant_integral_sweep`, `strata.rational_grid`, `kv.chen_zhu_approx`,
#: `multiplicity.dominant_below`), on the alpha-string steps of Freudenthal's
#: recursion, and on the orientations behind `weyl.coxeter_elements`.
GRID_SIZE_CAP = 2_000_000

_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: 36,
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_WEYL_ORDER = {
    "A": lambda n: _factorial(n + 1),
    "B": lambda n: 2**n * _factorial(n),
    "C": lambda n: 2**n * _factorial(n),
    "D": lambda n: 2 ** (n - 1) * _factorial(n),
    "E": lambda n: 51840,
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

_RANK_RANGE = {"A": (1, 6), "B": (2, 6), "C": (2, 6), "D": (4, 6), "E": (6, 6), "F": (4, 4), "G": (2, 2)}


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def parse_label(label: str) -> tuple[tuple[str, int], ...]:
    if not isinstance(label, str):
        raise UsageError(f"type label must be a string, not {label!r}")
    factors = []
    for part in label.split("x"):
        m = re.fullmatch(r"([A-G])([0-9]+)", part.strip())
        if not m:
            raise UsageError(f"cannot parse type label {part!r}")
        letter, n = m.group(1), int(m.group(2))
        lo, hi = _RANK_RANGE.get(letter, (0, -1))
        if not lo <= n <= hi:
            raise UsageError(f"unsupported simple type {part!r} (rank range {lo}..{hi})")
        factors.append((letter, n))
    return tuple(factors)


def _simple_cartan(letter: str, n: int) -> list[list[int]]:
    c = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if letter in "ABC":
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B" and n >= 2:
            # last simple root is short: <alpha_{n-1}, alpha_n^vee> = -2
            c[n - 1][n - 2] = -2
        if letter == "C" and n >= 2:
            # last simple root is long
            c[n - 2][n - 1] = -2
    elif letter == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif letter == "E":
        # Bourbaki E6: node 2 hangs off node 4 (1-indexed 1-3-4-5-6 chain)
        chain = [0, 2, 3, 4, 5]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif letter == "F":
        for i in range(3):
            bond(i, i + 1)
        c[2][1] = -2  # <alpha_2, alpha_3^vee> = -2 (alpha_3, alpha_4 short)
        c[1][2] = -1
    elif letter == "G":
        bond(0, 1, cij=-1, cji=-3)  # alpha_1 long, alpha_2 short
    return c


def _block_diag(blocks: list[list[list[int]]]) -> tuple[tuple[int, ...], ...]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(r) for r in out)


def _root_closure(cartan):
    """All (root, coroot) pairs, each in simple-root / simple-coroot coords."""
    r = len(cartan)
    seen = {}
    frontier = [(tuple(int(i == j) for j in range(r)),) * 2 for i in range(r)]
    for pair in frontier:
        seen[pair[0]] = pair[1]
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for i in range(r):
                p = sum(cartan[i][j] * root[j] for j in range(r))
                new_root = tuple(root[j] - p * int(i == j) for j in range(r))
                q = sum(cartan[j][i] * coroot[j] for j in range(r))
                new_coroot = tuple(coroot[j] - q * int(i == j) for j in range(r))
                if new_root not in seen:
                    seen[new_root] = new_coroot
                    nxt.append((new_root, new_coroot))
        frontier = nxt
    positives = sorted(rt for rt in seen if all(x >= 0 for x in rt))
    return tuple(positives), tuple(seen[rt] for rt in positives)


_DUAL_LETTER = {"A": "A", "B": "C", "C": "B", "D": "D", "E": "E", "F": "F", "G": "G"}


class Record:
    """Value semantics from the field names in ``_fields``: equal only to an
    object of the same class with equal fields, and hashed as the field
    tuple.  Fields are set once, in ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class RootDatum(Record):
    _fields = ("label", "rank", "cartan", "positive_roots", "positive_coroots",
               "rho_check", "isogeny", "lattice_basis")

    def __init__(self, label, rank, cartan, positive_roots, positive_coroots, rho_check,
                 isogeny, lattice_basis):
        self.label = label  # ((letter, n), ...)
        self.rank = rank
        self.cartan = cartan
        self.positive_roots = positive_roots
        self.positive_coroots = positive_coroots
        self.rho_check = rho_check  # half-sum of positive coroots, simple-coroot coords
        self.isogeny = isogeny
        # columns = generators of Lambda, in fundamental-coweight coordinates
        self.lattice_basis = lattice_basis

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

    @property
    def dim_g(self) -> int:
        return 2 * self.num_positive_roots + self.rank

    @property
    def weyl_order(self) -> int:
        out = 1
        for letter, n in self.label:
            out *= _WEYL_ORDER[letter](n)
        return out

    def dual(self, isogeny: str = "sc") -> "RootDatum":
        return _dual_datum(self, isogeny)

    @cached_property
    def iota(self) -> tuple[int, ...]:
        """Involution with omega_{iota(i)} = -w0(omega_i), read off
        -w0(alpha_i^vee) = alpha_{iota(i)}^vee; w0 is the word that takes
        -2 rho_check to 2 rho_check."""
        _, w0 = dominant_reduce(self, tuple(-2 * x for x in self.rho_check))
        out = []
        for i in range(self.rank):
            v = tuple(-int(i == j) for j in range(self.rank))
            for k in w0:
                v = reflect(self, k, v)
            out.append(v.index(1))
        return tuple(out)

    @cached_property
    def cartan_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column i of the Cartan matrix: <alpha_i, v> = sum_j col[j] v[j]."""
        return tuple(zip(*self.cartan))

    @cached_property
    def _hash(self) -> int:
        return hash(self._values())

    def __hash__(self) -> int:
        # Every lru_cache keyed on a datum hashes it on each lookup; the
        # generated hash would rehash all fields, Fractions included, each time.
        return self._hash

    @cached_property
    def lattice_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(adj, det): the inverse of lattice_basis is adj / det, with adj
        integral and det > 0 the lcm of the inverse's denominators."""
        return _integer_inverse(self.lattice_basis)


def build_root_datum(label: str, isogeny="sc") -> RootDatum:
    """Construct a root datum for a product of simple types.

    ``isogeny`` is "sc", "adjoint", or an explicit list of integer generator
    vectors for the coweight lattice, in fundamental-coweight coordinates.
    """
    factors = parse_label(label)
    cartan = _block_diag([_simple_cartan(l, n) for l, n in factors])
    return _build(factors, cartan, isogeny)


def _build(factors, cartan, isogeny) -> RootDatum:
    r = len(cartan)
    roots, coroots = _root_closure(cartan)
    expected = sum(_POSITIVE_ROOT_COUNT[l](n) for l, n in factors)
    if len(roots) != expected:
        raise InvariantViolation(
            f"positive root closure for {factors} gave {len(roots)}, expected {expected}"
        )
    two_rho_check = tuple(sum(c[j] for c in coroots) for j in range(r))
    rho_check = tuple(Fraction(x, 2) for x in two_rho_check)
    # sanity: <alpha_i, rho_check> = 1 for every simple root
    for i in range(r):
        if sum(cartan[j][i] * rho_check[j] for j in range(r)) != 1:
            raise InvariantViolation(f"<alpha_{i + 1}, rho_check> != 1 for {factors}")

    if isogeny == "sc":
        basis = tuple(tuple(cartan[j][i] for j in range(r)) for i in range(r))  # columns = coroots
        iso_name = "sc"
    elif isogeny == "adjoint":
        basis = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        iso_name = "adjoint"
    else:
        try:
            gens = [tuple(_as_int(x) for x in g) for g in isogeny]
        except (TypeError, ValueError):
            raise UsageError(f"cannot read isogeny {isogeny!r}") from None
        if len(gens) != r or any(len(g) != r for g in gens):
            raise UsageError("custom isogeny needs exactly rank-many generator vectors")
        basis = tuple(tuple(gens[j][i] for j in range(r)) for i in range(r))
        iso_name = "custom"
        try:
            inverse = _integer_inverse(basis)
        except ValueError:
            raise UsageError("isogeny generators are linearly dependent") from None
        if any(_coroot_coords(inverse, cartan, i) is None for i in range(r)):
            raise UsageError("isogeny lattice does not contain the coroot lattice")

    return RootDatum(
        label=factors,
        rank=r,
        cartan=cartan,
        positive_roots=roots,
        positive_coroots=coroots,
        rho_check=rho_check,
        isogeny=iso_name,
        lattice_basis=basis,
    )


@lru_cache(maxsize=None)
def _dual_datum(rd: RootDatum, isogeny: str = "sc") -> RootDatum:
    """Dual root datum: literally the transposed Cartan matrix, so simple
    coroots of rd are exactly the simple roots of the dual (same indexing)."""
    factors = tuple((_DUAL_LETTER[l], n) for l, n in rd.label)
    cartan_t = tuple(tuple(rd.cartan[j][i] for j in range(rd.rank)) for i in range(rd.rank))
    return _build(factors, cartan_t, isogeny)


# ---------------------------------------------------------------------------
# coweight arithmetic


def coweight(coords) -> Coweight:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in coords)


def zero_coweight(rd: RootDatum) -> Coweight:
    return tuple(Fraction(0) for _ in range(rd.rank))


def add(u: Coweight, v: Coweight) -> Coweight:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Coweight, v: Coweight) -> Coweight:
    return tuple(a - b for a, b in zip(u, v))


def _scale(v) -> tuple[int, tuple[int, ...]]:
    """(D, n) with v = n / D: D > 0 the lcm of the denominators, n integers."""
    d = lcm(*(x.denominator for x in v))
    if d == 1:
        return 1, tuple(x.numerator for x in v)
    return d, tuple(x.numerator * (d // x.denominator) for x in v)


def _pairings(rd: RootDatum, v) -> tuple:
    return tuple(sum(map(mul, col, v)) for col in rd.cartan_columns)


def simple_pairings(rd: RootDatum, v: Coweight):
    """Pairings <alpha_i, v> for all simple roots alpha_i."""
    return _pairings(rd, v)


def pair_root(rd: RootDatum, root, v: Coweight) -> Fraction:
    """Pairing <alpha, v> of a root (simple-root coords) with a coweight."""
    d, n = _scale(v)
    return Fraction(sum(map(mul, root, _pairings(rd, n))), d)


def rho_pair(rd: RootDatum, v: Coweight):
    """<rho, v>: sum of the simple-coroot coordinates."""
    return sum(v)


def is_dominant(rd: RootDatum, v: Coweight) -> bool:
    _, n = _scale(v)
    return all(sum(map(mul, col, n)) >= 0 for col in rd.cartan_columns)


def reflect(rd: RootDatum, i: int, v: Coweight) -> Coweight:
    """s_i(v) = v - <alpha_i, v> alpha_i^vee: one pairing, one coordinate."""
    p = sum(map(mul, rd.cartan_columns[i], v))
    return v[:i] + (v[i] - p,) + v[i + 1:]


def _reduce_ints(rd: RootDatum, n: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(m, word): m the dominant element of the W-orbit of the integer tuple
    n (a coweight scaled by any D > 0), word the simple reflections reaching
    it in application order.

    The loop reflects at the first negative pairing p_i and updates the
    pairings from one Cartan row: s_i moves <alpha_k, .> by
    -p_i <alpha_k, alpha_i^vee>.  A dominant n comes back as it is.
    """
    pair = _pairings(rd, n)
    if min(pair) >= 0:
        return n, ()
    n = list(n)
    word = []
    while True:
        for i, p in enumerate(pair):
            if p < 0:
                break
        else:
            return tuple(n), tuple(word)
        n[i] -= p
        pair = [q - p * c for q, c in zip(pair, rd.cartan[i])]
        word.append(i)


def dominant_reduce(rd: RootDatum, v: Coweight):
    """Dominant representative of the W-orbit of v plus the word reaching it.

    The word lists simple reflections in application order: folding them over
    v from the left reproduces the returned dominant coweight.
    """
    v = coweight(v)
    d, n = _scale(v)
    m, word = _reduce_ints(rd, n)
    if not word:
        return v, ()
    return tuple(Fraction(x, d) for x in m), word


def _extremes(points: list, highest: bool = False) -> list:
    """The minimal (highest: maximal) elements of a list of distinct integer
    tuples under the componentwise order, which is dominance for coroot
    coordinates scaled to one denominator.

    A point strictly below another has a smaller coordinate sum, so only a
    point of least height can be a least element.  One pass checks whether
    the lowest point lies below every other; only when it does not, and the
    minimal elements are therefore not unique, does the pairwise filter run,
    returning them in list order.
    """
    if not points:
        return []
    below = ge if highest else le
    best = (max if highest else min)(points, key=sum)
    if all(all(map(below, best, p)) for p in points):
        return [best]
    return [p for p in points if not any(q != p and all(map(below, q, p)) for q in points)]


def leq_q(rd: RootDatum, nu: Coweight, lam: Coweight) -> bool:
    """Rational dominance: lambda - nu has nonnegative coroot coordinates,
    compared coordinate by coordinate with cross-multiplied integers."""
    return all(a.numerator * b.denominator <= b.numerator * a.denominator
               for a, b in zip(nu, lam))


def _integer_inverse(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) with m^-1 = adj / det; raises ValueError if m is singular.

    With u m v = diag(d_i), m^-1 = v diag(1 / d_i) u.  The last invariant
    factor det is a multiple of every d_i and is the lcm of the denominators
    of m^-1, so adj = v diag(det / d_i) u is integral."""
    d, u, v = linalg.smith_normal_form(m)
    factors = [d[i][i] for i in range(len(d))]
    if 0 in factors:
        raise ValueError("singular matrix")
    det = factors[-1]
    scaled = [[det // f * x for x in row] for f, row in zip(factors, u)]
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*scaled)) for row in v), det


def _lattice_numerators(rd: RootDatum, d: int, n) -> tuple[tuple[int, ...], int]:
    """(x, s) with x / s the coordinates of the coweight n / d in the lattice
    basis: its fundamental-coweight coordinates are the pairings F / d, so
    the coordinates are adj F / (det d)."""
    adj, det = rd.lattice_inverse
    f = _pairings(rd, n)
    return tuple(sum(map(mul, row, f)) for row in adj), det * d


def _is_integral_ints(rd: RootDatum, d: int, n) -> bool:
    """Membership of the coweight n / d in the lattice Lambda."""
    x, s = _lattice_numerators(rd, d, n)
    return all(c % s == 0 for c in x)


def _coroot_coords(inverse, cartan, i) -> tuple[int, ...] | None:
    """Lattice-basis coordinates of the i-th simple coroot, whose
    fundamental-coweight coordinates are row i of the Cartan matrix; None
    when the lattice does not contain it."""
    adj, det = inverse
    x = tuple(sum(map(mul, row, cartan[i])) for row in adj)
    return None if any(c % det for c in x) else tuple(c // det for c in x)


def is_integral(rd: RootDatum, v: Coweight) -> bool:
    """Membership of v in the chosen coweight lattice Lambda."""
    return _is_integral_ints(rd, *_scale(v))


# ---------------------------------------------------------------------------
# fundamental group


class FiniteAbelianGroup(Record):
    __slots__ = _fields = ("invariant_factors", "_u", "rd")

    def __init__(self, invariant_factors, _u, rd):
        self.invariant_factors = invariant_factors
        self._u = _u
        self.rd = rd

    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.invariant_factors)

    def reduce(self, raw: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x % d for x, d in zip(raw, self.invariant_factors))

    def project(self, v: Coweight) -> tuple[int, ...]:
        x, s = _lattice_numerators(self.rd, *_scale(v))
        if any(c % s for c in x):
            raise UsageError("coweight is not in the isogeny lattice")
        x = tuple(c // s for c in x)
        return self.reduce(tuple(sum(map(mul, row, x)) for row in self._u))


@lru_cache(maxsize=None)
def fundamental_group(rd: RootDatum) -> FiniteAbelianGroup:
    """pi_1(G) = Lambda / (coroot lattice), by Smith normal form."""
    r = rd.rank
    cols = []
    for i in range(r):
        x = _coroot_coords(rd.lattice_inverse, rd.cartan, i)
        if x is None:
            raise InvariantViolation("coroot lattice not inside Lambda")
        cols.append(x)
    rel = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
    d, u, _ = linalg.smith_normal_form(rel)
    factors = tuple(d[i][i] for i in range(r))
    return FiniteAbelianGroup(invariant_factors=factors, _u=u, rd=rd)


def _as_int(x) -> int:
    """x read as an integer: an int or an integer string.  A number that is
    not an integer raises ValueError, where int() would truncate it."""
    try:
        out = int(x)
    except OverflowError:  # int() of an infinite float
        raise ValueError(f"{x!r} is not an integer") from None
    if not isinstance(x, str) and out != x:
        raise ValueError(f"{x!r} is not an integer")
    return out


def parse_kappa(rd: RootDatum, entries) -> tuple[int, ...]:
    grp = fundamental_group(rd)
    try:
        entries = list(_as_int(x) for x in entries)
    except (TypeError, ValueError):
        raise UsageError(f"kappa must be a list of integers, not {entries!r}") from None
    if len(entries) > rd.rank:
        raise UsageError("kappa has more entries than the rank")
    entries += [0] * (rd.rank - len(entries))
    return grp.reduce(tuple(entries))


# ---------------------------------------------------------------------------
# parsing helpers shared with the CLI


def parse_coweight(rd: RootDatum, text: str) -> Coweight:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != rd.rank:
        raise UsageError(f"expected {rd.rank} coordinates, got {len(parts)}")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad coordinate in {text!r}: {exc}") from None


def format_coweight(v: Coweight) -> str:
    return ",".join(str(x) for x in v)


def guard_grid_size(count: int, what: str) -> None:
    """Refuse, before it starts, an enumeration of more than GRID_SIZE_CAP tuples."""
    if count > GRID_SIZE_CAP:
        raise SizeGuardError(
            f"{what} would visit {count} tuples, over the cap of {GRID_SIZE_CAP}"
        )


def dominant_integral_sweep(rd: RootDatum, height_cap):
    """Dominant integral coweights with coordinate-sum at most height_cap."""
    r = rd.rank
    out = []
    cap = int(height_cap)
    guard_grid_size(max(cap + 1, 0) ** r, "the dominant sweep")
    for coords in product(range(cap + 1), repeat=r):
        if sum(coords) > cap:
            continue
        if not all(p >= 0 for p in _pairings(rd, coords)):
            continue
        if not is_integral(rd, coords):
            continue
        out.append(coords)
    out.sort()
    return [coweight(v) for v in out]
