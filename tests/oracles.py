"""Test oracles and input builders that no command of the package runs.

The package answers its lattice questions with one integer Smith normal form
(`kvcalc.linalg`) and lets a Weyl element act by walking its word
(`rootdata._apply_word`).  The `Fraction` Gaussian eliminations, the simple
reflection `reflect` written from its definition, and the action matrices
built with it are independent of both, and the tests compare the package
against them.  `rational_grid` is the `Fraction` view of
`rootdata.dominant_grid` that tests sweep.

`dual_datum` is the literal Langlands dual root datum, built from the
transposed Cartan matrix.  The package reads the dual group off rd instead:
its positive roots are rd's positive coroots and its Weyl group is W acting
on coweights.  The partition-count and full-weight oracles use the literal
datum, so they check that reading.  `oracle_gram` builds the invariant form
of Freudenthal's recursion from Fraction pairings, where the package reads
them off the Cartan matrix.  `unmemoized_weight_system` is Freudenthal's
recursion as the package ran it before it kept each alpha-string point's
lookup: every point is reduced afresh.

`oracle_dominant_below` is the coroot-step walk of the dominance interval
that the package replaced by a walk along covers, and `minimal_above` is the
search of the interval for mu* and the Steinberg strata that the package
replaced by an ascent from the floor; it reads the walk along covers once
per lambda (`scaled_interval`), which the tests check against the oracle.
Its least candidate, when there is one, is the smallest tuple, since tuple
order extends dominance; it is tested against every other candidate.
The `fraction_*` class invariants are the Fraction sums, one root at a time,
that the package replaced by one integer table per class
(`ClassDatum.valuations`), with the linear scan of the residual list that a
dict lookup replaced.
`oracle_enumerate_group` and `oracle_root_closure` are the breadth-first
passes that the package replaced by walks along ascents: they reflect every
element by every s_i with a full pairing and keep one set of everything seen,
so they assume nothing about which reflections lengthen.  `descent_oracle`
reads the descents of an element off `Fraction` pairings, where the package
builds bitmasks for the whole group, and `oracle_nilcone_strata` lists the
nilpotent-cone strata from the descents and supports of every element, where
the package asks for double-coset representatives one J at a time.  The rest
were public functions of the package until nothing but the tests called them:
the Weyl dimension formula with the orbit-size sum it checks `weight_system`
against, the generic valuation vector of a split class, the JSON writers of a
class datum and of a `dim --json` report, the lattice membership test
`is_integral`, and `val_one_minus`, one entry of a class's integer table as a
Fraction.

`levi_coxeter_classes` builds twisted classes whose nu_bar is not dominant,
and `conjugate_class` records the same class by another representative, so
that a test can check that a report depends on the class alone.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm
from operator import add, le, mul

from kvcalc import conjugacy, kv, multiplicity, rootdata, weyl
from kvcalc.errors import InvariantViolation, UsageError

Matrix = tuple[tuple[Fraction, ...], ...]


def is_integral(rd, v) -> bool:
    """Membership of v in the chosen coweight lattice Lambda."""
    return rootdata._is_integral_ints(rd, *rootdata._scale(v))


def frac_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_mul(a, b):
    n, k, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p))
        for i in range(n)
    )


def rank(m) -> int:
    """Rank over Q by fraction-free-ish Gaussian elimination."""
    rows = [list(map(Fraction, r)) for r in m]
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    col = 0
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        pr = rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def inverse(m) -> Matrix:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(m)
    aug = [list(map(Fraction, m[i])) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def reflect(rd, i: int, v):
    """s_i(v) = v - <alpha_i, v> alpha_i^vee, from the definition: the
    pairing with the simple root alpha_i, subtracted from coordinate i (the
    simple coroot alpha_i^vee is the i-th unit vector)."""
    p = rootdata.pair_root(rd, tuple(int(i == j) for j in range(rd.rank)), v)
    p = p.numerator if p.denominator == 1 else p  # integer tuples stay integer tuples
    return tuple(x - p if j == i else x for j, x in enumerate(v))


@lru_cache(maxsize=None)
def _word_columns(rd, word) -> tuple:
    """The images of the unit coweights under the word, walked letter by
    letter with `reflect`: the last letter applied to the prefix's images."""
    if not word:
        return tuple(tuple(int(i == j) for i in range(rd.rank)) for j in range(rd.rank))
    return tuple(reflect(rd, word[-1], v) for v in _word_columns(rd, word[:-1]))


@lru_cache(maxsize=None)
def action(w) -> tuple[tuple[int, ...], ...]:
    """Matrix of the Weyl element w on coweights (simple-coroot coordinates)."""
    return tuple(zip(*_word_columns(w.rd, w.word)))


def rational_grid(rd, height_cap, denominator: int):
    """`rootdata.dominant_grid` as coweights k / denominator."""
    return [tuple(Fraction(x, denominator) for x in k)
            for k in rootdata.dominant_grid(rd, height_cap, denominator)]


def integer_inverse(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) with m^-1 = adj / det, det the lcm of the denominators."""
    inv = inverse(m)
    det = lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * det) for x in row) for row in inv), det



# ---------------------------------------------------------------------------
# the Langlands dual root datum


_DUAL_LETTER = {"A": "A", "B": "C", "C": "B", "D": "D", "E": "E", "F": "F", "G": "G"}


@lru_cache(maxsize=None)
def dual_datum(rd, isogeny="sc"):
    """Dual root datum: literally the transposed Cartan matrix, so simple
    coroots of rd are exactly the simple roots of the dual (same indexing)."""
    factors = tuple((_DUAL_LETTER[l], n) for l, n in rd.label)
    cartan_t = tuple(tuple(rd.cartan[j][i] for j in range(rd.rank)) for i in range(rd.rank))
    return rootdata._build(factors, cartan_t, isogeny)


def oracle_gram(rd):
    """``multiplicity._gram`` by the Fraction route it replaced: each pairing
    <beta, alpha_j-vee> is ``rootdata.pair_root`` of beta on a unit coweight."""
    r = rd.rank
    units = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    rows = [[rootdata.pair_root(rd, beta, e) for e in units] for beta in rd.positive_roots]
    return tuple(tuple(sum(p[i] * p[j] for p in rows) for j in range(r)) for i in range(r))


def unmemoized_weight_system(rd, lam) -> dict:
    """The weight system of the dual-group V(lam), weights in increasing
    order, by Freudenthal's recursion over ``multiplicity._interval`` with
    every alpha-string point Y = D mu + k D alpha reduced to its dominant
    representative by ``rootdata._reduce_ints`` each time it is met, and
    (Y, alpha) computed from Y itself.  lam is checked."""
    lam = rootdata.check_dominant(rd, lam, "lambda")
    d, scaled = rootdata._scale(lam)
    interval = multiplicity._interval(rd, d, scaled)
    g = multiplicity._gram(rd)

    def form(x, y):
        return sum(a * g[i][j] * b for i, a in enumerate(x) for j, b in enumerate(y))

    def casimir(x):
        return form(x, x) + d * form(x, rd.two_rho_check)

    mult = {scaled: 1}
    for mu in reversed(interval[:-1]):
        total = 0
        for alpha in rd.positive_coroots:
            y = mu
            while True:
                y = tuple(map(add, y, (d * a for a in alpha)))
                m_y = mult.get(rootdata._reduce_ints(rd, y)[0])
                if m_y is None:
                    break
                total += m_y * form(y, alpha)
        mult[mu] = Fraction(2 * d * total, casimir(scaled) - casimir(mu))
    return {tuple(Fraction(x, d) for x in mu): mult[mu] for mu in interval}


# ---------------------------------------------------------------------------
# Weyl group and root system by full breadth-first passes


def oracle_enumerate_group(rd) -> tuple:
    """The Weyl group breadth-first from the identity, every s_i w tried and
    kept when its key was never seen: by length, then by word."""
    ident = weyl.identity_element(rd)
    seen = {ident.key}
    out = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rd.rank):
                key = reflect(rd, i, w.key)
                if key not in seen:
                    seen.add(key)
                    nxt.append(weyl.WeylElement(rd, key, w.word + (i,)))
        out.extend(nxt)
        frontier = nxt
    return tuple(out)


def descent_oracle(rd, w):
    """(left, right) descent bitmasks of w from pairings: i is a left descent
    when <alpha_i, w(2 rho_check)> < 0, and a right descent when it is a left
    descent of w^-1, whose image of 2 rho_check is the reversed word applied
    to 2 rho_check."""
    def mask(v):
        return sum(1 << i for i, p in enumerate(rootdata._pairings(rd, v)) if p < 0)

    inverse = rd.two_rho_check
    for i in reversed(w.word):
        inverse = reflect(rd, i, inverse)
    return mask(tuple(Fraction(x) for x in w.key)), mask(inverse)


def oracle_nilcone_strata(rd) -> list:
    """(J, word, dim) for every stratum of the nilpotent cone, sorted: each
    element w of `oracle_enumerate_group` with each J between its descents
    D_L u D_R (`descent_oracle`) and its support, where
    dim = dim G - dim L(J^c) - l(w) + |J| and dim L(J^c) counts the positive
    roots supported off J."""
    out = []
    for w in oracle_enumerate_group(rd):
        left, right = descent_oracle(rd, w)
        low = {i for i in range(rd.rank) if (left | right) >> i & 1}
        free = sorted(w.support - low)
        for k in range(len(free) + 1):
            for extra in combinations(free, k):
                j = tuple(sorted(low.union(extra)))
                levi = sum(all(root[i] == 0 for i in j) for root in rd.positive_roots)
                out.append((j, w.word, rd.dim_g - 2 * levi - rd.rank - w.length + len(j)))
    return sorted(out)


def oracle_root_closure(cartan):
    """All (root, coroot) pairs, each in simple-root / simple-coroot coords,
    every root reflected by every s_i with full pairings."""
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


# ---------------------------------------------------------------------------
# Weyl dimension formula (for the Langlands dual group) and orbit sizes


def weyl_dimension(rd, lam) -> int:
    """dim of the dual-group irreducible with highest weight lam.

    lam is a dominant coweight of rd, read as a dominant weight of the dual
    group; the product formula runs over the positive roots of the dual.
    """
    if not rootdata.is_dominant(rd, lam):
        raise UsageError("weyl_dimension needs a dominant coweight")
    num = Fraction(1)
    den = Fraction(1)
    rho = tuple(Fraction(x, 2) for x in rd.two_rho_check)
    shifted = tuple(x + y for x, y in zip(rootdata.coweight(lam), rho))
    for root in rd.positive_roots:
        # the positive coroots of the dual group are the positive roots of
        # rd; one pairs with a dual weight x (coroot coords of rd) as <root, x>.
        num *= rootdata.pair_root(rd, root, shifted)
        den *= rootdata.pair_root(rd, root, rho)
    val = num / den
    if val.denominator != 1 or val <= 0:
        raise InvariantViolation(f"Weyl dimension {val} is not a positive integer")
    return int(val)


def weyl_orbit(rd, v):
    v0, _ = rootdata.dominant_reduce(rd, rootdata.coweight(v))
    orbit = {v0}
    frontier = [v0]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(rd.rank):
                y = reflect(rd, i, x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return orbit


def orbit_size(rd, v) -> int:
    return len(weyl_orbit(rd, v))


def dimension_sum(rd, lam) -> int:
    """Sum of m_{lam,mu} * |W.mu| over dominant weights of V(lam); equals
    the Weyl dimension formula when everything is consistent."""
    wsys = multiplicity.weight_system(rd, rootdata.coweight(lam))
    return sum(m * orbit_size(rd, x) for x, m in wsys.items())


# ---------------------------------------------------------------------------
# class invariants as Fraction sums


def fraction_residual_value(cd, root) -> Fraction:
    """r_alpha, with the +/- symmetry applied; unspecified roots are 0."""
    positive = any(x > 0 for x in root) and all(x >= 0 for x in root)
    key = tuple(root) if positive else tuple(-x for x in root)
    for r, v in cd.residual:
        if r == key:
            return v
    return Fraction(0)


def fraction_disc_valuation(cd, _checked=True):
    """d(gamma) = 2 * sum of residual valuations on the vanishing roots
    minus <2 rho, dominant Newton point>; exact and possibly negative.

    Written in a form invariant under Weyl images of nu_bar: the second term
    is the sum of |<alpha, nu_bar>| over positive roots.
    """
    newton = sum(abs(sum(map(mul, root, cd.nu_pairings[1]))) for root in cd.rd.positive_roots)
    total = 2 * sum(v for _, v in cd.residual) - Fraction(newton, cd.nu_pairings[0])
    if _checked and total.denominator != 1:
        raise InvariantViolation(f"discriminant valuation {total} is not an integer")
    return total


def fraction_val_one_minus(cd, root) -> Fraction:
    """val(1 - alpha(gamma)) for any root alpha."""
    p = sum(map(mul, root, cd.nu_pairings[1]))
    if p != 0:
        return Fraction(min(p, 0), cd.nu_pairings[0])
    return fraction_residual_value(cd, root)


def val_one_minus(cd, root) -> Fraction:
    """val(1 - alpha(gamma)) for any root alpha, read off the class's table."""
    big, vals, _ = cd.valuations
    return Fraction(vals[tuple(root)], big)


def fraction_r_invariant(cd) -> Fraction:
    """r(gamma) = sum over positive roots of val(alpha(gamma) - 1)."""
    return sum((fraction_val_one_minus(cd, root) for root in cd.rd.positive_roots), Fraction(0))


def fraction_r_levi(cd, levi):
    """r_N for the standard parabolic with Levi subset I, plus the check
    d_G = d_M + 2 r_N."""
    rd = cd.rd
    if not conjugacy.is_split(cd):
        raise UsageError("Levi-relative invariants are implemented for split classes only")
    levi = frozenset(int(i) for i in levi)
    if any(not 0 <= i < rd.rank for i in levi):
        raise UsageError("Levi index out of range")
    in_levi = set(rootdata.levi_roots(rd, levi))
    phi_n = [a for a in rd.positive_roots if a not in in_levi]
    r_n = sum((fraction_val_one_minus(cd, a) for a in phi_n), Fraction(0))
    relation = fraction_disc_valuation(cd) == fraction_levi_disc_valuation(cd, levi) + 2 * r_n
    return r_n, relation


def fraction_levi_disc_valuation(cd, levi) -> Fraction:
    """d_M: val(1 - alpha(gamma)) summed over the roots alpha of the Levi M
    with simple roots I, both signs."""
    roots = rootdata.levi_roots(cd.rd, {int(i) for i in levi})
    return sum((fraction_val_one_minus(cd, a) + fraction_val_one_minus(cd, tuple(-x for x in a))
                for a in roots), Fraction(0))


# ---------------------------------------------------------------------------
# dominance intervals


@lru_cache(maxsize=None)
def oracle_dominant_below(rd, lam):
    """The dominance interval by the coroot-step walk that the package used
    before it walked by covers: unit simple-coroot steps down from lam, kept
    while the dominant representative stays below lam.  It assumes nothing
    about covers, so the tests read covers off it."""
    lam = rootdata.coweight(lam)
    out = []
    visited = {lam}
    stack = [lam]
    while stack:
        v = stack.pop()
        if rootdata.is_dominant(rd, v):
            out.append(v)
        for i in range(rd.rank):
            w = tuple(x - int(i == j) for j, x in enumerate(v))
            if w in visited or any(x < 0 for x in w):
                continue
            dom, _ = rootdata.dominant_reduce(rd, w)
            if rootdata.leq_q(rd, dom, lam):
                visited.add(w)
                stack.append(w)
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def scaled_interval(rd, lam):
    """(D, the scaled interval of ``multiplicity._interval``) for a checked
    lam, walked once per (rd, lam) for the oracles that search it."""
    d, scaled = rootdata._scale(lam)
    return d, tuple(multiplicity._interval(rd, d, scaled))


def minimal_above(rd, lam, low) -> list:
    """The minimal elements, sorted, of the dominant lattice coweights mu <= lam
    with mu_i >= low_i for every i, by a search of the whole dominance
    interval: the oracle of ``rootdata._least_above``.  It lists every
    minimal element, so a tie would show.  In the interval scaled by D,
    mu_i >= low_i exactly when D mu_i >= ceil(D low_i), since D mu_i is an
    integer.  The smallest tuple is tested against every other candidate
    in one pass, and the pairwise filter runs only when that fails."""
    d, interval = scaled_interval(rd, lam)
    low = tuple(-(-x.numerator * d // x.denominator) for x in low)
    above = [mu for mu in interval if all(map(le, low, mu))]
    if not above:
        return []
    best = min(above)
    if all(all(map(le, best, p)) for p in above):
        return [tuple(Fraction(x, d) for x in best)]
    return sorted(tuple(Fraction(x, d) for x in p) for p in above
                  if not any(q != p and all(map(le, q, p)) for q in above))


# ---------------------------------------------------------------------------
# generic valuation vectors of split classes


def generic_char_valuation(rd, mu, i: int) -> Fraction:
    """min over the weights chi of V(omega_i) of <chi, mu>: the generic
    valuation of the i-th trace coordinate at a unit times the mu-cocharacter.

    The weights are W-stable, so the minimum is taken at the dominant
    representative of mu, where the lowest weight w0(omega_i) =
    -omega_{iota(i)} attains it: -dominant(mu)[iota(i)]."""
    mu = rootdata.coweight(mu)
    if not 0 <= i < rd.rank:
        raise UsageError("fundamental index out of range")
    dom, _ = rootdata.dominant_reduce(rd, mu)
    return -dom[rd.iota[i]]


def valuation_vector_for(rd, lam, mu) -> tuple:
    """The generic c-valuations of a split class with cocharacter mu inside
    the lambda-twisted base: c_val_j = <lambda, omega_{iota(j)}> +
    generic_char_valuation(mu, j)."""
    lam = rootdata.coweight(lam)
    mu = rootdata.coweight(mu)
    return tuple(
        Fraction(lam[rd.iota[j]]) + generic_char_valuation(rd, mu, j)
        for j in range(rd.rank)
    )


# ---------------------------------------------------------------------------
# JSON writers and readers the package does not need


def _frac_to_json(x: Fraction):
    return {"num": x.numerator, "den": x.denominator}


def class_to_json(cd) -> dict:
    num_den = lcm(*(x.denominator for x in cd.nu_bar)) if cd.nu_bar else 1
    return {
        "type": "x".join(f"{letter}{n}" for letter, n in cd.rd.label),
        "isogeny": cd.rd.isogeny,
        "w": [i + 1 for i in cd.w.word],
        "e": cd.e,
        "nu_bar": {
            "num": [int(x * num_den) for x in cd.nu_bar],
            "den": num_den,
        },
        "residual": [
            {"root": list(root), "val": _frac_to_json(val)} for root, val in cd.residual
        ],
        "kappa": list(cd.kappa),
    }


def report_from_json(data) -> kv.KVReport:
    """The `kv.KVReport` that `KVReport.to_json` (`dim --json`) wrote."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)

    def cw(v):
        return None if v is None else tuple(Fraction(x) for x in v)

    return kv.KVReport(
        nonempty=bool(data["nonempty"]),
        newton=cw(data["newton"]),
        d=int(data["d"]),
        c=int(data["c"]),
        regular_orbit_bound=int(data["regular_orbit_bound"]),
        dimension=None if data["dimension"] is None else int(data["dimension"]),
        mu_star=cw(data["mu_star"]),
        predicted_orbits=(None if data["predicted_orbits"] is None
                          else int(data["predicted_orbits"])),
        regular_bound_exact=bool(data["regular_bound_exact"]),
        d_plus=None if data["d_plus"] is None else Fraction(data["d_plus"]),
        chen_zhu_mu=tuple(cw(v) for v in data["chen_zhu_mu"]),
    )


# ---------------------------------------------------------------------------
# twisted classes off the dominant chamber, and their conjugate records


def levi_coxeter_classes(rd) -> list:
    """Valid classes twisted by the Coxeter element of a standard Levi.

    For each proper nonempty subset J of the simple roots, w is the product
    of the s_j, j in J, in increasing order, and e its order.  nu_bar is a
    combination of the fundamental coweights off J with coefficients -1, 0
    and 1, so that <alpha_j, nu_bar> = 0 on J and w fixes nu_bar; it is kept
    when e nu_bar lies in Lambda.  Every root that vanishes on nu_bar gets the
    residual k / e, 0 <= k < e, and kappa is 0 or, for nu_bar in Lambda, the
    class of nu_bar.  What `make_class` refuses (a d(gamma) that is not an
    integer) is left out."""
    r = rd.rank
    omega = tuple(zip(*inverse(rd.cartan_columns)))  # the fundamental coweights
    grp = rootdata.fundamental_group(rd)
    out = []
    for size in range(1, r):
        for levi in combinations(range(r), size):
            w = weyl.word_to_element(rd, levi)
            e = w.order()
            off = [i for i in range(r) if i not in levi]
            for coeffs in product((-1, 0, 1), repeat=len(off)):
                nu = tuple(sum(a * omega[i][k] for a, i in zip(coeffs, off)) for k in range(r))
                if not is_integral(rd, tuple(e * x for x in nu)):
                    continue
                vanishing = [a for a in rd.positive_roots if rootdata.pair_root(rd, a, nu) == 0]
                kappas = {grp.zero()} | ({grp.project(nu)} if is_integral(rd, nu) else set())
                for k in range(e):
                    residual = {a: Fraction(k, e) for a in vanishing}
                    for kappa in sorted(kappas):
                        try:
                            out.append(conjugacy.make_class(rd, w, nu, residual, kappa))
                        except UsageError:
                            pass
    return out


def conjugate_class(cd, s):
    """The record (s w s^-1, e, s nu_bar, r o s^-1, kappa) of the class of cd,
    its twist built from the word s^-1 w s read in application order, which
    is not reduced."""
    rd = cd.rd
    w = weyl.word_to_element(rd, s.word[::-1] + cd.w.word + s.word)
    residual = {}
    for root, val in cd.residual:
        image = s.apply_root(root)
        residual[image if min(image) >= 0 else tuple(-x for x in image)] = val
    return conjugacy.make_class(rd, w, s.apply(cd.nu_bar), residual, cd.kappa, e=cd.e)
