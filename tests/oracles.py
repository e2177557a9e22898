"""Test oracles and input builders that no command of the package runs.

The package answers its lattice questions with one integer Smith normal form
(`kvcalc.linalg`) and lets a Weyl element act by walking its word.  The
`Fraction` Gaussian eliminations and the action matrices below are
independent of both, and the tests compare the package against them.

The rest were public functions of the package until nothing but the tests
called them: the Weyl dimension formula with the orbit-size sum it checks
`weight_system` against, the generic valuation vector of a split class, and
the JSON writers of a class datum and of a `dim --json` report.
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

from kvcalc import kv, multiplicity, rootdata, strata, weyl
from kvcalc.errors import InvariantViolation, UsageError

Matrix = tuple[tuple[Fraction, ...], ...]


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


@lru_cache(maxsize=None)
def action(w) -> tuple[tuple[int, ...], ...]:
    """Matrix of the Weyl element w on coweights (simple-coroot coordinates)."""
    r = w.rd.rank
    cols = [weyl._apply_word(w.rd, w.word, tuple(int(i == j) for i in range(r)))
            for j in range(r)]
    return tuple(zip(*cols))


def integer_inverse(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) with m^-1 = adj / det, det the lcm of the denominators."""
    inv = inverse(m)
    det = lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * det) for x in row) for row in inv), det



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
    shifted = rootdata.add(rootdata.coweight(lam), rd.rho_check)
    for root in rd.positive_roots:
        # the positive coroots of the dual group are the positive roots of
        # rd; one pairs with a dual weight x (coroot coords of rd) as <root, x>.
        num *= rootdata.pair_root(rd, root, shifted)
        den *= rootdata.pair_root(rd, root, rd.rho_check)
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
                y = rootdata.reflect(rd, i, x)
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


def valuation_vector_for(rd, lam, mu) -> strata.ValuationVector:
    """The generic valuation vector of a split class with cocharacter mu
    inside the lambda-twisted base: c_val_j = <lambda, omega_{iota(j)}> +
    generic_char_valuation(mu, j)."""
    lam = rootdata.coweight(lam)
    mu = rootdata.coweight(mu)
    b_vals = tuple(lam[rd.iota[i]] for i in range(rd.rank))
    c_vals = tuple(
        Fraction(lam[rd.iota[j]]) + generic_char_valuation(rd, mu, j)
        for j in range(rd.rank)
    )
    return strata.ValuationVector(b_vals=b_vals, c_vals=c_vals)


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
