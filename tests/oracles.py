"""Rational linear algebra and Weyl action matrices, kept as test oracles.

The package answers its lattice questions with one integer Smith normal form
(`kvcalc.linalg`) and lets a Weyl element act by walking its word.  The
`Fraction` Gaussian eliminations and the action matrices below are
independent of both, and the tests compare the package against them.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from kvcalc import weyl

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

