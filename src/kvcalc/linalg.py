"""Integer linear algebra: one routine, the Smith normal form.

It answers every lattice question the package asks: the inverse of a lattice
basis as (adj, det) (`rootdata._integer_inverse`), the fundamental group
X_*(T) / (coroot lattice) (`rootdata.fundamental_group`), and the dimension
of the fixed space of a Weyl element (`weyl.fixed_space_dim`).
"""


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u @ a @ v == d, u and v unimodular, and d diagonal
    with d[i][i] dividing d[i+1][i+1].
    """
    a = [list(map(int, row)) for row in a]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(n, m):
        # move a nonzero pivot of minimal magnitude to (t, t)
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, n):
            if a[i][t] != 0:
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, m):
            if a[t][j] != 0:
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(m)] for i in range(n)]
    return (
        tuple(tuple(row) for row in d),
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )
