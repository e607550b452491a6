"""Exact linear algebra owned by the benchmark.

Inputs are generated and reference answers computed with these routines,
so neither depends on `spectower.matrix`, the code being measured.  The
field is given as `p`: a prime, or None for the rationals.  Dense
matrices are lists of rows; F_2 matrices are lists of integer row
bitmasks.
"""

from fractions import Fraction


def norm(p, x):
    return Fraction(x) if p is None else x % p


def random_scalar(rng, p, nonzero=False):
    """Small random scalars: residues over F_p, n/d with |n| <= 3 over Q."""
    if p is not None:
        return rng.randrange(1 if nonzero else 0, p)
    num = rng.choice([x for x in range(-3, 4) if x or not nonzero])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def identity(p, n):
    one, zero = norm(p, 1), norm(p, 0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mul(p, a, b, ncols=None):
    """a (m x n) times b (n x l); `ncols` gives l when b has no rows."""
    ncols = len(b[0]) if b else (ncols or 0)
    zero = norm(p, 0)
    out = []
    for row in a:
        acc = [zero] * ncols
        for j, v in enumerate(row):
            if v:
                for l, w in enumerate(b[j]):
                    if w:
                        acc[l] += v * w
        out.append([x % p for x in acc] if p is not None else acc)
    return out


def add(p, a, b):
    return [[norm(p, x + y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rank(p, rows):
    """Rank by Gaussian elimination over sparse dict rows."""
    work = [{j: v for j, v in enumerate(r) if v} for r in rows]
    work = [r for r in work if r]
    rk = 0
    while work:
        prow = min(work, key=len)
        work.remove(prow)
        col = min(prow)
        pv = prow[col]
        rk += 1
        nxt = []
        for r in work:
            f = r.get(col)
            if f:
                c = f / pv if p is None else f * pow(pv, -1, p) % p
                for j, v in prow.items():
                    nv = r.get(j, 0) - c * v
                    if p is not None:
                        nv %= p
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
            if r:
                nxt.append(r)
        work = nxt
    return rk


def inverse(p, a):
    """Gauss-Jordan inverse of a square dense matrix; ValueError if singular."""
    n = len(a)
    m = [list(row) + e for row, e in zip(a, identity(p, n))]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c] if p is None else pow(m[c][c], -1, p)
        m[c] = [norm(p, x * inv) for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [norm(p, x - f * y) for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def random_matrix(rng, p, nrows, ncols, density):
    zero = norm(p, 0)
    return [
        [random_scalar(rng, p) if rng.random() < density else zero for _ in range(ncols)]
        for _ in range(nrows)
    ]


def random_unitriangular(rng, p, n, density):
    """I plus strictly upper triangular noise; invertible by construction."""
    m = identity(p, n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                m[i][j] = random_scalar(rng, p, nonzero=True)
    return m


def transpose(a):
    return [list(col) for col in zip(*a)]


def random_invertible(rng, p, n, density=0.25):
    up = random_unitriangular(rng, p, n, density)
    low = transpose(random_unitriangular(rng, p, n, density))
    diag = identity(p, n)
    for i in range(n):
        diag[i][i] = norm(p, random_scalar(rng, p, nonzero=True))
    return mul(p, mul(p, up, diag), low)


def triples(a):
    """Nonzero (row, col, value) entries of a dense matrix."""
    return [(i, j, v) for i, row in enumerate(a) for j, v in enumerate(row) if v]


# -- F_2 as row bitmasks ----------------------------------------------------


def f2_random_lower_unitriangular(rng, n, density):
    """Transpose of I plus strictly upper noise, drawn row by row as the
    upper factor would be: entry (j, i) is set for i < j."""
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[j] |= 1 << i
    return rows


def f2_inverse_lower(rows):
    """Inverse of a lower unitriangular F_2 matrix by forward substitution."""
    inv = []
    for i, row in enumerate(rows):
        acc = 1 << i
        rest = row & ~(1 << i)
        while rest:
            low = rest & -rest
            acc ^= inv[low.bit_length() - 1]
            rest ^= low
        inv.append(acc)
    return inv


def f2_mul(a, b):
    """Row-bitmask product a * b."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc ^= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out
