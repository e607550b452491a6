"""Immutable sparse matrices with exact Gaussian elimination.

Everything downstream (cohomology, page towers, transport) reduces to
rank / kernel / solve over an exact field, so this module is the
performance floor of the package.  Vectors are kept sparse: packed
integer bitmasks over F_2, where the heaviest instances live, dicts
{index: residue} over F_p and dicts {index: int} over Q.  Over Q every
kernel clears denominators once and combines integer vectors by
a*x - b*y with the content divided out (Bareiss-style, fraction-free).

One elimination.  All elimination is one left-to-right pass over the packed
columns, each reduced against the earlier column owning its lowest entry
(the column reduction R = D V of persistence; PHAT, Bauer-Kerber-
Reininghaus-Wagner 2017).  A column is a pivot column iff it grows the
span of the columns before it, which is the RREF pivot set.  `rank`,
`pivot_columns` and the subspace helpers keep no V (`_grows`); `kernel`
and `solve` track each column's combination V (`_tracked`), and read the
canonical RREF kernel basis and free-variables-zero solution off it.
Over Q the pass builds no Fraction until the output, one per entry.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantError
from .field import Field

__all__ = [
    "Matrix",
    "span_contains",
    "subquotient_dim",
    "quotient_basis",
]


class Matrix:
    """A sparse matrix over a Field.  Treat instances as immutable values.

    Entries are stored as a dict {(row, col): value} holding only nonzero
    canonical scalars.  Equality is structural (field, shape, entries).
    """

    __slots__ = ("field", "nrows", "ncols", "_e", "_piv")

    def __init__(self, field, nrows, ncols, entries=None, _normalized=False):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        if entries is None:
            entries = {}
        if not _normalized:
            clean = {}
            zero = field.zero
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError("entry (%d,%d) outside %dx%d" % (i, j, nrows, ncols))
                v = field.normalize(v)
                if v != zero:
                    clean[(i, j)] = v
            entries = clean
        self._e = entries
        self._piv = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_entries(cls, field, nrows, ncols, triples):
        """Build from (row, col, value) triples; duplicates accumulate."""
        zero = field.zero
        acc = {}
        for i, j, v in triples:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError("entry (%d,%d) outside %dx%d" % (i, j, nrows, ncols))
            v = field.normalize(v)
            key = (i, j)
            if key in acc:
                v = field.add(acc[key], v)
            acc[key] = v
        acc = {k: v for k, v in acc.items() if v != zero}
        return cls(field, nrows, ncols, acc, _normalized=True)

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                ent[(i, j)] = v
        return cls(field, len(rows), ncols, ent)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls(field, n, n, {(i, i): one for i in range(n)}, _normalized=True)

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, {}, _normalized=True)

    @classmethod
    def column_vector(cls, field, values):
        ent = {(i, 0): v for i, v in enumerate(values)}
        return cls(field, len(values), 1, ent)

    @classmethod
    def basis_column(cls, field, n, i):
        return cls(field, n, 1, {(i, 0): field.one}, _normalized=True)

    @classmethod
    def hstack(cls, field, nrows, mats):
        ent = {}
        off = 0
        for m in mats:
            if m.nrows != nrows or m.field != field:
                raise ValueError("hstack shape/field mismatch")
            for (i, j), v in m._e.items():
                ent[(i, j + off)] = v
            off += m.ncols
        return cls(field, nrows, off, ent, _normalized=True)

    # -- basic structure -------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entries(self):
        """Sorted (row, col, value) triples."""
        return [(i, j, v) for (i, j), v in sorted(self._e.items())]

    def get(self, i, j):
        return self._e.get((i, j), self.field.zero)

    @property
    def nnz(self):
        return len(self._e)

    def is_zero(self):
        return not self._e

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self._e == other._e
        )

    __hash__ = None

    def __repr__(self):
        return "Matrix(%r, %dx%d, nnz=%d)" % (self.field, self.nrows, self.ncols, self.nnz)

    def to_dense(self):
        zero = self.field.zero
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self._e.items():
            out[i][j] = v
        return out

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise ValueError("shape/field mismatch in +")
        f = self.field
        zero = f.zero
        ent = dict(self._e)
        for k, v in other._e.items():
            nv = f.add(ent.get(k, zero), v)
            if nv == zero:
                ent.pop(k, None)
            else:
                ent[k] = nv
        return Matrix(self.field, self.nrows, self.ncols, ent, _normalized=True)

    def __neg__(self):
        f = self.field
        ent = {k: f.neg(v) for k, v in self._e.items()}
        return Matrix(self.field, self.nrows, self.ncols, ent, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        c = f.normalize(c)
        if c == f.zero:
            return Matrix.zero(f, self.nrows, self.ncols)
        ent = {k: f.mul(v, c) for k, v in self._e.items()}
        return Matrix(f, self.nrows, self.ncols, ent, _normalized=True)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise ValueError(
                "cannot multiply %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        f = self.field
        p = f.p
        if p == 2:  # columns of self as row bitmasks, XORed along each column of other
            cols, acc, ent = _packed_columns(self), {}, {}
            for j, l in other._e:
                acc[l] = acc.get(l, 0) ^ cols[j]
            for l, x in acc.items():
                while x:
                    ent[((x & -x).bit_length() - 1, l)] = 1
                    x &= x - 1
            return Matrix(f, self.nrows, other.ncols, ent, _normalized=True)
        a, b = self._e, other._e
        if p is None:  # integer factors: self = a / ad, other = b / bd
            ad, (a,) = clear_denominators([a])
            bd, (b,) = clear_denominators([b])
        by_col = {}
        for (i, j), v in a.items():
            by_col.setdefault(j, []).append((i, v))
        acc = {}
        for (j, l), w in b.items():
            for i, v in by_col.get(j, ()):
                key = (i, l)
                acc[key] = acc.get(key, 0) + v * w
        if p is not None:
            ent = {k: s % p for k, s in acc.items() if s % p}
        else:
            den = ad * bd
            ent = {k: Fraction(s, den) for k, s in acc.items() if s}
        return Matrix(f, self.nrows, other.ncols, ent, _normalized=True)

    def transpose(self):
        ent = {(j, i): v for (i, j), v in self._e.items()}
        return Matrix(self.field, self.ncols, self.nrows, ent, _normalized=True)

    def take_columns(self, cols):
        pos = {c: k for k, c in enumerate(cols)}
        ent = {}
        for (i, j), v in self._e.items():
            k = pos.get(j)
            if k is not None:
                ent[(i, k)] = v
        return Matrix(self.field, self.nrows, len(cols), ent, _normalized=True)

    def take_rows(self, rows):
        pos = {r: k for k, r in enumerate(rows)}
        ent = {}
        for (i, j), v in self._e.items():
            k = pos.get(i)
            if k is not None:
                ent[(k, j)] = v
        return Matrix(self.field, len(rows), self.ncols, ent, _normalized=True)

    def submatrix(self, rows, cols):
        return self.take_rows(rows).take_columns(cols)

    # -- elimination ------------------------------------------------------

    def _pivots(self):
        """The columns outside the span of the columns before them: one
        `_grows` pass (over Q on cleared ints), or `kernel`'s / `solve`'s."""
        if self._piv is None:
            basis, f = {}, self.field
            self._piv = tuple(j for j, col in enumerate(_integral_columns(self)[1]) if _grows(f, basis, col))
        return self._piv

    def rank(self):
        """The number of pivot columns, from one span-growth pass."""
        return len(self._pivots())

    def pivot_columns(self):
        """The RREF pivot columns, ascending, without building the RREF."""
        return self._pivots()

    def _column_pass(self, cols):
        """One tracked pass over the first ncols packed `cols`: (the echelon
        basis {low: (column, V)}, [(j, V)] for each column j in the span of
        the columns before it); caches the pivot columns."""
        f, basis, deps, piv = self.field, {}, [], []
        for j in range(self.ncols):
            v = _tracked(f, basis, j, cols[j])
            if v is None:
                piv.append(j)
            else:
                deps.append((j, v))
        self._piv = tuple(piv)
        return basis, deps

    def kernel(self):
        """Matrix whose columns are a canonical basis of {v : self*v = 0}.

        A column j in the span of the columns before it has V = e_j plus
        earlier pivot columns only, so V / V[j] is the kernel vector that is
        1 at j and 0 at every other free column: the RREF basis.
        """
        deps = self._column_pass(_integral_columns(self)[1])[1]
        return _combinations(self.field, self.ncols, deps)

    def solve(self, rhs):
        """Some X with self * X = rhs, or None if any column has no solution.

        Each column of rhs, tracked as column n, is reduced against the
        pivot basis of self; with nothing left over, A V[:n] = -V[n] rhs, so
        X = V[:n] / -V[n] lies on pivot columns, free variables are zero and
        the solution is canonical.  The result is verified by
        multiplication before being returned.
        """
        if rhs.nrows != self.nrows or rhs.field != self.field:
            raise ValueError("solve: shape/field mismatch")
        f, n = self.field, self.ncols
        cols = _integral_columns(Matrix.hstack(f, self.nrows, [self, rhs]))[1]
        basis = self._column_pass(cols)[0]
        sols = []
        for col in cols[n:]:
            v = _tracked(f, basis, n, col)
            if v is None:
                return None
            if f.p != 2:  # over F_2, -1 = 1
                v[n] = -v[n]
            sols.append((n, v))
        x = _combinations(f, n, sols)
        if self * x != rhs:
            return None
        return x

    def inverse(self):
        """The inverse from one elimination: `solve` verifies A X = I by
        multiplication, which for a square A proves X = A^{-1}."""
        if self.nrows != self.ncols:
            raise InvariantError("inverse of a non-square %dx%d matrix" % self.shape)
        x = self.solve(Matrix.identity(self.field, self.nrows))
        if x is None:
            raise InvariantError("matrix is not invertible (rank %d of %d)" % (self.rank(), self.nrows))
        return x


# -- elimination cores ----------------------------------------------------


def _packed_columns(m, index=None):
    """The columns of m as int bitmasks over F_2, {row: value} dicts
    otherwise; rows renumbered through `index` when it is given."""
    f2 = m.field.p == 2
    cols = [0 if f2 else {} for _ in range(m.ncols)]
    for (i, j), v in m._e.items():
        if index is not None:
            i = index[i]
        if f2:
            cols[j] |= 1 << i
        else:
            cols[j][i] = v
    return cols


def _integral_columns(m, index=None):
    """(δ, packed columns of δ·m): over Q δ clears every denominator of m
    and the columns hold ints; δ = 1 over F_p."""
    if m.field.p is not None:
        return 1, _packed_columns(m, index)
    den, (e,) = clear_denominators([m._e])
    return den, _packed_columns(Matrix(m.field, m.nrows, m.ncols, e, _normalized=True), index)


def _sub(f, col, c, other):
    """col - c * other for packed columns; dict columns change in place."""
    if f.p == 2:
        return col ^ other
    for i, v in other.items():
        nv = f.sub(col.get(i, f.zero), f.mul(c, v))
        if nv:
            col[i] = nv
        else:
            col.pop(i, None)
    return col


def _grows(f, basis, col):
    """Reduce col against the echelon basis {pivot: column}; True, with the
    remainder added to the basis, iff col is outside its span.  Over Q the
    columns hold ints and only ranks matter, so remainders are kept
    primitive instead of exact."""
    if f.p == 2:
        while col:
            low = col.bit_length() - 1
            b = basis.get(low)
            if b is None:
                basis[low] = col
                return True
            col ^= b
        return False
    col = dict(col)
    while col:
        low = max(col)
        b = basis.get(low)
        if b is None:
            basis[low] = col
            return True
        if f.p is None:
            col = int_combine(b[low], [col], col[low], [b])[0][0]
        else:
            _sub(f, col, f.div(col[low], b[low]), b)
    return False


def _tracked(f, basis, j, col):
    """Reduce column j against the echelon basis {low: (column, V)}, with V
    the combination of input columns it is, starting at e_j.  Returns V if
    col reduces to zero; otherwise adds (remainder, V) to the basis and
    returns None.  Over Q the pair stays integral and primitive, so V is
    exact only up to a common factor; over F_p it is never scaled."""
    if f.p == 2:
        v = 1 << j
        while col:
            low = col.bit_length() - 1
            b = basis.get(low)
            if b is None:
                basis[low] = (col, v)
                return None
            col ^= b[0]
            v ^= b[1]
        return v
    col, v = dict(col), {j: 1}
    while col:
        low = max(col)
        b = basis.get(low)
        if b is None:
            basis[low] = (col, v)
            return None
        if f.p is None:
            col, v = int_combine(b[0][low], [col, v], col[low], b)[0]
        else:
            c = f.div(col[low], b[0][low])
            _sub(f, col, c, b[0])
            _sub(f, v, c, b[1])
    return v


def _combinations(f, nrows, deps):
    """The nrows x len(deps) matrix whose k-th column is v[:nrows] / v[t]
    for the k-th (t, v) of deps: one Fraction per entry over Q; over F_p
    v[t] = ±1, its own inverse."""
    ent = {}
    if f.p == 2:
        low = (1 << nrows) - 1
        for k, (_, v) in enumerate(deps):
            x = v & low
            while x:
                ent[((x & -x).bit_length() - 1, k)] = 1
                x &= x - 1
    else:
        for k, (t, v) in enumerate(deps):
            for i, x in v.items():
                if i < nrows:
                    ent[(i, k)] = (x if v[t] == 1 else f.neg(x)) if f.p else Fraction(x, v[t])
    return Matrix(f, nrows, len(deps), ent, _normalized=True)


def clear_denominators(vecs):
    """(δ, [δ·v for v in vecs]) for dicts of Fractions, δ the lcm of all
    their denominators: the scaled dicts hold ints."""
    den = lcm(*[v.denominator for x in vecs for v in x.values()])
    return den, [{i: v.numerator * (den // v.denominator) for i, v in x.items()} for x in vecs]


def as_fractions(vec, den):
    """The dict of Fractions vec / den for an integer dict vec."""
    return {i: Fraction(v, den) for i, v in vec.items()}


def int_combine(a, xs, b, ys, den=0):
    """(a·x - b·y for each x, y of the integer dict vectors xs, ys; a·den),
    all divided by their common content after a and b are divided by theirs.

    New dicts, zero entries dropped.  With den = 0 this makes the vectors
    primitive; with a denominator shared by x, it keeps x / den exact.
    """
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    c = den = a * den
    out = []
    for x, y in zip(xs, ys):
        z = {i: a * v for i, v in x.items()} if a != 1 else dict(x)
        for i, v in y.items():
            v = z.get(i, 0) - b * v
            if v:
                z[i] = v
            else:
                del z[i]
        c = gcd(c, *z.values())
        out.append(z)
    if c > 1:
        out = [{i: v // c for i, v in z.items()} for z in out]
        den //= c
    return out, den


# -- subspace helpers -------------------------------------------------------


def span_contains(big, small):
    """True iff every column of `small` lies in the column span of `big`:
    one pivot pass over [big | small] finds no pivot among small's columns."""
    if big.nrows != small.nrows or big.field != small.field:
        raise ValueError("span_contains: shape/field mismatch")
    pivots = Matrix.hstack(big.field, big.nrows, [big, small]).pivot_columns()
    return not pivots or pivots[-1] < big.ncols


def subquotient_dim(z, b):
    """dim(span z / span b); raises InvariantError unless span b ⊆ span z."""
    if not span_contains(z, b):
        raise InvariantError("subquotient: B is not contained in Z")
    return z.rank() - b.rank()


def quotient_basis(z, b):
    """Columns of `z` representing a basis of span(z)/span(b).

    Picks the z-columns that are pivot columns of [b | z], i.e. grow the
    span of the columns before them; the choice is canonical.  Raises
    InvariantError unless span(b) ⊆ span(z).
    """
    f = z.field
    if z.nrows != b.nrows or f != b.field:
        raise ValueError("quotient_basis: shape/field mismatch")
    stacked = Matrix.hstack(f, z.nrows, [b, z])
    pivots = stacked.pivot_columns()
    if len(pivots) != z.rank():
        raise InvariantError("subquotient: B is not contained in Z")
    chosen = [c - b.ncols for c in pivots if c >= b.ncols]
    return z.take_columns(chosen)
