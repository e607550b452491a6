"""Immutable sparse matrices with exact Gaussian elimination.

Everything downstream (cohomology, page towers, transport) reduces to
rank / kernel / solve over an exact field, so this module is the
performance floor of the package.  Rows are kept sparse during
elimination: dicts {col: value} in the generic case, packed integer
bitmasks over F_2, where the heaviest instances live.  The reduced row
echelon form of a matrix is unique, so every result here is canonical
regardless of the sparsity-driven pivot-row choice.
"""

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

    __slots__ = ("field", "nrows", "ncols", "_e", "_ech")

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
        self._ech = None

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

    @classmethod
    def vstack(cls, field, ncols, mats):
        ent = {}
        off = 0
        for m in mats:
            if m.ncols != ncols or m.field != field:
                raise ValueError("vstack shape/field mismatch")
            for (i, j), v in m._e.items():
                ent[(i + off, j)] = v
            off += m.nrows
        return cls(field, off, ncols, ent, _normalized=True)

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
        by_col = {}
        for (i, j), v in self._e.items():
            by_col.setdefault(j, []).append((i, v))
        acc = {}
        for (j, l), w in other._e.items():
            hits = by_col.get(j)
            if not hits:
                continue
            for i, v in hits:
                key = (i, l)
                acc[key] = acc.get(key, 0) + v * w
        zero = f.zero
        if p is not None:
            ent = {k: s % p for k, s in acc.items() if s % p}
        else:
            ent = {k: s for k, s in acc.items() if s != zero}
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

    def _echelon(self):
        """(pivot columns, RREF rows in packed form); cached."""
        if self._ech is None:
            rows = _pack_rows(self)
            pivots = _rref_rows(self.field, rows, self.ncols)
            self._ech = (tuple(pivots), rows)
        return self._ech

    def rank(self):
        return len(self._echelon()[0])

    def pivot_columns(self):
        return self._echelon()[0]

    def kernel(self):
        """Matrix whose columns are a canonical basis of {v : self*v = 0}.

        The basis comes from the RREF: one vector per free column, unit
        there, pivot coordinates filled by back-substitution.
        """
        f = self.field
        pivots, rows = self._echelon()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        ent = {}
        one = f.one
        if f.p == 2:
            for k, fc in enumerate(free):
                ent[(fc, k)] = one
                bit = 1 << fc
                for i, pc in enumerate(pivots):
                    if rows[i] & bit:
                        ent[(pc, k)] = one
        else:
            for k, fc in enumerate(free):
                ent[(fc, k)] = one
                for i, pc in enumerate(pivots):
                    v = rows[i].get(fc)
                    if v is not None:
                        ent[(pc, k)] = f.neg(v)
        return Matrix(f, self.ncols, len(free), ent, _normalized=True)

    def solve(self, rhs):
        """Some X with self * X = rhs, or None if any column has no solution.

        Free variables are set to zero, so the solution is canonical.  The
        result is verified by multiplication before being returned.
        """
        if rhs.nrows != self.nrows or rhs.field != self.field:
            raise ValueError("solve: shape/field mismatch")
        f = self.field
        n = self.ncols
        aug = Matrix.hstack(f, self.nrows, [self, rhs])
        rows = _pack_rows(aug)
        pivots = _rref_rows(f, rows, n)
        r = len(pivots)
        # leftover rows are zero in columns < n; any nonzero leftover marks
        # an inconsistent rhs column
        for row in rows[r:]:
            if row:
                return None
        ent = {}
        if f.p == 2:
            for i, pc in enumerate(pivots):
                high = rows[i] >> n
                j = 0
                while high:
                    if high & 1:
                        ent[(pc, j)] = 1
                    high >>= 1
                    j += 1
        else:
            for i, pc in enumerate(pivots):
                for c, v in rows[i].items():
                    if c >= n:
                        ent[(pc, c - n)] = v
        x = Matrix(f, n, rhs.ncols, ent, _normalized=True)
        if self * x != rhs:
            return None
        return x

    def inverse(self):
        if self.nrows != self.ncols:
            raise InvariantError("inverse of a non-square %dx%d matrix" % self.shape)
        x = self.solve(Matrix.identity(self.field, self.nrows))
        if x is None or self.rank() != self.nrows:
            raise InvariantError("matrix is not invertible (rank %d of %d)" % (self.rank(), self.nrows))
        return x


# -- elimination cores ----------------------------------------------------


def _pack_rows(m):
    """Row-major packed copy: int bitmasks over F_2, dicts otherwise."""
    if m.field.p == 2:
        rows = [0] * m.nrows
        for (i, j), _ in m._e.items():
            rows[i] |= 1 << j
    else:
        rows = [dict() for _ in range(m.nrows)]
        for (i, j), v in m._e.items():
            rows[i][j] = v
    return rows


def _rref_rows(field, rows, piv_limit):
    """In-place RREF; pivots only in columns < piv_limit.

    Returns the pivot column list; afterwards rows[i] carries pivot
    pivots[i] for i < rank, and every other row is zero in all columns
    < piv_limit.  Pivot rows are scaled to a unit pivot, and pivot
    columns are cleared everywhere else (full reduction), so the result
    is the canonical RREF whatever the pivot-row choice.
    """
    if field.p == 2:
        return _rref_f2(rows, piv_limit)
    return _rref_generic(field, rows, piv_limit)


def _rref_f2(rows, piv_limit):
    pivots = []
    nrows = len(rows)
    for col in range(piv_limit):
        bit = 1 << col
        best = -1
        best_w = 0
        for i in range(len(pivots), nrows):
            r = rows[i]
            if r & bit:
                w = r.bit_count()
                if best < 0 or w < best_w:
                    best, best_w = i, w
        if best < 0:
            continue
        k = len(pivots)
        rows[k], rows[best] = rows[best], rows[k]
        prow = rows[k]
        for i in range(nrows):
            if i != k and rows[i] & bit:
                rows[i] ^= prow
        pivots.append(col)
    return pivots


def _rref_generic(field, rows, piv_limit):
    p = field.p
    zero = field.zero
    pivots = []
    nrows = len(rows)
    for col in range(piv_limit):
        best = -1
        best_w = 0
        for i in range(len(pivots), nrows):
            if col in rows[i]:
                w = len(rows[i])
                if best < 0 or w < best_w:
                    best, best_w = i, w
        if best < 0:
            continue
        k = len(pivots)
        rows[k], rows[best] = rows[best], rows[k]
        prow = rows[k]
        pv = prow[col]
        if pv != field.one:
            inv = field.inv(pv)
            if p is not None:
                for c in prow:
                    prow[c] = prow[c] * inv % p
            else:
                for c in prow:
                    prow[c] = prow[c] * inv
        for i in range(nrows):
            if i == k:
                continue
            row = rows[i]
            f = row.get(col)
            if f is None or f == zero:
                continue
            if p is not None:
                for c, v in prow.items():
                    nv = (row.get(c, 0) - f * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            else:
                for c, v in prow.items():
                    nv = row.get(c, zero) - f * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        pivots.append(col)
    return pivots


# -- subspace helpers -------------------------------------------------------


def span_contains(big, small):
    """True iff every column of `small` lies in the column span of `big`."""
    if big.nrows != small.nrows or big.field != small.field:
        raise ValueError("span_contains: shape/field mismatch")
    stacked = Matrix.hstack(big.field, big.nrows, [big, small])
    return stacked.rank() == big.rank()


def subquotient_dim(z, b):
    """dim(span z / span b); raises InvariantError unless span b ⊆ span z."""
    if not span_contains(z, b):
        raise InvariantError("subquotient: B is not contained in Z")
    return z.rank() - b.rank()


def quotient_basis(z, b):
    """Columns of `z` representing a basis of span(z)/span(b).

    Eliminates [b | z] and picks the z-columns that add new pivots; the
    choice is canonical because the RREF pivot set is.  Raises
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
