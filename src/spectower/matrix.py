"""Immutable sparse matrices with exact Gaussian elimination.

Everything downstream (cohomology, page towers, transport) reduces to
rank / kernel / solve over an exact field, so this module is the
performance floor of the package.

Columns are the one stored form of a Matrix (the column-major layout of
PHAT, Bauer-Kerber-Reininghaus-Wagner 2017).  `cols[j]` is column j:
an int bitmask over F_2 (bit i set iff entry (i, j) is 1), where the
heaviest instances live, and a dict {row: value} of nonzero values
otherwise, residues in [1, p) over F_p.  Over Q the dict values are ints
and the matrix is cols / den for one positive int `den`, with the content
divided out (gcd(den, every value) = 1) so that equality stays
structural.  A product over Q multiplies integer columns and the two
denominators.  Elimination over F_p and Q takes one in-place step
(`_step`): each pass copies the column it is given once and every step
writes into that copy.  Over F_p a column joins an echelon basis monic,
by one modular inverse, so a step is x - x[low]*y and touches only the
entries of y.  Over Q a step is fraction-free, a*x - b*y with a and b
divided by their gcd and a > 0, and nothing more: x is scaled only when
a != 1, so a step with scale 1 also touches only the entries of y.  The
content is divided out once per column (`_primitive`), where a pass stores
or returns it, and a walk carries its scale in its denominator.
The accessors `entries`, `get` and `to_dense` are the only places that
build Fractions.  Where structure fixes the answer nothing is computed: a
product with an identity factor is the other factor, one with a zero factor
is zero, `solve` of an identity is its right-hand side, verified, and an
in-place selection (every row or column, in order) is the matrix itself.

One elimination.  All elimination is one left-to-right pass over the
columns, each reduced against the earlier column owning its pivot, its
least row (the column reduction R = D V of persistence).  A column is a pivot
column iff it grows the span of the columns before it, which is the RREF
pivot set.  `pivot_columns` and the subspace helpers keep no V and stop
at nrows pivots (`_echelon`); `pivot_columns` caches its pivot set, which
`kernel` and `solve` also fill, and `rank` is its length.  `kernel` and
`solve` track V (`_tracked`), and read the canonical RREF kernel basis
and free-variables-zero solution off it.  The tower reduction of
`spectral._Reduction` is the same tracked pass per d^k, last column first.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import eq

from .errors import InvariantError, ParseError


class Matrix:
    """A sparse matrix over a Field.  Treat instances as immutable values.

    Stored as columns: `cols` (bitmasks over F_2, {row: value} dicts
    otherwise) and `den`, the positive denominator over Q and 1 over F_p.
    Equality is structural (field, shape, columns, denominator).
    """

    __slots__ = ("field", "nrows", "ncols", "cols", "den", "_piv")

    def __init__(self, field, nrows, ncols, entries=None):
        """From a dict {(row, col): value} of scalars Field.normalize accepts."""
        self._fill(field, nrows, ncols, [(i, j, v) for (i, j), v in (entries or {}).items()])

    def _fill(self, field, nrows, ncols, triples):
        p = field.p
        cols = [0 if p == 2 else {} for _ in range(ncols)]
        for i, j, v in triples:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ParseError("entry (%d,%d) outside %dx%d" % (i, j, nrows, ncols))
            if type(v) is not int:
                v = field.normalize(v)
            elif p is not None:  # reduced mod p; over Q an int stays an int
                v %= p
            if p == 2:
                cols[j] ^= v << i
            else:
                col = cols[j]
                col[i] = col[i] + v if i in col else v
        den = 1
        if p is None:  # the lcm of reduced denominators leaves no common content
            den = lcm(*[v.denominator for col in cols for v in col.values()])
            cols = [{i: v.numerator * (den // v.denominator) for i, v in col.items() if v} for col in cols]
        elif p != 2:
            cols = [{i: v % p for i, v in col.items() if v % p} for col in cols]
        self.field, self.nrows, self.ncols, self.cols, self.den, self._piv = field, nrows, ncols, cols, den, None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_entries(cls, field, nrows, ncols, triples):
        """Build from (row, col, value) triples; duplicates accumulate."""
        m = cls.__new__(cls)
        m._fill(field, nrows, ncols, triples)
        return m

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls.from_entries(field, len(rows), ncols, [(i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r)])

    @classmethod
    def identity(cls, field, n):
        return _matrix(field, n, [1 << i if field.p == 2 else {i: 1} for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols):
        return _matrix(field, nrows, [0 if field.p == 2 else {} for _ in range(ncols)])

    @classmethod
    def hstack(cls, field, nrows, mats):
        """The matrices side by side; over Q on the lcm of their denominators,
        which leaves no common content."""
        for m in mats:
            if m.nrows != nrows or m.field != field:
                raise InvariantError("hstack shape/field mismatch")
        return _divided(field, nrows, [(c, m.den) for m in mats for c in m.cols])

    # -- basic structure -------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entries(self):
        """Sorted (row, col, value) triples; over Q one Fraction per entry."""
        if self.field.p == 2:
            out = [(i, j, 1) for j, x in enumerate(self.cols) for i in _bits(x)]
        elif self.field.p is None:
            den = self.den
            out = [(i, j, Fraction(v, den)) for j, c in enumerate(self.cols) for i, v in c.items()]
        else:
            out = [(i, j, v) for j, c in enumerate(self.cols) for i, v in c.items()]
        return sorted(out, key=lambda t: (t[0], t[1]))

    def support(self):
        """(row, col) of each nonzero entry, column by column."""
        if self.field.p == 2:
            return [(i, j) for j, x in enumerate(self.cols) for i in _bits(x)]
        return [(i, j) for j, c in enumerate(self.cols) for i in c]

    def get(self, i, j):
        col = self.cols[j]
        if self.field.p == 2:
            return col >> i & 1
        return col.get(i, 0) if self.field.p else Fraction(col.get(i, 0), self.den)

    @property
    def nnz(self):
        return sum(x.bit_count() for x in self.cols) if self.field.p == 2 else sum(map(len, self.cols))

    def is_zero(self):
        return not any(self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.den == other.den
            and self.cols == other.cols
        )

    __hash__ = None

    def __repr__(self):
        return "Matrix(%r, %dx%d, nnz=%d)" % (self.field, self.nrows, self.ncols, self.nnz)

    def to_dense(self):
        zero = self.field.zero
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, j, v in self.entries():
            out[i][j] = v
        return out

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise InvariantError("shape/field mismatch in +")
        f, p = self.field, self.field.p
        if p == 2:
            return _matrix(f, self.nrows, [x ^ y for x, y in zip(self.cols, other.cols)])
        den = lcm(self.den, other.den)
        sx, sy, out = den // self.den, den // other.den, []
        for x, y in zip(self.cols, other.cols):
            z = {i: sx * v for i, v in x.items()}
            for i, v in y.items():
                z[i] = z.get(i, 0) + sy * v
            out.append({i: v % p for i, v in z.items() if v % p} if p else {i: v for i, v in z.items() if v})
        return _matrix(f, self.nrows, out, den)

    def __neg__(self):
        p = self.field.p
        if p == 2:
            return self
        return _matrix(self.field, self.nrows, [{i: p - v if p else -v for i, v in c.items()} for c in self.cols],
                       self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = self.field
        c = f.normalize(c)
        if c == f.zero:
            return Matrix.zero(f, self.nrows, self.ncols)
        if f.p == 2:
            return self
        if f.p:
            return _matrix(f, self.nrows, [_scaled(f.p, x, c) for x in self.cols])
        n = c.numerator
        return _matrix(f, self.nrows, [{i: v * n for i, v in x.items()} for x in self.cols], self.den * c.denominator)

    def __mul__(self, other):
        """The product; with an identity factor (`_is_identity`) the other
        factor, as it is, and with a zero factor the zero of its shape."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise InvariantError(
                "cannot multiply %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        if not any(self.cols) or not any(other.cols):
            return Matrix.zero(self.field, self.nrows, other.ncols)
        # column l of the product is self applied to column l of other;
        # over Q on integer columns, over the product of the denominators
        f, a = self.field, self.cols
        return _matrix(f, self.nrows, [_apply(f, a, y) for y in other.cols], self.den * other.den)

    def transpose(self):
        if self.field.p == 2:
            out = [0] * self.nrows
            for j, x in enumerate(self.cols):
                for i in _bits(x):
                    out[i] |= 1 << j
        else:
            out = [{} for _ in range(self.nrows)]
            for j, c in enumerate(self.cols):
                for i, v in c.items():
                    out[i][j] = v
        return _matrix(self.field, self.ncols, out, self.den)

    def take_columns(self, cols):
        """The columns `cols`; the matrix itself for an in-place selection, all in order."""
        if len(cols) == self.ncols and all(map(eq, cols, range(self.ncols))):
            return self
        return _matrix(self.field, self.nrows, [self.cols[c] for c in cols], self.den)

    def take_rows(self, rows):
        """The rows `rows`; the matrix itself for an in-place selection, all in order."""
        if len(rows) == self.nrows and all(map(eq, rows, range(self.nrows))):
            return self
        if self.field.p != 2:
            pos = {r: k for k, r in enumerate(rows)}
            return _matrix(self.field, len(rows), [{pos[i]: v for i, v in c.items() if i in pos} for c in self.cols],
                           self.den)
        runs, start = [], 0  # over F_2 a run of rows that stay adjacent moves as one shift
        for k in range(1, len(rows) + 1):
            if k == len(rows) or rows[k] != rows[k - 1] + 1:
                runs.append((rows[start], start, (1 << (k - start)) - 1))
                start = k
        bit, out = {r: 1 << k for k, r in enumerate(rows)}, []
        for x in self.cols:
            y = 0
            if len(runs) < x.bit_count():  # fewer shifts than bits
                for s, t, m in runs:
                    y |= (x >> s & m) << t
                x = 0
            while x:
                low = x & -x
                y |= bit.get(low.bit_length() - 1, 0)
                x ^= low
            out.append(y)
        return _matrix(self.field, len(rows), out)

    def submatrix(self, rows, cols):
        return self.take_columns(cols).take_rows(rows)

    # -- elimination ------------------------------------------------------

    def pivot_columns(self):
        """The RREF pivot columns, ascending, without building the RREF: the
        columns outside the span of the columns before them, from one cached
        `_echelon` pass (over Q on the integer columns)."""
        if self._piv is None:
            self._piv = _echelon(self.field, self.nrows, self.cols)[0]
        return self._piv

    def rank(self):
        """The number of pivot columns."""
        return len(self.pivot_columns())

    def _column_pass(self, cols):
        """One tracked pass over the first ncols columns `cols`: (the echelon
        basis {low: (column, V)}, [(V, V[j])] for each column j in the span
        of the columns before it)."""
        f, basis, deps = self.field, {}, []
        for j in range(self.ncols):
            rem, v, vj = _tracked(f, basis, j, cols[j])
            if not rem:
                deps.append((v, vj))
        return basis, deps

    def kernel(self):
        """Matrix whose columns are a canonical basis of {v : self*v = 0}.

        A column j in the span of the columns before it has V = e_j plus
        earlier pivot columns only, so V / V[j] is the kernel vector that is
        1 at j and 0 at every other free column: the RREF basis.
        """
        return _divided(self.field, self.ncols, self._column_pass(self.cols)[1])

    def solve(self, rhs):
        """Some X with self * X = rhs, or None if any column has no solution.

        Each column of rhs, tracked as column n, is reduced against the
        pivot basis of self; with nothing left over, A V[:n] = -V[n] rhs, so
        X = V[:n] / -V[n] lies on pivot columns, free variables are zero and
        the solution is canonical.  The result is verified by
        multiplication before being returned.  An identity (`_is_identity`)
        is not eliminated: X = rhs.  By the short-cuts of `__mul__`, the
        verification of an identity system or of a zero X costs O(n).
        """
        if rhs.nrows != self.nrows or rhs.field != self.field:
            raise InvariantError("solve: shape/field mismatch")
        f, n = self.field, self.ncols
        if _is_identity(self):
            x = rhs
        else:
            cols = Matrix.hstack(f, self.nrows, [self, rhs]).cols  # over Q a common rescaling: same V
            basis = self._column_pass(cols)[0]
            sols = []
            for col in cols[n:]:
                rem, v, vn = _tracked(f, basis, n, col)
                if rem:
                    return None
                # over F_2, -1 = 1
                sols.append((v & (1 << n) - 1, 1) if f.p == 2 else ({i: c for i, c in v.items() if i < n}, -vn))
            x = _divided(f, n, sols)
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


def _is_identity(m):
    """True iff m is square, den is 1 and column i is e_i; stops at the first column that is not."""
    f2 = m.field.p == 2
    return m.nrows == m.ncols and m.den == 1 and all(c == (1 << i if f2 else {i: 1}) for i, c in enumerate(m.cols))


def _matrix(field, nrows, cols, den=1):
    """The Matrix cols / den from columns with no zero entry; over Q the
    content is divided out and den made positive."""
    if den != 1:
        g = gcd(den, *[v for c in cols for v in c.values()])
        g = -g if den < 0 else g
        if g != 1:
            cols = [{i: v // g for i, v in c.items()} for c in cols]
            den //= g
    m = Matrix.__new__(Matrix)
    m.field, m.nrows, m.ncols, m.cols, m.den, m._piv = field, nrows, len(cols), cols, den, None
    return m


def _divided(field, nrows, pairs):
    """The Matrix whose k-th column is col / d for the k-th (col, d) of
    pairs: integer dict columns over one lcm over Q; over F_p d is a unit
    and each column is scaled by its one inverse; over F_2 d = 1 and col
    a bitmask."""
    p = field.p
    if p is None:
        den = lcm(*[d for _, d in pairs])
        return _matrix(field, nrows, [c if d == den else {i: v * (den // d) for i, v in c.items()}
                                      for c, d in pairs], den)
    return _matrix(field, nrows, [c if d == 1 else _scaled(p, c, pow(d, -1, p)) for c, d in pairs])


def _low(col):
    """The pivot of a nonzero column: its least row (x ^ (x - 1) sets the bits up to it)."""
    return (col ^ (col - 1)).bit_length() - 1 if type(col) is int else min(col)


def _bits(x):
    """The set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# -- elimination cores ----------------------------------------------------


def _apply(f, cols, vec):
    """sum_i vec_i * cols[i] for columns `cols` and a column `vec`."""
    if f.p == 2:
        out = 0
        while vec:
            low = vec & -vec
            out ^= cols[low.bit_length() - 1]
            vec ^= low
        return out
    acc = {}
    for i, c in vec.items():
        for r, v in cols[i].items():
            acc[r] = acc.get(r, 0) + c * v
    if f.p is not None:
        return {r: v % f.p for r, v in acc.items() if v % f.p}
    return {r: v for r, v in acc.items() if v}


def _grows(f, basis, col):
    """Reduce col against the echelon basis {pivot: column}; True, with the
    remainder added to the basis, iff col is outside its span.  Over F_p a
    column joins the basis monic; over Q only ranks matter, so a remainder
    that took a step joins primitive instead of exact (`_primitive`)."""
    p = f.p
    if p == 2:
        while col:
            low = (col ^ (col - 1)).bit_length() - 1
            b = basis.get(low)
            if b is None:
                basis[low] = col
                return True
            col ^= b
        return False
    col, stepped = dict(col), False  # the one copy the steps write into
    while col and (b := basis.get(low := min(col))) is not None:
        _step(p, (col,), (b,), low)
        stepped = True
    if not col:
        return False
    if p:
        col = _scaled(p, col, pow(col[low], -1, p))
    elif stepped:
        _primitive((col,))
    basis[low] = col
    return True


def _echelon(f, nrows, cols):
    """(the pivot columns, the echelon basis {low: column}) of one `_grows`
    pass over `cols`; past nrows pivots every column is in the span."""
    basis, piv = {}, []
    for j, col in enumerate(cols):
        if len(piv) < nrows and _grows(f, basis, col):
            piv.append(j)
    return tuple(piv), basis


def _tracked(f, basis, j, col):
    """Reduce column j against the echelon basis {low: (column, V)}, with V
    the combination of input columns it is, starting at e_j; a nonzero
    remainder joins the basis with its V.  Returns (remainder, V, V[j]).
    The pair is exact only up to a common factor, so the input columns
    applied to V give the remainder exactly.  Over F_p the basis keeps each
    pair scaled so that its column is monic, and V[j] = 1 in what is
    returned, as over F_2; over Q the pair stays integral, and once any
    step ran its common content is divided out, for a pivot before it
    joins the basis and for a zero remainder, whose V is a kernel vector."""
    p = f.p
    if p == 2:
        v = 1 << j
        while col:
            low = (col ^ (col - 1)).bit_length() - 1
            b = basis.get(low)
            if b is None:
                basis[low] = (col, v)
                break
            col ^= b[0]
            v ^= b[1]
        return col, v, 1
    col, v, stepped = dict(col), {j: 1}, False  # the one copy the steps write into
    while col and (b := basis.get(low := min(col))) is not None:
        _step(p, (col, v), b, low)
        stepped = True
    if stepped and not p:
        _primitive((col, v))
    if col:  # over F_p the pair joins monic, by one inverse
        u = p and pow(col[low], -1, p)
        basis[low] = (_scaled(p, col, u), _scaled(p, v, u)) if p else (col, v)
    return col, v, v[j]


def _scaled(p, x, u):
    """A new dict u·x over F_p."""
    return {i: v * u % p for i, v in x.items()}


def _step(p, xs, ys, low):
    """Clear entry `low` of xs[0] with ys[0], in place: each dict x of xs
    becomes a·x - b·y for its y of ys, and the scale a is returned.  Over
    F_p ys[0][low] is 1, so a = 1.  Over Q a and b are divided by their gcd
    and a > 0, so x is scaled only when a != 1.  With a = 1 the step reads
    and writes only the rows of the y's.  No content is divided out here:
    a pass does that once per column, where it stores or returns it
    (`_primitive`)."""
    b = xs[0][low]
    a = 1 if p else ys[0][low]
    if a != 1:
        g = gcd(a, b) if a > 0 else -gcd(a, b)
        a, b = a // g, b // g
    for x, y in zip(xs, ys):
        if a != 1:
            for i, v in x.items():
                x[i] = a * v
        for i, v in y.items():  # v is never 0 where x has no entry i
            if v := (x.get(i, 0) - b * v) % p if p else x.get(i, 0) - b * v:
                x[i] = v
            else:
                del x[i]
    return a


def _primitive(xs, den=0):
    """Divide the common content of the integer dicts xs and of den out of
    them, in place, and return den over it; each x / den is unchanged, and
    with den = 0 the x's become primitive."""
    c = den
    for x in xs:
        c = gcd(c, *x.values())
    if c > 1:
        den //= c
        for x in xs:
            for i, v in x.items():
                x[i] = v // c
    return den


# -- subspace helpers -------------------------------------------------------


def quotient_basis(z, b):
    """Columns of `z` representing a basis of span(z)/span(b).

    Picks the z-columns that are pivot columns of [b | z], i.e. grow the
    span of the columns before them; the choice is canonical.  Raises
    InvariantError unless span(b) ⊆ span(z).
    """
    f = z.field
    if z.nrows != b.nrows or f != b.field:
        raise InvariantError("quotient_basis: shape/field mismatch")
    stacked = Matrix.hstack(f, z.nrows, [b, z])
    pivots = stacked.pivot_columns()
    if len(pivots) != z.rank():
        raise InvariantError("subquotient: B is not contained in Z")
    chosen = [c - b.ncols for c in pivots if c >= b.ncols]
    return z.take_columns(chosen)
