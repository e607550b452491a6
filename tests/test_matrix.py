import random

import pytest
from fractions import Fraction
from math import gcd
from hypothesis import given, settings, strategies as st

from spectower.errors import InvariantError
from spectower.field import Field
from spectower.matrix import Matrix, _apply, _echelon, _step, _tracked, quotient_basis

from helpers import (
    oracle_kernel,
    oracle_kernel_f2,
    oracle_matrix_rank,
    oracle_product,
    oracle_rank,
    oracle_rref,
    oracle_solve,
    random_matrix,
    random_wide_scalar,
    subquotient_dim,
)

Q = Field()
F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


# -- rank -----------------------------------------------------------------


def test_rank_empty_matrix():
    assert Matrix.zero(Q, 0, 0).rank() == 0


def test_rank_identity_f2():
    assert Matrix.identity(F2, 3).rank() == 3


def test_rank_dependent_rows_q():
    # row2 = 2 * row1, by hand elimination
    m = Matrix.from_rows(Q, [[1, 2], [2, 4]])
    assert m.rank() == 1
    assert oracle_matrix_rank(m) == 1


# -- kernel ---------------------------------------------------------------


def test_kernel_identity_empty():
    assert Matrix.identity(F5, 2).kernel().ncols == 0


def test_kernel_zero_matrix():
    k = Matrix.zero(Q, 2, 3).kernel()
    assert k.ncols == 3
    assert k == Matrix.identity(Q, 3)


def test_kernel_f2_bruteforce():
    # [[1,1]] over F_2: enumerate all four vectors of F_2^2
    m = Matrix.from_rows(F2, [[1, 1]])
    enum = oracle_kernel_f2(m)
    assert set(enum) == {(0, 0), (1, 1)}
    k = m.kernel()
    assert k.ncols == 1
    assert [k.get(0, 0), k.get(1, 0)] == [1, 1]


# -- solve ----------------------------------------------------------------


def test_solve_identity():
    b = Matrix.from_rows(Q, [[3], [-1]])
    assert Matrix.identity(Q, 2).solve(b) == b


def test_solve_refuses_an_x_that_fails_its_verification(monkeypatch):
    # solve checks A X = B by one product: an elimination that assembled a
    # wrong X, here the zero matrix, answers None, never the wrong X
    import spectower.matrix as mx

    a = Matrix.from_rows(Q, [[1, 1], [0, 1]])
    assert a.solve(Matrix.identity(Q, 2)) == Matrix.from_rows(Q, [[1, -1], [0, 1]])
    monkeypatch.setattr(mx, "_divided", lambda f, n, sols: Matrix.zero(f, n, len(sols)))
    assert a.solve(Matrix.identity(Q, 2)) is None


def test_repr_and_a_product_with_a_non_matrix():
    m = Matrix.identity(F3, 2)
    assert repr(m) == "Matrix(F3, 2x2, nnz=2)"
    with pytest.raises(TypeError):
        m * 2


def test_solve_zero_matrix_no_solution():
    m = Matrix.zero(Q, 2, 2)
    assert m.solve(Matrix.from_rows(Q, [[1], [0]])) is None


def test_solve_scalar_division():
    m = Matrix.from_rows(Q, [[2]])
    x = m.solve(Matrix.from_rows(Q, [[3]]))
    assert x.get(0, 0) == Fraction(3, 2)


def test_inverse_of_singular_matrix_reports_rank():
    # rows 0 + 1 = row 2 over every field; over F2 also row 0 = row 1 + row 2
    for field, rows, r in ((F2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2),
                           (F3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]], 2),
                           (Q, [[1, 2, 3], [2, 4, 6], [0, 1, 1]], 2)):
        m = Matrix.from_rows(field, rows)
        with pytest.raises(InvariantError, match=r"^matrix is not invertible \(rank %d of 3\)$" % r):
            m.inverse()
    with pytest.raises(InvariantError, match="non-square 2x3"):
        Matrix.from_rows(Q, [[1, 0, 0], [0, 1, 0]]).inverse()


def test_inverse_is_two_sided():
    rng = random.Random(9)
    for field in (F2, F3, Q):
        for n in range(1, 6):
            m = random_matrix(rng, field, n, n, density=0.6)
            if m.rank() < n:
                continue
            x = m.inverse()
            assert m * x == Matrix.identity(field, n) == x * m


def test_solve_shape_mismatch():
    with pytest.raises(InvariantError):
        Matrix.identity(Q, 2).solve(Matrix.from_rows(Q, [[1], [2], [3]]))


# -- subquotients -----------------------------------------------------------


def test_subquotient_full_vs_zero():
    z = Matrix.identity(F3, 4)
    b = Matrix.zero(F3, 4, 0)
    assert subquotient_dim(z, b) == 4
    assert subquotient_dim(z, z) == 0


def test_subquotient_hand_case_f3():
    z = Matrix.from_rows(F3, [[1, 0], [0, 1]])
    b = Matrix.from_rows(F3, [[1], [1]])
    assert subquotient_dim(z, b) == 1
    reps = quotient_basis(z, b)
    assert reps.ncols == 1


def test_subquotient_contract_violation():
    z = Matrix.from_rows(Q, [[1], [0]])
    b = Matrix.from_rows(Q, [[0], [1]])
    with pytest.raises(InvariantError):
        subquotient_dim(z, b)
    with pytest.raises(InvariantError):
        quotient_basis(z, b)


# -- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_nullity(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    f = Field(p)
    nrows = data.draw(st.integers(0, 12))
    ncols = data.draw(st.integers(0, 12))
    seed = data.draw(st.integers(0, 10 ** 6))
    m = random_matrix(random.Random(seed), f, nrows, ncols, density=0.4)
    assert m.rank() + m.kernel().ncols == ncols
    assert (m * m.kernel()).is_zero()
    assert m.rank() == oracle_matrix_rank(m)


def _dense_product_mod2(a, b):
    da, db = a.to_dense(), b.to_dense()
    return [[sum(da[i][j] * db[j][l] for j in range(a.ncols)) % 2 for l in range(b.ncols)]
            for i in range(a.nrows)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_f2_product_matches_dense_product(data):
    # the packed F_2 product against a dense product mod 2, with 0-row and
    # 0-column shapes, and a zero product a * ker(a) as in the d^2 check
    m, n, l = (data.draw(st.integers(0, 9)) for _ in range(3))

    def draw(rows, cols):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=rows * cols, max_size=rows * cols))
        return Matrix(F2, rows, cols, {(t // cols, t % cols): 1 for t, v in enumerate(bits) if v})

    a, b = draw(m, n), draw(n, l)
    prod = a * b
    assert prod.shape == (m, l)
    assert prod.to_dense() == _dense_product_mod2(a, b)
    zero = a * a.kernel()
    assert zero.is_zero()
    assert zero.to_dense() == _dense_product_mod2(a, a.kernel())


def test_rank_nullity_large_dims():
    rng = random.Random(99)
    for p in (2, 3, 5, 7):
        f = Field(p)
        m = random_matrix(rng, f, 40, 37, density=0.15)
        assert m.rank() + m.kernel().ncols == 37
        assert m.rank() == oracle_matrix_rank(m)


def test_solve_contract_random():
    rng = random.Random(4)
    for field in (Q, F2, F3):
        for _ in range(25):
            m = random_matrix(rng, field, rng.randint(1, 8), rng.randint(1, 8), 0.5)
            b = random_matrix(rng, field, m.nrows, 1, 0.7)
            x = m.solve(b)
            if x is not None:
                assert m * x == b
            else:
                # no solution <=> appending b strictly increases the rank
                aug = Matrix.hstack(field, m.nrows, [m, b])
                assert aug.rank() == m.rank() + 1


def test_q_agrees_with_fp_on_unit_pivot_matrices():
    # integer matrices whose elimination pivots are units: unitriangular times
    # a 0/1 pairing, so ranks agree over Q and over any F_p
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 7)
        ent = {(i, i): 1 for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    ent[(i, j)] = rng.randint(-2, 2)
        rows = [[ent.get((i, j), 0) for j in range(n)] for i in range(n)]
        # drop a random row to vary the rank
        if rng.random() < 0.5:
            rows = rows[:-1]
        mq = Matrix.from_rows(Q, rows)
        for p in (2, 3, 5, 7):
            mp = Matrix.from_rows(Field(p), rows)
            assert mp.rank() == mq.rank()


def test_matrix_is_immutable_value():
    for field in (F3, Field(2 ** 61 - 1), Q):
        m = Matrix.from_rows(field, [[1, 2], [3, 4]])
        m2 = Matrix.from_rows(field, [[1, 2], [3, 4]])
        assert m == m2
        _ = m.rank()
        assert m == m2  # computing the echelon form does not disturb equality
        assert m + (-m) == Matrix.zero(field, 2, 2)
        assert m * m.inverse() == Matrix.identity(field, 2)
        # elimination never writes into the columns it is given: dense square
        # matrices, some singular, and right-hand sides in and out of the span
        # (test_specseq.py takes the same snapshot of a tower's columns)
        rng = random.Random(2330)
        for _ in range(30):
            n = rng.randint(1, 6)
            a = random_matrix(rng, field, n, n, rng.choice((0.5, 0.9)))
            rhs = Matrix.hstack(field, n, [a * random_matrix(rng, field, n, 2, 0.6), random_matrix(rng, field, n, 1)])
            snap = [[dict(c) for c in x.cols] for x in (a, rhs)]
            a.rank(), a.kernel(), a.solve(rhs), a.solve(rhs.take_columns([0, 1]))
            if a.rank() == n:
                a.inverse()
            assert [[dict(c) for c in x.cols] for x in (a, rhs)] == snap


def _exact(m):
    """Dense rows of m, after checking every stored entry is canonical: a
    Fraction over Q, a residue in [1, p) over F_p."""
    p = m.field.p
    assert all(type(v) is Fraction if p is None else type(v) is int and 0 < v < p for _, _, v in m.entries())
    return m.to_dense()


def _wide(rng, nrows, ncols, density):
    return random_matrix(rng, Q, nrows, ncols, density, random_wide_scalar)


def test_q_product_matches_dense_product():
    # the integer Q product against a dense Fraction product, with 0-row and
    # 0-column shapes, and a zero product a * ker(a)
    rng = random.Random(6160)
    for _ in range(60):
        m, n, l = (rng.randint(0, 6) for _ in range(3))
        a, b = _wide(rng, m, n, 0.5), _wide(rng, n, l, 0.5)
        da, db = a.to_dense(), b.to_dense()
        dense = [[sum((da[i][j] * db[j][k] for j in range(n)), Fraction(0)) for k in range(l)]
                 for i in range(m)]
        prod = a * b
        assert prod.shape == (m, l)
        assert _exact(prod) == dense
        assert (a * a.kernel()).is_zero()


def test_entries_normalised_by_type():
    # ints take a fast path in Field.normalize; bools, Fractions and strings
    # take the general one: each gives its canonical entry, floats are refused
    cases = [(7, Fraction(7), 2), (-3, Fraction(-3), 2), (True, Fraction(1), 1),
             (Fraction(3, 2), Fraction(3, 2), 4), ("2/3", Fraction(2, 3), 4), (" -4 ", Fraction(-4), 1)]
    for v, in_q, in_f5 in cases:
        for field, want in ((Q, in_q), (F5, in_f5)):
            for m in (Matrix.from_entries(field, 1, 1, [(0, 0, v)]), Matrix(field, 1, 1, {(0, 0): v})):
                assert m.entries() == [(0, 0, want)]
                assert type(m.get(0, 0)) is type(want)
    assert Matrix.from_entries(F5, 1, 2, [(0, 0, 5), (0, 1, False)]).is_zero()
    for field in (Q, F2, F5):
        for bad in (0.5, 1.0):
            with pytest.raises(TypeError):
                Matrix.from_entries(field, 1, 1, [(0, 0, bad)])
            with pytest.raises(TypeError):
                Matrix(field, 1, 1, {(0, 0): bad})


def test_from_entries_accumulates_duplicates():
    m = Matrix.from_entries(F3, 1, 1, [(0, 0, 1), (0, 0, 2)])
    assert m.is_zero()


# -- the span-growth pass behind rank and pivot_columns -----------------------------


RANK_FIELDS = (F2, F3, Field(2 ** 61 - 1), Q)


def _rank_case(rng, field):
    """A random matrix, 0 x n and n x 0 shapes included, with about a fifth
    of its columns zeroed; every other one is a product through 1-3
    columns, so that most columns depend on earlier ones.  Over Q the
    entries have mixed denominators."""
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
    if nrows and ncols and rng.random() < 0.5:
        inner = rng.randint(1, 3)
        m = (random_matrix(rng, field, nrows, inner, 0.7, random_wide_scalar)
             * random_matrix(rng, field, inner, ncols, 0.7, random_wide_scalar))
    else:
        m = random_matrix(rng, field, nrows, ncols, rng.choice([0.2, 0.5]), random_wide_scalar)
    zero = {j for j in range(ncols) if rng.random() < 0.2}
    return Matrix.from_entries(field, nrows, ncols, [t for t in m.entries() if t[1] not in zero])


def _fresh(m):
    """An equal matrix with nothing cached."""
    return Matrix.from_entries(m.field, m.nrows, m.ncols, m.entries())


def test_pivot_pass_matches_dense_rref():
    # rank() and pivot_columns() against dense Gauss-Jordan pivots, both from
    # the span-growth pass (rank first) and from the pivots kernel()'s
    # tracked pass caches
    rng = random.Random(7070)
    for field in RANK_FIELDS:
        for _ in range(80):
            m = _rank_case(rng, field)
            pivots = oracle_rref(field, m.to_dense())[0]
            first = _fresh(m)
            assert first.rank() == len(pivots)
            assert list(first.pivot_columns()) == pivots
            assert first.kernel().ncols == m.ncols - len(pivots)
            after_kernel = _fresh(m)
            assert after_kernel.kernel().ncols == m.ncols - len(pivots)
            assert list(after_kernel.pivot_columns()) == pivots
            assert after_kernel.rank() == len(pivots)


def test_elimination_matches_dense_oracle():
    # kernel and solve against dense Gauss-Jordan, entry for entry, over F2,
    # F3, F_(2^61-1) and Q (numerators up to 10^6 over coprime denominators
    # up to 97), 0 x n and n x 0 shapes and zero columns included; each rhs
    # column is m times a random vector (consistent) or random (mostly not),
    # solved alone and all together
    rng = random.Random(5150)
    for field in RANK_FIELDS:
        for _ in range(60):
            m = _rank_case(rng, field)
            kernel = oracle_kernel(field, m.to_dense() or [[field.zero] * m.ncols])
            assert _exact(m.kernel()) == [[vec[i] for vec in kernel] for i in range(m.ncols)]
            every = rng.random() < 0.5
            cols = [m * random_matrix(rng, field, m.ncols, 1, 0.7, random_wide_scalar)
                    if every or rng.random() < 0.5 else random_matrix(rng, field, m.nrows, 1, 0.7, random_wide_scalar)
                    for _ in range(rng.randint(1, 3))]
            for rhs in cols + [Matrix.hstack(field, m.nrows, cols)]:
                x, want = m.solve(rhs), oracle_solve(m, rhs)
                assert (x is None) == (want is None)
                if x is not None:
                    assert _exact(x) == want


def test_span_contains_and_quotient_basis_match_dense_rank():
    # span(small) ⊆ span(big) iff the dense rank of [big | small] is that of
    # big; quotient_basis(z, b) keeps the z-columns that are dense pivots of
    # [b | z], and refuses a b outside span z
    rng = random.Random(7171)
    for field in RANK_FIELDS:
        for _ in range(80):
            m = _rank_case(rng, field)
            cut = rng.randint(0, m.ncols)
            big, small = m.take_columns(range(cut)), m.take_columns(range(cut, m.ncols))
            if rng.random() < 0.5:
                small = big * random_matrix(rng, field, cut, rng.randint(0, 3), 0.6, random_wide_scalar)
            both = Matrix.hstack(field, m.nrows, [big, small])
            inside = oracle_rank(field, both.to_dense()) == oracle_matrix_rank(big)
            for z, b in ((both, big), (big, small)):
                if z is big and not inside:
                    with pytest.raises(InvariantError):
                        quotient_basis(z, b)
                    continue
                pivots = oracle_rref(field, Matrix.hstack(field, m.nrows, [b, z]).to_dense())[0]
                chosen = quotient_basis(z, b)
                assert chosen == z.take_columns([c - b.ncols for c in pivots if c >= b.ncols])
                assert chosen.ncols == oracle_matrix_rank(z) - oracle_matrix_rank(b)


# -- the column form: arithmetic against dense oracles, and no Fractions over Q --------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_arithmetic_matches_dense_oracles(data):
    # chained products (either association), + and -, scale, transpose,
    # take_rows / take_columns and hstack against dense field arithmetic, with
    # 0-row and 0-column shapes; and equality is structural whichever way a
    # matrix was built: from_entries with duplicates, a product, and an
    # hstack of its column blocks give equal matrices with equal entries()
    field = data.draw(st.sampled_from(RANK_FIELDS), label="field")
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    m, n, l, o = (rng.randint(0, 6) for _ in range(4))

    def draw(rows, cols):
        return random_matrix(rng, field, rows, cols, rng.choice([0.2, 0.6]), random_wide_scalar)

    a, a2, b, c = draw(m, n), draw(m, n), draw(n, l), draw(l, o)
    da, da2 = a.to_dense(), a2.to_dense()
    ab = a * b
    dense_ab = oracle_product(field, da, b.to_dense(), l)
    assert ab.shape == (m, l) and _exact(ab) == dense_ab
    abc = ab * c
    assert abc == a * (b * c)
    assert _exact(abc) == oracle_product(field, dense_ab, c.to_dense(), o)
    assert (a * a.kernel()).is_zero()

    assert _exact(a + a2) == [[field.add(x, y) for x, y in zip(r, r2)] for r, r2 in zip(da, da2)]
    assert _exact(a - a2) == [[field.sub(x, y) for x, y in zip(r, r2)] for r, r2 in zip(da, da2)]
    assert (a - a).is_zero() and -(-a) == a
    s = field.normalize(random_wide_scalar(rng, field))
    assert _exact(a.scale(s)) == [[field.mul(x, s) for x in r] for r in da]
    assert _exact(a.transpose()) == [[da[i][j] for i in range(m)] for j in range(n)]
    rows, cols = rng.sample(range(m), rng.randint(0, m)), rng.sample(range(n), rng.randint(0, n))
    assert _exact(a.take_rows(rows)) == [da[i] for i in rows]
    assert _exact(a.take_columns(cols)) == [[r[j] for j in cols] for r in da]
    assert _exact(a.submatrix(rows, cols)) == [[da[i][j] for j in cols] for i in rows]
    assert _exact(Matrix.hstack(field, m, [a, a2])) == [r + r2 for r, r2 in zip(da, da2)]

    triples = []
    for i, j, v in ab.entries():
        u = field.normalize(random_wide_scalar(rng, field))
        triples += [(i, j, u), (i, j, field.sub(v, u))]
    rng.shuffle(triples)
    cut = rng.randint(0, l)
    for same in (Matrix.from_entries(field, m, l, triples),
                 Matrix(field, m, l, {(i, j): v for i, j, v in ab.entries()}),
                 Matrix.hstack(field, m, [ab.take_columns(range(cut)), ab.take_columns(range(cut, l))])):
        assert same == ab and same.entries() == ab.entries()


def test_q_arithmetic_builds_no_fractions(monkeypatch):
    # over Q a Matrix is integer columns over one denominator: a chained
    # product, equality, rank and solve (with its verification product)
    # build no Fraction; entries() builds exactly one per stored entry
    import spectower.matrix as mx

    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    rng = random.Random(8080)
    a, b, c = _wide(rng, 6, 7, 0.6), _wide(rng, 7, 5, 0.6), _wide(rng, 5, 6, 0.6)
    sq = _wide(rng, 6, 6, 0.6) + Matrix.identity(Q, 6).scale(Fraction(10 ** 7, 3))
    rhs = sq * _wide(rng, 6, 2, 0.8)
    monkeypatch.setattr(mx, "Fraction", Counted)
    left = a * b * c
    same = left == a * (b * c)
    rank = left.rank()
    x = sq.solve(rhs)
    assert built == []
    assert len(left.entries()) == left.nnz == len(built)
    monkeypatch.undo()
    assert same and left.den > 1 and x is not None and sq * x == rhs
    assert rank == oracle_matrix_rank(left)


# -- identity factors -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_identity_and_near_identity_match_dense_oracles(data):
    # an identity factor is returned as it is and an identity system is not
    # eliminated; near-identities (one extra off-diagonal entry, one diagonal
    # entry of 2, a scalar c*I with c != 1, which over Q is I/d with its ones
    # over a denominator) take the full path.  Products on either side, solve
    # and inverse against dense field arithmetic, 0 x 0 shapes included
    field = data.draw(st.sampled_from(RANK_FIELDS), label="field")
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    n, l = rng.randint(0, 6), rng.randint(0, 6)
    ident = Matrix.identity(field, n)
    near = []
    if n:
        i = rng.randrange(n)
        near.append(Matrix(field, n, n, {**{(t, t): 1 for t in range(n)}, (i, i): 2}))
        if field.p != 2:
            near.append(ident.scale(Fraction(1, rng.choice([2, 3, 7])) if field.p is None else rng.randrange(2, field.p)))
    if n > 1:
        i, j = rng.sample(range(n), 2)
        near.append(Matrix(field, n, n, {**{(t, t): 1 for t in range(n)},
                                          (i, j): random_wide_scalar(rng, field, nonzero=True)}))
    b = random_matrix(rng, field, n, l, rng.choice([0.3, 0.7]), random_wide_scalar)
    a = random_matrix(rng, field, l, n, rng.choice([0.3, 0.7]), random_wide_scalar)
    assert ident * b is b and ident.solve(b) is b
    assert a * ident == a  # a 0 x 0 or [[1]] a is itself the identity returned
    assert ident.inverse() == ident
    for m in [ident] + near:
        dm = m.to_dense()
        assert _exact(m * b) == oracle_product(field, dm, b.to_dense(), l)
        assert _exact(a * m) == oracle_product(field, a.to_dense(), dm, n)
        want = oracle_solve(m, b)
        x = m.solve(b)
        assert (x is None) == (want is None)
        if want is not None:
            assert _exact(x) == want
        want = oracle_solve(m, ident)
        if want is None:  # over F_2 the diagonal entry 2 is 0
            with pytest.raises(InvariantError):
                m.inverse()
        else:
            assert _exact(m.inverse()) == want


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
def test_a_zero_factor_is_not_multiplied(monkeypatch, field):
    # a product with a zero factor is the zero matrix of the product's shape,
    # built with no column applied, and equal to the arithmetic product,
    # with 0 x n and n x 0 factors on either side
    import spectower.matrix as mx

    applied, apply = [], mx._apply
    monkeypatch.setattr(mx, "_apply", lambda *args: applied.append(1) or apply(*args))
    rng = random.Random(2601)
    for m, n, l in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (3, 2, 4), (4, 4, 4), (1, 5, 3)]:
        a = random_matrix(rng, field, m, n, 0.7, random_wide_scalar)
        b = random_matrix(rng, field, n, l, 0.7, random_wide_scalar)
        for x, y in [(Matrix.zero(field, m, n), b), (a, Matrix.zero(field, n, l)),
                     (Matrix.zero(field, m, n), Matrix.zero(field, n, l))]:
            prod = x * y
            assert applied == []
            assert prod == Matrix.zero(field, m, l) and prod.den == 1
            assert _exact(prod) == oracle_product(field, x.to_dense(), y.to_dense(), l)


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
def test_an_in_place_selection_is_the_matrix_itself(field):
    # selecting every row or every column in order moves nothing: take_rows,
    # take_columns and submatrix return the very object, 0 x n and n x 0
    # shapes included, whether the selection is a range, a list or a tuple;
    # any reorder or proper subset is a new matrix equal to the dense oracle
    rng = random.Random(2701)
    for m, n in [(0, 0), (0, 4), (4, 0), (1, 1), (5, 3), (3, 7), (9, 9)]:
        for density in (0.0, 0.4, 0.9):
            a = random_matrix(rng, field, m, n, density, random_wide_scalar)
            da = a.to_dense()
            for rows, cols in [(range(m), range(n)), (list(range(m)), tuple(range(n)))]:
                assert a.take_rows(rows) is a and a.take_columns(cols) is a and a.submatrix(rows, cols) is a
            for _ in range(6):
                rows = rng.sample(range(m), rng.randint(0, m))
                cols = rng.sample(range(n), rng.randint(0, n))
                if m and rng.random() < 0.3:  # adjacent rows shifted down by one: a proper subset in order
                    rows = list(range(1, m))
                by_rows, by_cols, sub = a.take_rows(rows), a.take_columns(cols), a.submatrix(rows, cols)
                assert (by_rows is a) == (rows == list(range(m)))
                assert (by_cols is a) == (cols == list(range(n)))
                assert by_rows.shape == (len(rows), n) and _exact(by_rows) == [da[i] for i in rows]
                assert by_cols.shape == (m, len(cols)) and _exact(by_cols) == [[r[j] for j in cols] for r in da]
                assert sub.shape == (len(rows), len(cols))
                assert _exact(sub) == [[da[i][j] for j in cols] for i in rows]


# -- the Q elimination kernel -------------------------------------------------


class ReadCounted(dict):
    """A dict that records each row read by get / [] and counts the passes
    over all of it (items, values)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rows, self.passes = set(), 0

    def get(self, i, default=None):
        self.rows.add(i)
        return super().get(i, default)

    def __getitem__(self, i):
        self.rows.add(i)
        return super().__getitem__(i)

    def items(self):
        self.passes += 1
        return super().items()

    def values(self):
        self.passes += 1
        return super().values()


def test_a_q_step_of_scale_one_reads_only_the_rows_of_y():
    # x has 200 entries, y three; y[low] = 1, so the step is x - x[low]·y and
    # divides no content out: it reads no entry of x outside rows 0, 7 and 9
    x = ReadCounted({i: 6 * (i + 1) for i in range(200)})
    x[9] = 4
    y = {0: 5, 7: -2, 9: 1}
    a = _step(None, (x,), (y,), 9)
    assert x.passes == 0
    assert x.rows <= set(y)
    assert a == 1
    assert (x[0], x[7], 9 in x, x[8]) == (6 - 20, 48 + 8, False, 54)


def test_q_passes_store_primitive_columns():
    # content is divided out once per column, where the pass stores it: each
    # basis column of `_grows` that took a step, each basis pair (column, V)
    # of `_tracked` and each V it returns for a column in the span is
    # primitive, and every pair still satisfies D V = R
    rng = random.Random(3232)
    for _ in range(30):
        m = random_matrix(rng, Q, rng.randint(1, 9), rng.randint(1, 12), density=0.7)
        cols = [{i: 6 * v for i, v in c.items()} for c in m.cols]  # every given column has content
        _, basis = _echelon(Q, m.nrows, cols)
        for col in basis.values():
            assert col in cols or gcd(*col.values()) == 1
        basis = {}
        for j, col in enumerate(cols):
            rem, v, vj = _tracked(Q, basis, j, col)
            assert _apply(Q, cols, v) == rem
            assert vj == v[j] > 0
            assert v == {j: 1} or gcd(*rem.values(), *v.values()) == 1
        for col, v in basis.values():
            assert _apply(Q, cols, v) == col
            assert v == {max(v): 1} or gcd(*col.values(), *v.values()) == 1
