import random

import pytest

from spectower.complexes import (
    ChainMap,
    CochainComplex,
    GradedBasis,
    tensor_product,
)
from spectower.errors import InvariantError, ParseError
from spectower.field import Field
from spectower.matrix import Matrix

from helpers import (induced_map_on_cohomology, oracle_cohomology_dims, random_matrix, random_split_complex,
                     random_wide_scalar)

Q = Field()
F2 = Field(2)


def circle(field=Q):
    return CochainComplex.from_generator_entries(field, [("v", 0), ("e", 1)], [])


def interval(field=Q):
    return CochainComplex.from_generator_entries(
        field, [("v0", 0), ("v1", 0), ("e", 1)], [("v0", "e", -1), ("v1", "e", 1)]
    )


def test_d_squared_checked():
    with pytest.raises(InvariantError):
        CochainComplex.from_generator_entries(
            Q, [("x", 0), ("y", 1), ("z", 2)], [("x", "y", 1), ("y", "z", 1)]
        )


def test_wrong_field_or_shape_block_is_an_invariant_error():
    basis = circle().basis
    with pytest.raises(InvariantError, match="^differential block in degree 0 has wrong field$"):
        CochainComplex(Q, basis, {0: Matrix.from_rows(F2, [[1]])})
    with pytest.raises(InvariantError, match=r"^differential block in degree 0 has shape \(2, 1\), expected \(1, 1\)$"):
        CochainComplex(Q, basis, {0: Matrix.from_rows(Q, [[1], [1]])})


def test_degree_one_enforced():
    with pytest.raises(InvariantError):
        CochainComplex.from_generator_entries(Q, [("x", 0), ("z", 2)], [("x", "z", 1)])


def test_zero_differential_dims():
    cx = CochainComplex.from_generator_entries(
        Q, [("a", 0), ("b", 0), ("c", 1), ("d", 1), ("e", 1)], []
    )
    assert cx.cohomology().dims() == {0: 2, 1: 3}


def test_circle_cohomology():
    h = circle().cohomology()
    assert h.dims() == {0: 1, 1: 1}
    # representatives are honest cocycles
    for k in (0, 1):
        reps = h.representatives(k)
        assert (circle().d(k) * reps).is_zero()


def test_interval_cohomology():
    assert interval().cohomology().dims() == {0: 1}
    assert oracle_cohomology_dims(interval()) == {0: 1}


def test_tensor_unit():
    point = CochainComplex.from_generator_entries(Q, [("pt", 0)], [])
    t = tensor_product(interval(), point)
    assert t.cohomology().dims() == interval().cohomology().dims()
    assert [k for _, k in t.basis.generators] == [k for _, k in interval().basis.generators]


def test_tensor_torus():
    t = tensor_product(circle(), circle())
    assert t.cohomology().dims() == {0: 1, 1: 2, 2: 1}
    assert oracle_cohomology_dims(t) == {0: 1, 1: 2, 2: 1}


def test_tensor_with_acyclic_factor():
    acyclic = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    t = tensor_product(acyclic, circle())
    assert t.cohomology().dims() == {}


def test_kunneth_random():
    rng = random.Random(3)
    for field in (Q, F2, Field(3)):
        for _ in range(6):
            a = random_split_complex(rng, field, max_gens=8, max_len=2, max_degree=3).complex
            b = random_split_complex(rng, field, max_gens=8, max_len=2, max_degree=3).complex
            ha, hb = a.cohomology().dims(), b.cohomology().dims()
            t = tensor_product(a, b)
            want = {}
            for i, da in ha.items():
                for j, db in hb.items():
                    want[i + j] = want.get(i + j, 0) + da * db
            assert t.cohomology().dims() == {k: v for k, v in want.items() if v}


def test_euler_characteristic_matches_cohomology():
    rng = random.Random(8)
    for _ in range(12):
        cx = random_split_complex(rng, Q, max_gens=14, max_len=3).complex
        chi_c = sum((-1) ** k * cx.dim(k) for k in cx.degrees())
        chi_h = sum((-1) ** k * d for k, d in cx.cohomology().dims().items())
        assert chi_c == chi_h


def test_cohomology_invariant_under_basis_permutation():
    rng = random.Random(13)
    for _ in range(8):
        cx = random_split_complex(rng, F2, max_gens=12, max_len=3).complex
        perm = list(cx.basis.generators)
        rng.shuffle(perm)
        entries = []
        for k in cx.degrees():
            src, tgt = cx.basis.gens(k), cx.basis.gens(k + 1)
            for i, j, v in cx.d(k).entries():
                entries.append((src[j], tgt[i], v))
        permuted = CochainComplex.from_generator_entries(F2, perm, entries)
        assert permuted.cohomology().dims() == cx.cohomology().dims()


def test_identity_chain_map_induces_identity():
    cx = tensor_product(circle(), interval())
    f = ChainMap.identity(cx)
    ind = induced_map_on_cohomology(f)
    for k, d in cx.cohomology().dims().items():
        assert ind[k] == Matrix.identity(Q, d)


def test_zero_chain_map_induces_zero():
    cx = circle()
    f = ChainMap(cx, cx, {})
    ind = induced_map_on_cohomology(f)
    assert all(m.is_zero() for m in ind.values())


def test_chain_map_commutation_checked():
    src = interval()
    tgt = circle()
    bad = {0: Matrix.zero(Q, 1, 2), 1: Matrix.from_rows(Q, [[1]])}
    with pytest.raises(InvariantError):
        ChainMap(src, tgt, bad)


def test_subcomplex_inclusion_with_acyclic_quotient():
    # C: u0; v0 -> v1; w1 -> w2.  C' = span{u0, v0, v1}; C/C' acyclic.
    c = CochainComplex.from_generator_entries(
        Q,
        [("u0", 0), ("v0", 0), ("v1", 1), ("w1", 1), ("w2", 2)],
        [("v0", "v1", 1), ("w1", "w2", 1)],
    )
    csub = CochainComplex.from_generator_entries(
        Q, [("u0", 0), ("v0", 0), ("v1", 1)], [("v0", "v1", 1)]
    )
    blocks = {
        0: Matrix.identity(Q, 2),
        1: Matrix.from_rows(Q, [[1], [0]]),
    }
    inc = ChainMap(csub, c, blocks)
    ind = induced_map_on_cohomology(inc)
    assert csub.cohomology().dims() == c.cohomology().dims() == {0: 1}
    assert ind[0].rank() == 1


def test_induced_map_ignores_coboundary_perturbation():
    # perturbing a representative by a coboundary must not change coordinates
    cx = CochainComplex.from_generator_entries(
        Q, [("a0", 0), ("b0", 0), ("e1", 1), ("f1", 1)], [("a0", "e1", 1)]
    )
    h = cx.cohomology()
    k = 1
    reps = h.representatives(k)
    cob = cx.d(k - 1)
    assert not cob.is_zero()
    perturbed = reps + cob * Matrix.from_rows(Q, [[3], [5]])
    assert perturbed != reps
    assert h.coordinates(k, perturbed) == h.coordinates(k, reps)


def test_graded_basis_lookup():
    b = GradedBasis([("x", 0), ("y", 3), ("z", -1)])
    assert b.degrees() == [-1, 0, 3]
    assert b.position("y") == (3, 0)
    assert b.dim(7) == 0
    with pytest.raises(ParseError, match="^duplicate generator id 'x'$"):
        GradedBasis([("x", 0), ("x", 1)])


@pytest.mark.parametrize("degree", (1.7, 1.0, True, False, "1"), ids=repr)
def test_graded_basis_refuses_a_degree_that_is_not_an_int(degree):
    # a float, a bool or a string is refused, not truncated to an int
    with pytest.raises(ParseError, match=r"^generator 'x' has non-integer degree %s$" % repr(degree)):
        GradedBasis([("y", 0), ("x", degree)])
    with pytest.raises(ParseError, match="generator 'x' has non-integer degree"):
        CochainComplex.from_generator_entries(Q, [("y", 0), ("x", degree)], [])


def test_an_absent_degree_has_one_zero_block():
    # d(k) of a degree with no block is built once and then returned as is
    cx = interval()
    for k in (-1, 1, 5):
        z = cx.d(k)
        assert z.is_zero() and z.shape == (cx.dim(k + 1), cx.dim(k))
        assert cx.d(k) is z
    assert cx.d(-1) is not cx.d(1)
    assert cx.d(0).shape == (1, 2) and not cx.d(0).is_zero()


def test_display_shift_reporting_only():
    cx = CochainComplex.from_generator_entries(Q, [("v", -2)], [], display_shift=2)
    assert cx.cohomology().dims() == {-2: 1}
    assert cx.display_shift == 2


def test_shifted_complex():
    cx = interval().shifted(5)
    assert cx.cohomology().dims() == {5: 1}


ALL_FIELDS = (F2, Field(3), Field(2 ** 61 - 1), Q)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_from_blocks_refusals_and_cancelling_entries(field):
    # a block of the wrong shape or field is refused with the one message
    # naming it; blocks that land on the same entries add, over Q on the lcm
    # of their denominators, and an entry that cancels is not stored: each d
    # equals the dense sum of the placed blocks, and a pair M, -M leaves the
    # complex that the other blocks alone assemble
    inner = GradedBasis([("a", 0), ("b", 1), ("c", 1), ("e", 2)])
    outer = [("x", 0), ("y", 1), ("z", 1), ("w", 2)]
    with pytest.raises(InvariantError, match=r"^block 'x' -> 'y' from inner degree 1 has shape \(1, 2\)$"):
        CochainComplex.from_blocks(field, outer, inner, [("x", "y", 1, Matrix.zero(field, 1, 2))])
    other = Field(5)
    with pytest.raises(InvariantError, match=r"^block 'x' -> 'x' from inner degree 0 has shape \(2, 1\)$"):
        CochainComplex.from_blocks(field, outer, inner, [("x", "x", 0, Matrix.zero(other, 2, 1))])
    deg = dict(outer)
    rng = random.Random(2703)
    for _ in range(20):
        blocks = []
        for x, kx in outer:
            for y, ky in outer:
                for k in inner.degrees():
                    k2 = k + 1 + kx - ky
                    if rng.random() < 0.5:
                        m = random_matrix(rng, field, inner.dim(k2), inner.dim(k), 0.7, random_wide_scalar)
                        blocks.append((x, y, k, m))
        cancelling = [(x, y, k, s) for x, y, k, m in rng.sample(blocks, min(3, len(blocks))) for s in (m, -m)]
        cx = CochainComplex.from_blocks(field, outer, inner, blocks + cancelling, check=False)
        ref = CochainComplex.from_blocks(field, outer, inner, blocks, check=False)
        dense = {}
        for x, y, k, m in blocks:
            k2 = k + 1 + deg[x] - deg[y]
            for i, j, v in m.entries():
                kk, c = cx.basis.position(x + "|" + inner.gens(k)[j])
                _, r = cx.basis.position(y + "|" + inner.gens(k2)[i])
                row = dense.setdefault(kk, [[field.zero] * cx.dim(kk) for _ in range(cx.dim(kk + 1))])[r]
                row[c] = field.add(row[c], v)
        for kk in cx.degrees():
            d = cx.d(kk)
            assert d == ref.d(kk)
            assert d.to_dense() == dense.get(kk, [[field.zero] * cx.dim(kk) for _ in range(cx.dim(kk + 1))])
            if field.p != 2:
                assert all(v for col in d.cols for v in col.values())


def test_chain_map_keeps_one_zero_block_per_absent_degree():
    # block(k) of a degree with no block is built once and then returned as
    # is; a map that does not commute is still refused, naming its degree
    src, tgt = interval(), circle()
    f = ChainMap(src, tgt, {0: Matrix.from_rows(Q, [[1, 1]])})
    for k in (-1, 1, 4):
        z = f.block(k)
        assert z.is_zero() and z.shape == (tgt.dim(k), src.dim(k))
        assert f.block(k) is z
    assert f.block(-1) is not f.block(1)
    with pytest.raises(InvariantError, match="^chain map does not commute with d in degree 0$"):
        ChainMap(src, tgt, {0: Matrix.zero(Q, 1, 2), 1: Matrix.from_rows(Q, [[1]])})
    with pytest.raises(InvariantError, match="^chain map does not commute with d in degree 0$"):
        ChainMap(src, src, {0: Matrix.identity(Q, 2)})  # its absent degree 1 is the zero block
