import random

import pytest

from spectower.complexes import ChainMap, CochainComplex
from spectower.errors import InvariantError, PreconditionError
from spectower.field import Field
from spectower.matrix import Matrix
from spectower.spectral import (
    FilteredChainMap,
    FilteredComplex,
    SplitFilteredComplex,
    map_of_spectral_sequences,
    zigzag_class_and_d,
)

from helpers import oracle_cohomology_dims, random_split_complex

Q = Field()
F2 = Field(2)
FIELDS = (Field(2), Field(3), Field())


def interval():
    return CochainComplex.from_generator_entries(
        Q, [("v0", 0), ("v1", 0), ("e", 1)], [("v0", "e", -1), ("v1", "e", 1)]
    )


def hopf_model():
    cx = CochainComplex.from_generator_entries(
        Q,
        [("b0|u", 0), ("b0|w", 1), ("b2|u", 2), ("b2|w", 3)],
        [("b0|w", "b2|u", 1)],
    )
    return SplitFilteredComplex(cx, {"b0|u": 0, "b0|w": 0, "b2|u": 2, "b2|w": 2})


# -- construction guards ------------------------------------------------------


def test_filtration_must_be_decreasing():
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 0)], [])
    good = FilteredComplex(cx, [{0: Matrix.from_rows(Q, [[1], [0]])}])
    assert good.n == 1
    with pytest.raises(InvariantError):
        FilteredComplex(
            cx,
            [
                {0: Matrix.from_rows(Q, [[1], [0]])},
                {0: Matrix.from_rows(Q, [[0], [1]])},  # not contained in step 1
            ],
        )


def test_filtration_must_respect_differential():
    cx = interval()
    with pytest.raises(InvariantError):
        # span{v0} is not a subcomplex: d(v0) = -e escapes
        FilteredComplex(cx, [{0: Matrix.from_rows(Q, [[1], [0]])}])


def test_split_blocks_must_not_decrease():
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    with pytest.raises(InvariantError):
        SplitFilteredComplex(cx, {"a": 1, "b": 0})


# -- golden pages ----------------------------------------------------------------


def test_trivial_filtration_page1_is_cohomology():
    rng = random.Random(0)
    for field in FIELDS:
        cx = random_split_complex(rng, field, max_gens=14, max_len=3).complex
        fc = FilteredComplex(cx, [])
        p1 = fc.page(1)
        assert {q: d for (p, q), d in p1.dims().items()} == cx.cohomology().dims()
        for r in range(1, 3):
            assert not fc.page(r).has_nonzero_differential()
        conv = fc.converge()
        assert conv.r_stop <= 1
        assert conv.certified


def test_interval_two_step_filtration():
    # F_1 = the subcomplex generated by one 0-cell: span{v0, e}
    cx = interval()
    fc = FilteredComplex(
        cx,
        [{0: Matrix.from_rows(Q, [[1], [0]]), 1: Matrix.from_rows(Q, [[1]])}],
    )
    p1 = fc.page(1)
    assert p1.dims() == {(0, 0): 1}
    conv = fc.converge()
    assert conv.certified
    assert conv.einf_total_dims() == {0: 1}
    # the generated subcomplex puts v0 in bidegree (1, -1): flagged, not hidden
    assert (1, -1) in fc.page(0).dims()
    assert fc.page(0).flagged == ((1, -1),)


def test_hopf_model_tower():
    sfc = hopf_model()
    p2 = sfc.page(2)
    assert p2.dims() == {(0, 0): 1, (0, 1): 1, (2, 0): 1, (2, 1): 1}
    assert p2.differential(0, 1).rank() == 1
    p3 = sfc.page(3)
    assert p3.dims() == {(0, 0): 1, (2, 1): 1}
    conv = sfc.converge()
    assert conv.r_stop == 3
    assert conv.certified
    assert conv.einf_total_dims() == {0: 1, 3: 1}
    assert conv.einf == p3.dims()


def test_page_cache_is_stable():
    sfc = hopf_model()
    assert sfc.page(2) is sfc.page(2)
    a = sfc.page(1).reps(0, 1)
    b = sfc.page(1).reps(0, 1)
    assert a is b


# -- zig-zag --------------------------------------------------------------------


def test_zigzag_d0_only_complex():
    # with d = d_0 the lifting is trivial for every r
    cx = CochainComplex.from_generator_entries(
        Q, [("a", 0), ("b", 1), ("c", 0)], [("a", "b", 1)]
    )
    sfc = SplitFilteredComplex(cx, {"a": 0, "b": 0, "c": 1})
    alpha = Matrix.basis_column(Q, 2, cx.basis.position("c")[1])
    for r in (1, 2, 3, 5):
        zz = zigzag_class_and_d(sfc, r, 0, alpha)
        assert zz is not None
        assert zz.chain == alpha
        assert zz.image.is_zero()
    # a d_0-noncocycle defines no class on page 1
    bad = Matrix.basis_column(Q, 2, cx.basis.position("a")[1])
    assert zigzag_class_and_d(sfc, 1, 0, bad) is None


def test_zigzag_r1_is_d0_kernel_and_d1_image():
    rng = random.Random(42)
    for field in FIELDS:
        for _ in range(6):
            sfc = random_split_complex(rng, field, max_gens=16, max_len=4)
            cx = sfc.complex
            for k in cx.degrees():
                gens = cx.basis.gens(k)
                for i in rng.sample(range(len(gens)), min(3, len(gens))):
                    p = sfc.block_of(gens[i])
                    alpha = Matrix.basis_column(field, cx.dim(k), i)
                    zz = zigzag_class_and_d(sfc, 1, k, alpha)
                    d0 = sfc.component_matrix(k, p, 0)
                    cols = sfc.block_indices(k, p)
                    a_blk = alpha.take_rows(cols)
                    if (d0 * a_blk).is_zero():
                        assert zz is not None
                        d1 = sfc.component_matrix(k, p, 1)
                        img_rows = sfc.block_indices(k + 1, p + 1)
                        assert zz.image.take_rows(img_rows) == d1 * a_blk
                    else:
                        assert zz is None


def test_zigzag_support_violation():
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("c", 0)], [])
    sfc = SplitFilteredComplex(cx, {"a": 0, "c": 1})
    both = Matrix.column_vector(Q, [1, 1])
    with pytest.raises(PreconditionError):
        zigzag_class_and_d(sfc, 1, 0, both)


def test_zigzag_hopf_d2_spans_target():
    sfc = hopf_model()
    cx = sfc.complex
    alpha = Matrix.basis_column(Q, cx.dim(1), cx.basis.position("b0|w")[1])
    zz = zigzag_class_and_d(sfc, 2, 1, alpha)
    assert zz is not None
    cls = sfc.page(2).class_of(2, 0, zz.image)
    assert cls is not None and cls.rank() == 1


def zigzag_matches_subquotient(sfc, rng, probes=3):
    """Spec invariant (iii): membership and d_r images mod boundaries."""
    cx = sfc.complex
    filt = sfc.to_filtered()
    f = cx.field
    for k in cx.degrees():
        gens = cx.basis.gens(k)
        for i in rng.sample(range(len(gens)), min(probes, len(gens))):
            p = sfc.block_of(gens[i])
            alpha = Matrix.basis_column(f, cx.dim(k), i)
            for r in range(1, sfc.n + 2):
                zz = zigzag_class_and_d(sfc, r, k, alpha)
                # independent membership through the general machinery
                t = filt.span(p + 1, k)
                v = filt.span(p + r, k + 1)
                sys = Matrix.hstack(f, cx.dim(k + 1), [cx.d(k) * t, -v])
                member = sys.solve(-(cx.d(k) * alpha)) is not None
                assert (zz is not None) == member
                if zz is None:
                    continue
                page = filt.page(r)
                tp, tq = p + r, k - p - r + 1
                via_subquotient = page.class_of(tp, tq, cx.d(k) * zz.chain)
                assert via_subquotient is not None
                # give the pure-block image its own zig-zag witness and
                # compare the two classes
                if zz.image.is_zero():
                    assert via_subquotient.is_zero()
                    continue
                wz = zigzag_class_and_d(sfc, r, k + 1, zz.image)
                assert wz is not None
                via_zigzag = page.class_of(tp, tq, wz.chain)
                assert via_zigzag == via_subquotient


def test_zigzag_agrees_with_subquotient_pages():
    rng = random.Random(77)
    for field in FIELDS:
        for _ in range(5):
            sfc = random_split_complex(rng, field, max_gens=18, max_len=4)
            zigzag_matches_subquotient(sfc, rng)


# -- tower invariants on random instances ------------------------------------------


def test_tower_invariants_random():
    rng = random.Random(123)
    for field in FIELDS:
        for _ in range(8):
            sfc = random_split_complex(rng, field, max_gens=22, max_len=5)
            check_tower_invariants(sfc)


def check_tower_invariants(sfc):
    conv = sfc.converge()
    assert conv.certified
    # (i) d_r o d_r = 0; (ii) E_{r+1} = H(E_r, d_r) dimensionwise
    for r in range(0, sfc.n + 2):
        page = sfc.page(r)
        for (p, q) in page.cells():
            out = page.differential(p, q)
            nxt = page.differential(p + r, q - r + 1)
            assert (nxt * out).is_zero()
        if r <= sfc.n:
            nxt_page = sfc.page(r + 1)
            for (p, q) in set(page.cells()) | set(nxt_page.cells()):
                expect = (
                    page.dim(p, q)
                    - page.differential(p, q).rank()
                    - page.differential(p - r, q + r - 1).rank()
                )
                assert nxt_page.dim(p, q) == expect
    # (iv) convergence: E_inf totals match the direct cohomology, and pages
    # past the stabilization bound are E_inf
    assert conv.einf_total_dims() == sfc.complex.cohomology().dims()
    for r in (sfc.n + 2, sfc.n + 40):
        assert sfc.page(r).dims() == conv.einf
        assert not sfc.page(r).has_nonzero_differential()
    assert oracle_cohomology_dims(sfc.complex) == sfc.complex.cohomology().dims()


def test_first_page_is_block_cohomology():
    rng = random.Random(321)
    for field in FIELDS:
        for _ in range(6):
            sfc = random_split_complex(rng, field, max_gens=20, max_len=4)
            p1 = sfc.page(1)
            want = {}
            for p in range(0, sfc.n + 1):
                for k in sfc.complex.degrees():
                    d0 = sfc.component_matrix(k, p, 0)
                    dprev = sfc.component_matrix(k - 1, p, 0)
                    dim = len(sfc.block_indices(k, p)) - d0.rank() - dprev.rank()
                    if dim:
                        want[(p, k - p)] = dim
            assert p1.dims() == want


def test_representatives_are_deterministic():
    def build():
        cx = CochainComplex.from_generator_entries(
            Q,
            [("b0|u", 0), ("b0|w", 1), ("b2|u", 2), ("b2|w", 3)],
            [("b0|w", "b2|u", 1)],
        )
        return SplitFilteredComplex(cx, {"b0|u": 0, "b0|w": 0, "b2|u": 2, "b2|w": 2})

    a, b = build(), build()
    for r in range(0, 4):
        pa, pb = a.page(r), b.page(r)
        assert pa.dims() == pb.dims()
        for (p, q) in pa.cells():
            assert pa.reps(p, q) == pb.reps(p, q)
            assert pa.differential(p, q) == pb.differential(p, q)


# -- maps of towers ---------------------------------------------------------------


def test_identity_map_of_towers():
    sfc = hopf_model()
    fc = sfc.to_filtered()
    f = ChainMap.identity(fc.complex)
    fmap = FilteredChainMap(f, fc, fc)
    maps = map_of_spectral_sequences(fmap)
    for r, level in maps.items():
        page = fc.page(r)
        for (p, q), m in level.items():
            assert m == Matrix.identity(Q, page.dim(p, q))


def test_inclusion_of_filtration_step():
    # source = F_1 as a subcomplex with its induced filtration; on E_0 the
    # induced map embeds the columns p >= 1 and kills nothing
    rng = random.Random(5)
    sfc = random_split_complex(rng, Q, max_gens=14, max_len=3)
    cx = sfc.complex
    kept = [g for g, _ in cx.basis.generators if sfc.blocks[g] >= 1]
    gens = [(g, k) for g, k in cx.basis.generators if g in set(kept)]
    entries = []
    for k in cx.degrees():
        src, tgt = cx.basis.gens(k), cx.basis.gens(k + 1)
        for i, j, v in cx.d(k).entries():
            if src[j] in set(kept) and tgt[i] in set(kept):
                entries.append((src[j], tgt[i], v))
    sub = CochainComplex.from_generator_entries(Q, gens, entries)
    sub_split = SplitFilteredComplex(sub, {g: sfc.blocks[g] for g, _ in gens})
    blocks = {}
    for k in set(sub.degrees()) | set(cx.degrees()):
        pos = {g: i for i, g in enumerate(cx.basis.gens(k))}
        ent = {}
        for j, g in enumerate(sub.basis.gens(k)):
            ent[(pos[g], j)] = Q.one
        blocks[k] = Matrix(Q, cx.dim(k), sub.dim(k), ent)
    inc = ChainMap(sub, cx, blocks)
    fmap = FilteredChainMap(inc, sub_split.to_filtered(), sfc.to_filtered())
    maps = map_of_spectral_sequences(fmap)
    p0_src = sub_split.page(0)
    for (p, q), m in maps[0].items():
        if p >= 1:
            assert m.rank() == p0_src.dim(p, q)


def test_filtration_violation_detected():
    sfc = hopf_model()
    fc = sfc.to_filtered()
    # a degree-1 map smearing F_2 back into block 0 is not filtration-preserving
    cx = fc.complex
    blocks = {k: Matrix.identity(Q, cx.dim(k)) for k in cx.degrees()}
    blocks[2] = Matrix.from_rows(Q, [[1]])  # C^2 -> C^2 is fine
    move = {k: Matrix.zero(Q, cx.dim(k), cx.dim(k)) for k in cx.degrees()}
    move[2] = Matrix.from_rows(Q, [[1]])
    # target complex: same underlying, but trivial filtration forces nothing;
    # instead push b2|u into b0-land via a fake identity-on-degrees map into a
    # complex where the filtration differs
    shifted = SplitFilteredComplex(cx, {"b0|u": 0, "b0|w": 0, "b2|u": 0, "b2|w": 0})
    f = ChainMap.identity(cx)
    with pytest.raises(PreconditionError):
        FilteredChainMap(f, fc, FilteredComplex(cx, [
            {2: Matrix.zero(Q, 1, 0)}
        ]))
    assert shifted.n == 0  # sanity: the relaxed block assignment is legal


def test_truncation_analog_on_small_instance():
    # 6-generator split complex; quotient by the top filtration step
    cx = CochainComplex.from_generator_entries(
        Q,
        [("a0", 0), ("a1", 1), ("b0", 0), ("b1", 1), ("c0", 0), ("c1", 1)],
        [("a0", "a1", 1), ("b0", "b1", 1), ("a0", "b1", 1), ("b0", "c1", 1)],
    )
    sfc = SplitFilteredComplex(cx, {"a0": 0, "a1": 0, "b0": 1, "b1": 1, "c0": 2, "c1": 2})
    kept = {"a0", "a1", "b0", "b1"}
    gens = [(g, k) for g, k in cx.basis.generators if g in kept]
    entries = []
    for k in cx.degrees():
        src, tgt = cx.basis.gens(k), cx.basis.gens(k + 1)
        for i, j, v in cx.d(k).entries():
            if src[j] in kept and tgt[i] in kept:
                entries.append((src[j], tgt[i], v))
    quot = CochainComplex.from_generator_entries(Q, gens, entries)
    qsplit = SplitFilteredComplex(quot, {g: sfc.blocks[g] for g, _ in gens})
    blocks = {}
    for k in cx.degrees():
        pos = {g: i for i, g in enumerate(quot.basis.gens(k))}
        ent = {}
        for j, g in enumerate(cx.basis.gens(k)):
            if g in pos:
                ent[(pos[g], j)] = Q.one
        blocks[k] = Matrix(Q, quot.dim(k), cx.dim(k), ent)
    proj = ChainMap(cx, quot, blocks)
    fmap = FilteredChainMap(proj, sfc.to_filtered(), qsplit.to_filtered())
    maps = map_of_spectral_sequences(fmap)  # commuting squares verified inside
    assert set(maps) == set(range(0, 4))


def test_tower_with_negative_degrees():
    # degrees may be any integers; q < 0 cells are flagged, never dropped
    cx = CochainComplex.from_generator_entries(
        Q,
        [("x", -2), ("y", -1), ("z", -1), ("w", 0)],
        [("x", "y", 1), ("z", "w", 2)],
    )
    sfc = SplitFilteredComplex(cx, {"x": 0, "y": 1, "z": 1, "w": 1})
    conv = sfc.converge()
    assert conv.certified
    assert conv.einf_total_dims() == cx.cohomology().dims() == {}
    assert any(q < 0 for (p, q) in sfc.page(0).dims())
    assert sfc.page(0).flagged


def test_tower_over_larger_primes():
    rng = random.Random(55)
    for p in (5, 7):
        field = Field(p)
        sfc = random_split_complex(rng, field, max_gens=20, max_len=4)
        conv = sfc.converge()
        assert conv.certified
        assert conv.einf_total_dims() == sfc.complex.cohomology().dims()


def conjugated(rng, fc):
    """fc with the complex and every filtration span moved by a random
    degreewise isomorphism: the same tower through dense, non-coordinate
    spans of the general FilteredComplex path."""
    from helpers import random_invertible

    cx, field = fc.complex, fc.complex.field
    t = {k: random_invertible(rng, field, cx.dim(k)) for k in cx.degrees()}
    diff = {k: t[k + 1] * cx.d(k) * t[k].inverse() for k in cx.degrees() if not cx.d(k).is_zero()}
    steps = []
    for p in range(1, fc.n + 1):
        steps.append({k: t[k] * fc.span(p, k) for k in cx.degrees() if fc.span(p, k).ncols})
    return FilteredComplex(CochainComplex(field, cx.basis, diff), steps)


def test_pages_match_dense_textbook_oracle():
    # every page dimension recomputed by a fully independent dense
    # implementation of the subquotient definition, for split towers and
    # their conjugates; on every cell, class_of inverts reps, kills the
    # boundaries d Z_{r-1}^{p-r+1, q+r-2}, and refuses exactly the basis
    # vectors of C^{p+q} outside Z_r^{p,q}
    from helpers import DensePageOracle

    rng = random.Random(777)
    for trial in range(16):
        field = (Field(2), Field(3), Field(2 ** 61 - 1), Field())[trial % 4]
        sfc = random_split_complex(rng, field, max_gens=18, max_len=5)
        for fc in (sfc, conjugated(rng, sfc)):
            cx = fc.complex
            oracle = DensePageOracle.from_filtered(fc)
            for r in range(0, fc.n + 2):
                page = fc.page(r)
                assert oracle.page_dims(r, cx.degrees()) == page.dims()
                for p in range(0, fc.n + 1):
                    for k in cx.degrees():
                        dim = page.dim(p, k - p)
                        if dim:
                            assert page.class_of(p, k - p, page.reps(p, k - p)) == Matrix.identity(field, dim)
                        lower = oracle.zspan(r - 1, p - r + 1, k - p + r - 2)
                        ent = {(i, j): v for j, col in enumerate(lower) for i, v in enumerate(col)}
                        bd = cx.d(k - 1) * Matrix(field, cx.dim(k - 1), len(lower), ent)
                        assert page.class_of(p, k - p, bd) == Matrix.zero(field, dim, len(lower))
                        z = oracle.zspan(r, p, k - p)
                        for i in range(cx.dim(k)):
                            e = [field.one if j == i else field.zero for j in range(cx.dim(k))]
                            member = oracle._rank_cols(z + [e]) == oracle._rank_cols(z)
                            assert (page.class_of(p, k - p, Matrix.basis_column(field, cx.dim(k), i)) is None) != member


def test_tower_invariant_under_global_change_of_basis():
    # conjugating the complex and every filtration span by a degreewise
    # isomorphism must not change any page dimension; this drives the
    # general FilteredComplex path with dense, non-coordinate spans
    rng = random.Random(4040)
    for trial in range(6):
        field = FIELDS[trial % 3]
        sfc = random_split_complex(rng, field, max_gens=16, max_len=4)
        fc = sfc.to_filtered()
        conj_fc = conjugated(rng, fc)
        for r in range(0, fc.n + 2):
            assert conj_fc.page(r).dims() == fc.page(r).dims()
        a, b = conj_fc.converge(), fc.converge()
        assert a.certified and b.certified
        assert a.einf == b.einf
        assert a.h_filtration == b.h_filtration
