import random
import re
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectower.complexes import ChainMap, CochainComplex, GradedBasis
from spectower.errors import InvariantError, PreconditionError
from spectower.field import Field
from spectower.matrix import Matrix
from spectower.spectral import (
    FilteredChainMap,
    FilteredComplex,
    SplitFilteredComplex,
    _Reduction,
    map_of_spectral_sequences,
)

from helpers import (best_converge_time, block_indices, component_matrix, oracle_cohomology_dims, oracle_h_filtration,
                     random_matrix, random_scalar, random_split_complex, sparse_pair_tower, to_filtered, unchecked,
                     zigzag_class_and_d)

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
    with pytest.raises(InvariantError, match=r"^filtration is not decreasing at \(p=1, k=0\)$"):
        FilteredComplex(
            cx,
            [
                {0: Matrix.from_rows(Q, [[1], [0]])},
                {0: Matrix.from_rows(Q, [[0], [1]])},  # not contained in step 1
            ],
        )


def test_filtration_must_respect_differential():
    cx = interval()
    with pytest.raises(InvariantError, match=r"^differential does not respect the filtration at \(p=1, k=0\)$"):
        # span{v0} is not a subcomplex: d(v0) = -e escapes
        FilteredComplex(cx, [{0: Matrix.from_rows(Q, [[1], [0]])}])


def test_filtration_spans_of_the_wrong_field_or_height_are_refused():
    with pytest.raises(InvariantError, match=r"^filtration span has wrong field at \(p=1, k=0\)$"):
        FilteredComplex(interval(), [{0: Matrix.from_rows(Field(3), [[1], [1]])}])
    with pytest.raises(InvariantError, match=r"^filtration span at \(p=1, k=0\) has 3 rows, expected 2$"):
        FilteredComplex(interval(), [{0: Matrix.from_rows(Q, [[1], [1], [0]])}])


def test_every_generator_needs_a_block():
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    with pytest.raises(InvariantError, match="^generator 'b' has no block index$"):
        SplitFilteredComplex(cx, {"a": 0})


def test_split_blocks_must_not_decrease():
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    with pytest.raises(InvariantError):
        SplitFilteredComplex(cx, {"a": 1, "b": 0})


def test_a_block_lowering_refusal_names_the_least_entry_as_listed():
    # d(a) = x + y lowers the block at both entries.  Each degree below is
    # listed out of block order in at least one listing, and its split copy
    # lists y before x, yet the refusal names the least (row, column) entry
    # in the tower's own coordinates: 'a' -> 'x' under either listing
    blocks = {"a": 3, "b": 0, "x": 2, "y": 1}
    for gens in ([("a", 0), ("b", 0), ("x", 1), ("y", 1)], [("b", 0), ("a", 0), ("x", 1), ("y", 1)]):
        cx = CochainComplex.from_generator_entries(Q, gens, [("a", "x", 1), ("a", "y", 1)])
        with pytest.raises(InvariantError, match="^differential entry 'a' -> 'x' lowers the block index by 1$"):
            SplitFilteredComplex(cx, blocks)


def test_split_blocks_must_be_ints():
    # a float or a bool block is refused, not truncated into another filtration
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    with pytest.raises(InvariantError, match=r"^generator 'a' has non-integer block index 0\.5$"):
        SplitFilteredComplex(cx, {"a": 0.5, "b": 1.9})
    for block in (1.0, True):
        with pytest.raises(InvariantError, match=r"^generator 'b' has non-integer block index %s$" % block):
            SplitFilteredComplex(cx, {"a": 0, "b": block})
    # each is refused before any block is compared: a string, None or a list
    # raised a bare TypeError from max() over the blocks
    for block in ("x", None, [1], 1.5, True):
        with pytest.raises(InvariantError, match=r"^generator 'a' has non-integer block index %s$"
                           % re.escape(repr(block))):
            SplitFilteredComplex(cx, {"a": block, "b": 0})
    assert SplitFilteredComplex(cx, {"a": 0, "b": 1}).blocks == {"a": 0, "b": 1}


def test_split_blocks_are_read_for_the_generators_only():
    # an id that is no generator neither sets the filtration length nor
    # stays in the tower: the identity map of this 2-generator tower has 3
    # levels, r = 0..n+1, where the stray block made it 100002
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    sfc = SplitFilteredComplex(cx, {"a": 0, "b": 1, "zzz": 10 ** 5})
    assert sfc.n == 1
    assert sfc.blocks == {"a": 0, "b": 1}
    maps = map_of_spectral_sequences(FilteredChainMap(ChainMap.identity(cx), sfc, sfc))
    assert sorted(maps) == [0, 1, 2]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduction_refuses_a_v_that_breaks_r_equals_d_v(monkeypatch, field):
    # the tracked pass is not trusted: a V off by e_j at a nonzero column of
    # d is refused by the R = D V check before any page is built
    import spectower.spectral as spectral
    from spectower.matrix import _tracked

    def off_by_e_j(f, basis, j, col):
        col, v, vj = _tracked(f, basis, j, col)
        return col, (v ^ 1 << j if f.p == 2 else {**v, j: v[j] + 1}), vj

    monkeypatch.setattr(spectral, "_tracked", off_by_e_j)
    cx = CochainComplex.from_generator_entries(field, [("a", 0), ("b", 1)], [("a", "b", 1)])
    with pytest.raises(InvariantError, match=r"^reduction R = D V fails in degree 0: engine bug$"):
        SplitFilteredComplex(cx, {"a": 0, "b": 1}).page(0)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduction_refuses_a_death_end_with_a_nonzero_r_column(monkeypatch, field):
    # d(a) = b + c pairs a with its pivot b, its least index; a pass that
    # reduces nothing keeps R = D V but leaves b the nonzero R column
    # d(b) = x, which the death-end check refuses
    import spectower.spectral as spectral

    monkeypatch.setattr(spectral, "_tracked", lambda f, basis, j, col: (col, 1 << j if f.p == 2 else {j: 1}, 1))
    cx = CochainComplex.from_generator_entries(field, [("a", 0), ("b", 1), ("c", 1), ("x", 2)],
                                               [("a", "b", 1), ("a", "c", 1), ("b", "x", 1), ("c", "x", -1)])
    with pytest.raises(InvariantError, match=r"^death end 0 in degree 1 has a nonzero R column: engine bug$"):
        SplitFilteredComplex(cx, {g: 0 for g in "abcx"}).page(0)


PAGE_CHECK_FIELDS = (F2, Field(3), Field(2 ** 61 - 1), Q)


@pytest.mark.parametrize("field", PAGE_CHECK_FIELDS, ids=str)
def test_page_refuses_d_r_after_d_r(field):
    # a -> b is the one gap-2 pair; a forged gap-2 pair b -> c makes the
    # death end b a birth end too, so d_2 o d_2 sends a to c
    cx = CochainComplex.from_generator_entries(field, [("a", 0), ("b", 1), ("c", 2)], [("a", "b", 1)])
    sfc = SplitFilteredComplex(cx, {"a": 0, "b": 2, "c": 4})
    sfc.page(0)
    sfc._red.gaps[2].append((1, 0, 0))
    with pytest.raises(InvariantError, match=r"^d_2 o d_2 != 0 at \(p=0, q=0\): engine bug$"):
        sfc.page(2)


@pytest.mark.parametrize("field", PAGE_CHECK_FIELDS, ids=str)
def test_page_refuses_a_breakpoint_that_is_not_the_homology(field):
    # a0 -> b is the one gap-1 pair; a forged gap-1 pair a1 -> b kills a1
    # too, but d_1 out of cell (0, 0) still has rank 1: E_2^{0,0} has
    # dim 3 - 2 = 1 where H(E_1, d_1) has 3 - 1 = 2
    cx = CochainComplex.from_generator_entries(field, [("a0", 0), ("a1", 0), ("a2", 0), ("b", 1)],
                                               [("a0", "b", 1)])
    sfc = SplitFilteredComplex(cx, {"a0": 0, "a1": 0, "a2": 0, "b": 1})
    sfc.page(0)
    sfc._red.gaps[1].append((0, 1, 0))
    with pytest.raises(InvariantError,
                       match=r"^page 2 cell \(0, 0\) has dim 1 but H\(E_1, d_1\) gives 2: engine bug$"):
        sfc.page(2)


@pytest.mark.parametrize("field", PAGE_CHECK_FIELDS, ids=str)
def test_breakpoints_count_the_rank_of_d_s(monkeypatch, field):
    # d_s out of a cell is a matching of unit columns, so each breakpoint
    # reads its rank as a count of death ends: every page builds with no
    # `_echelon` pass, and the certification that follows still holds
    import spectower.spectral as spectral

    def refuse(*args):
        raise AssertionError("_echelon ran")

    rng, seen = random.Random(2605), 0
    for _ in range(6):
        sfc = random_split_complex(rng, field, max_gens=24, max_len=4)
        monkeypatch.setattr(spectral, "_echelon", refuse)
        pages = [sfc.page(r).dims() for r in range(sfc.n + 2)]
        monkeypatch.undo()
        seen += len(sfc._red.breaks) > 2
        conv = sfc.converge()
        assert conv.certified and pages[-1] == conv.einf
    assert seen


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
    alpha = Matrix.from_entries(Q, 2, 1, [(cx.basis.position("c")[1], 0, 1)])
    for r in (1, 2, 3, 5):
        zz = zigzag_class_and_d(sfc, r, 0, alpha)
        assert zz is not None
        assert zz.chain == alpha
        assert zz.image.is_zero()
    # a d_0-noncocycle defines no class on page 1
    bad = Matrix.from_entries(Q, 2, 1, [(cx.basis.position("a")[1], 0, 1)])
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
                    p = sfc.blocks[gens[i]]
                    alpha = Matrix.from_entries(field, cx.dim(k), 1, [(i, 0, 1)])
                    zz = zigzag_class_and_d(sfc, 1, k, alpha)
                    d0 = component_matrix(sfc, k, p, 0)
                    cols = block_indices(sfc, k, p)
                    a_blk = alpha.take_rows(cols)
                    if (d0 * a_blk).is_zero():
                        assert zz is not None
                        d1 = component_matrix(sfc, k, p, 1)
                        img_rows = block_indices(sfc, k + 1, p + 1)
                        assert zz.image.take_rows(img_rows) == d1 * a_blk
                    else:
                        assert zz is None


def test_zigzag_support_violation():
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("c", 0)], [])
    sfc = SplitFilteredComplex(cx, {"a": 0, "c": 1})
    both = Matrix.from_rows(Q, [[1], [1]])
    with pytest.raises(PreconditionError):
        zigzag_class_and_d(sfc, 1, 0, both)


def test_zigzag_hopf_d2_spans_target():
    sfc = hopf_model()
    cx = sfc.complex
    alpha = Matrix.from_entries(Q, cx.dim(1), 1, [(cx.basis.position("b0|w")[1], 0, 1)])
    zz = zigzag_class_and_d(sfc, 2, 1, alpha)
    assert zz is not None
    cls = sfc.page(2).class_of(2, 0, zz.image)
    assert cls is not None and cls.rank() == 1


def zigzag_matches_subquotient(sfc, rng, probes=3):
    """Spec invariant (iii): membership and d_r images mod boundaries."""
    cx = sfc.complex
    filt = to_filtered(sfc)
    f = cx.field
    for k in cx.degrees():
        gens = cx.basis.gens(k)
        for i in rng.sample(range(len(gens)), min(probes, len(gens))):
            p = sfc.blocks[gens[i]]
            alpha = Matrix.from_entries(f, cx.dim(k), 1, [(i, 0, 1)])
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
                    d0 = component_matrix(sfc, k, p, 0)
                    dprev = component_matrix(sfc, k - 1, p, 0)
                    dim = len(block_indices(sfc, k, p)) - d0.rank() - dprev.rank()
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
    fc = to_filtered(sfc)
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
    fmap = FilteredChainMap(inc, to_filtered(sub_split), to_filtered(sfc))
    maps = map_of_spectral_sequences(fmap)
    p0_src = sub_split.page(0)
    for (p, q), m in maps[0].items():
        if p >= 1:
            assert m.rank() == p0_src.dim(p, q)


def test_filtration_violation_detected():
    sfc = hopf_model()
    fc = to_filtered(sfc)
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
    fmap = FilteredChainMap(proj, to_filtered(sfc), to_filtered(qsplit))
    maps = map_of_spectral_sequences(fmap)  # commuting squares verified inside
    assert set(maps) == set(range(0, 4))


def pair_tower(field, gap, framed, paired=True):
    """x -> y with x in degree 0, block 0 and y in degree 1, block `gap`
    (d = 0 unless `paired`); as a general FilteredComplex when `framed`."""
    cx = CochainComplex.from_generator_entries(field, [("x", 0), ("y", 1)], [("x", "y", 1)] if paired else [])
    sfc = SplitFilteredComplex(cx, {"x": 0, "y": gap})
    return to_filtered(sfc) if framed else sfc


@pytest.mark.parametrize("paired", [(True, True), (False, True), (True, False)], ids=["both", "target", "source"])
@pytest.mark.parametrize("framed", [False, True], ids=["split", "framed"])
@pytest.mark.parametrize("field", PAGE_CHECK_FIELDS, ids=str)
def test_a_map_that_is_not_a_chain_map_fails_the_commuting_square(field, framed, paired):
    # maps that preserve the filtration but not d, with d_0 matching x -> y
    # on both sides (f is 1 on C^0 and 0 on C^1), or on one side only (f is
    # 1): d f x != f d x, so on E_0 d_0 o f != f o d_0 at (0, 0)
    src, tgt = (pair_tower(field, 0, framed, d) for d in paired)
    one = Matrix.identity(field, 1)
    with unchecked(ChainMap, "check_commutes"):
        f = ChainMap(src.complex, tgt.complex, {0: one, 1: one if paired != (True, True) else one.scale(0)})
    with pytest.raises(InvariantError, match=r"^induced page map does not commute with d_0 at \(p=0, q=0\)$"):
        map_of_spectral_sequences(FilteredChainMap(f, src, tgt))


@pytest.mark.parametrize("framed", [False, True], ids=["split", "framed"])
@pytest.mark.parametrize("field", PAGE_CHECK_FIELDS, ids=str)
def test_a_target_pair_that_dies_early_fails_the_escape_check(field, framed):
    # the identity between two copies of x -> y at block gap 2, after the
    # target's reduction is told the pair has gap 0 at both its ends: on
    # page 1 the target's x is no longer in Z_1, while the source's x still is
    src, tgt = pair_tower(field, 2, framed), pair_tower(field, 2, framed)
    red = tgt.page(0)._red
    assert red.up[0] == [0] and red.gap[0] == red.gap[1] == [2]
    red.gap[0][0] = red.gap[1][0] = 0
    fmap = FilteredChainMap(ChainMap.identity(src.complex), src, tgt)
    with pytest.raises(InvariantError, match=r"^induced map escaped the target page at r=1, \(p=0, q=0\)$"):
        map_of_spectral_sequences(fmap)
    assert map_of_spectral_sequences(FilteredChainMap(ChainMap.identity(src.complex), src, src))[2] == {
        (0, 0): Matrix.identity(field, 1), (2, -1): Matrix.identity(field, 1)}


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


def assert_h_filtration_matches_oracle(fc, conv):
    """h_dim(p, k) against the kernel formula at every p in 0..n+1 and every
    degree, zeros included; each stored entry is a change point of p."""
    want = oracle_h_filtration(fc)
    for p in range(0, fc.n + 2):
        for k in fc.complex.degrees():
            assert conv.h_dim(p, k) == want.get((p, k), 0)
    for (p, k), h in conv.h_filtration.items():
        assert h != conv.h_dim(p + 1, k)


def conjugated(rng, fc, scalar=random_scalar, t=None):
    """fc with the complex and every filtration span moved by a degreewise
    isomorphism t, random unless given: the same tower through dense,
    non-coordinate spans of the general FilteredComplex path."""
    from helpers import random_invertible

    cx, field = fc.complex, fc.complex.field
    t = t or {k: random_invertible(rng, field, cx.dim(k), scalar=scalar) for k in cx.degrees()}
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
                            e_i = Matrix.from_entries(field, cx.dim(k), 1, [(i, 0, 1)])
                            assert (page.class_of(p, k - p, e_i) is None) != member


def test_h_filtration_matches_kernel_formula():
    # F_pH from prefix ranks against the kernel/hstack formula, and H from
    # ranks of d against cohomology(), for split towers and their
    # conjugated general FilteredComplex
    rng = random.Random(909)
    for trial in range(24):
        field = (Field(2), Field(3), Field(2 ** 61 - 1), Field())[trial % 4]
        sfc = random_split_complex(rng, field, max_gens=18, max_len=5)
        for fc in (sfc, conjugated(rng, sfc)):
            conv = fc.converge()
            assert_h_filtration_matches_oracle(fc, conv)
            assert conv.h_dims == fc.complex.cohomology().dims()
            assert conv.certified


def interleaved(rng, sfc):
    """sfc with the basis of each degree shuffled, so that its blocks
    interleave instead of coming block-sorted."""
    cx = sfc.complex
    perm = {k: rng.sample(range(cx.dim(k)), cx.dim(k)) for k in cx.degrees()}
    basis = GradedBasis([(cx.basis.gens(k)[i], k) for k in cx.degrees() for i in perm[k]])
    diff = {k: cx.d(k).take_rows(perm[k + 1]).take_columns(perm[k]) for k in cx.degrees() if k + 1 in perm}
    return SplitFilteredComplex(CochainComplex(cx.field, basis, diff), sfc.blocks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([F2, Field(3), Field(2 ** 61 - 1), Q]))
def test_split_rank_profile_matches_the_kernel_formula(seed, field):
    # F_pH of a split tower from the rank profiles of the d^k of its split
    # copy, on bases whose blocks interleave, against the kernel formula and
    # against the span walk of the same filtration as a general FilteredComplex
    from helpers import random_wide_scalar

    rng = random.Random(seed)
    sfc = interleaved(rng, random_split_complex(rng, field, max_gens=18, max_len=5, scalar=random_wide_scalar))
    split = sfc._split()[0]
    profile = {pk: h for k in split.complex.degrees() for pk, h in split._h_filtration(k)}  # before any page
    conv = sfc.converge()
    assert conv.h_filtration == profile
    assert_h_filtration_matches_oracle(sfc, conv)
    assert conv.h_filtration == to_filtered(sfc).converge().h_filtration
    assert conv.certified


def test_q_towers_with_wide_rationals_match_oracles():
    # towers and their conjugates over Q, with numerators up to 10^6 over
    # coprime denominators up to 97, and over F_3 and F_(2^61-1): the W
    # columns (page-0 representatives) equal a textbook field-arithmetic
    # reduction entry for entry, and every page and F_pH match the
    # subquotient oracle and the kernel formula
    from helpers import DensePageOracle, oracle_reduction_basis, random_wide_scalar

    for field in (Q, Field(3), Field(2 ** 61 - 1)):
        rng = random.Random(9797)
        for _ in range(10):
            sfc = random_split_complex(rng, field, max_gens=14, max_len=4, scalar=random_wide_scalar)
            cx, w, page = sfc.complex, oracle_reduction_basis(sfc), sfc.page(0)
            for p, q in page.cells():
                reps = page.reps(p, q)
                cols = [w[(p + q, i)] for i, g in enumerate(cx.basis.gens(p + q)) if sfc.blocks[g] == p]
                assert reps.to_dense() == [list(row) for row in zip(*cols)]
                if field.p is None:
                    assert all(type(v) is Fraction for _, _, v in reps.entries())
            for fc in (sfc, conjugated(rng, sfc, random_wide_scalar)):
                oracle = DensePageOracle.from_filtered(fc)
                for r in range(0, fc.n + 2):
                    assert fc.page(r).dims() == oracle.page_dims(r, fc.complex.degrees())
                conv = fc.converge()
                assert conv.certified
                assert_h_filtration_matches_oracle(fc, conv)


def test_incremental_pages_on_sparse_block_indices():
    # blocks {0, 3, 7}: no pair has gap 1, 2, 5 or 6, so those pages drop
    # nothing and have no d_r, and F_1, F_2, F_4, F_5, F_6 add no
    # generator; every page and F_pH against the oracles, for split towers
    # and their conjugated general FilteredComplex
    from helpers import DensePageOracle

    rng = random.Random(3737)
    checked = 0
    while checked < 8:
        base = random_split_complex(rng, (F2, Q)[checked % 2], max_gens=16, max_len=3)
        if base.n != 2:
            continue
        sfc = SplitFilteredComplex(base.complex, {g: (0, 3, 7)[p] for g, p in base.blocks.items()})
        for fc in (sfc, conjugated(rng, sfc)):
            oracle = DensePageOracle.from_filtered(fc)
            for r in range(0, fc.n + 3):
                assert fc.page(r).dims() == oracle.page_dims(r, fc.complex.degrees())
            for r in (1, 2, 5, 6):
                assert not fc.page(r).has_nonzero_differential()
                assert fc.page(r + 1).dims() == fc.page(r).dims()
            conv = fc.converge()
            assert conv.certified
            assert_h_filtration_matches_oracle(fc, conv)
        checked += 1


def test_certification_does_not_read_the_pairing():
    # deleting one pair from the reduction (both ends unpaired: no partner,
    # no gap) changes E_inf; F_pH comes from ranks alone, so it must not
    # move, and certification must fail
    rng = random.Random(606)
    checked = 0
    while checked < 60:
        sfc = random_split_complex(rng, FIELDS[checked % 3], max_gens=18, max_len=4)
        red = sfc._red = _Reduction(*sfc._split())
        births = [(k, i) for k, up in red.up.items() for i, j in enumerate(up) if j >= 0]
        if not births:
            continue
        k, i = rng.choice(births)
        j, red.up[k][i] = red.up[k][i], -1
        red.gap[k][i] = red.gap[k + 1][j] = None
        clean = SplitFilteredComplex(sfc.complex, sfc.blocks).converge()
        conv = sfc.converge()
        assert conv.certified is False
        assert conv.h_filtration == clean.h_filtration
        checked += 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS), st.integers(1, 5), st.sampled_from([0, 1, 3, 10 ** 30]))
def test_scaled_block_indices_give_the_page_at_the_ceiling(seed, field, c, o):
    # block p -> c p + o multiplies every pair gap by c, so E_r of the scaled
    # tower is E_ceil(r/c) of the original with (p, q) -> (c p + o, q + p - c p - o)
    sfc = random_split_complex(random.Random(seed), field, max_gens=14, max_len=4)
    scaled = SplitFilteredComplex(sfc.complex, {g: c * p + o for g, p in sfc.blocks.items()})
    for r in range(0, c * (sfc.n + 1) + 2):
        want = {(c * p + o, q + p - c * p - o): d for (p, q), d in sfc.page(-(-r // c)).dims().items()}
        assert scaled.page(r).dims() == want
    conv = scaled.converge()
    assert conv.certified
    assert conv.einf == {(c * p + o, q + p - c * p - o): d for (p, q), d in sfc.converge().einf.items()}


def test_tower_invariant_under_global_change_of_basis():
    # conjugating the complex and every filtration span by a degreewise
    # isomorphism must not change any page dimension; this drives the
    # general FilteredComplex path with dense, non-coordinate spans
    rng = random.Random(4040)
    for trial in range(6):
        field = FIELDS[trial % 3]
        sfc = random_split_complex(rng, field, max_gens=16, max_len=4)
        fc = to_filtered(sfc)
        conj_fc = conjugated(rng, fc)
        for r in range(0, fc.n + 2):
            assert conj_fc.page(r).dims() == fc.page(r).dims()
        a, b = conj_fc.converge(), fc.converge()
        assert a.certified and b.certified
        assert a.einf == b.einf
        assert a.h_filtration == b.h_filtration


def test_unconjugated_chain_converges_within_budget():
    # the chain a_i -> b_(i+1), a_i and b_i in block i, at n = 3000: the ranks
    # of d^0 (3001 x 3001, 3000 nonzeros) behind h_dims cost one column pass,
    # not a row scan per column
    import time

    n = 3000
    start = time.perf_counter()
    gens = [("a%d" % i, 0) for i in range(n + 1)] + [("b%d" % i, 1) for i in range(n + 1)]
    d = {0: Matrix.from_entries(F2, n + 1, n + 1, [(i + 1, i, 1) for i in range(n)])}
    sfc = SplitFilteredComplex(CochainComplex(F2, GradedBasis(gens), d), {g: int(g[1:]) for g, _ in gens})
    conv = sfc.converge()
    assert conv.certified
    assert conv.einf == {(n, -n): 1, (0, 1): 1}
    assert time.perf_counter() - start < 1


def distinct_gap_chain(n):
    """a_i -> b_i over F_2, a_i in block 0 and b_i in block i + 1: n distinct gaps."""
    gens = [("a%d" % i, 0) for i in range(n)] + [("b%d" % i, 1) for i in range(n)]
    d = {0: Matrix.from_entries(F2, n, n, [(i, i, 1) for i in range(n)])}
    blocks = {g: 0 if g[0] == "a" else int(g[1:]) + 1 for g, _ in gens}
    return SplitFilteredComplex(CochainComplex(F2, GradedBasis(gens), d), blocks)


def test_distinct_gaps_converge_within_budget():
    # 2000 distinct gaps, so 2001 breakpoints over 2001 cells; each breakpoint
    # costs its one pair, not a pass over every cell of the page before it
    # (the time and memory of that are bounded at 4000 gaps in
    # test_distinct_gaps_cost_their_pairs)
    import time

    n = 2000
    start = time.perf_counter()
    conv = distinct_gap_chain(n).converge()
    assert conv.certified
    assert conv.r_stop == n + 1
    assert conv.einf == {}
    assert time.perf_counter() - start < 1


def test_distinct_gaps_cost_their_pairs():
    # 4000 distinct gaps: a breakpoint stores the counts of the two cells its
    # pair touches, so converge takes about 0.03 s with a 6 MB traced peak;
    # a copy of every count per breakpoint took 0.62 s and 312 MB.  Time and
    # memory are measured in separate runs, since tracing allocations slows them
    import time
    import tracemalloc

    n = 4000
    sfc = distinct_gap_chain(n)
    start = time.perf_counter()
    conv = sfc.converge()
    elapsed = time.perf_counter() - start
    assert conv.certified and conv.r_stop == n + 1 and conv.einf == {}
    assert elapsed < 0.25
    sfc = distinct_gap_chain(n)
    tracemalloc.start()
    try:
        sfc.converge()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_pages_of_one_breakpoint_share_their_counts():
    # 1001 cells, one pair of gap 1 and a filtration of length 5000: the
    # 5002 pages lie over two breakpoints and read two lists of counts, not
    # one per page (that would take about 40 MB here)
    import tracemalloc

    n, m = 5000, 1000
    gens = [("x%d" % i, 0) for i in range(m)] + [("z", 0), ("a", 1), ("b", 2)]
    blocks = {**{"x%d" % i: i for i in range(m)}, "z": n, "a": 0, "b": 1}
    d = {1: Matrix.from_entries(F2, 1, 1, [(0, 0, 1)])}
    sfc = SplitFilteredComplex(CochainComplex(F2, GradedBasis(gens), d), blocks)
    assert sfc.converge().r_stop == 2
    tracemalloc.start()
    try:
        a_dims = [sfc.page(r).dim(0, 1) for r in range(n + 2)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a_dims == [1, 1] + [0] * n
    assert [sfc.page(r).dim(m - 1, 1 - m) for r in (0, 2, n + 1)] == [1, 1, 1]
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("field", PAGE_CHECK_FIELDS, ids=str)
def test_page_views_agree_and_never_change(field):
    # three towers on one complex read each page three ways: as soon as it
    # is built (a copy of the latest counts), built early and read only
    # once every breakpoint is (replayed from page 0 through the stored
    # changes), and after converge.  They agree with the subquotient oracle
    # and with each other; dims() is fresh, sorted and nonzero, and a view
    # read before the last breakpoint was built reads the same afterwards
    from helpers import DensePageOracle

    rng = random.Random(3536)
    for _ in range(10):
        sfc = random_split_complex(rng, field, max_gens=16, max_len=4)
        cx, rs = sfc.complex, range(sfc.n + 3)
        oracle = DensePageOracle.from_filtered(sfc)
        eager = SplitFilteredComplex(cx, sfc.blocks)
        first = {r: eager.page(r).dims() for r in rs}
        lazy = SplitFilteredComplex(cx, sfc.blocks)
        views = [lazy.page(r) for r in rs]
        late = SplitFilteredComplex(cx, sfc.blocks)
        late.converge()
        cells0 = list(eager.page(0).dims())
        for r in rs:
            want = oracle.page_dims(r, cx.degrees())
            for page in (eager.page(r), views[r], late.page(r)):
                dims = page.dims()
                assert dims == first[r] == want
                assert list(dims) == sorted(dims) and all(dims.values())
                assert page.cells() == list(dims)
                assert page.flagged == tuple(c for c in dims if c[1] < 0)
                assert [page.dim(p, q) for p, q in cells0] == [dims.get(c, 0) for c in cells0]
                assert page.dim(-1, 0) == page.dim(sfc.n + 1, 0) == page.dim(0, 10 ** 6) == 0
                dims[(0, 0)] = dims.get((0, 0), 0) + 5
                dims.pop(next(iter(want), None), None)
                page.cells().append((-1, 0))
                assert page.dims() == want and page.dims() is not page.dims()
                assert page.dim(-1, 0) == 0


def test_q_tower_converges_within_budget():
    # 600 generators over Q, 13k nonzeros after a filtration-preserving change
    # of basis.  h_dims takes its ranks on the block-sorted rows, so each
    # pivot falls at the lowest block of its column, not inside the fill-in
    # the change of basis spreads into the later rows: 1.7 s in document order
    import time

    sfc = sparse_pair_tower(random.Random(5), Q, 600)
    start = time.perf_counter()
    conv = sfc.converge()
    elapsed = time.perf_counter() - start
    assert conv.certified
    assert elapsed < 0.8


@pytest.mark.parametrize("field", (Field(3), Field(2 ** 61 - 1), Q), ids=str)
def test_tower_steps_never_write_into_the_columns_they_are_given(field):
    # each elimination pass and each walk writes into its own copy of a
    # column: taken after page(0), a snapshot of d^k of a split tower, of the
    # same tower listed out of block order, of a general filtration and of a
    # truncation map's target, as given and in each one's split copy, of the
    # copies' frames, of the blocks of the truncation map, of the W pairs each
    # reduction stores and of the columns given to class_of reads the same
    # after converge(), class_of on every cell of every page and
    # map_of_spectral_sequences
    from spectower.fibration import truncation_map

    def cols(m):
        return [dict(c) for c in m.cols], m.den

    def snapshot(towers, fmap, vecs):
        out = [cols(y.complex.d(k)) for x in towers for y in (x, x._split()[0]) for k in x.complex.degrees()]
        out += [cols(m) for x in towers for t, t_inv in x._split()[1].values() for m in (t, t_inv)]
        out += [cols(fmap.chain_map.block(k)) for k in fmap.chain_map.source.degrees()]
        out += [{k: [(dict(w), d) for w, d in zip(ws, x._red.dw[k])] for k, ws in x._red.w.items()} for x in towers]
        return out + [cols(m) for m in vecs.values()]

    rng = random.Random(2929)
    for _ in range(3):
        split = random_split_complex(rng, field, max_gens=20, max_len=4)
        shuffled, cx = {g: rng.random() for g in split.blocks}, split.complex
        action = {g: -10 * k + Fraction(rng.randint(0, 9), 10) for g, k in cx.basis.generators}
        fmap = truncation_map(split, action, (None, None), (-10 * cx.degrees()[len(cx.degrees()) // 2], None))
        towers = (split, reordered(split, shuffled.__getitem__), conjugated(rng, split), fmap.target)
        vecs = {(n, k): random_matrix(rng, field, x.complex.dim(k), 3, 0.6)
                for n, x in enumerate(towers) for k in x.complex.degrees()}
        for x in towers:
            x.page(0)
        before = snapshot(towers, fmap, vecs)
        for n, x in enumerate(towers):
            assert x.converge().certified
            for r in range(x.n + 2):
                page = x.page(r)
                for p, q in page.cells():
                    page.class_of(p, q, vecs[(n, p + q)])
                    page.class_of(p, q, Matrix.identity(field, x.complex.dim(p + q)))
        map_of_spectral_sequences(fmap)
        assert snapshot(towers, fmap, vecs) == before


def test_large_prime_tower_converges_within_budget():
    # 600 generators over F_(2^61-1), 15k nonzeros after the change of basis.
    # Each basis column is monic, so an elimination step subtracts x[low]·y
    # and touches only the entries of y: 0.32 s and more (best of three)
    # when every step scaled all of x by a·x - b·y and reduced it mod p
    assert best_converge_time(sparse_pair_tower(random.Random(5), Field(2 ** 61 - 1), 600)) < 0.3


def test_dense_q_tower_converges_within_budget():
    # 800 generators over Q.  A step is a·x - b·y and nothing more, and each
    # pass divides the content out once per column it stores or returns:
    # 0.40 s (best of three, 2-CPU Xeon, Python 3.11) when every step ran a
    # content pass over its whole working column, 0.28 s without
    assert best_converge_time(sparse_pair_tower(random.Random(5), Q, 800)) < 0.35


def test_q_reduction_keeps_its_pairs_primitive_and_small():
    # with content divided once per column, not once per step, the 800
    # generator dense Q tower stores the same W pairs: each V column (a birth
    # or unpaired end, W = V / V[j]) is primitive, each walk returns a
    # primitive (x, den), and no W entry passes 64 bits (61 when every step
    # divided content out).  A death end's W is its R column over δ·V[j],
    # primitive only together with its V, so it is not checked alone
    from math import gcd, lcm

    red = sparse_pair_tower(random.Random(5), Q, 800).page(0)._red
    bits = 0
    for k, ws in red.w.items():
        for i, (w, dw) in enumerate(zip(ws, red.dw[k])):
            bits = max(bits, abs(dw).bit_length(), *[abs(v).bit_length() for v in w.values()])
            if red.gap[k][i] is None or red.up[k][i] >= 0:
                assert dw == w[i] > 0
                assert gcd(*w.values()) == 1
    assert bits <= 64
    rng = random.Random(32)
    for k, blocks in red.block.items():  # a walk of sum c_i W_i over the lcm of the dw_i returns (c, 1)
        for _ in range(5):
            c = {i: rng.choice((-3, -1, 2, 5)) for i in rng.sample(range(len(blocks)), 4)}
            den, col = lcm(*[red.dw[k][i] for i in c]), {}
            for i, ci in c.items():
                for row, v in red.w[k][i].items():
                    col[row] = col.get(row, 0) + ci * den // red.dw[k][i] * v
            assert red._walk(0, k, {row: v for row, v in col.items() if v}, den)[:2] == (c, 1)


@pytest.mark.parametrize("field", PAGE_CHECK_FIELDS, ids=str)
def test_reduction_arrays_hold_one_pairing(field):
    # the per-degree lists of the reduction: both ends of a pair hold its
    # gap, the block difference of its ends (>= 0); an index is an end of
    # at most one pair, and only an end holds a gap; the up partners are
    # distinct; and the page-0 ranges of a degree partition its places, each
    # listing in the split copy the generators of its cell's block_indices,
    # on towers listed block by block and interleaved
    rng = random.Random(3434)
    for _ in range(25):
        sfc = random_split_complex(rng, field, max_gens=20, max_len=4)
        sfc = interleaved(rng, sfc) if rng.random() < 0.5 else sfc
        red, gens = sfc.page(0)._red, sfc._split()[0].complex.basis.gens
        for k, up in red.up.items():
            gap, block, down = red.gap[k], red.block[k], [j for j in red.up.get(k - 1, ()) if j >= 0]
            assert len(set(down)) == len(down)
            for i, j in enumerate(up):
                if j >= 0:
                    assert red.gap[k + 1][j] == gap[i] == red.block[k + 1][j] - block[i] >= 0
                assert not (j >= 0 and i in down)
                assert (gap[i] is not None) == (j >= 0 or i in down)
            cells = sorted((rg.start, rg, p, n) for n, ((p, q), rg) in enumerate(zip(red.cells, red.cell0))
                           if p + q == k)
            assert [i for _, rg, _, _ in cells for i in rg] == list(range(len(block)))
            for _, rg, p, n in cells:
                assert [gens(k)[i] for i in rg] == [sfc.complex.basis.gens(k)[i]
                                                    for i in block_indices(sfc, k, p)]
                assert [red.cell_of[k][i] for i in rg] == [n] * len(rg)


@pytest.mark.parametrize("field, most", [(F2, 400), (Field(3), 1000), (Field(2 ** 61 - 1), 1000), (Q, 1000)],
                         ids=str)
def test_reduction_keeps_no_record_per_generator(field, most):
    # the reduction stores per-degree lists, not a key and a record tuple
    # per generator: building it on 400 generators leaves fewer new objects
    # under the garbage collector than there are generators over F_2, where
    # columns are ints: 89, and about 570 over F_3, F_(2^61-1) and Q, where
    # tuple-keyed maps of W pairs and of the pairing left 1376 and 1856
    import gc

    sfc = sparse_pair_tower(random.Random(5), field, 400)
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        red = _Reduction(*sfc._split())  # held until the count is read: freeing it lowers the count
        rise = gc.get_count()[0] - before
    finally:
        gc.enable()
    del red
    assert rise < most


def test_page_refuses_an_index_that_is_not_an_integer():
    # a float, a bool, a string, None or a Fraction is refused, not compared
    # or truncated: page(1.5) gave a view whose d_r out of a cell of dim 1
    # had shape (0, 1), and page("2") a bare TypeError
    import re

    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    sfc = SplitFilteredComplex(cx, {"a": 0, "b": 1})
    for fc in (sfc, to_filtered(sfc)):
        for r in (1.5, True, "2", None, Fraction(2)):
            with pytest.raises(PreconditionError, match="^page index is not an integer: %s$" % re.escape(repr(r))):
                fc.page(r)
        assert fc.page(1).differential(0, 0) == Matrix.identity(Q, 1)


def test_matrix_and_tower_refusals_are_spectower_errors():
    # each refusal of matrix.py and spectral.py is a SpectowerError, with
    # the class the CLI maps to its exit code
    from spectower.errors import ParseError
    from spectower.matrix import quotient_basis

    one, two, q3 = Matrix.identity(Q, 1), Matrix.identity(Q, 2), Matrix.identity(Field(3), 2)
    col = Matrix.from_rows(Q, [[1], [2], [3]])
    refusals = [
        (ParseError, r"^entry \(2,0\) outside 2x2$", lambda: Matrix.from_entries(Q, 2, 2, [(2, 0, 1)])),
        (InvariantError, r"^hstack shape/field mismatch$", lambda: Matrix.hstack(Q, 2, [two, q3])),
        (InvariantError, r"^shape/field mismatch in \+$", lambda: two + one),
        (InvariantError, r"^shape/field mismatch in \+$", lambda: two - q3),
        (InvariantError, r"^cannot multiply 2x2 by 3x1$", lambda: two * col),
        (InvariantError, r"^cannot multiply 2x2 by 2x2$", lambda: two * q3),
        (InvariantError, r"^solve: shape/field mismatch$", lambda: two.solve(col)),
        (InvariantError, r"^quotient_basis: shape/field mismatch$", lambda: quotient_basis(two, q3)),
    ]
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    sfc = SplitFilteredComplex(cx, {"a": 0, "b": 1})
    refusals += [
        (PreconditionError, r"^page index must be >= 0$", lambda: sfc.page(-1)),
        (InvariantError, r"^class_of: 2 rows, expected dim C\^0$", lambda: sfc.page(1).class_of(0, 0, two)),
        (PreconditionError, r"^zig-zag lifting needs r >= 1$", lambda: zigzag_class_and_d(sfc, 0, 0, one)),
        (InvariantError, r"^alpha has shape \(2, 2\), expected a column over C\^0$",
         lambda: zigzag_class_and_d(sfc, 1, 0, two)),
    ]
    for error, text, refused in refusals:
        with pytest.raises(error, match=text):
            refused()


FIELDS4 = (Field(2), Field(3), Field(2 ** 61 - 1), Field())


def reordered(sfc, key):
    """sfc with the generators of each degree listed by key(generator id), d permuted to match."""
    cx = sfc.complex
    pos = {k: sorted(range(cx.dim(k)), key=lambda i: key(cx.basis.gens(k)[i])) for k in cx.degrees()}
    gens = [(cx.basis.gens(k)[i], k) for k in cx.degrees() for i in pos[k]]
    diff = {k: cx.d(k).take_columns(pos[k]).take_rows(pos.get(k + 1, [])) for k in cx.degrees()}
    return SplitFilteredComplex(CochainComplex(cx.field, GradedBasis(gens), diff), sfc.blocks)


def certification_documents(rng, field):
    """(name, tower) for the four layouts the certification passes must
    tell apart: one generator per block and degree listed in ascending
    block order (the deep chain's shape, where reversed document order is
    the rank profile's order), several per block ascending (the benchmark
    tower's shape), blocks descending, and blocks interleaved at random."""
    chain = sparse_pair_tower(rng, field, 24, degrees=2, nblocks=12)
    tower = sparse_pair_tower(rng, field, 60)
    shuffled = {g: rng.random() for g in tower.blocks}
    return [("one per block", chain), ("several per block", tower),
            ("blocks descending", reordered(tower, lambda g: -tower.blocks[g])),
            ("interleaved", reordered(tower, shuffled.__getitem__))]


def test_converge_takes_no_rank_of_d(monkeypatch):
    # h_dims reads its ranks off one echelon pass per d^k of the split copy,
    # never Matrix.rank of d in document order
    rng = random.Random(2526)
    towers = [t for field in FIELDS4 for _, t in certification_documents(rng, field)]
    towers += [conjugated(rng, to_filtered(random_split_complex(rng, field, max_gens=20, max_len=4)))
               for field in FIELDS4]
    ds = [t.complex.d(k) for t in towers for k in t.complex.degrees()]
    rank = Matrix.rank

    def refuse(self):
        assert not any(self is d for d in ds), "converge took Matrix.rank of d"
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", refuse)
    for t in towers:
        assert t.converge().certified


def _column_key(col):
    return col if type(col) is int else tuple(sorted(col.items()))


def test_h_dims_and_rank_profile_run_different_column_orders(monkeypatch):
    # certification compares F_0H from the rank profile with H from the
    # h_dims pass: on every d^k with two nonzero columns the two passes see
    # the columns in different orders, so they are two eliminations, not one
    # run twice.  Calls are told apart by caller and by the columns they see
    import sys

    from spectower import spectral

    seen, echelon = {}, spectral._echelon

    def record(f, nrows, cols):
        nz = [_column_key(c) for c in cols if c]
        seen.setdefault((sys._getframe(1).f_code.co_name, nrows, tuple(sorted(nz))), set()).add(tuple(nz))
        return echelon(f, nrows, cols)

    monkeypatch.setattr(spectral, "_echelon", record)
    rng, names = random.Random(2527), set()
    for field in FIELDS4:
        for name, sfc in certification_documents(rng, field):
            seen.clear()
            assert sfc.converge().certified
            for k in sfc.complex.degrees():
                d = sfc._split()[0].complex.d(k)
                nz = tuple(sorted(_column_key(c) for c in d.cols if c))
                if len(nz) >= 2:
                    ours, profile = seen[("converge", d.nrows, nz)], seen[("_h_filtration", d.nrows, nz)]
                    assert not ours & profile, (name, field, k)
                    names.add(name)
    assert len(names) == 4


def test_an_ascending_listing_moves_no_row(monkeypatch):
    # a degree listed block by block is its own index order, so building the
    # tower, converging it and reading every page's dims, representatives
    # and d_r take no row or column out of place: every take_rows and
    # take_columns is the matrix itself.  The towers: a sparse pair tower,
    # the assembled Klein bottle fibration and the split copy of a general
    # filtration, which lists block 0 first
    import os

    from spectower.documents import load_document

    data = os.path.join(os.path.dirname(__file__), "data")
    klein = load_document(os.path.join(data, "klein_twisted.json")).build_tower()
    interval = load_document(os.path.join(data, "interval_filtered.json")).build_tower()
    towers = [lambda field=field: sparse_pair_tower(random.Random(5), field, 200) for field in FIELDS4]
    towers += [lambda t=t: SplitFilteredComplex(t._split()[0].complex, t._split()[0].blocks) for t in (klein, interval)]
    towers += [lambda: interval]
    moved, take_rows, take_columns = [], Matrix.take_rows, Matrix.take_columns

    def counted(take):
        def wrapper(self, picks):
            out = take(self, picks)
            moved.extend([take.__name__] if out is not self else [])
            return out
        return wrapper

    monkeypatch.setattr(Matrix, "take_rows", counted(take_rows))
    monkeypatch.setattr(Matrix, "take_columns", counted(take_columns))
    for build in towers:
        tower = build()
        assert tower.converge().certified
        for r in range(tower.n + 2):
            page = tower.page(r)
            for p, q in page.cells():
                page.reps(p, q), page.differential(p, q)
    assert moved == []
    assert klein.n > 0 and interval.n > 0


@pytest.mark.parametrize("field", (F2, Field(3), Q), ids=str)
def test_a_tower_listed_out_of_block_order_reads_the_same(field):
    # a tower listed out of block order gets a sorted copy and a permutation
    # frame, and only such a tower.  The same tower with each degree's generators
    # shuffled, or listed block-descending, has the same pages, r_stop,
    # filtration on H, h_dims and certification; its representatives are
    # the textbook reduction's, class_of inverts them on every page, and the
    # identity on generator ids induces an isomorphism on every page
    from helpers import oracle_reduction_basis

    rng = random.Random(2530)
    for tower in (sparse_pair_tower(rng, field, 120), sparse_pair_tower(rng, field, 24, degrees=2, nblocks=12)):
        shuffled, want, cx = {g: rng.random() for g in tower.blocks}, tower.converge(), tower.complex
        for other in (reordered(tower, shuffled.__getitem__), reordered(tower, lambda g: -tower.blocks[g])):
            got, ox, w = other.converge(), other.complex, oracle_reduction_basis(other)
            assert other._split()[0] is not other and other._split()[1]
            assert (got.r_stop, got.h_filtration, got.h_dims, got.certified) == (
                want.r_stop, want.h_filtration, want.h_dims, True)
            for r in range(tower.n + 2):
                page = other.page(r)
                assert page.dims() == tower.page(r).dims()
                for p, q in page.cells():
                    assert page.class_of(p, q, page.reps(p, q)) == Matrix.identity(field, page.dim(p, q))
            for p, q in other.page(0).cells():
                cols = [w[(p + q, i)] for i, g in enumerate(ox.basis.gens(p + q)) if other.blocks[g] == p]
                assert other.page(0).reps(p, q).to_dense() == [list(row) for row in zip(*cols)]
            ident = {k: Matrix.from_entries(field, ox.dim(k), cx.dim(k), [(ox.basis.position(g)[1], j, 1)
                                                                          for j, g in enumerate(cx.basis.gens(k))])
                     for k in cx.degrees()}
            maps = map_of_spectral_sequences(FilteredChainMap(ChainMap(cx, ox, ident), tower, other))
            assert all(m.nrows == m.ncols == m.rank() for level in maps.values() for m in level.values())


def test_a_block_descending_f2_tower_builds_and_converges_within_budget():
    # 4000 generators over F_2, 800 per degree at about a fifth of d^k
    # nonzero, listed block-descending, so building it sorts each degree by
    # block and permutes the rows of every d^k one set bit at a time.  Build
    # and converge read 0.23 s (best of ten, shared 2-CPU Xeon, Python 3.11),
    # 0.11 s for the tower listed block-ascending, and 0.12 s when the rows
    # of each block moved in one shift of their run
    tower = sparse_pair_tower(random.Random(5), F2, 4000)
    assert best_converge_time(reordered(tower, lambda g: -tower.blocks[g])) < 0.35


def test_dense_q_tower_converges_in_one_run_order():
    # 800 generators over Q, listed block-ascending, so the reduction takes
    # d as it is listed; certification's H pass takes the blocks from the
    # highest down, each in document order.  In block-descending index
    # coordinates, with rows permuted into that order, it read 0.26-0.33 s
    # (best of three, shared 2-CPU Xeon, Python 3.11), and 0.13-0.16 s in
    # block-ascending ones
    assert best_converge_time(sparse_pair_tower(random.Random(5), Q, 800)) < 0.2


def test_h_dims_match_cohomology():
    # h_dims comes from the split copy's ranks; it must equal dim H^k of the
    # complex as given, on split towers and on conjugated general filtrations
    rng = random.Random(2528)
    for trial in range(12):
        field = FIELDS4[trial % 4]
        towers = [t for _, t in certification_documents(rng, field)]
        sfc = random_split_complex(rng, field, max_gens=24, max_len=5)
        towers += [sfc, conjugated(rng, to_filtered(sfc))]
        for t in towers:
            conv = t.converge()
            assert conv.certified
            assert conv.h_dims == t.complex.cohomology().dims()


def test_page_dims_build_no_matrix(monkeypatch):
    # converge() and page(r).dims() for every r read counts: the page path
    # builds no d_r matrix and multiplies none
    rng = random.Random(2020)
    towers = [random_split_complex(rng, FIELDS[i % 3], max_gens=24, max_len=5) for i in range(12)]
    calls, from_entries, mul = [], Matrix.from_entries.__func__, Matrix.__mul__
    monkeypatch.setattr(Matrix, "from_entries", classmethod(lambda cls, *a: calls.append("from_entries")
                                                            or from_entries(cls, *a)))
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: calls.append("mul") or mul(self, other))
    nonzero = 0
    for sfc in towers:
        conv = sfc.converge()
        assert conv.certified
        for r in range(0, conv.r_stop + 2):
            sfc.page(r).dims()
            nonzero += sfc.page(r).has_nonzero_differential()
    assert nonzero > 0
    assert calls == []


def test_split_filtration_check_at_block_gap_1e30_within_budget():
    # between split towers f(F_p) ⊆ F_p is read off the entries of f, so an
    # identity map of two generators at block gap 10^30 costs no walk over p,
    # and a target that lowers the top block is refused at the first p
    import time

    gap = 10 ** 30
    start = time.perf_counter()
    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    sfc = SplitFilteredComplex(cx, {"a": 0, "b": gap})
    FilteredChainMap(ChainMap.identity(cx), sfc, sfc)
    low = SplitFilteredComplex(cx, {"a": 0, "b": 0})
    with pytest.raises(PreconditionError, match=r"at \(p=1, k=1\)"):
        FilteredChainMap(ChainMap.identity(cx), sfc, low)
    assert time.perf_counter() - start < 1


def _filtration_check(fmap, src, tgt):
    """The PreconditionError message of FilteredChainMap(fmap, src, tgt), or None."""
    try:
        FilteredChainMap(fmap, src, tgt)
    except PreconditionError as e:
        return str(e)
    return None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_filtration_check_matches_the_span_walk(data):
    # random split pairs: a random tower into itself under a monotone
    # relabelling of its blocks (the identity map, and a scalar multiple),
    # or two zero-differential complexes with random blocks and a random map.
    # The block check on the split pair, on its to_filtered copies and, when
    # drawn, on both sides conjugated by random isomorphisms T_s and T_t with
    # the map T_t f T_s^-1 (dense, non-coordinate spans) accepts the same maps
    # as the span-walk oracle and refuses the rest with the same (p, k)
    from helpers import oracle_filtration_check, random_invertible

    field = data.draw(st.sampled_from([F2, Field(3), Field(2 ** 61 - 1), Q]), label="field")
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    if rng.random() < 0.5:
        src = random_split_complex(rng, field, max_gens=14, max_len=4)
        cx = src.complex
        steps = [rng.choice([0, 0, 1, 2]) for _ in range(src.n + 1)]
        relabel = [sum(steps[:b + 1]) for b in range(src.n + 1)]  # nondecreasing: d stays block-nondecreasing
        tgt = SplitFilteredComplex(cx, {g: relabel[b] for g, b in src.blocks.items()})
        c = random_scalar(rng, field, nonzero=True)
        fmap = ChainMap(cx, cx, {k: Matrix.identity(field, cx.dim(k)).scale(c) for k in cx.degrees()})
    else:
        def flat(prefix):
            gens = [("%s%d" % (prefix, i), rng.randint(0, 3)) for i in range(rng.randint(0, 8))]
            cx = CochainComplex(field, GradedBasis(gens), {})
            return SplitFilteredComplex(cx, {g: rng.randint(0, 4) for g, _ in gens})

        src, tgt = flat("s"), flat("t")
        fmap = ChainMap(src.complex, tgt.complex, {
            k: Matrix(field, tgt.complex.dim(k), src.complex.dim(k),
                      {(i, j): random_scalar(rng, field, nonzero=True)
                       for i in range(tgt.complex.dim(k)) for j in range(src.complex.dim(k)) if rng.random() < 0.3})
            for k in src.complex.degrees()})
    split = _filtration_check(fmap, src, tgt)
    assert split == oracle_filtration_check(fmap, src, tgt)
    assert split == _filtration_check(fmap, to_filtered(src), to_filtered(tgt))
    assert split is None or split.startswith("chain map does not preserve the filtration at (p=")
    if data.draw(st.booleans(), label="conjugate"):
        degrees = set(src.complex.degrees()) | set(tgt.complex.degrees())
        ts, tt = ({k: random_invertible(rng, field, x.complex.dim(k)) for k in degrees} for x in (src, tgt))
        csrc, ctgt = conjugated(rng, src, t=ts), conjugated(rng, tgt, t=tt)
        cmap = ChainMap(csrc.complex, ctgt.complex,
                        {k: tt[k] * fmap.block(k) * ts[k].inverse() for k in src.complex.degrees()})
        assert _filtration_check(cmap, csrc, ctgt) == oracle_filtration_check(cmap, csrc, ctgt) == split


def _filtration_refusal(build):
    """The InvariantError message of build(), or None."""
    try:
        build()
    except InvariantError as e:
        return str(e)
    return None


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_filtration_refusals_match_the_span_walks(data):
    # general filtrations with non-coordinate spans (a random tower,
    # conjugated), with one fault drawn: a span replaced by a random matrix,
    # two steps swapped, or a random vector added to a span.  FilteredComplex
    # refuses exactly the filtrations the span-walk oracle refuses, with the
    # same message at construction; an accepted one certifies
    from helpers import oracle_filtration_steps_check, random_matrix

    field = data.draw(st.sampled_from([F2, Field(3), Field(2 ** 61 - 1), Q]), label="field")
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    fc = conjugated(rng, random_split_complex(rng, field, max_gens=12, max_len=4))
    cx, steps = fc.complex, [dict(step) for step in fc.steps]
    fault = data.draw(st.sampled_from(["none", "replace", "swap", "extra"]), label="fault")
    p, k = rng.randrange(max(fc.n, 1)), rng.choice(cx.degrees())
    if fault == "replace" and steps:
        steps[p][k] = random_matrix(rng, field, cx.dim(k), rng.randint(1, cx.dim(k)))
    elif fault == "swap" and len(steps) > 1:
        i, j = rng.sample(range(len(steps)), 2)
        steps[i], steps[j] = steps[j], steps[i]
    elif fault == "extra" and steps:
        extra = random_matrix(rng, field, cx.dim(k), 1, density=0.6)
        steps[p][k] = Matrix.hstack(field, cx.dim(k), [fc.span(p + 1, k), extra])
    with unchecked(FilteredComplex, "_check"):
        want = oracle_filtration_steps_check(FilteredComplex(cx, steps))
    assert want is None or fault != "none"
    assert _filtration_refusal(lambda: FilteredComplex(cx, steps)) == want
    if want is None:
        assert FilteredComplex(cx, steps).converge().certified


def _map_or_refusal(build):
    """build(), or the message of the InvariantError it raises."""
    try:
        return build()
    except InvariantError as e:
        return str(e)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_map_of_spectral_sequences_matches_the_per_level_oracle(data):
    # random filtration-preserving maps, all four fields: truncation maps
    # between random action windows, and a random tower into itself under a
    # block relabelling that never lowers a block, by c·1 + d h + h d for a
    # random filtration-preserving h (a chain map), or by c·1 plus random
    # entries into blocks no lower (in general not a chain map).  Drawn, both
    # sides are conjugated into general filtrations with non-coordinate
    # spans.  The map equals the page-by-page oracle at every level, or both
    # refuse it with the same message
    from spectower.fibration import truncation_map

    from helpers import oracle_map_of_spectral_sequences, random_invertible, random_matrix

    field = data.draw(st.sampled_from(PAGE_CHECK_FIELDS), label="field")
    kind = data.draw(st.sampled_from(["truncation", "homotopy", "noise"]), label="kind")
    rng = random.Random(data.draw(st.integers(0, 10 ** 6), label="seed"))
    src = random_split_complex(rng, field, max_gens=14, max_len=4)
    cx = src.complex
    if kind == "truncation":
        action = {g: -10 * k + Fraction(rng.randint(0, 9), 10) for g, k in cx.basis.generators}
        values = sorted(set(action.values()))
        a, b = sorted(rng.sample(values, 2)) if len(values) > 1 else (None, None)
        a, b = rng.choice([a, None]), rng.choice([b, None])
        a2 = rng.choice([v for v in values if a is None or v >= a])
        b2 = None if b is None or rng.random() < 0.3 else rng.choice([v for v in values if v >= b])
        fmap = truncation_map(src, action, (a, b), (a2, b2))
    else:
        steps = [0] + [rng.choice([0, 0, 1]) for _ in range(src.n)]
        relabel = [b + sum(steps[:b + 1]) for b in range(src.n + 1)]  # never lowers a block
        tgt = SplitFilteredComplex(cx, {g: relabel[b] for g, b in src.blocks.items()})
        sb, tb = ({k: [x.blocks[g] for g in cx.basis.gens(k)] for k in cx.degrees()} for x in (src, tgt))

        def preserving(k, j, density):  # a random C^k -> C^j sending block b into blocks >= b
            m = random_matrix(rng, field, cx.dim(j), cx.dim(k), density)
            return Matrix(field, cx.dim(j), cx.dim(k), {(i, c): v for i, c, v in m.entries() if tb[j][i] >= sb[k][c]})

        c = random_scalar(rng, field, nonzero=True)
        one = {k: Matrix.identity(field, cx.dim(k)).scale(c) for k in cx.degrees()}
        if kind == "homotopy":
            h = {k: preserving(k, k - 1, 0.3) for k in range(cx.degrees()[0], cx.degrees()[-1] + 2)}
            blocks = {k: one[k] + cx.d(k - 1) * h[k] + h[k + 1] * cx.d(k) for k in cx.degrees()}
        else:
            blocks = {k: one[k] + preserving(k, k, 0.2) for k in cx.degrees()}
        with unchecked(ChainMap, "check_commutes") if kind == "noise" else nullcontext():
            fmap = FilteredChainMap(ChainMap(cx, cx, blocks), src, tgt)
    if data.draw(st.booleans(), label="conjugate"):
        s, t = fmap.source, fmap.target
        degrees = set(s.complex.degrees()) | set(t.complex.degrees())
        ts, tt = ({k: random_invertible(rng, field, x.complex.dim(k)) for k in degrees} for x in (s, t))
        csrc, ctgt = conjugated(rng, s, t=ts), conjugated(rng, t, t=tt)
        with unchecked(ChainMap, "check_commutes") if kind == "noise" else nullcontext():
            fmap = FilteredChainMap(ChainMap(csrc.complex, ctgt.complex, {
                k: tt[k] * fmap.chain_map.block(k) * ts[k].inverse() for k in s.complex.degrees()}), csrc, ctgt)
    got = _map_or_refusal(lambda: map_of_spectral_sequences(fmap))
    assert got == _map_or_refusal(lambda: oracle_map_of_spectral_sequences(fmap))
    assert isinstance(got, dict) or (kind == "noise" and got.startswith("induced "))
