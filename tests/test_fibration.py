import random
import re
from fractions import Fraction

import pytest

from spectower.cli import main
from spectower.complexes import CochainComplex, tensor_product
from spectower.documents import Document, print_document
from spectower.errors import InvariantError, ParseError, PreconditionError
from spectower.field import Field
from spectower.localsystems import BaseGraph, LocalSubsystem, LocalSystem, parse_word
from spectower.matrix import Matrix
from spectower.morse import CellularData, MorseData, morse_complex
from spectower.fibration import (
    FibrationData,
    action_window,
    assemble_fibration,
    chain_transport,
    cohomology_local_system,
    e2_table,
    leray_serre_compare,
    truncation_map,
)
from spectower.spectral import FilteredComplex, SplitFilteredComplex, map_of_spectral_sequences

from helpers import (
    oracle_morse_complex,
    oracle_total_differential,
    random_invertible,
    random_multistep_fibration,
    random_product_fibration,
    random_split_complex,
    random_twisted_fibration,
    random_two_level_base,
    same_differentials,
    sphere_base,
    transport_compose_check,
)

Q = Field()
F2 = Field(2)
FIELDS = (Field(2), Field(3), Field())


def circle_base():
    g = BaseGraph(["m", "M"], [("a", "M", "m"), ("b", "M", "m")])
    return MorseData(
        g,
        [("m", 0), ("M", 1)],
        [("ta", "M", "m", 1, parse_word(["a"])), ("tb", "M", "m", -1, parse_word(["b"]))],
    )


def circle_fiber(field=Q):
    return CochainComplex.from_generator_entries(field, [("u", 0), ("w", 1)], [])


def klein_fibration(field=Q):
    act = {"b": {1: Matrix.from_rows(field, [[field.normalize(-1)]])}}
    return FibrationData(circle_base(), circle_fiber(field), act)


def hopf_fibration():
    return FibrationData(sphere_base(), circle_fiber(), {}, corrections=[("b0", "w", "b2", "u", 1)])


# -- assembly ------------------------------------------------------------------


def test_point_fiber_reproduces_base_complex():
    md = circle_base()
    point = CochainComplex.from_generator_entries(Q, [("pt", 0)], [])
    sfc = assemble_fibration(FibrationData(md, point, {}))
    from spectower.localsystems import LocalSystem

    base_cx = morse_complex(md, LocalSystem.trivial(md.graph, Q, 1))
    assert sfc.complex.cohomology().dims() == base_cx.cohomology().dims()
    for k in (0,):
        assert sfc.complex.d(k).entries() == base_cx.d(k).entries()


def test_product_tensor_identification():
    # trivial monodromy, no corrections: the tower degenerates at E_2 and
    # E_2 is H(base) (x) H(fiber)
    fd = FibrationData(circle_base(), circle_fiber(), {})
    sfc = assemble_fibration(fd)
    conv = sfc.converge()
    assert conv.certified
    assert conv.einf_total_dims() == {0: 1, 1: 2, 2: 1}
    for r in range(2, sfc.n + 2):
        assert not sfc.page(r).has_nonzero_differential()
    assert sfc.page(2).dims() == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_product_with_nonzero_fiber_differential():
    interval = CochainComplex.from_generator_entries(
        Q, [("v0", 0), ("v1", 0), ("e", 1)], [("v0", "e", -1), ("v1", "e", 1)]
    )
    fd = FibrationData(circle_base(), interval, {})
    sfc = assemble_fibration(fd)
    circle_cx = CochainComplex.from_generator_entries(Q, [("m", 0), ("M", 1)], [])
    oracle = tensor_product(circle_cx, interval).cohomology().dims()
    assert sfc.complex.cohomology().dims() == oracle
    assert sfc.converge().einf_total_dims() == oracle


def test_hopf_fibration_data():
    sfc = assemble_fibration(hopf_fibration())
    conv = sfc.converge()
    assert conv.einf_total_dims() == {0: 1, 3: 1}
    assert sfc.page(2).differential(0, 1).rank() == 1
    assert sfc.page(3).dims() == conv.einf


def test_inconsistent_trajectories_report_lowest_bidegree():
    # one broken pair z -> y -> x with no cancelling partner: the assembled
    # differential cannot square to zero, reported at the source bidegree
    g = BaseGraph(["x", "y", "z"], [("u", "x", "y"), ("v", "y", "z")])
    md = MorseData(
        g,
        [("x", 2), ("y", 1), ("z", 0)],
        [("tu", "x", "y", 1, parse_word(["u"])), ("tv", "y", "z", 1, parse_word(["v"]))],
    )
    point = CochainComplex.from_generator_entries(Q, [("pt", 0)], [])
    with pytest.raises(InvariantError) as err:
        assemble_fibration(FibrationData(md, point, {}))
    assert "(p=0, q=0)" in str(err.value)


def test_correction_constraints_validated():
    with pytest.raises(ParseError, match=r"^correction \(b0,u\) -> \(b2,u\) changes total degree by 2, not \+1$"):
        FibrationData(sphere_base(), circle_fiber(), {}, corrections=[("b0", "u", "b2", "u", 1)])


def test_edge_action_must_be_chain_map():
    fiber = CochainComplex.from_generator_entries(Q, [("u", 0), ("w", 1)], [("u", "w", 1)])
    bad = {"a": {0: Matrix.from_rows(Q, [[2]])}}  # degree 1 block defaults to 1: not a chain map
    with pytest.raises(InvariantError):
        FibrationData(circle_base(), fiber, bad)


def test_edge_action_blocks_must_be_square_on_the_fiber():
    with pytest.raises(ParseError, match=r"^edge 'b' action in degree 1 has shape \(2, 2\), expected \(1, 1\)$"):
        FibrationData(circle_base(), circle_fiber(), {"b": {1: Matrix.identity(Q, 2)}})


# -- e2 ------------------------------------------------------------------------


def test_e2_acyclic_fiber_zero_table():
    fiber = CochainComplex.from_generator_entries(Q, [("x", 0), ("y", 1)], [("x", "y", 1)])
    fd = FibrationData(circle_base(), fiber, {})
    t = e2_table(fd)
    assert t.entries == {}
    sfc = assemble_fibration(fd)
    assert sfc.complex.cohomology().dims() == {}
    for r in range(2, sfc.n + 2):
        assert sfc.page(r).dims() == {}


def test_e2_product_torus():
    t = e2_table(FibrationData(circle_base(), circle_fiber(), {}))
    assert t.entries == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_e2_klein_column():
    t = e2_table(klein_fibration())
    assert t.entries == {(0, 0): 1, (1, 0): 1}
    # q = 0 column is the trivial system: H^*(circle) = (1, 1); q = 1 dies
    assert 1 not in {q for _, q in t.entries}


def test_e2_swap_monodromy_over_f2():
    # rank-2 fiber in degree 0 whose generators are swapped around the loop:
    # twisted column (1, 1) over F_2
    g = circle_base()
    fiber = CochainComplex.from_generator_entries(F2, [("x", 0), ("y", 0)], [])
    swap = Matrix.from_entries(F2, 2, 2, [(0, 1, 1), (1, 0, 1)])
    fd = FibrationData(g, fiber, {"b": {0: swap}})
    t = e2_table(fd)
    assert t.entries == {(0, 0): 1, (1, 0): 1}


def test_e2_shifted_display(tmp_path, capsys):
    # the table holds raw (p, q); `e2` shifts it by its document's shifts
    fd = FibrationData(circle_base(), circle_fiber(), {}, shift_n=-1, shift_k=2)
    path = tmp_path / "shifted.json"
    path.write_text(print_document(Document("fibration_data", Q, fd)))
    assert main(["e2", str(path), "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "2\t-1\t2\t1\n2\t-1\t3\t1\n2\t0\t2\t1\n2\t0\t3\t1\n"


def test_e2_table_reads_dims_from_ranks(monkeypatch):
    # only the fiber builds a cohomology basis, whose representatives carry
    # the local systems; each H^p(base; H^q(fiber)) is dim - rank - rank of
    # its Morse complex, equal to that complex's cohomology().dims()
    from spectower.fibration import cohomology_local_system

    rng = random.Random(2121)
    cases = [klein_fibration()] + [random_twisted_fibration(rng, FIELDS[i % 3]) for i in range(6)]
    wants = [{(p, q): d for q in fd.fiber.cohomology().degrees()
              for p, d in morse_complex(fd.base, cohomology_local_system(fd, q)).cohomology().dims().items()}
             for fd in cases]
    cohomology = CochainComplex.cohomology
    for fd, want in zip(cases, wants):
        def fiber_only(self, fiber=fd.fiber):
            assert self is fiber, "e2_table built a cohomology basis off the fiber"
            return cohomology(self)

        monkeypatch.setattr(CochainComplex, "cohomology", fiber_only)
        assert e2_table(fd).entries == want


def test_e2_table_refuses_a_table_that_disagrees_with_page_2(monkeypatch):
    # the table is cross-checked against page 2 of the assembled tower: with
    # the fiber's local systems untwisted, the Klein bottle's q = 1 column,
    # which the -1 monodromy kills over Q, survives in the table alone
    from spectower import fibration

    def untwisted(fd, q):
        return LocalSystem.trivial(fd.base.graph, fd.fiber.field, fd.fiber.cohomology().dim(q))

    monkeypatch.setattr(fibration, "cohomology_local_system", untwisted)
    with pytest.raises(InvariantError, match="^" + re.escape(
            "E_2 table {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1} disagrees with page 2 dimensions "
            "{(0, 0): 1, (1, 0): 1}: engine bug") + "$"):
        e2_table(klein_fibration())


def test_an_edge_action_that_does_not_act_on_cohomology_is_refused(monkeypatch):
    # each acting edge's image of the H^q representatives must have
    # coordinates in H^q: where the solve finds none, the first acting edge
    # is named.  Only b acts on the Klein bottle's fiber, in degree 1
    from spectower.complexes import CohomologyResult

    fd = klein_fibration()
    monkeypatch.setattr(CohomologyResult, "coordinates", lambda self, k, vecs: None)
    assert cohomology_local_system(fd, 0) is not None  # no edge acts on H^0
    with pytest.raises(InvariantError, match=r"^edge 'b' action does not act on H\^1$"):
        cohomology_local_system(fd, 1)


def test_grading_shift_covariance():
    # shifting all fiber degrees by s shifts every q by s and nothing else
    rng = random.Random(17)
    for field in FIELDS:
        fd = random_twisted_fibration(rng, field)
        t0 = e2_table(fd)
        s = rng.choice([-2, 1, 3])
        shifted = FibrationData(fd.base, fd.fiber.shifted(s),
                                {e: {k + s: m for k, m in blocks.items()}
                                 for e, blocks in fd.edge_action.items()})
        t1 = e2_table(shifted)
        assert t1.entries == {(p, q + s): d for (p, q), d in t0.entries.items()}


# -- Leray-Serre comparison -------------------------------------------------------


def torus_cells():
    return CellularData(
        cells=[("v", 0, None, 1), ("b", 1, None, 1), ("a", 1, None, 1), ("F", 2, None, 1)],
        incidences=[("b", "F", 0, ()), ("a", "F", 0, ())],
        graph=None,
        filtration={"v": 0, "b": 0, "a": 1, "F": 1},
    )


def klein_cells():
    return CellularData(
        cells=[("v", 0, None, 1), ("b", 1, None, 1), ("a", 1, None, 1), ("F", 2, None, 1)],
        incidences=[("b", "F", 2, ()), ("a", "F", 0, ())],
        graph=None,
        filtration={"v": 0, "b": 0, "a": 1, "F": 1},
    )


def test_torus_towers_agree():
    cmp = leray_serre_compare(torus_cells(), FibrationData(circle_base(), circle_fiber(), {}))
    assert cmp.equal and cmp.r1_equal
    assert cmp.h_dims == {0: 1, 1: 2, 2: 1}


def test_klein_towers_agree_over_q_and_f2():
    cmp_q = leray_serre_compare(klein_cells(), klein_fibration())
    assert cmp_q.equal and cmp_q.r1_equal
    assert cmp_q.h_dims == {0: 1, 1: 1}
    cmp_2 = leray_serre_compare(klein_cells(), klein_fibration(F2))
    assert cmp_2.equal
    assert cmp_2.h_dims == {0: 1, 1: 2, 2: 1}


def test_mismatched_models_refused():
    with pytest.raises(PreconditionError) as err:
        leray_serre_compare(torus_cells(), klein_fibration())
    assert "total cohomology disagrees" in str(err.value)


def test_leray_serre_compare_builds_no_cohomology(monkeypatch):
    # the two total cohomologies are the certified h_dims of the converged
    # towers, read from ranks: no cohomology basis is built, and a pair
    # whose cohomologies disagree is still refused naming both
    def refuse(self):
        raise AssertionError("leray_serre_compare built a cohomology basis")

    monkeypatch.setattr(CochainComplex, "cohomology", refuse)
    assert leray_serre_compare(torus_cells(), FibrationData(circle_base(), circle_fiber(), {})).h_dims \
        == {0: 1, 1: 2, 2: 1}
    assert leray_serre_compare(klein_cells(), klein_fibration()).h_dims == {0: 1, 1: 1}
    with pytest.raises(PreconditionError, match=re.escape(
            "total cohomology disagrees: cellular {0: 1, 1: 2, 2: 1} vs fibration {0: 1, 1: 1}")):
        leray_serre_compare(torus_cells(), klein_fibration())


def test_unlabeled_cellular_data_refused():
    cd = CellularData(
        cells=[("v", 0, None, 1)], incidences=[], graph=None, filtration=None
    )
    with pytest.raises(PreconditionError):
        leray_serre_compare(cd, klein_fibration())


# -- transport composition ---------------------------------------------------------


def compose_fixture(action_u):
    g = BaseGraph(
        ["x", "y", "z"],
        [("u", "x", "y"), ("v", "y", "z"), ("w", "x", "z")],
        [["u", "v", "~w"]],
    )
    md = MorseData(
        g,
        [("x", 2), ("y", 1), ("z", 0)],
        [
            ("tu", "x", "y", 1, parse_word(["u"])),
            ("tv", "y", "z", 1, parse_word(["v"])),
            ("tg", "x", "z", 1, parse_word(["w"])),
        ],
    )
    fiber = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1)], [("a", "b", 1)])
    return FibrationData(md, fiber, action_u)


def test_a_word_that_does_not_compose_is_refused_by_word_endpoints():
    # transport_along and chain_transport check a word through
    # BaseGraph.word_endpoints, whose message names the step and the vertex
    # it should start from; an empty word with no start is the identity
    fd = compose_fixture({})
    ls = LocalSystem.trivial(fd.base.graph, Q, 2)
    vu = parse_word(["v", "u"])
    for call in (lambda: ls.transport_along(vu), lambda: chain_transport(fd, vu)):
        with pytest.raises(PreconditionError, match="^word is not composable: step u starts at 'x', expected 'z'$"):
            call()
    with pytest.raises(PreconditionError, match="^word is not composable: step u starts at 'x', expected 'y'$"):
        ls.transport_along(parse_word(["u"]), "y")
    assert ls.transport_along(()) == ls.transport_along(parse_word([])) == Matrix.identity(Q, 2)
    assert chain_transport(fd, ()) == {k: Matrix.identity(Q, fd.fiber.dim(k)) for k in fd.fiber.degrees()}


def test_compose_all_identity():
    fd = compose_fixture({})
    rep = transport_compose_check(fd, "tu", "tv", "tg")
    assert rep.cohomology_equal and rep.chain_equal


def test_compose_literal_concatenation():
    g = BaseGraph(["x", "y", "z"], [("u", "x", "y"), ("v", "y", "z")])
    md = MorseData(
        g,
        [("x", 2), ("y", 1), ("z", 0)],
        [
            ("tu", "x", "y", 1, parse_word(["u"])),
            ("tv", "y", "z", 1, parse_word(["v"])),
            ("tg", "x", "z", 1, parse_word(["u", "v"])),
        ],
    )
    fiber = CochainComplex.from_generator_entries(Q, [("a", 0)], [])
    fd = FibrationData(md, fiber, {"u": {0: Matrix.from_rows(Q, [[2]])}})
    rep = transport_compose_check(fd, "tu", "tv", "tg")
    assert rep.cohomology_equal and rep.chain_equal


def test_compose_chain_homotopic_but_unequal():
    # T_u = I + dh + hd is chain homotopic to the identity but differs from
    # it, while T_gamma = I: equal on cohomology, flagged at chain level
    fd = compose_fixture({"u": {0: Matrix.from_rows(Q, [[2]]), 1: Matrix.from_rows(Q, [[2]])}})
    rep = transport_compose_check(fd, "tu", "tv", "tg")
    assert rep.cohomology_equal
    assert not rep.chain_equal
    assert rep.chain_diff_degrees == (0, 1)
    assert bool(rep)


def test_compose_undeclared_homotopy_rejected():
    g = BaseGraph(["x", "y", "z"], [("u", "x", "y"), ("v", "y", "z"), ("w", "x", "z")])
    md = MorseData(
        g,
        [("x", 2), ("y", 1), ("z", 0)],
        [
            ("tu", "x", "y", 1, parse_word(["u"])),
            ("tv", "y", "z", 1, parse_word(["v"])),
            ("tg", "x", "z", 1, parse_word(["w"])),
        ],
    )
    fiber = CochainComplex.from_generator_entries(Q, [("a", 0)], [])
    fd = FibrationData(md, fiber, {})
    with pytest.raises(PreconditionError):
        transport_compose_check(fd, "tu", "tv", "tg")


def test_compose_non_composable_paths():
    fd = compose_fixture({})
    with pytest.raises(PreconditionError):
        transport_compose_check(fd, "tv", "tu", "tg")


# -- action windows ------------------------------------------------------------


def test_action_window_requires_decreasing():
    rng = random.Random(2)
    sfc = random_split_complex(rng, Q, max_gens=10, max_len=3)
    flat = {g: 0 for g, _ in sfc.complex.basis.generators}
    if any(not sfc.complex.d(k).is_zero() for k in sfc.complex.degrees()):
        with pytest.raises(InvariantError):
            action_window(sfc, flat, None, None)


def test_action_window_and_truncation_maps():
    rng = random.Random(15)
    for field in FIELDS:
        for _ in range(4):
            sfc = random_split_complex(rng, field, max_gens=16, max_len=4)
            action = {}
            for g, k in sfc.complex.basis.generators:
                action[g] = -10 * k + Fraction(rng.randint(0, 9), 10)
            full = action_window(sfc, action, None, None)
            assert full.complex.cohomology().dims() == sfc.complex.cohomology().dims()
            degs = sorted(sfc.complex.degrees())
            cut = -10 * degs[len(degs) // 2]
            fmap = truncation_map(sfc, action, (None, None), (cut, None))
            maps = map_of_spectral_sequences(fmap)  # squares verified inside
            assert 1 in maps


def test_full_window_is_the_tower_itself():
    # a window that keeps every generator, whatever its bounds, is the tower
    # object itself, with its reduction; the map of spectral sequences out of
    # it equals, level by level, the one out of an explicitly rebuilt copy.
    # A window that drops one generator, at the bottom or the top, is a new
    # and smaller tower
    from spectower.complexes import ChainMap, GradedBasis
    from spectower.spectral import FilteredChainMap

    rng = random.Random(1515)
    for trial in range(6):
        field = FIELDS[trial % 3]
        if trial % 2:
            sfc = assemble_fibration(random_twisted_fibration(rng, field))
        else:
            sfc = random_split_complex(rng, field, max_gens=16, max_len=4)
        cx = sfc.complex
        gens = cx.basis.generators
        action = {g: -10 * k + Fraction(n, 10 * len(gens)) for n, (g, k) in enumerate(gens)}
        values = sorted(action.values())
        assert action_window(sfc, action, values[0], values[-1]) is sfc
        assert action_window(sfc, action, None, None) is sfc
        for a, b in ((values[1], None), (None, values[-2])):
            win = action_window(sfc, action, a, b)
            assert win is not sfc and len(win.complex.basis.generators) == len(gens) - 1
        degs = cx.degrees()
        cut = -10 * degs[len(degs) // 2]
        fmap = truncation_map(sfc, action, (None, None), (cut, None))
        assert fmap.source is sfc
        copy = SplitFilteredComplex(CochainComplex(field, GradedBasis(list(gens)), {k: cx.d(k) for k in degs}),
                                    dict(sfc.blocks))
        rebuilt = FilteredChainMap(ChainMap(copy.complex, fmap.target.complex,
                                            {k: fmap.chain_map.block(k) for k in degs}), copy, fmap.target)
        maps, want = map_of_spectral_sequences(fmap), map_of_spectral_sequences(rebuilt)
        assert sorted(maps) == sorted(want)
        for r in want:
            assert maps[r] == want[r]


def test_truncation_window_direction_enforced():
    rng = random.Random(19)
    sfc = random_split_complex(rng, Q, max_gens=10, max_len=2)
    action = {g: -k for g, k in sfc.complex.basis.generators}
    with pytest.raises(PreconditionError):
        truncation_map(sfc, action, (0, None), (-1, None))
    with pytest.raises(PreconditionError):
        truncation_map(sfc, action, (None, 5), (None, 4))


def test_truncation_map_checks_the_action_once(monkeypatch):
    # both windows are built from one normalized action, checked once per
    # call; a non-decreasing action is refused with the action_window message
    import spectower.fibration as fibration

    cx = CochainComplex.from_generator_entries(Q, [("a", 0), ("b", 1), ("c", 1)], [("a", "b", 1)])
    sfc = SplitFilteredComplex(cx, {"a": 0, "b": 1, "c": 0})
    calls = []
    check = fibration._check_action_decreasing
    monkeypatch.setattr(fibration, "_check_action_decreasing", lambda *args: calls.append(1) or check(*args))
    fmap = truncation_map(sfc, {"a": 0, "b": -1, "c": -2}, (None, None), (Fraction(-3, 2), None))
    assert len(calls) == 1
    assert fmap.target.complex.basis.generators == (("a", 0), ("b", 1))
    with pytest.raises(InvariantError, match="differential entry 'a' -> 'b' does not strictly decrease"):
        truncation_map(sfc, {"a": 0, "b": 0, "c": 0}, (None, None), (None, None))
    assert len(calls) == 2


# -- random fibration sweeps ------------------------------------------------------


def test_random_product_fibrations_degenerate():
    rng = random.Random(31)
    for field in FIELDS:
        for _ in range(4):
            fd = random_product_fibration(rng, field)
            sfc = assemble_fibration(fd)
            for r in range(2, sfc.n + 2):
                assert not sfc.page(r).has_nonzero_differential()
            base_h = morse_base_cohomology(fd)
            fib_h = fd.fiber.cohomology().dims()
            want = {}
            for p, dp in base_h.items():
                for q, dq in fib_h.items():
                    want[(p, q)] = dp * dq
            assert sfc.page(2).dims() == {k: v for k, v in want.items() if v}


def morse_base_cohomology(fd):
    from spectower.localsystems import LocalSystem

    cx = morse_complex(fd.base, LocalSystem.trivial(fd.base.graph, fd.fiber.field, 1))
    return cx.cohomology().dims()


def test_random_twisted_fibrations_e2():
    rng = random.Random(33)
    for field in FIELDS:
        for _ in range(4):
            fd = random_twisted_fibration(rng, field)
            t = e2_table(fd)  # raises on any disagreement with page 2
            assert t.entries == assemble_fibration(fd).page(2).dims()


def test_multistep_words_match_inverted_composite_oracle():
    # words of 2-3 steps with both signs: a wrong product order or a wrong
    # inverse shows up entry for entry in d_1 of the total complex and of E_2
    rng = random.Random(41)
    fields = (Field(2), Field(3), Field(2 ** 61 - 1), Field())
    for trial in range(20):
        field = fields[trial % 4]
        fd = random_multistep_fibration(rng, field)
        assert any(len(t.word) > 1 for t in fd.base.differential_trajectories())
        same_differentials(assemble_fibration(fd).complex, oracle_total_differential(fd))
        fib_h = fd.fiber.cohomology()
        for q, sysq in e2_table(fd).systems.items():
            reps = fib_h.representatives(q)
            for eid in fd.base.graph.edges:
                # the one solve over every edge equals the per-edge solves
                assert sysq.transport_maps[eid] == fib_h.coordinates(q, chain_transport(fd, ((eid, 1),))[q] * reps)
            same_differentials(morse_complex(fd.base, sysq), oracle_morse_complex(fd.base, sysq))


def oracle_local_system(fd, q):
    """The H^q local system, H^q nonzero, with the image of every edge
    solved, an edge with no degree-q action block included."""
    fib_h = fd.fiber.cohomology()
    reps = fib_h.representatives(q)
    maps = {eid: fib_h.coordinates(q, chain_transport(fd, ((eid, 1),))[q] * reps) for eid in fd.base.graph.edges}
    return LocalSystem(fd.base.graph, fd.fiber.field, fib_h.dim(q), maps)


def degreewise_fibration(rng, field):
    """A fiber with zero differential in degrees 0..2 over a two-level base;
    some edges act in degree 1 only, so no edge acts in degrees 0 and 2."""
    gens = [("u%d_%d" % (k, i), k) for k in range(3) for i in range(rng.randint(1, 2))]
    fiber = CochainComplex.from_generator_entries(field, gens, [])
    base = random_two_level_base(rng)
    actions = {eid: {1: random_invertible(rng, field, fiber.dim(1))} for eid in base.graph.edges if rng.random() < 0.5}
    return FibrationData(base, fiber, actions)


def test_edges_that_do_not_act_get_the_identity_transport():
    # cohomology_local_system solves only the edges with a degree-q action
    # block; every other edge transports H^q by the identity.  The oracle
    # solves every edge: transports and the E_2 table must agree, with an
    # edge that declares the identity and degrees where no edge acts
    rng, seen = random.Random(2529), {"identity declared": 0, "no edge acts": 0}
    for trial in range(18):
        field = FIELDS[trial % 3]
        fd = (random_twisted_fibration, random_multistep_fibration, degreewise_fibration)[trial // 3 % 3](rng, field)
        idle = [eid for eid in fd.base.graph.edges if eid not in fd.edge_action]
        if idle and trial % 2:
            ident = {k: Matrix.identity(field, fd.fiber.dim(k)) for k in fd.fiber.degrees()}
            fd = FibrationData(fd.base, fd.fiber, {**fd.edge_action, rng.choice(idle): ident})
            seen["identity declared"] += 1
        want = {}
        for q in fd.fiber.cohomology().degrees():
            ours, oracle = cohomology_local_system(fd, q), oracle_local_system(fd, q)
            assert ours.transport_maps == oracle.transport_maps
            seen["no edge acts"] += not any(q in blocks for blocks in fd.edge_action.values())
            want.update({(p, q): d for p, d in morse_complex(fd.base, oracle).cohomology().dims().items()})
        assert e2_table(fd).entries == want
    assert all(seen.values()), seen


def test_singular_declared_action_refused():
    fiber = CochainComplex.from_generator_entries(Q, [("u", 0), ("v", 0)], [])
    singular = {"a": {0: Matrix.from_rows(Q, [[1, 2], [2, 4]])}}
    with pytest.raises(InvariantError, match="edge 'a' action in degree 0 is not invertible"):
        FibrationData(circle_base(), fiber, singular)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_action_that_does_not_commute_with_d_is_refused(field):
    # the interval fiber has d^0 = [-1 1]; v0 -> v0 + v1 in degree 0 alone
    # gives d^0 A_0 = [0 1], which differs from A_1 d^0 = d^0 over every field
    interval = CochainComplex.from_generator_entries(
        field, [("v0", 0), ("v1", 0), ("e", 1)], [("v0", "e", -1), ("v1", "e", 1)])
    mix = Matrix.from_rows(field, [[1, 0], [1, 1]])
    msg = r"^edge 'b' action does not commute with the fiber differential in degree 0$"
    with pytest.raises(InvariantError, match=msg):
        FibrationData(circle_base(), interval, {"b": {0: mix}})
    if field.p != 2:  # a block in degree 1 alone is checked against d^0 too
        with pytest.raises(InvariantError, match=msg):
            FibrationData(circle_base(), interval, {"b": {1: Matrix.from_rows(field, [[-1]])}})
    swap = Matrix.from_rows(field, [[0, 1], [1, 0]])
    fd = FibrationData(circle_base(), interval, {"b": {0: swap, 1: Matrix.from_rows(field, [[-1]])}})
    assert chain_transport(fd, (("b", -1),))[0] == swap


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_identities_are_built_once_per_fiber_degree(monkeypatch, field):
    # FibrationData builds one identity per fiber degree, shared by its
    # undeclared actions, inversions and transports; e2_table one per H^q
    # system for its transports and one in that system for its solves
    built, identity = [], Matrix.identity.__func__
    monkeypatch.setattr(Matrix, "identity", classmethod(lambda cls, f, n: built.append(n) or identity(cls, f, n)))
    rng = random.Random(2606)
    for make in (random_twisted_fibration, random_multistep_fibration, degreewise_fibration):
        fd = make(rng, field)
        built.clear()
        fd = FibrationData(fd.base, fd.fiber, fd.edge_action)
        assemble_fibration(fd)
        assert len(built) <= len(fd.fiber.degrees())
        built.clear()
        e2 = e2_table(fd)
        assert len(built) <= 2 * len(e2.systems)
        assert e2.entries == assemble_fibration(fd).page(2).dims()


def test_float_actions_and_bounds_refused():
    sfc = random_split_complex(random.Random(5), Q, max_gens=8, max_len=2)
    action = {g: Fraction(-10 * k) for g, k in sfc.complex.basis.generators}
    g0 = sfc.complex.basis.generators[0][0]
    with pytest.raises(ParseError, match="action of generator %r is the float 0.1" % g0):
        action_window(sfc, {**action, g0: 0.1})
    with pytest.raises(ParseError, match="^generator %r has no action value$" % g0):
        action_window(sfc, {**action, g0: None})
    with pytest.raises(ParseError, match="window bound 'b' is the float 0.5"):
        action_window(sfc, action, None, 0.5)
    with pytest.raises(ParseError, match="window bound 'a2' is the float -2.5"):
        truncation_map(sfc, action, (None, None), (-2.5, None))


def test_window_keys_keep_what_fraction_compares_keep():
    # actions compare as integer keys over one common denominator, with the
    # window [a, b] keeping the keys from ceil(a L) to floor(b L); on random
    # actions with mixed denominators (ints and Fractions), and bounds on a
    # key, between keys, off every key by a sliver, negative, int, Fraction
    # and None, each window keeps exactly the generators a Fraction
    # comparison keeps, in basis order; so does the target of a truncation map
    rng = random.Random(2702)
    for trial in range(24):
        field = (F2, Field(3), Field(2 ** 61 - 1), Q)[trial % 4]
        sfc = random_split_complex(rng, field, max_gens=14, max_len=3)
        gens = sfc.complex.basis.generators
        action = {}
        for g, k in gens:  # |offset| <= 4, so the action drops by at least 2 along d
            q = rng.choice([1, 2, 3, 6, 7, 10, 97, 2 ** 61 - 1])
            off = Fraction(rng.randint(-4 * q, 4 * q), q)
            action[g] = -10 * k + (int(off) if rng.random() < 0.3 else off)
        values = sorted(set(action.values()))
        bounds = [None, -1000, 1000, Fraction(-7, 3)] + values
        bounds += [Fraction(x + y) / 2 for x, y in zip(values, values[1:])]
        bounds += [x + s * Fraction(1, 10 ** 30) for x in values for s in (-1, 1)]
        for _ in range(40):
            a, b = rng.choice(bounds), rng.choice(bounds)
            want = tuple((g, k) for g, k in gens
                         if (a is None or a <= action[g]) and (b is None or action[g] <= b))
            win = action_window(sfc, action, a, b)
            assert win.complex.basis.generators == want
            assert (win is sfc) == (len(want) == len(gens))
        a = rng.choice(bounds[1:])
        fmap = truncation_map(sfc, action, (None, None), (a, None))
        assert fmap.target.complex.basis.generators == tuple((g, k) for g, k in gens if a <= action[g])


@pytest.mark.parametrize("bad", (0.9, 1.0, True, "1", Fraction(1, 2), Fraction(1)), ids=repr)
def test_library_constructors_refuse_non_integers(bad):
    # a display shift, a degree or a fiber dimension must be an int: anything
    # else is refused naming it, with the exception class the constructor
    # raises for its other bad inputs, and never truncated by int()
    base, fiber, one = circle_base(), circle_fiber(), Matrix.identity(Q, 1)
    want = " is not an integer: %s$" % re.escape(repr(bad))
    with pytest.raises(ParseError, match="^shift_n" + want):
        FibrationData(base, fiber, {}, shift_n=bad)
    with pytest.raises(ParseError, match="^shift_k" + want):
        FibrationData(base, fiber, {}, shift_k=bad)
    with pytest.raises(ParseError, match="^edge 'a' action degree" + want):
        FibrationData(base, fiber, {"a": {bad: one}})
    with pytest.raises(ParseError, match="^display_shift" + want):
        CochainComplex.from_generator_entries(Q, [("u", 0)], [], display_shift=bad)
    with pytest.raises(ParseError, match="^local system fiber_dim" + want):
        LocalSystem(base.graph, Q, bad, {"a": one, "b": one})
    with pytest.raises(ParseError, match="^local subsystem fiber_dim" + want):
        LocalSubsystem(Q, bad, ["m"], [])
    for span in (one, Matrix.zero(Q, 1, 0)):
        with pytest.raises(InvariantError, match="^filtration span degree" + want):
            FilteredComplex(fiber, [{bad: span}])
    fd = FibrationData(base, fiber, {"a": {1: -one}}, shift_n=-1, shift_k=2)
    assert (fd.shift_n, fd.shift_k, fd.edge_action["a"][1]) == (-1, 2, -one)
