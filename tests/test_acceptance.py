"""Acceptance suite: one test per criterion, each printing a PASS line with
its instance count and elapsed time, and failing hard on any violation of
the stated exact equalities or time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import contextlib
import io
import os
import random
import time
from fractions import Fraction

import pytest

from spectower import localsystems
from spectower.complexes import CochainComplex, GradedBasis
from spectower.field import Field
from spectower.localsystems import (
    BaseGraph,
    LocalSubsystem,
    LocalSystem,
    check_homotopy_invariance,
    extend_subsystem,
    parse_word,
)
from spectower.matrix import Matrix
from spectower.morse import morse_complex
from spectower.fibration import (
    FibrationData,
    assemble_fibration,
    e2_table,
    leray_serre_compare,
    truncation_map,
)
from spectower.spectral import SplitFilteredComplex, map_of_spectral_sequences, zigzag_class_and_d

from helpers import (
    _random_unitriangular,
    random_invertible,
    random_acyclic_fibration,
    random_product_fibration,
    random_split_complex,
    random_twisted_fibration,
    to_filtered,
    unchecked,
)

FIELDS = (Field(2), Field(3), Field())


def report(num, text, count, elapsed, budget):
    line = "ACCEPTANCE %2d: PASS  %-58s (%3d instances, %5.1fs / %ds)" % (
        num, text, count, elapsed, budget
    )
    print("\n" + line)
    assert elapsed < budget, "criterion %d exceeded its %ds budget: %.1fs" % (num, budget, elapsed)


# -- 1: spectral-sequence soundness -------------------------------------------------


def _check_instance(sfc, rng):
    conv = sfc.converge()
    assert conv.certified
    # d_r o d_r = 0 and E_{r+1} = H(E_r, d_r), page by page
    for r in range(0, sfc.n + 2):
        page = sfc.page(r)
        nxt = sfc.page(r + 1) if r <= sfc.n else None
        for (p, q) in page.cells():
            out = page.differential(p, q)
            assert (page.differential(p + r, q - r + 1) * out).is_zero()
        if nxt is not None:
            for (p, q) in set(page.cells()) | set(nxt.cells()):
                expect = (
                    page.dim(p, q)
                    - page.differential(p, q).rank()
                    - page.differential(p - r, q + r - 1).rank()
                )
                assert nxt.dim(p, q) == expect
    # zig-zag vs subquotient on sampled single-block elements
    cx = sfc.complex
    filt = to_filtered(sfc)
    degrees = [k for k in cx.degrees() if cx.dim(k)]
    for _ in range(2):
        k = rng.choice(degrees)
        gens = cx.basis.gens(k)
        i = rng.randrange(len(gens))
        p = sfc.blocks[gens[i]]
        alpha = Matrix.from_entries(cx.field, cx.dim(k), 1, [(i, 0, 1)])
        for r in range(1, sfc.n + 2):
            zz = zigzag_class_and_d(sfc, r, k, alpha)
            t = filt.span(p + 1, k)
            v = filt.span(p + r, k + 1)
            sys_m = Matrix.hstack(cx.field, cx.dim(k + 1), [cx.d(k) * t, -v])
            assert (zz is not None) == (sys_m.solve(-(cx.d(k) * alpha)) is not None)
            if zz is None:
                continue
            page = filt.page(r)
            tp, tq = p + r, k - p - r + 1
            sub_cls = page.class_of(tp, tq, cx.d(k) * zz.chain)
            assert sub_cls is not None
            if zz.image.is_zero():
                assert sub_cls.is_zero()
            else:
                wz = zigzag_class_and_d(sfc, r, k + 1, zz.image)
                assert wz is not None
                assert page.class_of(tp, tq, wz.chain) == sub_cls
    # convergence totals
    assert conv.einf_total_dims() == cx.cohomology().dims()


def test_acceptance_1_soundness_suite():
    t0 = time.monotonic()
    rng = random.Random(20260811)
    n = 500
    for i in range(n):
        field = FIELDS[i % 3]
        sfc = random_split_complex(rng, field, max_gens=30, max_len=5)
        _check_instance(sfc, rng)
    report(1, "soundness: d_r^2=0, E_{r+1}=H(E_r), zigzag, convergence", n,
           time.monotonic() - t0, 60)


# -- 2: Kunneth degeneration ---------------------------------------------------------


def test_acceptance_2_product_degeneration():
    t0 = time.monotonic()
    rng = random.Random(2)
    n = 50
    for i in range(n):
        field = FIELDS[i % 3]
        fd = random_product_fibration(rng, field)
        sfc = assemble_fibration(fd)
        for r in range(2, sfc.n + 2):
            assert not sfc.page(r).has_nonzero_differential()
        base_cx = morse_complex(fd.base, LocalSystem.trivial(fd.base.graph, field, 1))
        want = {}
        for p, dp in base_cx.cohomology().dims().items():
            for q, dq in fd.fiber.cohomology().dims().items():
                want[(p, q)] = dp * dq
        assert sfc.page(2).dims() == {k: v for k, v in want.items() if v}
        assert sfc.converge().certified
    report(2, "products: E_2 = H(base) (x) H(fiber), d_r = 0 for r >= 2", n,
           time.monotonic() - t0, 30)


# -- 3: acyclic fiber ------------------------------------------------------------------


def test_acceptance_3_acyclic_fiber_vanishing():
    t0 = time.monotonic()
    rng = random.Random(3)
    n = 20
    for i in range(n):
        field = FIELDS[i % 3]
        fd = random_acyclic_fibration(rng, field)
        sfc = assemble_fibration(fd)
        assert sfc.complex.cohomology().dims() == {}
        for r in range(2, sfc.n + 2):
            assert sfc.page(r).dims() == {}
        assert e2_table(fd).entries == {}
        assert sfc.converge().certified
    report(3, "acyclic fiber: all pages r >= 2 and total cohomology vanish", n,
           time.monotonic() - t0, 10)


# -- 4: E_2 identification ----------------------------------------------------------


def test_acceptance_4_e2_identification():
    t0 = time.monotonic()
    rng = random.Random(4)
    n = 50
    for i in range(n):
        field = FIELDS[i % 3]
        fd = random_twisted_fibration(rng, field)
        table = e2_table(fd)  # raises on any internal disagreement
        assert table.entries == assemble_fibration(fd).page(2).dims()
        # the monodromy is honestly nontrivial: some edge acts != identity on H
        nontrivial = False
        for q, sysq in table.systems.items():
            ident = Matrix.identity(field, sysq.fiber_dim)
            if any(m != ident for m in sysq.transport_maps.values()):
                nontrivial = True
        assert nontrivial
    report(4, "twisted E_2 equals H^p(base; H^q(fiber)) entry-for-entry", n,
           time.monotonic() - t0, 30)


# -- 5: Leray-Serre golden models ---------------------------------------------------


def test_acceptance_5_torus_and_klein_towers():
    t0 = time.monotonic()
    from spectower.morse import CellularData, MorseData

    def circle_base():
        g = BaseGraph(["m", "M"], [("a", "M", "m"), ("b", "M", "m")])
        return MorseData(
            g,
            [("m", 0), ("M", 1)],
            [("ta", "M", "m", 1, parse_word(["a"])), ("tb", "M", "m", -1, parse_word(["b"]))],
        )

    def cells(twisted):
        return CellularData(
            cells=[("v", 0, None, 1), ("b", 1, None, 1), ("a", 1, None, 1), ("F", 2, None, 1)],
            incidences=[("b", "F", 2 if twisted else 0, ()), ("a", "F", 0, ())],
            graph=None,
            filtration={"v": 0, "b": 0, "a": 1, "F": 1},
        )

    checks = 0
    for field in (Field(), Field(2)):
        fiber = CochainComplex.from_generator_entries(field, [("u", 0), ("w", 1)], [])
        torus = FibrationData(circle_base(), fiber, {})
        cmp_t = leray_serre_compare(cells(False), torus)
        assert cmp_t.equal and cmp_t.r1_equal
        klein = FibrationData(
            circle_base(), fiber, {"b": {1: Matrix.from_rows(field, [[field.normalize(-1)]])}}
        )
        cmp_k = leray_serre_compare(cells(True), klein)
        assert cmp_k.equal and cmp_k.r1_equal
        checks += 2
    klein_q = FibrationData(
        circle_base(),
        CochainComplex.from_generator_entries(Field(), [("u", 0), ("w", 1)], []),
        {"b": {1: Matrix.from_rows(Field(), [[-1]])}},
    )
    assert assemble_fibration(klein_q).converge().einf_total_dims() == {0: 1, 1: 1}
    klein_2 = FibrationData(
        circle_base(),
        CochainComplex.from_generator_entries(Field(2), [("u", 0), ("w", 1)], []),
        {"b": {1: Matrix.from_rows(Field(2), [[1]])}},
    )
    assert assemble_fibration(klein_2).converge().einf_total_dims() == {0: 1, 1: 2, 2: 1}
    report(5, "torus and Klein towers equal the cellular towers; Klein totals", checks,
           time.monotonic() - t0, 5)


# -- 6: Hopf ------------------------------------------------------------------------


def test_acceptance_6_hopf_d2():
    t0 = time.monotonic()
    g = BaseGraph(["b0", "b2"], [("c", "b2", "b0")])
    from spectower.morse import MorseData

    md = MorseData(g, [("b0", 0), ("b2", 2)], [("tc", "b2", "b0", 1, parse_word(["c"]))])
    fiber = CochainComplex.from_generator_entries(Field(), [("u", 0), ("w", 1)], [])
    fd = FibrationData(md, fiber, {}, corrections=[("b0", "w", "b2", "u", 1)])
    sfc = assemble_fibration(fd)
    assert sfc.page(2).differential(0, 1).rank() == 1
    conv = sfc.converge()
    assert sfc.page(3).dims() == conv.einf
    assert conv.einf_total_dims() == {0: 1, 3: 1}
    assert conv.certified
    report(6, "Hopf model: rank(d_2) = 1, E_3 = E_inf, totals (1,0,0,1)", 1,
           time.monotonic() - t0, 1)


# -- 7: local systems ------------------------------------------------------------------


def test_acceptance_7_local_system_suite():
    t0 = time.monotonic()
    rng = random.Random(7)
    F3 = Field(3)
    wedge = BaseGraph(["v"], [("a", "v", "v"), ("b", "v", "v")])
    torus = BaseGraph(["v"], [("a", "v", "v"), ("b", "v", "v")], [["a", "b", "~a", "~b"]])
    checks = 0

    # homotopy invariance
    for g in (wedge, torus):
        assert check_homotopy_invariance(LocalSystem.trivial(g, F3, 2)) is None
        checks += 1
    m = random_invertible(rng, F3, 2)
    ls = LocalSystem(torus, F3, 2, {"a": m, "b": m * m})
    assert check_homotopy_invariance(ls) is None
    with unchecked(localsystems, "check_homotopy_invariance"):
        bad = LocalSystem(
            torus, F3, 2,
            {"a": Matrix.from_rows(F3, [[1, 1], [0, 1]]), "b": Matrix.from_rows(F3, [[1, 0], [1, 1]])},
        )
    assert check_homotopy_invariance(bad) == parse_word(["a", "b", "~a", "~b"])
    checks += 2

    # groupoid composition on random words
    steps = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for _ in range(40):
        v = tuple(rng.choice(steps) for _ in range(rng.randint(0, 5)))
        w = tuple(rng.choice(steps) for _ in range(rng.randint(0, 5)))
        assert ls.transport_along(v + w, "v") == ls.transport_along(w, "v") * ls.transport_along(v, "v")
        checks += 1

    # base-point conjugacy on a two-vertex graph
    g2 = BaseGraph(["x", "y"], [("e", "x", "y"), ("f", "x", "y")])
    t_e = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    t_f = Matrix.from_rows(F3, [[2, 0], [1, 2]])
    ls2 = LocalSystem(g2, F3, 2, {"e": t_e, "f": t_f})
    mx = ls2.transport_along(parse_word(["e", "~f"]), "x")
    my = ls2.transport_along(parse_word(["~f", "e"]), "y")
    conn = ls2.transport_along(parse_word(["e"]), "x")
    assert my == conn * mx * conn.inverse()
    checks += 1

    # unique extension: wedge (free) and torus (one relation)
    sub_w = LocalSubsystem(
        F3, 2, ["v"],
        [("la", parse_word(["a"]), m), ("lb", parse_word(["b"]), m * m)],
    )
    rep_w = extend_subsystem(sub_w, wedge)
    assert rep_w.surjective is True
    assert rep_w.extension.transport_maps["a"] == m
    rep_t = extend_subsystem(sub_w, torus)
    assert rep_t.surjective is True
    assert check_homotopy_invariance(rep_t.extension) is None
    sub_sq = LocalSubsystem(
        Field(), 1, ["v"],
        [("sq", parse_word(["e", "e"]), Matrix.from_rows(Field(), [[4]]))],
    )
    rep_sq = extend_subsystem(sub_sq, BaseGraph(["v"], [("e", "v", "v")]))
    assert rep_sq.surjective is False and rep_sq.extension is None
    checks += 3
    report(7, "local systems: invariance, groupoid law, conjugacy, extension", checks,
           time.monotonic() - t0, 5)


# -- 8: truncation functoriality -----------------------------------------------------


def test_acceptance_8_truncation_functoriality():
    t0 = time.monotonic()
    rng = random.Random(8)
    n = 20
    for i in range(n):
        field = FIELDS[i % 3]
        sfc = random_split_complex(rng, field, max_gens=18, max_len=4)
        action = {}
        for g, k in sfc.complex.basis.generators:
            action[g] = -10 * k + Fraction(rng.randint(0, 9), 10)
        degs = sorted(sfc.complex.degrees())
        cut = -10 * degs[rng.randrange(len(degs))]
        fmap = truncation_map(sfc, action, (None, None), (cut, None))
        maps = map_of_spectral_sequences(fmap)  # raises unless all squares commute
        # re-verify one page level explicitly
        r = rng.randint(1, max(1, fmap.source.n))
        ps, pt = fmap.source.page(r), fmap.target.page(r)
        for (p, q), mmat in maps[r].items():
            lhs = pt.differential(p, q) * mmat
            tcell = maps[r].get((p + r, q - r + 1))
            if tcell is None:
                assert lhs.is_zero() or pt.dim(p + r, q - r + 1) == 0
            else:
                assert lhs == tcell * ps.differential(p, q)
    report(8, "filtration-preserving quotients commute with every d_r", n,
           time.monotonic() - t0, 10)


# -- 9: performance floor ---------------------------------------------------------------


def test_acceptance_9_performance_floor():
    rng = random.Random(9)
    F2 = Field(2)
    n_gens, n_degrees, n_blocks = 2000, 20, 5
    raw = []
    for i in range(n_gens):
        raw.append(("g%d" % i, i % n_degrees, (i // n_degrees) % n_blocks))
    raw.sort(key=lambda t: (t[1], t[2], int(t[0][1:])))
    gens = [(g, k) for g, k, _ in raw]
    blocks = {g: p for g, k, p in raw}
    basis = GradedBasis(gens)
    by_slot = {}
    for g, k, p in raw:
        by_slot.setdefault(k, []).append(g)
    used = set()
    entries = {}
    for g, k, p in raw:
        if g in used or rng.random() > 0.7:
            continue
        pool = [h for h in by_slot.get(k + 1, []) if h not in used and blocks[h] >= p]
        if not pool:
            continue
        h = rng.choice(pool)
        used.add(g)
        used.add(h)
        entries.setdefault(k, []).append((basis.position(h)[1], basis.position(g)[1], 1))
    diff = {
        k: Matrix.from_entries(F2, basis.dim(k + 1), basis.dim(k), tr)
        for k, tr in entries.items()
    }
    conj = {
        k: _random_unitriangular(rng, F2, basis.dim(k), density=0.05).transpose()
        for k in basis.degrees()
    }
    twisted = {}
    for k, m in diff.items():
        t_next = conj.get(k + 1, Matrix.identity(F2, basis.dim(k + 1)))
        twisted[k] = t_next * m * conj[k].inverse()
    sfc = SplitFilteredComplex(CochainComplex(F2, basis, twisted), blocks)
    assert sfc.n == 4 and len(sfc.complex.basis) == 2000

    t0 = time.monotonic()
    conv = sfc.converge()
    elapsed = time.monotonic() - t0
    assert conv.certified
    report(9, "full tower: 2000 generators over F_2, filtration length 4", 1, elapsed, 10)


def test_acceptance_9_deep_chain_cost():
    # the chain a_i -> b_(i+1), a_i and b_i in block i: n+2 pages over
    # 2n+2 generators, so a cost of pages times generators shows at once
    F2 = Field(2)
    n = 2000
    gens = [("a%d" % i, 0) for i in range(n + 1)] + [("b%d" % i, 1) for i in range(n + 1)]
    basis = GradedBasis(gens)
    d = {0: Matrix.from_entries(F2, n + 1, n + 1, [(i + 1, i, 1) for i in range(n)])}
    sfc = SplitFilteredComplex(CochainComplex(F2, basis, d), {g: int(g[1:]) for g, _ in gens})

    t0 = time.monotonic()
    conv = sfc.converge()
    elapsed = time.monotonic() - t0
    assert conv.certified
    assert conv.r_stop == 2
    # E_inf is a_n and b_0, nothing else
    assert conv.einf == {(n, -n): 1, (0, 1): 1}
    einf = sfc.page(n + 1)
    assert einf.reps(n, -n) == Matrix.from_entries(F2, n + 1, 1, [(n, 0, 1)])
    assert einf.reps(0, 1) == Matrix.from_entries(F2, n + 1, 1, [(0, 0, 1)])
    report(9, "deep chain: n = 2000 over F_2, unconjugated", 1, elapsed, 5)


# -- 10: CLI contract ----------------------------------------------------------------


def test_acceptance_10_cli_contract():
    t0 = time.monotonic()
    from spectower.cli import main
    from spectower.documents import load_document, parse_text, print_document

    data_dir = os.path.join(os.path.dirname(__file__), "data")
    docs = sorted(f for f in os.listdir(data_dir) if f.endswith(".json") and not f.startswith("bad"))
    count = 0
    for name in docs:
        doc = load_document(os.path.join(data_dir, name))
        text = print_document(doc)
        assert print_document(parse_text(text)) == text
        count += 1

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue()

    golden_dir = os.path.join(data_dir, "golden")
    for gold in sorted(os.listdir(golden_dir)):
        name = gold[:-4]
        argv_map = {
            "homology_circle": ["homology", "circle.json"],
            "homology_interval": ["homology", "interval.json"],
            "homology_klein_cellular_f2": ["homology", "klein_cellular.json", "--field", "F2"],
            "pages_hopf_all": ["pages", "hopf.json", "--all"],
            "pages_hopf_all_raw": ["pages", "hopf.json", "--all", "--raw"],
            "pages_torus_p2": ["pages", "torus_product.json", "--page", "2"],
            "pages_klein_f2_all": ["pages", "klein_twisted.json", "--all", "--field", "F2"],
            "pages_interval_filtered_all": ["pages", "interval_filtered.json", "--all"],
            "e2_klein": ["e2", "klein_twisted.json"],
            "oracle_torus": ["oracle-check", "torus_product.json"],
            "oracle_interval_filtered": ["oracle-check", "interval_filtered.json"],
            "oracle_hopf": ["oracle-check", "hopf.json"],
            "oracle_gap_huge": ["oracle-check", "gap_huge.json"],
            "extend_wedge": ["extend", "wedge2_subsystem.json", "wedge2_graph.json"],
            "extend_squares": ["extend", "circle_squares_subsystem.json", "circle_graph.json"],
            "compare_klein": ["compare-ls", "klein_cellular.json", "klein_twisted.json"],
            "compare_torus": ["compare-ls", "torus_cellular.json", "torus_product.json"],
            "kunneth_torus": ["kunneth", "circle.json", "circle.json"],
        }
        argv = argv_map[name]
        argv = [argv[0]] + [
            os.path.join(data_dir, a) if a.endswith(".json") else a for a in argv[1:]
        ]
        with open(os.path.join(golden_dir, gold)) as fh:
            want = fh.read()
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == code2 == 0
        assert out1 == out2 == want
        count += 1

    assert run(["homology", os.path.join(data_dir, "bad_parse.json")])[0] == 2
    assert run(["homology", os.path.join(data_dir, "bad_d2.json")])[0] == 3
    assert run(["extend", os.path.join(data_dir, "disconnected_subsystem.json"),
                os.path.join(data_dir, "disconnected_graph.json")])[0] == 4
    count += 3
    report(10, "CLI: golden round-trips, byte determinism, exit codes", count,
           time.monotonic() - t0, 30)
