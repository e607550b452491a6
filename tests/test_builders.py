"""The block builders against string-triple oracles.

tensor_product, morse_complex, cellular_complex and assemble_fibration
place matrix blocks at offsets of the product basis x|g.  Each oracle in
helpers builds the same complex the old way, one (src_id, dst_id, scalar)
entry at a time through from_generator_entries, and the two must agree
in basis and in every d^k, structurally.  The inputs include fibers with
a degree gap, negative degrees and dimension 0: the offsets a block
placement can get wrong.
"""

import os
import random

from spectower.complexes import CochainComplex, GradedBasis, tensor_product
from spectower.documents import load_document
from spectower.fibration import FibrationData, assemble_fibration
from spectower.field import Field
from spectower.localsystems import BaseGraph, LocalSystem, parse_word
from spectower.morse import CellularData, cellular_complex, morse_complex

from helpers import (
    oracle_cellular_complex,
    oracle_morse_complex,
    oracle_tensor_product,
    oracle_total_differential,
    random_invertible,
    random_multistep_fibration,
    random_split_complex,
    random_wide_scalar,
    same_differentials,
    sphere_base,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
FIELDS = (Field(2), Field(3), Field(2 ** 61 - 1), Field())


def _empty(field):
    return CochainComplex.from_generator_entries(field, [], [])


def _gapped(cx, s=-2):
    """cx moved s degrees, plus one isolated generator two degrees above its
    top: negative degrees and a degree gap."""
    moved = cx.shifted(s)
    gens = list(moved.basis.generators) + [("gap", max(moved.degrees()) + 2)]
    return CochainComplex(cx.field, GradedBasis(gens), {k: moved.d(k) for k in moved.degrees()})


def _fibers(fd):
    """fd, fd over a gapped fiber with negative degrees, and fd over an empty fiber."""
    moved = {e: {k - 2: m for k, m in blocks.items()} for e, blocks in fd.edge_action.items()}
    return [fd, FibrationData(fd.base, _gapped(fd.fiber), moved), FibrationData(fd.base, _empty(fd.fiber.field))]


def test_tensor_product_matches_string_triples():
    rng = random.Random(61)
    for trial in range(24):
        field = FIELDS[trial % 4]
        a, b = (random_split_complex(rng, field, max_gens=8, max_degree=3, scalar=random_wide_scalar).complex
                for _ in range(2))
        for x, y in [(a, b), (_gapped(a), b), (a, _gapped(b, s=-1)), (_empty(field), b), (a, _empty(field))]:
            same_differentials(tensor_product(x, y), oracle_tensor_product(x, y))


def test_fibration_with_actions_matches_string_triples():
    rng = random.Random(62)
    for trial in range(12):
        field = FIELDS[trial % 4]
        for fd in _fibers(random_multistep_fibration(rng, field)):
            same_differentials(assemble_fibration(fd).complex, oracle_total_differential(fd))


def test_fibration_corrections_match_string_triples():
    # the sphere base has no d_1, so with a zero fiber differential any
    # corrections from b0 to b2 square to zero; fiber degrees -1, 0, 2, 3
    # have a gap, and one repeated entry accumulates (cancels over F_2)
    rng = random.Random(63)
    for trial in range(16):
        field = FIELDS[trial % 4]
        gens = [("f%d" % i, k) for i, k in enumerate([-1, 0, 0, 2, 3, 3])]
        fiber = CochainComplex.from_generator_entries(field, gens, [])
        corr = [("b0", sf, "b2", df, random_wide_scalar(rng, field, nonzero=True))
                for sf, ks in gens for df, kd in gens if kd == ks - 1 and rng.random() < 0.7]
        fd = FibrationData(sphere_base(), fiber, {}, corr + corr[:1])
        same_differentials(assemble_fibration(fd).complex, oracle_total_differential(fd))


def test_hopf_document_matches_string_triples():
    for field in FIELDS:
        fd = load_document(os.path.join(DATA, "hopf.json"), field).payload
        assert fd.corrections
        same_differentials(assemble_fibration(fd).complex, oracle_total_differential(fd))


def test_morse_complex_matches_string_triples():
    rng = random.Random(64)
    for trial in range(12):
        field = FIELDS[trial % 4]
        base = random_multistep_fibration(rng, field).base
        for dim in (0, 1, 3):
            ls = LocalSystem(base.graph, field, dim, {e: random_invertible(rng, field, dim) for e in base.graph.edges})
            same_differentials(morse_complex(base, ls), oracle_morse_complex(base, ls))


# vertices x, y; a: x -> y, loops l at x and m at y; no relations, so any transports are consistent
WORDS = {
    ("x", "x"): [[], ["l"], ["~l"], ["l", "l"]],
    ("x", "y"): [["a"], ["l", "a"], ["a", "m"]],
    ("y", "y"): [[], ["m"], ["~a", "l", "a"]],
    ("y", "x"): [["~a"], ["m", "~a"]],
}


def _random_cells(rng, graph):
    """0- and 1-cells on x and y with random incidences and exceptional
    incidences (so d^2 = 0 trivially), the 1-cells listed before some 0-cells."""
    cells = [("e%d" % i, 1, rng.choice("xy"), rng.choice([1, -1])) for i in range(rng.randint(1, 3))]
    cells += [("v%d" % i, 0, rng.choice("xy"), rng.choice([1, -1])) for i in range(rng.randint(1, 3))]
    rng.shuffle(cells)
    anchor = {c: a for c, _, a, _ in cells}
    inc, exc = [], []
    for v in (c for c, d, _, _ in cells if d == 0):
        for e in (c for c, d, _, _ in cells if d == 1):
            words = WORDS[(anchor[v], anchor[e])]
            if rng.random() < 0.6:
                inc.append((v, e, rng.randint(-2, 2), parse_word(rng.choice(words))))
            if rng.random() < 0.4:
                exc.append((v, e, parse_word(rng.choice(words)), parse_word(rng.choice(words))))
    return CellularData(cells, inc, exc, graph=graph)


def test_twisted_cellular_complex_matches_string_triples():
    rng = random.Random(65)
    graph = BaseGraph(["x", "y"], [("a", "x", "y"), ("l", "x", "x"), ("m", "y", "y")])
    exceptional = 0
    for trial in range(24):
        field = FIELDS[trial % 4]
        cd = _random_cells(rng, graph)
        exceptional += len(cd.exceptional)
        for dim in (0, 1, 2):
            ls = LocalSystem(graph, field, dim, {e: random_invertible(rng, field, dim) for e in graph.edges})
            same_differentials(cellular_complex(cd, ls), oracle_cellular_complex(cd, ls))
        same_differentials(cellular_complex(cd, field=field), oracle_cellular_complex(cd, field=field))
    assert exceptional


def test_klein_cellular_document_matches_string_triples():
    for field in FIELDS:
        cd = load_document(os.path.join(DATA, "klein_cellular.json"), field).payload
        same_differentials(cellular_complex(cd, field=field), oracle_cellular_complex(cd, field=field))
