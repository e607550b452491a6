import json
import os

import pytest

from spectower.documents import document_to_json, load_document, parse_text, print_document
from spectower.errors import ParseError, PreconditionError
from spectower.field import Field

DATA = os.path.join(os.path.dirname(__file__), "data")

ALL_DOCS = [
    "circle.json",
    "interval.json",
    "interval_filtered.json",
    "hopf.json",
    "torus_product.json",
    "klein_twisted.json",
    "klein_cellular.json",
    "torus_cellular.json",
    "wedge2_graph.json",
    "wedge2_subsystem.json",
    "circle_graph.json",
    "circle_squares_subsystem.json",
    "disconnected_graph.json",
    "disconnected_subsystem.json",
    "gap_huge.json",
    "twisted_circle_morse.json",
]


@pytest.mark.parametrize("name", ALL_DOCS)
def test_round_trip(name):
    doc = load_document(os.path.join(DATA, name))
    text = print_document(doc)
    doc2 = parse_text(text)
    assert print_document(doc2) == text
    assert document_to_json(doc2) == document_to_json(doc)


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_text('{"kind": "cochain_complex",\n  "field": Q}')
    assert "line 2" in str(err.value)


def test_unknown_kind():
    with pytest.raises(ParseError):
        parse_text('{"kind": "simplicial_set", "field": "Q"}')


def test_missing_field_tag():
    with pytest.raises(ParseError):
        parse_text('{"kind": "cochain_complex", "generators": []}')


def test_field_override_reinterprets_scalars():
    doc = load_document(os.path.join(DATA, "interval.json"), field_override="F2")
    assert doc.field == Field(2)
    cx = doc.build_complex()
    # -1 = 1 over F_2; the interval keeps its cohomology
    assert cx.cohomology().dims() == {0: 1}


def test_fraction_scalars_round_trip():
    text = print_document(load_document(os.path.join(DATA, "wedge2_subsystem.json")))
    obj = json.loads(text)
    assert obj["paths"][1]["transport"] == [[0, 0, "-1/3"]]


def test_build_complex_wrong_kind():
    doc = load_document(os.path.join(DATA, "wedge2_graph.json"))
    with pytest.raises(PreconditionError):
        doc.build_complex()
    with pytest.raises(PreconditionError):
        doc.build_tower()


def test_filtered_document_builds_tower():
    doc = load_document(os.path.join(DATA, "interval_filtered.json"))
    tower = doc.build_tower()
    assert tower.converge().einf_total_dims() == {0: 1}


def test_fibration_document_shifts():
    doc = load_document(os.path.join(DATA, "hopf.json"))
    assert (doc.shift_n, doc.shift_k) == (0, 0)
    obj = json.loads(print_document(doc))
    obj.update(shift_n=3, shift_k=-1)
    doc2 = parse_text(json.dumps(obj))
    assert (doc2.shift_n, doc2.shift_k) == (3, -1)
    assert json.loads(print_document(doc2))["shift_n"] == 3


def test_duplicate_generator_rejected():
    with pytest.raises(ParseError):
        parse_text(
            '{"kind": "cochain_complex", "field": "Q",'
            ' "generators": [["x", 0], ["x", 1]], "differential": []}'
        )


def test_unresolved_reference_rejected():
    with pytest.raises(ParseError):
        parse_text(
            '{"kind": "cochain_complex", "field": "Q",'
            ' "generators": [["x", 0]], "differential": [["x", "ghost", 1]]}'
        )


def test_split_document_round_trip_blocks():
    text = (
        '{"kind": "split_filtered_complex", "field": "F3",'
        ' "generators": [["a", 0, 0], ["b", 1, 2]], "differential": [["a", "b", 2]]}'
    )
    doc = parse_text(text)
    assert doc.payload.blocks == {"a": 0, "b": 2}
    out = json.loads(print_document(doc))
    assert out["generators"] == [["a", 0, 0], ["b", 1, 2]]
    assert out["differential"] == [["a", "b", 2]]


def test_local_system_document():
    text = (
        '{"kind": "local_system", "field": "Q", "fiber_dim": 1,'
        ' "graph": {"vertices": ["v"], "edges": [["e", "v", "v"]], "relations": []},'
        ' "transport": {"e": [[0, 0, "-1"]]}}'
    )
    doc = parse_text(text)
    rt = parse_text(print_document(doc))
    assert print_document(rt) == print_document(doc)


def _load(name):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


_DELETE = object()


def _edited(name, path, value):
    """The document `name` with the node at `path` set to value, or deleted."""
    doc = _load(name)
    *outer, last = path
    body = doc
    for key in outer:
        body = body[key]
    if value is _DELETE:
        del body[last]
    else:
        body[last] = value
    return doc


MORSE_WITH_SYSTEM = {
    "kind": "morse_data",
    "field": "Q",
    "graph": {"vertices": ["m", "M"], "edges": [["a", "M", "m"]], "relations": []},
    "points": [["m", 0], ["M", 1]],
    "trajectories": [["ta", "M", "m", 1, ["a"]]],
    "local_system": {"fiber_dim": 2, "transport": {"a": [[0, 1, 1], [1, 0, "-1/2"]]}},
}

LOCAL_SYSTEM = {
    "kind": "local_system",
    "field": "F5",
    "graph": {"vertices": ["x", "y"], "edges": [["a", "x", "y"], ["b", "y", "x"]], "relations": [["a", "b"]]},
    "fiber_dim": 2,
    "transport": {"a": [[0, 0, 2], [1, 1, 3]], "b": [[0, 0, 3], [1, 1, 2]]},
}

CELLULAR_WITH_EVERYTHING = {
    "kind": "cellular_data",
    "field": "Q",
    "graph": {"vertices": ["x"], "edges": [["l", "x", "x"]], "relations": []},
    "cells": [["v", 0, "x", 1], ["e", 1, "x", -1]],
    "incidences": [],
    "exceptional": [["v", "e", ["l"], ["~l", "l", "l"]]],
    "filtration": {"e": 1, "v": 0},
    "local_system": {"fiber_dim": 1, "transport": {"l": [[0, 0, "-2/3"]]}},
}


def _shifted_hopf():
    doc = _load("hopf.json")
    doc.update(shift_n=2, shift_k=-1)
    doc["fiber"]["display_shift"] = 1
    doc["edge_action"] = {"c": [["u", "u", -1], ["w", "w", 1]]}
    return doc


INLINE_DOCS = {
    "morse_with_system": MORSE_WITH_SYSTEM,
    "local_system": LOCAL_SYSTEM,
    "cellular_with_everything": CELLULAR_WITH_EVERYTHING,
    "fibration_shifted": _shifted_hopf(),
    "cochain_display_shift": _edited("circle.json", ["display_shift"], -2),
    "split_display_shift": _edited("gap_huge.json", ["display_shift"], -2),
    "filtered_display_shift": _edited("interval_filtered.json", ["complex", "display_shift"], -2),
}


@pytest.mark.parametrize("name", sorted(INLINE_DOCS))
def test_round_trip_every_optional_part(name):
    obj = INLINE_DOCS[name]
    doc = parse_text(json.dumps(obj))
    text = print_document(doc)
    # every part of the document survives, in canonical form
    assert json.loads(text) == obj
    assert print_document(parse_text(text)) == text


SHAPE_ERRORS = [
    # one row check each
    ("complex_generator", _edited("circle.json", ["generators", 0], ["x"]),
     "cochain_complex: bad generator ['x']"),
    ("complex_generator_degree", _edited("circle.json", ["generators", 0, 1], "0"),
     "cochain_complex: bad generator ['v', '0']"),
    ("differential_entry", _edited("interval.json", ["differential", 0], [1]),
     "cochain_complex: bad differential entry [1]"),
    ("graph_edge", _edited("circle_graph.json", ["edges", 0], ["e"]),
     "base_graph: bad edge ['e']"),
    ("morse_point", _edited("hopf.json", ["base", "points", 0], ["b0"]),
     "fibration_data.base: bad point ['b0']"),
    ("morse_point_index", _edited("hopf.json", ["base", "points", 0, 1], None),
     "fibration_data.base: bad point ['b0', None]"),
    ("trajectory", _edited("hopf.json", ["base", "trajectories", 0], []),
     "fibration_data.base: bad trajectory []"),
    ("split_generator", _edited("gap_huge.json", ["generators", 0], ["a", 0]),
     "split_filtered_complex: bad generator ['a', 0]"),
    ("split_generator_block", _edited("gap_huge.json", ["generators", 0, 2], "0"),
     "split_filtered_complex: bad generator ['a', 0, '0']"),
    ("cell", _edited("klein_cellular.json", ["cells", 0], ["v"]),
     "cellular_data: bad cell ['v']"),
    ("incidence", _edited("klein_cellular.json", ["incidences", 0, 2], "2"),
     "cellular_data: bad incidence ['b', 'F', '2', []]"),
    ("exceptional_incidence", _edited("klein_cellular.json", ["exceptional"], [["v", "b"]]),
     "cellular_data: bad exceptional incidence ['v', 'b']"),
    ("edge_action_entry", _edited("hopf.json", ["edge_action"], {"c": [["u", "u"]]}),
     "fibration_data: bad edge action entry ['u', 'u']"),
    ("correction", _edited("hopf.json", ["corrections", 0], ["b0"]),
     "fibration_data: bad correction ['b0']"),
    ("matrix_entry", _edited("wedge2_subsystem.json", ["paths", 0, "transport"], [[0, 0]]),
     "bad matrix entry [0, 0] in local_subsystem path 'la' transport"),
    ("matrix_position", _edited("wedge2_subsystem.json", ["paths", 0, "transport"], [["0", 0, 1]]),
     "bad matrix position ['0', 0, 1] in local_subsystem path 'la' transport"),
    ("filtration_step", _edited("interval_filtered.json", ["filtration", 0], 5),
     "filtered_complex: bad filtration step 5"),
    ("span_vector", _edited("interval_filtered.json", ["filtration", 0, "spans"], {"0": [5]}),
     "filtered_complex: bad span vector 5"),
    ("subsystem_path", _edited("wedge2_subsystem.json", ["paths", 0], {"name": "la"}),
     "local_subsystem: bad path {'name': 'la'}"),
    ("relation_word", _edited("circle_graph.json", ["relations"], [5]),
     "bad word 5 in base_graph relation"),
    # the "missing" messages
    ("complex_generators", _edited("circle.json", ["generators"], _DELETE),
     "cochain_complex: missing generators"),
    ("split_generators", _edited("gap_huge.json", ["generators"], {}),
     "split_filtered_complex: missing generators"),
    ("fiber_generators", _edited("hopf.json", ["fiber", "generators"], None),
     "fibration_data.fiber: missing generators"),
    ("points", _edited("hopf.json", ["base", "points"], _DELETE),
     "fibration_data.base: missing points"),
    ("carrier", _edited("wedge2_subsystem.json", ["carrier"], []),
     "local_subsystem: missing carrier"),
    ("cells", _edited("klein_cellular.json", ["cells"], 5),
     "cellular_data: missing cells"),
    ("vertices", _edited("circle_graph.json", ["vertices"], _DELETE),
     "base_graph: bad vertices"),
    # the "expected a list" messages
    ("differential", _edited("circle.json", ["differential"], 5),
     "cochain_complex: bad differential 5, expected a list"),
    ("edges", _edited("circle_graph.json", ["edges"], {}),
     "base_graph: bad edges {}, expected a list"),
    ("relations", _edited("circle_graph.json", ["relations"], "ab"),
     "base_graph: bad relations 'ab', expected a list"),
    ("trajectories", _edited("hopf.json", ["base", "trajectories"], 5),
     "fibration_data.base: bad trajectories 5, expected a list"),
    ("filtration", _edited("interval_filtered.json", ["filtration"], None),
     "filtered_complex: bad filtration None, expected a list"),
    ("paths", _edited("wedge2_subsystem.json", ["paths"], 5),
     "local_subsystem: bad paths 5, expected a list"),
    ("incidences", _edited("klein_cellular.json", ["incidences"], 5),
     "cellular_data: bad incidences 5, expected a list"),
    ("exceptional", _edited("klein_cellular.json", ["exceptional"], 5),
     "cellular_data: bad exceptional 5, expected a list"),
    ("corrections", _edited("hopf.json", ["corrections"], 5),
     "fibration_data: bad corrections 5, expected a list"),
    ("matrix", _edited("wedge2_subsystem.json", ["paths", 0, "transport"], 5),
     "local_subsystem path 'la' transport: bad matrix 5, expected a list of entries"),
    ("action", _edited("hopf.json", ["edge_action"], {"c": 5}),
     "fibration_data: bad action 5 on edge 'c'"),
    # the checks past the shape of a row
    ("document", [], "document must be a JSON object"),
    ("scalar", _edited("interval.json", ["differential", 0, 2], 1.5), "bad scalar 1.5"),
    ("filtration_steps", _edited("interval_filtered.json", ["filtration", 0, "p"], 2),
     "filtered_complex: filtration steps must cover p = 1..n"),
    ("spans", _edited("interval_filtered.json", ["filtration", 0, "spans", "0"], 5),
     "filtered_complex: bad spans 5 in degree 0"),
    ("span_generator", _edited("interval_filtered.json", ["filtration", 0, "spans", "0"], [{"zz": 1}]),
     "filtered_complex: span vector uses unknown generator 'zz' in degree 0"),
    ("cellular_filtration", _edited("klein_cellular.json", ["filtration"], 5),
     "cellular_data: bad filtration"),
    ("edge_action_generator", _edited("hopf.json", ["edge_action"], {"c": [["u", "zz", 1]]}),
     "fibration_data: edge action uses unknown fiber generator 'u' or 'zz'"),
    ("edge_action_degree", _edited("hopf.json", ["edge_action"], {"c": [["u", "w", 1]]}),
     "fibration_data: edge action entry 'u' -> 'w' changes degree"),
    ("system_without_graph", _edited("klein_cellular.json", ["local_system"], {"fiber_dim": 1, "transport": {}}),
     "cellular_data: a local system needs a base graph"),
    ("transport_table", dict(LOCAL_SYSTEM, transport=5), "local_system: bad transport table"),
]


@pytest.mark.parametrize("name,obj,message", SHAPE_ERRORS, ids=[c[0] for c in SHAPE_ERRORS])
def test_shape_error_message(name, obj, message):
    with pytest.raises(ParseError) as err:
        parse_text(json.dumps(obj))
    assert str(err.value) == message
