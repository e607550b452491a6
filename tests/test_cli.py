import contextlib
import io
import os

import pytest

from spectower.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden")


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def data(name):
    return os.path.join(DATA, name)


GOLDEN_CASES = [
    ("homology_circle", ["homology", data("circle.json")]),
    ("homology_interval", ["homology", data("interval.json")]),
    ("homology_klein_cellular_f2", ["homology", data("klein_cellular.json"), "--field", "F2"]),
    ("pages_hopf_all", ["pages", data("hopf.json"), "--all"]),
    ("pages_hopf_all_raw", ["pages", data("hopf.json"), "--all", "--raw"]),
    ("pages_torus_p2", ["pages", data("torus_product.json"), "--page", "2"]),
    ("pages_klein_f2_all", ["pages", data("klein_twisted.json"), "--all", "--field", "F2"]),
    ("pages_interval_filtered_all", ["pages", data("interval_filtered.json"), "--all"]),
    ("e2_klein", ["e2", data("klein_twisted.json")]),
    ("oracle_torus", ["oracle-check", data("torus_product.json")]),
    ("oracle_interval_filtered", ["oracle-check", data("interval_filtered.json")]),
    ("oracle_hopf", ["oracle-check", data("hopf.json")]),
    ("oracle_gap_huge", ["oracle-check", data("gap_huge.json")]),
    ("extend_wedge", ["extend", data("wedge2_subsystem.json"), data("wedge2_graph.json")]),
    ("extend_squares", ["extend", data("circle_squares_subsystem.json"), data("circle_graph.json")]),
    ("compare_klein", ["compare-ls", data("klein_cellular.json"), data("klein_twisted.json")]),
    ("compare_torus", ["compare-ls", data("torus_cellular.json"), data("torus_product.json")]),
    ("kunneth_torus", ["kunneth", data("circle.json"), data("circle.json")]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv):
    with open(os.path.join(GOLDEN, name + ".txt"), "r", encoding="utf-8") as fh:
        want = fh.read()
    code, out, err = run(argv)
    assert code == 0, err
    assert out == want


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_byte_determinism(name, argv):
    code1, out1, _ = run(argv)
    code2, out2, _ = run(argv)
    assert (code1, out1) == (code2, out2)


def test_exit_code_parse_error():
    code, out, err = run(["homology", data("bad_parse.json")])
    assert code == 2
    assert "line" in err and "column" in err


def _set(path, value):
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return mutate


MALFORMED = [
    ("step_p", "interval_filtered.json", _set(["filtration", 0, "p"], "x"), "filtration step p"),
    ("degree_key", "interval_filtered.json", _set(["filtration", 0, "spans"], {"a": []}), "spans degree"),
    ("spans_list", "interval_filtered.json", _set(["filtration", 0, "spans"], []), "filtration step"),
    ("shift_n", "hopf.json", _set(["shift_n"], "a"), "shift_n"),
    ("edge_action_list", "hopf.json", _set(["edge_action"], []), "edge_action"),
    ("relation_int", "circle_graph.json", _set(["relations"], [5]), "relation"),
    ("cell_int", "klein_cellular.json", _set(["cells", 1], 5), "bad cell"),
    ("cell_dimension", "klein_cellular.json", _set(["cells", 1, 1], "a"), "dimension"),
    ("fibration_base_int", "hopf.json", _set(["base"], 5), "fibration_data.base"),
    ("fibration_fiber_list", "hopf.json", _set(["fiber"], []), "fibration_data.fiber"),
    ("filtered_complex_int", "interval_filtered.json", _set(["complex"], 5), "filtered_complex.complex"),
    ("local_system_int", "hopf.json", _set(["base", "local_system"], 5), "fibration_data.base.local_system"),
    ("local_system_in_base", "hopf.json",
     _set(["base", "local_system"], {"fiber_dim": 1, "transport": {"c": [[0, 0, 1]]}}),
     "fibration_data.base.local_system: a fibration's transport is its edge_action\n"),
    ("differential_int", "circle.json", _set(["differential"], 5), "cochain_complex: bad differential"),
    ("paths_int", "wedge2_subsystem.json", _set(["paths"], 5), "local_subsystem: bad paths"),
    ("transport_int", "wedge2_subsystem.json", _set(["paths", 0, "transport"], 5), "transport"),
    ("trajectories_int", "hopf.json", _set(["base", "trajectories"], 5), "fibration_data.base: bad trajectories"),
    ("fiber_differential_null", "hopf.json", _set(["fiber", "differential"], None),
     "fibration_data.fiber: bad differential"),
]


@pytest.mark.parametrize("name,source,mutate,part", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_document_is_a_parse_error(tmp_path, name, source, mutate, part):
    # ill-shaped payloads are rejected where they are parsed, with one line
    # naming the document part, not left to fail inside a builder (exit 5)
    import json

    with open(data(source), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc)
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    code, out, err = run(["homology", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1 and part in err


SHIFTED_BODIES = [
    ("circle.json", [], "cochain_complex display_shift"),
    ("gap_huge.json", [], "split_filtered_complex display_shift"),
    ("interval_filtered.json", ["complex"], "filtered_complex.complex display_shift"),
    ("hopf.json", ["fiber"], "fibration_data.fiber display_shift"),
]


@pytest.mark.parametrize("source,path,part", SHIFTED_BODIES, ids=[c[0] for c in SHIFTED_BODIES])
@pytest.mark.parametrize("shift", [None, [], {}, 1.5], ids=["null", "list", "object", "float"])
def test_a_display_shift_that_is_not_an_integer_is_a_parse_error(tmp_path, source, path, part, shift):
    # a non-integer shift is refused where the complex body is read, with
    # one line naming it; 1.5 is not read as 1, and null is not exit 5
    import json

    with open(data(source), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _set(path + ["display_shift"], shift)(doc)
    doc_path = tmp_path / "shifted.json"
    doc_path.write_text(json.dumps(doc))
    code, out, err = run(["homology", str(doc_path)])
    assert (code, out, err) == (2, "", "parse error: %s: bad integer %r\n" % (part, shift))


# integer value fields take JSON integers only: a boolean is an int in
# Python and a string of digits was read with int(), so `true` read as 1
# and "2" as 2.  Object keys (`spans` degrees) keep the string form
INTEGER_VALUES = [
    ("display_shift", "circle.json", ["display_shift"], "cochain_complex display_shift: bad integer"),
    ("shift_n", "hopf.json", ["shift_n"], "fibration_data shift_n: bad integer"),
    ("shift_k", "hopf.json", ["shift_k"], "fibration_data shift_k: bad integer"),
    ("step_p", "interval_filtered.json", ["filtration", 0, "p"], "filtration step p: bad integer"),
    ("cell_dimension", "klein_cellular.json", ["cells", 1, 1], "cell 'b' dimension: bad integer"),
    ("cell_orientation", "klein_cellular.json", ["cells", 1, 3], "cell 'b' orientation: bad integer"),
    ("filtration_label", "klein_cellular.json", ["filtration", "a"], "filtration of 'a': bad integer"),
]
# rows, positions and counts already refused strings; booleans passed
INTEGER_ENTRIES = [
    ("generator_degree", "circle.json", ["generators", 1, 1], "cochain_complex: bad generator"),
    ("generator_block", "gap_huge.json", ["generators", 0, 2], "split_filtered_complex: bad generator"),
    ("point_index", "hopf.json", ["base", "points", 0, 1], "fibration_data.base: bad point"),
    ("incidence_coefficient", "klein_cellular.json", ["incidences", 1, 2], "bad incidence"),
    ("matrix_position", "wedge2_subsystem.json", ["paths", 0, "transport", 0, 0], "bad matrix position"),
    ("fiber_dim", "wedge2_subsystem.json", ["fiber_dim"], "bad fiber_dim True"),
    ("trajectory_sign", "hopf.json", ["base", "trajectories", 0, 3], "has sign True"),
]
NOT_INTEGERS = ([(n, s, p, part, v) for n, s, p, part in INTEGER_VALUES for v in (True, "1")]
                + [(n, s, p, part, True) for n, s, p, part in INTEGER_ENTRIES])


@pytest.mark.parametrize("name,source,path,part,value", NOT_INTEGERS,
                         ids=["%s-%s" % (c[0], "true" if c[4] is True else "string") for c in NOT_INTEGERS])
def test_a_boolean_or_digit_string_is_not_an_integer(tmp_path, name, source, path, part, value):
    import json

    with open(data(source), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _set(path, value)(doc)
    doc_path = tmp_path / (name + ".json")
    doc_path.write_text(json.dumps(doc))
    code, out, err = run(["homology", str(doc_path)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1 and part in err


def test_exit_code_invariant_violation():
    code, out, err = run(["homology", data("bad_d2.json")])
    assert code == 3
    assert "degree 0" in err and "degree 2" in err


def test_singular_edge_action_exits_3(tmp_path):
    import json

    doc = tmp_path / "singular_action.json"
    doc.write_text(json.dumps({
        "kind": "fibration_data",
        "field": "Q",
        "base": {
            "graph": {"vertices": ["m", "M"], "edges": [["a", "M", "m"]], "relations": []},
            "points": [["m", 0], ["M", 1]],
            "trajectories": [["ta", "M", "m", 1, ["a"]]],
        },
        "fiber": {"generators": [["u", 0], ["v", 0]], "differential": []},
        "edge_action": {"a": [["u", "u", 1], ["u", "v", 2], ["v", "u", 2], ["v", "v", 4]]},
        "corrections": [],
    }))
    code, out, err = run(["homology", str(doc)])
    assert (code, out) == (3, "")
    assert err == "invariant violation: edge 'a' action in degree 0 is not invertible\n"


def test_an_edge_action_that_does_not_commute_with_d_exits_3(tmp_path):
    import json

    # v0 -> v0 + v1 in degree 0, the identity in degree 1: d(v0) = -e goes to 0
    doc = tmp_path / "noncommuting_action.json"
    doc.write_text(json.dumps({
        "kind": "fibration_data",
        "field": "Q",
        "base": {
            "graph": {"vertices": ["m", "M"], "edges": [["a", "M", "m"]], "relations": []},
            "points": [["m", 0], ["M", 1]],
            "trajectories": [["ta", "M", "m", 1, ["a"]]],
        },
        "fiber": {"generators": [["v0", 0], ["v1", 0], ["e", 1]], "differential": [["v0", "e", -1], ["v1", "e", 1]]},
        "edge_action": {"a": [["v0", "v0", 1], ["v0", "v1", 1], ["v1", "v1", 1]]},
        "corrections": [],
    }))
    code, out, err = run(["homology", str(doc)])
    assert (code, out) == (3, "")
    assert err == "invariant violation: edge 'a' action does not commute with the fiber differential in degree 0\n"


def test_singular_transport_exits_3(tmp_path):
    import json

    doc = tmp_path / "singular_transport.json"
    doc.write_text(json.dumps({
        "kind": "morse_data",
        "field": "Q",
        "graph": {"vertices": ["m", "M"], "edges": [["a", "M", "m"]], "relations": []},
        "points": [["m", 0], ["M", 1]],
        "trajectories": [["ta", "M", "m", 1, ["a"]]],
        "local_system": {"fiber_dim": 2, "transport": {"a": [[0, 0, 1], [0, 1, 2], [1, 0, 2], [1, 1, 4]]}},
    }))
    code, out, err = run(["homology", str(doc)])
    assert (code, out) == (3, "")
    assert err == "invariant violation: transport for edge 'a' is not invertible\n"


def test_a_subsystem_with_no_consistent_extension_exits_3(tmp_path):
    import json

    from spectower.documents import load_document
    from spectower.errors import InvariantError
    from spectower.localsystems import extend_subsystem

    # loops a and b generate pi_1 of the torus, but their transports do not
    # commute, so the relation a b a^-1 b^-1 refuses the extension: in
    # process and through the CLI, with one message
    sub, graph = tmp_path / "torus_subsystem.json", tmp_path / "torus_graph.json"
    sub.write_text(json.dumps({
        "kind": "local_subsystem", "field": "Q", "fiber_dim": 2, "carrier": ["v"],
        "paths": [{"name": "la", "word": ["a"], "transport": [[0, 0, 1], [0, 1, 1], [1, 1, 1]]},
                  {"name": "lb", "word": ["b"], "transport": [[0, 0, 1], [1, 0, 1], [1, 1, 1]]}],
    }))
    graph.write_text(json.dumps({
        "kind": "base_graph", "vertices": ["v"], "edges": [["a", "v", "v"], ["b", "v", "v"]],
        "relations": [["a", "b", "~a", "~b"]],
    }))
    msg = ("subsystem transports admit no consistent extension: relation word ['a', 'b', '~a', '~b'] "
           "does not transport to the identity")
    with pytest.raises(InvariantError) as err:
        extend_subsystem(load_document(str(sub)).payload, load_document(str(graph)).payload)
    assert str(err.value) == msg
    code, out, err = run(["extend", str(sub), str(graph)])
    assert (code, out) == (3, "")
    assert err == "invariant violation: %s\n" % msg


@pytest.mark.parametrize("field", ("F3", "F5", "F2305843009213693951"))
def test_every_document_under_an_odd_prime_field(field):
    # every document through each single-document subcommand, and every
    # golden two-document argv, read over an odd prime: a scalar with no
    # value there (wedge2's -1/3 in F3) is a parse error, never exit 5
    docs = sorted(f for f in os.listdir(DATA) if f.endswith(".json"))
    argvs = [[c, data(d)] + (["--all"] if c == "pages" else []) for d in docs
             for c in ("homology", "pages", "e2", "oracle-check")]
    argvs += [argv for _, argv in GOLDEN_CASES if len(argv) > 2 and argv[2].endswith(".json")]
    for argv in argvs:
        code, out, err = run(argv + ["--field", field])
        assert code != 5 and (code == 0 or err.count("\n") == 1), (argv, err)
        if argv[0] == "oracle-check" and os.path.basename(argv[1]) in (
                "gap_huge.json", "hopf.json", "interval_filtered.json", "klein_twisted.json", "torus_product.json"):
            assert code == 0 and "PASS" in out, (argv, err)
    code, out, err = run(["extend", data("wedge2_subsystem.json"), data("wedge2_graph.json"), "--field", "F3"])
    assert (code, out, err) == (2, "", "parse error: scalar '-1/3' has no value in F3: its denominator is "
                                "divisible by 3\n")


def _homology_dims(out):
    """{k: dim H^k} from `homology` output lines "H^k n"."""
    return {int(k): int(n) for k, n in (line[2:].split() for line in out.splitlines())}


def test_prime_fields_never_lose_homology_against_q():
    # universal coefficients: over F_p each H^k of an integral document is at
    # least its value over Q (torsion only adds), and the Euler characteristic
    # does not depend on the field.  The Klein bottle over F2 is where they
    # differ, so the comparison is not vacuous
    fields = ("F2", "F3", "F5", "F2305843009213693951")
    differ, compared = set(), 0
    for doc in sorted(f for f in os.listdir(DATA) if f.endswith(".json")):
        runs = {fl: run(["homology", data(doc), "--field", fl]) for fl in ("Q",) + fields}
        if any(code != 0 for code, _, _ in runs.values()):
            continue
        over_q = _homology_dims(runs["Q"][1])
        euler = sum((-1) ** k * h for k, h in over_q.items())
        for fl in fields:
            over_p = _homology_dims(runs[fl][1])
            assert set(over_p) == set(over_q), (doc, fl)
            assert all(over_p[k] >= h for k, h in over_q.items()), (doc, fl, over_p, over_q)
            assert sum((-1) ** k * h for k, h in over_p.items()) == euler, (doc, fl)
            if over_p != over_q:
                differ.add((doc, fl))
        compared += 1
    assert compared >= 9
    assert differ == {("klein_cellular.json", "F2"), ("klein_twisted.json", "F2")}


def test_exit_code_precondition():
    code, out, err = run(["extend", data("disconnected_subsystem.json"), data("disconnected_graph.json")])
    assert code == 4
    assert "support" in err


def test_exit_code_wrong_document_kind():
    code, out, err = run(["pages", data("wedge2_graph.json")])
    assert code == 4


KIND_REFUSALS = [
    ("e2_cochain", ["e2", "circle.json"], "e2 needs a fibration_data document"),
    ("compare_swapped", ["compare-ls", "klein_twisted.json", "klein_cellular.json"],
     "compare-ls needs a cellular_data document first"),
    ("compare_cochain_second", ["compare-ls", "klein_cellular.json", "circle.json"],
     "compare-ls needs a fibration_data document second"),
    ("extend_swapped", ["extend", "wedge2_graph.json", "wedge2_subsystem.json"],
     "extend needs a local_subsystem document"),
    ("kunneth_fibration_first", ["kunneth", "hopf.json", "circle.json"],
     "kunneth needs two cochain_complex documents"),
]


@pytest.mark.parametrize("name,argv,msg", KIND_REFUSALS, ids=[c[0] for c in KIND_REFUSALS])
def test_wrong_document_kind_is_refused_in_one_line(name, argv, msg):
    command, *files = argv
    assert run([command] + [data(f) for f in files]) == (4, "", "precondition violation: %s\n" % msg)


@pytest.mark.parametrize("name,page", [("hopf.json", -1), ("interval_filtered.json", -3)])
def test_negative_page_exits_4(name, page):
    code, out, err = run(["pages", data(name), "--page", str(page)])
    assert (code, out) == (4, "")
    assert err == "precondition violation: page index must be >= 0, got %d\n" % page


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    import spectower.cli

    def boom(args):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(spectower.cli, "cmd_homology", boom)
    code, out, err = run(["homology", data("circle.json")])
    assert code == 5
    assert out == ""
    assert err == "internal error: RuntimeError: unexpected state\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["homology_circle", "homology_interval", "homology_klein_cellular_f2"])
def test_homology_reads_dims_from_ranks(monkeypatch, name):
    # `homology` prints dim C^k - rank d^k - rank d^{k-1}: it builds no
    # kernel or cohomology basis, and its goldens stay byte-identical
    from spectower.complexes import CochainComplex

    def refuse(self):
        raise AssertionError("homology built a cohomology basis")

    monkeypatch.setattr(CochainComplex, "cohomology", refuse)
    argv = dict(GOLDEN_CASES)[name]
    with open(os.path.join(GOLDEN, name + ".txt"), "r", encoding="utf-8") as fh:
        want = fh.read()
    assert run(argv) == (0, want, "")


def test_compare_mismatch_exits_nonzero():
    code, out, err = run(["compare-ls", data("torus_cellular.json"), data("klein_twisted.json")])
    assert code == 4  # total cohomology disagrees: refused as a precondition


def test_compare_ls_refuses_documents_over_two_fields(tmp_path):
    # the cellular tower is built over the fibration's field, so documents
    # tagged with two fields are refused; --field puts both on one
    import json

    with open(data("klein_twisted.json")) as fh:
        doc = json.load(fh)
    doc["field"] = "F2"
    path = tmp_path / "klein_twisted_f2.json"
    path.write_text(json.dumps(doc))
    argv = ["compare-ls", data("klein_cellular.json"), str(path)]
    assert run(argv) == (4, "", "precondition violation: compare-ls documents must share a field\n")
    assert run(argv + ["--field", "F2"])[0] == 0


def test_oracle_check_hand_corrupted_document():
    # corrupt the Hopf correction so d^2 != 0: must exit 3 before comparing
    import json

    with open(data("hopf.json")) as fh:
        obj = json.load(fh)
    obj["base"]["points"] = [["b0", 0], ["b1", 1], ["b2", 2]]
    obj["base"]["graph"]["vertices"] = ["b0", "b1", "b2"]
    obj["base"]["graph"]["edges"] = [["c", "b2", "b1"], ["d", "b1", "b0"]]
    obj["base"]["trajectories"] = [
        ["tc", "b2", "b1", 1, ["c"]],
        ["td", "b1", "b0", 1, ["d"]],
    ]
    obj["corrections"] = []
    bad = data("_tmp_bad_tower.json")
    with open(bad, "w") as fh:
        json.dump(obj, fh)
    try:
        code, out, err = run(["oracle-check", bad])
        assert code == 3
        assert "d^2" in err
    finally:
        os.remove(bad)


def test_kunneth_round_trips_through_oracle():
    code, out, _ = run(["kunneth", data("circle.json"), data("interval.json")])
    assert code == 0
    tmp = data("_tmp_kunneth.json")
    with open(tmp, "w") as fh:
        fh.write(out)
    try:
        code, out2, err = run(["oracle-check", tmp])
        assert code == 0, err
        assert "PASS" in out2
        assert "degenerates at E_2: yes" in out2
    finally:
        os.remove(tmp)


def test_kunneth_rejects_fractional_base():
    import json

    obj = {
        "kind": "cochain_complex",
        "field": "Q",
        "generators": [["a", 0], ["b", 1]],
        "differential": [["a", "b", "1/2"]],
    }
    tmp = data("_tmp_frac.json")
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    try:
        code, out, err = run(["kunneth", tmp, data("circle.json")])
        assert code == 3
        assert "integer" in err
    finally:
        os.remove(tmp)


def test_pages_stabilized_query_matches_page_one():
    # trivial filtration: any page r >= 1 renders the same table
    import json

    with open(data("circle.json")) as fh:
        obj = json.load(fh)
    obj = {
        "kind": "split_filtered_complex",
        "field": "Q",
        "generators": [[g, k, 0] for g, k in obj["generators"]],
        "differential": [],
    }
    tmp = data("_tmp_trivial_filt.json")
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    try:
        _, out1, _ = run(["pages", tmp, "--page", "1"])
        _, out5, _ = run(["pages", tmp, "--page", "5"])
        assert out1.replace("page 1", "page r") == out5.replace("page 5", "page r")
    finally:
        os.remove(tmp)


def test_shift_flags_relabel_tables():
    code, out, _ = run(["pages", data("hopf.json"), "--page", "2", "--shift-n", "1", "--shift-k", "-1"])
    assert code == 0
    assert "3" in out  # p column labels now reach 2+1
    code2, raw, _ = run(["pages", data("hopf.json"), "--page", "2", "--raw", "--shift-n", "1", "--shift-k", "-1"])
    assert "2\t1\t-1\t1" in raw


def test_format_tsv_equals_raw():
    a = run(["pages", data("hopf.json"), "--all", "--raw"])
    b = run(["pages", data("hopf.json"), "--all", "--format", "tsv"])
    assert a == b


def test_raw_and_format_are_one_setting_and_the_last_flag_wins():
    # --raw is --format tsv: whichever of the two comes last decides
    for argv in (["pages", data("hopf.json"), "--page", "2"], ["e2", data("klein_twisted.json")]):
        tsv, table = run(argv + ["--format", "tsv"]), run(argv + ["--format", "table"])
        assert tsv[0] == table[0] == 0 and tsv != table
        assert run(argv + ["--format", "table", "--raw"]) == run(argv + ["--raw"]) == tsv
        assert run(argv + ["--raw", "--format", "table"]) == table


def test_e2_raw_output():
    code, out, _ = run(["e2", data("klein_twisted.json"), "--raw"])
    assert code == 0
    assert out == "2\t0\t0\t1\n2\t1\t0\t1\n"


def test_oracle_check_at_block_gap_1e30_within_budget():
    # one pair with a block gap of 10^30: pages are built only at the
    # breakpoints 0 and 10^30 + 1, and F_pH walks the two occupied blocks
    import time

    start = time.perf_counter()
    code, out, err = run(["oracle-check", data("gap_huge.json")])
    assert code == 0, err
    assert "degenerates at E_2: no" in out
    assert time.perf_counter() - start < 1


ONE_VERTEX = {"vertices": ["v"], "edges": [], "relations": []}
FIBER_DIM_CASES = [
    ("local_subsystem", "extend", {"kind": "local_subsystem", "carrier": ["v"], "paths": [], "fiber_dim": 10 ** 30}),
    ("local_system", "homology", {"kind": "local_system", "graph": ONE_VERTEX, "transport": {}, "fiber_dim": 10 ** 30}),
    ("morse_data.local_system", "homology", {"kind": "morse_data", "graph": ONE_VERTEX, "points": [["v", 0]],
                                             "trajectories": [], "local_system": {"fiber_dim": 10 ** 30, "transport": {}}}),
]


@pytest.mark.parametrize("what, command, doc", FIBER_DIM_CASES)
def test_fiber_dim_past_the_limit_exits_4_within_budget(tmp_path, what, command, doc):
    # a declared fiber_dim of 10^30 is refused before one column is allocated
    import json
    import time

    from spectower.documents import MAX_FIBER_DIM

    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(doc, field="Q")))
    start = time.perf_counter()
    code, out, err = run([command, str(path)] + ([data("circle_graph.json")] if command == "extend" else []))
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == "precondition violation: %s: fiber_dim %d is above the limit %d\n" % (what, 10 ** 30, MAX_FIBER_DIM)


def test_pages_all_past_the_span_limit_exits_4():
    from spectower.cli import MAX_SPAN

    code, out, err = run(["pages", data("gap_huge.json"), "--all", "--raw"])
    assert (code, out) == (4, "")
    assert err.startswith("precondition violation: ") and err.count("\n") == 1
    assert "--page" in err and str(MAX_SPAN) in err


def test_table_past_the_span_limit_exits_4():
    # the p span of a page is 10^30 + 1; the tsv form of the same page is fine
    code, out, err = run(["pages", data("gap_huge.json"), "--page", "1"])
    assert (code, out) == (4, "")
    assert err.startswith("precondition violation: ") and err.count("\n") == 1 and "--format tsv" in err
    code, out, _ = run(["pages", data("gap_huge.json"), "--page", "1", "--format", "tsv"])
    assert code == 0 and out.count("\n") == 2


def test_compare_ls_table_past_the_span_limit_names_no_option(tmp_path):
    # klein_cellular.json with cell F at filtration 1000: the tables that
    # compare-ls prints for a differing page span p 0..1000, and compare-ls
    # has no --format, so the refusal names none
    import json

    with open(data("klein_cellular.json")) as fh:
        doc = json.load(fh)
    doc["filtration"]["F"] = 1000
    path = tmp_path / "klein_wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["compare-ls", str(path), data("klein_twisted.json")])
    assert (code, out) == (4, "")
    assert err == "precondition violation: a table spans p 0..1000 and q -998..1, more than 100 values\n"


@pytest.mark.parametrize("top", [100, 10 ** 30])
def test_homology_past_the_span_limit_exits_4_within_budget(tmp_path, top):
    # circle.json with e in degree `top`: one H^k line per degree in between
    # would never end at 10^30; past MAX_SPAN degrees the run exits 4 at once,
    # and at MAX_SPAN - 1 the lines are still printed
    import json
    import time

    from spectower.cli import MAX_SPAN

    with open(data("circle.json")) as fh:
        doc = json.load(fh)
    doc["generators"][1][1] = top
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(["homology", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == "precondition violation: homology spans degrees 0..%d, more than %d values\n" % (top, MAX_SPAN)
    doc["generators"][1][1] = MAX_SPAN - 1
    path.write_text(json.dumps(doc))
    code, out, _ = run(["homology", str(path)])
    assert code == 0 and out.count("\n") == MAX_SPAN


@pytest.mark.parametrize("degree", [10 ** 6, 10 ** 40])
def test_oracle_check_past_the_span_limit_exits_4_within_budget(tmp_path, degree):
    # hopf.json with its fiber generator w in degree `degree` and no
    # corrections: the totals line would name every degree in between (21.8 MB
    # at 10^6, and an OverflowError at 10^40); like `homology`, oracle-check
    # exits 4 with one line before the tower is converged
    import json
    import time

    from spectower.cli import MAX_SPAN

    with open(data("hopf.json")) as fh:
        doc = json.load(fh)
    doc["fiber"]["generators"][1][1] = degree
    doc["corrections"] = []
    path = tmp_path / "hopf_wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(["oracle-check", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert err == "precondition violation: homology spans degrees 0..%d, more than %d values\n" % (degree + 2, MAX_SPAN)


def test_page_far_past_a_long_gap(tmp_path):
    # one pair with a block gap of 700: pages up to 700 are built in a loop,
    # not by one recursion level per page
    import json
    import time

    doc = tmp_path / "gap700.json"
    doc.write_text(json.dumps({
        "kind": "split_filtered_complex",
        "field": "F2",
        "generators": [["a", 0, 0], ["b", 1, 700]],
        "differential": [["a", "b", 1]],
    }))
    start = time.perf_counter()
    code, out, err = run(["pages", str(doc), "--page", "700", "--raw"])
    assert code == 0, err
    assert out == "700\t0\t0\t1\n700\t700\t-699\t1\n"
    assert run(["pages", str(doc), "--page", "701", "--raw"]) == (0, "", "")
    assert time.perf_counter() - start < 5


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(["homology", str(doc)])
    assert code == 2
    assert err.startswith("parse error: ") and err.count("\n") == 1


def test_non_utf8_document_is_a_parse_error(tmp_path):
    doc = tmp_path / "utf16.json"
    doc.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run(["homology", str(doc)])
    assert code == 2
    assert err.startswith("parse error: ") and "not UTF-8" in err and err.count("\n") == 1


def test_nested_display_shift_survives_print(tmp_path):
    # the display shift of a nested complex body is part of the document:
    # a printed copy reports homology in the same degrees
    import json

    from spectower.documents import load_document, print_document

    with open(data("interval_filtered.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["complex"]["display_shift"] = 3
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    assert run(["homology", str(path)]) == (0, "H^3 1\nH^4 0\n", "")
    printed = tmp_path / "printed.json"
    printed.write_text(print_document(load_document(str(path))))
    assert run(["homology", str(printed)]) == (0, "H^3 1\nH^4 0\n", "")
