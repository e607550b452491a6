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
    ("e2_klein", ["e2", data("klein_twisted.json")]),
    ("oracle_torus", ["oracle-check", data("torus_product.json")]),
    ("oracle_interval_filtered", ["oracle-check", data("interval_filtered.json")]),
    ("oracle_hopf", ["oracle-check", data("hopf.json")]),
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


def test_exit_code_invariant_violation():
    code, out, err = run(["homology", data("bad_d2.json")])
    assert code == 3
    assert "degree 0" in err and "degree 2" in err


def test_exit_code_precondition():
    code, out, err = run(["extend", data("disconnected_subsystem.json"), data("disconnected_graph.json")])
    assert code == 4
    assert "support" in err


def test_exit_code_wrong_document_kind():
    code, out, err = run(["pages", data("wedge2_graph.json")])
    assert code == 4


def test_compare_mismatch_exits_nonzero():
    code, out, err = run(["compare-ls", data("torus_cellular.json"), data("klein_twisted.json")])
    assert code == 4  # total cohomology disagrees: refused as a precondition


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


def test_e2_raw_output():
    code, out, _ = run(["e2", data("klein_twisted.json"), "--raw"])
    assert code == 0
    assert out == "2\t0\t0\t1\n2\t1\t0\t1\n"


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
