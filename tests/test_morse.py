import re
from fractions import Fraction

import pytest

from spectower import localsystems
from spectower.errors import InvariantError, ParseError, PreconditionError
from spectower.field import Field
from spectower.localsystems import BaseGraph, LocalSystem, check_homotopy_invariance, parse_word
from spectower.matrix import Matrix
from spectower.morse import CellularData, MorseData, cellular_complex, morse_complex

from helpers import unchecked

Q = Field()
F2 = Field(2)


def circle_morse():
    g = BaseGraph(["m", "M"], [("a", "M", "m"), ("b", "M", "m")])
    md = MorseData(
        g,
        [("m", 0), ("M", 1)],
        [("ta", "M", "m", 1, parse_word(["a"])), ("tb", "M", "m", -1, parse_word(["b"]))],
    )
    return g, md


def test_morse_data_validation():
    g, _ = circle_morse()
    with pytest.raises(ParseError):
        MorseData(g, [("m", 0), ("M", 1)], [("t", "m", "M", 1, parse_word(["~a"]))])  # flows upward
    with pytest.raises(ParseError):
        MorseData(g, [("m", 0), ("M", 1)], [("t", "M", "m", 2, parse_word(["a"]))])  # bad sign
    with pytest.raises(ParseError):
        MorseData(g, [("m", 0), ("M", 1)], [("t", "M", "m", 1, parse_word(["~a"]))])  # word backwards


def test_complexes_over_a_local_system_of_another_graph_are_refused():
    g, md = circle_morse()
    other = LocalSystem.trivial(BaseGraph(["m", "M"], [("a", "M", "m")]), Q, 1)
    with pytest.raises(ParseError, match="^local system lives on a different base graph$"):
        morse_complex(md, other)
    cd = CellularData([("m", 0, "m"), ("M", 0, "M")], [], graph=g)
    with pytest.raises(ParseError, match="^local system lives on a different base graph$"):
        cellular_complex(cd, other)
    with pytest.raises(PreconditionError, match="^cellular_complex needs a local system or a field$"):
        cellular_complex(cd)


def test_circle_trivial_system():
    g, md = circle_morse()
    cx = morse_complex(md, LocalSystem.trivial(g, Q, 1))
    # the two opposite signs cancel: zero differential
    assert cx.d(0).is_zero()
    assert cx.cohomology().dims() == {0: 1, 1: 1}


def test_circle_sign_monodromy():
    g, md = circle_morse()
    ls = LocalSystem(g, Q, 1, {"a": Matrix.identity(Q, 1), "b": Matrix.from_rows(Q, [[-1]])})
    cx = morse_complex(md, ls)
    # differential becomes +-2: everything dies over Q
    assert not cx.d(0).is_zero()
    assert cx.cohomology().dims() == {}


def test_zero_dimensional_fiber():
    g, md = circle_morse()
    ls = LocalSystem(g, Q, 0, {"a": Matrix.zero(Q, 0, 0), "b": Matrix.zero(Q, 0, 0)})
    cx = morse_complex(md, ls)
    assert len(cx.basis) == 0


def test_morse_d2_failure_reports_points():
    # 3 index levels, single trajectories: d^2 sends bottom to top without
    # cancellation, which must be reported as an inconsistency
    g = BaseGraph(["x", "y", "z"], [("e", "z", "y"), ("f", "y", "x")])
    md = MorseData(
        g,
        [("x", 0), ("y", 1), ("z", 2)],
        [("tf", "y", "x", 1, parse_word(["f"])), ("te", "z", "y", 1, parse_word(["e"]))],
    )
    with pytest.raises(InvariantError) as err:
        morse_complex(md, LocalSystem.trivial(g, Q, 1))
    assert "'x'" in str(err.value) and "'z'" in str(err.value)


def projective_plane_morse():
    # m (0) <- s (1) <- M (2); the lower pair cancels (+1, -1), the upper
    # pair adds (+1, +1), as for the real projective plane.  The declared
    # relations pair homotopic trajectories: the disc boundaries whose
    # transports must agree for d^2 = 0 to cancel.
    g = BaseGraph(
        ["m", "s", "M"],
        [("a", "s", "m"), ("b", "s", "m"), ("c", "M", "s"), ("d", "M", "s")],
        [["a", "~b"], ["c", "~d"]],
    )
    md = MorseData(
        g,
        [("m", 0), ("s", 1), ("M", 2)],
        [
            ("ta", "s", "m", 1, parse_word(["a"])),
            ("tb", "s", "m", -1, parse_word(["b"])),
            ("tc", "M", "s", 1, parse_word(["c"])),
            ("td", "M", "s", 1, parse_word(["d"])),
        ],
    )
    return g, md


def test_projective_plane_three_levels():
    g, md = projective_plane_morse()
    over_q = morse_complex(md, LocalSystem.trivial(g, Q, 1))
    assert not over_q.d(1).is_zero()  # ds = 2M survives over Q
    assert over_q.cohomology().dims() == {0: 1}
    over_f2 = morse_complex(md, LocalSystem.trivial(g, F2, 1))
    assert over_f2.cohomology().dims() == {0: 1, 1: 1, 2: 1}


def test_relation_violating_system_reports_pair():
    g, md = projective_plane_morse()
    shear = Matrix.from_rows(Q, [[1, 1], [0, 1]])
    with unchecked(localsystems, "check_homotopy_invariance"):
        bad = LocalSystem(
            g, Q, 2,
            {"a": shear, "b": Matrix.identity(Q, 2), "c": Matrix.identity(Q, 2), "d": Matrix.identity(Q, 2)},
        )
    assert check_homotopy_invariance(bad) is not None
    with pytest.raises(InvariantError) as err:
        morse_complex(md, bad)
    assert "'m'" in str(err.value) and "'M'" in str(err.value)


def test_rank_one_morse_matches_cellular():
    # same circle, once as Morse data and once as cellular data
    g, md = circle_morse()
    mc = morse_complex(md, LocalSystem.trivial(g, Q, 1))
    cd = CellularData(
        cells=[("m", 0, "m", 1), ("M", 1, "M", 1)],
        incidences=[("m", "M", 0, ())],
        graph=None,
    )
    cc = cellular_complex(cd, ls=None, field=Q)
    assert mc.cohomology().dims() == cc.cohomology().dims()


# -- cellular -----------------------------------------------------------------


def klein_cells():
    # relation a.b.a^-1.b: dF = 2b, db = da = 0
    return CellularData(
        cells=[("v", 0, None, 1), ("b", 1, None, 1), ("a", 1, None, 1), ("F", 2, None, 1)],
        incidences=[("b", "F", 2, ()), ("a", "F", 0, ())],
        graph=None,
    )


def test_klein_bottle_untwisted():
    cd = klein_cells()
    assert cellular_complex(cd, ls=None, field=F2).cohomology().dims() == {0: 1, 1: 2, 2: 1}
    assert cellular_complex(cd, ls=None, field=Q).cohomology().dims() == {0: 1, 1: 1}


def test_untwisted_d2_checked_at_construction():
    with pytest.raises(InvariantError, match="^untwisted incidence complex fails d\\^2 = 0 between 'v' and 'F'$"):
        CellularData(
            cells=[("v", 0, None, 1), ("e", 1, None, 1), ("F", 2, None, 1)],
            incidences=[("v", "e", 1, ()), ("e", "F", 1, ())],
            graph=None,
        )
    # (F1, v2) and (F2, v1) both fail: the lowest 2-cell is named first
    with pytest.raises(InvariantError, match="between 'v2' and 'F1'$"):
        CellularData(
            cells=[("v1", 0, None, 1), ("v2", 0, None, 1), ("e1", 1, None, 1), ("e2", 1, None, 1),
                   ("F1", 2, None, 1), ("F2", 2, None, 1)],
            incidences=[("v2", "e1", 1, ()), ("e1", "F1", 1, ()), ("v1", "e2", 1, ()), ("e2", "F2", 1, ())],
            graph=None,
        )


def test_trivial_system_matches_untwisted():
    g = BaseGraph(["x"], [("l", "x", "x")])
    cd = CellularData(
        cells=[("v", 0, "x", 1), ("e", 1, "x", 1)],
        incidences=[],
        exceptional=[("v", "e", parse_word(["l"]), ())],
        graph=g,
    )
    twisted = cellular_complex(cd, LocalSystem.trivial(g, Q, 1))
    plain = cellular_complex(cd, ls=None, field=Q)
    for k in (0, 1):
        assert twisted.d(k) == plain.d(k)
    assert twisted.cohomology().dims() == {0: 1, 1: 1}


def test_circle_exceptional_clause_with_sign_monodromy():
    # the 0/1 exceptional term gives phi+ - phi- = (-1) - 1 = -2
    g = BaseGraph(["x"], [("l", "x", "x")])
    ls = LocalSystem(g, Q, 1, {"l": Matrix.from_rows(Q, [[-1]])})
    cd = CellularData(
        cells=[("v", 0, "x", 1), ("e", 1, "x", 1)],
        incidences=[],
        exceptional=[("v", "e", parse_word(["l"]), ())],
        graph=g,
    )
    cx = cellular_complex(cd, ls)
    assert cx.d(0) == Matrix.from_rows(Q, [[-2]])
    assert cx.cohomology().dims() == {}


def test_twisted_torus_column():
    # circle base, rank-2 fiber swapped by the monodromy, over F_2: the
    # invariants/coinvariants of the swap give dims (1, 1)
    g, md = circle_morse()
    swap = Matrix.from_entries(F2, 2, 2, [(0, 1, 1), (1, 0, 1)])
    ls = LocalSystem(g, F2, 2, {"a": Matrix.identity(F2, 2), "b": swap})
    cx = morse_complex(md, ls)
    assert cx.cohomology().dims() == {0: 1, 1: 1}


def test_incidence_word_endpoints_validated():
    g = BaseGraph(["x", "y"], [("e", "x", "y")])
    with pytest.raises(ParseError):
        CellularData(
            cells=[("v", 0, "x", 1), ("w", 1, "y", 1)],
            incidences=[("v", "w", 1, parse_word(["~e"]))],  # runs y -> x
            graph=g,
        )


def test_wide_shift_monodromy_within_budget():
    # F_2 fiber of dimension 4000, one identity transport and one cyclic shift P:
    # d^0 = I + P^-1 has rank 3999, and the quotient of ker d^1 = C^1 by its
    # image stops reducing identity columns once the basis spans every row
    import time

    n = 4000
    g, md = circle_morse()
    start = time.perf_counter()
    shift = Matrix.from_entries(F2, n, n, [((i + 1) % n, i, 1) for i in range(n)])
    ls = LocalSystem(g, F2, n, {"a": Matrix.identity(F2, n), "b": shift})
    assert morse_complex(md, ls).cohomology().dims() == {0: 1, 1: 1}
    assert time.perf_counter() - start < 0.5


def test_untwisted_d2_check_within_budget():
    # 400 0-cells, 800 1-cells, 400 2-cells and 800 incidences: 200 squares
    # v -> e, e' -> F whose two paths cancel, and a dense product of the
    # incidence matrices would take 128M steps
    import time

    n = 200
    cells = [("v%d" % i, 0, None, 1) for i in range(2 * n)] + [("e%d" % i, 1, None, 1) for i in range(4 * n)]
    cells += [("F%d" % i, 2, None, 1) for i in range(2 * n)]
    inc = []
    for i in range(n):
        inc += [("v%d" % i, "e%d" % (2 * i), 1, ()), ("v%d" % i, "e%d" % (2 * i + 1), 1, ()),
                ("e%d" % (2 * i), "F%d" % i, 1, ()), ("e%d" % (2 * i + 1), "F%d" % i, -1, ())]
    start = time.perf_counter()
    cd = CellularData(cells=cells, incidences=inc, graph=None)
    assert time.perf_counter() - start < 1.0
    assert len(cd.incidences) == 4 * n


@pytest.mark.parametrize("bad", (0.9, 1.0, True, "1", Fraction(1, 2), Fraction(1)), ids=repr)
def test_non_integer_values_are_refused_not_truncated(bad):
    # point indices, cell dimensions, orientations, incidence coefficients and
    # filtration labels must be ints: a float, a bool, a string or a Fraction
    # is refused naming the point or cell, never truncated by int()
    g, _ = circle_morse()
    with pytest.raises(ParseError, match=r"^critical point 'm' index is not an integer: %s$" % re.escape(repr(bad))):
        MorseData(g, [("m", bad), ("M", 1)], [])
    cells = [("v", 0, None, 1), ("e", 1, None, 1)]
    with pytest.raises(ParseError, match=r"^cell 'e' dimension is not an integer: %s$" % re.escape(repr(bad))):
        CellularData(cells=[cells[0], ("e", bad, None, 1)], incidences=[])
    with pytest.raises(ParseError, match="^cell 'e' orientation must be \\+1 or -1$"):
        CellularData(cells=[cells[0], ("e", 1, None, bad)], incidences=[])
    with pytest.raises(ParseError, match=r"^incidence 'v' -> 'e' coefficient is not an integer: %s$"
                       % re.escape(repr(bad))):
        CellularData(cells=cells, incidences=[("v", "e", bad, ())])
    with pytest.raises(ParseError, match=r"^cell 'e' filtration label is not an integer: %s$" % re.escape(repr(bad))):
        CellularData(cells=cells, incidences=[], filtration={"v": 0, "e": bad})
    cd = CellularData(cells=cells, incidences=[("v", "e", 0, ())], filtration={"v": 0, "e": 1})
    assert cd.filtration == {"v": 0, "e": 1} and cd.incidences == (("v", "e", 0, ()),)


def test_points_are_read_once_and_a_duplicate_is_named():
    # points may be any iterable, read once; a repeated id is named
    g, _ = circle_morse()
    assert MorseData(g, iter([("m", 0), ("M", 1)]), []).points == {"m": 0, "M": 1}
    with pytest.raises(ParseError, match="^duplicate critical point id 'm'$"):
        MorseData(g, [("m", 0), ("M", 1), ("m", 0)], [])
