import random
from unittest import mock

import pytest

from spectower import localsystems
from spectower.errors import InvariantError, ParseError, PreconditionError
from spectower.field import Field
from spectower.localsystems import (
    BaseGraph,
    LocalSubsystem,
    LocalSystem,
    check_homotopy_invariance,
    extend_subsystem,
    free_reduce,
    parse_word,
    word_inverse,
)
from spectower.matrix import Matrix

from helpers import random_invertible, unchecked

Q = Field()
F3 = Field(3)


def circle_graph():
    return BaseGraph(["v"], [("e", "v", "v")])


def torus_graph():
    return BaseGraph(["v"], [("a", "v", "v"), ("b", "v", "v")], [["a", "b", "~a", "~b"]])


def wedge_graph():
    return BaseGraph(["v"], [("a", "v", "v"), ("b", "v", "v")])


def test_word_parsing_and_inverse():
    w = parse_word(["a", "~b"])
    assert w == (("a", 1), ("b", -1))
    assert word_inverse(w) == (("b", 1), ("a", -1))
    assert free_reduce(parse_word(["a", "~a", "b"])) == (("b", 1),)


def test_graph_validation():
    with pytest.raises(ParseError):
        BaseGraph(["v"], [("e", "v", "w")])
    with pytest.raises(ParseError):
        BaseGraph(["v", "w"], [("e", "v", "w")], [["e"]])  # not closed


def test_transport_constant_path():
    ls = LocalSystem.trivial(circle_graph(), Q, 2)
    assert ls.transport_along(parse_word([]), "v") == Matrix.identity(Q, 2)


def test_transport_edge_then_inverse():
    ls = LocalSystem(circle_graph(), Q, 1, {"e": Matrix.from_rows(Q, [[-1]])})
    assert ls.transport_along(parse_word(["e", "~e"])) == Matrix.identity(Q, 1)


def test_transport_squares_monodromy():
    ls = LocalSystem(circle_graph(), Q, 1, {"e": Matrix.from_rows(Q, [[-1]])})
    assert ls.transport_along(parse_word(["e", "e"])) == Matrix.identity(Q, 1)


def test_transport_not_composable():
    g = BaseGraph(["x", "y", "z"], [("e", "x", "y"), ("f", "z", "y")])
    ls = LocalSystem.trivial(g, Q, 1)
    with pytest.raises(PreconditionError):
        ls.transport_along(parse_word(["e", "f"]))
    # but e then f-reversed composes
    assert ls.transport_along(parse_word(["e", "~f"])) == Matrix.identity(Q, 1)


def test_monodromy_walks_each_loop_once(monkeypatch):
    # one word_endpoints walk per loop gives both its basedness and the
    # steps to fold; an unbased loop is refused with its own message
    g = BaseGraph(["v", "w"], [("a", "v", "v"), ("b", "v", "w"), ("c", "w", "v")])
    ls = LocalSystem(g, Q, 1, {"a": Matrix.from_rows(Q, [[2]]), "b": Matrix.from_rows(Q, [[3]]),
                               "c": Matrix.from_rows(Q, [[5]])})
    walks, endpoints = [], g.word_endpoints
    monkeypatch.setattr(g, "word_endpoints", lambda word, start=None: walks.append(word) or endpoints(word, start))
    loops = [parse_word(["a"]), parse_word(["b", "c", "a"]), ()]
    assert ls.monodromy(loops, "v") == [Matrix.from_rows(Q, [[n]]) for n in (2, 30, 1)]
    assert walks == loops
    walks.clear()
    with pytest.raises(PreconditionError, match=r"^loop \['b'\] is not based at 'v'$"):
        ls.monodromy([parse_word(["b"])], "v")
    assert walks == [parse_word(["b"])]


def test_groupoid_law_random_words():
    rng = random.Random(6)
    g = torus_graph()
    # powers of one matrix commute, so the torus relation holds
    m = random_invertible(rng, F3, 2)
    ls = LocalSystem(g, F3, 2, {"a": m, "b": m * m})
    steps = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for _ in range(30):
        v = tuple(rng.choice(steps) for _ in range(rng.randint(0, 4)))
        w = tuple(rng.choice(steps) for _ in range(rng.randint(0, 4)))
        # catenation v then w transports as (transport w) o (transport v)
        assert ls.transport_along(v + w, "v") == ls.transport_along(w, "v") * ls.transport_along(v, "v")


def test_homotopy_invariance_trivial_system():
    for g in (circle_graph(), torus_graph(), wedge_graph()):
        assert check_homotopy_invariance(LocalSystem.trivial(g, Q, 3)) is None


def test_homotopy_invariance_commuting_torus():
    a = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    b = Matrix.from_rows(F3, [[2, 0], [0, 2]])
    ls = LocalSystem(torus_graph(), F3, 2, {"a": a, "b": b})
    assert check_homotopy_invariance(ls) is None


def test_homotopy_invariance_noncommuting_torus():
    a = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    c = Matrix.from_rows(F3, [[1, 0], [1, 1]])
    with unchecked(localsystems, "check_homotopy_invariance"):
        ls = LocalSystem(torus_graph(), F3, 2, {"a": a, "b": c})
    assert check_homotopy_invariance(ls) == parse_word(["a", "b", "~a", "~b"])
    with pytest.raises(InvariantError):
        LocalSystem(torus_graph(), F3, 2, {"a": a, "b": c})


def test_homotopy_invariance_returns_none_or_the_failing_word():
    # None when every relation transports to the identity, on the torus
    # (a b a^-1 b^-1) and the Klein bottle (a b a^-1 b); else the first word
    # that does not, which LocalSystem names in its refusal
    klein = BaseGraph(["v"], [("a", "v", "v"), ("b", "v", "v")], [["a", "b", "~a", "b"]])
    a, flip, two = (Matrix.from_rows(Q, [[x]]) for x in (3, -1, 2))
    for g in (torus_graph(), klein):
        assert check_homotopy_invariance(LocalSystem(g, Q, 1, {"a": a, "b": flip})) is None
    with unchecked(localsystems, "check_homotopy_invariance"):
        bad = LocalSystem(klein, Q, 1, {"a": a, "b": two})
    assert check_homotopy_invariance(bad) == parse_word(["a", "b", "~a", "b"])
    with pytest.raises(InvariantError, match=r"^relation word \['a', 'b', '~a', 'b'\] does not transport"):
        LocalSystem(klein, Q, 1, {"a": a, "b": two})


def test_relation_steps_read_edge_ids_as_strings():
    # edge ids are strings, so a relation given as parsed steps with an int
    # id is read the same way as its edge
    g = BaseGraph(["v"], [(1, "v", "v")], [((1, 1), (1, -1))])
    assert g.relations == ((("1", 1), ("1", -1)),)
    ls = LocalSystem(g, Q, 1, {"1": Matrix.from_rows(Q, [[2]])})
    assert check_homotopy_invariance(ls) is None


def test_transport_must_be_invertible():
    with pytest.raises(InvariantError):
        LocalSystem(circle_graph(), Q, 1, {"e": Matrix.zero(Q, 1, 1)})


@pytest.mark.parametrize("field", (Field(2), F3, Q), ids=str)
def test_identity_transports_are_their_own_inverses(monkeypatch, field):
    # an identity transport is inverted without a solve, each one built on
    # its own; any other transport takes one verified solve, and a singular
    # one is still refused
    solved, solve = [], Matrix.solve
    monkeypatch.setattr(Matrix, "solve", lambda self, rhs: solved.append(self) or solve(self, rhs))
    ls = LocalSystem(torus_graph(), field, 3, {e: Matrix.identity(field, 3) for e in ("a", "b")})
    assert solved == []
    assert all(ls.step_matrix((e, -1)) is ls.transport_maps[e] for e in ("a", "b"))
    t = Matrix.from_rows(field, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])  # determinant 1 over every field
    ls = LocalSystem(torus_graph(), field, 3, {"a": t, "b": Matrix.identity(field, 3)})
    assert solved == [t]
    assert t * ls.step_matrix(("a", -1)) == Matrix.identity(field, 3) == ls.transport_along(parse_word(["a", "~a"]))
    with pytest.raises(InvariantError, match=r"^transport for edge 'a' is not invertible$"):
        LocalSystem(torus_graph(), field, 3, {"a": Matrix.zero(field, 3, 3), "b": Matrix.identity(field, 3)})


# -- extension -------------------------------------------------------------------


def test_extension_of_fully_defined_subsystem():
    g = wedge_graph()
    ta = Matrix.from_rows(Q, [[2]])
    tb = Matrix.from_rows(Q, [[-1]])
    sub = LocalSubsystem(Q, 1, ["v"], [("la", parse_word(["a"]), ta), ("lb", parse_word(["b"]), tb)])
    rep = extend_subsystem(sub, g)
    assert rep.surjective is True
    assert rep.extension.transport_maps["a"] == ta
    assert rep.extension.transport_maps["b"] == tb


def test_extension_refuses_one_that_does_not_restrict_to_the_subsystem(monkeypatch):
    # the extension is checked against every subsystem path: with the word
    # search's witnesses for the free generators a and b swapped, the wedge
    # extension transports a by tb, and path la is refused
    decide = localsystems._decide_surjectivity

    def swapped(*args):
        surjective, witnesses = decide(*args)
        return surjective, {"a": witnesses["b"], "b": witnesses["a"]}

    monkeypatch.setattr(localsystems, "_decide_surjectivity", swapped)
    ta, tb = Matrix.from_rows(Q, [[2]]), Matrix.from_rows(Q, [[-1]])
    sub = LocalSubsystem(Q, 1, ["v"], [("la", parse_word(["a"]), ta), ("lb", parse_word(["b"]), tb)])
    with pytest.raises(InvariantError, match=r"^extension does not restrict to the subsystem transport on path 'la'$"):
        extend_subsystem(sub, wedge_graph())


def test_extension_forced_on_wedge():
    # spanning tree is a point; both loop generators present: factorization
    # through the free group is forced and unique
    g = wedge_graph()
    m = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    sub = LocalSubsystem(
        F3, 2, ["v"],
        [("la", parse_word(["a", "b"]), m), ("lb", parse_word(["b"]), Matrix.identity(F3, 2))],
    )
    rep = extend_subsystem(sub, g)
    assert rep.surjective is True
    ext = rep.extension
    assert ext.transport_along(parse_word(["a", "b"]), "v") == m
    assert ext.transport_along(parse_word(["b"]), "v") == Matrix.identity(F3, 2)
    # transport of a alone is forced: phi(ab) = phi(b) phi(a)
    assert ext.transport_maps["a"] == m


def test_extension_word_search_cut_by_max_states_is_unknown():
    # loops a and ab generate pi_1 of the wedge, so the default search finds
    # witnesses for a and b; cut at 3 states it finds no witness for b and
    # can neither prove nor disprove surjectivity
    g = wedge_graph()
    sub = LocalSubsystem(Q, 1, ["v"], [("la", parse_word(["a"]), Matrix.from_rows(Q, [[1]])),
                                       ("lab", parse_word(["a", "b"]), Matrix.from_rows(Q, [[2]]))])
    rep = extend_subsystem(sub, g)
    assert rep.surjective is True
    assert rep.extension.transport_maps["b"] == Matrix.from_rows(Q, [[2]])
    with mock.patch.object(localsystems, "MAX_STATES", 3):
        cut = extend_subsystem(sub, g)
    assert cut.surjective is None
    assert cut.extension is None


def test_extension_index_two_subgroup_rejected():
    g = circle_graph()
    sub = LocalSubsystem(Q, 1, ["v"], [("sq", parse_word(["e", "e"]), Matrix.from_rows(Q, [[4]]))])
    rep = extend_subsystem(sub, g)
    assert rep.surjective is False
    assert rep.extension is None


def test_extension_on_torus_presentation():
    g = torus_graph()
    a = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    b = Matrix.from_rows(F3, [[2, 0], [0, 2]])
    sub = LocalSubsystem(F3, 2, ["v"], [("la", parse_word(["a"]), a), ("lb", parse_word(["b"]), b)])
    rep = extend_subsystem(sub, g)
    assert rep.surjective is True
    assert check_homotopy_invariance(rep.extension) is None
    assert rep.extension.transport_maps["a"] == a
    assert rep.extension.transport_maps["b"] == b


def test_extension_inconsistent_with_relations():
    # non-commuting transports on the torus cannot factor through pi_1
    g = torus_graph()
    a = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    c = Matrix.from_rows(F3, [[1, 0], [1, 1]])
    sub = LocalSubsystem(F3, 2, ["v"], [("la", parse_word(["a"]), a), ("lb", parse_word(["b"]), c)])
    with pytest.raises(InvariantError):
        extend_subsystem(sub, g)


def test_extension_across_two_vertices():
    # carrier on both vertices, transports defined on a connecting path and
    # one loop; the remaining edge transport is forced
    g = BaseGraph(["x", "y"], [("e", "x", "y"), ("f", "x", "y")])
    t_e = Matrix.from_rows(Q, [[3]])
    loop = parse_word(["e", "~f"])  # x -> y -> x
    t_loop = Matrix.from_rows(Q, [[-2]])
    sub = LocalSubsystem(Q, 1, ["x", "y"], [("pe", parse_word(["e"]), t_e), ("lp", loop, t_loop)])
    rep = extend_subsystem(sub, g)
    assert rep.surjective is True
    ext = rep.extension
    assert ext.transport_maps["e"] == t_e
    # phi(e . ~f) = phi(~f) phi(e) = t_loop  =>  phi(f) = t_e * t_loop^{-1}
    assert ext.transport_maps["f"] == t_e * t_loop.inverse()


def test_extension_disconnected_support():
    g = BaseGraph(["x", "y"], [("e", "x", "y")])
    sub = LocalSubsystem(Q, 1, ["x", "y"], [("cx", (), Matrix.identity(Q, 1))])
    with pytest.raises(PreconditionError):
        extend_subsystem(sub, g)


def test_extension_unknown_on_exhausted_search():
    # perfect-ish loop set: {e^2} abelianizes onto 2Z but we search with
    # depth 0 so nothing is provable; mod-2 disproof still wins first.
    # Use a rank-2 wedge where loops generate a proper subgroup that still
    # spans every abelianization we test: commutators are invisible to H_1,
    # so {a, b^2 conjugated mess} with depth 1 gives "unknown" on gen b
    g = wedge_graph()
    sub = LocalSubsystem(
        Q, 1, ["v"],
        [("la", parse_word(["a"]), Matrix.from_rows(Q, [[1]])),
         ("lb", parse_word(["b", "a", "b", "~a", "~b"]), Matrix.from_rows(Q, [[1]]))],
    )
    rep = extend_subsystem(sub, g, max_word_depth=1)
    assert rep.surjective is None
    assert rep.extension is None


def test_monodromy_conjugation_covariance():
    # moving the base point along a path conjugates the monodromy image:
    # the loop e.~f at x becomes ~f.e at y, conjugated by transport along e
    g = BaseGraph(["x", "y"], [("e", "x", "y"), ("f", "x", "y")])
    t_e = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    t_f = Matrix.from_rows(F3, [[2, 0], [1, 2]])
    ls = LocalSystem(g, F3, 2, {"e": t_e, "f": t_f})
    mx = ls.transport_along(parse_word(["e", "~f"]), "x")
    my = ls.transport_along(parse_word(["~f", "e"]), "y")
    t_conn = ls.transport_along(parse_word(["e"]), "x")
    assert my == t_conn * mx * t_conn.inverse()
    assert my != mx  # the conjugation is honest: these transports differ


def test_extension_trivializes_vertices_off_the_carrier_along_the_tree():
    # the carrier is x alone; y is reached only through the tree edge e, so
    # its trivialization is the tree path: e transports by the identity and
    # the loop b carries the transport of the path e b ~e
    g = BaseGraph(["x", "y"], [("a", "x", "x"), ("e", "x", "y"), ("b", "y", "y")])
    t_a = Matrix.from_rows(F3, [[1, 1], [0, 1]])
    t_ebe = Matrix.from_rows(F3, [[2, 0], [1, 1]])
    sub = LocalSubsystem(F3, 2, ["x"], [("pa", parse_word(["a"]), t_a), ("pb", parse_word(["e", "b", "~e"]), t_ebe)])
    rep = extend_subsystem(sub, g)
    assert rep.surjective is True
    assert rep.extension.transport_maps["a"] == t_a
    assert rep.extension.transport_maps["e"] == Matrix.identity(F3, 2)
    assert rep.extension.transport_maps["b"] == t_ebe


def test_a_singular_transport_on_a_constant_path_is_refused():
    # a constant path carries no step, yet its transport must be invertible
    sub = LocalSubsystem(F3, 2, ["v"], [("c", (), Matrix.zero(F3, 2, 2))])
    with pytest.raises(InvariantError, match=r"^matrix is not invertible \(rank 0 of 2\)$"):
        extend_subsystem(sub, circle_graph())
