"""Morse and cellular cochain complexes twisted by a local system.

Both have the generators x|i, for each critical point or cell x and fiber
index i < fiber_dim, and are placed by `CochainComplex.from_blocks`, one
fiber-to-fiber block per trajectory or incidence.  A trajectory record
(id, src, dst, sign, word) flows downward, from the higher-index point
`src` to the lower-index `dst`, and its word follows the flow (a path in
the base graph).  The cohomological differential raises the Morse index,
so its block maps the fiber over `dst` to the fiber over `src`: sign *
the transport along the *inverse* word.

Cells are anchored at base-graph vertices; incidence words connect the
anchors, and an incidence contributes coeff * transport.  The 0/1-cell
exceptional case (a 1-cell whose two endpoints coincide) contributes
orientation * (plus-transport - minus-transport).
"""

from .complexes import JOIN, CochainComplex, GradedBasis
from .errors import InvariantError, ParseError, PreconditionError, _int
from .field import Q
from .matrix import Matrix


class Trajectory:
    __slots__ = ("id", "src", "dst", "sign", "word")

    def __init__(self, id, src, dst, sign, word):
        self.id = str(id)
        self.src = str(src)
        self.dst = str(dst)
        if type(sign) is not int or sign not in (1, -1):
            raise ParseError("trajectory %r has sign %r, expected +1 or -1" % (id, sign))
        self.sign = sign
        self.word = tuple(word)


class MorseData:
    """Critical points with indices, signed trajectories, and a base graph."""

    def __init__(self, graph, points, trajectories):
        self.graph = graph
        self.points = {}
        for x, k in points:
            if (x := str(x)) in self.points:
                raise ParseError("duplicate critical point id %r" % x)
            self.points[x] = _int(k, "critical point %r index", x)
        vset = set(graph.vertices)
        for x in self.points:
            if x not in vset:
                raise ParseError("critical point %r is not a base graph vertex" % x)
        trajs = []
        ids = set()
        for t in trajectories:
            if not isinstance(t, Trajectory):
                t = Trajectory(*t)
            if t.id in ids:
                raise ParseError("duplicate trajectory id %r" % t.id)
            ids.add(t.id)
            for end in (t.src, t.dst):
                if end not in self.points:
                    raise ParseError("trajectory %r endpoint %r is not a critical point" % (t.id, end))
            if self.points[t.src] <= self.points[t.dst]:
                raise ParseError(
                    "trajectory %r must flow from a higher index to a lower one" % t.id
                )
            a, b = graph.word_endpoints(t.word, t.src if not t.word else None)
            if (a, b) != (t.src, t.dst):
                raise ParseError(
                    "trajectory %r word runs %r -> %r, expected %r -> %r" % (t.id, a, b, t.src, t.dst)
                )
            trajs.append(t)
        self.trajectories = tuple(trajs)

    def differential_trajectories(self):
        """Trajectories with index drop exactly one (the others only feed
        transport-composition tests)."""
        return [t for t in self.trajectories if self.points[t.src] == self.points[t.dst] + 1]

    def trajectory(self, tid):
        for t in self.trajectories:
            if t.id == tid:
                return t
        raise KeyError("no trajectory %r" % tid)


def _twisted_complex(f, outer, dim, blocks, what):
    """The complex on x|i (i < dim) for the (x, k) of `outer`; d sums the blocks (x, y, M), fiber x to fiber y."""
    for name, _ in outer:
        if JOIN in name:
            raise ParseError("id %r must not contain %r" % (name, JOIN))
    fiber = GradedBasis([(str(i), 0) for i in range(dim)])
    cx = CochainComplex.from_blocks(f, outer, fiber, [(x, y, 0, m) for x, y, m in blocks], check=False)
    _report_d2_pairs(cx, what)
    return cx


def _report_d2_pairs(cx, what):
    for k, prod in cx.d_squared_defects():
        i, j, _ = prod.entries()[0]
        src = cx.basis.gens(k)[j].split(JOIN)[0]
        dst = cx.basis.gens(k + 2)[i].split(JOIN)[0]
        raise InvariantError("twisted %s differential fails d^2 = 0 between %r and %r" % (what, src, dst))


def morse_complex(md, ls):
    """Cochain complex of the critical points with local coefficients.

    Generators are (critical point) x (fiber basis), graded by Morse
    index; d(m<x>) sums sign * transport^{-1}(m) over trajectories into x
    from one index higher.  transport^{-1} is the transport along the
    inverse word, made of the edge inverses the local system verified.
    """
    from .localsystems import word_inverse  # loaded already: ls is a LocalSystem
    if ls.graph != md.graph:
        raise ParseError("local system lives on a different base graph")
    blocks = []
    for t in md.differential_trajectories():
        tinv = ls.transport_along(word_inverse(t.word), start=t.dst)
        blocks.append((t.dst, t.src, tinv if t.sign == 1 else -tinv))
    return _twisted_complex(ls.field, list(md.points.items()), ls.fiber_dim, blocks, "Morse")


class CellularData:
    """Cells with orientations, incidence numbers, and transport words.

    `filtration`, when given, labels each cell with a base-skeleton index
    (used by the fibration comparison).  The untwisted incidence complex
    is checked for d^2 = 0 over the integers at construction; exceptional
    0/1 incidences contribute zero untwisted.
    """

    def __init__(self, cells, incidences, exceptional=(), graph=None, filtration=None):
        self.graph = graph
        self.cells = {}
        order = []
        for c in cells:
            cid, dim = str(c[0]), _int(c[1], "cell %r dimension", str(c[0]))
            anchor = str(c[2]) if len(c) > 2 and c[2] is not None else None
            orient = c[3] if len(c) > 3 else 1
            if cid in self.cells:
                raise ParseError("duplicate cell id %r" % cid)
            if type(orient) is not int or orient not in (1, -1):
                raise ParseError("cell %r orientation must be +1 or -1" % cid)
            if graph is not None and anchor is not None and anchor not in set(graph.vertices):
                raise ParseError("cell %r anchor %r is not a base graph vertex" % (cid, anchor))
            self.cells[cid] = (dim, anchor, orient)
            order.append(cid)
        self.order = tuple(order)
        inc = []
        for src, dst, coeff, word in incidences:
            src, dst = str(src), str(dst)
            word = tuple(word)
            self._check_pair(src, dst, word)
            inc.append((src, dst, _int(coeff, "incidence %r -> %r coefficient", src, dst), word))
        self.incidences = tuple(inc)
        exc = []
        for src, dst, plus, minus in exceptional:
            src, dst = str(src), str(dst)
            plus, minus = tuple(plus), tuple(minus)
            if self.cells[src][0] != 0 or self.cells[dst][0] != 1:
                raise ParseError("exceptional incidence %r -> %r must join a 0-cell to a 1-cell" % (src, dst))
            self._check_pair(src, dst, plus)
            self._check_pair(src, dst, minus)
            exc.append((src, dst, plus, minus))
        self.exceptional = tuple(exc)
        self.filtration = None
        if filtration is not None:
            self.filtration = {str(c): _int(p, "cell %r filtration label", str(c)) for c, p in filtration.items()}
            for c in self.filtration:
                if c not in self.cells:
                    raise ParseError("filtration labels unknown cell %r" % c)
        self._check_untwisted()

    def _check_pair(self, src, dst, word):
        if src not in self.cells or dst not in self.cells:
            raise ParseError("incidence references unknown cell %r -> %r" % (src, dst))
        if self.cells[dst][0] != self.cells[src][0] + 1:
            raise ParseError("incidence %r -> %r must raise dimension by one" % (src, dst))
        if self.graph is not None and word:
            a, b = self.graph.word_endpoints(word)
            if (a, b) != (self.cells[src][1], self.cells[dst][1]):
                raise ParseError(
                    "incidence word %r -> %r runs %r -> %r, expected the anchors %r -> %r"
                    % (src, dst, a, b, self.cells[src][1], self.cells[dst][1])
                )
        elif self.graph is None and word:
            raise ParseError("transport words need a base graph")
        if self.graph is not None and not word:
            if self.cells[src][1] != self.cells[dst][1]:
                raise ParseError(
                    "incidence %r -> %r has an empty word but different anchors" % (src, dst)
                )

    def dims(self):
        return sorted({d for d, _, _ in self.cells.values()})

    def cells_of_dim(self, k):
        return [c for c in self.order if self.cells[c][0] == k]

    def _untwisted_matrix(self, k):
        """The integer incidence matrix from the k-cells to the (k+1)-cells, over Q."""
        rpos = {c: i for i, c in enumerate(self.cells_of_dim(k + 1))}
        cpos = {c: j for j, c in enumerate(self.cells_of_dim(k))}
        return Matrix.from_entries(Q, len(rpos), len(cpos), [(rpos[dst], cpos[src], coeff)
                                   for src, dst, coeff, _ in self.incidences if self.cells[src][0] == k])

    def _check_untwisted(self):
        for k in self.dims():
            dd = self._untwisted_matrix(k + 1) * self._untwisted_matrix(k)
            if not dd.is_zero():
                i, j = min(dd.support())  # the lowest (k+2)-cell, then the lowest k-cell
                raise InvariantError(
                    "untwisted incidence complex fails d^2 = 0 between %r and %r"
                    % (self.cells_of_dim(k)[j], self.cells_of_dim(k + 2)[i])
                )


def cellular_complex(cd, ls=None, field=None):
    """Twisted cellular cochain complex via incidence numbers.

    With ls=None (or a trivial system) this is the untwisted incidence
    complex with `field` coefficients, entry for entry.
    """
    if ls is None and field is None:
        raise PreconditionError("cellular_complex needs a local system or a field")
    if ls is not None and cd.graph is not None and ls.graph != cd.graph:
        raise ParseError("local system lives on a different base graph")
    f, dim = (field, 1) if ls is None else (ls.field, ls.fiber_dim)

    def t(word, cell):  # untwisted, the identity of rank one
        return ls.transport_along(word, start=cd.cells[cell][1]) if ls is not None else Matrix.identity(f, 1)

    blocks = [(src, dst, t(word, src).scale(coeff)) for src, dst, coeff, word in cd.incidences]
    blocks += [(src, dst, (t(plus, src) - t(minus, src)).scale(cd.cells[src][2]))
               for src, dst, plus, minus in (cd.exceptional if ls is not None else ())]  # untwisted they cancel
    return _twisted_complex(f, [(c, cd.cells[c][0]) for c in cd.order], dim, blocks, "cellular")
