"""Local coefficient systems over a combinatorial base graph.

The base is a finite graph (the 1-skeleton of a cell structure) together
with a list of closed edge words declared null-homotopic (2-cell
boundaries).  A word is a tuple of steps (edge_id, +1|-1), traversed left
to right.

Composition convention, used consistently everywhere in this package:
for a catenation alpha . beta (traverse alpha first),

    transport(alpha . beta) = transport(beta) o transport(alpha),

so transporting along a word multiplies the step matrices onto the left.
"""

from collections import deque

from .errors import InvariantError, ParseError, PreconditionError, _int
from .field import Field
from .matrix import Matrix, _is_identity


# -- edge words --------------------------------------------------------------


def parse_word(items):
    """["a", "~b"] -> ((a, +1), (b, -1)).  "~" marks a reversed edge."""
    word = []
    for it in items:
        if isinstance(it, (tuple, list)) and len(it) == 2:
            e, s = it
            if s not in (1, -1):
                raise ParseError("bad step sign %r" % (s,))
            word.append((str(e), s))
        elif isinstance(it, str):
            if it.startswith("~"):
                word.append((it[1:], -1))
            else:
                word.append((it, 1))
        else:
            raise ParseError("bad word step %r" % (it,))
    return tuple(word)


def word_to_strings(word):
    return [e if s == 1 else "~" + e for e, s in word]


def word_inverse(word):
    return tuple((e, -s) for e, s in reversed(word))


def free_reduce(word):
    out = []
    for step in word:
        if out and out[-1][0] == step[0] and out[-1][1] == -step[1]:
            out.pop()
        else:
            out.append(step)
    return tuple(out)


class BaseGraph:
    """Vertices, directed edges, and null-homotopic relation words."""

    def __init__(self, vertices, edges, relations=()):
        self.vertices = tuple(str(v) for v in vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ParseError("duplicate vertex ids")
        self.edges = {}
        for eid, src, dst in edges:
            eid, src, dst = str(eid), str(src), str(dst)
            if eid in self.edges:
                raise ParseError("duplicate edge id %r" % eid)
            if src not in vset or dst not in vset:
                raise ParseError("edge %r has unknown endpoint" % eid)
            self.edges[eid] = (src, dst)
        self.relations = tuple(parse_word(w) for w in relations)
        for w in self.relations:
            a, b = self.word_endpoints(w)
            if a != b:
                raise ParseError("relation word %s is not a closed loop" % word_to_strings(w))

    def __eq__(self, other):
        return (
            isinstance(other, BaseGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.relations == other.relations
        )

    __hash__ = None

    def step_endpoints(self, step):
        e, s = step
        if e not in self.edges:
            raise PreconditionError("unknown edge %r in word" % e)
        src, dst = self.edges[e]
        return (src, dst) if s == 1 else (dst, src)

    def word_endpoints(self, word, start=None):
        """(first vertex, last vertex); raises if steps do not chain."""
        at = start
        first = start
        for step in word:
            a, b = self.step_endpoints(step)
            if at is not None and a != at:
                raise PreconditionError(
                    "word is not composable: step %s starts at %r, expected %r"
                    % (word_to_strings([step])[0], a, at)
                )
            if first is None:
                first = a
            at = b
        if first is None:
            raise PreconditionError("empty word needs an explicit base vertex")
        return first, at if at is not None else first

    def adjacency(self):
        """{v: [(w, one-step word v -> w, None), ...]}: every edge, both ways, as moves of `_search`."""
        moves = {v: [] for v in self.vertices}
        for eid, (src, dst) in self.edges.items():
            moves[src].append((dst, ((eid, 1),), None))
            moves[dst].append((src, ((eid, -1),), None))
        return moves

    def is_connected(self):
        return not self.vertices or len(_search(self.vertices[0], ((), None), self.adjacency())) == len(self.vertices)

    def spanning_tree(self, root):
        """BFS tree: (tree edge set, path word root -> v for every reachable v)."""
        paths = {v: w for v, (w, _) in _search(root, ((), None), self.adjacency()).items()}
        return {w[-1][0] for w in paths.values() if w}, paths

    def loop_to_free(self, word, tree):
        """Image of a closed word in the free group on non-tree edges.

        Collapsing the spanning tree retracts the graph onto a wedge of
        circles; tree steps vanish and the rest is freely reduced.
        """
        return free_reduce(tuple(step for step in word if step[0] not in tree))


def _search(root, start, steps):
    """Breadth-first search from root: {v: (word, matrix)} for every vertex it reaches.

    steps[v] lists the moves (w, word, matrix) out of v.  root holds start,
    and the first move into w appends its word to the one held at v and
    multiplies its matrix onto the left; graph moves carry None, no matrix.
    """
    found = {root: start}
    todo = deque([root])
    while todo:
        v = todo.popleft()
        word, acc = found[v]
        for w, step, m in steps.get(v, ()):
            if w not in found:
                found[w] = (word + step, None if m is None else m * acc)
                todo.append(w)
    return found


# -- local systems ------------------------------------------------------------


class LocalSystem:
    """An invertible transport matrix per edge, trivial along relations.

    All fibers are copies of the same module: fiber_dim columns over the
    field.  Construction checks invertibility of every edge transport and
    that every declared relation word transports to the identity.  An
    identity transport is its own inverse, with no solve; any other is
    solved against one identity that the system builds once.
    """

    def __init__(self, graph, field, fiber_dim, transport):
        self.graph = graph
        self.field = field
        self.fiber_dim = _int(fiber_dim, "local system fiber_dim")
        self.transport_maps = {}
        self._inverses, ident = {}, Matrix.identity(field, self.fiber_dim)
        for eid in graph.edges:
            m = transport.get(eid)
            if m is None:
                raise ParseError("no transport matrix for edge %r" % eid)
            if m.shape != (self.fiber_dim, self.fiber_dim) or m.field != field:
                raise ParseError("transport for edge %r has shape %s" % (eid, m.shape))
            self.transport_maps[eid] = m
            self._inverses[eid] = m if _is_identity(m) else m.solve(ident)
            if self._inverses[eid] is None:
                raise InvariantError("transport for edge %r is not invertible" % eid)
        if set(transport) - set(graph.edges):
            raise ParseError("transport given for unknown edges %s" % sorted(set(transport) - set(graph.edges)))
        if (word := check_homotopy_invariance(self)) is not None:
            raise InvariantError("relation word %s does not transport to the identity" % word_to_strings(word))

    @classmethod
    def trivial(cls, graph, field, fiber_dim=1):
        ident = Matrix.identity(field, fiber_dim)
        return cls(graph, field, fiber_dim, {e: ident for e in graph.edges})

    def step_matrix(self, step):
        e, s = step
        return self.transport_maps[e] if s == 1 else self._inverses[e]

    def transport_along(self, word, start=None):
        """Ordered composition along the word (left factor traversed first)."""
        if word:
            self.graph.word_endpoints(word, start)
        return self._fold(word)

    def _fold(self, word):
        """The step matrices of a composable word multiplied in order; I for the empty word."""
        if not word:
            return Matrix.identity(self.field, self.fiber_dim)
        acc = self.step_matrix(word[0])
        for step in word[1:]:
            acc = self.step_matrix(step) * acc
        return acc

    def monodromy(self, loops, base):
        """Transport matrices of based loop words, each checked by one walk."""
        out = []
        for w in loops:
            if self.graph.word_endpoints(w, base) != (base, base):
                raise PreconditionError("loop %s is not based at %r" % (word_to_strings(w), base))
            out.append(self._fold(w))
        return out


def check_homotopy_invariance(ls):
    """The first declared relation word that does not transport to the identity, or None."""
    return next((w for w in ls.graph.relations if not _is_identity(ls.transport_along(w))), None)


# -- local subsystems and extension -------------------------------------------


class LocalSubsystem:
    """Transport data on a restricted path set, closed under the groupoid ops.

    Only generators are stored: (name, word, matrix) with endpoints in the
    carrier.  The path set is their closure under inversion, catenation and
    constants; transports extend accordingly.
    """

    def __init__(self, field, fiber_dim, carrier, generators):
        self.field = field
        self.fiber_dim = _int(fiber_dim, "local subsystem fiber_dim")
        self.carrier = tuple(str(c) for c in carrier)
        gens = []
        names = set()
        for name, word, m in generators:
            name = str(name)
            if name in names:
                raise ParseError("duplicate subsystem path name %r" % name)
            names.add(name)
            if m.shape != (self.fiber_dim, self.fiber_dim) or m.field != field:
                raise ParseError("transport for path %r has shape %s" % (name, m.shape))
            gens.append((name, tuple(word), m))
        self.generators = tuple(gens)


class MonodromyReport:
    """Extension verdict for a local subsystem.

    surjective is True / False / None ("unknown": the bounded word search
    was exhausted without a witness or a disproof).  extension, when
    present, restricts to the subsystem transports exactly.
    """

    __slots__ = (
        "base_point",
        "loop_generators",
        "pi1_generators",
        "relations",
        "surjective",
        "extension",
        "witnesses",
    )

    def __init__(self, base_point, loop_generators, pi1_generators, relations, surjective, extension, witnesses):
        self.base_point = base_point
        self.loop_generators = loop_generators
        self.pi1_generators = pi1_generators
        self.relations = relations
        self.surjective = surjective
        self.extension = extension
        self.witnesses = witnesses


def _subsystem_reach(sub, graph):
    """vertex -> (P-word, transport matrix) for every vertex the subsystem paths reach from carrier[0]."""
    moves = {}
    for _, w, m in sub.generators:
        inverse = m.inverse()  # on a constant path too: a singular transport is refused
        if w:
            a, b = graph.word_endpoints(w)
            moves.setdefault(a, []).append((b, w, m))
            moves.setdefault(b, []).append((a, word_inverse(w), inverse))
    return _search(sub.carrier[0], ((), Matrix.identity(sub.field, sub.fiber_dim)), moves)


MAX_STATES = 200000  # words the surjectivity search visits before it answers "unknown"


def extend_subsystem(sub, graph, max_word_depth=6):
    """Decide whether the subsystem loops generate pi_1 of the base at the
    carrier's first vertex, and build the unique extension when they do.

    Surjectivity is three-valued: False only on a sound disproof (the loop
    and relator images fail to span the abelianization over Q or a small
    prime); True only with explicit word-search witnesses for every free
    generator of pi_1(base); otherwise None ("unknown"), also once the
    word search has passed MAX_STATES words.
    """
    for c in sub.carrier:
        if c not in set(graph.vertices):
            raise ParseError("carrier vertex %r is not in the base graph" % c)
    for name, w, _ in sub.generators:
        a, b = graph.word_endpoints(w) if w else (sub.carrier[0], sub.carrier[0])
        if a not in sub.carrier or b not in sub.carrier:
            raise ParseError("path %r has an endpoint outside the carrier" % name)
    if not graph.is_connected():
        raise PreconditionError("base graph is not connected")

    reach = _subsystem_reach(sub, graph)
    missing = [c for c in sub.carrier if c not in reach]
    if missing:
        raise PreconditionError("subsystem support is not connected (cannot reach %s)" % missing)

    x0 = sub.carrier[0]
    inverses = {v: m.inverse() for v, (_, m) in reach.items()}
    tree, tree_paths = graph.spanning_tree(x0)
    free_gens = [e for e in graph.edges if e not in tree]

    loop_gens = []  # (name, loop word, free image, matrix)
    for name, w, m in sub.generators:
        a, b = graph.word_endpoints(w) if w else (x0, x0)
        wa, ma = reach[a]
        loop = wa + w + word_inverse(reach[b][0])
        mat = inverses[b] * m * ma
        loop_gens.append((name, loop, graph.loop_to_free(loop, tree), mat))
    relators = [graph.loop_to_free(rw, tree) for rw in graph.relations]

    surjective, witnesses = _decide_surjectivity(free_gens, loop_gens, relators, max_word_depth)

    extension = None
    if surjective is True:
        extension = _build_extension(sub, graph, x0, reach, inverses, tree, tree_paths, loop_gens, witnesses)

    return MonodromyReport(
        base_point=x0,
        loop_generators=tuple((n, lw, fi) for n, lw, fi, _ in loop_gens),
        pi1_generators=tuple(free_gens),
        relations=tuple(relators),
        surjective=surjective,
        extension=extension,
        witnesses=witnesses,
    )


def _abelianization_disproof(free_gens, loop_images, relator_images):
    """True if the images provably fail to generate pi_1 (checked in H_1);
    the caller answers for a tree (no free generators) first."""
    m = len(free_gens)
    idx = {e: i for i, e in enumerate(free_gens)}
    words = loop_images + relator_images
    triples = [(idx[e], j, s) for j, w in enumerate(words) for e, s in w]  # duplicates accumulate
    return any(Matrix.from_entries(field, m, len(words), triples).rank() < m
               for field in (Field(), Field(2), Field(3), Field(5), Field(7)))


def _decide_surjectivity(free_gens, loop_gens, relators, depth):
    loop_images = [fi for _, _, fi, _ in loop_gens]
    if not free_gens:
        return True, {}
    if _abelianization_disproof(free_gens, loop_images, relators):
        return False, {}

    # bounded BFS over products of loop generators and relators (relators
    # are trivial in pi_1, so membership in the generated subgroup of the
    # free group soundly certifies membership in the image subgroup)
    alphabet = [((kind, i, s), img if s == 1 else word_inverse(img))
                for kind, images in (("loop", loop_images), ("rel", relators))
                for i, img in enumerate(images) for s in (1, -1)]

    targets = {((e, 1),): e for e in free_gens}
    witnesses = {}
    seen = {(): ()}
    frontier = [()]
    for _ in range(depth):
        if len(witnesses) == len(free_gens):
            break
        nxt = []
        for state in frontier:
            expr = seen[state]
            for sym, img in alphabet:
                w = free_reduce(state + img)
                if w in seen:
                    continue
                seen[w] = expr + (sym,)
                if w in targets and targets[w] not in witnesses:
                    witnesses[targets[w]] = seen[w]
                nxt.append(w)
                if len(seen) > MAX_STATES:
                    nxt = []
                    break
            else:
                continue
            break
        frontier = nxt
        if not frontier:
            break
    if len(witnesses) == len(free_gens):
        return True, witnesses
    return None, witnesses


def _build_extension(sub, graph, x0, reach, inverses, tree, tree_paths, loop_gens, witnesses):
    """The extension of sub over graph, each free generator of pi_1(graph, x0) given by its witness.

    rho is pi_1 as a local system: the identity on tree edges, and on a
    free edge its witness evaluated on the loop generators (relators
    transport by the identity).  Vertex v is trivialized by a path w_v from
    x0 with matrix T_v: its reach on the carrier component (T_v^-1
    in `inverses`), its tree path and the identity elsewhere.  Edge
    e: u -> v transports by T_v . rho(w_u . e . w_v^-1) . T_u^-1, which is
    exact: tree steps are identities and a cancelled pair multiplies to the
    identity, so rho of the loop is rho of its free image.
    """
    field, dim = sub.field, sub.fiber_dim
    ident = Matrix.identity(field, dim)
    loops = {(i, s): m if s == 1 else m.inverse() for i, (*_, m) in enumerate(loop_gens) for s in (1, -1)}

    def evaluate(expr):
        acc = ident
        for kind, i, s in expr:
            if kind == "loop":
                acc = loops[i, s] * acc
        return acc

    triv = {v: reach.get(v, (tree_paths[v], ident)) for v in graph.vertices}
    try:  # ext is rho conjugated vertex by vertex: both fail first at the same relation word
        rho = LocalSystem(graph, field, dim, {e: ident if e in tree else evaluate(witnesses[e]) for e in graph.edges})
        transport_maps = {}
        for e in sorted(graph.edges):
            u, v = graph.edges[e]
            (wu, _), (wv, tv) = triv[u], triv[v]
            transport_maps[e] = tv * rho.transport_along(wu + ((e, 1),) + word_inverse(wv)) * inverses.get(u, ident)
        ext = LocalSystem(graph, field, dim, transport_maps)
    except InvariantError as exc:
        raise InvariantError("subsystem transports admit no consistent extension: %s" % exc) from exc
    for name, w, m in sub.generators:
        a, _ = graph.word_endpoints(w) if w else (x0, x0)
        if ext.transport_along(w, a) != m:
            raise InvariantError("extension does not restrict to the subsystem transport on path %r" % name)
    return ext
