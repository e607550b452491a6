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

from .errors import InvariantError, ParseError, PreconditionError
from .field import Field
from .matrix import Matrix

__all__ = [
    "BaseGraph",
    "LocalSystem",
    "LocalSubsystem",
    "MonodromyReport",
    "HomotopyCheck",
    "parse_word",
    "word_to_strings",
    "word_inverse",
    "free_reduce",
    "transport",
    "check_homotopy_invariance",
    "extend_subsystem",
]


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
        rels = []
        for w in relations:
            t = tuple(w)
            rels.append(t if _is_word(t) else parse_word(w))
        self.relations = tuple(rels)
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
        adj = {v: [] for v in self.vertices}
        for eid in self.edges:
            src, dst = self.edges[eid]
            adj[src].append((eid, 1, dst))
            adj[dst].append((eid, -1, src))
        return adj

    def is_connected(self):
        if not self.vertices:
            return True
        adj = self.adjacency()
        seen = {self.vertices[0]}
        todo = deque(seen)
        while todo:
            v = todo.popleft()
            for _, _, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)

    def spanning_tree(self, root):
        """BFS tree: (tree edge set, path word root -> v for every reachable v)."""
        adj = self.adjacency()
        paths = {root: ()}
        tree = set()
        todo = deque([root])
        while todo:
            v = todo.popleft()
            for eid, s, w in adj[v]:
                if w not in paths:
                    paths[w] = paths[v] + ((eid, s),)
                    tree.add(eid)
                    todo.append(w)
        return tree, paths

    def loop_to_free(self, word, tree):
        """Image of a closed word in the free group on non-tree edges.

        Collapsing the spanning tree retracts the graph onto a wedge of
        circles; tree steps vanish and the rest is freely reduced.
        """
        return free_reduce(tuple(step for step in word if step[0] not in tree))


def _is_word(w):
    return isinstance(w, tuple) and all(
        isinstance(s, tuple) and len(s) == 2 and s[1] in (1, -1) for s in w
    )


# -- local systems ------------------------------------------------------------


class HomotopyCheck:
    """Outcome of a homotopy-invariance scan: ok flag + failing word."""

    __slots__ = ("ok", "word")

    def __init__(self, ok, word=None):
        self.ok = ok
        self.word = word

    def __bool__(self):
        return self.ok


class LocalSystem:
    """An invertible transport matrix per edge, trivial along relations.

    All fibers are copies of the same module: fiber_dim columns over the
    field.  Construction checks invertibility of every edge transport and
    (unless check=False) that every declared relation word transports to
    the identity.
    """

    def __init__(self, graph, field, fiber_dim, transport, check=True):
        self.graph = graph
        self.field = field
        self.fiber_dim = int(fiber_dim)
        self.transport_maps = {}
        self._inverses = {}
        for eid in graph.edges:
            m = transport.get(eid)
            if m is None:
                raise ParseError("no transport matrix for edge %r" % eid)
            if m.shape != (self.fiber_dim, self.fiber_dim) or m.field != field:
                raise ParseError("transport for edge %r has shape %s" % (eid, m.shape))
            self.transport_maps[eid] = m
            self._inverses[eid] = m.solve(Matrix.identity(field, self.fiber_dim))
            if self._inverses[eid] is None:
                raise InvariantError("transport for edge %r is not invertible" % eid)
        if set(transport) - set(graph.edges):
            raise ParseError("transport given for unknown edges %s" % sorted(set(transport) - set(graph.edges)))
        if check:
            res = check_homotopy_invariance(self)
            if not res.ok:
                raise InvariantError(
                    "relation word %s does not transport to the identity" % word_to_strings(res.word)
                )

    @classmethod
    def trivial(cls, graph, field, fiber_dim=1):
        ident = Matrix.identity(field, fiber_dim)
        return cls(graph, field, fiber_dim, {e: ident for e in graph.edges}, check=False)

    def step_matrix(self, step):
        e, s = step
        return self.transport_maps[e] if s == 1 else self._inverses[e]

    def transport_along(self, word, start=None):
        """Ordered composition along the word (left factor traversed first)."""
        acc, at = None, start
        for step in word:
            a, b = self.graph.step_endpoints(step)
            if at is not None and a != at:
                raise PreconditionError("word is not composable at edge %r" % step[0])
            acc = self.step_matrix(step) if acc is None else self.step_matrix(step) * acc
            at = b
        return Matrix.identity(self.field, self.fiber_dim) if acc is None else acc

    def monodromy(self, loops, base):
        """Transport matrices of based loop words."""
        out = []
        for w in loops:
            a, b = self.graph.word_endpoints(w, base)
            if a != base or b != base:
                raise PreconditionError("loop %s is not based at %r" % (word_to_strings(w), base))
            out.append(self.transport_along(w, base))
        return out


def transport(ls, word, start=None):
    """Parallel transport along an edge word (module-level convenience)."""
    if not _is_word(tuple(word)):
        word = parse_word(word)
    return ls.transport_along(tuple(word), start)


def check_homotopy_invariance(ls):
    """True iff every declared relation transports to the identity."""
    ident = Matrix.identity(ls.field, ls.fiber_dim)
    for w in ls.graph.relations:
        if ls.transport_along(w) != ident:
            return HomotopyCheck(False, w)
    return HomotopyCheck(True)


# -- local subsystems and extension -------------------------------------------


class LocalSubsystem:
    """Transport data on a restricted path set, closed under the groupoid ops.

    Only generators are stored: (name, word, matrix) with endpoints in the
    carrier.  The path set is their closure under inversion, catenation and
    constants; transports extend accordingly.
    """

    def __init__(self, field, fiber_dim, carrier, generators):
        self.field = field
        self.fiber_dim = int(fiber_dim)
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
    """BFS over subsystem generators: vertex -> (P-word, transport matrix)."""
    gens = sub.generators
    inv = [(n, word_inverse(w), m.inverse()) for n, w, m in gens]
    steps = []
    for (n, w, m), (ni, wi, mi) in zip(gens, inv):
        a, b = graph.word_endpoints(w) if w else (None, None)
        if w:
            steps.append((a, b, w, m))
            steps.append((b, a, wi, mi))
    base = sub.carrier[0]
    reach = {base: ((), Matrix.identity(sub.field, sub.fiber_dim))}
    todo = deque([base])
    while todo:
        v = todo.popleft()
        word_v, mat_v = reach[v]
        for a, b, w, m in steps:
            if a == v and b not in reach:
                reach[b] = (word_v + w, m * mat_v)
                todo.append(b)
    return reach


def extend_subsystem(sub, graph, max_word_depth=6, base_point=None, max_states=200000):
    """Decide whether the subsystem loops generate pi_1 of the base, and
    build the unique extension when they do.

    Surjectivity is three-valued: False only on a sound disproof (the loop
    and relator images fail to span the abelianization over Q or a small
    prime); True only with explicit word-search witnesses for every free
    generator of pi_1(base); otherwise None ("unknown").
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

    x0 = base_point if base_point is not None else sub.carrier[0]
    if x0 not in reach:
        raise PreconditionError("base point %r is not in the carrier component" % x0)
    if x0 != sub.carrier[0]:
        # rebase the reach data
        w0, m0 = reach[x0]
        reach = {
            v: (word_inverse(w0) + w, m * m0.inverse())
            for v, (w, m) in reach.items()
        }

    tree, tree_paths = graph.spanning_tree(x0)
    free_gens = [e for e in graph.edges if e not in tree]
    gen_index = {e: i for i, e in enumerate(free_gens)}

    loop_gens = []  # (name, loop word, free image, matrix)
    for name, w, m in sub.generators:
        a, b = graph.word_endpoints(w) if w else (x0, x0)
        wa, ma = reach[a]
        wb, mb = reach[b]
        loop = wa + w + word_inverse(wb)
        mat = mb.inverse() * m * ma
        loop_gens.append((name, loop, graph.loop_to_free(loop, tree), mat))
    relators = [graph.loop_to_free(rw, tree) for rw in graph.relations]

    surjective, witnesses = _decide_surjectivity(
        sub.field, free_gens, gen_index, loop_gens, relators, max_word_depth, max_states
    )

    extension = None
    if surjective is True:
        extension = _build_extension(sub, graph, x0, reach, tree, tree_paths, loop_gens, witnesses)

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
    """True if the images provably fail to generate pi_1 (checked in H_1)."""
    m = len(free_gens)
    if m == 0:
        return False
    idx = {e: i for i, e in enumerate(free_gens)}
    cols = []
    for w in loop_images + relator_images:
        col = {}
        for e, s in w:
            col[idx[e]] = col.get(idx[e], 0) + s
        cols.append(col)
    for field in (Field(), Field(2), Field(3), Field(5), Field(7)):
        ent = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                ent[(i, j)] = field.normalize(v)
        mat = Matrix(field, m, len(cols), ent)
        if mat.rank() < m:
            return True
    return False


def _decide_surjectivity(field, free_gens, gen_index, loop_gens, relators, depth, max_states):
    loop_images = [fi for _, _, fi, _ in loop_gens]
    if not free_gens:
        return True, {}
    if _abelianization_disproof(free_gens, loop_images, relators):
        return False, {}

    # bounded BFS over products of loop generators and relators (relators
    # are trivial in pi_1, so membership in the generated subgroup of the
    # free group soundly certifies membership in the image subgroup)
    alphabet = []
    for i, img in enumerate(loop_images):
        alphabet.append((("loop", i, 1), img))
        alphabet.append((("loop", i, -1), word_inverse(img)))
    for j, img in enumerate(relators):
        alphabet.append((("rel", j, 1), img))
        alphabet.append((("rel", j, -1), word_inverse(img)))

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
                if len(seen) > max_states:
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


def _build_extension(sub, graph, x0, reach, tree, tree_paths, loop_gens, witnesses):
    field, dim = sub.field, sub.fiber_dim
    ident = Matrix.identity(field, dim)
    loop_mats = [m for _, _, _, m in loop_gens]

    def evaluate(expr):
        acc = ident
        for kind, i, s in expr:
            if kind == "rel":
                continue  # relators are null-homotopic: identity transport
            m = loop_mats[i]
            acc = (m if s == 1 else m.inverse()) * acc
        return acc

    gen_mats = {}
    for e in graph.edges:
        if e in tree:
            gen_mats[e] = None
        else:
            gen_mats[e] = evaluate(witnesses[e])

    def rho(free_word):
        acc = ident
        for e, s in free_word:
            m = gen_mats[e]
            acc = (m if s == 1 else m.inverse()) * acc
        return acc

    # trivialization path per vertex: subsystem path on the carrier
    # component, spanning-tree path elsewhere
    triv = {}
    for v in graph.vertices:
        if v in reach:
            w, m = reach[v]
            triv[v] = (w, m)
        else:
            triv[v] = (tree_paths[v], None)

    def triv_matrix(v):
        w, m = triv[v]
        if m is not None:
            return m
        # tree words have empty free image, but the carrier part of a
        # subsystem path does not; evaluate through the retraction
        return rho(graph.loop_to_free(w, tree))

    transport_maps = {}
    for e in sorted(graph.edges):
        u, v = graph.edges[e]
        wu, _ = triv[u]
        wv, _ = triv[v]
        loop = wu + ((e, 1),) + word_inverse(wv)
        mat = triv_matrix(v) * rho(graph.loop_to_free(loop, tree)) * triv_matrix(u).inverse()
        transport_maps[e] = mat

    try:
        ext = LocalSystem(graph, field, dim, transport_maps, check=True)
    except InvariantError as exc:
        raise InvariantError(
            "subsystem transports admit no consistent extension: %s" % exc
        ) from exc
    for name, w, m in sub.generators:
        a, _ = graph.word_endpoints(w) if w else (x0, x0)
        if ext.transport_along(w, a) != m:
            raise InvariantError(
                "extension does not restrict to the subsystem transport on path %r" % name
            )
    return ext
