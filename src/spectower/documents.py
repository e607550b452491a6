"""Document model: one JSON file = one tagged mathematical object.

Every document is a JSON object with a "kind" discriminator and, where
scalars occur, a "field" tag ("Q" or "F<p>").  Scalars print as decimal
integers, or "a/b" for non-integral rationals; both forms parse.  Words
are lists of edge ids, "~e" meaning the reversed edge.  Printing a parsed
document re-serializes its canonical form (sorted keys, two-space
indent), so parse-print round trips are byte-stable.

Kinds: cochain_complex, split_filtered_complex, filtered_complex,
base_graph, local_system, local_subsystem, morse_data, cellular_data,
fibration_data.  `_KINDS` holds each kind's reader (body to payload) and
writer (payload to body); shared parts have one reader and one writer each.
"""

import json

from .complexes import CochainComplex
from .errors import ParseError, PreconditionError
from .field import parse_field, parse_scalar
from .matrix import Matrix

MAX_FIBER_DIM = 1000  # a larger declared fiber_dim exits 4 before one column is allocated


class Document:
    """A parsed document: kind tag, field, the payload object, the optional
    local system over `payload.graph`, and the payload's grading shifts."""

    __slots__ = ("kind", "field", "payload", "local_system", "shift_n", "shift_k")

    def __init__(self, kind, field, payload, local_system=None):
        self.kind = kind
        self.field = field
        self.payload = payload
        self.local_system = local_system
        self.shift_n = getattr(payload, "shift_n", 0)
        self.shift_k = getattr(payload, "shift_k", 0)

    # -- what can be built from this document --------------------------------

    def build_complex(self):
        """The cochain complex this document denotes (for homology)."""
        k = self.kind
        if k == "cochain_complex":
            return self.payload
        if k in ("split_filtered_complex", "filtered_complex", "fibration_data"):
            return self.build_tower().complex
        if k == "morse_data":
            from .localsystems import LocalSystem
            from .morse import morse_complex
            ls = self.local_system or LocalSystem.trivial(self.payload.graph, self.field, 1)
            return morse_complex(self.payload, ls)
        if k == "cellular_data":
            from .morse import cellular_complex
            if self.local_system is not None:
                return cellular_complex(self.payload, self.local_system)
            return cellular_complex(self.payload, ls=None, field=self.field)
        raise PreconditionError("a %s document does not denote a cochain complex" % k)

    def build_tower(self):
        """The filtered object this document denotes (for pages/oracle)."""
        k = self.kind
        if k in ("split_filtered_complex", "filtered_complex"):
            return self.payload
        if k == "fibration_data":
            from .fibration import assemble_fibration
            return assemble_fibration(self.payload)
        raise PreconditionError("a %s document does not denote a filtered complex" % k)


# -- scalars, rows and matrices -------------------------------------------------


def _scalar_out(field, v):
    if field.p is not None:
        return int(v)
    if v.denominator == 1:
        return int(v.numerator)
    return field.format_scalar(v)


def _scalar_in(field, v):
    if type(v) is int:  # the common case: not a bool, and its denominator 1 is a unit
        return field.normalize(v)
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ParseError("bad scalar %r" % (v,))
    x = parse_scalar(v)
    if field.p is not None and x.denominator % field.p == 0:
        raise ParseError("scalar %r has no value in %r: its denominator is divisible by %d" % (v, field, field.p))
    return field.normalize(x)


def _int_in(v, what, key=False):
    """v as an int: a JSON integer, not a boolean, or with key=True the string of one (an object key)."""
    try:
        if type(v) is int or key and type(v) is str:
            return int(v)
    except ValueError:
        pass
    raise ParseError("%s: bad integer %r" % (what, v))


def _object_in(body, what):
    if not isinstance(body, dict):
        raise ParseError("%s: expected an object" % what)
    return body


def _list_in(body, key, what):
    """body[key] as a list, [] when the key is absent."""
    v = body.get(key, [])
    if not isinstance(v, list):
        raise ParseError("%s: bad %s %r, expected a list" % (what, key, v))
    return v


def _needed(body, key, what, least=0):
    """body[key] as a list of at least `least` rows; it may not be absent."""
    v = body.get(key)
    if not isinstance(v, list) or len(v) < least:
        raise ParseError("%s: missing %s" % (what, key))
    return v


def _rows(rows, what, noun, lo, hi=None, ints=()):
    """Each row of `rows`, checked as it is reached: a list of `lo` to `hi`
    items (exactly `lo` when hi is None) with an int at each of `ints`."""
    hi = lo if hi is None else hi
    for row in rows:
        if not isinstance(row, list) or not lo <= len(row) <= hi:
            raise ParseError("%s: bad %s %r" % (what, noun, row))
        for i in ints:
            if type(row[i]) is not int:
                raise ParseError("%s: bad %s %r" % (what, noun, row))
        yield row


def _matrix_out(field, m):
    return [[i, j, _scalar_out(field, v)] for i, j, v in m.entries()]


def _by_ids_out(field, m, src, dst):
    """The entries of m, a map from the ids `src` to the ids `dst`, as rows."""
    return [[src[j], dst[i], _scalar_out(field, v)] for i, j, v in m.entries()]


def _matrix_in(field, nrows, ncols, triples, what):
    if not isinstance(triples, list):
        raise ParseError("%s: bad matrix %r, expected a list of entries" % (what, triples))
    ent = []
    for t in triples:
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError("bad matrix entry %r in %s" % (t, what))
        i, j, v = t
        if type(i) is not int or type(j) is not int:
            raise ParseError("bad matrix position %r in %s" % (t, what))
        ent.append((i, j, _scalar_in(field, v)))
    try:
        return Matrix.from_entries(field, nrows, ncols, ent)
    except ValueError as exc:
        raise ParseError("%s: %s" % (what, exc)) from exc


def _word_in(parse_word, items, what):
    if not isinstance(items, list):
        raise ParseError("bad word %r in %s" % (items, what))
    return parse_word(items)


# -- the parts kinds share: readers (field, body, what) and writers (field, x) --


def _complex_in(field, body, what):
    gens = [(str(g[0]), g[1]) for g in _rows(_needed(_object_in(body, what), "generators", what),
                                             what, "generator", 2, float("inf"), (1,))]
    entries = [(str(e[0]), str(e[1]), _scalar_in(field, e[2]))
               for e in _rows(_list_in(body, "differential", what), what, "differential entry", 3)]
    shift = _int_in(body.get("display_shift", 0), what + " display_shift")
    try:
        return CochainComplex.from_generator_entries(field, gens, entries, display_shift=shift)
    except ParseError as exc:
        raise ParseError("%s: %s" % (what, exc)) from exc


def _complex_out(field, cx, blocks=None):
    """The body of cx; each generator carries its block when `blocks` is given."""
    b = cx.basis
    out = {
        "generators": [[g, k] if blocks is None else [g, k, blocks[g]] for g, k in b.generators],
        "differential": [row for k in cx.degrees() for row in _by_ids_out(field, cx.d(k), b.gens(k), b.gens(k + 1))],
    }
    if cx.display_shift:
        out["display_shift"] = cx.display_shift
    return out


def _graph_in(field, body, what):
    from .localsystems import BaseGraph, parse_word
    verts = _object_in(body, what).get("vertices")
    if not isinstance(verts, list):
        raise ParseError("%s: bad vertices" % what)
    edges = list(_rows(_list_in(body, "edges", what), what, "edge", 3))
    relations = [_word_in(parse_word, w, what + " relation") for w in _list_in(body, "relations", what)]
    return BaseGraph(verts, edges, relations)


def _graph_out(field, g):
    from .localsystems import word_to_strings
    return {
        "vertices": list(g.vertices),
        "edges": [[e, g.edges[e][0], g.edges[e][1]] for e in g.edges],
        "relations": [word_to_strings(w) for w in g.relations],
    }


def _fiber_dim_in(body, what):
    dim = _object_in(body, what).get("fiber_dim")
    if type(dim) is not int or dim < 0:
        raise ParseError("%s: bad fiber_dim %r" % (what, dim))
    if dim > MAX_FIBER_DIM:
        raise PreconditionError("%s: fiber_dim %d is above the limit %d" % (what, dim, MAX_FIBER_DIM))
    return dim


def _transports_in(field, graph, body, what):
    from .localsystems import LocalSystem
    dim = _fiber_dim_in(body, what)
    tr = body.get("transport", {})
    if not isinstance(tr, dict):
        raise ParseError("%s: bad transport table" % what)
    maps = {str(e): _matrix_in(field, dim, dim, triples, "%s transport %r" % (what, e)) for e, triples in tr.items()}
    return LocalSystem(graph, field, dim, maps)


def _transports_out(field, ls):
    maps = sorted(ls.transport_maps.items())
    return {"fiber_dim": ls.fiber_dim, "transport": {e: _matrix_out(field, m) for e, m in maps}}


def _system_over(field, graph, body, what):
    """The optional local_system of body, over graph; None when it has none."""
    if body.get("local_system") is None:
        return None
    if graph is None:
        raise ParseError("%s: a local system needs a base graph" % what)
    return _transports_in(field, graph, body["local_system"], what + ".local_system")


def _morse_in(field, body, what):
    from .localsystems import parse_word
    from .morse import MorseData, Trajectory
    graph = _graph_in(field, _object_in(body, what).get("graph"), what + ".graph")
    points = [(str(p[0]), p[1]) for p in _rows(_needed(body, "points", what), what, "point", 2, ints=(1,))]
    trajs = [Trajectory(t[0], t[1], t[2], t[3], _word_in(parse_word, t[4], what))
             for t in _rows(_list_in(body, "trajectories", what), what, "trajectory", 5)]
    return MorseData(graph, points, trajs)


def _morse_out(field, md):
    from .localsystems import word_to_strings
    return {
        "graph": _graph_out(field, md.graph),
        "points": [[x, k] for x, k in md.points.items()],
        "trajectories": [[t.id, t.src, t.dst, t.sign, word_to_strings(t.word)] for t in md.trajectories],
    }


# -- the kinds ---------------------------------------------------------------------


def _split_in(field, body, what):
    from .spectral import SplitFilteredComplex
    blocks = {str(g[0]): g[2] for g in _rows(_needed(body, "generators", what), what, "generator", 3, ints=(1, 2))}
    return SplitFilteredComplex(_complex_in(field, body, what), blocks)


def _filtered_in(field, body, what):
    from .spectral import FilteredComplex
    cx = _complex_in(field, body.get("complex", {}), what + ".complex")
    by_p = {}
    for st in _list_in(body, "filtration", what):
        if not isinstance(st, dict) or "p" not in st or not isinstance(st.get("spans", {}), dict):
            raise ParseError("%s: bad filtration step %r" % (what, st))
        by_p[_int_in(st["p"], what + " filtration step p")] = st.get("spans", {})
    if by_p and sorted(by_p) != list(range(1, max(by_p) + 1)):
        raise ParseError("%s: filtration steps must cover p = 1..n" % what)
    steps = []
    for p in sorted(by_p):
        spans = {}
        for kstr, vecs in by_p[p].items():
            k = _int_in(kstr, what + " spans degree", key=True)
            if not isinstance(vecs, list):
                raise ParseError("%s: bad spans %r in degree %d" % (what, vecs, k))
            pos = {g: i for i, g in enumerate(cx.basis.gens(k))}
            ent = {}
            for j, vec in enumerate(vecs):
                if not isinstance(vec, dict):
                    raise ParseError("%s: bad span vector %r" % (what, vec))
                for g, v in vec.items():
                    if g not in pos:
                        raise ParseError("%s: span vector uses unknown generator %r in degree %d" % (what, g, k))
                    ent[(pos[g], j)] = _scalar_in(field, v)
            spans[k] = Matrix(field, len(pos), len(vecs), ent)
        steps.append(spans)
    return FilteredComplex(cx, steps)


def _filtered_out(field, fc):
    filt = []
    for p, step in enumerate(fc.steps, 1):
        spans = {}
        for k in sorted(step):
            names, vecs = fc.complex.basis.gens(k), [{} for _ in range(step[k].ncols)]
            for i, j, v in step[k].entries():
                vecs[j][names[i]] = _scalar_out(field, v)
            spans[str(k)] = vecs
        filt.append({"p": p, "spans": spans})
    return {"complex": _complex_out(field, fc.complex), "filtration": filt}


def _system_in(field, body, what):
    return _transports_in(field, _graph_in(field, body.get("graph"), what + ".graph"), body, what)


def _system_out(field, ls):
    return dict(_transports_out(field, ls), graph=_graph_out(field, ls.graph))


def _subsystem_in(field, body, what):
    from .localsystems import LocalSubsystem, parse_word
    dim = _fiber_dim_in(body, what)
    carrier = _needed(body, "carrier", what, 1)
    paths = []
    for p in _list_in(body, "paths", what):
        if not isinstance(p, dict) or "name" not in p or "word" not in p:
            raise ParseError("%s: bad path %r" % (what, p))
        m = _matrix_in(field, dim, dim, p.get("transport", []), "%s path %r transport" % (what, p["name"]))
        paths.append((p["name"], _word_in(parse_word, p["word"], what), m))
    return LocalSubsystem(field, dim, carrier, paths)


def _subsystem_out(field, sub):
    from .localsystems import word_to_strings
    return {
        "fiber_dim": sub.fiber_dim,
        "carrier": list(sub.carrier),
        "paths": [{"name": n, "word": word_to_strings(w), "transport": _matrix_out(field, m)}
                  for n, w, m in sub.generators],
    }


def _cellular_in(field, body, what):
    from .localsystems import parse_word
    from .morse import CellularData
    graph = _graph_in(field, body["graph"], what + ".graph") if body.get("graph") is not None else None
    cells = _needed(body, "cells", what)
    for c in _rows(cells, what, "cell", 2, 4):
        _int_in(c[1], "%s cell %r dimension" % (what, c[0]))
        if len(c) > 3:
            _int_in(c[3], "%s cell %r orientation" % (what, c[0]))
    filt = body.get("filtration")
    if filt is not None:
        if not isinstance(filt, dict):
            raise ParseError("%s: bad filtration" % what)
        filt = {c: _int_in(p, "%s filtration of %r" % (what, c)) for c, p in filt.items()}
    incs = [(e[0], e[1], e[2], _word_in(parse_word, e[3], what))
            for e in _rows(_list_in(body, "incidences", what), what, "incidence", 4, ints=(2,))]
    excs = [(e[0], e[1], _word_in(parse_word, e[2], what), _word_in(parse_word, e[3], what))
            for e in _rows(_list_in(body, "exceptional", what), what, "exceptional incidence", 4)]
    return CellularData(cells, incs, excs, graph=graph, filtration=filt)


def _cellular_out(field, cd):
    from .localsystems import word_to_strings
    out = {
        "cells": [[c, *cd.cells[c]] for c in cd.order],
        "incidences": [[src, dst, coeff, word_to_strings(w)] for src, dst, coeff, w in cd.incidences],
    }
    if cd.graph is not None:
        out["graph"] = _graph_out(field, cd.graph)
    if cd.exceptional:
        out["exceptional"] = [[src, dst, word_to_strings(p), word_to_strings(m)] for src, dst, p, m in cd.exceptional]
    if cd.filtration is not None:
        out["filtration"] = dict(sorted(cd.filtration.items()))
    return out


def _fibration_in(field, body, what):
    from .fibration import FibrationData
    base = body.get("base", {})
    md = _morse_in(field, base, what + ".base")
    if base.get("local_system") is not None:
        raise ParseError("%s.base.local_system: a fibration's transport is its edge_action" % what)
    fiber = _complex_in(field, body.get("fiber", {}), what + ".fiber")
    actions, table = {}, body.get("edge_action", {})
    if not isinstance(table, dict):
        raise ParseError("%s: bad edge_action table" % what)
    for e, triples in table.items():
        if not isinstance(triples, list):
            raise ParseError("%s: bad action %r on edge %r" % (what, triples, e))
        by_deg = {}
        for t in _rows(triples, what, "edge action entry", 3):
            src, dst = str(t[0]), str(t[1])
            if src not in fiber.basis or dst not in fiber.basis:
                raise ParseError("%s: edge action uses unknown fiber generator %r or %r" % (what, src, dst))
            (ks, j), (kd, i) = fiber.basis.position(src), fiber.basis.position(dst)
            if ks != kd:
                raise ParseError("%s: edge action entry %r -> %r changes degree" % (what, src, dst))
            by_deg.setdefault(ks, []).append((i, j, _scalar_in(field, t[2])))
        actions[str(e)] = {k: Matrix.from_entries(field, fiber.dim(k), fiber.dim(k), tr) for k, tr in by_deg.items()}
    corr = [(*c[:4], _scalar_in(field, c[4]))
            for c in _rows(_list_in(body, "corrections", what), what, "correction", 5)]
    return FibrationData(md, fiber, actions, corr,
                         shift_n=_int_in(body.get("shift_n", 0), what + " shift_n"),
                         shift_k=_int_in(body.get("shift_k", 0), what + " shift_k"))


def _fibration_out(field, fd):
    names, actions = fd.fiber.basis.gens, {}
    for e in sorted(fd.edge_action):
        blocks = fd.edge_action[e]
        rows = [row for k in sorted(blocks) for row in _by_ids_out(field, blocks[k], names(k), names(k))]
        if rows:
            actions[e] = rows
    out = {
        "base": _morse_out(field, fd.base),
        "fiber": _complex_out(field, fd.fiber),
        "edge_action": actions,
        "corrections": [[*c[:4], _scalar_out(field, c[4])] for c in fd.corrections],
    }
    out.update((key, getattr(fd, key)) for key in ("shift_n", "shift_k") if getattr(fd, key))
    return out


_KINDS = {
    "cochain_complex": (_complex_in, _complex_out),
    "split_filtered_complex": (_split_in, lambda field, sfc: _complex_out(field, sfc.complex, sfc.blocks)),
    "filtered_complex": (_filtered_in, _filtered_out),
    "base_graph": (_graph_in, _graph_out),
    "local_system": (_system_in, _system_out),
    "local_subsystem": (_subsystem_in, _subsystem_out),
    "morse_data": (_morse_in, _morse_out),
    "cellular_data": (_cellular_in, _cellular_out),
    "fibration_data": (_fibration_in, _fibration_out),
}
KINDS = tuple(_KINDS)
_OVER_GRAPH = ("morse_data", "cellular_data")  # the kinds that take an optional local_system


# -- top level -------------------------------------------------------------------


def parse_document(obj, field_override=None):
    """Parse a JSON value (already loaded) into a Document."""
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ParseError("unknown document kind %r (expected one of %s)" % (kind, ", ".join(KINDS)))
    field = None
    if kind != "base_graph":  # the one kind without scalars
        tag = field_override if field_override is not None else obj.get("field")
        if tag is None:
            raise ParseError("%s document needs a \"field\" tag" % kind)
        field = parse_field(tag)
    payload = _KINDS[kind][0](field, obj, kind)
    ls = _system_over(field, payload.graph, obj, kind) if kind in _OVER_GRAPH else None
    return Document(kind, field, payload, ls)


def parse_text(text, field_override=None):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)) from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    return parse_document(obj, field_override)


def load_document(path, field_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8: byte %d: %s" % (path, exc.start, exc.reason)) from exc
    return parse_text(text, field_override)


def document_to_json(doc):
    """Canonical JSON value of a Document (inverse of parse_document)."""
    out = _KINDS[doc.kind][1](doc.field, doc.payload)
    out["kind"] = doc.kind
    if doc.field is not None:
        out["field"] = repr(doc.field)
    if doc.local_system is not None:
        out["local_system"] = _transports_out(doc.field, doc.local_system)
    return out


def print_document(doc):
    """Canonical byte-stable text form of a document."""
    return json.dumps(document_to_json(doc), indent=2, sort_keys=True) + "\n"
