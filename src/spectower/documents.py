"""Document model: one JSON file = one tagged mathematical object.

Every document is a JSON object with a "kind" discriminator and, where
scalars occur, a "field" tag ("Q" or "F<p>").  Scalars print as decimal
integers, or "a/b" for non-integral rationals; both forms parse.  Words
are lists of edge ids, "~e" meaning the reversed edge.  Printing a parsed
document re-serializes its canonical form (sorted keys, two-space
indent), so parse-print round trips are byte-stable.

Kinds: cochain_complex, split_filtered_complex, filtered_complex,
base_graph, local_system, local_subsystem, morse_data, cellular_data,
fibration_data.
"""

import json

from .complexes import CochainComplex
from .errors import ParseError, PreconditionError
from .field import parse_field, parse_scalar
from .matrix import Matrix

KINDS = (
    "cochain_complex",
    "split_filtered_complex",
    "filtered_complex",
    "base_graph",
    "local_system",
    "local_subsystem",
    "morse_data",
    "cellular_data",
    "fibration_data",
)

MAX_FIBER_DIM = 1000  # a larger declared fiber_dim exits 4 before one column is allocated


class Document:
    """A parsed document: kind tag, field, and the payload object."""

    __slots__ = ("kind", "field", "payload", "local_system", "shift_n", "shift_k")

    def __init__(self, kind, field, payload, local_system=None, shift_n=0, shift_k=0):
        self.kind = kind
        self.field = field
        self.payload = payload
        self.local_system = local_system
        self.shift_n = shift_n
        self.shift_k = shift_k

    # -- what can be built from this document --------------------------------

    def build_complex(self):
        """The cochain complex this document denotes (for homology)."""
        k = self.kind
        if k == "cochain_complex":
            return self.payload
        if k in ("split_filtered_complex", "filtered_complex"):
            return self.payload.complex
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
        if k == "fibration_data":
            from .fibration import assemble_fibration
            return assemble_fibration(self.payload).complex
        raise PreconditionError("a %s document does not denote a cochain complex" % k)

    def build_tower(self):
        """The filtered object this document denotes (for pages/oracle)."""
        k = self.kind
        if k == "split_filtered_complex":
            return self.payload
        if k == "filtered_complex":
            return self.payload
        if k == "fibration_data":
            from .fibration import assemble_fibration
            return assemble_fibration(self.payload)
        raise PreconditionError("a %s document does not denote a filtered complex" % k)


# -- scalar / matrix / word helpers -------------------------------------------


def _scalar_out(field, v):
    if field.p is not None:
        return int(v)
    if v.denominator == 1:
        return int(v.numerator)
    return field.format_scalar(v)


def _scalar_in(field, v):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ParseError("bad scalar %r" % (v,))
    x = parse_scalar(v)
    if field.p is not None and x.denominator % field.p == 0:
        raise ParseError("scalar %r has no value in %r: its denominator is divisible by %d" % (v, field, field.p))
    return field.normalize(x)


def _int_in(v, what):
    """v as an int: a JSON integer, or a string of one (a JSON object key)."""
    if isinstance(v, (int, str)):
        try:
            return int(v)
        except ValueError:
            pass
    raise ParseError("%s: bad integer %r" % (what, v))


def _matrix_out(field, m):
    return [[i, j, _scalar_out(field, v)] for i, j, v in m.entries()]


def _list_in(body, key, what):
    """body[key] as a list, [] when the key is absent."""
    v = body.get(key, [])
    if not isinstance(v, list):
        raise ParseError("%s: bad %s %r, expected a list" % (what, key, v))
    return v


def _matrix_in(field, nrows, ncols, triples, what):
    if not isinstance(triples, list):
        raise ParseError("%s: bad matrix %r, expected a list of entries" % (what, triples))
    ent = []
    for t in triples:
        if not isinstance(t, list) or len(t) != 3:
            raise ParseError("bad matrix entry %r in %s" % (t, what))
        i, j, v = t
        if not isinstance(i, int) or not isinstance(j, int):
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


# -- per-kind serialization -----------------------------------------------------


def _complex_body(field, cx):
    gens = [[g, k] for g, k in cx.basis.generators]
    diff = []
    for k in cx.degrees():
        src, tgt = cx.basis.gens(k), cx.basis.gens(k + 1)
        for i, j, v in cx.d(k).entries():
            diff.append([src[j], tgt[i], _scalar_out(field, v)])
    return gens, diff


def _object_in(body, what):
    if not isinstance(body, dict):
        raise ParseError("%s: expected an object" % what)
    return body


def _complex_from_body(field, body, what):
    gens = _object_in(body, what).get("generators")
    if not isinstance(gens, list):
        raise ParseError("%s: missing generators" % what)
    pairs = []
    for g in gens:
        if not isinstance(g, list) or len(g) < 2 or not isinstance(g[1], int):
            raise ParseError("%s: bad generator %r" % (what, g))
        pairs.append((str(g[0]), g[1]))
    entries = []
    for e in _list_in(body, "differential", what):
        if not isinstance(e, list) or len(e) != 3:
            raise ParseError("%s: bad differential entry %r" % (what, e))
        entries.append((str(e[0]), str(e[1]), _scalar_in(field, e[2])))
    try:
        return CochainComplex.from_generator_entries(field, pairs, entries,
                                                     display_shift=body.get("display_shift", 0))
    except ValueError as exc:
        raise ParseError("%s: %s" % (what, exc)) from exc


def _graph_out(g):
    from .localsystems import word_to_strings
    return {
        "vertices": list(g.vertices),
        "edges": [[e, g.edges[e][0], g.edges[e][1]] for e in g.edges],
        "relations": [word_to_strings(w) for w in g.relations],
    }


def _graph_in(body, what="base_graph"):
    from .localsystems import BaseGraph, parse_word
    verts = _object_in(body, what).get("vertices")
    if not isinstance(verts, list):
        raise ParseError("%s: bad vertices" % what)
    edges = _list_in(body, "edges", what)
    for e in edges:
        if not isinstance(e, list) or len(e) != 3:
            raise ParseError("%s: bad edge %r" % (what, e))
    return BaseGraph(verts, edges, [_word_in(parse_word, w, what + " relation") for w in _list_in(body, "relations", what)])


def _fiber_dim_in(body, what):
    dim = _object_in(body, what).get("fiber_dim")
    if not isinstance(dim, int) or dim < 0:
        raise ParseError("%s: bad fiber_dim %r" % (what, dim))
    if dim > MAX_FIBER_DIM:
        raise PreconditionError("%s: fiber_dim %d is above the limit %d" % (what, dim, MAX_FIBER_DIM))
    return dim


def _local_system_in(field, graph, body, what="local_system"):
    from .localsystems import LocalSystem
    dim = _fiber_dim_in(body, what)
    tr = body.get("transport", {})
    if not isinstance(tr, dict):
        raise ParseError("%s: bad transport table" % what)
    maps = {
        str(e): _matrix_in(field, dim, dim, triples, "%s transport %r" % (what, e))
        for e, triples in tr.items()
    }
    return LocalSystem(graph, field, dim, maps)


def _local_system_out(field, ls):
    return {
        "fiber_dim": ls.fiber_dim,
        "transport": {e: _matrix_out(field, m) for e, m in sorted(ls.transport_maps.items())},
    }


def _morse_in(field, body, what="morse_data"):
    from .localsystems import parse_word
    from .morse import MorseData, Trajectory
    graph = _graph_in(_object_in(body, what).get("graph"), what + ".graph")
    pts = body.get("points")
    if not isinstance(pts, list):
        raise ParseError("%s: missing points" % what)
    points = []
    for p in pts:
        if not isinstance(p, list) or len(p) != 2 or not isinstance(p[1], int):
            raise ParseError("%s: bad point %r" % (what, p))
        points.append((str(p[0]), p[1]))
    trajs = []
    for t in _list_in(body, "trajectories", what):
        if not isinstance(t, list) or len(t) != 5:
            raise ParseError("%s: bad trajectory %r" % (what, t))
        tid, src, dst, sign, word = t
        trajs.append(Trajectory(tid, src, dst, sign, _word_in(parse_word, word, what)))
    md = MorseData(graph, points, trajs)
    ls = None
    if body.get("local_system") is not None:
        ls = _local_system_in(field, graph, body["local_system"], what + ".local_system")
    return md, ls


def _morse_out(field, md, ls=None):
    from .localsystems import word_to_strings
    out = {
        "graph": _graph_out(md.graph),
        "points": [[x, k] for x, k in md.points.items()],
        "trajectories": [
            [t.id, t.src, t.dst, t.sign, word_to_strings(t.word)] for t in md.trajectories
        ],
    }
    if ls is not None:
        out["local_system"] = _local_system_out(field, ls)
    return out


# -- top level -------------------------------------------------------------------


def parse_document(obj, field_override=None):
    """Parse a JSON value (already loaded) into a Document."""
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ParseError("unknown document kind %r (expected one of %s)" % (kind, ", ".join(KINDS)))
    needs_field = kind != "base_graph"
    field = None
    if needs_field:
        tag = field_override if field_override is not None else obj.get("field")
        if tag is None:
            raise ParseError("%s document needs a \"field\" tag" % kind)
        field = parse_field(tag)

    if kind == "base_graph":
        return Document(kind, None, _graph_in(obj))

    if kind == "cochain_complex":
        return Document(kind, field, _complex_from_body(field, obj, kind))

    if kind == "split_filtered_complex":
        from .spectral import SplitFilteredComplex
        gens = obj.get("generators")
        if not isinstance(gens, list):
            raise ParseError("split_filtered_complex: missing generators")
        pairs, blocks = [], {}
        for g in gens:
            if not isinstance(g, list) or len(g) != 3 or not isinstance(g[1], int) or not isinstance(g[2], int):
                raise ParseError("split_filtered_complex: bad generator %r" % (g,))
            pairs.append((str(g[0]), g[1]))
            blocks[str(g[0])] = g[2]
        cx = _complex_from_body(field, {"generators": [[g, k] for g, k in pairs],
                                        "differential": obj.get("differential", []),
                                        "display_shift": obj.get("display_shift", 0)}, kind)
        return Document(kind, field, SplitFilteredComplex(cx, blocks))

    if kind == "filtered_complex":
        from .spectral import FilteredComplex
        cx = _complex_from_body(field, obj.get("complex", {}), "filtered_complex.complex")
        steps = []
        by_p = {}
        for st in _list_in(obj, "filtration", "filtered_complex"):
            if not isinstance(st, dict) or "p" not in st or not isinstance(st.get("spans", {}), dict):
                raise ParseError("filtered_complex: bad filtration step %r" % (st,))
            by_p[_int_in(st["p"], "filtered_complex filtration step p")] = st.get("spans", {})
        if by_p and sorted(by_p) != list(range(1, max(by_p) + 1)):
            raise ParseError("filtered_complex: filtration steps must cover p = 1..n")
        for p in sorted(by_p):
            spans = {}
            for kstr, vecs in by_p[p].items():
                k = _int_in(kstr, "filtered_complex spans degree")
                if not isinstance(vecs, list):
                    raise ParseError("filtered_complex: bad spans %r in degree %d" % (vecs, k))
                names = cx.basis.gens(k)
                pos = {g: i for i, g in enumerate(names)}
                cols = []
                for vec in vecs:
                    if not isinstance(vec, dict):
                        raise ParseError("filtered_complex: bad span vector %r" % (vec,))
                    col = {}
                    for g, v in vec.items():
                        if g not in pos:
                            raise ParseError("filtered_complex: span vector uses unknown generator %r in degree %d" % (g, k))
                        col[pos[g]] = _scalar_in(field, v)
                    cols.append(col)
                ent = {}
                for j, col in enumerate(cols):
                    for i, v in col.items():
                        ent[(i, j)] = v
                spans[k] = Matrix(field, len(names), len(cols), ent)
            steps.append(spans)
        return Document(kind, field, FilteredComplex(cx, steps))

    if kind == "local_system":
        graph = _graph_in(obj.get("graph"), "local_system.graph")
        return Document(kind, field, _local_system_in(field, graph, obj))

    if kind == "local_subsystem":
        from .localsystems import LocalSubsystem, parse_word
        dim = _fiber_dim_in(obj, "local_subsystem")
        carrier = obj.get("carrier")
        if not isinstance(carrier, list) or not carrier:
            raise ParseError("local_subsystem: missing carrier")
        paths = []
        for p in _list_in(obj, "paths", "local_subsystem"):
            if not isinstance(p, dict) or "name" not in p or "word" not in p:
                raise ParseError("local_subsystem: bad path %r" % (p,))
            m = _matrix_in(field, dim, dim, p.get("transport", []),
                           "local_subsystem path %r transport" % p["name"])
            paths.append((p["name"], _word_in(parse_word, p["word"], "local_subsystem"), m))
        return Document(kind, field, LocalSubsystem(field, dim, carrier, paths))

    if kind == "morse_data":
        md, ls = _morse_in(field, obj)
        return Document(kind, field, md, local_system=ls)

    if kind == "cellular_data":
        from .localsystems import parse_word
        from .morse import CellularData
        graph = _graph_in(obj["graph"], "cellular_data.graph") if obj.get("graph") is not None else None
        cells = obj.get("cells")
        if not isinstance(cells, list):
            raise ParseError("cellular_data: missing cells")
        for c in cells:
            if not isinstance(c, list) or not 2 <= len(c) <= 4:
                raise ParseError("cellular_data: bad cell %r" % (c,))
            _int_in(c[1], "cellular_data cell %r dimension" % (c[0],))
            if len(c) > 3:
                _int_in(c[3], "cellular_data cell %r orientation" % (c[0],))
        filt = obj.get("filtration")
        if filt is not None:
            if not isinstance(filt, dict):
                raise ParseError("cellular_data: bad filtration")
            filt = {c: _int_in(p, "cellular_data filtration of %r" % c) for c, p in filt.items()}
        incs = []
        for e in _list_in(obj, "incidences", "cellular_data"):
            if not isinstance(e, list) or len(e) != 4 or not isinstance(e[2], int):
                raise ParseError("cellular_data: bad incidence %r" % (e,))
            incs.append((e[0], e[1], e[2], _word_in(parse_word, e[3], "cellular_data")))
        excs = []
        for e in _list_in(obj, "exceptional", "cellular_data"):
            if not isinstance(e, list) or len(e) != 4:
                raise ParseError("cellular_data: bad exceptional incidence %r" % (e,))
            excs.append((e[0], e[1], _word_in(parse_word, e[2], "cellular_data"), _word_in(parse_word, e[3], "cellular_data")))
        cd = CellularData(cells, incs, excs, graph=graph, filtration=filt)
        ls = None
        if obj.get("local_system") is not None:
            if graph is None:
                raise ParseError("cellular_data: a local system needs a base graph")
            ls = _local_system_in(field, graph, obj["local_system"], "cellular_data.local_system")
        return Document(kind, field, cd, local_system=ls)

    if kind == "fibration_data":
        from .fibration import FibrationData
        base_md, _ = _morse_in(field, obj.get("base", {}), "fibration_data.base")
        fiber = _complex_from_body(field, obj.get("fiber", {}), "fibration_data.fiber")
        actions, table = {}, obj.get("edge_action", {})
        if not isinstance(table, dict):
            raise ParseError("fibration_data: bad edge_action table")
        for e, triples in table.items():
            if not isinstance(triples, list):
                raise ParseError("fibration_data: bad action %r on edge %r" % (triples, e))
            by_deg = {}
            for t in triples:
                if not isinstance(t, list) or len(t) != 3:
                    raise ParseError("fibration_data: bad edge action entry %r" % (t,))
                src, dst, v = str(t[0]), str(t[1]), t[2]
                if src not in fiber.basis or dst not in fiber.basis:
                    raise ParseError("fibration_data: edge action uses unknown fiber generator %r or %r" % (src, dst))
                ks, kd = fiber.basis.position(src)[0], fiber.basis.position(dst)[0]
                if ks != kd:
                    raise ParseError("fibration_data: edge action entry %r -> %r changes degree" % (src, dst))
                by_deg.setdefault(ks, []).append(
                    (fiber.basis.position(dst)[1], fiber.basis.position(src)[1], _scalar_in(field, v))
                )
            actions[str(e)] = {
                k: Matrix.from_entries(field, fiber.dim(k), fiber.dim(k), tr)
                for k, tr in by_deg.items()
            }
        corr = []
        for c in _list_in(obj, "corrections", "fibration_data"):
            if not isinstance(c, list) or len(c) != 5:
                raise ParseError("fibration_data: bad correction %r" % (c,))
            corr.append((c[0], c[1], c[2], c[3], _scalar_in(field, c[4])))
        fd = FibrationData(
            base_md,
            fiber,
            actions,
            corr,
            shift_n=_int_in(obj.get("shift_n", 0), "fibration_data shift_n"),
            shift_k=_int_in(obj.get("shift_k", 0), "fibration_data shift_k"),
        )
        return Document(kind, field, fd, shift_n=fd.shift_n, shift_k=fd.shift_k)

    raise ParseError("unhandled kind %r" % kind)  # unreachable


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
    kind, field = doc.kind, doc.field
    out = {"kind": kind}
    if field is not None:
        out["field"] = repr(field)

    if kind == "base_graph":
        out.update(_graph_out(doc.payload))
        return out

    if kind == "cochain_complex":
        gens, diff = _complex_body(field, doc.payload)
        out["generators"] = gens
        out["differential"] = diff
        if doc.payload.display_shift:
            out["display_shift"] = doc.payload.display_shift
        return out

    if kind == "split_filtered_complex":
        sfc = doc.payload
        gens, diff = _complex_body(field, sfc.complex)
        out["generators"] = [[g, k, sfc.blocks[g]] for g, k in sfc.complex.basis.generators]
        out["differential"] = diff
        if sfc.complex.display_shift:
            out["display_shift"] = sfc.complex.display_shift
        return out

    if kind == "filtered_complex":
        fc = doc.payload
        gens, diff = _complex_body(field, fc.complex)
        out["complex"] = {"generators": gens, "differential": diff}
        filt = []
        for p in range(1, fc.n + 1):
            spans = {}
            for k in sorted(fc.steps[p - 1]):
                names = fc.complex.basis.gens(k)
                m = fc.steps[p - 1][k]
                vecs = []
                for j in range(m.ncols):
                    col = {}
                    for i, jj, v in m.entries():
                        if jj == j:
                            col[names[i]] = _scalar_out(field, v)
                    vecs.append(col)
                spans[str(k)] = vecs
            filt.append({"p": p, "spans": spans})
        out["filtration"] = filt
        return out

    if kind == "local_system":
        ls = doc.payload
        out["graph"] = _graph_out(ls.graph)
        out.update(_local_system_out(field, ls))
        return out

    if kind == "local_subsystem":
        from .localsystems import word_to_strings
        sub = doc.payload
        out["fiber_dim"] = sub.fiber_dim
        out["carrier"] = list(sub.carrier)
        out["paths"] = [
            {"name": n, "word": word_to_strings(w), "transport": _matrix_out(field, m)}
            for n, w, m in sub.generators
        ]
        return out

    if kind == "morse_data":
        out.update(_morse_out(field, doc.payload, doc.local_system))
        return out

    if kind == "cellular_data":
        from .localsystems import word_to_strings
        cd = doc.payload
        if cd.graph is not None:
            out["graph"] = _graph_out(cd.graph)
        out["cells"] = [
            [c, cd.cells[c][0], cd.cells[c][1], cd.cells[c][2]] for c in cd.order
        ]
        out["incidences"] = [
            [src, dst, coeff, word_to_strings(word)] for src, dst, coeff, word in cd.incidences
        ]
        if cd.exceptional:
            out["exceptional"] = [
                [src, dst, word_to_strings(p), word_to_strings(m)] for src, dst, p, m in cd.exceptional
            ]
        if cd.filtration is not None:
            out["filtration"] = dict(sorted(cd.filtration.items()))
        if doc.local_system is not None:
            out["local_system"] = _local_system_out(field, doc.local_system)
        return out

    if kind == "fibration_data":
        fd = doc.payload
        out["base"] = _morse_out(field, fd.base)
        gens, diff = _complex_body(field, fd.fiber)
        out["fiber"] = {"generators": gens, "differential": diff}
        actions = {}
        for e in sorted(fd.edge_action):
            entries = []
            for k in sorted(fd.edge_action[e]):
                m = fd.edge_action[e][k]
                names = fd.fiber.basis.gens(k)
                for i, j, v in m.entries():
                    entries.append([names[j], names[i], _scalar_out(field, v)])
            if entries:
                actions[e] = entries
        out["edge_action"] = actions
        out["corrections"] = [
            [sp, sf, dp, df, _scalar_out(field, v)] for sp, sf, dp, df, v in fd.corrections
        ]
        if fd.shift_n:
            out["shift_n"] = fd.shift_n
        if fd.shift_k:
            out["shift_k"] = fd.shift_k
        return out

    raise ParseError("unhandled kind %r" % kind)  # unreachable


def print_document(doc):
    """Canonical byte-stable text form of a document."""
    return json.dumps(document_to_json(doc), indent=2, sort_keys=True) + "\n"
