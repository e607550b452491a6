"""Spans around spectower's public functions, recorded from outside.

`install` replaces each listed function or method with a wrapper that
appends a span (name, start, end, parent, op id, two counters) to an
in-memory list.  Nothing inside `src/` changes.  `layer_sums` folds
each op's spans into per-layer totals, with self time being a span's
duration minus the time of its direct children (spans nest, as calls
do), and `layer_metrics` turns the totals into per-op metrics.
"""

import importlib
import sys
import time

# prefix of the stderr line on which a traced CLI child hands over its spans
SPANS_MARK = b"perfbench-spans "

# (module, attribute path, span group).  Targets a later version of the
# package no longer has are skipped, so their metrics read 0.
TARGETS = [
    ("matrix", "Matrix.rank", "matrix.eliminate"),
    ("matrix", "Matrix.pivot_columns", "matrix.eliminate"),
    ("matrix", "Matrix.kernel", "matrix.eliminate"),
    ("matrix", "Matrix.solve", "matrix.eliminate"),
    ("matrix", "Matrix.inverse", "matrix.eliminate"),
    ("matrix", "Matrix.__mul__", "matrix.mul"),
    ("matrix", "Matrix.hstack", "matrix.reshape"),
    ("matrix", "Matrix.vstack", "matrix.reshape"),
    ("matrix", "Matrix.take_rows", "matrix.reshape"),
    ("matrix", "Matrix.take_columns", "matrix.reshape"),
    ("matrix", "Matrix.submatrix", "matrix.reshape"),
    ("matrix", "Matrix.identity", "matrix.reshape"),
    ("matrix", "Matrix.zero", "matrix.reshape"),
    ("matrix", "Matrix.__add__", "matrix.reshape"),
    ("matrix", "Matrix.__neg__", "matrix.reshape"),
    ("matrix", "quotient_basis", "matrix.subspace"),
    ("matrix", "span_contains", "matrix.subspace"),
    ("spectral", "SplitFilteredComplex.page", "spectral.page"),
    ("spectral", "FilteredComplex.page", "spectral.page"),
    ("spectral", "SplitFilteredComplex.converge", "spectral.converge"),
    ("spectral", "FilteredComplex.converge", "spectral.converge"),
    ("spectral", "map_of_spectral_sequences", "spectral.maps"),
    ("spectral", "Page.class_of", "spectral.class_of"),
    ("complexes", "CochainComplex.__init__", "complexes.build"),
    ("complexes", "CochainComplex.from_generator_entries", "complexes.build"),
    ("complexes", "CochainComplex.cohomology", "complexes.cohomology"),
    ("fibration", "FibrationData.__init__", "fibration.data"),
    ("fibration", "assemble_fibration", "fibration.assemble"),
    ("fibration", "e2_table", "fibration.e2_table"),
    ("fibration", "truncation_map", "fibration.truncation"),
    ("morse", "morse_complex", "morse.morse_complex"),
    ("localsystems", "LocalSystem.__init__", "localsystems.system"),
    ("localsystems", "LocalSystem.transport_along", "localsystems.transport"),
    ("documents", "load_document", "documents.load"),
    ("documents", "Document.build_complex", "documents.build"),
    ("documents", "Document.build_tower", "documents.build"),
    ("documents", "print_document", "cli.render"),
    ("cli", "render_table", "cli.render"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    """In-memory span store.  A span is the tuple
    (name, start, end, parent index or -1, op id, count_a, count_b).

    Spans are kept per op.  `end_op` folds an op's spans into running
    sums, and keeps the spans themselves for the first `keep` ops only,
    so memory stays bounded however many ops a run makes.
    """

    def __init__(self, keep=3):
        self.spans = []
        self.stack = []
        self.op = -1
        self.seen_pages = {}
        self.keep = keep
        self.kept = []
        self.sums = {}
        self.ops = 0

    def begin_op(self, op):
        self.op = op
        self.seen_pages = {}
        self.spans.clear()

    def end_op(self):
        for key, v in layer_sums(self.spans).items():
            self.sums[key] = self.sums.get(key, 0) + v
        if len(self.kept) < self.keep:
            self.kept.append(list(self.spans))
        self.spans.clear()
        self.seen_pages = {}
        self.ops += 1

    def add(self, name, start, end, counts=(0, 0)):
        """Record a span measured elsewhere, as a child of the open span."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, start, end, parent, self.op) + tuple(counts))

    def merge(self, spans):
        """Append spans recorded by a child process under the current op."""
        off = len(self.spans)
        for name, start, end, parent, _, a, b in spans:
            self.spans.append((name, start, end, parent + off if parent >= 0 else -1, self.op, a, b))


def _count_eliminate(tracer, args, out):
    m = args[0]
    return m.nrows * m.ncols, m.nnz


def _count_mul(tracer, args, out):
    return args[0].nnz + getattr(args[1], "nnz", 0), getattr(out, "nnz", 0)


def _count_page(tracer, args, out):
    """(cells, nonzero cells) of a page not returned before in this op."""
    if id(out) in tracer.seen_pages:
        return -1, 0
    tracer.seen_pages[id(out)] = out
    owner = args[0]
    return (owner.n + 1) * len(owner.complex.degrees()), len(out.cells())


COUNTERS = {
    "matrix.eliminate": _count_eliminate,
    "matrix.mul": _count_mul,
    "spectral.page": _count_page,
}


def _wrap(tracer, name, fn, counter):
    spans, stack, perf = tracer.spans, tracer.stack, time.perf_counter

    def traced(*args, **kwargs):
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = perf()
            stack.pop()
            spans[idx] = (name, start, end, parent, tracer.op, 0, 0)
        if counter is not None:
            spans[idx] = (name, start, end, parent, tracer.op) + counter(tracer, args, out)
        return out

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def install(tracer):
    """Wrap every target; returns the number wrapped.  A module-level
    function is replaced in each spectower module that imported it."""
    loaded = [m for n, m in sorted(sys.modules.items()) if n == "spectower" or n.startswith("spectower.")]
    wrapped = 0
    for modname, path, group in TARGETS:
        try:
            mod = importlib.import_module("spectower." + modname)
        except ImportError:
            continue
        owner_name, _, attr = path.rpartition(".")
        name = group + ":" + path
        counter = COUNTERS.get(group)
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(tracer, name, raw.__func__, counter)))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(_wrap(tracer, name, raw.__func__, counter)))
            else:
                setattr(owner, attr, _wrap(tracer, name, raw, counter))
        else:
            raw = getattr(mod, attr, None)
            if raw is None:
                continue
            new = _wrap(tracer, name, raw, counter)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is raw:
                        setattr(m, key, new)
        wrapped += 1
    return wrapped


# -- per-layer metrics -----------------------------------------------------

PER_OP_TIMES = {
    "spectral.page.s": "spectral.page",
    "spectral.maps.s": "spectral.maps",
    "spectral.class_of.s": "spectral.class_of",
    "complexes.build.s": "complexes.build",
    "complexes.cohomology.s": "complexes.cohomology",
    "fibration.data.s": "fibration.data",
    "fibration.assemble.s": "fibration.assemble",
    "fibration.e2_table.s": "fibration.e2_table",
    "fibration.truncation.s": "fibration.truncation",
    "morse.morse_complex.s": "morse.morse_complex",
    "localsystems.system.s": "localsystems.system",
    "documents.load.s": "documents.load",
    "documents.build.s": "documents.build",
    "cli.render.s": "cli.render",
    "cli.main.s": "cli.main",
    "cli.startup_s": "cli.startup",
    "cli.import_s": "cli.import",
}
SELF_TIMES = {
    "matrix.eliminate.self_s": "matrix.eliminate",
    "matrix.mul.self_s": "matrix.mul",
    "matrix.reshape.self_s": "matrix.reshape",
    "matrix.subspace.self_s": "matrix.subspace",
    "spectral.page.self_s": "spectral.page",
}
CALLS = {
    "matrix.eliminate.calls": "matrix.eliminate",
    "matrix.mul.calls": "matrix.mul",
    "matrix.reshape.calls": "matrix.reshape",
    "matrix.subspace.calls": "matrix.subspace",
    "spectral.class_of.calls": "spectral.class_of",
    "localsystems.transport.calls": "localsystems.transport",
}


def layer_sums(spans):
    """Raw per-layer sums over a list of spans.

    A span is "outer" when no ancestor belongs to its group; inclusive
    times, call counts and counters add up outer spans only, so nested
    calls of one layer (inverse -> solve) are not counted twice.
    """
    group = [s[0].partition(":")[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    out = {}

    def bump(key, v):
        out[key] = out.get(key, 0) + v

    for i, s in enumerate(spans):
        g = group[i]
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[i]
        outer = True
        while parent >= 0:
            if group[parent] == g:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            bump(("incl", g), dur[i])
            bump(("calls", g), 1)
            bump(("a", g), max(s[5], 0))
            bump(("b", g), s[6])
    for i, s in enumerate(spans):
        bump(("self", group[i]), dur[i] - child[i])
        if group[i] != "spectral.page":
            continue
        if s[5] >= 0:
            bump("pages", 1)
            bump("page_cells", s[5])
            bump("page_nonzero", s[6])
        # a page built inside converge is not certification work
        parent = s[3]
        while parent >= 0 and group[parent] not in ("spectral.page", "spectral.converge"):
            parent = spans[parent][3]
        if parent >= 0 and group[parent] == "spectral.converge":
            bump("converge_pages", dur[i])
    return out


def layer_metrics(sums, n_ops):
    """Per-op means of every layer metric over `n_ops` traced ops."""
    per = 1.0 / max(n_ops, 1)

    def get(key):
        return sums.get(key, 0)

    out = {
        "matrix.eliminate.cells": get(("a", "matrix.eliminate")) * per,
        "matrix.eliminate.nnz": get(("b", "matrix.eliminate")) * per,
        "matrix.mul.nnz_in": get(("a", "matrix.mul")) * per,
        "matrix.mul.nnz_out": get(("b", "matrix.mul")) * per,
        "spectral.pages": get("pages") * per,
        "spectral.cells": get("page_cells") * per,
        "spectral.cells.nonzero_ratio":
            get("page_nonzero") / get("page_cells") if get("page_cells") else 0.0,
        "spectral.certify.s":
            (get(("incl", "spectral.converge")) - get("converge_pages")) * per,
    }
    for metric, g in CALLS.items():
        out[metric] = get(("calls", g)) * per
    for metric, g in SELF_TIMES.items():
        out[metric] = get(("self", g)) * per
    for metric, g in PER_OP_TIMES.items():
        out[metric] = get(("incl", g)) * per
    return out
