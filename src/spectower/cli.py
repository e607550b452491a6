"""Command-line front end.

Subcommands: homology, pages, e2, oracle-check, extend, compare-ls,
kunneth.  All output is byte-deterministic.  Exit codes: 0 ok (for
oracle-check and compare-ls: the check passed), 1 check failed,
2 parse error, 3 invariant violation, 4 precondition violation,
5 internal error (any other exception: a bug in spectower).  Output
stays bounded: `pages --all` and `compare-ls` print at most MAX_SPAN
pages, `homology` at most MAX_SPAN degrees, and a table spans at most
MAX_SPAN values of p or of q; past that, exit 4.  A run imports only the
modules its subcommand and document kind use (`homology` on a cochain
complex: no spectral or fibration; `extend`: plus localsystems;
`kunneth`: all but spectral): where bytecode is not cached, each
imported module is compiled per run.
"""

import argparse
import sys

from .documents import MAX_TRAJECTORIES, Document, load_document, print_document
from .errors import InvariantError, ParseError, PreconditionError

MAX_SPAN = 100


def _fmt_cell(d):
    return str(d) if d else "."


def render_table(entries, sn=0, sk=0):
    """Dimension table: p left to right, q bottom to top; "." for zero."""
    if not entries:
        return ["  (empty)"]
    shifted = {(p + sn, q + sk): d for (p, q), d in entries.items()}
    ps = sorted({p for p, _ in shifted})
    qs = sorted({q for _, q in shifted})
    if max(ps[-1] - ps[0], qs[-1] - qs[0]) >= MAX_SPAN:
        raise PreconditionError("a table spans p %d..%d and q %d..%d, more than %d values"
                                % (ps[0], ps[-1], qs[0], qs[-1], MAX_SPAN))
    prange = list(range(ps[0], ps[-1] + 1))
    qrange = list(range(qs[0], qs[-1] + 1))
    tokens = [str(p) for p in prange] + [str(q) for q in qrange]
    tokens += [_fmt_cell(d) for d in shifted.values()]
    w = max(len(t) for t in tokens) + 2
    head_label = "q\\p"
    lw = max(len(head_label), max(len(str(q)) for q in qrange)) + 2
    lines = ["%s |%s" % (head_label.rjust(lw), "".join(str(p).rjust(w) for p in prange))]
    for q in reversed(qrange):
        row = "".join(_fmt_cell(shifted.get((p, q), 0)).rjust(w) for p in prange)
        lines.append("%s |%s" % (str(q).rjust(lw), row))
    return lines


def _table(entries, sn, sk):
    """render_table for `pages` and `e2`, whose too-wide table names their --format tsv."""
    try:
        return render_table(entries, sn, sk)
    except PreconditionError as exc:
        raise PreconditionError("%s; use --format tsv" % exc) from None


def _tsv_lines(r, entries, sn=0, sk=0):
    return [
        "%d\t%d\t%d\t%d" % (r, p + sn, q + sk, d)
        for (p, q), d in sorted(entries.items())
    ]


def _emit(lines):
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))


def _degree_span(cx, s=0):
    """The degrees from the lowest to the highest of cx, printed one by
    one; past MAX_SPAN of them, exit 4 naming the span shifted by s."""
    degs = cx.degrees()
    if degs and degs[-1] - degs[0] >= MAX_SPAN:
        raise PreconditionError("homology spans degrees %d..%d, more than %d values"
                                % (degs[0] + s, degs[-1] + s, MAX_SPAN))
    return range(degs[0], degs[-1] + 1) if degs else ()


def _homology_lines(cx):
    s = cx.display_shift
    # dim H^k from the ranks of d alone: no kernel or quotient basis is built
    return ["H^%d %d" % (k + s, cx.dim(k) - cx.d(k).rank() - cx.d(k - 1).rank())
            for k in _degree_span(cx, s)] or ["(zero complex)"]


def cmd_homology(args):
    doc = load_document(args.file, args.field)
    _emit(_homology_lines(doc.build_complex()))
    return 0


def _doc_shifts(doc, args):
    sn = args.shift_n if args.shift_n is not None else doc.shift_n
    sk = args.shift_k if args.shift_k is not None else doc.shift_k
    return sn, sk


def cmd_pages(args):
    doc = load_document(args.file, args.field)
    tower = doc.build_tower()
    sn, sk = _doc_shifts(doc, args)
    tsv = args.format == "tsv"
    if args.all:
        conv = tower.converge()
        if conv.r_stop > MAX_SPAN:
            raise PreconditionError("the tower stabilizes at page %d, past the %d pages --all prints; "
                                    "ask for one page with --page R" % (conv.r_stop, MAX_SPAN))
        rs = range(1, max(1, conv.r_stop) + 1)
    else:
        rs = [args.page if args.page is not None else 2]
        if rs[0] < 0:
            raise PreconditionError("page index must be >= 0, got %d" % rs[0])
    lines = []
    for r in rs:
        if tsv:
            lines += _tsv_lines(r, tower.page(r).dims(), sn, sk)
        else:
            lines += ["page %d" % r] + _table(tower.page(r).dims(), sn, sk) + ([""] if args.all else [])
    if args.all and tsv:
        lines += _tsv_lines(-1, conv.einf, sn, sk)
    elif args.all:
        lines.append("stable page: %d" % conv.r_stop)
        lines.append("certified: %s" % ("true" if conv.certified else "false"))
        lines.append("E_infinity")
        lines += _table(conv.einf, sn, sk)
        totals = conv.einf_total_dims()
        lines.append("totals: %s" % " ".join("H^%d %d" % (k + sn + sk, d) for k, d in totals.items()))
    _emit(lines)
    return 0


def cmd_e2(args):
    doc = load_document(args.file, args.field)
    if doc.kind != "fibration_data":
        raise PreconditionError("e2 needs a fibration_data document")
    from .fibration import e2_table
    table = e2_table(doc.payload)
    sn, sk = _doc_shifts(doc, args)
    lines = []
    if args.format == "tsv":
        lines += _tsv_lines(2, table.entries, sn, sk)
    else:
        lines.append("E_2 = H^p(base; H^q(fiber))")
        lines += _table(table.entries, sn, sk)
        lines.append("matches page 2: yes")
    _emit(lines)
    return 0


def cmd_oracle_check(args):
    doc = load_document(args.file, args.field)
    tower = doc.build_tower()
    degs = _degree_span(tower.complex)
    conv = tower.converge()
    direct = conv.h_dims
    totals = conv.einf_total_dims()
    degenerate = conv.r_stop <= 2  # no d_r with r >= 2 is nonzero
    lines = []
    lines.append("direct cohomology: %s" % (" ".join("H^%d %d" % (k, direct.get(k, 0)) for k in degs) or "0"))
    lines.append("E_infinity totals: %s" % (" ".join("H^%d %d" % (k, totals.get(k, 0)) for k in degs) or "0"))
    lines.append("certified: %s" % ("true" if conv.certified else "false"))
    lines.append("degenerates at E_2: %s" % ("yes" if degenerate else "no"))
    ok = conv.certified and direct == totals
    lines.append("PASS" if ok else "FAIL")
    _emit(lines)
    return 0 if ok else 1


def cmd_extend(args):
    sub_doc = load_document(args.subsystem, args.field)
    base_doc = load_document(args.base)
    if sub_doc.kind != "local_subsystem":
        raise PreconditionError("extend needs a local_subsystem document")
    if base_doc.kind != "base_graph":
        raise PreconditionError("extend needs a base_graph document")
    from .localsystems import extend_subsystem
    report = extend_subsystem(sub_doc.payload, base_doc.payload, max_word_depth=args.max_word_depth)
    lines = []
    lines.append("base point: %s" % report.base_point)
    lines.append("pi1 generators of base: %s" % (" ".join(report.pi1_generators) or "(none)"))
    lines.append("subsystem loops: %s" % " ".join(n for n, _, _ in report.loop_generators))
    if report.surjective is True:
        verdict = "yes"
    elif report.surjective is False:
        verdict = "no"
    else:
        verdict = "unknown"
    lines.append("surjective on pi1: %s" % verdict)
    if report.extension is not None:
        lines.append("extension:")
        ext_doc = Document("local_system", sub_doc.field, report.extension)
        lines.append(print_document(ext_doc).rstrip("\n"))
    else:
        lines.append("extension: none")
    _emit(lines)
    return 0


def cmd_compare_ls(args):
    cell_doc = load_document(args.cellular, args.field)
    fib_doc = load_document(args.fibration, args.field)
    if cell_doc.kind != "cellular_data":
        raise PreconditionError("compare-ls needs a cellular_data document first")
    if fib_doc.kind != "fibration_data":
        raise PreconditionError("compare-ls needs a fibration_data document second")
    if cell_doc.field != fib_doc.field:
        raise PreconditionError("compare-ls documents must share a field")
    from .fibration import leray_serre_compare
    cmp = leray_serre_compare(cell_doc.payload, fib_doc.payload)
    lines = []
    for r in range(1, min(cmp.rmax, MAX_SPAN) + 1):
        cell, fib = cmp.page_dims(r)
        lines.append("page %d: %s" % (r, "equal" if cell == fib else "DIFFERENT"))
        if cell != fib:
            lines.append("  cellular:")
            lines += ["  " + l for l in render_table(cell)]
            lines.append("  fibration:")
            lines += ["  " + l for l in render_table(fib)]
    if cmp.rmax > MAX_SPAN:  # after the pages above: a too-wide table among them is named first
        raise PreconditionError("compare-ls would compare pages 1..%d, more than %d pages" % (cmp.rmax, MAX_SPAN))
    lines.append("E_infinity: %s" % ("equal" if cmp.einf_cellular == cmp.einf_fibration else "DIFFERENT"))
    equal = cmp.equal
    lines.append("towers agree (pages >= 2 through E_infinity): %s" % ("yes" if equal else "no"))
    _emit(lines)
    return 0 if equal else 1


def cmd_kunneth(args):
    base_doc = load_document(args.base, args.field)
    fiber_doc = load_document(args.fiber, args.field)
    if base_doc.kind != "cochain_complex" or fiber_doc.kind != "cochain_complex":
        raise PreconditionError("kunneth needs two cochain_complex documents")
    if base_doc.field != fiber_doc.field:
        raise PreconditionError("kunneth factors must share a field")
    fd = product_fibration(base_doc.payload, fiber_doc.payload)
    doc = Document("fibration_data", base_doc.field, fd)
    sys.stdout.write(print_document(doc))
    return 0


def product_fibration(base_cx, fiber_cx):
    """Product FibrationData: base complex as Morse data, trivial transports.

    Each integral differential entry c becomes |c| unit-sign trajectories
    (over F_p, the canonical residue is the count); non-integral entries
    over Q cannot be modelled as signed trajectory counts.  The counts are
    summed before any trajectory is built, and past MAX_TRAJECTORIES in
    all the run exits 4.  FibrationData refuses a negative base degree and
    a JOIN in a base id.
    """
    from .fibration import FibrationData
    from .localsystems import BaseGraph
    from .morse import MorseData, Trajectory

    field, entries, total = base_cx.field, [], 0
    for k in base_cx.degrees():
        src, tgt = base_cx.basis.gens(k), base_cx.basis.gens(k + 1)
        for i, j, v in base_cx.d(k).entries():
            if field.p is None:
                if v.denominator != 1:
                    raise InvariantError(
                        "kunneth base differential entry %r -> %r is not an integer" % (src[j], tgt[i])
                    )
                count, sign = abs(v.numerator), (1 if v.numerator > 0 else -1)
            else:
                count, sign = int(v), 1
            total += count
            if total > MAX_TRAJECTORIES:
                raise PreconditionError("kunneth base differential entry %r -> %r takes the trajectory count to %d, "
                                        "above the limit %d" % (src[j], tgt[i], total, MAX_TRAJECTORIES))
            entries.append((k, src[j], tgt[i], count, sign))
    edges, trajs = [], []
    for k, s, t, count, sign in entries:
        for n in range(count):
            eid = "t%d_%s_%s_%d" % (k, s, t, n)
            edges.append((eid, t, s))
            trajs.append(Trajectory(eid, t, s, sign, ((eid, 1),)))
    points = base_cx.basis.generators
    md = MorseData(BaseGraph([g for g, _ in points], edges), points, trajs)
    return FibrationData(md, fiber_cx, {})


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spectower",
        description="spectral sequences of finite filtered cochain complexes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, shifts=True, tsv=False):
        p.add_argument("--field", default=None, help="override the document field (e.g. F2, Q)")
        if tsv:  # --raw is --format tsv; the last of the two given wins
            p.add_argument("--format", choices=("table", "tsv"), default="table")
            p.add_argument("--raw", dest="format", action="store_const", const="tsv",
                           help="emit r<TAB>p<TAB>q<TAB>dim lines, as --format tsv")
        if shifts:
            p.add_argument("--shift-n", dest="shift_n", type=int, default=None,
                           help="display shift added to p")
            p.add_argument("--shift-k", dest="shift_k", type=int, default=None,
                           help="display shift added to q")

    p = sub.add_parser("homology", help="per-degree cohomology dimensions")
    p.add_argument("file")
    common(p, shifts=False)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("pages", help="render spectral sequence pages")
    p.add_argument("file")
    p.add_argument("--page", type=int, default=None, help="single page index r")
    p.add_argument("--all", action="store_true", help="all pages to stabilization plus the convergence report")
    common(p, tsv=True)
    p.set_defaults(func=cmd_pages)

    p = sub.add_parser("e2", help="E_2 table through the cohomology local system")
    p.add_argument("file")
    common(p, tsv=True)
    p.set_defaults(func=cmd_e2)

    p = sub.add_parser("oracle-check", help="compare E_infinity totals with direct cohomology")
    p.add_argument("file")
    common(p, shifts=False)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("extend", help="extend a local subsystem to a local system")
    p.add_argument("subsystem")
    p.add_argument("base")
    p.add_argument("--max-word-depth", dest="max_word_depth", type=int, default=6)
    common(p, shifts=False)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("compare-ls", help="compare a skeleton-filtered cellular tower with a fibration tower")
    p.add_argument("cellular")
    p.add_argument("fibration")
    common(p, shifts=False)
    p.set_defaults(func=cmd_compare_ls)

    p = sub.add_parser("kunneth", help="emit the product fibration of two complexes")
    p.add_argument("base")
    p.add_argument("fiber")
    common(p, shifts=False)
    p.set_defaults(func=cmd_kunneth)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write("parse error: %s\n" % exc)
        return 2
    except InvariantError as exc:
        sys.stderr.write("invariant violation: %s\n" % exc)
        return 3
    except PreconditionError as exc:
        sys.stderr.write("precondition violation: %s\n" % exc)
        return 4
    except Exception as exc:
        msg = " ".join(str(exc).splitlines())
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, msg))
        return 5


if __name__ == "__main__":
    sys.exit(main())
