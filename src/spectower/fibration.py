"""Fibration assembler: fiber complex over a Morse base, block by block.

Total generators are x|g for each critical point x and fiber generator
g, graded by Morse index + fiber degree and filtered by Morse index.
`CochainComplex.from_blocks` places the blocks of the differential

    d_0 = the fiber differential over each point, carrying the Koszul
          sign (-1)^p over an index-p point (edge actions are chain maps,
          so the sign is what makes the cross terms with d_1 cancel),
    d_1 = the twisted Morse differential (trajectory transports act on
          the fiber complex; the block from the fiber over the lower
          point to the fiber over the upper one is sign * transport^{-1}),
    d_r (r >= 2) = user-supplied correction entries raising the base
          index by r, one single-entry block each,

and the assembler's job is to validate d^2 = 0 and feed the tower.

Grading shifts (shift_n, shift_k) are display offsets for reports; the
engine always works in raw (Morse index, fiber degree) coordinates.
"""

from fractions import Fraction
from math import lcm

from .complexes import JOIN, ChainMap, CochainComplex, GradedBasis
from .errors import InvariantError, ParseError, PreconditionError, _int
from .localsystems import LocalSystem, free_reduce, word_inverse
from .matrix import Matrix, _matrix
from .morse import cellular_complex, morse_complex


class FibrationData:
    """Morse base + fiber complex + chain-level edge actions + corrections.

    edge_action maps an edge id to {degree: Matrix}; degrees not mentioned
    act as the identity, one per fiber degree, built once and shared.  Every
    action must be a chain isomorphism of the fiber complex; each declared
    block is inverted once, at construction, by one verified solve, and
    checked to commute with d^k where d^k ≠ 0.  corrections is a list of
    (src_point, src_fiber_gen, dst_point, dst_fiber_gen, scalar) entries
    raising the base index by at least 2.
    """

    def __init__(self, base, fiber, edge_action=None, corrections=(), shift_n=0, shift_k=0):
        self.base = base
        self.fiber = fiber
        self.shift_n = _int(shift_n, "shift_n")
        self.shift_k = _int(shift_k, "shift_k")
        for x, k in base.points.items():
            if JOIN in x:
                raise ParseError("critical point id %r must not contain %r" % (x, JOIN))
            if k < 0:
                raise ParseError("critical point %r has negative index %d" % (x, k))
        self.edge_action, self._ident = {}, {}
        for eid, blocks in (edge_action or {}).items():
            if eid not in base.graph.edges:
                raise ParseError("edge action on unknown edge %r" % eid)
            norm = {}
            for k, m in blocks.items():
                k = _int(k, "edge %r action degree", eid)
                want = (fiber.dim(k), fiber.dim(k))
                if m.shape != want or m.field != fiber.field:
                    raise ParseError("edge %r action in degree %d has shape %s, expected %s"
                                     % (eid, k, m.shape, want))
                norm[k] = m
            self.edge_action[eid] = norm
        self._check_actions()
        corr = []
        for sp, sf, dp, df, v in corrections:
            sp, sf, dp, df = str(sp), str(sf), str(dp), str(df)
            if sp not in base.points or dp not in base.points:
                raise ParseError("correction references unknown critical point %r or %r" % (sp, dp))
            if sf not in fiber.basis or df not in fiber.basis:
                raise ParseError("correction references unknown fiber generator %r or %r" % (sf, df))
            r = base.points[dp] - base.points[sp]
            if r < 2:
                raise ParseError("correction %r -> %r raises the base index by %d, need >= 2" % (sp, dp, r))
            ks = base.points[sp] + fiber.basis.position(sf)[0]
            kd = base.points[dp] + fiber.basis.position(df)[0]
            if kd != ks + 1:
                raise ParseError("correction (%s,%s) -> (%s,%s) changes total degree by %d, not +1"
                                 % (sp, sf, dp, df, kd - ks))
            corr.append((sp, sf, dp, df, fiber.field.normalize(v)))
        self.corrections = tuple(corr)
        self._assembled = None

    def _identity(self, k):
        """The one identity of fiber degree k, built on first use."""
        return self._ident.get(k) or self._ident.setdefault(k, Matrix.identity(self.fiber.field, self.fiber.dim(k)))

    def _check_actions(self):
        fib = self.fiber
        self._inverses = {}
        for eid in self.base.graph.edges:
            act, inv = self.edge_action.get(eid, {}), self._inverses.setdefault(eid, {})
            for k, m in act.items():
                inv[k] = m.solve(self._identity(k))
                if inv[k] is None:
                    raise InvariantError("edge %r action in degree %d is not invertible" % (eid, k))
            for k in [k for k in sorted(fib._d) if k in inv or k + 1 in inv]:  # elsewhere both sides are 0, or both d^k
                lhs = (act.get(k + 1) or self._identity(k + 1)) * fib.d(k)
                rhs = fib.d(k) * (act.get(k) or self._identity(k))
                if lhs != rhs:
                    raise InvariantError(
                        "edge %r action does not commute with the fiber differential in degree %d"
                        % (eid, k)
                    )


def chain_transport(fd, word):
    """Per-degree transport of the fiber complex along an edge word."""
    if word:
        fd.base.graph.word_endpoints(word)
    out = {}  # degree -> the product of the declared blocks so far
    for e, s in word:
        for k, m in (fd.edge_action if s == 1 else fd._inverses).get(e, {}).items():
            out[k] = m * out[k] if k in out else m
    return {k: out[k] if k in out else fd._identity(k) for k in fd.fiber.degrees()}


def assemble_fibration(fd):
    """Build the block-filtered total complex; validates d^2 = 0.

    A failure is reported at the lexicographically lowest bidegree (p, q)
    among the sources of offending entries, since correction blocks
    constrain each other upward.
    """
    if fd._assembled is not None:
        return fd._assembled
    from .spectral import SplitFilteredComplex
    base, fib = fd.base, fd.fiber
    f = fib.field
    # Koszul sign: edge actions are chain maps (they commute with the
    # fiber differential), so the fiberwise block over an index-p point
    # carries (-1)^p for the cross terms with d_1 to cancel
    neg = {k: -fib.d(k) for k in fib.degrees()}
    blocks = [(x, x, k, neg[k] if px % 2 else fib.d(k)) for x, px in base.points.items() for k in fib.degrees()]
    for t in base.differential_trajectories():
        blocks += [(t.dst, t.src, k, minv if t.sign == 1 else -minv)
                   for k, minv in chain_transport(fd, word_inverse(t.word)).items()]
    for sp, sf, dp, df, v in fd.corrections:
        (ks, s_off), (kd, d_off) = fib.basis.position(sf), fib.basis.position(df)
        blocks.append((sp, dp, ks, Matrix(f, fib.dim(kd), fib.dim(ks), {(d_off, s_off): v})))
    cx = CochainComplex.from_blocks(f, base.points.items(), fib.basis, blocks, check=False,
                                    display_shift=fd.shift_n + fd.shift_k)
    pts = [px for px in base.points.values() for _ in fib.basis.generators]  # x-major, like the basis
    filt = {g: px for (g, _), px in zip(cx.basis.generators, pts)}
    _check_total_d2(cx, filt)
    fd._assembled = SplitFilteredComplex(cx, filt)
    return fd._assembled


def _check_total_d2(cx, blocks):
    bad = [(blocks[cx.basis.gens(k)[j]], k) for k, prod in cx.d_squared_defects() for _, j, _ in prod.entries()]
    if bad:
        p, k = min(bad)
        raise InvariantError("total differential fails d^2 = 0 at bidegree (p=%d, q=%d)" % (p, k - p))


class E2Table:
    """Second-page dimensions computed through the cohomology local system.

    entries maps raw (p, q) to a nonzero dimension; systems maps q to the
    LocalSystem with fiber H^q(fiber) that produced column q.  The table
    carries no display shifts: a report shifts (p, q) by its document's.
    """

    __slots__ = ("entries", "systems")

    def __init__(self, entries, systems):
        self.entries = entries
        self.systems = systems


def cohomology_local_system(fd, q):
    """The induced local system with fiber H^q(fiber), or None if that is 0.

    Transport per edge is the induced map of the chain-level action on
    cohomology representatives, solved only where the edge has a degree-q
    block; elsewhere it is the identity, as reps are the leading pivot
    columns of [reps | d^{q-1}].  Homotopy invariance over the declared
    relations is enforced (its failure marks inconsistent input data).
    """
    fib_h = fd.fiber.cohomology()
    dim_q = fib_h.dim(q)
    if dim_q == 0:
        return None
    reps, f = fib_h.representatives(q), fd.fiber.field
    acting = [eid for eid in fd.base.graph.edges if q in fd.edge_action.get(eid, {})]
    imgs = [fd.edge_action[eid][q] * reps for eid in acting]
    # one solve for every acting edge: solutions are canonical column by column
    coords = fib_h.coordinates(q, Matrix.hstack(f, reps.nrows, imgs)) if acting else None
    for eid, m in zip(acting, imgs):
        if coords is None and fib_h.coordinates(q, m) is None:
            raise InvariantError("edge %r action does not act on H^%d" % (eid, q))
    transports = dict.fromkeys(fd.base.graph.edges, Matrix.identity(f, dim_q))
    transports.update((eid, coords.take_columns(range(n * dim_q, (n + 1) * dim_q))) for n, eid in enumerate(acting))
    return LocalSystem(fd.base.graph, f, dim_q, transports)


def e2_table(fd):
    """H^p(base; H^q(fiber)-system) for every q, cross-checked exactly
    against page 2 of the assembled tower (a mismatch is an engine bug)."""
    fib_h = fd.fiber.cohomology()
    entries = {}
    systems = {}
    for q in fib_h.degrees():
        sysq = cohomology_local_system(fd, q)
        if sysq is None:
            continue
        systems[q] = sysq
        mc = morse_complex(fd.base, sysq)
        for p in mc.degrees():  # dim H^p from the ranks of d alone, nonzero cells only
            if d := mc.dim(p) - mc.d(p).rank() - mc.d(p - 1).rank():
                entries[(p, q)] = d
    page2 = assemble_fibration(fd).page(2)
    if entries != page2.dims():
        raise InvariantError(
            "E_2 table %s disagrees with page 2 dimensions %s: engine bug"
            % (entries, page2.dims())
        )
    return E2Table(entries, systems)


class LerayComparison:
    """Page-by-page dimension comparison of two towers over the same space.

    The verdict `equal` covers pages r >= 2 through E_infinity; the r = 1
    tables are reported but informational (an arbitrary CW model need not
    match the Morse model before page 2).
    """

    __slots__ = ("pages_cellular", "pages_fibration", "einf_cellular", "einf_fibration",
                 "h_dims", "equal", "r1_equal")

    def __init__(self, pages_cellular, pages_fibration, einf_cellular, einf_fibration, h_dims,
                 equal, r1_equal):
        self.pages_cellular = pages_cellular
        self.pages_fibration = pages_fibration
        self.einf_cellular = einf_cellular
        self.einf_fibration = einf_fibration
        self.h_dims = h_dims
        self.equal = equal
        self.r1_equal = r1_equal

    def __bool__(self):
        return self.equal


def leray_serre_compare(cd_total, fd):
    """Compare the skeleton-filtered cellular tower with the assembled one.

    cd_total is CellularData for the total space with per-cell base
    indices in `filtration`; its cochain complex is untwisted over the
    fiber complex's field.  Refuses with a precondition error when the
    two total cohomologies, the certified `h_dims` of the two converged
    towers, disagree.
    """
    if cd_total.filtration is None:
        raise PreconditionError("total-space cellular data carries no filtration labels")
    from .spectral import SplitFilteredComplex
    total_cx = cellular_complex(cd_total, ls=None, field=fd.fiber.field)
    labels = {}
    for (g, _), cell in zip(total_cx.basis.generators, cd_total.order):  # one generator per cell
        if cell not in cd_total.filtration:
            raise PreconditionError("cell %r has no filtration label" % cell)
        labels[g] = cd_total.filtration[cell]
    cell_tower = SplitFilteredComplex(total_cx, labels)
    fib_tower = assemble_fibration(fd)
    conv_c = cell_tower.converge()
    conv_f = fib_tower.converge()
    if conv_c.h_dims != conv_f.h_dims:
        raise PreconditionError(
            "total cohomology disagrees: cellular %s vs fibration %s" % (conv_c.h_dims, conv_f.h_dims)
        )

    rmax = max(cell_tower.n, fib_tower.n) + 1
    pages_c, pages_f = {}, {}
    for r in range(1, rmax + 1):
        pages_c[r] = cell_tower.page(r).dims()
        pages_f[r] = fib_tower.page(r).dims()
    equal = (
        all(pages_c[r] == pages_f[r] for r in range(2, rmax + 1))
        and conv_c.einf == conv_f.einf
        and conv_c.certified
        and conv_f.certified
    )
    return LerayComparison(pages_c, pages_f, conv_c.einf, conv_f.einf, conv_c.h_dims,
                           equal, pages_c[1] == pages_f[1])


class ComposeReport:
    """Transport comparison along a broken pair against its gluing path.

    cohomology_equal is the verdict; chain_diff_degrees lists fiber
    degrees where the chain-level matrices differ (legitimately allowed:
    chain-homotopic transports coincide only on cohomology).
    """

    __slots__ = ("cohomology_equal", "chain_equal", "chain_diff_degrees")

    def __init__(self, cohomology_equal, chain_equal, chain_diff_degrees):
        self.cohomology_equal = cohomology_equal
        self.chain_equal = chain_equal
        self.chain_diff_degrees = chain_diff_degrees

    def __bool__(self):
        return self.cohomology_equal


def _cyclic_variants(word):
    w = free_reduce(word)
    out = set()
    for base in (w, word_inverse(w)):
        for i in range(max(1, len(base))):
            out.add(base[i:] + base[:i])
    return out


def transport_compose_check(fd, u_id, v_id, gamma_id):
    """Check transport along gamma against the composite along u then v.

    u: x -> y, v: y -> z, gamma: x -> z, with the homotopy gamma ~ u.v
    declared among the base graph relations (or the words equal after
    free reduction).  Equality is required on fiber cohomology; the
    chain-level comparison is reported alongside.
    """
    u = fd.base.trajectory(u_id)
    v = fd.base.trajectory(v_id)
    g = fd.base.trajectory(gamma_id)
    if u.dst != v.src or g.src != u.src or g.dst != v.dst:
        raise PreconditionError(
            "paths are not composable: u: %s->%s, v: %s->%s, gamma: %s->%s"
            % (u.src, u.dst, v.src, v.dst, g.src, g.dst)
        )
    loop = free_reduce(u.word + v.word + word_inverse(g.word))
    if loop:
        declared = set()
        for rel in fd.base.graph.relations:
            declared |= _cyclic_variants(rel)
        if loop not in declared:
            raise PreconditionError(
                "homotopy between gamma and u.v is not declared in the base graph relations"
            )
    t_g = chain_transport(fd, g.word)
    t_uv = chain_transport(fd, u.word + v.word)
    diff_degrees = tuple(k for k in sorted(t_g) if t_g[k] != t_uv[k])
    fib_h = fd.fiber.cohomology()
    coh_equal = True
    for q in fib_h.degrees():
        reps = fib_h.representatives(q)
        a = fib_h.coordinates(q, t_g[q] * reps)
        b = fib_h.coordinates(q, t_uv[q] * reps)
        if a is None or b is None:
            raise InvariantError("transport image escaped the cocycles in degree %d" % q)
        if a != b:
            coh_equal = False
    return ComposeReport(coh_equal, not diff_degrees, diff_degrees)


# -- action windows ------------------------------------------------------------


def _exact(x, what, name):
    """x as an int or a Fraction, None as None; no floats, as Fraction(0.1) != 1/10."""
    if isinstance(x, float):
        raise ParseError("%s %r is the float %r; give an int or a Fraction" % (what, name, x))
    return x if x is None or type(x) is int or type(x) is Fraction else Fraction(x)


def _normalize_action(sfc, action):
    out = {}
    for g, _ in sfc.complex.basis.generators:
        if action.get(g) is None:
            raise ParseError("generator %r has no action value" % g)
        out[g] = _exact(action[g], "action of generator", g)
    den = lcm(*[x.denominator for x in out.values()])
    return {g: x.numerator * (den // x.denominator) for g, x in out.items()}, den


def _check_action_decreasing(sfc, key):
    cx = sfc.complex
    for k in cx.degrees():
        src, tgt = cx.basis.gens(k), cx.basis.gens(k + 1)
        bad = [(i, j) for i, j in cx.d(k).support() if key[tgt[i]] >= key[src[j]]]
        if bad:
            i, j = min(bad)
            raise InvariantError("differential entry %r -> %r does not strictly decrease the action"
                                 % (src[j], tgt[i]))


def action_window(sfc, action, a=None, b=None):
    """Subquotient complex spanned by generators with action in [a, b].

    The action must strictly decrease along the differential (checked), so
    span{action <= t} is a subcomplex for every t and the window span{<= b} /
    span{< a} is well defined; blocks are inherited.  Actions compare as exact
    integer keys over one common denominator.  A window that keeps every
    generator is the tower itself: the same object, sharing its reduction.
    """
    key, den = _normalize_action(sfc, action)
    _check_action_decreasing(sfc, key)
    return _window(sfc, key, den, _exact(a, "window bound", "a"), _exact(b, "window bound", "b"))


def _window(sfc, key, den, a, b):
    """action_window for checked integer keys over den and exact bounds;
    `sfc` itself when the window keeps every generator."""
    from .spectral import SplitFilteredComplex
    cx = sfc.complex
    lo = None if a is None else -(-a.numerator * den // a.denominator)  # ceil(a den) <= key <= floor(b den)
    hi = None if b is None else b.numerator * den // b.denominator
    gens = [(g, k) for g, k in cx.basis.generators
            if (lo is None or lo <= key[g]) and (hi is None or key[g] <= hi)]
    if len(gens) == len(cx.basis.generators):
        return sfc
    kept = {g for g, _ in gens}
    pos = {k: [i for i, g in enumerate(cx.basis.gens(k)) if g in kept] for k in cx.degrees()}
    diff = {k: cx.d(k).submatrix(pos.get(k + 1, ()), pos[k]) for k in cx.degrees()}
    sub = CochainComplex(cx.field, GradedBasis(gens), diff)
    return SplitFilteredComplex(sub, {g: sfc.blocks[g] for g, _ in gens})


def truncation_map(sfc, action, src_window, dst_window):
    """The filtered chain map between two action windows.

    Windows move upward: for [a, b] -> [a2, b2] one needs a2 >= a and
    b2 >= b (quotient away the bottom, include into the larger top).
    Actions compare as exact integer keys, as in action_window.
    Returns a FilteredChainMap ready for map_of_spectral_sequences.
    """
    key, den = _normalize_action(sfc, action)
    _check_action_decreasing(sfc, key)
    (a, b), (a2, b2) = src_window, dst_window
    fa, fb, fa2, fb2 = (_exact(x, "window bound", n) for x, n in ((a, "a"), (b, "b"), (a2, "a2"), (b2, "b2")))
    # bottoms: None = -inf; tops: None = +inf; both ends may only move up
    if fa is not None and (fa2 is None or fa2 < fa):
        raise PreconditionError("truncation window must not extend downward: a2 >= a required")
    if fb2 is not None and (fb is None or fb2 < fb):
        raise PreconditionError("truncation window must not shrink at the top: b2 >= b required")
    from .spectral import FilteredChainMap

    src = _window(sfc, key, den, fa, fb)
    dst = _window(sfc, key, den, fa2, fb2)
    f, blocks = sfc.complex.field, {}
    for k in set(src.complex.degrees()) | set(dst.complex.degrees()):  # selection columns: e_i or 0
        dpos = {g: i for i, g in enumerate(dst.complex.basis.gens(k))}
        at = [dpos.get(g) for g in src.complex.basis.gens(k)]
        cols = [0 if i is None else 1 << i for i in at] if f.p == 2 else [{} if i is None else {i: 1} for i in at]
        blocks[k] = _matrix(f, dst.complex.dim(k), cols)
    cmap = ChainMap(src.complex, dst.complex, blocks)
    return FilteredChainMap(cmap, src, dst)
