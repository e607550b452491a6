"""Fibration assembler: fiber complex over a Morse base, block by block.

Total generators are (critical point) x (fiber generator), graded by
Morse index + fiber degree and filtered by Morse index.  The assembled
differential is

    d_0 = the fiber differential over each point, carrying the Koszul
          sign (-1)^p over an index-p point (edge actions are chain maps,
          so the sign is what makes the cross terms with d_1 cancel),
    d_1 = the twisted Morse differential (trajectory transports act on
          the fiber complex; the block from the fiber over the lower
          point to the fiber over the upper one is sign * transport^{-1}),
    d_r (r >= 2) = user-supplied correction blocks raising the base
          index by exactly r,

and the assembler's job is to validate d^2 = 0 and feed the tower.

Grading shifts (shift_n, shift_k) are display offsets for reports; the
engine always works in raw (Morse index, fiber degree) coordinates.
"""

from fractions import Fraction

from .complexes import ChainMap, CochainComplex
from .errors import InvariantError, ParseError, PreconditionError
from .localsystems import LocalSystem, free_reduce, word_inverse
from .matrix import Matrix
from .morse import JOIN, cellular_complex, morse_complex
from .spectral import FilteredChainMap, SplitFilteredComplex

__all__ = [
    "FibrationData",
    "E2Table",
    "LerayComparison",
    "ComposeReport",
    "assemble_fibration",
    "chain_transport",
    "e2_table",
    "leray_serre_compare",
    "transport_compose_check",
    "action_window",
    "truncation_map",
]


class FibrationData:
    """Morse base + fiber complex + chain-level edge actions + corrections.

    edge_action maps an edge id to {degree: Matrix}; degrees not mentioned
    act as the identity.  Every action must be a chain isomorphism of the
    fiber complex.  corrections is a list of
    (src_point, src_fiber_gen, dst_point, dst_fiber_gen, scalar) entries
    raising the base index by at least 2.
    """

    def __init__(self, base, fiber, edge_action=None, corrections=(), shift_n=0, shift_k=0):
        self.base = base
        self.fiber = fiber
        self.shift_n = int(shift_n)
        self.shift_k = int(shift_k)
        for x in base.points:
            if JOIN in x:
                raise ParseError("critical point id %r must not contain %r" % (x, JOIN))
        for x, k in base.points.items():
            if k < 0:
                raise ParseError("critical point %r has negative index %d" % (x, k))
        self.edge_action = {}
        for eid, blocks in (edge_action or {}).items():
            if eid not in base.graph.edges:
                raise ParseError("edge action on unknown edge %r" % eid)
            norm = {}
            for k, m in blocks.items():
                k = int(k)
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

    def action_matrix(self, eid, k):
        m = self.edge_action.get(eid, {}).get(k)
        if m is None:
            return Matrix.identity(self.fiber.field, self.fiber.dim(k))
        return m

    def _check_actions(self):
        fib = self.fiber
        for eid in self.base.graph.edges:
            for k in set(fib.degrees()) | set(self.edge_action.get(eid, {})):
                m = self.action_matrix(eid, k)
                if m.rank() != m.nrows:
                    raise InvariantError("edge %r action in degree %d is not invertible" % (eid, k))
            for k in fib.degrees():
                lhs = self.action_matrix(eid, k + 1) * fib.d(k)
                rhs = fib.d(k) * self.action_matrix(eid, k)
                if lhs != rhs:
                    raise InvariantError(
                        "edge %r action does not commute with the fiber differential in degree %d"
                        % (eid, k)
                    )


def chain_transport(fd, word):
    """Per-degree transport of the fiber complex along an edge word."""
    fib = fd.fiber
    out = {k: Matrix.identity(fib.field, fib.dim(k)) for k in fib.degrees()}
    at = None
    for e, s in word:
        a, b = fd.base.graph.step_endpoints((e, s))
        if at is not None and a != at:
            raise PreconditionError("transport word is not composable at edge %r" % e)
        at = b
        for k in out:
            m = fd.action_matrix(e, k)
            if s == -1:
                m = m.inverse()
            out[k] = m * out[k]
    return out


def assemble_fibration(fd):
    """Build the block-filtered total complex; validates d^2 = 0.

    A failure is reported at the lexicographically lowest bidegree (p, q)
    among the sources of offending entries, since correction blocks
    constrain each other upward.
    """
    if fd._assembled is not None:
        return fd._assembled
    base, fib = fd.base, fd.fiber
    f = fib.field
    gens = []
    blocks = {}
    for x, px in base.points.items():
        if JOIN in x:
            raise ParseError("critical point id %r must not contain %r" % (x, JOIN))
        for g, kg in fib.basis.generators:
            gid = x + JOIN + g
            gens.append((gid, px + kg))
            blocks[gid] = px
    entries = []
    for x, px in base.points.items():
        # Koszul sign: edge actions are chain maps (they commute with the
        # fiber differential), so the fiberwise block over an index-p point
        # carries (-1)^p for the cross terms with d_1 to cancel
        sign = f.normalize(-1 if px % 2 else 1)
        for k in fib.degrees():
            tgt, src = fib.basis.gens(k + 1), fib.basis.gens(k)
            for i, j, v in fib.d(k).entries():
                entries.append((x + JOIN + src[j], x + JOIN + tgt[i], f.mul(sign, v)))
    for t in base.differential_trajectories():
        tr = chain_transport(fd, t.word)
        sign = f.normalize(t.sign)
        for k, m in tr.items():
            minv = m.inverse()
            tgt = src = fib.basis.gens(k)
            for i, j, v in minv.entries():
                entries.append((t.dst + JOIN + src[j], t.src + JOIN + tgt[i], f.mul(sign, v)))
    for sp, sf, dp, df, v in fd.corrections:
        entries.append((sp + JOIN + sf, dp + JOIN + df, v))
    cx = CochainComplex.from_generator_entries(f, gens, entries, check=False,
                                               display_shift=fd.shift_n + fd.shift_k)
    _check_total_d2(cx, blocks)
    fd._assembled = SplitFilteredComplex(cx, blocks)
    return fd._assembled


def _check_total_d2(cx, blocks):
    bad = []
    for k in sorted(cx._d):
        prod = cx.d(k + 1) * cx.d(k)
        if prod.is_zero():
            continue
        for i, j, _ in prod.entries():
            g = cx.basis.gens(k)[j]
            p = blocks[g]
            bad.append((p, k - p))
    if bad:
        p, q = min(bad)
        raise InvariantError("total differential fails d^2 = 0 at bidegree (p=%d, q=%d)" % (p, q))


class E2Table:
    """Second-page dimensions computed through the cohomology local system.

    entries maps raw (p, q) to a nonzero dimension; systems maps q to the
    LocalSystem with fiber H^q(fiber) that produced column q.  Display
    shifts relabel (p, q) as (p + shift_n, q + shift_k) in reports only.
    """

    __slots__ = ("entries", "shift_n", "shift_k", "systems")

    def __init__(self, entries, shift_n, shift_k, systems):
        self.entries = entries
        self.shift_n = shift_n
        self.shift_k = shift_k
        self.systems = systems

    def shifted_entries(self):
        return {(p + self.shift_n, q + self.shift_k): d for (p, q), d in sorted(self.entries.items())}


def cohomology_local_system(fd, q):
    """The induced local system with fiber H^q(fiber), or None if that is 0.

    Transport per edge is the induced map of the chain-level action on
    cohomology representatives; homotopy invariance over the declared
    relations is enforced (its failure marks inconsistent input data).
    """
    fib_h = fd.fiber.cohomology()
    dim_q = fib_h.dim(q)
    if dim_q == 0:
        return None
    reps = fib_h.representatives(q)
    transports = {}
    for eid in fd.base.graph.edges:
        imgs = fd.action_matrix(eid, q) * reps
        coords = fib_h.coordinates(q, imgs)
        if coords is None:
            raise InvariantError("edge %r action does not act on H^%d" % (eid, q))
        transports[eid] = coords
    return LocalSystem(fd.base.graph, fd.fiber.field, dim_q, transports, check=True)


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
        for p, d in mc.cohomology().dims().items():
            entries[(p, q)] = d
    page2 = assemble_fibration(fd).page(2)
    if entries != page2.dims():
        raise InvariantError(
            "E_2 table %s disagrees with page 2 dimensions %s: engine bug"
            % (entries, page2.dims())
        )
    return E2Table(entries, fd.shift_n, fd.shift_k, systems)


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


def leray_serre_compare(cd_total, fd, field=None):
    """Compare the skeleton-filtered cellular tower with the assembled one.

    cd_total is CellularData for the total space with per-cell base
    indices in `filtration`; its cochain complex is untwisted over the
    fiber complex's field (or `field` if given).  Refuses with a
    precondition error when the two total cohomologies already disagree.
    """
    f = field if field is not None else fd.fiber.field
    if cd_total.filtration is None:
        raise PreconditionError("total-space cellular data carries no filtration labels")
    total_cx = cellular_complex(cd_total, ls=None, field=f)
    labels = {}
    for cell in cd_total.order:
        if cell not in cd_total.filtration:
            raise PreconditionError("cell %r has no filtration label" % cell)
        labels[cell + JOIN + "0"] = cd_total.filtration[cell]
    cell_tower = SplitFilteredComplex(total_cx, labels)
    fib_tower = assemble_fibration(fd)

    h_cell = total_cx.cohomology().dims()
    h_fib = fib_tower.complex.cohomology().dims()
    if h_cell != h_fib:
        raise PreconditionError(
            "total cohomology disagrees: cellular %s vs fibration %s" % (h_cell, h_fib)
        )

    rmax = max(cell_tower.n, fib_tower.n) + 1
    pages_c, pages_f = {}, {}
    for r in range(1, rmax + 1):
        pages_c[r] = cell_tower.page(r).dims()
        pages_f[r] = fib_tower.page(r).dims()
    conv_c = cell_tower.converge()
    conv_f = fib_tower.converge()
    equal = (
        all(pages_c[r] == pages_f[r] for r in range(2, rmax + 1))
        and conv_c.einf == conv_f.einf
        and conv_c.certified
        and conv_f.certified
    )
    return LerayComparison(pages_c, pages_f, conv_c.einf, conv_f.einf, h_cell,
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


def _normalize_action(sfc, action):
    out = {}
    for g, _ in sfc.complex.basis.generators:
        if g not in action:
            raise ParseError("generator %r has no action value" % g)
        out[g] = Fraction(action[g])
    return out


def _check_action_decreasing(sfc, act):
    cx = sfc.complex
    for k in cx.degrees():
        src, tgt = cx.basis.gens(k), cx.basis.gens(k + 1)
        for i, j, _ in cx.d(k).entries():
            if not act[tgt[i]] < act[src[j]]:
                raise InvariantError(
                    "differential entry %r -> %r does not strictly decrease the action"
                    % (src[j], tgt[i])
                )


def _in_window(x, a, b):
    return (a is None or a <= x) and (b is None or x <= b)


def action_window(sfc, action, a=None, b=None):
    """Subquotient complex spanned by generators with action in [a, b].

    The action must strictly decrease along the differential (checked), so
    span{action <= t} is a subcomplex for every t and the window
    span{<= b} / span{< a} is well defined; blocks are inherited.
    """
    act = _normalize_action(sfc, action)
    _check_action_decreasing(sfc, act)
    a = Fraction(a) if a is not None else None
    b = Fraction(b) if b is not None else None
    kept = {g for g, _ in sfc.complex.basis.generators if _in_window(act[g], a, b)}
    return _restrict_to(sfc, kept)


def _restrict_to(sfc, kept):
    cx = sfc.complex
    gens = [(g, k) for g, k in cx.basis.generators if g in kept]
    entries = []
    for k in cx.degrees():
        src, tgt = cx.basis.gens(k), cx.basis.gens(k + 1)
        for i, j, v in cx.d(k).entries():
            if src[j] in kept and tgt[i] in kept:
                entries.append((src[j], tgt[i], v))
    sub = CochainComplex.from_generator_entries(cx.field, gens, entries, check=True)
    return SplitFilteredComplex(sub, {g: sfc.blocks[g] for g, _ in gens})


def truncation_map(sfc, action, src_window, dst_window):
    """The filtered chain map between two action windows.

    Windows move upward: for [a, b] -> [a2, b2] one needs a2 >= a and
    b2 >= b (quotient away the bottom, include into the larger top).
    Returns a FilteredChainMap ready for map_of_spectral_sequences.
    """
    act = _normalize_action(sfc, action)
    _check_action_decreasing(sfc, act)
    a, b = src_window
    a2, b2 = dst_window
    fa = Fraction(a) if a is not None else None
    fb = Fraction(b) if b is not None else None
    fa2 = Fraction(a2) if a2 is not None else None
    fb2 = Fraction(b2) if b2 is not None else None
    # bottoms: None = -inf; tops: None = +inf; both ends may only move up
    if fa2 is None and fa is not None:
        raise PreconditionError("truncation window must not extend downward: a2 >= a required")
    if fa is not None and fa2 is not None and fa2 < fa:
        raise PreconditionError("truncation window must not extend downward: a2 >= a required")
    if fb2 is not None and (fb is None or fb2 < fb):
        raise PreconditionError("truncation window must not shrink at the top: b2 >= b required")

    src = action_window(sfc, action, a, b)
    dst = action_window(sfc, action, a2, b2)
    blocks = {}
    for k in set(src.complex.degrees()) | set(dst.complex.degrees()):
        sgens = src.complex.basis.gens(k)
        dpos = {g: i for i, g in enumerate(dst.complex.basis.gens(k))}
        ent = {}
        for j, g in enumerate(sgens):
            i = dpos.get(g)
            if i is not None:
                ent[(i, j)] = sfc.complex.field.one
        blocks[k] = Matrix(sfc.complex.field, dst.complex.dim(k), len(sgens), ent, _normalized=True)
    cmap = ChainMap(src.complex, dst.complex, blocks, check=True)
    return FilteredChainMap(cmap, src, dst, check=True)
