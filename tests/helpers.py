"""Shared test utilities: independent oracles and random instance generators.

The oracles are deliberately naive (dense, no pivot strategy, no reuse of
library internals) so they stay independent of the code under test.
"""

from fractions import Fraction
from unittest import mock

from spectower.complexes import CochainComplex, GradedBasis
from spectower.errors import InvariantError
from spectower.field import Field
from spectower.matrix import Matrix
from spectower.spectral import FilteredComplex, SplitFilteredComplex


def unchecked(owner, name):
    """A context manager under which the check owner.name does nothing, so a
    test can build a faulty object on purpose and watch a later check refuse
    it; unlike pytest's monkeypatch it also works inside Hypothesis tests."""
    return mock.patch.object(owner, name, lambda *args, **kwargs: None)


# -- oracles ----------------------------------------------------------------


def oracle_rank(field, dense):
    """Textbook dense Gaussian elimination, first nonzero pivot, no frills."""
    return len(oracle_rref(field, dense)[0])


def oracle_matrix_rank(m):
    return oracle_rank(m.field, m.to_dense())


def oracle_span_contains(big, small):
    """True iff span(small) ⊆ span(big): [big | small] has the dense rank of big."""
    return oracle_matrix_rank(Matrix.hstack(big.field, big.nrows, [big, small])) == oracle_matrix_rank(big)


def oracle_rref(field, dense, piv_limit=None):
    """(pivot columns, RREF rows) by textbook dense Gauss-Jordan: first
    nonzero pivot, pivot row scaled to 1, column cleared above and below;
    pivots only in columns < piv_limit, rows past the pivots' are zero there."""
    m = [[field.normalize(v) for v in row] for row in dense]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols if piv_limit is None else piv_limit):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != field.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m


def oracle_product(field, da, db, ncols):
    """The product of the dense rows da and db (ncols columns) by the
    textbook triple loop in scalar field arithmetic."""
    out = []
    for row in da:
        acc = [field.zero] * ncols
        for j, x in enumerate(row):
            for k in range(ncols):
                acc[k] = field.add(acc[k], field.mul(x, db[j][k]))
        out.append(acc)
    return out


def oracle_solve(a, b):
    """Dense rows of the X with A X = B and every free variable zero, or
    None when some column of B is outside the column span of A."""
    field, n = a.field, a.ncols
    pivots, m = oracle_rref(field, [ra + rb for ra, rb in zip(a.to_dense(), b.to_dense())], n)
    if any(x != field.zero for row in m[len(pivots):] for x in row):
        return None
    x = [[field.zero] * b.ncols for _ in range(n)]
    for i, pc in enumerate(pivots):
        x[pc] = m[i][n:]
    return x


def oracle_reduction_basis(sfc):
    """{(k, position): W column, dense over positions} by the textbook
    persistence reduction in scalar field arithmetic: generators of each
    degree in block-descending order, each column cleared against the
    earlier column owning its lowest entry; W is the R column at a death
    end and the V column elsewhere."""
    cx, f = sfc.complex, sfc.complex.field
    order = {k: sorted(range(cx.dim(k)), key=lambda i: -sfc.blocks[cx.basis.gens(k)[i]])
             for k in cx.degrees()}
    w = {}
    for k in cx.degrees():
        src, dst = order[k], order.get(k + 1, [])
        dense = cx.d(k).to_dense()
        r = [[dense[i][j] for i in dst] for j in src]
        v = [[f.one if a == j else f.zero for a in range(len(src))] for j in range(len(src))]
        owner = {}
        for j in range(len(src)):
            while any(x != f.zero for x in r[j]):
                low = max(i for i, x in enumerate(r[j]) if x != f.zero)
                i = owner.setdefault(low, j)
                if i == j:
                    break
                c = f.div(r[j][low], r[i][low])
                r[j] = [f.sub(a, f.mul(c, b)) for a, b in zip(r[j], r[i])]
                v[j] = [f.sub(a, f.mul(c, b)) for a, b in zip(v[j], v[i])]
        for low, j in owner.items():
            col = [f.zero] * len(dst)
            for t, x in enumerate(r[j]):
                col[dst[t]] = x
            w[(k + 1, dst[low])] = col
        for j in range(len(src)):
            col = [f.zero] * len(src)
            for t, x in enumerate(v[j]):
                col[src[t]] = x
            w.setdefault((k, src[j]), col)
    return w


def oracle_kernel_f2(m):
    """All kernel vectors of a small F_2 matrix by brute-force enumeration."""
    assert m.field.p == 2 and m.ncols <= 12
    dense = m.to_dense()
    out = []
    for mask in range(1 << m.ncols):
        vec = [(mask >> j) & 1 for j in range(m.ncols)]
        prod = [sum(dense[i][j] * vec[j] for j in range(m.ncols)) % 2 for i in range(m.nrows)]
        if not any(prod):
            out.append(tuple(vec))
    return out


def oracle_cohomology_dims(cx):
    """dim H^k = dim C^k - rank d^k - rank d^{k-1}, via the dense oracle."""
    dims = {}
    for k in cx.degrees():
        r_out = oracle_matrix_rank(cx.d(k))
        r_in = oracle_matrix_rank(cx.d(k - 1))
        dims[k] = cx.dim(k) - r_out - r_in
    return {k: v for k, v in dims.items() if v}


def component_matrix(sfc, k, p, r):
    """The block d_r : C_p^k -> C_{p+r}^{k+1} of the differential of a split complex."""
    return sfc.complex.d(k).submatrix(sfc.block_indices(k + 1, p + r), sfc.block_indices(k, p))


def oracle_h_filtration(fc):
    """{(p, k): dim F_pH^k}, nonzero entries only, by the kernel formula:
    with U spanning F_p C^k, Z^k ∩ F_p = U ker(d U), and F_pH^k =
    (Z^k ∩ F_p + B^k) / B^k."""
    cx = fc.complex
    out = {}
    for p in range(0, fc.n + 2):
        for k in cx.degrees():
            u = fc.span(p, k)
            z = u * (cx.d(k) * u).kernel()
            b = cx.d(k - 1)
            d = Matrix.hstack(cx.field, cx.dim(k), [z, b]).rank() - b.rank()
            if d:
                out[(p, k)] = d
    return out


def subquotient_dim(z, b):
    """dim(span z / span b); raises InvariantError unless span b ⊆ span z."""
    if not oracle_span_contains(z, b):
        raise InvariantError("subquotient: B is not contained in Z")
    return z.rank() - b.rank()


def oracle_filtration_check(fmap, src, tgt):
    """The span walk: the refusal message for the least (p, k) with
    fmap(F_p src^k) not inside F_p tgt^k, or None when fmap preserves the
    filtration.  It reads only `span`, so it takes split and general
    filtrations alike."""
    bad = [(p, k) for p in range(1, max(src.n, tgt.n) + 1) for k in fmap.source.degrees()
           if src.span(p, k).ncols and not oracle_span_contains(tgt.span(p, k), fmap.block(k) * src.span(p, k))]
    return "chain map does not preserve the filtration at (p=%d, k=%d)" % min(bad) if bad else None


def oracle_map_of_spectral_sequences(fmap):
    """The induced map of spectral sequences, walked page by page: on each
    page r the source reps of a cell are pushed through f and written in the
    target page's basis by `Page.class_of`, and each square against d_r is
    two products of `Page.differential` matrices.  It raises the messages
    `map_of_spectral_sequences` raises, at the same (r, p, q)."""
    f, src, tgt = fmap.chain_map, fmap.source, fmap.target
    out = {}
    for r in range(0, max(src.n, tgt.n) + 2):
        ps, pt = src.page(r), tgt.page(r)
        level = {}
        for (p, q) in ps.cells():
            coords = pt.class_of(p, q, f.block(p + q) * ps.reps(p, q))
            if coords is None:
                raise InvariantError("induced map escaped the target page at r=%d, (p=%d, q=%d)" % (r, p, q))
            level[(p, q)] = coords
        for (p, q), m in level.items():
            tcell = (p + r, q - r + 1)
            after = level.get(tcell)
            if after is None:
                after = Matrix.zero(f.source.field, pt.dim(*tcell), ps.dim(*tcell))
            if pt.differential(p, q) * m != after * ps.differential(p, q):
                raise InvariantError("induced page map does not commute with d_%d at (p=%d, q=%d)" % (r, p, q))
        out[r] = level
    return out


def oracle_filtration_steps_check(fc):
    """The span walks over the steps of a FilteredComplex: the refusal
    message for the least (p, k) with F_{p+1} C^k not inside F_p C^k, else
    for the least (p, k) with d(F_p C^k) not inside F_p C^{k+1}, or None
    when the filtration is decreasing and d-compatible."""
    cx = fc.complex
    for p in range(0, fc.n + 1):
        degrees = set(fc.steps[p - 1]) if p >= 1 else set()
        if p + 1 <= fc.n:
            degrees |= set(fc.steps[p])
        for k in sorted(degrees):
            if not oracle_span_contains(fc.span(p, k), fc.span(p + 1, k)):
                return "filtration is not decreasing at (p=%d, k=%d)" % (p, k)
    for p in range(1, fc.n + 1):
        for k in sorted(fc.steps[p - 1]):
            if not oracle_span_contains(fc.span(p, k + 1), cx.d(k) * fc.span(p, k)):
                return "differential does not respect the filtration at (p=%d, k=%d)" % (p, k)
    return None


def to_filtered(sfc):
    """The filtration of a SplitFilteredComplex as a general FilteredComplex."""
    steps = [{k: sfc.span(p, k) for k in sfc.complex.degrees()} for p in range(1, sfc.n + 1)]
    return FilteredComplex(sfc.complex, steps)


# -- random instances ---------------------------------------------------------


def random_scalar(rng, field, nonzero=False):
    if field.p is not None:
        lo = 1 if nonzero else 0
        return rng.randrange(lo, field.p)
    num = rng.choice([x for x in range(-3, 4) if x or not nonzero])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


# pairwise coprime, so the lcm of a few of them is already large
_WIDE_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                      73, 79, 83, 89, 97)


def random_wide_scalar(rng, field, nonzero=False):
    """Over Q, a numerator up to 10^6 over a denominator from
    _WIDE_DENOMINATORS, so that integer elimination has denominators to
    clear and contents to divide out; random_scalar over F_p."""
    if field.p is not None:
        return random_scalar(rng, field, nonzero)
    num = rng.randint(-10 ** 6, 10 ** 6)
    while nonzero and not num:
        num = rng.randint(-10 ** 6, 10 ** 6)
    return Fraction(num, rng.choice(_WIDE_DENOMINATORS))


def random_matrix(rng, field, nrows, ncols, density=0.3, scalar=random_scalar):
    ent = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = scalar(rng, field)
                if v:
                    ent[(i, j)] = v
    return Matrix(field, nrows, ncols, ent)


def _random_unitriangular(rng, field, n, density=0.25, scalar=random_scalar):
    """I + strictly upper triangular noise; invertible by construction."""
    ent = {(i, i): field.one for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = scalar(rng, field, nonzero=True)
                ent[(i, j)] = v
    return Matrix(field, n, n, ent)


def random_invertible(rng, field, n, density=0.25, scalar=random_scalar):
    up = _random_unitriangular(rng, field, n, density, scalar)
    low = _random_unitriangular(rng, field, n, density, scalar).transpose()
    diag = Matrix(field, n, n, {(i, i): scalar(rng, field, nonzero=True) for i in range(n)})
    return up * diag * low


def random_split_complex(rng, field, max_gens=30, max_len=5, max_degree=5, pair_prob=0.7,
                         scalar=random_scalar):
    """A random SplitFilteredComplex with d^2 = 0 guaranteed.

    Start from a direct sum of two-term pieces (plus surviving classes)
    respecting blocks, then conjugate degreewise by a random
    filtration-preserving automorphism; that mixes all the d_r components
    while keeping the square zero exactly.
    """
    nblocks = rng.randint(1, max_len)
    n = rng.randint(2, max_gens)
    raw = []
    for i in range(n):
        raw.append(("g%d" % i, rng.randint(0, max_degree), rng.randrange(nblocks)))
    # basis order: degree, then block, then id counter; same-degree order is
    # block-sorted so strictly-upper conjugators preserve the filtration
    raw.sort(key=lambda t: (t[1], t[2], int(t[0][1:])))
    gens = [(g, k) for g, k, _ in raw]
    blocks = {g: p for g, k, p in raw}
    by_slot = {}
    for g, k, p in raw:
        by_slot.setdefault(k, []).append(g)

    basis = GradedBasis(gens)
    used = set()
    entries = {}
    for g, k, p in raw:
        if g in used or rng.random() > pair_prob:
            continue
        pool = [
            h
            for h in by_slot.get(k + 1, [])
            if h not in used and blocks[h] >= p
        ]
        if not pool:
            continue
        h = rng.choice(pool)
        used.add(g)
        used.add(h)
        i = basis.position(h)[1]
        j = basis.position(g)[1]
        entries.setdefault(k, []).append((i, j, scalar(rng, field, nonzero=True)))
    diff = {
        k: Matrix.from_entries(field, basis.dim(k + 1), basis.dim(k), tr)
        for k, tr in entries.items()
    }
    # strictly lower triangular noise in the block-sorted order sends each
    # generator into blocks >= its own, hence preserves the filtration
    conj = {k: _random_unitriangular(rng, field, basis.dim(k), scalar=scalar).transpose()
            for k in basis.degrees()}
    twisted = {}
    for k, m in diff.items():
        t_next = conj.get(k + 1, Matrix.identity(field, basis.dim(k + 1)))
        twisted[k] = t_next * m * conj[k].inverse()
    cx = CochainComplex(field, basis, twisted)
    return SplitFilteredComplex(cx, blocks)


def sparse_pair_tower(rng, field, n, degrees=5, nblocks=5, density=0.3):
    """A SplitFilteredComplex on n generators laid out like the benchmark's
    tower (generator i in degree i % degrees and block (i // degrees) %
    nblocks), built fast enough to time at hundreds of generators.

    Random pairs g -> h with block(h) >= block(g) give d; each degree is
    then conjugated by C = (I + N_0)(I + N_1), with N_e strictly lower in
    the block-sorted order, from the positions of parity e into those of
    the other parity.  So N_e^2 = 0, C^-1 = (I - N_1)(I - N_0) needs no
    elimination, and C keeps the filtration.
    """
    raw = sorted((("g%d" % i, i % degrees, (i // degrees) % nblocks) for i in range(n)),
                 key=lambda t: (t[1], t[2], int(t[0][1:])))
    basis = GradedBasis([(g, k) for g, k, _ in raw])
    blocks = {g: p for g, _, p in raw}
    used, entries = set(), {}
    for g, k, p in raw:
        if g in used or rng.random() > 0.7:
            continue
        pool = [h for h in basis.gens(k + 1) if h not in used and blocks[h] >= p]
        if pool:
            h = rng.choice(pool)
            used.update((g, h))
            entries.setdefault(k, []).append((basis.position(h)[1], basis.position(g)[1],
                                              random_scalar(rng, field, nonzero=True)))
    conj, inv = {}, {}
    for k in basis.degrees():
        m, one = basis.dim(k), Matrix.identity(field, basis.dim(k))
        ns = [Matrix.from_entries(field, m, m, [(i, j, random_scalar(rng, field, nonzero=True))
                                                for j in range(e, m, 2) for i in range(j + 1, m, 2)
                                                if rng.random() < density]) for e in (0, 1)]
        conj[k], inv[k] = (one + ns[0]) * (one + ns[1]), (one - ns[1]) * (one - ns[0])
    diff = {k: conj.get(k + 1, Matrix.identity(field, basis.dim(k + 1)))
            * Matrix.from_entries(field, basis.dim(k + 1), basis.dim(k), tr) * inv[k] for k, tr in entries.items()}
    return SplitFilteredComplex(CochainComplex(field, basis, diff), blocks)


def random_fields(rng):
    return rng.choice([Field(2), Field(3), Field()])


# -- random fibration machinery -------------------------------------------------


from spectower.localsystems import BaseGraph  # noqa: E402
from spectower.complexes import JOIN  # noqa: E402
from spectower.morse import MorseData, Trajectory  # noqa: E402
from spectower.fibration import FibrationData  # noqa: E402


def random_standard_fiber(rng, field, acyclic=False, max_deg=2, max_pairs=2, max_h=2):
    """A fiber complex with known homology: two-term pieces plus surviving
    generators, conjugated degreewise by a random invertible change of basis.

    Returns (complex, conj, hgens) where hgens maps degree -> ids of the
    surviving classes (so dim H^q = len(hgens[q])) and conj holds the
    change-of-basis matrices.
    """
    gens = []
    pairs = []
    hgens = {}
    idx = 0
    for deg in range(0, max_deg + 1):
        for _ in range(rng.randint(0, max_pairs)):
            a, b = "p%d" % idx, "q%d" % idx
            idx += 1
            gens += [(a, deg), (b, deg + 1)]
            pairs.append((a, b))
        if not acyclic:
            for _ in range(rng.randint(0, max_h)):
                h = "h%d" % idx
                idx += 1
                gens.append((h, deg))
                hgens.setdefault(deg, []).append(h)
    if not gens or (acyclic and not pairs):
        gens = [("p0x", 0), ("q0x", 1)] + ([("h0x", 0)] if not acyclic else [])
        pairs = [("p0x", "q0x")]
        hgens = {0: ["h0x"]} if not acyclic else {}
    entries = [(a, b, random_scalar(rng, field, nonzero=True)) for a, b in pairs]
    std = CochainComplex.from_generator_entries(field, gens, entries)
    conj = {k: random_invertible(rng, field, std.dim(k)) for k in std.degrees()}
    twisted = {}
    for k in std.degrees():
        m = std.d(k)
        if m.is_zero():
            continue
        twisted[k] = conj[k + 1] * m * conj[k].inverse()
    cx = CochainComplex(field, std.basis, twisted)
    return cx, conj, hgens


def _nonidentity_mix(rng, field, n):
    """A random invertible n x n matrix different from the identity."""
    if n == 1 and field.p == 2:
        return None  # GL_1(F_2) is trivial
    for _ in range(20):
        m = random_invertible(rng, field, n)
        if m != Matrix.identity(field, n):
            return m
    if n >= 2:
        ent = {(i, i): field.one for i in range(n)}
        ent[(0, 1)] = field.one
        return Matrix(field, n, n, ent)
    return Matrix(field, 1, 1, {(0, 0): field.normalize(-1)})


def random_chain_auto(rng, cx, conj, hgens, h_action=None, homotopy_noise=True):
    """An invertible chain automorphism of cx as {degree: Matrix}.

    In the standard-form coordinates the map is the identity on the paired
    generators and acts by h_action (a {degree: Matrix} dict) on the
    surviving classes; composing with I + dh + hd noise scrambles the
    chain level without touching cohomology.
    """
    field = cx.field
    h_action = h_action or {}
    blocks = {}
    for k in cx.degrees():
        names = cx.basis.gens(k)
        n = len(names)
        ent = {(i, i): field.one for i in range(n)}
        hs = [i for i, g in enumerate(names) if g in set(hgens.get(k, []))]
        mix = h_action.get(k)
        if mix is not None:
            for a, pos_a in enumerate(hs):
                ent.pop((pos_a, pos_a))
            for a, pos_a in enumerate(hs):
                for b, pos_b in enumerate(hs):
                    v = mix.get(a, b)
                    if v != field.zero:
                        ent[(pos_a, pos_b)] = v
        b = Matrix(field, n, n, ent)
        p = conj.get(k, Matrix.identity(field, n))
        blocks[k] = p * b * p.inverse()
    if homotopy_noise:
        hmap = {}
        for k in cx.degrees():
            hmap[k] = random_matrix(rng, field, cx.dim(k - 1), cx.dim(k), 0.3)
        noised = {}
        ok = True
        for k in cx.degrees():
            t = Matrix.identity(field, cx.dim(k))
            t = t + cx.d(k - 1) * hmap.get(k, Matrix.zero(field, cx.dim(k - 1), cx.dim(k)))
            nxt = hmap.get(k + 1)
            if nxt is not None:
                t = t + nxt * cx.d(k)
            if t.rank() != cx.dim(k):
                ok = False
                break
            noised[k] = blocks[k] * t
        if ok:
            blocks = noised
    return blocks


def random_two_level_base(rng, max_min=3, max_max=3):
    """Morse data with only index-0 and index-1 points (free pi_1, so any
    transports are consistent and d^2 = 0 holds for every assembly)."""
    mins = ["m%d" % i for i in range(rng.randint(1, max_min))]
    maxs = ["X%d" % i for i in range(rng.randint(1, max_max))]
    edges, trajs = [], []
    eidx = 0
    for top in maxs:
        for _ in range(rng.randint(1, 3)):
            bot = rng.choice(mins)
            eid = "g%d" % eidx
            eidx += 1
            edges.append((eid, top, bot))
            trajs.append(Trajectory(eid, top, bot, rng.choice([1, -1]), ((eid, 1),)))
    graph = BaseGraph(mins + maxs, edges)
    return MorseData(graph, [(m, 0) for m in mins] + [(x, 1) for x in maxs], trajs)


def sphere_base():
    """Two critical points of index 0 and 2; no differential trajectories."""
    g = BaseGraph(["b0", "b2"], [("c", "b2", "b0")])
    return MorseData(g, [("b0", 0), ("b2", 2)], [("tc", "b2", "b0", 1, (("c", 1),))])


def torus_morse_base():
    """Four points (0,1,1,2); pairs of opposite-sign trajectories cancel, so
    the untwisted Morse differential vanishes identically."""
    vs = ["m", "s1", "s2", "T"]
    edges, trajs = [], []
    for i, (top, bot) in enumerate([("s1", "m"), ("s2", "m"), ("T", "s1"), ("T", "s2")]):
        for sgn in (1, -1):
            eid = "e%d%s" % (i, "p" if sgn == 1 else "n")
            edges.append((eid, top, bot))
            trajs.append(Trajectory(eid, top, bot, sgn, ((eid, 1),)))
    g = BaseGraph(vs, edges)
    return MorseData(g, [("m", 0), ("s1", 1), ("s2", 1), ("T", 2)], trajs)


def random_product_fibration(rng, field):
    base = rng.choice(
        [random_two_level_base(rng), sphere_base(), torus_morse_base(), projective_base()]
    )
    fiber, _, _ = random_standard_fiber(rng, field)
    return FibrationData(base, fiber, {})


def random_acyclic_fibration(rng, field):
    base = rng.choice([random_two_level_base(rng), sphere_base()])
    fiber, conj, hgens = random_standard_fiber(rng, field, acyclic=True)
    actions = {}
    for eid in base.graph.edges:
        if rng.random() < 0.5:
            actions[eid] = random_chain_auto(rng, fiber, conj, hgens)
    return FibrationData(base, fiber, actions)


def projective_base():
    """Three index levels (0, 1, 2) with homotopic trajectory pairs declared;
    the lower pair cancels, the upper pair adds, as for RP^2."""
    g = BaseGraph(
        ["m", "s", "T"],
        [("a", "s", "m"), ("b", "s", "m"), ("c", "T", "s"), ("d", "T", "s")],
        [["a", "~b"], ["c", "~d"]],
    )
    return MorseData(
        g,
        [("m", 0), ("s", 1), ("T", 2)],
        [
            Trajectory("ta", "s", "m", 1, (("a", 1),)),
            Trajectory("tb", "s", "m", -1, (("b", 1),)),
            Trajectory("tc", "T", "s", 1, (("c", 1),)),
            Trajectory("td", "T", "s", 1, (("d", 1),)),
        ],
    )


def _mixable_fiber(rng, field):
    while True:
        fiber, conj, hgens = random_standard_fiber(rng, field)
        mixable = [q for q, hs in hgens.items()
                   if len(hs) >= 2 or (len(hs) == 1 and field.p != 2)]
        if mixable:
            return fiber, conj, hgens, mixable


def random_twisted_fibration(rng, field):
    """A fibration with monodromy acting nontrivially on fiber cohomology
    (witnessed by a non-identity standard-form mix).

    Two base shapes: a free-pi_1 two-level base with an arbitrary twisted
    edge, or the three-level projective base, where the declared homotopies
    force equal transports along each trajectory pair (so the nontrivial
    action rides both lower edges).
    """
    fiber, conj, hgens, mixable = _mixable_fiber(rng, field)
    q0 = rng.choice(mixable)
    mix = _nonidentity_mix(rng, field, len(hgens[q0]))
    if rng.random() < 0.3:
        base = projective_base()
        twisted = random_chain_auto(rng, fiber, conj, hgens, h_action={q0: mix},
                                    homotopy_noise=False)
        actions = {"a": twisted, "b": twisted}
        return FibrationData(base, fiber, actions)
    base = random_two_level_base(rng)
    actions = {}
    edge_ids = list(base.graph.edges)
    special = rng.choice(edge_ids)
    for eid in edge_ids:
        if eid == special:
            actions[eid] = random_chain_auto(rng, fiber, conj, hgens, h_action={q0: mix})
        elif rng.random() < 0.4:
            actions[eid] = random_chain_auto(rng, fiber, conj, hgens)
    return FibrationData(base, fiber, actions)


def random_multistep_fibration(rng, field):
    """A twisted fibration over a two-level base whose trajectory words run
    through non-critical vertices: 2-3 steps each, with both signs in
    every word, so that transport products have an order to get wrong.
    Edges are shared between trajectories and most of them act; at least
    one, and about half of the others, by its own non-identity mix on
    fiber cohomology, so that E_2 transports need not commute either."""
    fiber, conj, hgens, mixable = _mixable_fiber(rng, field)
    q0 = rng.choice(mixable)
    mins = ["m%d" % i for i in range(rng.randint(1, 2))]
    maxs = ["X%d" % i for i in range(rng.randint(1, 3))]
    mids = ["v%d" % i for i in range(rng.randint(1, 3))]
    edges = {}
    trajs = []
    for top in maxs:
        for _ in range(rng.randint(1, 3)):
            path = [top] + [rng.choice(mids) for _ in range(rng.randint(1, 2))] + [rng.choice(mins)]
            signs = [rng.choice([1, -1]) for _ in path[1:]]
            if len(set(signs)) == 1:
                signs[rng.randrange(len(signs))] *= -1
            word = []
            for a, b, s in zip(path, path[1:], signs):
                ends = (a, b) if s == 1 else (b, a)
                reuse = [e for e, ab in edges.items() if ab == ends]
                eid = rng.choice(reuse) if reuse and rng.random() < 0.5 else "e%d" % len(edges)
                edges[eid] = ends
                word.append((eid, s))
            trajs.append(Trajectory("t%d" % len(trajs), top, path[-1], rng.choice([1, -1]),
                                    tuple(word)))
    graph = BaseGraph(mins + maxs + mids, [(e, a, b) for e, (a, b) in edges.items()])
    base = MorseData(graph, [(m, 0) for m in mins] + [(x, 1) for x in maxs], trajs)
    special = rng.choice(list(edges))
    actions = {}
    for eid in edges:
        if eid == special or rng.random() < 0.4:
            mix = _nonidentity_mix(rng, field, len(hgens[q0]))
            actions[eid] = random_chain_auto(rng, fiber, conj, hgens, h_action={q0: mix})
        elif rng.random() < 0.6:
            actions[eid] = random_chain_auto(rng, fiber, conj, hgens)
    return FibrationData(base, fiber, actions)


def _oracle_transport(blocks, identity, word):
    """The transport along word as the composed product: each step's
    matrix (blocks[edge], identity if absent) is applied after the ones
    before it."""
    acc = identity
    for e, s in word:
        m = blocks.get(e, identity)
        acc = (m if s == 1 else m.inverse()) * acc
    return acc


def _oracle_transport_inverse(blocks, identity, word):
    """The inverse of the transport along word, by inverting the composed product."""
    return _oracle_transport(blocks, identity, word).inverse()


def oracle_total_differential(fd):
    """The assembled total complex of fd as string triples "x|g": the
    fiber entries with their Koszul signs, every trajectory block the
    inverse of the composed chain transport, and the correction entries."""
    base, fib = fd.base, fd.fiber
    f = fib.field
    gens = [(x + JOIN + g, px + kg) for x, px in base.points.items() for g, kg in fib.basis.generators]
    entries = []
    for x, px in base.points.items():
        sign = f.normalize(-1 if px % 2 else 1)
        for k in fib.degrees():
            tgt, src = fib.basis.gens(k + 1), fib.basis.gens(k)
            for i, j, v in fib.d(k).entries():
                entries.append((x + JOIN + src[j], x + JOIN + tgt[i], f.mul(sign, v)))
    for t in base.differential_trajectories():
        sign = f.normalize(t.sign)
        for k in fib.degrees():
            names = fib.basis.gens(k)
            blocks = {e: bk[k] for e, bk in fd.edge_action.items() if k in bk}
            minv = _oracle_transport_inverse(blocks, Matrix.identity(f, fib.dim(k)), t.word)
            for i, j, v in minv.entries():
                entries.append((t.dst + JOIN + names[j], t.src + JOIN + names[i], f.mul(sign, v)))
    entries += [(sp + JOIN + sf, dp + JOIN + df, v) for sp, sf, dp, df, v in fd.corrections]
    return CochainComplex.from_generator_entries(f, gens, entries)


def same_differentials(cx, want):
    """Assert the same basis and every d^k equal, structurally."""
    assert cx.basis == want.basis
    for k in set(cx.degrees()) | set(want.degrees()):
        assert cx.d(k) == want.d(k), k


def oracle_morse_complex(md, ls):
    """morse_complex(md, ls) with each trajectory block the inverse of the
    composed transport along the trajectory's word."""
    f = ls.field
    gens = [(x + JOIN + str(i), k) for x, k in md.points.items() for i in range(ls.fiber_dim)]
    entries = []
    for t in md.differential_trajectories():
        minv = _oracle_transport_inverse(ls.transport_maps, Matrix.identity(f, ls.fiber_dim), t.word)
        for i, j, v in minv.entries():
            entries.append((t.dst + JOIN + str(j), t.src + JOIN + str(i),
                            f.mul(f.normalize(t.sign), v)))
    return CochainComplex.from_generator_entries(f, gens, entries)


def oracle_cellular_complex(cd, ls=None, field=None):
    """cellular_complex(cd, ls, field) as string triples "c|i": each
    incidence coeff * (composed transport), each exceptional incidence
    orientation * (plus - minus), entry by entry on dense matrices; rank
    one and untwisted when ls is None."""
    f = ls.field if ls is not None else field
    dim = ls.fiber_dim if ls is not None else 1
    gens = [(c + JOIN + str(i), cd.cells[c][0]) for c in cd.order for i in range(dim)]
    ident = Matrix.identity(f, dim)

    def dense(word):
        return _oracle_transport(ls.transport_maps, ident, word).to_dense() if ls is not None else [[f.one]]

    entries = []
    for src, dst, coeff, word in cd.incidences:
        for i, row in enumerate(dense(word)):
            entries += [(src + JOIN + str(j), dst + JOIN + str(i), f.mul(f.normalize(coeff), v))
                        for j, v in enumerate(row)]
    for src, dst, plus, minus in cd.exceptional if ls is not None else ():
        orient = f.normalize(cd.cells[src][2])
        for i, (rp, rm) in enumerate(zip(dense(plus), dense(minus))):
            entries += [(src + JOIN + str(j), dst + JOIN + str(i), f.mul(orient, f.sub(vp, vm)))
                        for j, (vp, vm) in enumerate(zip(rp, rm))]
    return CochainComplex.from_generator_entries(f, gens, entries)


def oracle_tensor_product(a, b):
    """tensor_product(a, b) as string triples "ga|gb": dx (x) y entry by
    entry for every gb, and (-1)^{deg x} x (x) dy for every ga."""
    f = a.field
    gens = [(ga + JOIN + gb, da + db) for ga, da in a.basis.generators for gb, db in b.basis.generators]
    entries = []
    for k in a.degrees():
        tgt, src = a.basis.gens(k + 1), a.basis.gens(k)
        for i, j, v in a.d(k).entries():
            entries += [(src[j] + JOIN + gb, tgt[i] + JOIN + gb, v) for gb, _ in b.basis.generators]
    for ga, da in a.basis.generators:
        sign = f.normalize(-1 if da % 2 else 1)
        for k in b.degrees():
            tgt, src = b.basis.gens(k + 1), b.basis.gens(k)
            entries += [(ga + JOIN + src[j], ga + JOIN + tgt[i], f.mul(sign, v)) for i, j, v in b.d(k).entries()]
    return CochainComplex.from_generator_entries(f, gens, entries)


# -- dense textbook oracle for page dimensions ----------------------------------


def oracle_kernel(field, rows):
    """Kernel basis of a dense matrix, textbook RREF, no library reuse: the
    canonical one, a unit at each free column and the RREF read back."""
    pivots, m = oracle_rref(field, rows)
    ncols = len(m[0]) if m else 0
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(m[i][free])
        basis.append(vec)
    return basis


def _dense_mul(field, rows, vecs):
    """rows (r x c) times column vectors (list of length-c lists)."""
    out = []
    for v in vecs:
        col = []
        for row in rows:
            s = field.zero
            for a, b in zip(row, v):
                s = field.add(s, field.mul(a, b))
            col.append(s)
        out.append(col)
    return out


class DensePageOracle:
    """Page dimensions straight from the subquotient definition, computed
    with dense textbook elimination only (independent of spectower.matrix).
    """

    def __init__(self, field, dims, d_rows, spans, n):
        # dims: degree -> dim C^k; d_rows: degree -> dense rows of d^k;
        # spans: (p, k) -> list of dense column vectors spanning F_p C^k
        self.field = field
        self.dims = dims
        self.d_rows = d_rows
        self.spans = spans
        self.n = n

    @classmethod
    def from_filtered(cls, fc):
        cx = fc.complex
        field = cx.field
        dims = {k: cx.dim(k) for k in cx.degrees()}
        d_rows = {k: cx.d(k).to_dense() for k in cx.degrees()}
        spans = {}
        for p in range(0, fc.n + 2):
            for k in cx.degrees():
                m = fc.span(p, k)
                cols = [[m.get(i, j) for i in range(m.nrows)] for j in range(m.ncols)]
                spans[(p, k)] = cols
        return cls(field, dims, d_rows, spans, fc.n)

    def span(self, p, k):
        if k not in self.dims:
            return []
        if p <= 0:
            n = self.dims[k]
            return [[self.field.one if i == j else self.field.zero for i in range(n)]
                    for j in range(n)]
        if p > self.n:
            return []
        return self.spans.get((p, k), [])

    def _d_apply(self, k, vecs):
        rows = self.d_rows.get(k)
        if rows is None or not rows:
            nxt = self.dims.get(k + 1, 0)
            return [[self.field.zero] * nxt for _ in vecs]
        return _dense_mul(self.field, rows, vecs)

    def zspan(self, r, p, q):
        k = p + q
        u = self.span(p, k)
        if r <= 0 or not u:
            return u
        v = self.span(p + r, k + 1)
        du = self._d_apply(k, u)
        nrows = self.dims.get(k + 1, 0)
        stacked_cols = du + [[self.field.neg(x) for x in col] for col in v]
        rows = [[stacked_cols[j][i] for j in range(len(stacked_cols))] for i in range(nrows)]
        if not rows:
            rows = [[self.field.zero] * len(stacked_cols)] if stacked_cols else []
        kern = oracle_kernel(self.field, rows) if stacked_cols else []
        out = []
        for kv in kern:
            a = kv[: len(u)]
            vec = [self.field.zero] * self.dims.get(k, 0)
            for j, coef in enumerate(a):
                if coef != self.field.zero:
                    for i in range(len(vec)):
                        vec[i] = self.field.add(vec[i], self.field.mul(coef, u[j][i]))
            out.append(vec)
        return out

    def page_dim(self, r, p, q):
        # dim E_r = dim span(Z_r) - dim span(B_r); B_r ⊆ Z_r is a theorem,
        # so ranks subtract directly
        z = self.zspan(r, p, q)
        b = self.zspan(r - 1, p + 1, q - 1)
        lower = self.zspan(r - 1, p - r + 1, q + r - 2)
        b = b + self._d_apply(p + q - 1, lower)
        return self._rank_cols(z) - self._rank_cols(b)

    def _rank_cols(self, cols):
        if not cols:
            return 0
        rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
        return oracle_rank(self.field, rows)

    def page_dims(self, r, degrees):
        out = {}
        for p in range(0, self.n + 1):
            for k in degrees:
                d = self.page_dim(r, p, k - p)
                if d:
                    out[(p, k - p)] = d
        return out
