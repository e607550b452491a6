"""Filtered cochain complexes and their spectral sequence towers.

Conventions
-----------
A filtration is decreasing, C = F_0 ⊇ F_1 ⊇ ... ⊇ F_n ⊇ F_{n+1} = 0,
compatible with the degree +1 differential.  Pages carry differentials
d_r of bidegree (r, -r+1) and satisfy E_{r+1} = H(E_r, d_r).

Every page is a view over one persistence column reduction R = D V of a
split complex (Barannikov normal form; Zomorodian-Carlsson 2005,
Basu-Parida 2017): a column x whose R column is lowest at y pairs x -> y
with gap s = block(y) - block(x), and E_r^{p,q} has a basis of the
block-p generators of degree p+q that are unpaired or in a pair of gap
>= r; d_r matches the ends of the gap-r pairs.  A FilteredComplex is
split first by bases adapted to F_n ⊆ ... ⊆ F_1 ⊆ C^k.  Checks that run:
R = D V, one multiplication per degree; d_r o d_r = 0 and
E_{r+1} = H(E_r, d_r) dimensionwise on every page; and `converge`
certifies E_inf against F_pH, computed from ranks on the F_p spans and
not from the pairing.  The subquotient description
E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}),
Z_r^{p,q} = {x in F_p C^{p+q} : dx in F_{p+r}}, is the test oracle.

Entry representatives are ambient vectors in C^{p+q}, which makes the
zig-zag cross-check direct linear algebra.  Pages stabilize at r = n+1
for a length-n filtration (d_r moves p by r), and `page(r)` for a larger
r is E_inf.
"""

from .complexes import CochainComplex
from .errors import InvariantError, PreconditionError
from .matrix import Matrix, quotient_basis, span_contains

__all__ = [
    "FilteredComplex",
    "SplitFilteredComplex",
    "FilteredChainMap",
    "Page",
    "ConvergenceReport",
    "ZigzagWitness",
    "zigzag_class_and_d",
    "map_of_spectral_sequences",
]


class Page:
    """One page E_r: a view over the reduction of its tower.

    `reps(p, q)` columns are ambient cocycle-like vectors in C^{p+q}
    representing a basis of E_r^{p,q}; `class_of` expresses any ambient
    element of Z_r^{p,q} in that basis.
    """

    __slots__ = ("r", "field", "_red", "_cells", "_diff", "_reps", "flagged")

    def __init__(self, r, red, cells, diffs):
        self.r = r
        self.field = red.field
        self._red = red
        self._cells = cells  # (p, q) -> indices of surviving generators, nonzero cells only
        self._diff = diffs  # (p, q) -> nonzero Matrix into cell (p+r, q-r+1)
        self._reps = {}
        self.flagged = tuple(sorted(c for c in cells if c[1] < 0))  # nonzero cells with q < 0

    def dim(self, p, q):
        return len(self._cells.get((p, q), ()))

    def reps(self, p, q):
        m = self._reps.get((p, q))
        if m is None:
            red, k = self._red, p + q
            m = red.matrix(k, [red.w[(k, i)] for i in self._cells.get((p, q), ())])
            m = self._reps[(p, q)] = red.frame[k][0] * m if k in red.frame else m
        return m

    def cells(self):
        """Sorted (p, q) with nonzero dimension."""
        return sorted(self._cells)

    def dims(self):
        return {c: len(self._cells[c]) for c in self.cells()}

    def differential(self, p, q):
        """The matrix of d_r : E_r^{p,q} -> E_r^{p+r, q-r+1}."""
        m = self._diff.get((p, q))
        if m is None:
            return Matrix.zero(self.field, self.dim(p + self.r, q - self.r + 1), self.dim(p, q))
        return m

    def has_nonzero_differential(self):
        return bool(self._diff)

    def class_of(self, p, q, vec):
        """Coordinates of an ambient Z_r^{p,q} element in this cell's basis.

        Accepts a column Matrix (or several columns) over C^{p+q}; returns
        None when a column is not in Z_r^{p,q} at all.
        """
        return self._red.class_of(self.r, p, q, self._cells.get((p, q), ()), vec)


class ConvergenceReport:
    """Stabilized tower data plus the direct filtration on cohomology.

    certified is True iff dim E_inf^{p,q} = dim F_pH^{p+q} - dim F_{p+1}H^{p+q}
    for every (p, q); a False value signals an engine bug, never valid input.
    """

    __slots__ = ("r_stop", "einf", "h_filtration", "h_dims", "certified")

    def __init__(self, r_stop, einf, h_filtration, h_dims, certified):
        self.r_stop = r_stop
        self.einf = einf
        self.h_filtration = h_filtration
        self.h_dims = h_dims
        self.certified = certified

    def einf_total_dims(self):
        out = {}
        for (p, q), d in self.einf.items():
            out[p + q] = out.get(p + q, 0) + d
        return dict(sorted(out.items()))


class _Reduction:
    """The reduction R = D V of a split complex and the pages it yields.

    Generators of C^k are indexed in block-descending order (`order[k]`
    lists their positions), so F_p C^k is a prefix.  Columns in index
    coordinates are int bitmasks over F_2, {index: value} dicts otherwise.
    `frame[k]` = (T, T^-1) takes split coordinates of C^k to ambient ones.
    """

    def __init__(self, sfc, frame=None):
        cx = sfc.complex
        self.field = cx.field
        self.f2 = cx.field.p == 2
        self.frame = frame or {}
        self.order, self.index, self.block = {}, {}, {}
        for k in cx.degrees():
            gens = cx.basis.gens(k)
            self.order[k] = sorted(range(len(gens)), key=lambda i: -sfc.blocks[gens[i]])
            self.index[k] = {pos: i for i, pos in enumerate(self.order[k])}
            self.block[k] = [sfc.blocks[gens[pos]] for pos in self.order[k]]
        self.w = {}  # (k, i) -> W column over C^k
        self.mate = {}  # (k, i) -> (k +- 1, j, gap): the other end of its pair
        for k in cx.degrees():
            self._reduce(k, cx.d(k))
        self.pages = []

    def _columns(self, k, m):
        """The columns of m, a Matrix over C^k, in index coordinates."""
        idx = self.index.get(k, {})
        cols = [0 if self.f2 else {} for _ in range(m.ncols)]
        for (i, j), v in m._e.items():
            if self.f2:
                cols[j] |= 1 << idx[i]
            else:
                cols[j][idx[i]] = v
        return cols

    def matrix(self, k, cols):
        """Columns over C^k in index coordinates, as a Matrix over positions."""
        order = self.order.get(k, ())
        ent = {}
        for c, col in enumerate(cols):
            if self.f2:
                col = {i: 1 for i in range(col.bit_length()) if col >> i & 1}
            for i, v in col.items():
                ent[(order[i], c)] = v
        return Matrix(self.field, len(order), len(cols), ent, _normalized=True)

    def _sub(self, col, c, other):
        """col - c * other; dict columns change in place."""
        if self.f2:
            return col ^ other
        f = self.field
        for i, v in other.items():
            nv = f.sub(col.get(i, f.zero), f.mul(c, v))
            if nv:
                col[i] = nv
            else:
                col.pop(i, None)
        return col

    def _reduce(self, k, d):
        f = self.field
        dcols = self._columns(k + 1, d)
        rcols = [dcols[pos] for pos in self.order[k]]
        vcols = [1 << j if self.f2 else {j: f.one} for j in range(len(rcols))]
        owner = {}  # lowest entry -> the column that has it
        for j, col in enumerate(rcols):
            while col:
                low = col.bit_length() - 1 if self.f2 else max(col)
                i = owner.get(low)
                if i is None:
                    owner[low] = j
                    break
                c = 1 if self.f2 else f.div(col[low], rcols[i][low])
                col, vcols[j] = self._sub(col, c, rcols[i]), self._sub(vcols[j], c, vcols[i])
            rcols[j] = col
        if d * self.matrix(k, vcols) != self.matrix(k + 1, rcols):
            raise InvariantError("reduction R = D V fails in degree %d: engine bug" % k)
        for low, j in owner.items():
            gap = self.block[k + 1][low] - self.block[k][j]
            self.mate[(k, j)] = (k + 1, low, gap)
            self.mate[(k + 1, low)] = (k, j, gap)
            self.w[(k + 1, low)] = rcols[j]
        for j, v in enumerate(vcols):
            if (k, j) not in self.w:
                self.w[(k, j)] = v
            elif rcols[j]:
                raise InvariantError("death end %d in degree %d has a nonzero R column: engine bug" % (j, k))

    def class_of(self, r, p, q, ids, vec):
        """Coordinates on the basis `ids` of E_r^{p,q}, or None off Z_r^{p,q}.

        Back substitution writes each column in the W basis (W_i is lowest
        at i).  It lies in Z_r^{p,q} iff it avoids blocks < p and each birth
        end whose partner has block < p+r; modulo B_r only `ids` remain.
        """
        k, f = p + q, self.field
        if vec.nrows != len(self.order.get(k, ())):
            raise ValueError("class_of: %d rows, expected dim C^%d" % (vec.nrows, k))
        if k in self.frame:
            vec = self.frame[k][1] * vec
        ent = {}
        for c, col in enumerate(self._columns(k, vec)):
            while col:
                low = col.bit_length() - 1 if self.f2 else max(col)
                w = self.w[(k, low)]
                v = 1 if self.f2 else f.div(col[low], w[low])
                col = self._sub(col, v, w)
                mate = self.mate.get((k, low))
                early_birth = mate and mate[0] > k and self.block[k][low] + mate[2] < p + r
                if self.block[k][low] < p or early_birth:
                    return None
                if low in ids:
                    ent[(ids.index(low), c)] = v
        return Matrix(f, len(ids), vec.ncols, ent, _normalized=True)

    def next_page(self):
        """Append page r, checked against page r-1 when r >= 1."""
        r = len(self.pages)
        cells = {}  # the unpaired generators and both ends of each pair of gap >= r
        for k, blocks in self.block.items():
            for i, b in enumerate(blocks):
                if self.mate.get((k, i), (0, 0, r))[2] >= r:
                    cells.setdefault((b, k - b), []).append(i)
        ent = {}
        for (k, i), (kk, j, gap) in self.mate.items():
            if kk > k and gap == r:
                src = (self.block[k][i], k - self.block[k][i])
                tgt = (src[0] + r, src[1] - r + 1)
                ent.setdefault(src, {})[(cells[tgt].index(j), cells[src].index(i))] = self.field.one
        diffs = {c: Matrix(self.field, len(cells[(c[0] + r, c[1] - r + 1)]), len(cells[c]), e, _normalized=True)
                 for c, e in ent.items()}
        page = Page(r, self, cells, diffs)
        for (p, q), m in diffs.items():
            nxt = diffs.get((p + r, q - r + 1))
            if nxt is not None and not (nxt * m).is_zero():
                raise InvariantError("d_%d o d_%d != 0 at (p=%d, q=%d): engine bug" % (r, r, p, q))
        if r:
            prev, s = self.pages[-1], r - 1
            ranks = {c: m.rank() for c, m in prev._diff.items()}
            for (p, q) in set(prev._cells) | set(cells):
                expect = prev.dim(p, q) - ranks.get((p, q), 0) - ranks.get((p - s, q + s - 1), 0)
                if page.dim(p, q) != expect:
                    raise InvariantError("page %d cell (%d, %d) has dim %d but H(E_%d, d_%d) gives %d: engine bug"
                                         % (r, p, q, page.dim(p, q), s, s, expect))
        self.pages.append(page)


class FilteredComplex:
    """A cochain complex with a decreasing, d-compatible filtration.

    `steps[p-1]` gives per-degree span matrices of F_p C^k for
    p = 1 .. n; F_0 is the whole complex and F_{n+1} = 0.  Pages come
    from the reduction of a split copy: in a basis of each C^k adapted
    to F_n ⊆ ... ⊆ F_1 ⊆ C^k, d is block-nondecreasing.
    """

    def __init__(self, complex, steps, check=True):
        self.complex = complex
        self.steps = [{int(k): m for k, m in step.items() if m.ncols} for step in steps]
        self._red = None
        self._converged = None
        if check:
            self._check()

    @property
    def n(self):
        """Filtration length: the largest p with F_p possibly nonzero."""
        return len(self.steps)

    def span(self, p, k):
        """A matrix whose columns span F_p C^k inside C^k."""
        dim = self.complex.dim(k)
        if p <= 0:
            return Matrix.identity(self.complex.field, dim)
        if p > self.n:
            return Matrix.zero(self.complex.field, dim, 0)
        m = self.steps[p - 1].get(k)
        if m is None:
            return Matrix.zero(self.complex.field, dim, 0)
        return m

    def _check(self):
        cx = self.complex
        for p in range(1, self.n + 1):
            for k, m in self.steps[p - 1].items():
                if m.field != cx.field:
                    raise InvariantError("filtration span has wrong field at (p=%d, k=%d)" % (p, k))
                if m.nrows != cx.dim(k):
                    raise InvariantError(
                        "filtration span at (p=%d, k=%d) has %d rows, expected %d"
                        % (p, k, m.nrows, cx.dim(k))
                    )
        for p in range(0, self.n + 1):
            degrees = set()
            if p >= 1:
                degrees |= set(self.steps[p - 1])
            if p + 1 <= self.n:
                degrees |= set(self.steps[p])
            for k in sorted(degrees):
                if not span_contains(self.span(p, k), self.span(p + 1, k)):
                    raise InvariantError("filtration is not decreasing at (p=%d, k=%d)" % (p, k))
        for p in range(1, self.n + 1):
            for k in sorted(self.steps[p - 1]):
                img = cx.d(k) * self.span(p, k)
                if not span_contains(self.span(p, k + 1), img):
                    raise InvariantError(
                        "differential does not respect the filtration at (p=%d, k=%d)" % (p, k)
                    )

    def _reduction(self):
        """The reduction of the split copy, with the adapted bases as frame."""
        cx = self.complex
        f = cx.field
        frame, blocks = {}, {}
        for k in cx.degrees():
            basis = Matrix.zero(f, cx.dim(k), 0)
            for p in range(self.n, -1, -1):
                new = quotient_basis(self.span(p, k), basis)
                blocks.update(zip(cx.basis.gens(k)[basis.ncols:], [p] * new.ncols))
                basis = Matrix.hstack(f, cx.dim(k), [basis, new])
            frame[k] = (basis, basis.inverse())
        diff = {k: frame[k + 1][1] * cx.d(k) * frame[k][0] for k in frame if k + 1 in frame}
        split = SplitFilteredComplex(CochainComplex(f, cx.basis, diff, check=False), blocks)
        return _Reduction(split, frame)

    def page(self, r):
        """The page E_r with differentials; E_inf for r > n+1."""
        if r < 0:
            raise ValueError("page index must be >= 0")
        if self._red is None:
            self._red = self._reduction()
        top = min(r, self.n + 1)
        while len(self._red.pages) <= top:
            self._red.next_page()
        page = self._red.pages[top]
        return page if r == top else Page(r, self._red, page._cells, {})

    def converge(self):
        """Iterate pages to stabilization and certify E_inf against F_pH,
        computed from ranks of d on the F_p spans, not from the pairing."""
        if self._converged is not None:
            return self._converged
        n, cx = self.n, self.complex
        r_stop = 0
        for r in range(0, n + 2):
            if self.page(r).has_nonzero_differential():
                r_stop = r + 1
        einf = self.page(n + 1).dims()
        h_dims = cx.cohomology().dims()
        h_filt = {}
        for p in range(0, n + 2):
            for k in cx.degrees():
                u = self.span(p, k)
                z = u * (cx.d(k) * u).kernel()
                b = cx.d(k - 1)
                d = Matrix.hstack(cx.field, cx.dim(k), [z, b]).rank() - b.rank()
                if d:
                    h_filt[(p, k)] = d
        certified = True
        for p in range(0, n + 1):
            for k in cx.degrees():
                graded = h_filt.get((p, k), 0) - h_filt.get((p + 1, k), 0)
                if einf.get((p, k - p), 0) != graded:
                    certified = False
        for k in set(h_dims) | {kk for _, kk in h_filt}:
            if h_filt.get((0, k), 0) != h_dims.get(k, 0):
                certified = False
        self._converged = ConvergenceReport(r_stop, einf, h_filt, h_dims, certified)
        return self._converged


class SplitFilteredComplex(FilteredComplex):
    """A complex split as C^k = ⊕_p C_p^k with a block-nondecreasing d.

    `blocks` maps generator ids to their p-index, and F_p is the span of
    the blocks >= p.  Pages come from the reduction of d itself; the
    zig-zag operations below exploit the splitting directly.
    """

    def __init__(self, complex, blocks, check=True):
        self.complex = complex
        self.blocks = {g: int(p) for g, p in blocks.items()}
        self._red = None
        self._converged = None
        if check:
            self._check()

    def _check(self):
        cx = self.complex
        for g, _ in cx.basis.generators:
            if g not in self.blocks:
                raise InvariantError("generator %r has no block index" % g)
            if self.blocks[g] < 0:
                raise InvariantError("generator %r has negative block index" % g)
        for k in cx.degrees():
            src = cx.basis.gens(k)
            dst = cx.basis.gens(k + 1)
            for i, j, _ in cx.d(k).entries():
                shift = self.blocks[dst[i]] - self.blocks[src[j]]
                if shift < 0:
                    raise InvariantError(
                        "differential entry %r -> %r lowers the block index by %d"
                        % (src[j], dst[i], -shift)
                    )

    @property
    def n(self):
        return max(self.blocks.values(), default=0)

    def block_of(self, gid):
        return self.blocks[gid]

    def block_indices(self, k, p):
        """Coordinate positions of block-p generators inside C^k."""
        return [i for i, g in enumerate(self.complex.basis.gens(k)) if self.blocks[g] == p]

    def component_matrix(self, k, p, r):
        """The block d_r : C_p^k -> C_{p+r}^{k+1} of the differential."""
        rows = self.block_indices(k + 1, p + r)
        cols = self.block_indices(k, p)
        return self.complex.d(k).submatrix(rows, cols)

    def span(self, p, k):
        """A matrix whose columns span F_p C^k: the generators of blocks >= p."""
        cx = self.complex
        idx = [i for i, g in enumerate(cx.basis.gens(k)) if self.blocks[g] >= p]
        return Matrix.identity(cx.field, cx.dim(k)).take_columns(idx)

    def to_filtered(self):
        """The same filtration as a general FilteredComplex."""
        steps = [{k: self.span(p, k) for k in self.complex.degrees()} for p in range(1, self.n + 1)]
        return FilteredComplex(self.complex, steps, check=False)

    def _reduction(self):
        return _Reduction(self)


class ZigzagWitness:
    """Result of a successful zig-zag lift of a single-block element.

    chain = alpha + beta_{p+1} + ... + beta_{p+r-1} is an ambient vector
    with d(chain) in F_{p+r}; image is the block-(p+r) component of
    d(chain), which represents d_r[alpha].
    """

    __slots__ = ("p", "degree", "r", "chain", "image")

    def __init__(self, p, degree, r, chain, image):
        self.p = p
        self.degree = degree
        self.r = r
        self.chain = chain
        self.image = image


def zigzag_class_and_d(sfc, r, degree, alpha):
    """Lift a block-p element to an E_r class and read off d_r, or None.

    alpha is a column over C^degree supported in one block p.  The lift
    solves the staircase system: for j = 0..r-1 the block p+j of
    d(alpha + sum beta) must vanish.  Returns None when the system has no
    solution, i.e. alpha defines no class on page r.
    """
    if r < 1:
        raise ValueError("zig-zag lifting needs r >= 1")
    cx = sfc.complex
    k = degree
    if alpha.shape != (cx.dim(k), 1):
        raise ValueError("alpha has shape %s, expected a column over C^%d" % (alpha.shape, k))
    gens = cx.basis.gens(k)
    support = {sfc.blocks[gens[i]] for (i, _), v in alpha._e.items()}
    if len(support) > 1:
        raise PreconditionError("alpha is supported in blocks %s, expected one" % sorted(support))
    if not support:
        raise PreconditionError("alpha is zero; it defines no leading block")
    p = support.pop()

    # d never lowers the block index, so the staircase system is the
    # submatrix of d from blocks p+1..p+r-1 into blocks p..p+r-1
    unknown = [i for b in range(p + 1, p + r) for i in sfc.block_indices(k, b)]
    rows = [i for b in range(p, p + r) for i in sfc.block_indices(k + 1, b)]
    f = cx.field
    d = cx.d(k)
    sol = d.submatrix(rows, unknown).solve(-(d * alpha).take_rows(rows))
    if sol is None:
        return None
    lift = {(unknown[t], 0): v for (t, _), v in sol._e.items()}
    chain = alpha + Matrix(f, cx.dim(k), 1, lift, _normalized=True)
    dchain = d * chain
    img_idx = set(sfc.block_indices(k + 1, p + r))
    ent = {key: v for key, v in dchain._e.items() if key[0] in img_idx}
    image = Matrix(f, cx.dim(k + 1), 1, ent, _normalized=True)
    # blocks p..p+r-1 of d(chain) vanish by construction; check it anyway
    for pos in rows:
        if (pos, 0) in dchain._e:
            block = sfc.blocks[cx.basis.gens(k + 1)[pos]]
            raise InvariantError("zig-zag system solution failed to clear block %d" % block)
    return ZigzagWitness(p, k, r, chain, image)


class FilteredChainMap:
    """A chain map sending F_p(source) into F_p(target) for every p."""

    def __init__(self, chain_map, source, target, check=True):
        self.chain_map = chain_map
        self.source = source
        self.target = target
        if check:
            self._check()

    def _check(self):
        f = self.chain_map
        nmax = max(self.source.n, self.target.n)
        for p in range(1, nmax + 1):
            for k in f.source.degrees():
                src = self.source.span(p, k)
                if not src.ncols:
                    continue
                img = f.block(k) * src
                if not span_contains(self.target.span(p, k), img):
                    raise PreconditionError(
                        "chain map does not preserve the filtration at (p=%d, k=%d)" % (p, k)
                    )


def map_of_spectral_sequences(fmap):
    """Per-page, per-cell matrices induced by a filtration-preserving map.

    Returns {r: {(p, q): Matrix}} for r = 0 .. stabilization bound; every
    square against d_r is verified before returning.
    """
    f = fmap.chain_map
    src, tgt = fmap.source, fmap.target
    rmax = max(src.n, tgt.n) + 1
    out = {}
    for r in range(0, rmax + 1):
        ps, pt = src.page(r), tgt.page(r)
        level = {}
        for (p, q) in ps.cells():
            imgs = f.block(p + q) * ps.reps(p, q)
            coords = pt.class_of(p, q, imgs)
            if coords is None:
                raise InvariantError(
                    "induced map escaped the target page at r=%d, (p=%d, q=%d)" % (r, p, q)
                )
            level[(p, q)] = coords
        for (p, q), m in level.items():
            tcell = (p + r, q - r + 1)
            # commuting square: d_r^tgt o f = f o d_r^src
            lhs = pt.differential(p, q) * m
            rhs_m = level.get(tcell)
            if rhs_m is None:
                rhs = Matrix.zero(f.source.field, pt.dim(*tcell), ps.dim(p, q))
            else:
                rhs = rhs_m * ps.differential(p, q)
            if lhs != rhs:
                raise InvariantError(
                    "induced page map does not commute with d_%d at (p=%d, q=%d)" % (r, p, q)
                )
        out[r] = level
    return out
