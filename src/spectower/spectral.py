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
>= r; d_r matches the ends of the gap-r pairs.  So pages change only at
the breakpoints r = 0 and r = s+1 for each gap s that some pair has.  A
breakpoint is a count per cell, page s+1 being page s less both ends of
each gap-s pair; page(r) views the last breakpoint at or below r and the
gap-r pairs, and builds cell ids and d_r on first read, so work grows
with the pairs, not with the cells or the filtration length.  A
FilteredComplex is split once, by bases T_k adapted to F_n ⊆ ... ⊆ F_1
⊆ C^k; its pages, certification and map check run on that split copy,
whose build checks the filtration.  Checks that run: R = D V column by
column, as D' V' = R' for D' = δ d (`matrix._tracked`); d_r o d_r = 0
and E_{r+1} = H(E_r, d_r) dimensionwise wherever d_r ≠ 0, on the pairs
(a matching of unit columns: its rank is its number of distinct rows);
and `converge` certifies E_inf against F_pH and H, not from the pairing
but by two echelon passes per d^k of the split copy (T is a filtered
isomorphism), on its rows in block-descending order.  The profile takes
the columns in that order too, so F_p C^k is a prefix [0, t) and dim
F_pH^k = t - rank d^k|F_p - #{lows of im d^{k-1} below t}; dim H^k = dim
C^k - rank d^k - rank d^{k-1} takes the nonzero columns reversed, or in
order where that is the profile's.  The subquotient
E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}),
Z_r^{p,q} = {x in F_p C^{p+q} : dx in F_{p+r}}, is the test oracle.

A map of towers costs the generators, not the pages: the image of each
source W column takes one back substitution in the target, which gives
its W coordinates and the largest r with it in Z_r, and page r selects
from those; d_r matches pairs with coefficient 1, so each square against
d_r moves rows and columns.

Entry representatives are ambient vectors in C^{p+q}, which makes the
zig-zag cross-check direct linear algebra.  Pages stabilize at the last
breakpoint r_stop <= n+1 for a length-n filtration (d_r moves p by r),
and `page(r)` for any larger r is E_inf.
"""

from bisect import bisect_left, bisect_right
from math import inf
from operator import neg

from .complexes import CochainComplex
from .errors import InvariantError, PreconditionError, _int
from .matrix import Matrix, _apply, _bits, _divided, _echelon, _low, _matrix, _scaled, _step, _tracked, quotient_basis


class Page:
    """One page E_r: a view over the reduction of its tower.

    It holds its breakpoint's count per cell, which `dim`, `dims`, `cells`
    and `flagged` read, and its gap-r pairs.  The ids of a cell are built
    on its first `reps`, `class_of` or `differential`, and the d_r matching
    of its pairs on first use.  `reps(p, q)` columns are ambient
    cocycle-like vectors in C^{p+q} representing a basis of E_r^{p,q};
    `class_of` expresses any ambient element of Z_r^{p,q} in that basis.
    """

    __slots__ = ("r", "field", "_red", "_dims", "_pairs", "_ids", "_match", "_reps")

    def __init__(self, r, red, dims, pairs):
        self.r, self.field, self._red, self._reps = r, red.field, red, {}
        self._dims = dims  # (p, q) -> dim, nonzero cells only: its breakpoint's, shared
        self._pairs = pairs  # the gap-r pairs (k, i, j): d_r matches i -> j
        self._ids = {}  # (p, q) -> indices of its surviving generators, ascending
        self._match = None  # (p, q) -> [(row, column)]: d_r out of the cell, by places in the cell ids

    @property
    def flagged(self):
        return tuple(c for c in self.cells() if c[1] < 0)  # nonzero cells with q < 0

    def dim(self, p, q):
        return self._dims.get((p, q), 0)

    def _cell_ids(self, c):
        """The generators of cell c on page 0 less those dead by page r: a gap-s pair dies at s+1."""
        if c not in self._ids:
            k, mate = c[0] + c[1], self._red.mate
            self._ids[c] = tuple([i for i in self._red.cell0.get(c, ())
                                  if (m := mate.get((k, i))) is None or m[2] >= self.r])
        return self._ids[c]

    def reps(self, p, q):
        m = self._reps.get((p, q))
        if m is None:
            red, k = self._red, p + q
            moves = dict(enumerate(red.order.get(k, ())))  # index coordinates -> positions in C^k
            ws = [red.w[(k, i)] for i in self._cell_ids((p, q))]
            m = _divided(self.field, len(moves), [(_moved(w, moves), dw) for w, dw in ws])
            m = self._reps[(p, q)] = red.frame[k][0] * m if k in red.frame else m
        return m

    def cells(self):
        """Sorted (p, q) with nonzero dimension."""
        return sorted(self._dims)

    def dims(self):
        return dict(sorted(self._dims.items()))

    def _matching(self):
        """d_r with coefficient 1 on each gap-r pair i -> j, as {source cell:
        [(place of j, place of i)]} in the ascending ids of the two cells."""
        if self._match is None:
            self._match, ids = {}, self._cell_ids
            for k, i, j in self._pairs:
                src, tgt = self._red._cell(k, i), self._red._cell(k + 1, j)
                self._match.setdefault(src, []).append((bisect_left(ids(tgt), j), bisect_left(ids(src), i)))
        return self._match

    def differential(self, p, q):
        """The matrix of d_r : E_r^{p,q} -> E_r^{p+r, q-r+1}."""
        r, ent = self.r, self._matching().get((p, q), ())
        return Matrix.from_entries(self.field, self.dim(p + r, q - r + 1), self.dim(p, q), [(a, b, 1) for a, b in ent])

    def has_nonzero_differential(self):
        return bool(self._pairs)

    def class_of(self, p, q, vec):
        """Coordinates of an ambient Z_r^{p,q} element in this cell's basis.

        Accepts a column Matrix (or several columns) over C^{p+q}; returns
        None when a column is not in Z_r^{p,q} at all.  Back substitution
        (`_Reduction._walk`) writes each column in the W basis, in index
        coordinates: one walk, the same for every r, whose bound below r
        puts the column outside Z_r.  Modulo B_r only the ids of page r
        remain.
        """
        red, k = self._red, p + q
        order = red.order.get(k, ())
        if vec.nrows != len(order):
            raise ValueError("class_of: %d rows, expected dim C^%d" % (vec.nrows, k))
        if k in red.frame:
            vec = red.frame[k][1] * vec
        walks = [red._walk(p, k, col, vec.den) for col in vec.take_rows(order).cols]
        if any(b is not None and b < self.r for _, _, b in walks):
            return None
        return _divided(self.field, len(order), [(x, den) for x, den, _ in walks]).take_rows(self._cell_ids((p, q)))


class ConvergenceReport:
    """Stabilized tower data plus the direct filtration on cohomology.

    E_r = E_inf for r >= r_stop, the last breakpoint.  h_filtration holds
    dim F_pH^k at the sorted (p, k) where it differs from dim F_{p+1}H^k;
    `h_dim` reads it as a step function of p.
    certified is True iff dim E_inf^{p,q} = dim F_pH^{p+q} - dim F_{p+1}H^{p+q}
    for every (p, q) and F_0H = H; a False value signals an engine bug.
    """

    __slots__ = ("r_stop", "einf", "h_filtration", "h_dims", "certified")

    def __init__(self, r_stop, einf, h_filtration, h_dims, certified):
        self.r_stop, self.einf, self.h_filtration = r_stop, einf, h_filtration
        self.h_dims, self.certified = h_dims, certified

    def h_dim(self, p, k):
        """dim F_pH^k: the value at the smallest stored p' >= p, or 0."""
        return next((h for (pp, kk), h in self.h_filtration.items() if kk == k and pp >= p), 0)

    def einf_total_dims(self):
        out = {}
        for (p, q), d in self.einf.items():
            out[p + q] = out.get(p + q, 0) + d
        return dict(sorted(out.items()))


class _Reduction:
    """The reduction R = D V of a split complex and the pages it yields.

    A breakpoint is its count per cell (`dims`), built from the one before
    it on the pairs; the pages over it build cell ids and d_r on first read.

    Generators of C^k are indexed in block-descending order (`order[k]`
    lists their positions), so F_p C^k is a prefix.
    Columns in index coordinates are int bitmasks over F_2, {index: value}
    dicts otherwise.  The reduction is one `_tracked` pass over the integer
    columns D' of d, D = D'/δ (δ = 1 over F_2 and F_p): it keeps D' V' = R'
    exactly, checked column by column, so V_j = V'_j / V'_j[j] and
    R_j = R'_j / (δ V'_j[j]).  A W column is kept as such a pair (column,
    denominator); the denominator is 1 over F_2, and over F_p the column is
    monic (1 at its lowest entry) for the steps of `class_of`.
    `frame[k]` = (T, T^-1) takes split coordinates of C^k to ambient ones.
    """

    def __init__(self, sfc, frame=None):
        cx = sfc.complex
        self.field = cx.field
        self.f2 = cx.field.p == 2
        self.frame = frame or {}
        self.order, self.block = {}, {}
        for k in cx.degrees():
            self.order[k], self.block[k] = sfc.order[k]
        self.w = {}  # (k, i) -> W column over C^k
        self.mate = {}  # (k, i) -> (k +- 1, j, gap): the other end of its pair
        for k in cx.degrees():
            self._reduce(k, sfc.sorted_rows(k).take_columns(self.order[k]))
        self.views = {}  # r -> Page
        self.dims = []  # the counts {(p, q): dim} of each breakpoint built so far

    def _reduce(self, k, d):
        f, delta, basis = self.field, d.den, {}  # D' = δ D in index coordinates
        for j, col in enumerate(d.cols):
            col, v, vj = _tracked(f, basis, j, col)  # V_j = v / v[j], R_j = col / (δ v[j])
            if _apply(f, d.cols, v) != col:
                raise InvariantError("reduction R = D V fails in degree %d: engine bug" % k)
            if (k, j) not in self.w:
                self.w[(k, j)] = (v, vj)
            elif col:
                raise InvariantError("death end %d in degree %d has a nonzero R column: engine bug" % (j, k))
            if col:
                low = _low(col)
                gap = self.block[k + 1][low] - self.block[k][j]
                self.mate[(k, j)] = (k + 1, low, gap)
                self.mate[(k + 1, low)] = (k, j, gap)
                if f.p in (2, None):
                    self.w[(k + 1, low)] = (col, delta * vj)
                else:  # W = col / (δ v[j]) with its column monic; a birth's v is 1 at j already
                    u = pow(col[low], -1, f.p)
                    self.w[(k + 1, low)] = (_scaled(f.p, col, u), delta * vj * u % f.p)

    def _walk(self, p, k, col, den):
        """(x, den, bound) of the column col / den over C^k in index
        coordinates: col / den = x / den in the W basis (W_i is lowest at i).

        The column lies in Z_r^{p,q} iff it avoids blocks < p and each birth
        end the walk meets has its partner in block >= p+r, so its bound,
        the largest such r, is -1 if the walk meets a block < p (and stops
        there), None if it meets no birth end, and else the least
        block + gap - p over the birth ends it meets.  Over F_p and Q it
        runs on one copy of the integer column, which each step writes
        into: over F_p W is monic, and over Q the column and x stay
        integral over one denominator, as in `_reduce`.
        """
        x, bound, f2 = 0 if self.f2 else {}, None, self.f2
        col = col if f2 else dict(col)
        while col:
            low = _low(col)
            if self.block[k][low] < p:
                bound = -1
                break
            w, dw = self.w[(k, low)]
            if f2:
                col, x = col ^ w, x | 1 << low
            else:  # col / den less (col[low] dw / (den w[low])) W, W = w / dw
                den = _step(self.field.p, (col, x), (w, {low: -dw}), low, den)
            mate = self.mate.get((k, low))
            if mate and mate[0] > k:  # a birth end, in Z_r while its partner's block is >= p+r
                b = self.block[k][low] + mate[2] - p
                bound = b if bound is None else min(bound, b)
        return x, den, bound

    def _cell(self, k, i):
        return (b := self.block[k][i]), k - b

    def page(self, r):
        """E_r: a view of the counts of the last breakpoint at or below r
        and of the gap-r pairs, cached per r.  d_r o d_r = 0 is checked on
        the pairs: the composite of two matchings is nonzero iff a gap-r
        death end is also a gap-r birth end."""
        if r in self.views:
            return self.views[r]
        if not self.dims:  # the gap buckets, read from the pairing when a page is first asked for
            self.gaps = {}  # gap -> [(k, i, j)]: the pairs (k, i) -> (k+1, j)
            for (k, i), (kk, j, gap) in self.mate.items():
                if kk > k:
                    self.gaps.setdefault(gap, []).append((k, i, j))
            self.breaks = [0] + [s + 1 for s in sorted(self.gaps)]
            self.cell0 = {}  # (p, q) -> ascending indices of its generators
            for k, blocks in self.block.items():
                for i, b in enumerate(blocks):
                    self.cell0.setdefault((b, k - b), []).append(i)
            self.dims.append({c: len(ids) for c, ids in self.cell0.items()})
        t = bisect_right(self.breaks, r) - 1
        while len(self.dims) <= t:
            self._advance()
        pairs = self.gaps.get(r, ())
        births = {(k, i) for k, i, _ in pairs}
        bad = [self._cell(k, i) for k, i, j in pairs if (k + 1, j) in births]
        if bad:
            raise InvariantError("d_%d o d_%d != 0 at (p=%d, q=%d): engine bug" % ((r, r) + min(bad)))
        self.views[r] = Page(r, self, self.dims[t], pairs)
        return self.views[r]

    def _advance(self):
        """Build the next breakpoint s+1: the counts of page s less both
        ends of each gap-s pair, checked against H(E_s, d_s) dimensionwise
        on the cells d_s touches; no other count moves.  d_s out of a cell
        is a matching: its columns are unit vectors e_j, one per pair, so its
        rank is exactly its number of distinct death ends j."""
        s = self.breaks[len(self.dims)] - 1
        prev = self.page(s)._dims
        dims, ends = dict(prev), {}
        for k, i, j in self.gaps[s]:
            src, tgt = self._cell(k, i), self._cell(k + 1, j)
            dims[src] = dims.get(src, 0) - 1
            dims[tgt] = dims.get(tgt, 0) - 1
            ends.setdefault(src, set()).add(j)  # the rank of d_s out of src is len(ends[src])
        for p, q in sorted({c for src in ends for c in (src, (src[0] + s, src[1] - s + 1))}):
            expect = prev.get((p, q), 0) - len(ends.get((p, q), ())) - len(ends.get((p - s, q + s - 1), ()))
            if dims[(p, q)] != expect:
                raise InvariantError("page %d cell (%d, %d) has dim %d but H(E_%d, d_%d) gives %d: engine bug"
                                     % (s + 1, p, q, dims[(p, q)], s, s, expect))
            if not expect:
                del dims[(p, q)]
        self.dims.append(dims)


class FilteredComplex:
    """A cochain complex with a decreasing, d-compatible filtration.

    `steps[p-1]` gives per-degree span matrices of F_p C^k for
    p = 1 .. n; F_0 is the whole complex and F_{n+1} = 0.  Pages,
    certification and the map check run on one split copy (`_split`): in
    a basis of each C^k adapted to F_n ⊆ ... ⊆ F_1 ⊆ C^k, d is block-nondecreasing.
    Building it, at construction, checks the filtration.
    """

    def __init__(self, complex, steps):
        self.complex = complex
        steps = [{_int(k, "filtration span degree", error=InvariantError): m for k, m in step.items()} for step in steps]
        self.steps = [{k: m for k, m in step.items() if m.ncols} for step in steps]
        self.n = len(self.steps)  # filtration length: the largest p with F_p possibly nonzero
        self._red = None
        self._converged = None
        self._copy = self._check()  # (split copy, frame), read by `_split`

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
        """(split copy, frame {k: (T, T^-1)}): T_k takes split coordinates to
        ambient ones, and the copy's d is T^-1 d T.  The pass is the
        filtration check, refusing the least (p, k) that fails: a span of
        the wrong field or height; `quotient_basis` raises unless
        F_{p+1} ⊆ F_p, and an entry of T^-1 d T from block b into block
        c < b means d(F_{c+1}) ⊄ F_{c+1}."""
        cx, f = self.complex, self.complex.field
        for p in range(1, self.n + 1):
            for k, m in self.steps[p - 1].items():
                if m.field != f:
                    raise InvariantError("filtration span has wrong field at (p=%d, k=%d)" % (p, k))
                if m.nrows != cx.dim(k):
                    raise InvariantError(
                        "filtration span at (p=%d, k=%d) has %d rows, expected %d"
                        % (p, k, m.nrows, cx.dim(k))
                    )
        bases, blocks, bad = {}, {}, []
        for k in cx.degrees():
            basis = Matrix.zero(f, cx.dim(k), 0)
            for p in range(self.n, -1, -1):
                try:
                    new = quotient_basis(self.span(p, k), basis)
                except InvariantError:  # F_{p+1} ⊄ F_p: go on from F_p alone
                    bad.append((p, k))
                    basis = quotient_basis(self.span(p, k), Matrix.zero(f, cx.dim(k), 0))
                    continue
                blocks.update(zip(cx.basis.gens(k)[basis.ncols:], [p] * new.ncols))
                basis = Matrix.hstack(f, cx.dim(k), [basis, new])
            bases[k] = basis
        if bad:
            raise InvariantError("filtration is not decreasing at (p=%d, k=%d)" % min(bad))
        frame = {k: (t, t.inverse()) for k, t in bases.items()}
        diff = {k: frame[k + 1][1] * cx.d(k) * frame[k][0] for k in frame if k + 1 in frame}
        for k, d in diff.items():
            b, c = ([blocks[g] for g in cx.basis.gens(j)] for j in (k, k + 1))
            bad += [(c[i] + 1, k) for i, j in d.support() if c[i] < b[j]]
        if bad:
            raise InvariantError("differential does not respect the filtration at (p=%d, k=%d)" % min(bad))
        return SplitFilteredComplex(CochainComplex(f, cx.basis, diff, check=False), blocks), frame

    def _split(self):
        """(split copy, frame), as the filtration check built them."""
        return self._copy

    def page(self, r):
        """The page E_r with differentials; E_inf from the last breakpoint on."""
        if r < 0:
            raise ValueError("page index must be >= 0")
        if self._red is None:
            self._red = _Reduction(*self._split())
        return self._red.page(r)

    def converge(self):
        """Walk the breakpoints to stabilization and certify E_inf against
        F_pH and H by two echelon passes per d^k on the rows of `sorted_rows(k)`,
        never the pairing: F_pH (`_h_filtration`) takes the columns block-descending,
        H the nonzero ones in reversed document order, or in document order where that is the profile's."""
        if self._converged is not None:
            return self._converged
        cx, split, rank = self.complex, self._split()[0], {}
        r_stop = self.page(0)._red.breaks[-1]  # the last breakpoint: every d_r with r >= r_stop is zero
        einf = self.page(r_stop).dims()
        for k in cx.degrees():
            d = split.sorted_rows(k)
            cols = [c for c in reversed(d.cols) if c]
            cols = cols[::-1] if cols == [d.cols[j] for j in split.order[k][0] if d.cols[j]] else cols
            rank[k] = len(_echelon(d.field, d.nrows, cols)[0])
        h_dims = {k: h for k in cx.degrees() if (h := cx.dim(k) - rank[k] - rank.get(k - 1, 0))}
        h_filt = dict(sorted((pk, h) for k in cx.degrees() for pk, h in split._h_filtration(k)))
        graded, below = {}, {}  # below[k]: dim F_{p+1}H^k, then dim F_0H^k once the walk ends
        for (p, k), h in sorted(h_filt.items(), reverse=True):
            graded[(p, k - p)] = h - below.get(k, 0)
            below[k] = h
        certified = graded == einf and below == h_dims
        self._converged = ConvergenceReport(r_stop, einf, h_filt, h_dims, certified)
        return self._converged


class SplitFilteredComplex(FilteredComplex):
    """A complex split as C^k = ⊕_p C_p^k with a block-nondecreasing d.

    `blocks` maps generator ids to their p-index, and F_p is the span of
    the blocks >= p.  Pages come from the reduction of d itself; the
    zig-zag operations below exploit the splitting directly.
    """

    def __init__(self, complex, blocks):
        self.complex = complex
        self.blocks = dict(blocks)
        self.n = max(self.blocks.values(), default=0)
        self.order = {}  # degree k -> (positions of C^k in block-descending order, the block of each)
        for k in complex.degrees():
            b = [self.blocks.get(g, -1) for g in complex.basis.gens(k)]  # `_check` refuses a missing one
            pos = sorted(range(len(b)), key=lambda i: -b[i])
            self.order[k] = (pos, [b[i] for i in pos])
        self._rows = {}  # degree k -> d^k with its rows in order[k + 1]
        self._prof = {}  # degree k -> (pivot columns, sorted lows) of d^k
        self._red = None
        self._converged = None
        self._check()

    def _check(self):
        cx = self.complex
        for g, _ in cx.basis.generators:
            if g not in self.blocks:
                raise InvariantError("generator %r has no block index" % g)
            if type(self.blocks[g]) is not int:  # a float or a bool is refused, not truncated
                raise InvariantError("generator %r has non-integer block index %r" % (g, self.blocks[g]))
            if self.blocks[g] < 0:
                raise InvariantError("generator %r has negative block index" % g)
        for k in cx.degrees():
            src, dst, low = cx.basis.gens(k), cx.basis.gens(k + 1), self.order.get(k + 1, ((), ()))[1]
            # rows in block-descending order, so the last row of a column has its lowest block
            if any(c and low[_low(c)] < self.blocks[src[j]] for j, c in enumerate(self.sorted_rows(k).cols)):
                i, j = min((i, j) for i, j in cx.d(k).support() if self.blocks[dst[i]] < self.blocks[src[j]])
                raise InvariantError("differential entry %r -> %r lowers the block index by %d"
                                     % (src[j], dst[i], self.blocks[src[j]] - self.blocks[dst[i]]))

    def sorted_rows(self, k):
        """d^k with its rows in order[k + 1]: permuted once, for whichever
        of the check, the reduction and the rank profile runs first."""
        if k not in self._rows:
            self._rows[k] = self.complex.d(k).take_rows(self.order.get(k + 1, ((), ()))[0])
        return self._rows[k]

    def block_indices(self, k, p):
        """Coordinate positions of block-p generators inside C^k, ascending."""
        pos, blocks = self.order.get(k, ((), ()))
        return tuple(pos[bisect_left(blocks, -p, key=neg):bisect_right(blocks, -p, key=neg)])

    def _h_filtration(self, k):
        """((p, k), dim F_pH^k) at the occupied blocks p where it differs
        from dim F_{p+1}H^k.  F_p C^k is the prefix [0, t) of order[k], and
        an echelon basis of B^k = im d^{k-1} has distinct lows, so
        dim F_pH^k = t - rank d^k|F_p - #{lows < t}.  One cached `_echelon`
        pass over the columns of each d^j in order[j] (rows in order[j + 1])
        gives its pivots and lows.  Nothing here reads the reduction.
        """
        for j in (k - 1, k):
            if j not in self._prof:
                d = self.sorted_rows(j)
                piv, basis = _echelon(d.field, d.nrows, [d.cols[i] for i in self.order.get(j, ((), ()))[0]])
                self._prof[j] = (piv, sorted(basis))
        piv, lows, h = self._prof[k][0], self._prof[k - 1][1], 0
        for b, t in {b: t for t, b in enumerate(self.order[k][1], 1)}.items():  # F_b C^k = [0, t)
            new = t - bisect_left(piv, t) - bisect_left(lows, t)
            if new != h:
                h = new
                yield (b, k), h

    def span(self, p, k):
        """A matrix whose columns span F_p C^k: the generators of blocks >= p."""
        cx = self.complex
        idx = [i for i, g in enumerate(cx.basis.gens(k)) if self.blocks[g] >= p]
        return Matrix.identity(cx.field, cx.dim(k)).take_columns(idx)

    def _split(self):
        return self, {}


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
    support = {sfc.blocks[gens[i]] for i, _, _ in alpha.entries()}
    if len(support) > 1:
        raise PreconditionError("alpha is supported in blocks %s, expected one" % sorted(support))
    if not support:
        raise PreconditionError("alpha is zero; it defines no leading block")
    p = support.pop()

    # d never lowers the block index, so the staircase system is the
    # submatrix of d from blocks p+1..p+r-1 into blocks p..p+r-1
    unknown = [i for b in range(p + 1, p + r) for i in sfc.block_indices(k, b)]
    rows = [i for b in range(p, p + r) for i in sfc.block_indices(k + 1, b)]
    f, d = cx.field, cx.d(k)
    sol = d.submatrix(rows, unknown).solve(-(d * alpha).take_rows(rows))
    if sol is None:
        return None
    chain = alpha + Matrix.from_entries(f, cx.dim(k), 1, [(unknown[t], 0, v) for t, _, v in sol.entries()])
    dchain = d * chain
    img_idx = set(sfc.block_indices(k + 1, p + r))
    image = Matrix.from_entries(f, cx.dim(k + 1), 1, [t for t in dchain.entries() if t[0] in img_idx])
    # blocks p..p+r-1 of d(chain) vanish by construction; check it anyway
    for pos in rows:
        if dchain.get(pos, 0):
            block = sfc.blocks[cx.basis.gens(k + 1)[pos]]
            raise InvariantError("zig-zag system solution failed to clear block %d" % block)
    return ZigzagWitness(p, k, r, chain, image)


class FilteredChainMap:
    """A chain map sending F_p(source) into F_p(target) for every p."""

    def __init__(self, chain_map, source, target):
        self.chain_map = chain_map
        self.source = source
        self.target = target
        self._check()

    def _check(self):
        """Refuse the least (p, k) with f(F_p C^k) not in F_p.  On the split
        copies one pass over the entries of g_k = T_tgt^-1 f_k T_src finds
        it, a factor only on a side that has a frame: an entry from block b
        into block c < b first fails at p = c + 1."""
        src, tgt = self.source._split()[0], self.target._split()[0]
        bad = []
        for k in self.chain_map.source.degrees():
            g = self._split_block(k)
            b, c = ([x.blocks[gen] for gen in x.complex.basis.gens(k)] for x in (src, tgt))
            bad += [(c[i] + 1, k) for i, j in g.support() if c[i] < b[j]]
        if bad:
            raise PreconditionError("chain map does not preserve the filtration at (p=%d, k=%d)" % min(bad))

    def _split_block(self, k):
        """f_k between the split copies, T_tgt^-1 f_k T_src, a factor only on a side that has a frame."""
        sframe, tframe = self.source._split()[1], self.target._split()[1]
        g = self.chain_map.block(k)
        g = tframe[k][1] * g if k in tframe else g
        return g * sframe[k][0] if k in sframe else g


def _moved(col, moves):
    """The column with each row b of `moves` moved to row moves[b], distinct
    targets, and its other rows dropped."""
    if type(col) is int:
        return sum(1 << moves[b] for b in _bits(col) if b in moves)
    return {moves[b]: v for b, v in col.items() if b in moves}


def map_of_spectral_sequences(fmap):
    """Per-page, per-cell matrices induced by a filtration-preserving map.

    Returns {r: {(p, q): Matrix}} for r = 0 .. max(n_src, n_tgt) + 1.  Each
    source generator costs one walk (`_Reduction._walk`) of the image of its
    W pair (column, denominator), taken in index coordinates through f_k
    between the split copies, permuted once per degree.  Level r restricts
    that one computation: its columns are the source ids alive on page r
    and its rows the target ids alive there, picked in one pass.  A
    selected column whose bound is below r has escaped the target page; a
    cell whose ids have not moved since the last level keeps its matrix.
    d_r matches each gap-r birth end to its death end with coefficient 1,
    so d_r^tgt o m moves rows of m and m' o d_r^src places columns of m'
    (m' the matrix at the cell d_r lands in): every square is checked on
    those, at every level.
    """
    src, tgt, fld = fmap.source, fmap.target, fmap.chain_map.source.field
    s0, tred, zero = src.page(0), tgt.page(0)._red, 0 if fld.p == 2 else {}
    gs, walked = {}, {}  # walked: (k, i) -> (x, den, bound), source W_i carried into the target and walked there
    for p, q in s0.cells():
        k = p + q
        if k not in gs:  # f_k in index coordinates on both sides
            gs[k] = fmap._split_block(k).take_columns(s0._red.order[k]).take_rows(tred.order.get(k, ()))
        g = gs[k]
        for i in s0._cell_ids((p, q)):
            w, dw = s0._red.w[(k, i)]
            walked[(k, i)] = tred._walk(p, k, _apply(fld, g.cols, w), g.den * dw)
    out, last = {}, {}  # last: cell -> (source ids, target ids, least bound, matrix), as last picked
    for r in range(max(src.n, tgt.n) + 2):
        ps, pt, level = src.page(r), tgt.page(r), {}
        for (p, q) in ps.cells():
            ids = ps._cell_ids((p, q)), pt._cell_ids((p, q))
            held = last.get((p, q))
            if held is None or held[:2] != ids:  # the ids moved: pick the columns and rows again, in one pass
                cols, rows = [walked[(p + q, i)] for i in ids[0]], {i: n for n, i in enumerate(ids[1])}
                bound = min([b for _, _, b in cols if b is not None], default=inf)
                m = _divided(fld, len(rows), [(_moved(x, rows), den) for x, den, _ in cols])
                held = last[(p, q)] = ids + (bound, m)
            if held[2] < r:
                raise InvariantError("induced map escaped the target page at r=%d, (p=%d, q=%d)" % (r, p, q))
            level[(p, q)] = held[3]
        smatch, tmatch = ps._matching(), pt._matching()
        for (p, q), m in level.items():
            rows, cols = {b: a for a, b in tmatch.get((p, q), ())}, smatch.get((p, q), ())
            if not rows and not cols:  # d_r is zero out of the cell on both sides
                continue
            nrows, after = pt.dim(p + r, q - r + 1), level.get((p + r, q - r + 1))
            placed = [zero] * ps.dim(p, q)
            for a, b in cols:
                placed[b] = after.cols[a]
            if _matrix(m.field, nrows, [_moved(x, rows) for x in m.cols], m.den) != _matrix(
                    m.field, nrows, placed, after.den if cols else 1):
                raise InvariantError("induced page map does not commute with d_%d at (p=%d, q=%d)" % (r, p, q))
        out[r] = level
    return out
