"""Filtered cochain complexes and their spectral sequence towers.

Conventions
-----------
A filtration is decreasing, C = F_0 ⊇ F_1 ⊇ ... ⊇ F_n ⊇ F_{n+1} = 0,
compatible with the degree +1 differential.  Pages carry differentials
d_r of bidegree (r, -r+1) and satisfy E_{r+1} = H(E_r, d_r).

Every page is a view over one persistence column reduction R = D V of a
split complex (Barannikov normal form; Zomorodian-Carlsson 2005,
Basu-Parida 2017): a column x whose R column has its pivot, its least
index, at y pairs x -> y with gap s = block(y) - block(x), and E_r^{p,q}
has a basis of the block-p generators of degree p+q that are unpaired or
in a pair of gap >= r; d_r matches the ends of the gap-r pairs.  As in
PHAT (Bauer et al. 2017), the reduction has one index order: columns and
pairing are arrays per degree of a split copy listed block by block,
reduced from the last generator down, so the generators of a cell are a
range and F_p a suffix.  Every tower changes coordinates once, into that
copy, with a frame {k: (T, T^-1)}, T_k taking the copy's coordinates of
C^k to the tower's: a FilteredComplex by bases T_k adapted to F_n ⊆ ...
⊆ F_1 ⊆ C^k, a SplitFilteredComplex listed out of block order by sorting
each degree stably by block (a permutation frame); one listed block by
block is its own copy.  Pages, certification and the map check run on
the copy, whose build checks the filtration.
Pages change only at the breakpoints r = 0 and r = s+1 for each gap s
that some pair has.  Page 0 numbers its cells and counts them; page s+1
is page s less both ends of each gap-s pair, and its breakpoint stores
only the counts those pairs change, so breakpoints cost the pairs, not
the cells or the filtration length.  page(r) views the last breakpoint
at or below r and the gap-r pairs, and reads its counts, cell ids and
d_r on first use.  Checks that run: R = D V column by column, as D' V' = R' for D' = δ d
(`matrix._tracked`); d_r o d_r = 0 and E_{r+1} = H(E_r, d_r)
dimensionwise wherever d_r ≠ 0, on the pairs (a matching of unit
columns: its rank is its number of distinct rows); and `converge`
certifies E_inf against F_pH and H, not from the pairing but by two
echelon passes per d^k of the split copy (T is a filtered isomorphism),
on its rows as listed.  The profile takes the columns from the last
down, so F_p C^k = [t, n) is its first n - t columns and dim F_pH^k =
n - t - rank d^k|F_p - #{pivots of im d^{k-1} >= t}; dim H^k =
dim C^k - rank d^k - rank d^{k-1} takes the nonzero columns by blocks
from the highest, each in listed order, or all reversed where that is
the profile's order.  The subquotient
E_r^{p,q} = Z_r^{p,q} / (Z_{r-1}^{p+1,q-1} + d Z_{r-1}^{p-r+1,q+r-2}),
Z_r^{p,q} = {x in F_p C^{p+q} : dx in F_{p+r}}, is the test oracle.

A map of towers costs the generators, not the pages: the image of each
source W column takes one back substitution in the target, which gives
its W coordinates and the largest r with it in Z_r, and page r selects
from those; d_r matches pairs with coefficient 1, so each square against
d_r moves rows and columns.

Entry representatives are ambient vectors in C^{p+q}, so the zig-zag
lift of d_r in tests/helpers.py checks them by direct linear algebra.
Pages stabilize at the last breakpoint r_stop <= n+1 for a length-n
filtration (d_r moves p by r), and `page(r)` for any larger r is E_inf.
"""

from bisect import bisect_left, bisect_right
from copy import copy as _shallow
from itertools import chain, compress
from math import inf
from operator import ne

from .complexes import CochainComplex, GradedBasis
from .errors import InvariantError, PreconditionError, _int
from .matrix import (Matrix, _apply, _bits, _divided, _echelon, _low, _matrix, _primitive, _scaled, _step, _tracked,
                     quotient_basis)


class Page:
    """One page E_r: a view over the reduction of its tower.

    It holds its breakpoint and its gap-r pairs.  Its count per cell, which
    `dim`, `dims`, `cells` and `flagged` read, is materialised once per
    breakpoint, on first read, and shared by the pages over it.  The ids
    of a cell are built on its first `reps`, `class_of` or `differential`,
    and the d_r matching of its pairs on first use.  `reps(p, q)` columns
    are ambient cocycle-like vectors in C^{p+q} representing a basis of
    E_r^{p,q}; `class_of` expresses any ambient element of Z_r^{p,q} in
    that basis.
    """

    __slots__ = ("r", "field", "_red", "_t", "_counts", "_pairs", "_ids", "_match", "_reps")

    def __init__(self, r, red, t, pairs):
        self.r, self.field, self._red, self._reps = r, red.field, red, {}
        self._t, self._counts = t, None  # its breakpoint, and that breakpoint's counts once read
        self._pairs = pairs  # the gap-r pairs (k, i, j): d_r matches i -> j
        self._ids = {}  # (p, q) -> indices of its surviving generators, ascending
        self._match = None  # (p, q) -> [(row, column)]: d_r out of the cell, by places in the cell ids

    @property
    def flagged(self):
        return tuple(c for c in self.cells() if c[1] < 0)  # nonzero cells with q < 0

    def _read(self):
        """Its breakpoint's counts by cell number, a trailing 0 for cells
        outside the tower, built once and shared by every page over that
        breakpoint: a copy of the latest counts, or page 0's replayed
        through the changes up to its breakpoint if a later one is built."""
        red, t = self._red, self._t
        if t not in red.read and t == len(red.changes) - 1:
            red.read[t] = red.counts[:]
        elif t not in red.read:
            counts = red.read[t] = red.read[0][:]
            for c, n in chain.from_iterable(red.changes[1:t + 1]):
                counts[c] = n
        self._counts = red.read[t]
        return self._counts

    def dim(self, p, q):
        return (self._counts or self._read())[self._red.number.get((p, q), -1)]

    def _cell_ids(self, c):
        """The generators of cell c on page 0 less those dead by page r: a gap-s pair dies at s+1."""
        if c not in self._ids:
            red, r, n = self._red, self.r, self._red.number.get(c)  # n is None off the tower
            gap, ids = red.gap.get(c[0] + c[1]), () if n is None else red.cell0[n]
            self._ids[c] = tuple([i for i in ids if (g := gap[i]) is None or g >= r])
        return self._ids[c]

    def reps(self, p, q):
        m = self._reps.get((p, q))
        if m is None:
            red, k = self._red, p + q
            w, dw = red.w[k], red.dw[k]
            m = _divided(self.field, len(w), [(w[i], dw[i]) for i in self._cell_ids((p, q))])
            m = self._reps[(p, q)] = red.frame[k][0] * m if k in red.frame else m
        return m

    def cells(self):
        """Sorted (p, q) with nonzero dimension."""
        return [c for c, n in zip(self._red.cells, self._counts or self._read()) if n]

    def dims(self):
        return {c: n for c, n in zip(self._red.cells, self._counts or self._read()) if n}

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
        (`_Reduction._walk`) writes each column, taken into the split copy's
        coordinates by the frame, in the W basis: one walk, the same for
        every r, whose bound below r puts the column outside Z_r.  Modulo
        B_r only the ids of page r remain.
        """
        red, k = self._red, p + q
        n = len(red.block.get(k, ()))
        if vec.nrows != n:
            raise InvariantError("class_of: %d rows, expected dim C^%d" % (vec.nrows, k))
        if k in red.frame:
            vec = red.frame[k][1] * vec
        walks = [red._walk(p, k, col, vec.den) for col in vec.cols]
        if any(b is not None and b < self.r for _, _, b in walks):
            return None
        return _divided(self.field, n, [(x, den) for x, den, _ in walks]).take_rows(self._cell_ids((p, q)))


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

    The complex is a split copy, listed block by block (`block[k]` the
    blocks of C^k), so F_p C^k is a suffix of its generators.  Per-generator
    state is one list per degree k, indexed by the generator's place i:
    `w[k][i]` the W column, `dw[k][i]` its denominator, `gap[k][i]` the gap
    of i's pair (None if unpaired), `up[k][i]` a birth end's partner, else
    -1.  Columns are int bitmasks over F_2, {place: value} dicts otherwise.
    The reduction is one `_tracked` pass over the integer columns D' of d,
    D = D'/δ (δ = 1 over F_2 and F_p): it keeps D' V' = R' exactly, checked
    column by column, so V_j = V'_j / V'_j[j] and R_j = R'_j / (δ V'_j[j]).
    W is kept as such a column over its denominator, 1 over F_2; over F_p
    the column is monic (1 at its pivot) for the steps of `class_of`.
    Page 0 numbers its cells in (p, q) order (`cells`; `cell0` their ranges
    of places, `cell_of[k][i]` the cell of i) and `counts` holds the latest
    breakpoint's count per cell.  `changes[t]` stores the (cell, count)
    pairs breakpoint t changes from the one before, so a breakpoint costs
    its pairs; `read[t]` holds its counts once a page reads them (page 0's
    from the start); pages read cell ids and d_r on first use.
    `frame[k]` = (T, T^-1) takes split coordinates of C^k to ambient ones.
    """

    def __init__(self, sfc, frame):
        cx = sfc.complex
        self.field, self.f2, self.frame, self.runs = cx.field, cx.field.p == 2, frame, sfc.runs
        self.block, self.w, self.dw, self.gap, self.up = {}, {}, {}, {}, {}
        for k in cx.degrees():
            self.block[k], n = list(map(sfc.blocks.__getitem__, cx.basis.gens(k))), cx.dim(k)
            self.w[k], self.dw[k], self.gap[k], self.up[k] = [None] * n, [None] * n, [None] * n, [-1] * n
        for k in cx.degrees():
            self._reduce(k, cx.d(k))
        self.views = {}  # r -> Page
        self.changes = []  # per breakpoint built so far, the (cell, count) pairs it changes

    def _reduce(self, k, d):
        f, delta, basis = self.field, d.den, {}  # D' = δ D
        w, dw, gap, up, block = self.w[k], self.dw[k], self.gap[k], self.up[k], self.block[k]
        for j in range(len(d.cols) - 1, -1, -1):  # from the last generator down
            col, v, vj = _tracked(f, basis, j, d.cols[j])  # V_j = v / v[j], R_j = col / (δ v[j])
            if _apply(f, d.cols, v) != col:
                raise InvariantError("reduction R = D V fails in degree %d: engine bug" % k)
            if w[j] is None:
                w[j], dw[j] = v, vj
            elif col:
                raise InvariantError("death end %d in degree %d has a nonzero R column: engine bug" % (j, k))
            if col:
                low = up[j] = _low(col)
                gap[j] = self.gap[k + 1][low] = self.block[k + 1][low] - block[j]
                if f.p in (2, None):
                    self.w[k + 1][low], self.dw[k + 1][low] = col, delta * vj
                else:  # W = col / (δ v[j]) with its column monic; a birth's v is 1 at j already
                    u = pow(col[low], -1, f.p)
                    self.w[k + 1][low], self.dw[k + 1][low] = _scaled(f.p, col, u), delta * vj * u % f.p

    def _walk(self, p, k, col, den):
        """(x, den, bound) of the column col / den over C^k of the split
        copy: col / den = x / den in the W basis (W_i's pivot is i).

        The column lies in Z_r^{p,q} iff it avoids blocks < p and each birth
        end the walk meets has its partner in block >= p+r, so its bound,
        the largest such r, is -1 if its pivot is in a block < p (and the
        walk does not start), None if it meets no birth end, and else the
        least block + gap - p over the birth ends it meets.  W_low has its
        pivot, its least index, at low, so the rows a walk clears only rise
        and their blocks never fall: the pivot decides if it avoids blocks < p.
        Over F_p and Q it runs on one copy of the integer column, which each
        step writes into: over F_p W is monic, and over Q the column and x
        stay integral over one denominator, which takes each step's scale;
        the common content of (x, den) is divided out once, when the walk
        ends.
        """
        x, bound, f2 = 0 if self.f2 else {}, None, self.f2
        block, w, dw, up, gap = [a.get(k) for a in (self.block, self.w, self.dw, self.up, self.gap)]  # None if C^k = 0
        if col and block[_low(col)] < p:
            return x, den, -1
        col = col if f2 else dict(col)
        while col:
            low = _low(col)
            if f2:
                col, x = col ^ w[low], x | 1 << low
            else:  # col / den less (col[low] dw / (den w[low])) W, W = w / dw
                den *= _step(self.field.p, (col, x), (w[low], {low: -dw[low]}), low)
            if up[low] >= 0:  # a birth end, in Z_r while its partner's block is >= p+r
                b = block[low] + gap[low] - p
                bound = b if bound is None else min(bound, b)
        if self.field.p is None and den != 1:
            den = _primitive((x,), den)
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
        if not self.changes:  # the gap buckets, read from the pairing when a page is first asked for
            self.gaps = {}  # gap -> [(k, i, j)]: the pairs (k, i) -> (k+1, j)
            for k, up in self.up.items():
                for i, j in enumerate(up):
                    if j >= 0:
                        self.gaps.setdefault(self.gap[k][i], []).append((k, i, j))
            self.breaks = [0] + [s + 1 for s in sorted(self.gaps)]
            runs = sorted((p, k - p, k, a, b) for k, rs in self.runs.items() for p, a, b in rs)
            self.cells = [(p, q) for p, q, _, _, _ in runs]  # the page-0 cells, sorted: a cell's number is its place
            self.number = dict(zip(self.cells, range(len(runs))))
            self.cell0 = [range(a, b) for _, _, _, a, b in runs]  # per cell, the range of indices of its generators
            self.cell_of = {k: [0] * len(blocks) for k, blocks in self.block.items()}  # index -> cell
            for n, (_, _, k, a, b) in enumerate(runs):
                self.cell_of[k][a:b] = [n] * (b - a)
            self.read = {0: list(map(len, self.cell0)) + [0]}  # breakpoint t -> its counts, shared by its pages
            self.counts = self.read[0][:]  # the latest breakpoint's, updated in place
            self.changes.append(())
        t = bisect_right(self.breaks, r) - 1
        while len(self.changes) <= t:
            self._advance()
        pairs = self.gaps.get(r, ())
        births = {(k, i) for k, i, _ in pairs}
        bad = [self._cell(k, i) for k, i, j in pairs if (k + 1, j) in births]
        if bad:
            raise InvariantError("d_%d o d_%d != 0 at (p=%d, q=%d): engine bug" % ((r, r) + min(bad)))
        self.views[r] = Page(r, self, t, pairs)
        return self.views[r]

    def _advance(self):
        """Build the next breakpoint s+1: the counts of page s less both
        ends of each gap-s pair, checked against H(E_s, d_s) dimensionwise
        on the cells the pairs touch, which are the cells it stores; no
        other count moves.  d_s out of a cell is a matching: its columns are
        unit vectors e_j, one per pair, so its rank is exactly its number of
        distinct death ends j."""
        s = self.breaks[len(self.changes)] - 1
        self.page(s)  # d_s o d_s = 0
        counts, cell_of, hit, ends = self.counts, self.cell_of, {}, {}
        for k, i, j in self.gaps[s]:
            src, tgt = cell_of[k][i], cell_of[k + 1][j]
            hit[src] = hit.get(src, 0) + 1
            hit[tgt] = hit.get(tgt, 0) + 1
            ends.setdefault(src, set()).add(j)  # the rank of d_s out of src is len(ends[src])
        changes = []
        for c in sorted(hit):  # cell numbers sort as their (p, q)
            (p, q), n = self.cells[c], counts[c] - hit[c]
            expect = counts[c] - len(ends.get(c, ())) - len(ends.get(self.number.get((p - s, q + s - 1)), ()))
            if n != expect:
                raise InvariantError("page %d cell (%d, %d) has dim %d but H(E_%d, d_%d) gives %d: engine bug"
                                     % (s + 1, p, q, n, s, s, expect))
            changes.append((c, n))
        for c, n in changes:
            counts[c] = n
        self.changes.append(changes)


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
        self._copy = self._check()  # (split copy, frame), read by `_split`

    def span(self, p, k):
        """A matrix whose columns span F_p C^k inside C^k."""
        dim, f = self.complex.dim(k), self.complex.field
        if p <= 0:
            return Matrix.identity(f, dim)
        m = self.steps[p - 1].get(k) if p <= self.n else None
        return Matrix.zero(f, dim, 0) if m is None else m

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
                    raise InvariantError("filtration span at (p=%d, k=%d) has %d rows, expected %d"
                                         % (p, k, m.nrows, cx.dim(k)))
        bases, blocks, bad = {}, {}, []
        for k in cx.degrees():
            basis, pieces = Matrix.zero(f, cx.dim(k), 0), []  # (p, a basis of F_p / F_{p+1}), block 0 first
            for p in range(self.n, -1, -1):
                try:
                    new = quotient_basis(self.span(p, k), basis)
                except InvariantError:  # F_{p+1} ⊄ F_p: go on from F_p alone
                    bad.append((p, k))
                    basis = quotient_basis(self.span(p, k), Matrix.zero(f, cx.dim(k), 0))
                    continue
                pieces.insert(0, (p, new))  # so the split copy is listed block-ascending
                basis = Matrix.hstack(f, cx.dim(k), [basis, new])
            blocks.update(zip(cx.basis.gens(k), [p for p, m in pieces for _ in range(m.ncols)]))
            bases[k] = Matrix.hstack(f, cx.dim(k), [m for _, m in pieces])
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
        if _int(r, "page index", error=PreconditionError) < 0:
            raise PreconditionError("page index must be >= 0")
        if self._red is None:
            self._red = _Reduction(*self._split())
        return self._red.page(r)

    def converge(self):
        """Walk the breakpoints to stabilization and certify E_inf against
        F_pH and H by two echelon passes per d^k of the split copy, never the
        pairing: F_pH (`_h_filtration`) takes the columns from the last down,
        H the nonzero ones by blocks from the highest, each in listed order, or reversed."""
        cx, split, rank = self.complex, self._split()[0], {}
        r_stop = self.page(0)._red.breaks[-1]  # the last breakpoint: every d_r with r >= r_stop is zero
        einf = self.page(r_stop).dims()
        for k in cx.degrees():
            d = split.complex.d(k)
            cols = list(filter(None, chain(*[d.cols[a:b] for _, a, b in reversed(split.runs[k])])))
            cols = cols[::-1] if cols == list(filter(None, reversed(d.cols))) else cols
            rank[k] = len(_echelon(d.field, d.nrows, cols)[0])
        h_dims = {k: h for k in cx.degrees() if (h := cx.dim(k) - rank[k] - rank.get(k - 1, 0))}
        h_filt = dict(sorted((pk, h) for k in cx.degrees() for pk, h in split._h_filtration(k)))
        graded, below = {}, {}  # below[k]: dim F_{p+1}H^k, then dim F_0H^k once the walk ends
        for (p, k), h in sorted(h_filt.items(), reverse=True):
            graded[(p, k - p)] = h - below.get(k, 0)
            below[k] = h
        certified = graded == einf and below == h_dims
        return ConvergenceReport(r_stop, einf, h_filt, h_dims, certified)


class SplitFilteredComplex(FilteredComplex):
    """A complex split as C^k = ⊕_p C_p^k with a block-nondecreasing d.

    `blocks` maps generator ids to their p-index, and F_p is the span of
    the blocks >= p.  Pages come from the reduction of its split copy.
    """

    def __init__(self, complex, blocks):
        self.complex, self.blocks = complex, {}  # the generators' blocks only
        for g, _ in complex.basis.generators:  # the first refusal in document order
            if g not in blocks:
                raise InvariantError("generator %r has no block index" % g)
            b = self.blocks[g] = blocks[g]
            if type(b) is not int:  # a float or a bool is refused, not truncated
                raise InvariantError("generator %r has non-integer block index %r" % (g, b))
            if b < 0:
                raise InvariantError("generator %r has negative block index" % g)
        by_degree = {k: list(map(self.blocks.__getitem__, complex.basis.gens(k))) for k in complex.degrees()}
        self.runs = {k: _runs(sorted(b)) for k, b in by_degree.items()}  # degree k -> (block, start, end) per block
        self.n = max([rs[-1][0] for rs in self.runs.values()], default=0)
        self._prof, self._red = {}, None  # _prof: degree k -> (pivot columns, sorted pivot rows) of d^k
        self._copy = self._check(by_degree)

    def _check(self, by_degree):
        """(split copy, frame): the tower itself and {} if each degree is
        listed block by block; else each degree sorted stably by block, d
        permuted to match, and {k: (P, P^-1)} for the degrees that move.
        The check runs on the copy's d, whose rows ascend by block, so the
        pivot of a column, its least row, has its lowest block; a refusal
        names the least (row, column) entry as the tower lists it."""
        cx = self.complex
        pos = {k: sorted(range(len(b)), key=b.__getitem__) for k, b in by_degree.items()}  # stable
        diff = {k: cx.d(k).take_columns(pos[k]).take_rows(pos.get(k + 1, ())) for k in cx.degrees()}
        for k, b in by_degree.items():
            low = sorted(c := by_degree.get(k + 1, ()))
            if any(col and low[_low(col)] < b[j] for col, j in zip(diff[k].cols, pos[k])):
                i, j = min((i, j) for i, j in cx.d(k).support() if c[i] < b[j])
                raise InvariantError("differential entry %r -> %r lowers the block index by %d"
                                     % (cx.basis.gens(k)[j], cx.basis.gens(k + 1)[i], b[j] - c[i]))
        moved = {k: ps for k, ps in pos.items() if any(map(ne, ps, range(len(ps))))}
        if not moved:
            return self, {}
        gens = [(cx.basis.gens(k)[i], k) for k in cx.degrees() for i in pos[k]]
        copy = _shallow(self)  # the checked blocks, runs and n; listed block by block, so its own copy, unchecked
        copy.complex = CochainComplex(cx.field, GradedBasis(gens), diff, check=False)
        copy._prof, copy._copy = {}, (copy, {})
        eye = {k: Matrix.identity(cx.field, len(ps)) for k, ps in moved.items()}
        return copy, {k: (eye[k].take_columns(ps), eye[k].take_rows(ps)) for k, ps in moved.items()}

    def _h_filtration(self, k):
        """((p, k), dim F_pH^k) at the occupied blocks p where it differs
        from dim F_{p+1}H^k, on a tower listed block by block.  F_p C^k is
        the suffix [t, n) of its generators, the first n - t columns of a
        pass from the last down, and an echelon basis of B^k = im d^{k-1}
        has distinct pivots (least rows), so dim F_pH^k = n - t - rank
        d^k|F_p - #{pivots >= t}.  One cached `_echelon` pass over the
        columns of each d^j in reversed order gives its pivot columns and
        rows.  Nothing here reads the reduction.
        """
        for j in (k - 1, k):
            if j not in self._prof:
                d = self.complex.d(j)
                piv, basis = _echelon(d.field, d.nrows, d.cols[::-1])
                self._prof[j] = (piv, sorted(basis))
        piv, rows, h, n = self._prof[k][0], self._prof[k - 1][1], 0, self.complex.dim(k)
        for b, t, _ in reversed(self.runs[k]):  # F_b C^k = [t, n)
            new = n - t - bisect_left(piv, n - t) - len(rows) + bisect_left(rows, t)
            if new != h:
                h = new
                yield (b, k), h

    def span(self, p, k):
        """A matrix whose columns span F_p C^k: the generators of blocks >= p."""
        cx = self.complex
        idx = [i for i, g in enumerate(cx.basis.gens(k)) if self.blocks[g] >= p]
        return Matrix.identity(cx.field, cx.dim(k)).take_columns(idx)


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
        into block c < b first fails at p = c + 1.  Each g_k is kept in
        `split_blocks` for the maps of pages."""
        (src, sframe), (tgt, tframe) = self.source._split(), self.target._split()
        bad, self.split_blocks = [], {}
        for k in self.chain_map.source.degrees():
            g = self.chain_map.block(k)
            g = tframe[k][1] * g if k in tframe else g
            g = self.split_blocks[k] = g * sframe[k][0] if k in sframe else g
            b, c = ([x.blocks[gen] for gen in x.complex.basis.gens(k)] for x in (src, tgt))
            bad += [(c[i] + 1, k) for i, j in g.support() if c[i] < b[j]]
        if bad:
            raise PreconditionError("chain map does not preserve the filtration at (p=%d, k=%d)" % min(bad))


def _runs(blocks):
    """(block, start, end) of each run of equal blocks in a list, in order."""
    ends = list(compress(range(1, len(blocks)), map(ne, blocks, blocks[1:]))) + [len(blocks)]
    return [(blocks[a], a, b) for a, b in zip([0] + ends, ends)]


def _moved(col, rows):
    """The column with each row b of `rows` moved to row rows[b], distinct
    targets, and its other rows dropped."""
    if type(col) is int:
        return sum(1 << rows[b] for b in _bits(col) if b in rows)
    return {rows[b]: v for b, v in col.items() if b in rows}


def map_of_spectral_sequences(fmap):
    """Per-page, per-cell matrices induced by a filtration-preserving map.

    Returns {r: {(p, q): Matrix}} for r = 0 .. max(n_src, n_tgt) + 1.  Each
    source generator costs one walk (`_Reduction._walk`) of the image of its
    W pair (column, denominator) through f_k between the split copies (the
    `split_blocks` of the map).  Level r restricts that one computation: its
    columns are the source ids alive on page r and its rows the target ids
    alive there, picked in one pass.  A selected column whose bound is below
    r has escaped the target page; a cell whose ids have not moved since the
    last level keeps its matrix.
    d_r matches each gap-r birth end to its death end with coefficient 1,
    so d_r^tgt o m moves rows of m and m' o d_r^src places columns of m'
    (m' the matrix at the cell d_r lands in): every square is checked on
    those, at every level.
    """
    src, tgt, fld = fmap.source, fmap.target, fmap.chain_map.source.field
    sred, tred, zero = src.page(0)._red, tgt.page(0)._red, 0 if fld.p == 2 else {}
    walked = {k: [tred._walk(p, k, _apply(fld, g.cols, w), g.den * dw)  # [k][i]: (x, den, bound) of source W_i
                  for p, w, dw in zip(sred.block[k], sred.w[k], sred.dw[k])] for k, g in fmap.split_blocks.items()}
    out, last = {}, {}  # last: cell -> (source ids, target ids, least bound, matrix), as last picked
    for r in range(max(src.n, tgt.n) + 2):
        ps, pt, level = src.page(r), tgt.page(r), {}
        for (p, q) in ps.cells():
            ids = ps._cell_ids((p, q)), pt._cell_ids((p, q))
            held = last.get((p, q))
            if held is None or held[:2] != ids:  # the ids moved: pick the columns and rows again, in one pass
                cols, rows = [walked[p + q][i] for i in ids[0]], {i: n for n, i in enumerate(ids[1])}
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
