"""Finite cochain complexes over an exact field.

A complex is a finite graded basis together with degree +1 differential
blocks; d^2 = 0 is checked at construction.  Cohomology is computed with
explicit representative cocycles: the canonical kernel basis of d^k is
reduced against the image of d^{k-1}, so repeated runs produce identical
representatives.
"""

from math import lcm

from .errors import InvariantError, ParseError, _int
from .matrix import Matrix, _matrix, quotient_basis

JOIN = "|"  # the x|g id of a generator of a product basis


class GradedBasis:
    """Ordered generators (id, degree); ids are opaque unique labels."""

    __slots__ = ("generators", "_by_degree", "_pos")

    def __init__(self, generators):
        gens = tuple((str(g), k) for g, k in generators)
        by_degree, pos = {}, {}
        for g, k in gens:
            if type(k) is not int:  # a float or a bool is refused, not truncated
                raise ParseError("generator %r has non-integer degree %r" % (g, k))
            if g in pos:
                raise ParseError("duplicate generator id %r" % g)
            pos[g] = (k, len(by_degree.setdefault(k, [])))
            by_degree[k].append(g)
        self.generators, self._pos = gens, pos
        self._by_degree = {k: tuple(v) for k, v in by_degree.items()}

    def degrees(self):
        return sorted(self._by_degree)

    def dim(self, k):
        return len(self._by_degree.get(k, ()))

    def gens(self, k):
        return self._by_degree.get(k, ())

    def position(self, gid):
        """(degree, offset within that degree) of a generator id."""
        return self._pos[gid]

    def __contains__(self, gid):
        return gid in self._pos

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return isinstance(other, GradedBasis) and self.generators == other.generators

    __hash__ = None


class CochainComplex:
    """Graded basis + differential blocks d^k : C^k -> C^{k+1}.

    `differential` maps a degree k to a Matrix of shape dim C^{k+1} x
    dim C^k; a missing degree means zero, one block built on first read.
    Degrees may be any integers.
    `display_shift` only relabels degrees in reports, never in math.
    """

    __slots__ = ("field", "basis", "_d", "_zeros", "display_shift", "_cohomology")

    def __init__(self, field, basis, differential, check=True, display_shift=0):
        self.field = field
        self.basis = basis
        d = {}
        for k, m in differential.items():
            if m.is_zero():
                continue
            if m.field != field:
                raise InvariantError("differential block in degree %d has wrong field" % k)
            want = (basis.dim(k + 1), basis.dim(k))
            if m.shape != want:
                raise InvariantError(
                    "differential block in degree %d has shape %s, expected %s" % (k, m.shape, want)
                )
            d[k] = m
        self._d, self._zeros = d, {}
        self.display_shift = _int(display_shift, "display_shift")
        self._cohomology = None
        if check:
            self.check_d_squared()

    def d_squared_defects(self):
        """(k, d^{k+1} d^k) for each degree k, ascending, where it is not zero."""
        for k in sorted(self._d):
            prod = self.d(k + 1) * self.d(k)
            if not prod.is_zero():
                yield k, prod

    def check_d_squared(self):
        for k, _ in self.d_squared_defects():
            raise InvariantError("d^2 != 0 from degree %d to degree %d" % (k, k + 2))

    @classmethod
    def from_generator_entries(cls, field, generators, entries, display_shift=0):
        """Build from (src_id, dst_id, scalar) differential entries.

        Each entry must raise degree by exactly one; duplicates accumulate.
        """
        basis = GradedBasis(generators)
        triples = {}
        for src, dst, v in entries:
            if src not in basis or dst not in basis:
                raise ParseError("differential entry references unknown generator %r -> %r" % (src, dst))
            ks, s_off = basis.position(src)
            kd, d_off = basis.position(dst)
            if kd != ks + 1:
                raise InvariantError(
                    "differential entry %r -> %r changes degree by %d, not +1" % (src, dst, kd - ks)
                )
            triples.setdefault(ks, []).append((d_off, s_off, v))
        diff = {
            k: Matrix.from_entries(field, basis.dim(k + 1), basis.dim(k), tr)
            for k, tr in triples.items()
        }
        return cls(field, basis, diff, display_shift=display_shift)

    @classmethod
    def from_blocks(cls, field, outer, inner, blocks, check=True, display_shift=0):
        """The complex on the product basis x|g, of degree kx + kg, for the (x, kx)
        of the sequence `outer` and the GradedBasis `inner`, x-major: d adds the
        blocks (x, y, k, M) straight into the columns of d^(kx + k), M mapping the
        inner degree-k generators under x to the degree-(kx + k + 1 - ky) ones
        under y; over Q on the lcm of the block denominators."""
        deg, p, placed, dens, off, count = dict(outer), field.p, [], {}, {}, {}
        dims = {k: inner.dim(k) for k in inner.degrees()}
        basis = GradedBasis([(x + JOIN + g, kx + kg) for x, kx in outer for g, kg in inner.generators])
        for x, kx in outer:
            for k, n in dims.items():  # (x, k) follows the earlier x' of total degree kx + k
                off[(x, k)] = count.get(kx + k, 0)
                count[kx + k] = off[(x, k)] + n
        for x, y, k, m in blocks:
            kk, k2 = deg[x] + k, deg[x] + k + 1 - deg[y]
            if m.nrows != dims.get(k2, 0) or m.ncols != dims.get(k, 0) or m.field is not field and m.field != field:
                raise InvariantError("block %r -> %r from inner degree %d has shape %s" % (x, y, k, m.shape))
            if any(m.cols):  # so inner degrees k and k2 have generators
                placed.append((kk, off[(x, k)], off[(y, k2)], m))
                dens[kk] = lcm(dens.get(kk, 1), m.den)
        cols = {kk: [0 if p == 2 else {} for _ in range(count[kk])] for kk in dens}
        for kk, c0, r0, m in placed:
            out, s = cols[kk], dens[kk] // m.den
            for j, c in enumerate(m.cols, c0):
                if p == 2:
                    out[j] ^= c << r0
                    continue
                col = out[j]
                for i, v in c.items():  # reduced mod p, less the entries that cancel
                    w = col.get(i + r0, 0) + s * v
                    if w := w % p if p else w:
                        col[i + r0] = w
                    else:
                        del col[i + r0]
        diff = {kk: _matrix(field, count.get(kk + 1, 0), cs, dens[kk]) for kk, cs in cols.items()}
        return cls(field, basis, diff, check=check, display_shift=display_shift)

    def dim(self, k):
        return self.basis.dim(k)

    def degrees(self):
        return self.basis.degrees()

    def d(self, k):
        m = self._d.get(k) or self._zeros.get(k)
        if m is None:
            m = self._zeros[k] = Matrix.zero(self.field, self.dim(k + 1), self.dim(k))
        return m

    def cohomology(self):
        if self._cohomology is None:
            dims, reps = {}, {}
            for k in self.degrees():
                z = self.d(k).kernel()
                b = self.d(k - 1)
                r = quotient_basis(z, b)
                dims[k] = r.ncols
                reps[k] = r
            self._cohomology = CohomologyResult(self, dims, reps)
        return self._cohomology

    def shifted(self, s):
        """The same complex with every degree raised by s: d^2 = 0 carries over unchecked."""
        gens = [(g, k + s) for g, k in self.basis.generators]
        diff = {k + s: m for k, m in self._d.items()}
        return CochainComplex(self.field, GradedBasis(gens), diff, check=False,
                              display_shift=self.display_shift)


class CohomologyResult:
    """Per-degree dimensions and representative cocycles of a complex."""

    __slots__ = ("complex", "_dims", "_reps")

    def __init__(self, complex, dims, reps):
        self.complex = complex
        self._dims = dims
        self._reps = reps

    def degrees(self):
        return sorted(k for k, v in self._dims.items() if v)

    def dim(self, k):
        return self._dims.get(k, 0)

    def dims(self):
        return {k: v for k, v in sorted(self._dims.items()) if v}

    def representatives(self, k):
        m = self._reps.get(k)
        if m is None:
            return Matrix.zero(self.complex.field, self.complex.dim(k), 0)
        return m

    def coordinates(self, k, vecs):
        """Coordinates of cocycle columns in the H^k basis, or None.

        None means some column is not a cocycle class expressible here,
        i.e. not in ker d^k + nothing (callers treat that as a bug).
        """
        reps = self.representatives(k)
        b = self.complex.d(k - 1)
        stacked = Matrix.hstack(self.complex.field, reps.nrows, [reps, b])
        x = stacked.solve(vecs)
        if x is None:
            return None
        return x.take_rows(range(reps.ncols))


class ChainMap:
    """Degree-preserving map of complexes commuting with d; a missing degree is zero, one block built on first read."""

    __slots__ = ("source", "target", "_blocks", "_zeros")

    def __init__(self, source, target, blocks):
        if source.field != target.field:
            raise InvariantError("chain map between complexes over different fields")
        self.source = source
        self.target = target
        b = {}
        for k, m in blocks.items():
            want = (target.dim(k), source.dim(k))
            if m.shape != want:
                raise InvariantError("chain map block in degree %d has shape %s, expected %s" % (k, m.shape, want))
            if not m.is_zero():
                b[k] = m
        self._blocks, self._zeros = b, {}
        self.check_commutes()

    def check_commutes(self):
        degrees = set(self._blocks) | set(self.source._d) | set(self.target._d)
        for k in sorted(degrees):
            if self.target.d(k) * self.block(k) != self.block(k + 1) * self.source.d(k):
                raise InvariantError("chain map does not commute with d in degree %d" % k)

    def block(self, k):
        m = self._blocks.get(k) or self._zeros.get(k)
        if m is None:
            m = self._zeros[k] = Matrix.zero(self.source.field, self.target.dim(k), self.source.dim(k))
        return m

    @classmethod
    def identity(cls, complex):
        blocks = {k: Matrix.identity(complex.field, complex.dim(k)) for k in complex.degrees()}
        return cls(complex, complex, blocks)


def tensor_product(a, b):
    """Tensor product complex; generator ids are "ga|gb".

    d(x (x) y) = dx (x) y + (-1)^{deg x} x (x) dy: a block a_ij * identity
    on each C_b^k, and (-1)^{deg x} d_b under each generator x of a, so the
    product of two complexes passes the d^2 = 0 check by construction.
    """
    if a.field != b.field:
        raise InvariantError("tensor product of complexes over different fields")
    for g, _ in a.basis.generators:
        if JOIN in g:
            raise ParseError("generator id %r contains the tensor separator %r" % (g, JOIN))
    f, blocks = a.field, []
    ident = {kb: Matrix.identity(f, b.dim(kb)) for kb in b.degrees()}
    for k in a.degrees():
        m, tgt, src = a.d(k), a.basis.gens(k + 1), a.basis.gens(k)
        for i, j in m.support():
            blocks += [(src[j], tgt[i], kb, e.scale(m.get(i, j))) for kb, e in ident.items()]
    for ga, da in a.basis.generators:
        blocks += [(ga, ga, kb, -b.d(kb) if da % 2 else b.d(kb)) for kb in b.degrees()]
    return CochainComplex.from_blocks(f, a.basis.generators, b.basis, blocks)


def induced_map_on_cohomology(f):
    """Per-degree matrices H^k(source) -> H^k(target) of a chain map.

    Well-definedness is a theorem; an inexpressible image marks an engine
    bug and raises.
    """
    h_src = f.source.cohomology()
    h_tgt = f.target.cohomology()
    out = {}
    for k in sorted(set(h_src.dims()) | set(h_tgt.dims())):
        imgs = f.block(k) * h_src.representatives(k)
        coords = h_tgt.coordinates(k, imgs)
        if coords is None:
            raise InvariantError("image of a cocycle is not a cocycle in degree %d" % k)
        out[k] = coords
    return out
