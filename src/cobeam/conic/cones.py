"""Symmetric-cone kernel shared by the interior-point solvers.

A point of the cone ``S+^{d_1} x ... x S+^{d_k} x R+^n`` is stored as one
flat real vector: each PSD block is packed with :func:`svec` so that the
packed inner product equals the trace inner product, followed by the
entries of the nonnegative block.

A block is real symmetric or complex Hermitian.  A real block packs its
scaled upper triangle (``d(d+1)/2`` reals).  A Hermitian block packs
``d^2`` reals: the diagonal, then the real and then the imaginary parts
of the strict upper triangle, scaled by sqrt(2) and 2, so that packed
vectors have the inner product ``2 Re Tr(U V) = Tr(embed(U) embed(V))``
of the real ``2d x 2d`` embedding ``[[Re, -Im], [Im, Re]]``.  A Hermitian
block is thus an isometric image of its embedding and has barrier
degree 2d, and the interior-point method takes the same path on either
form while factoring d x d complex matrices instead of 2d x 2d real ones.

Consecutive PSD blocks of equal dimension and kind form a *run*.  The
kernel unpacks a run into one ``(..., k, d, d)`` stack with a single
gather and applies every operation (congruence, Cholesky, SVD,
eigenvalues) to the whole stack at once; a leading batch axis on the
flat vector carries through, so the m constraint rows are scaled by one
stacked product.  :class:`NTScaling` also takes x and z with leading
problem axes: each problem's results equal its own scaling's bit for bit.
"""

import functools
import itertools
from collections import namedtuple

import numpy as np

_SQRT2 = float(np.sqrt(2.0))

# Packing maps of one block.  Per packed entry: its matrix ``rows`` and
# ``cols``, its ``pack`` scale and its ``flat`` index into the block's
# float view (the interleaved re/im view of a complex block).  Per matrix
# entry (and re/im part): ``where`` it sits in the packing and the
# ``unscale`` dividing it out; the diagonal's imaginary part divides by
# inf to read as zero.
_Index = namedtuple("_Index", "rows cols pack flat where unscale")
_SVEC_CACHE = {}


def _svec_index(dim, complex=False):
    try:
        return _SVEC_CACHE[dim, complex]
    except KeyError:
        pass
    rows, cols = np.triu_indices(dim)
    if not complex:
        pack = np.where(rows == cols, 1.0, _SQRT2)
        where = np.empty((dim, dim), dtype=np.intp)
        where[rows, cols] = np.arange(len(rows))
        where[cols, rows] = np.arange(len(rows))
        index = _Index(rows, cols, pack, rows * dim + cols, where,
                       pack[where])
    else:
        diag = np.arange(dim)
        up_r, up_c = np.triu_indices(dim, 1)
        n_up = len(up_r)
        rows = np.concatenate([diag, up_r, up_r])
        cols = np.concatenate([diag, up_c, up_c])
        part = np.repeat([0, 0, 1], [dim, n_up, n_up])
        pack = np.where(rows == cols, _SQRT2, 2.0)
        where = np.empty((dim, dim, 2), dtype=np.intp)
        unscale = np.empty((dim, dim, 2))
        where[diag, diag] = diag[:, None]
        unscale[diag, diag] = [_SQRT2, np.inf]
        re = dim + np.arange(n_up)
        for r, c, sign in ((up_r, up_c, 2.0), (up_c, up_r, -2.0)):
            where[r, c, 0], where[r, c, 1] = re, re + n_up
            unscale[r, c, 0], unscale[r, c, 1] = 2.0, sign
        index = _Index(rows, cols, pack, 2 * (rows * dim + cols) + part,
                       where, unscale)
    _SVEC_CACHE[dim, complex] = index
    return index


def svec_len(dim, complex=False):
    return dim * dim if complex else dim * (dim + 1) // 2


def svec(mat):
    """Pack symmetric or Hermitian matrices (the last two axes) so that
    svec(A) @ svec(B) == Tr(A B) (twice Re Tr(A B) if Hermitian)."""
    mat = np.asarray(mat)
    herm = np.iscomplexobj(mat)
    index = _svec_index(mat.shape[-1], herm)
    flat = mat.reshape(mat.shape[:-2] + (mat.shape[-1] ** 2,))
    if herm:
        # re/im interleaved
        flat = np.ascontiguousarray(flat).view(np.float64)
    return np.take(flat, index.flat, axis=-1) * index.pack


def smat(vec, dim, complex=False):
    """Inverse of :func:`svec` on the last axis."""
    index = _svec_index(dim, complex)
    out = vec[..., index.where] / index.unscale
    return out.view(np.complex128)[..., 0] if complex else out


def _H(stack):
    """Conjugate transpose of the last two axes (a plain transpose of a
    real stack)."""
    out = stack.swapaxes(-1, -2)
    return out.conj() if out.dtype.kind == "c" else out


def _pair(u, v):
    """u and v stacked along a new leading axis, in one copy."""
    return np.concatenate((u[None], v[None]))


class Run:
    """``count`` consecutive PSD blocks of dimension ``dim``, all real or
    all Hermitian (``complex``), the first being block ``first``, packed
    contiguously in ``span``.

    Converting between the packed span and the (count, dim, dim) stack
    is one precomputed gather each way.
    """

    def __init__(self, dim, complex, first, count, start):
        self.dim, self.complex = dim, complex
        self.first, self.count = first, count
        self.dtype = np.complex128 if complex else np.float64
        length = svec_len(dim, complex)
        self.span = slice(start, start + count * length)
        index = _svec_index(dim, complex)
        self.rows, self.cols = index.rows, index.cols
        blocks = np.arange(count)
        self._gather = (blocks.reshape((count,) + (1,) * index.where.ndim)
                        * length + index.where)
        self._unscale = index.unscale
        self._entries = count * dim * dim
        floats = dim * dim * (2 if complex else 1)
        self._scatter = (blocks[:, None] * floats + index.flat).ravel()
        self._scale = np.tile(index.pack, count)

    def unpack(self, seg):
        """(..., count, dim, dim) stack of a packed (..., span) segment."""
        out = seg.take(self._gather, axis=-1) / self._unscale
        return out.view(np.complex128)[..., 0] if self.complex else out

    def pack(self, stack, out=None):
        """Inverse of :meth:`unpack`, written to ``out`` if given."""
        flat = stack.reshape(stack.shape[:-3] + (self._entries,))
        if self.complex:
            flat = flat.view(np.float64)
        return np.multiply(flat.take(self._scatter, axis=-1), self._scale,
                           out=out)


class ConeLayout:
    """Block structure of the cone: PSD blocks then a nonnegative tail.

    ``psd_complex`` marks the Hermitian blocks (default: all real).
    """

    def __init__(self, psd_dims, nonneg, psd_complex=None):
        self.psd_dims = tuple(int(d) for d in psd_dims)
        self.psd_complex = tuple(bool(c) for c in psd_complex) \
            if psd_complex is not None else (False,) * len(self.psd_dims)
        blocks = list(zip(self.psd_dims, self.psd_complex))
        self.nonneg = int(nonneg)
        self.svec_lens = [svec_len(d, c) for d, c in blocks]
        offs = np.cumsum([0] + self.svec_lens)
        self.psd_offsets = offs[:-1]
        self.nn_offset = int(offs[-1])
        self.size = self.nn_offset + self.nonneg
        # barrier degree: d per real block and 2d per Hermitian one (as
        # its embedding), 1 per orthant entry
        self.degree = sum(2 * d if c else d for d, c in blocks) \
            + self.nonneg
        self.runs = []
        first = 0
        for (dim, cplx), group in itertools.groupby(blocks):
            count = len(list(group))
            self.runs.append(Run(dim, cplx, first, count, int(offs[first])))
            first += count
        # packed positions and scales of every diagonal entry, block by
        # block
        pos, scale = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
        for (d, c), off in zip(blocks, self.psd_offsets):
            index = _svec_index(d, c)
            diag = np.flatnonzero(index.rows == index.cols)
            pos.append(off + diag)
            scale.append(index.pack[diag])
        self._diag_pos = np.concatenate(pos)
        self._diag_scale = np.concatenate(scale)
        self._identity = self.diag(
            [np.ones((r.count, r.dim)) for r in self.runs],
            np.ones(self.nonneg))

    def identity(self):
        return self._identity.copy()

    @staticmethod
    @functools.cache
    def of(psd_dims, nonneg, psd_complex):
        """The read-only layout every problem of this shape shares."""
        return ConeLayout(psd_dims, nonneg, psd_complex)

    def diag(self, psd, nn):
        """Packed point with diagonal PSD blocks; ``psd`` holds one
        (..., k, d) array of diagonals per run, and ``nn`` (..., nonneg)
        carries the batch shape."""
        batch = nn.shape[:-1]
        out = np.zeros(batch + (self.size,))
        if psd:
            out[..., self._diag_pos] = np.concatenate(
                [s.reshape(batch + (-1,)) for s in psd], axis=-1) \
                * self._diag_scale
        out[..., self.nn_offset:] = nn
        return out

    def unpack(self, vec):
        """One (..., k, d, d) stack per run of a flat (..., n) vector."""
        return [r.unpack(vec[..., r.span]) for r in self.runs]

    def pack(self, stacks, nn):
        """Inverse of :meth:`unpack`; ``nn`` (..., nonneg) carries the
        batch shape and the orthant entries."""
        out = np.empty(nn.shape[:-1] + (self.size,))
        for r, stack in zip(self.runs, stacks):
            r.pack(stack, out[..., r.span])
        out[..., self.nn_offset:] = nn
        return out

    def psd_block(self, vec, i):
        off = self.psd_offsets[i]
        return smat(vec[off:off + self.svec_lens[i]], self.psd_dims[i],
                    self.psd_complex[i])

    def nn_block(self, vec):
        return vec[..., self.nn_offset:]


class NTScaling:
    """Nesterov-Todd scaling of a strictly feasible primal/dual pair.

    For each PSD block the factor R satisfies ``X = R L R^H`` and
    ``Z = R^{-H} L R^{-1}`` with a common diagonal scaled point L (^H is
    the plain transpose on a real block); for the orthant
    ``w = sqrt(x/z)`` and ``lam = sqrt(x z)``.  ``R``, ``Rinv``, their
    adjoints ``Rh``, ``Rinvh`` and ``lam_psd`` hold one stack per run of
    the layout; ``jitters`` counts the blocks whose Cholesky factor
    needed jitter.  Leading axes of x and z are problems, each with its
    own factors and its own entry of ``jitters``.
    """

    def __init__(self, layout, x, z):
        self.layout = layout
        self.jitters = np.zeros(x.shape[:-1], dtype=int)
        self.R = []
        self.Rinv = []
        self.lam_psd = []
        # sqrt(lam) per run as a column and as a row, for max_step
        self._root = []
        # lam o v is elementwise on packed entries: (s_r + s_c)/2 at
        # entry (r, c) of a PSD block, lam on the orthant
        pair = []
        # x and z go through one gather and one stacked Cholesky; a
        # singular block sends each side of its problem through its own
        # jitter fallback
        for r, XZ in zip(layout.runs, layout.unpack(_pair(x, z))):
            try:
                Lx, Lz = np.linalg.cholesky(XZ)
            except np.linalg.LinAlgError:
                L = np.empty_like(XZ)
                for side, idx in itertools.product(
                        (0, 1), np.ndindex(self.jitters.shape)):
                    L[(side,) + idx] = self._cholesky(XZ[(side,) + idx], idx)
                Lx, Lz = L
            Lzh = _H(Lz)
            U, s, Vh = np.linalg.svd(Lzh @ Lx)
            s = np.maximum(s, 1e-300)
            root = np.sqrt(s)
            sq = root[..., None, :]
            self.R.append(Lx @ (_H(Vh) / sq))
            self.Rinv.append(_H(U / sq) @ Lzh)
            self.lam_psd.append(s)
            self._root.append((root[..., :, None], sq))
            pair.append((0.5 * (s.take(r.rows, axis=-1)
                                + s.take(r.cols, axis=-1))).reshape(
                self.jitters.shape + (-1,)))
        self.Rh = [_H(R) for R in self.R]
        self.Rinvh = [_H(Ri) for Ri in self.Rinv]
        xn = layout.nn_block(x)
        zn = layout.nn_block(z)
        self.w_nn = np.sqrt(xn / zn)
        self.lam_nn = np.sqrt(xn * zn)
        pair.append(self.lam_nn)
        self._lam_pair = np.concatenate(pair, axis=-1)

    def _cholesky(self, stack, idx):
        try:
            return np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            out = np.empty_like(stack)
            for b, mat in enumerate(stack):
                out[b], jittered = _chol(mat)
                self.jitters[idx] += jittered
            return out

    # -- maps between original and scaled coordinates (flat in, flat out;
    #    any leading batch axes carry through) --

    def scale_dual(self, dz):
        """W^H dz: dual direction into scaled space."""
        lay = self.layout
        return self.scale_dual_blocks(lay.unpack(dz), lay.nn_block(dz))

    def scale_dual_blocks(self, stacks, nn):
        """W^H on data already unpacked into per-run stacks."""
        return self.layout.pack([Rh @ D @ R for Rh, R, D in
                                 zip(self.Rh, self.R, stacks)],
                                nn * self.w_nn)

    def unscale(self, u, g):
        """(W u, W^{-H} g): scaled-space vectors back to a primal- and a
        dual-space vector, through one gather and one scatter."""
        lay = self.layout
        mats = []
        for R, Rh, Ri, Rih, UG in zip(self.R, self.Rh, self.Rinv,
                                      self.Rinvh, lay.unpack(_pair(u, g))):
            out = np.empty_like(UG)
            np.matmul(R @ UG[0], Rh, out=out[0])
            np.matmul(Rih @ UG[1], Ri, out=out[1])
            mats.append(out)
        nn = np.empty((2,) + u.shape[:-1] + (lay.nonneg,))
        np.multiply(lay.nn_block(u), self.w_nn, out=nn[0])
        np.divide(lay.nn_block(g), self.w_nn, out=nn[1])
        return lay.pack(mats, nn)

    # -- Jordan algebra on scaled-space vectors --

    def lam(self):
        """The scaled point lam, packed: W^{-1} x = W^H z."""
        return self.layout.diag(self.lam_psd, self.lam_nn)

    def lambda_sq(self):
        return self.layout.diag([s * s for s in self.lam_psd],
                                self.lam_nn * self.lam_nn)

    def lam_prod(self, v):
        """lam o v (lam is the scaled point, diagonal per PSD block)."""
        return v * self._lam_pair

    def jordan_div(self, rhs):
        """Solve lam o g = rhs for g."""
        return rhs / self._lam_pair

    def jordan_prod(self, u, v):
        """u o v = (UV + VU)/2 per PSD block, elementwise on the orthant."""
        lay = self.layout
        mats = []
        for U, V in lay.unpack(_pair(u, v)):
            UV = U @ V
            mats.append(0.5 * (UV + _H(UV)))
        return lay.pack(mats, lay.nn_block(u) * lay.nn_block(v))

    def max_step(self, du_scaled, dv_scaled, affine=False):
        """Largest a <= 1e12 keeping lam + a*du and lam + a*dv in the cone;
        a list with one bound per problem when the scaling has a batch.

        ``affine`` marks the predictor's direction, whose dv is -lam - du
        on every PSD block (up to the rounding of lam^2 / lam).  There
        lam + a*dv = (1 - a) lam - a*du, so the least and largest
        eigenvalues l and h of lam^-1/2 du lam^-1/2 bound both sides, by
        -1/l and by 1/(1 + h), from one eigensolve of du per block; the
        orthant reads dv as given.
        """
        lay = self.layout
        # one problem axis, also for an unbatched scaling; per run and
        # problem, the least eigenvalue over both directions and blocks
        both = _pair(du_scaled, dv_scaled).reshape(2, -1, lay.size)
        bounds = [1e12] * both.shape[1]
        for D, (col, row) in zip(lay.unpack(both[:1] if affine else both),
                                 self._root):
            eig = np.linalg.eigvalsh(D / col / row)
            # the dual side's bound 1/(1 + h) as a least eigenvalue
            low = np.minimum(eig[..., 0], -1.0 - eig[..., -1]) if affine \
                else eig[..., 0]
            for p, lo in enumerate(low.min(axis=(0, -1)).tolist()):
                if lo < 0:
                    bounds[p] = min(bounds[p], -1.0 / lo)
        dn = lay.nn_block(both)
        if dn.size:
            steps = np.divide(-self.lam_nn, dn, out=np.full(dn.shape, np.inf),
                              where=dn < 0)
            # min(bound, step) keeps the bound against a NaN step
            bounds = list(map(min, bounds, steps.min(axis=(0, -1)).tolist()))
        return bounds if self.jitters.ndim else bounds[0]


def _chol(mat):
    """Cholesky with a graded jitter fallback for nearly singular blocks.

    Returns the factor and whether jitter was needed.
    """
    scale = max(np.real(np.trace(mat)) / mat.shape[0], 1e-300)
    jitter = 0.0
    for _ in range(8):
        try:
            return (np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0])),
                    jitter > 0)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    raise np.linalg.LinAlgError("cone block lost positive definiteness")
