"""Symmetric-cone kernel shared by the interior-point solvers.

A point of the cone ``S+^{d_1} x ... x S+^{d_k} x R+^n`` is stored as one
flat vector: each PSD block is packed with :func:`svec` (scaled upper
triangle, so that the packed inner product equals the trace inner
product) followed by the entries of the nonnegative block.

Consecutive PSD blocks of equal dimension form a *run*.  The kernel
unpacks a run into one ``(..., k, d, d)`` stack with a single gather and
applies every operation (congruence, Cholesky, SVD, eigenvalues) to the
whole stack at once; a leading batch axis on the flat vector carries
through, so the m constraint rows are scaled by one stacked product.
"""

import itertools

import numpy as np

_SQRT2 = float(np.sqrt(2.0))

# cached (rows, cols, pack-scale, gather map, unpack-scale) per dimension
_SVEC_CACHE = {}


def _svec_index(dim):
    try:
        return _SVEC_CACHE[dim]
    except KeyError:
        rows, cols = np.triu_indices(dim)
        pack = np.where(rows == cols, 1.0, _SQRT2)
        # (dim, dim) map from a matrix entry to its svec position
        where = np.empty((dim, dim), dtype=np.intp)
        where[rows, cols] = np.arange(len(rows))
        where[cols, rows] = np.arange(len(rows))
        _SVEC_CACHE[dim] = (rows, cols, pack, where, pack[where])
        return _SVEC_CACHE[dim]


def svec_len(dim):
    return dim * (dim + 1) // 2


def svec(mat):
    """Pack symmetric matrices (the last two axes) so that
    svec(A) @ svec(B) == Tr(A B)."""
    rows, cols, pack = _svec_index(mat.shape[-1])[:3]
    return mat[..., rows, cols] * pack


def smat(vec, dim):
    """Inverse of :func:`svec` on the last axis."""
    where, scale = _svec_index(dim)[3:]
    return vec[..., where] / scale


def _T(stack):
    return np.swapaxes(stack, -1, -2)


class Run:
    """``count`` consecutive PSD blocks of dimension ``dim``, the first
    being block ``first``, packed contiguously in ``span``.

    Converting between the packed span and the (count, dim, dim) stack
    is one precomputed gather each way.
    """

    def __init__(self, dim, first, count, start):
        self.dim, self.first, self.count = dim, first, count
        length = svec_len(dim)
        self.span = slice(start, start + count * length)
        rows, cols, pack, where, scale = _svec_index(dim)
        blocks = np.arange(count)
        self._gather = blocks[:, None, None] * length + where
        self._unscale = scale
        self._scatter = (blocks[:, None] * dim * dim
                         + rows * dim + cols).ravel()
        self._scale = np.tile(pack, count)

    def unpack(self, seg):
        """(..., count, dim, dim) stack of a packed (..., span) segment."""
        return np.take(seg, self._gather, axis=-1) / self._unscale

    def pack(self, stack):
        """Inverse of :meth:`unpack`."""
        flat = stack.reshape(stack.shape[:-3]
                             + (self.count * self.dim * self.dim,))
        return np.take(flat, self._scatter, axis=-1) * self._scale


class ConeLayout:
    """Block structure of the cone: PSD dimensions then a nonnegative tail."""

    def __init__(self, psd_dims, nonneg):
        self.psd_dims = tuple(int(d) for d in psd_dims)
        self.nonneg = int(nonneg)
        self.svec_lens = [svec_len(d) for d in self.psd_dims]
        offs = np.cumsum([0] + self.svec_lens)
        self.psd_offsets = offs[:-1]
        self.nn_offset = int(offs[-1])
        self.size = self.nn_offset + self.nonneg
        # barrier degree: d per PSD block, 1 per orthant entry
        self.degree = sum(self.psd_dims) + self.nonneg
        self.runs = []
        first = 0
        for dim, group in itertools.groupby(self.psd_dims):
            count = len(list(group))
            self.runs.append(Run(dim, first, count, int(offs[first])))
            first += count
        # packed positions of every diagonal entry, block by block
        self._diag_pos = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [off + np.diagonal(_svec_index(d)[3])
               for d, off in zip(self.psd_dims, self.psd_offsets)])
        self._identity = self.diag(
            [np.ones((r.count, r.dim)) for r in self.runs],
            np.ones(self.nonneg))

    def identity(self):
        return self._identity.copy()

    def diag(self, psd, nn):
        """Packed point with diagonal PSD blocks; ``psd`` holds one
        (k, d) array of diagonals per run."""
        out = np.zeros(self.size)
        out[self._diag_pos] = np.concatenate(
            [np.zeros(0)] + [s.ravel() for s in psd])
        out[self.nn_offset:] = nn
        return out

    def unpack(self, vec):
        """One (..., k, d, d) stack per run of a flat (..., n) vector."""
        return [r.unpack(vec[..., r.span]) for r in self.runs]

    def pack(self, stacks, nn):
        """Inverse of :meth:`unpack`; ``nn`` (..., nonneg) carries the
        batch shape and the orthant entries."""
        out = np.empty(np.shape(nn)[:-1] + (self.size,))
        for r, stack in zip(self.runs, stacks):
            out[..., r.span] = r.pack(stack)
        out[..., self.nn_offset:] = nn
        return out

    def psd_block(self, vec, i):
        dim = self.psd_dims[i]
        off = self.psd_offsets[i]
        return smat(vec[off:off + svec_len(dim)], dim)

    def nn_block(self, vec):
        return vec[..., self.nn_offset:]


class NTScaling:
    """Nesterov-Todd scaling of a strictly feasible primal/dual pair.

    For each PSD block the factor R satisfies ``X = R L R^T`` and
    ``Z = R^{-T} L R^{-1}`` with a common diagonal scaled point L; for
    the orthant ``w = sqrt(x/z)`` and ``lam = sqrt(x z)``.  ``R``,
    ``Rinv`` and ``lam_psd`` hold one stack per run of the layout;
    ``jitters`` counts the blocks whose Cholesky factor needed jitter.
    """

    def __init__(self, layout, x, z):
        self.layout = layout
        self.jitters = 0
        self.R = []
        self.Rinv = []
        self.lam_psd = []
        for X, Z in zip(layout.unpack(x), layout.unpack(z)):
            Lx = self._cholesky(X)
            Lz = self._cholesky(Z)
            U, s, Vt = np.linalg.svd(_T(Lz) @ Lx)
            s = np.maximum(s, 1e-300)
            sq = np.sqrt(s)[..., None, :]
            self.R.append(Lx @ (_T(Vt) / sq))
            self.Rinv.append(_T(U / sq) @ _T(Lz))
            self.lam_psd.append(s)
        xn = layout.nn_block(x)
        zn = layout.nn_block(z)
        self.w_nn = np.sqrt(xn / zn)
        self.lam_nn = np.sqrt(xn * zn)
        # lam o v is elementwise on packed entries: (s_r + s_c)/2 at
        # entry (r, c) of a PSD block, lam on the orthant
        pair = [np.zeros(0)]
        for r, s in zip(layout.runs, self.lam_psd):
            rows, cols = _svec_index(r.dim)[:2]
            pair.append((0.5 * (s[:, rows] + s[:, cols])).ravel())
        pair.append(self.lam_nn)
        self._lam_pair = np.concatenate(pair)

    def _cholesky(self, stack):
        try:
            return np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            out = np.empty_like(stack)
            for b, mat in enumerate(stack):
                out[b], jittered = _chol(mat)
                self.jitters += jittered
            return out

    # -- maps between original and scaled coordinates (flat in, flat out;
    #    any leading batch axes carry through) --

    def scale_dual(self, dz):
        """W^T dz: dual direction into scaled space."""
        lay = self.layout
        return self.scale_dual_blocks(lay.unpack(dz), lay.nn_block(dz))

    def scale_dual_blocks(self, stacks, nn):
        """W^T on data already unpacked into per-run stacks."""
        return self.layout.pack([_T(R) @ D @ R for R, D in
                                 zip(self.R, stacks)], nn * self.w_nn)

    def unscale_dual(self, g):
        """W^{-T} g: scaled-space vector back to a dual-space vector."""
        lay = self.layout
        return lay.pack([_T(Ri) @ G @ Ri for Ri, G in
                         zip(self.Rinv, lay.unpack(g))],
                        lay.nn_block(g) / self.w_nn)

    def unscale_primal(self, u):
        """W u: scaled-space vector back to a primal-space vector."""
        lay = self.layout
        return lay.pack([R @ U @ _T(R) for R, U in
                         zip(self.R, lay.unpack(u))],
                        lay.nn_block(u) * self.w_nn)

    # -- Jordan algebra on scaled-space vectors --

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
        for U, V in zip(lay.unpack(u), lay.unpack(v)):
            UV = U @ V
            mats.append(0.5 * (UV + _T(UV)))
        return lay.pack(mats, lay.nn_block(u) * lay.nn_block(v))

    def max_step(self, du_scaled, dv_scaled):
        """Largest a <= 1e12 keeping lam + a*du and lam + a*dv in the cone."""
        lay = self.layout
        both = np.stack([du_scaled, dv_scaled])
        bound = 1e12
        for D, s in zip(lay.unpack(both), self.lam_psd):
            sq = np.sqrt(s)
            lo = np.linalg.eigvalsh(
                D / sq[..., :, None] / sq[..., None, :])[..., 0]
            if np.any(lo < 0):
                bound = min(bound, float(-1.0 / lo.min()))
        dn = lay.nn_block(both)
        if dn.size:
            steps = np.divide(-self.lam_nn, dn, out=np.full(dn.shape, np.inf),
                              where=dn < 0)
            bound = min(bound, float(steps.min()))
        return bound


def _chol(mat):
    """Cholesky with a graded jitter fallback for nearly singular blocks.

    Returns the factor and whether jitter was needed.
    """
    scale = max(np.trace(mat) / mat.shape[0], 1e-300)
    jitter = 0.0
    for _ in range(8):
        try:
            return (np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0])),
                    jitter > 0)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    raise np.linalg.LinAlgError("cone block lost positive definiteness")
