"""Stacked cone kernel against the per-block loop it replaced.

The reference functions below are the block-at-a-time kernel: one
smat / matmul / svec round trip per PSD block.  The stacked kernel must
agree with them.  Where the arithmetic is the same (packing and
unpacking) the results must be identical; where LAPACK drivers or the
summation order differ the tolerance is fixed in advance from float64
machine precision, not fitted to observed errors.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from cobeam.conic import ConicProblem, SolveStatus, solve
from cobeam.conic import cones, ipm
from cobeam.conic.cones import (ConeLayout, NTScaling, _chol, _svec_index,
                                svec_len)
from conftest import embed_matrix

EPS = np.finfo(float).eps
RTOL = 1e4 * EPS        # products of well-conditioned 2..5-dim blocks

LAYOUTS = {
    "mixed": ([3, 3, 5, 2], 4),
    "psd-only": ([4, 4, 4], 0),
    "orthant-only": ([], 6),      # the shape of a GR power LP
}


# -- per-block reference kernel ------------------------------------------

def ref_svec(mat):
    rows, cols = np.triu_indices(mat.shape[0])
    return mat[rows, cols] * np.where(rows == cols, 1.0, np.sqrt(2.0))


def ref_smat(vec, dim):
    rows, cols = np.triu_indices(dim)
    out = np.zeros((dim, dim))
    out[rows, cols] = vec / np.where(rows == cols, 1.0, np.sqrt(2.0))
    out.T[rows, cols] = out[rows, cols]
    return out


def ref_blocks(lay, vec):
    return [ref_smat(vec[off:off + d * (d + 1) // 2], d)
            for d, off in zip(lay.psd_dims, lay.psd_offsets)]


def ref_pack(lay, mats, nn):
    return np.concatenate([ref_svec(m) for m in mats] + [np.asarray(nn)])


def per_block(stacks):
    return [mat for stack in stacks for mat in stack]


class RefScaling:
    """NT scaling computed block by block with scipy, as before."""

    def __init__(self, lay, x, z):
        self.R, self.lam = [], []
        for X, Z in zip(ref_blocks(lay, x), ref_blocks(lay, z)):
            Lx = sla.cholesky(X, lower=True)
            Lz = sla.cholesky(Z, lower=True)
            U, s, Vt = sla.svd(Lz.T @ Lx)
            self.R.append(Lx @ (Vt.T / np.sqrt(s)))
            self.lam.append(s)


def ref_congruence(lay, vec, factors, nn_factor, outer=False):
    mats = [(F @ B @ F.T) if outer else (F.T @ B @ F)
            for F, B in zip(factors, ref_blocks(lay, vec))]
    return ref_pack(lay, mats, vec[lay.nn_offset:] * nn_factor)


def ref_max_step(lay, lam, lam_nn, du, dv):
    bound = 1e12
    for i, s in enumerate(lam):
        sq = np.sqrt(s)
        for d in (du, dv):
            M = ref_blocks(lay, d)[i] / sq[:, None] / sq[None, :]
            lo = sla.eigvalsh(M)[0]
            if lo < 0:
                bound = min(bound, -1.0 / lo)
    for d in (du, dv):
        dn = d[lay.nn_offset:]
        neg = dn < 0
        if np.any(neg):
            bound = min(bound, float(np.min(-lam_nn[neg] / dn[neg])))
    return bound


# -- fixtures ---------------------------------------------------------------

def random_interior(lay, rng):
    mats = []
    for d in lay.psd_dims:
        G = rng.standard_normal((d, d))
        mats.append(G @ G.T / d + np.eye(d))
    return ref_pack(lay, mats, rng.uniform(0.5, 2.0, lay.nonneg))


def random_vec(lay, rng, *batch):
    return rng.standard_normal(batch + (lay.size,))


@pytest.fixture(params=sorted(LAYOUTS))
def case(request):
    dims, nonneg = LAYOUTS[request.param]
    lay = ConeLayout(dims, nonneg)
    rng = np.random.default_rng(sorted(LAYOUTS).index(request.param))
    x, z = random_interior(lay, rng), random_interior(lay, rng)
    return lay, NTScaling(lay, x, z), x, z, rng


def close(a, b):
    scale = max(1.0, float(np.max(np.abs(b))) if np.size(b) else 1.0)
    np.testing.assert_allclose(a, b, rtol=0, atol=RTOL * scale)


# -- tests ------------------------------------------------------------------

def test_runs_group_equal_blocks():
    lay = ConeLayout([3, 3, 5, 2, 2], 1)
    assert [(r.dim, r.first, r.count) for r in lay.runs] == \
        [(3, 0, 2), (5, 2, 1), (2, 3, 2)]
    assert lay.runs[-1].span.stop == lay.nn_offset


def test_svec_smat_round_trip(case):
    lay, _, _, _, rng = case
    vec = random_vec(lay, rng)
    blocks = per_block(lay.unpack(vec))
    ref = ref_blocks(lay, vec)
    assert len(blocks) == len(ref)
    for got, want in zip(blocks, ref):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        lay.pack(lay.unpack(vec), lay.nn_block(vec)),
        ref_pack(lay, ref, vec[lay.nn_offset:]))
    close(lay.pack(lay.unpack(vec), lay.nn_block(vec)), vec)
    # a leading batch axis carries through
    rows = random_vec(lay, rng, 3)
    back = lay.pack(lay.unpack(rows), lay.nn_block(rows))
    for k in range(3):
        close(back[k], rows[k])


def test_identity_and_psd_block(case):
    lay, _, x, _, _ = case
    np.testing.assert_array_equal(
        lay.identity(),
        ref_pack(lay, [np.eye(d) for d in lay.psd_dims],
                 np.ones(lay.nonneg)))
    for i, want in enumerate(ref_blocks(lay, x)):
        np.testing.assert_array_equal(lay.psd_block(x, i), want)


def test_nt_scaling_reconstructs_pair(case):
    lay, sc, x, z, _ = case
    Rs, Rinvs = per_block(sc.R), per_block(sc.Rinv)
    lams = per_block(sc.lam_psd)
    ref = RefScaling(lay, x, z)
    for R, Rinv, s, X, Z, s_ref, R_ref in zip(
            Rs, Rinvs, lams, ref_blocks(lay, x), ref_blocks(lay, z),
            ref.lam, ref.R):
        close(R @ np.diag(s) @ R.T, X)
        close(Rinv.T @ np.diag(s) @ Rinv, Z)
        close(R @ Rinv, np.eye(len(s)))
        close(s, s_ref)
        # the NT scaling matrix W = R R' is unique
        close(R @ R.T, R_ref @ R_ref.T)
    xn, zn = lay.nn_block(x), lay.nn_block(z)
    close(sc.lam_nn * sc.w_nn, xn)
    close(sc.lam_nn / sc.w_nn, zn)
    assert sc.jitters == 0


def test_scale_dual_rows_match_per_row(case):
    lay, sc, _, _, rng = case
    rows = random_vec(lay, rng, 5)
    stacked = sc.scale_dual(rows)
    Rs = per_block(sc.R)
    for k in range(5):
        want = ref_congruence(lay, rows[k], Rs, sc.w_nn)
        close(stacked[k], want)
        close(sc.scale_dual(rows[k]), want)
    close(sc.scale_dual_blocks(lay.unpack(rows), lay.nn_block(rows)),
          stacked)


def test_unscale_maps_match_per_block(case):
    lay, sc, _, _, rng = case
    u = random_vec(lay, rng)
    Rs, Rinvs = per_block(sc.R), per_block(sc.Rinv)
    dx, dz = sc.unscale(u, u)
    close(dx, ref_congruence(lay, u, Rs, sc.w_nn, outer=True))
    close(dz, ref_congruence(lay, u, Rinvs, 1.0 / sc.w_nn))
    # W^{-T} inverts W^T
    close(sc.unscale(u, sc.scale_dual(u))[1], u)


def test_jordan_algebra_matches_per_block(case):
    lay, sc, _, _, rng = case
    u, v = random_vec(lay, rng), random_vec(lay, rng)
    lams = per_block(sc.lam_psd)
    lam = ref_pack(lay, [np.diag(s) for s in lams], sc.lam_nn)
    lam_sq = ref_pack(lay, [np.diag(s * s) for s in lams],
                      sc.lam_nn * sc.lam_nn)
    close(sc.lambda_sq(), lam_sq)

    def ref_prod(a, b):
        mats = [0.5 * (A @ B + B @ A) for A, B in
                zip(ref_blocks(lay, a), ref_blocks(lay, b))]
        return ref_pack(lay, mats, a[lay.nn_offset:] * b[lay.nn_offset:])

    close(sc.jordan_prod(u, v), ref_prod(u, v))
    close(sc.lam_prod(u), ref_prod(lam, u))
    g = sc.jordan_div(u)
    close(ref_prod(lam, g), u)
    rows = random_vec(lay, rng, 4)
    close(sc.jordan_div(rows)[2], sc.jordan_div(rows[2]))


def test_max_step_matches_per_block_eigvalsh(case):
    lay, sc, _, _, rng = case
    lams = per_block(sc.lam_psd)
    for scale in (0.1, 1.0, 10.0):
        du = scale * random_vec(lay, rng)
        dv = scale * random_vec(lay, rng)
        want = ref_max_step(lay, lams, sc.lam_nn, du, dv)
        assert sc.max_step(du, dv) == pytest.approx(want, rel=RTOL)
    # directions inside the cone never bound the step
    assert sc.max_step(lay.identity(), sc.lambda_sq()) == 1e12


def test_singular_block_factors_through_jitter():
    lay = ConeLayout([3, 3, 3], 0)
    singular = np.diag([1.0, 1.0, 0.0])
    x = ref_pack(lay, [np.eye(3), singular, 2.0 * np.eye(3)], [])
    z = lay.identity()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.stack(ref_blocks(lay, x)))
    sc = NTScaling(lay, x, z)
    assert sc.jitters == 1
    jitter = 1e-14 * np.trace(singular) / 3
    for R, s, X in zip(per_block(sc.R), per_block(sc.lam_psd),
                       ref_blocks(lay, x)):
        assert np.all(np.isfinite(R)) and np.all(s > 0)
        close(R @ np.diag(s) @ R.T, X)
    L, jittered = _chol(singular)
    assert jittered
    close(L @ L.T, singular + jitter * np.eye(3))


def test_duplicated_equality_row_counts_schur_ridge():
    # two identical rows make the Schur complement exactly singular
    prob = ConicProblem()
    i = prob.add_psd_var(3, complex=False)
    j = prob.add_scalar_var()
    prob.set_objective(matrix={i: np.eye(3)}, scalar={j: 1.0})
    F = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(2):
        prob.add_constraint(matrix={i: F}, scalars={j: 1.0}, rel="==",
                            rhs=3.0)
    sol = solve(prob)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.stats["schur_ridge"] > 0
    assert sol.stats["schur_pinv"] == 0
    # min Tr(W) + t s.t. Tr(F W) + t = 3: all weight on the smallest
    # ratio Tr(W)/Tr(FW) = 1/lambda_max(F), or on t at ratio 1
    want = 3.0 / np.linalg.eigvalsh(F)[-1]
    assert sol.objective == pytest.approx(want, rel=1e-6)


# -- Hermitian blocks against the real kernel on their embedding -------------
#
# A Hermitian block must be an isometric image of its real 2d x 2d
# embedding, so each operation is checked against the all-real kernel
# applied to the embedded point.  NT factors R are unique only up to a
# unitary (the embedding doubles every eigenvalue), so scaled-space
# results are compared through compositions that do not depend on it:
# Gram matrices, W a W, and Jordan products mapped back by W^{-H}.

HERMITIAN = ([3, 3, 4, 4, 1, 2], [False, False, True, True, True, False], 3)


def ref_hvec(mat):
    """Per-block reference packing of a Hermitian block."""
    r, c = np.triu_indices(mat.shape[0], 1)
    return np.concatenate([np.sqrt(2.0) * mat.diagonal().real,
                           2.0 * mat[r, c].real, 2.0 * mat[r, c].imag])


def ref_hmat(vec, dim):
    r, c = np.triu_indices(dim, 1)
    n = len(r)
    out = np.diag(vec[:dim] / np.sqrt(2.0)).astype(complex)
    out[r, c] = (vec[dim:dim + n] + 1j * vec[dim + n:]) / 2.0
    out[c, r] = out[r, c].conj()
    return out


class Hermitian:
    """The mixed layout, its all-real embedded twin, and maps between
    packed points of the two."""

    def __init__(self):
        dims, cplx, nonneg = HERMITIAN
        self.lay = ConeLayout(dims, nonneg, cplx)
        self.emb = ConeLayout([2 * d if c else d for d, c in zip(dims, cplx)],
                              nonneg)
        self.rng = np.random.default_rng(17)

    def pack(self, mats, nn):
        return np.concatenate(
            [ref_hvec(M) if c else ref_svec(M)
             for M, c in zip(mats, self.lay.psd_complex)] + [np.asarray(nn)])

    def blocks(self, vec):
        lay = self.lay
        return [(ref_hmat if c else ref_smat)(vec[off:off + n], d)
                for d, c, off, n in zip(lay.psd_dims, lay.psd_complex,
                                        lay.psd_offsets, lay.svec_lens)]

    def embed(self, vec):
        """Embedded packed point of a native one (rows along axis 0)."""
        if vec.ndim == 2:
            return np.stack([self.embed(v) for v in vec])
        mats = [embed_matrix(M) if c else M for M, c in
                zip(self.blocks(vec), self.lay.psd_complex)]
        return ref_pack(self.emb, mats, vec[self.lay.nn_offset:])

    def random_mats(self, interior):
        mats = []
        for d, c in zip(self.lay.psd_dims, self.lay.psd_complex):
            G = self.rng.standard_normal((d, d))
            if c:
                G = G + 1j * self.rng.standard_normal((d, d))
            mats.append(G @ G.conj().T / d + np.eye(d) if interior
                        else 0.5 * (G + G.conj().T))
        return mats

    def interior(self):
        return self.pack(self.random_mats(True),
                         self.rng.uniform(0.5, 2.0, self.lay.nonneg))

    def vec(self, *batch):
        if batch:
            return np.stack([self.vec() for _ in range(batch[0])])
        return self.pack(self.random_mats(False),
                         self.rng.standard_normal(self.lay.nonneg))


@pytest.fixture
def herm():
    h = Hermitian()
    x, z = h.interior(), h.interior()
    return (h, NTScaling(h.lay, x, z), NTScaling(h.emb, h.embed(x),
                                                 h.embed(z)), x, z)


def test_hermitian_runs_and_degree(herm):
    h = herm[0]
    assert [(r.dim, r.complex, r.count) for r in h.lay.runs] == \
        [(3, False, 2), (4, True, 2), (1, True, 1), (2, False, 1)]
    assert h.lay.svec_lens == [6, 6, 16, 16, 1, 3]
    assert h.lay.degree == h.emb.degree
    assert h.lay.size < h.emb.size


def test_hermitian_pack_round_trip(herm):
    h = herm[0]
    mats = h.random_mats(False)
    nn = h.rng.standard_normal(h.lay.nonneg)
    vec = h.pack(mats, nn)
    blocks = per_block(h.lay.unpack(vec))
    for got, want, i in zip(blocks, mats, range(len(mats))):
        close(got, want)
        close(h.lay.psd_block(vec, i), want)
    close(h.lay.pack(h.lay.unpack(vec), h.lay.nn_block(vec)), vec)
    close(h.lay.identity(),
          h.pack([np.eye(d) for d in h.lay.psd_dims], np.ones(h.lay.nonneg)))
    rows = h.vec(3)
    back = h.lay.pack(h.lay.unpack(rows), h.lay.nn_block(rows))
    for k in range(3):
        close(back[k], rows[k])
    # an empty batch (a problem without constraint rows) packs too
    none = rows[:0]
    assert h.lay.pack(h.lay.unpack(none), h.lay.nn_block(none)).shape == \
        (0, h.lay.size)


def test_hermitian_inner_product(herm):
    h = herm[0]
    u, v = h.vec(), h.vec()
    close(u @ v, h.embed(u) @ h.embed(v))
    want = sum((2.0 if c else 1.0) * np.real(np.trace(U @ V)) for U, V, c in
               zip(h.blocks(u), h.blocks(v), h.lay.psd_complex))
    close(u @ v, want + h.lay.nn_block(u) @ h.lay.nn_block(v))
    close(h.lay.identity() @ h.lay.identity(), h.lay.degree)


def test_hermitian_lam_psd_listed_twice(herm):
    h, sc, ref, x, z = herm
    for s, s_ref, c in zip(per_block(sc.lam_psd), per_block(ref.lam_psd),
                           h.lay.psd_complex):
        close(np.sort(np.repeat(s, 2) if c else s), np.sort(s_ref))
    close(sc.lam_nn, ref.lam_nn)
    # the NT scaling matrix W = R R^H is unique, and embeds
    W = [R @ R.conj().T for R in per_block(sc.R)]
    W_ref = [R @ R.T for R in per_block(ref.R)]
    for Wn, We, c in zip(W, W_ref, h.lay.psd_complex):
        close(embed_matrix(Wn) if c else Wn, We)
    # and it maps z onto lam and lam onto x
    lam = h.lay.diag(sc.lam_psd, sc.lam_nn)
    same(sc.lam(), lam)
    close(sc.scale_dual(z), lam)
    close(sc.unscale(lam, lam)[0], x)
    assert sc.jitters == 0


def test_hermitian_max_step(herm):
    h, sc, ref = herm[:3]
    for scale in (0.1, 1.0, 10.0):
        dz1, dz2 = scale * h.vec(), scale * h.vec()
        got = sc.max_step(sc.scale_dual(dz1), sc.scale_dual(dz2))
        want = ref.max_step(ref.scale_dual(h.embed(dz1)),
                            ref.scale_dual(h.embed(dz2)))
        assert got == pytest.approx(want, rel=RTOL)
    assert sc.max_step(h.lay.identity(), sc.lambda_sq()) == 1e12


def test_hermitian_scaling_maps(herm):
    h, sc, ref = herm[:3]
    rows = h.vec(5)
    rows_e = h.embed(rows)
    scaled, scaled_e = sc.scale_dual(rows), ref.scale_dual(rows_e)
    # Schur Gram matrix of the scaled rows
    close(scaled @ scaled.T, scaled_e @ scaled_e.T)
    close(sc.scale_dual_blocks(h.lay.unpack(rows), h.lay.nn_block(rows)),
          scaled)
    # W a W, and W^{-H} inverting W^H
    waw, back = sc.unscale(scaled, scaled)
    close(h.embed(waw), ref.unscale(scaled_e, scaled_e)[0])
    close(back, rows)
    # (A W B + B W A)/2 from the scaled-space Jordan product
    a, b = scaled[0], scaled[1]
    a_e, b_e = scaled_e[0], scaled_e[1]
    ab, ab_e = sc.jordan_prod(a, b), ref.jordan_prod(a_e, b_e)
    close(h.embed(sc.unscale(ab, ab)[1]), ref.unscale(ab_e, ab_e)[1])
    # lam o v and its inverse
    lam = h.lay.diag(sc.lam_psd, sc.lam_nn)
    close(sc.lam_prod(a), sc.jordan_prod(lam, a))
    close(sc.jordan_prod(lam, sc.jordan_div(a)), a)
    close(h.embed(sc.lambda_sq()) @ h.embed(a),
          ref.lambda_sq() @ ref.jordan_div(ref.lam_prod(a_e)))


# -- the iteration's arithmetic, bit for bit ----------------------------------
#
# A frozen copy of the kernel maps and the refinement norm as they were
# before the iteration was rewritten to make fewer numpy calls: one
# np.take per gather, x and z factored one side at a time, sqrt(lam)
# recomputed per step length, one reduction per residual block.  The
# kernel may change how it dispatches its work, never its floating-point
# operations, so every result must equal the frozen one exactly.

def frozen_H(stack):
    out = np.swapaxes(stack, -1, -2)
    return out.conj() if np.iscomplexobj(out) else out


class FrozenRun:
    def __init__(self, run):
        dim, complex, count = run.dim, run.complex, run.count
        self.complex = complex
        length = svec_len(dim, complex)
        self.span = slice(run.span.start, run.span.start + count * length)
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
        out = np.take(seg, self._gather, axis=-1) / self._unscale
        return out.view(np.complex128)[..., 0] if self.complex else out

    def pack(self, stack):
        flat = stack.reshape(stack.shape[:-3] + (self._entries,))
        if self.complex:
            flat = flat.view(np.float64)
        return np.take(flat, self._scatter, axis=-1) * self._scale


class FrozenLayout:
    def __init__(self, lay):
        self.runs = [FrozenRun(r) for r in lay.runs]
        self.size, self.nn_offset = lay.size, lay.nn_offset

    def unpack(self, vec):
        return [r.unpack(vec[..., r.span]) for r in self.runs]

    def pack(self, stacks, nn):
        out = np.empty(np.shape(nn)[:-1] + (self.size,))
        for r, stack in zip(self.runs, stacks):
            out[..., r.span] = r.pack(stack)
        out[..., self.nn_offset:] = nn
        return out

    def nn_block(self, vec):
        return vec[..., self.nn_offset:]


class FrozenScaling:
    def __init__(self, lay, x, z):
        layout = self.layout = FrozenLayout(lay)
        self.jitters = 0
        self.R = []
        self.Rinv = []
        self.lam_psd = []
        for X, Z in zip(layout.unpack(x), layout.unpack(z)):
            Lx = self._cholesky(X)
            Lz = self._cholesky(Z)
            U, s, Vh = np.linalg.svd(frozen_H(Lz) @ Lx)
            s = np.maximum(s, 1e-300)
            sq = np.sqrt(s)[..., None, :]
            self.R.append(Lx @ (frozen_H(Vh) / sq))
            self.Rinv.append(frozen_H(U / sq) @ frozen_H(Lz))
            self.lam_psd.append(s)
        self.Rh = [frozen_H(R) for R in self.R]
        self.Rinvh = [frozen_H(Ri) for Ri in self.Rinv]
        xn = layout.nn_block(x)
        zn = layout.nn_block(z)
        self.w_nn = np.sqrt(xn / zn)
        self.lam_nn = np.sqrt(xn * zn)

    def _cholesky(self, stack):
        try:
            return np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            out = np.empty_like(stack)
            for b, mat in enumerate(stack):
                out[b], jittered = _chol(mat)
                self.jitters += jittered
            return out

    def scale_dual(self, dz):
        lay = self.layout
        return lay.pack([Rh @ D @ R for Rh, R, D in
                         zip(self.Rh, self.R, lay.unpack(dz))],
                        lay.nn_block(dz) * self.w_nn)

    def unscale_dual(self, g):
        lay = self.layout
        return lay.pack([Rih @ G @ Ri for Rih, Ri, G in
                         zip(self.Rinvh, self.Rinv, lay.unpack(g))],
                        lay.nn_block(g) / self.w_nn)

    def unscale_primal(self, u):
        lay = self.layout
        return lay.pack([R @ U @ Rh for R, Rh, U in
                         zip(self.R, self.Rh, lay.unpack(u))],
                        lay.nn_block(u) * self.w_nn)

    def jordan_prod(self, u, v):
        lay = self.layout
        mats = []
        for U, V in zip(lay.unpack(u), lay.unpack(v)):
            UV = U @ V
            mats.append(0.5 * (UV + frozen_H(UV)))
        return lay.pack(mats, lay.nn_block(u) * lay.nn_block(v))

    def max_step(self, du_scaled, dv_scaled):
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


def frozen_res_norm(res):
    return max(float(np.max(np.abs(np.atleast_1d(r)))) if np.size(r) else 0.0
               for r in res)


def frozen_interior(lay, rng):
    frozen = FrozenLayout(lay)
    stacks = []
    for r in lay.runs:
        G = rng.standard_normal((r.count, r.dim, r.dim))
        if r.complex:
            G = G + 1j * rng.standard_normal(G.shape)
        stacks.append(G @ frozen_H(G) / r.dim + np.eye(r.dim))
    return frozen.pack(stacks, rng.uniform(0.5, 2.0, lay.nonneg))


# ConeLayout arguments: the real layouts above and the Hermitian one,
# whose runs include a 1 x 1 Hermitian block
BITWISE = dict(LAYOUTS, hermitian=(HERMITIAN[0], HERMITIAN[2], HERMITIAN[1]))


def same(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(BITWISE))
def test_kernel_matches_frozen_bit_for_bit(name):
    lay = ConeLayout(*BITWISE[name])
    frozen = FrozenLayout(lay)
    rng = np.random.default_rng(29)
    x, z = frozen_interior(lay, rng), frozen_interior(lay, rng)
    sc, ref = NTScaling(lay, x, z), FrozenScaling(lay, x, z)
    assert sc.jitters == ref.jitters == 0
    for attr in ("R", "Rinv", "Rh", "Rinvh", "lam_psd"):
        for got, want in zip(getattr(sc, attr), getattr(ref, attr)):
            same(got, want)
    same(sc.w_nn, ref.w_nn)
    same(sc.lam_nn, ref.lam_nn)
    rows = rng.standard_normal((4, lay.size))
    for vec in (rows[0], rows):
        for got, want in zip(lay.unpack(vec), frozen.unpack(vec)):
            same(got, want)
        nn = lay.nn_block(vec)
        same(lay.pack(lay.unpack(vec), nn),
             frozen.pack(frozen.unpack(vec), nn))
        same(sc.scale_dual(vec), ref.scale_dual(vec))
        dx, dz = sc.unscale(vec, vec)
        same(dx, ref.unscale_primal(vec))
        same(dz, ref.unscale_dual(vec))
    u, g = rows[1], rows[2]
    dx, dz = sc.unscale(u, g)
    same(dx, ref.unscale_primal(u))
    same(dz, ref.unscale_dual(g))
    same(sc.jordan_prod(u, g), ref.jordan_prod(u, g))
    for scale in (0.1, 1.0, 10.0):
        du, dv = scale * rows[2], scale * rows[3]
        assert sc.max_step(du, dv) == ref.max_step(du, dv)
    assert sc.max_step(lay.identity(), sc.lambda_sq()) == 1e12
    # every lone solve runs a (1, n) batch: its results are the frozen
    # unbatched ones with a leading axis of one
    one = NTScaling(lay, x[None], z[None])
    u1, g1 = rows[1:2], rows[2:3]
    same(one.scale_dual(rows[:1]), ref.scale_dual(rows[0])[None])
    dx, dz = one.unscale(u1, g1)
    same(dx, ref.unscale_primal(u)[None])
    same(dz, ref.unscale_dual(g)[None])
    same(one.jordan_prod(u1, g1), ref.jordan_prod(u, g)[None])
    for scale in (0.1, 1.0, 10.0):
        du, dv = scale * rows[2], scale * rows[3]
        assert one.max_step(du[None], dv[None]) == [ref.max_step(du, dv)]


def test_residual_norm_matches_frozen():
    # residuals come as (P, n) rows and per-problem lists of scalars, a
    # lone problem as P = 1; each problem's norm is its frozen one
    rng = np.random.default_rng(31)
    pairs = ((0.25, -3.0), (-7.5, 1e-3), (0.0, 0.0))
    for P in (1, 3):
        r2, rs = rng.standard_normal((P, 9)), rng.standard_normal((P, 9))
        for r1 in (rng.standard_normal((P, 4)), np.zeros((P, 0))):
            for shift in range(len(pairs)):
                r3, rt = map(list, zip(*(pairs[(shift + p) % len(pairs)]
                                         for p in range(P))))
                res = (r2, r1, r3, rs, rt)
                hsd, plain = ipm._hsd_res_norm(res), ipm._res_norm(
                    (r2, r1, rs))
                assert len(hsd) == len(plain) == P
                for p in range(P):
                    assert hsd[p] == frozen_res_norm(
                        tuple(r[p] for r in res))
                    assert plain[p] == frozen_res_norm((r2[p], r1[p], rs[p]))


@pytest.mark.parametrize("side", ["x", "z"])
def test_one_singular_side_is_the_only_one_jittered(side, monkeypatch):
    # X and Z are factored as one stack; a singular block on one side
    # must send only that side through the per-block jitter fallback
    lay = ConeLayout([3, 3, 3], 0)
    singular = np.diag([1.0, 1.0, 0.0])
    blocks = [2.0 * np.eye(3), singular, 3.0 * np.eye(3)]
    bad = ref_pack(lay, blocks, [])
    x, z = (bad, lay.identity()) if side == "x" else (lay.identity(), bad)
    ref = FrozenScaling(lay, x, z)
    calls = []

    def spy(mat):
        out = _chol(mat)
        calls.append((mat, out[1]))
        return out

    monkeypatch.setattr(cones, "_chol", spy)
    sc = NTScaling(lay, x, z)
    assert sc.jitters == ref.jitters == 1
    # the per-block fallback saw exactly the singular side's blocks, and
    # jittered only the singular one
    assert len(calls) == 3
    for (mat, jittered), want in zip(calls, blocks):
        same(mat, want)
        assert jittered == (want is singular)
    for attr in ("R", "Rinv", "lam_psd"):
        for got, want in zip(getattr(sc, attr), getattr(ref, attr)):
            same(got, want)


@pytest.mark.parametrize("name", sorted(BITWISE))
def test_batched_scaling_matches_each_problem_alone(name):
    # a lockstep batch stacks problems along a leading axis; each
    # problem's factors, jitter count, maps and step length must be those
    # of its own scaling, bit for bit, also when only one of them needs
    # the jitter fallback
    lay = ConeLayout(*BITWISE[name])
    rng = np.random.default_rng(37)
    xs = np.stack([frozen_interior(lay, rng) for _ in range(3)])
    zs = np.stack([frozen_interior(lay, rng) for _ in range(3)])
    if lay.runs:
        run = lay.runs[0]
        singular = np.zeros((run.dim, run.dim), run.dtype)
        singular[0, 0] = 1.0
        xs[1, run.span] = run.pack(np.stack([singular] * run.count))
    sc = NTScaling(lay, xs, zs)
    rows = rng.standard_normal((3, lay.size))
    du, dv = 10.0 * rng.standard_normal((2, 3, lay.size))
    steps = sc.max_step(du, dv)
    assert isinstance(steps, list) and len(steps) == 3
    for p in range(3):
        ref = NTScaling(lay, xs[p], zs[p])
        assert sc.jitters[p] == ref.jitters
        for attr in ("R", "Rinv", "lam_psd"):
            for got, want in zip(getattr(sc, attr), getattr(ref, attr)):
                same(got[p], want)
        same(sc.lambda_sq()[p], ref.lambda_sq())
        same(sc.scale_dual(rows)[p], ref.scale_dual(rows[p]))
        same(sc.jordan_div(rows)[p], ref.jordan_div(rows[p]))
        same(sc.jordan_prod(rows, du)[p], ref.jordan_prod(rows[p], du[p]))
        for got, want in zip(sc.unscale(rows, dv), ref.unscale(rows[p],
                                                              dv[p])):
            same(got[p], want)
        assert steps[p] == ref.max_step(du[p], dv[p])
    jittered = lay.runs[0].count if lay.runs else 0
    assert sc.jitters.tolist() == [0, jittered, 0]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(BITWISE)),
       batch=st.sampled_from([None, 1, 3]),
       seed=st.integers(0, 2 ** 32 - 1), alpha=st.floats(0.0, 1.0))
def test_scaled_affine_complementarity(name, batch, seed, alpha):
    # the predictor's (x + a dx)'(z + a dz), taken in scaled space as
    # (lam + a dxs)'(lam + a dzs), on a lone or a stacked scaling
    lay = ConeLayout(*BITWISE[name])
    rng = np.random.default_rng(seed)
    shape = (batch or 1,)
    x = np.stack([frozen_interior(lay, rng) for _ in range(shape[0])])
    z = np.stack([frozen_interior(lay, rng) for _ in range(shape[0])])
    dxs, dzs = rng.standard_normal((2,) + shape + (lay.size,))
    if batch is None:
        x, z, dxs, dzs = x[0], z[0], dxs[0], dzs[0]
    sc = NTScaling(lay, x, z)
    dx, dz = sc.unscale(dxs, dzs)
    u, v = sc.lam() + alpha * dxs, sc.lam() + alpha * dzs
    scaled = np.vecdot(u, v)
    plain = np.vecdot(x + alpha * dx, z + alpha * dz)
    # relative to the Cauchy-Schwarz bound of the products' terms
    scale = np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1)
    assert (np.abs(scaled - plain) <= 1e-12 * scale).all()


@pytest.mark.parametrize("name", sorted(BITWISE))
def test_affine_max_step_matches_two_sided(name):
    # the predictor's dzs is jordan_div(-lam^2) - dxs, as solve_scaled
    # forms it: -lam - dxs on every PSD block up to rounding, so one
    # eigensolve of dxs bounds both sides
    lay = ConeLayout(*BITWISE[name])
    rng = np.random.default_rng(41)
    x = np.stack([frozen_interior(lay, rng) for _ in range(4)])
    z = np.stack([frozen_interior(lay, rng) for _ in range(4)])
    sc = NTScaling(lay, x, z)
    lam, g = sc.lam(), sc.jordan_div(-sc.lambda_sq())
    nn = slice(lay.nn_offset, None)
    noise = rng.standard_normal((4, lay.size))
    psd_noise = noise.copy()
    psd_noise[:, nn] = 0.0
    directions = [scale * noise for scale in (0.1, 1.0, 10.0)] + [
        # lam^-1/2 dxs lam^-1/2 below -I on every block: 1 + h <= 0,
        # so the dual side takes no bound
        -1.5 * lam + 0.01 * psd_noise,
        -3.0 * lam + 0.2 * psd_noise]
    for dxs in directions:
        dzs = g - dxs
        got = sc.max_step(dxs, dzs, affine=True)
        assert got == pytest.approx(sc.max_step(dxs, dzs), rel=1e-12)
    # the orthant binds: a small step on the PSD blocks, a long way
    # down on the orthant
    dxs = 0.01 * psd_noise
    dxs[:, nn] = -20.0 * lam[:, nn]
    dzs = g - dxs
    got = sc.max_step(dxs, dzs, affine=True)
    assert got == pytest.approx(sc.max_step(dxs, dzs), rel=1e-12)
    if lay.nonneg:
        assert got == (-lam[:, nn] / dxs[:, nn]).min(axis=-1).tolist()
