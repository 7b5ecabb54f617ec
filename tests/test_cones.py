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

from cobeam.conic import ConicProblem, SolveStatus, solve
from cobeam.conic.cones import ConeLayout, NTScaling, _chol

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
    close(sc.unscale_primal(u),
          ref_congruence(lay, u, Rs, sc.w_nn, outer=True))
    close(sc.unscale_dual(u), ref_congruence(lay, u, Rinvs, 1.0 / sc.w_nn))
    # W^{-T} inverts W^T
    close(sc.unscale_dual(sc.scale_dual(u)), u)


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
