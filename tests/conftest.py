"""Shared oracles."""

import numpy as np
import pytest
from scipy.optimize import linprog

from cobeam.conic import ConicProblem
from cobeam.power_min import _sinr_data


def embed_matrix(mat):
    """Real symmetric 2d x 2d embedding of a Hermitian matrix (or of each
    matrix in a stack)."""
    re, im = np.real(mat), np.imag(mat)
    return np.block([[re, -im], [im, re]])


def unembed_matrix(emb):
    """Recover the Hermitian matrix from (a perturbation of) its embedding.

    The returned matrix is the structured projection, so PSD-ness and all
    trace terms against Hermitian coefficient data are preserved.
    """
    d = emb.shape[0] // 2
    re = 0.5 * (emb[:d, :d] + emb[d:, d:])
    im = 0.5 * (emb[d:, :d] - emb[:d, d:])
    return re + 1j * im


def row_data(problem):
    """Each row's (relation, right-hand side) in row order, read from
    the problem's row families."""
    return [(fam.relation, b) for fam in problem.families for b in fam.rhs]


def embed_hermitian(problem):
    """Rewrite complex-Hermitian matrix variables as real 2d x 2d blocks,
    the independent check of the solver's native Hermitian blocks.

    Every Hermitian coefficient H becomes embed(H)/2, which keeps all
    trace products (hence objective and constraint values) identical;
    each row family's stacks are lowered whole.
    Real problems pass through block-duplicated but otherwise unchanged.
    """
    out = ConicProblem()
    for var in problem.matrix_vars:
        if var.complex:
            out.add_psd_var(2 * var.dim, complex=False, name=var.name)
        else:
            out.add_psd_var(var.dim, complex=False, name=var.name)
    out.num_scalars = problem.num_scalars
    out.scalar_names = list(problem.scalar_names)

    def lower(i, H):
        return 0.5 * embed_matrix(H) if problem.matrix_vars[i].complex \
            else np.real(H)

    out.obj_matrix = {i: lower(i, C) for i, C in problem.obj_matrix.items()}
    out.obj_scalar = dict(problem.obj_scalar)
    out.obj_scalar_quad = dict(problem.obj_scalar_quad)
    for fam in problem.families:
        out.add_constraints(
            {i: (rows, lower(i, F)) for i, (rows, F) in fam.matrix.items()},
            fam.scalars, fam.relation, fam.rhs, fam.labels)
    return out


def loop_sinr_system(channels, topology, cell=None, level=None, theta=None,
                     copies=None, budget=False, objective=True, bases=None):
    """:func:`power_min.sinr_system` row by row and block by block, the
    oracle of its stacked build.

    Each group's covariance lives in antenna space, or with ``bases`` (a
    basis (A, d) or None per group in scope, in
    :meth:`Topology.groups_of_bs` order) in the span of its basis: the
    builder's problem at those bases, or at the full dimension.
    """
    groups = range(topology.G) if cell is None \
        else topology.groups_of_bs(cell)
    users = range(topology.U) if cell is None else topology.users_of_bs(cell)
    bases = [None] * len(groups) if bases is None else bases
    dims = [topology.A if Q is None else Q.shape[1] for Q in bases]
    peers = [j for j in range(topology.B) if j != cell]
    prob = ConicProblem(bases=list(bases))
    for g, dim in zip(groups, dims):
        prob.add_psd_var(dim, name=f"W{g}")
    copy_slot = np.full((topology.B, topology.U), -1)
    rhs, linear = _sinr_data(topology, cell, theta, copies)
    if copies is not None:
        for j, u in zip(*np.nonzero(topology.ici_owned(cell).any(axis=0))):
            copy_slot[j, u] = prob.add_scalar_var(name=f"theta~({j}, {u})")
    if objective:
        prob.set_objective(matrix={k: np.eye(dim)
                                   for k, dim in enumerate(dims)},
                           scalar=linear,
                           scalar_quad=dict.fromkeys(linear, copies[1])
                           if copies is not None else None)
    slots = copy_slot.tolist()

    def channel(b, u, k):
        if bases[k] is None:
            return channels.outer[b, u]
        h = bases[k].conj().T @ channels.vec(b, u)
        return np.outer(h, h.conj())

    rhs = iter(rhs(level))
    for u in users:
        t = topology.gamma[u] if level is None else level
        mats = {}
        for k, g in enumerate(groups):
            H = channel(topology.bs_of_group[g], u, k)
            mats[k] = H if g == topology.group_of_user[u] else -t * H
        scalars = {slots[j][u]: -t for j in peers} \
            if copies is not None else None
        prob.add_constraint(matrix=mats, scalars=scalars, rel=">=",
                            rhs=next(rhs), label=("sinr", u))
    for u, cap in zip(topology.out_of_cell_users(cell), rhs):
        prob.add_constraint(
            matrix={k: channel(cell, u, k) for k in range(len(groups))},
            scalars={slots[cell][u]: -1.0} if copies is not None else None,
            rel="<=", rhs=cap, label=("cap", (cell, u)))
    if budget:
        for b in range(topology.B) if cell is None else [cell]:
            prob.add_constraint(
                matrix={k: np.eye(dims[k]) for k, g in enumerate(groups)
                        if topology.bs_of_group[g] == b},
                rel="<=", rhs=float(topology.p_max[b]), label=("power", b))
    return prob, copy_slot


def _highs_powers(gains, own, gamma, noise, cap_gains=None, caps=None):
    """Sum-power LP of one fixed-direction problem, solved by HiGHS.

    User u asks gains[u, own[u]] p_own - gamma_u sum_{g != own}
    gains[u, g] p_g >= gamma_u noise_u; optional rows cap_gains @ p <=
    caps.  Returns the optimal powers, or None when HiGHS proves the LP
    infeasible.
    """
    gains = np.asarray(gains, dtype=float)
    U, G = gains.shape
    users = np.arange(U)
    rows = np.asarray(gamma)[:, None] * gains
    rows[users, own] = -gains[users, own]
    rhs = -np.asarray(gamma) * np.asarray(noise)
    if cap_gains is not None:
        rows = np.vstack([rows, cap_gains])
        rhs = np.concatenate([rhs, caps])
    res = linprog(np.ones(G), A_ub=rows, b_ub=rhs, bounds=[(0, None)] * G,
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.x


@pytest.fixture
def highs_powers():
    return _highs_powers


def _duality_power(channels, topology, tol=1e-14, max_iter=10000):
    """Least sum power of a unicast network (one user per group, unit
    noise, no power budgets) by the uplink-downlink duality fixed point
    of Dahrouj & Yu (IEEE TWC 2010), with no conic solver.

    The uplink powers iterate lam_u = 1 / ((1 + 1/gamma_u) h^H (I +
    sum_j lam_j h_{b,j} h_{b,j}^H)^{-1} h), with b user u's serving BS
    and h = h_{b,u}, until they stop moving; the optimum is sum_u lam_u.
    """
    users = range(topology.U)
    serving = [topology.serving_bs(u) for u in users]
    own = channels.h[serving, users]
    boost = 1.0 + 1.0 / np.asarray(topology.gamma, dtype=float)
    lam = np.zeros(topology.U)
    for _ in range(max_iter):
        cov = np.eye(topology.A) + np.einsum("j,bjxy->bxy", lam,
                                             channels.outer)
        gain = [np.real(h.conj() @ np.linalg.solve(cov[b], h))
                for b, h in zip(serving, own)]
        new = 1.0 / (boost * np.array(gain))
        if np.abs(new - lam).max() <= tol * new.sum():
            return float(new.sum())
        lam = new
    raise AssertionError("duality fixed point did not converge")


@pytest.fixture
def duality_power():
    return _duality_power
