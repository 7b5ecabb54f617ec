"""Centralized sum-power minimization.

Pipeline: relax each beamformer outer product to a PSD covariance, solve
the QoS SDP, then either extract rank-one beamformers directly or fall
back to Gaussian randomization, where each candidate direction set gets
its least feasible powers (the exact optimum of its power-allocation LP).
"""

import numpy as np

from . import conic
from .conic import ConicProblem, SolveStatus
from .errors import InfeasibleTargetsError, RandomizationFailureError
from .network import BeamformingSolution

RANK_ONE_TOL = 1e-6
DEFAULT_GR_COUNT = 100
MAX_POLICY_ROUNDS = 50     # least_powers settles in a handful of rounds
POLICY_RTOL = 1e-12        # demand margin that switches a binding user
SINR_RTOL = 1e-9           # slack of the closing SINR check


def assemble_qos_sdp(channels, topology):
    """QoS power-minimization SDP over all groups.

    One A x A Hermitian PSD variable per group; per-user constraint
    Tr(H_{b,u} W_g) - gamma_u * sum of interfering traces >= gamma_u
    sigma_u^2; objective sum of traces.
    """
    prob = ConicProblem()
    for g in range(topology.G):
        prob.add_psd_var(topology.A, name=f"W{g}")
    prob.set_objective(
        matrix={g: np.eye(topology.A) for g in range(topology.G)})
    for u in range(topology.U):
        g_u = topology.group_of_user[u]
        gamma = topology.gamma[u]
        mats = {}
        for g in range(topology.G):
            H = channels.mat(topology.bs_of_group[g], u)
            mats[g] = H if g == g_u else -gamma * H
        prob.add_constraint(matrix=mats, rel=">=",
                            rhs=gamma * topology.sigma2[u],
                            label=("sinr", u))
    return prob


def extract_rank_one(W, rank_tol=RANK_ONE_TOL):
    """Principal-component beamformer when W is numerically rank one."""
    val, vec = conic.principal_eigenpair(W)
    return np.sqrt(max(val, 0.0)) * vec


def gaussian_candidates(W_star, count, rng):
    """Unit-norm candidate beamformers drawn from CN(0, W*).

    Raw draws are L z with L a PSD square root of W* and z standard
    complex normal, then normalized to unit power.  One block of normals
    gives the same stream as drawing each candidate's real part, then its
    imaginary part, in turn.
    """
    if count == 0:
        return []
    L = conic.psd_sqrt(W_star)
    dim = W_star.shape[0]
    z = rng.standard_normal((count, 2, dim))
    z = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    cand = (L @ z[..., None])[..., 0]
    norm = np.linalg.norm(cand, axis=1)
    dead = norm < 1e-30
    cand[dead] = np.eye(dim)[0]
    norm[dead] = 1.0
    return list(cand / norm[:, None])


def direction_gains(H, V):
    """Gains |h^H v|^2, (C, U, G), of channels ``H`` toward unit directions.

    ``V`` is (C, G, A); ``H`` is (G, U, A), user u's channel from group
    g's BS, or (U, A) when all directions leave one BS.  A product within
    its roundoff of zero (A eps ||h||) is an exact zero: orthogonal.
    """
    H = np.broadcast_to(H, V.shape[1:2] + H.shape[-2:])
    amp = np.abs(np.einsum("gua,cga->cug", H.conj(), V))
    floor = H.shape[-1] * np.finfo(float).eps \
        * np.linalg.norm(H, axis=-1).T
    return np.where(amp > floor, amp ** 2, 0.0)


def least_powers(gains, own, gamma, noise):
    """Least feasible powers of a batch of fixed-direction power problems.

    ``gains`` is (C, U, G); user u, served by group ``own[u]``, asks
    p_own >= gamma_u (noise_u + sum_{g != own} gains[u, g] p_g) /
    gains[u, own], a standard interference function (Yates 1995).  So
    the feasible powers have a least element, the exact optimum of the
    sum-power LP.  Policy iteration from p = 0 rises to it: each round
    solves (I - D) p = c for every group's binding user.  A solution that
    is not strictly positive, a singular I - D or a zero own gain proves
    infeasibility (Collatz-Wielandt).  Returns (C, G) powers with a row
    of ``inf`` where a candidate is infeasible, unsettled after
    ``MAX_POLICY_ROUNDS`` or short of a target in the closing check.
    """
    gains = np.asarray(gains, dtype=float)
    C, U, G = gains.shape
    users, own = np.arange(U), np.asarray(own)
    own_gain = gains[:, users, own]
    dead = (own_gain <= 0).any(axis=1)
    # user u's demand on its group's power is R[u] . p + q[u]
    scale = np.asarray(gamma) / np.where(own_gain > 0, own_gain, 1.0)
    R = scale[..., None] * gains
    R[:, users, own] = 0.0
    q = scale * noise
    member = own[:, None] == np.arange(G)
    rows, cols = np.arange(C)[:, None], np.arange(G)
    p, policy, settled = np.zeros((C, G)), None, dead.copy()
    for _ in range(MAX_POLICY_ROUNDS):
        need = np.where(member, (np.einsum("cug,cg->cu", R, p)
                                 + q)[..., None], -np.inf)
        best = need.argmax(axis=1)
        if policy is not None:
            # a binding user stays unless beaten by more than roundoff
            best = np.where(need[rows, best, cols] > need[rows, policy, cols]
                            * (1 + POLICY_RTOL), best, policy)
            settled |= (best == policy).all(axis=1)
            if settled.all():
                break
        policy = best
        live = np.flatnonzero(~settled)
        M = np.eye(G) - R[live[:, None], policy[live]]
        singular = np.linalg.det(M) == 0    # spectral radius one
        M[singular] = np.eye(G)
        p_live = np.linalg.solve(
            M, q[live[:, None], policy[live]][..., None])[..., 0]
        bad = singular | ~(p_live > 0).all(axis=1)
        dead[live[bad]] = settled[live[bad]] = True
        p[live] = np.where(bad[:, None], 0.0, p_live)
    else:
        dead |= ~settled
    demand = np.einsum("cug,cg->cu", R, p) + q
    dead |= (p[:, own] < demand * (1 - SINR_RTOL)).any(axis=1)
    p[dead] = np.inf
    return p


def candidate_power_lp(channels, topology, candidates):
    """Power allocation for fixed unit-norm directions (one per group).

    Returns the per-group power dict, or None when the targets cannot be
    met along these directions.
    """
    V = np.stack([candidates[g] for g in range(topology.G)])
    p = _network_least_powers(channels, topology, V[None])[0]
    if not np.isfinite(p).all():
        return None
    return {g: float(p[g]) for g in range(topology.G)}


def _network_least_powers(channels, topology, V):
    """Least powers (C, G) of the full network for candidate sets V."""
    H = channels.h[list(topology.bs_of_group)]
    return least_powers(direction_gains(H, V), topology.group_of_user,
                        topology.gamma, topology.sigma2)


def randomize_from_covariances(channels, topology, W_star, count, rng,
                               sdr_objective=None):
    """Gaussian randomization for a full-network covariance set.

    Draws ``count`` candidate direction sets, allocates each its least
    feasible powers, and keeps the feasible set with the lowest sum
    power (ties broken by candidate index).  Infeasible draws count
    against the budget.
    """
    groups = sorted(W_star.keys())
    V = np.stack([np.reshape(gaussian_candidates(W_star[g], count, rng),
                             (count, len(W_star[g]))) for g in groups],
                 axis=1)
    powers = _network_least_powers(channels, topology, V)
    totals = powers.sum(axis=1)
    if not np.isfinite(totals).any():
        raise RandomizationFailureError(
            f"all {count} randomization candidates were infeasible",
            sdr_solution=BeamformingSolution(
                W=dict(W_star), objective=sdr_objective))
    pick = int(np.argmin(totals))
    solution = BeamformingSolution(objective=float(totals[pick]),
                                   used_randomization=True)
    for g in groups:
        solution.w[g] = np.sqrt(powers[pick, g]) * V[pick, g]
        solution.p[g] = float(powers[pick, g])
        solution.W[g] = np.outer(solution.w[g], solution.w[g].conj())
        solution.rank[g] = 1
    return solution


def solve_centralized(channels, topology, gr_count=DEFAULT_GR_COUNT,
                      rng=None, rank_tol=RANK_ONE_TOL):
    """Full centralized design: SDP relaxation plus rank-one recovery.

    Returns a :class:`BeamformingSolution` whose ``objective`` is the
    achieved sum power (equal to the relaxation optimum when every
    covariance is rank one).  The relaxation optimum itself is attached
    as ``sdr_objective``.
    """
    sdp = assemble_qos_sdp(channels, topology)
    sol = conic.solve(sdp)
    if sol.status is SolveStatus.INFEASIBLE:
        raise InfeasibleTargetsError(
            "SINR targets are infeasible for this channel realization")
    if sol.status is not SolveStatus.OPTIMAL:
        raise InfeasibleTargetsError(
            f"relaxation solve failed with status {sol.status}")
    W_star = {g: sol.matrix_values[g] for g in range(topology.G)}
    ranks = {g: conic.numerical_rank(W_star[g], rank_tol)
             for g in W_star}
    if all(r <= 1 for r in ranks.values()):
        solution = BeamformingSolution(W=W_star, rank=ranks,
                                       objective=sol.objective)
        for g, W in W_star.items():
            vec = extract_rank_one(W, rank_tol)
            solution.w[g] = vec
            solution.p[g] = float(np.linalg.norm(vec) ** 2)
    else:
        if rng is None:
            rng = np.random.default_rng()
        solution = randomize_from_covariances(
            channels, topology, W_star, gr_count, rng,
            sdr_objective=sol.objective)
    solution.sdr_objective = sol.objective
    solution.sdr_rank = ranks
    return solution
