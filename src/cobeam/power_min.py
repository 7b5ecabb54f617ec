"""Centralized sum-power minimization and the pieces every design shares.

Pipeline: relax each beamformer outer product to a PSD covariance, solve
the QoS SDP, then either extract rank-one beamformers directly or fall
back to Gaussian randomization, where each candidate direction set gets
its least feasible powers (the exact optimum of its power-allocation LP).
The relaxed SINR system (:func:`sinr_system`), the fixed-direction power
kernel (:func:`least_powers`, :func:`capped_least_powers`) and the
rank-one-or-randomize tail (:func:`finalize`) serve the distributed and
balancing designs too.
"""

import numpy as np

from . import conic
from .conic import ConicProblem, SolveStatus
from .errors import (IndeterminateError, InfeasibleTargetsError,
                     RandomizationFailureError)
from .network import BeamformingSolution

DEFAULT_GR_COUNT = 100
MAX_POLICY_ROUNDS = 50     # least_powers settles in a handful of rounds
POLICY_RTOL = 1e-12        # demand margin that switches a binding user
SINR_RTOL = 1e-9           # slack of the closing SINR check
# ICI values come out of conic solves whose rows hold to about this
# relative accuracy, so GR candidates meet the outgoing caps to it too
CAP_RTOL = 1e-7


def sinr_system(channels, topology, cell=None, level=None, theta=None,
                copies=None, budget=False, objective=True, basis=None):
    """The relaxed SINR system every covariance design is built from.

    One PSD covariance W_g per group and one row per user u, served by
    group g_u at target t_u:

        Tr(H_u W_{g_u}) - t_u sum_{g != g_u} Tr(H_u W_g)
            >= t_u (sigma_u^2 + incoming ICI of u)

    ``cell`` None spans the network, each group seen through its own BS;
    ``cell`` b keeps BS b's groups and users.  ``level`` replaces every
    target gamma_u by one balancing level.  For a cell, ``theta`` is the
    ICI grid theta[j, u] (a scalar broadcasts): incoming values raise the
    noise, outgoing ones cap Tr(H_{b,u} sum_g W_g) <= theta[b, u].
    ``copies`` (a (B, U) grid of linear weights, one quadratic weight)
    instead makes every ICI value touching the cell a local scalar
    variable with those ADMM objective weights, one per pair in
    row-major order.  ``budget`` adds sum_g Tr(W_g) <= p_max per BS;
    ``objective`` minimizes the sum of traces (else the problem is a
    feasibility check); ``basis`` confines a cell's covariances to
    span(basis) by projecting channels.  Rows come in the order SINR,
    cap, budget.  Returns the problem, group -> matrix variable and the
    (B, U) grid of copy variables, -1 where a pair has none.
    """
    groups = range(topology.G) if cell is None \
        else topology.groups_of_bs(cell)
    users = range(topology.U) if cell is None else topology.users_of_bs(cell)
    dim = topology.A if basis is None else basis.shape[1]
    peers = [j for j in range(topology.B) if j != cell]
    prob = ConicProblem()
    slot = {g: prob.add_psd_var(dim, name=f"W{g}") for g in groups}
    copy_slot = np.full((topology.B, topology.U), -1)
    linear, quadratic = {}, {}
    if copies is not None:
        js, us = np.nonzero(topology.ici_owned(cell).any(axis=0))
        for j, u, w in zip(js.tolist(), us.tolist(),
                           copies[0][js, us].tolist()):
            k = prob.add_scalar_var(name=f"theta~({j}, {u})")
            copy_slot[j, u] = k
            linear[k], quadratic[k] = w, copies[1]
    if objective:
        prob.set_objective(matrix={slot[g]: np.eye(dim) for g in groups},
                           scalar=linear, scalar_quad=quadratic)
    # nested lists: the rows below read single entries
    slots = copy_slot.tolist()
    if theta is not None:
        theta = topology.ici_grid(theta).tolist()

    def channel(b, u):
        if basis is None:
            return channels.mat(b, u)
        h = basis.conj().T @ channels.vec(b, u)
        return np.outer(h, h.conj())

    ici = cell is not None and (theta is not None or copies is not None)
    for u in users:
        t = topology.gamma[u] if level is None else level
        mats = {}
        for g in groups:
            H = channel(topology.bs_of_group[g], u)
            mats[slot[g]] = H if g == topology.group_of_user[u] else -t * H
        if copies is not None:
            scalars, incoming = {slots[j][u]: -t for j in peers}, 0
        else:
            scalars = None
            incoming = sum(theta[j][u] for j in peers) if ici else 0
        prob.add_constraint(matrix=mats, scalars=scalars, rel=">=",
                            rhs=t * (topology.sigma2[u] + incoming),
                            label=("sinr", u))
    if ici:
        for u in topology.out_of_cell_users(cell):
            scalars, cap = ({slots[cell][u]: -1.0}, 0.0) \
                if copies is not None else (None, theta[cell][u])
            prob.add_constraint(
                matrix={slot[g]: channel(cell, u) for g in groups},
                scalars=scalars, rel="<=", rhs=cap, label=("cap", (cell, u)))
    if budget:
        for b in range(topology.B) if cell is None else [cell]:
            prob.add_constraint(
                matrix={slot[g]: np.eye(dim)
                        for g in topology.groups_of_bs(b)},
                rel="<=", rhs=float(topology.p_max[b]), label=("power", b))
    return prob, slot, copy_slot


def blind_caps(topology):
    """ICI grids of cells that ignore the network, (B, B, U): BS b's grid
    assumes no incoming interference (0) and caps nothing (1e9 on row
    b, the pairs out of BS b)."""
    B = topology.B
    return np.broadcast_to(np.where(np.eye(B, dtype=bool)[:, :, None],
                                    1e9, 0.0), (B, B, topology.U))


def assemble_qos_sdp(channels, topology):
    """QoS power-minimization SDP over all groups (:func:`sinr_system`)."""
    return sinr_system(channels, topology)[0]


def extract_rank_one(W):
    """Principal-component beamformer when W is numerically rank one."""
    val, vec = conic.principal_eigenpair(W)
    return np.sqrt(max(val, 0.0)) * vec


def gaussian_candidates(W_star, count, rng):
    """Unit-norm candidate beamformers drawn from CN(0, W*), (count, dim).

    Raw draws are L z with L a PSD square root of W* and z standard
    complex normal, then normalized to unit power.  One block of normals
    gives the same stream as drawing each candidate's real part, then its
    imaginary part, in turn; an empty draw takes nothing from ``rng``.
    """
    L = conic.psd_sqrt(W_star)
    dim = W_star.shape[0]
    z = rng.standard_normal((count, 2, dim))
    z = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    cand = (L @ z[..., None])[..., 0]
    norm = np.linalg.norm(cand, axis=1)
    dead = norm < 1e-30
    cand[dead] = np.eye(dim)[0]
    norm[dead] = 1.0
    return cand / norm[:, None]


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
    sum-power LP.  ``gamma`` broadcasts against (C, U): one target per
    user, or one row of targets per candidate.  Policy iteration from
    p = 0 rises to it: each round solves (I - D) p = c for every group's
    binding user.  A solution that is not strictly positive where c is, a
    singular I - D or a zero own gain proves infeasibility
    (Collatz-Wielandt); a zero target asks for nothing, even of a zero
    gain.  Returns (C, G) powers with a row of ``inf`` where a candidate
    is infeasible, unsettled after ``MAX_POLICY_ROUNDS`` or short of a
    target in the closing check.
    """
    gains = np.asarray(gains, dtype=float)
    C, U, G = gains.shape
    users, own = np.arange(U), np.asarray(own)
    own_gain = gains[:, users, own]
    dead = ((own_gain <= 0) & (np.asarray(gamma) > 0)).any(axis=1)
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
        c = q[live[:, None], policy[live]]
        p_live = np.linalg.solve(M, c[..., None])[..., 0]
        # a group nobody asks anything of solves to an exact zero
        bad = singular | ~((p_live > 0) | ((p_live == 0) & (c == 0))).all(
            axis=1)
        dead[live[bad]] = settled[live[bad]] = True
        p[live] = np.where(bad[:, None], 0.0, p_live)
    else:
        dead |= ~settled
    demand = np.einsum("cug,cg->cu", R, p) + q
    dead |= (p[:, own] < demand * (1 - SINR_RTOL)).any(axis=1)
    p[dead] = np.inf
    return p


def capped_least_powers(gains, own, gamma, noise, cap_gains, caps,
                        rtol=0.0):
    """:func:`least_powers` under extra caps sum_g cap_gains[c, k, g] p_g
    <= caps[k] (1 + rtol), such as outgoing ICI caps or power budgets.

    Every cap rises with every power, so a candidate meets its caps at
    some feasible point exactly when its least point meets them; rows
    whose least point does not are ``inf``.
    """
    p = least_powers(gains, own, gamma, noise)
    ok = np.isfinite(p).all(axis=1)
    load = np.einsum("ckg,cg->ck", cap_gains, np.where(ok[:, None], p, 0.0))
    p[(load > np.asarray(caps) * (1 + rtol)).any(axis=1)] = np.inf
    return p


def direction_system(channels, topology, V, cell=None, theta=None,
                     budget=False):
    """Fixed-direction counterpart of :func:`sinr_system`.

    For candidate direction sets ``V`` (C, G, A) of the network's groups,
    or of BS ``cell``'s groups, returns the users, their gains (C, U, G),
    served-group columns and noise, and the cap rows, the arguments of
    :func:`capped_least_powers` bar the targets.  A cell's noise rises by
    its incoming values on the ICI grid ``theta`` (a scalar broadcasts)
    and its outgoing ones cap it; ``budget`` adds one row sum_g p_g <=
    p_max per BS.
    """
    if cell is None:
        groups, users = range(topology.G), list(range(topology.U))
        bss, own = range(topology.B), topology.group_of_user
        gains = direction_gains(channels.h[list(topology.bs_of_group)], V)
        noise = topology.sigma2
        cap_gains, caps = np.zeros((len(V), 0, topology.G)), []
    else:
        groups, users = topology.groups_of_bs(cell), topology.users_of_bs(cell)
        others, bss = topology.out_of_cell_users(cell), [cell]
        own = [groups.index(topology.group_of_user[u]) for u in users]
        h = channels.h[cell]
        gains = direction_gains(h[users], V)
        theta = topology.ici_grid(theta)
        noise = topology.sigma2[users] + [
            sum(theta[j, u] for j in range(topology.B) if j != cell)
            for u in users]
        cap_gains = direction_gains(h[others], V)
        caps = theta[cell, others].tolist()
    if budget:
        member = [[topology.bs_of_group[g] == b for g in groups] for b in bss]
        cap_gains = np.concatenate([cap_gains, np.broadcast_to(
            member, (len(V), len(bss), len(groups)))], axis=1)
        caps = caps + [topology.p_max[b] for b in bss]
    return users, gains, own, noise, cap_gains, caps


def candidate_power_lp(channels, topology, candidates):
    """Power allocation for fixed unit-norm directions (one per group).

    Returns the per-group power dict, or None when the targets cannot be
    met along these directions.
    """
    V = np.stack([candidates[g] for g in range(topology.G)])
    p = fixed_direction_powers(channels, topology, V[None])[0]
    if not np.isfinite(p).all():
        return None
    return {g: float(p[g]) for g in range(topology.G)}


def fixed_direction_powers(channels, topology, V, cell=None, theta=None):
    """Least powers (C, G) at the users' targets of candidate sets V of
    the network, or of BS ``cell`` at its ICI values ``theta``
    (:func:`direction_system`); a cell's candidate breaking an outgoing
    cap by more than ``CAP_RTOL`` is ``inf``."""
    users, gains, own, noise, cap_gains, caps = direction_system(
        channels, topology, V, cell=cell, theta=theta)
    return capped_least_powers(gains, own, topology.gamma[users], noise,
                               cap_gains, caps, CAP_RTOL)


def randomized_solution(groups, V, powers, **fields):
    """Rank-one solution sqrt(p_g) v_g of ``groups`` at unit directions
    V (G, A) and their powers, as Gaussian randomization picks it."""
    solution = BeamformingSolution(used_randomization=True, **fields)
    for g, v, p in zip(groups, V, powers):
        solution.w[g] = np.sqrt(p) * v
        solution.p[g] = float(p)
        solution.W[g] = np.outer(solution.w[g], solution.w[g].conj())
        solution.rank[g] = 1
    return solution


def randomize_from_covariances(channels, topology, W_star, count, rng,
                               sdr_objective=None):
    """Gaussian randomization for a full-network covariance set.

    Draws ``count`` candidate direction sets, allocates each its least
    feasible powers, and keeps the feasible set with the lowest sum
    power (ties broken by candidate index).  Infeasible draws count
    against the budget.
    """
    groups = sorted(W_star.keys())
    V = np.stack([gaussian_candidates(W_star[g], count, rng)
                  for g in groups], axis=1)
    powers = fixed_direction_powers(channels, topology, V)
    totals = powers.sum(axis=1)
    if not np.isfinite(totals).any():
        raise RandomizationFailureError(
            f"all {count} randomization candidates were infeasible",
            sdr_solution=BeamformingSolution(
                W=dict(W_star), objective=sdr_objective))
    pick = int(np.argmin(totals))
    return randomized_solution(groups, V[pick], powers[pick],
                               objective=float(totals[pick]))


def finalize(W, randomize):
    """Beamformers from relaxed covariances: principal components when
    every covariance is rank one, else the caller's Gaussian
    randomization step ``randomize(W)``.

    Every design ends here.  The extracted solution carries no
    objective; the caller states what its design reports.
    """
    ranks = {g: conic.numerical_rank(M) for g, M in W.items()}
    if all(r == 1 for r in ranks.values()):
        solution = BeamformingSolution(W=dict(W), rank=ranks)
        for g, M in W.items():
            solution.w[g] = extract_rank_one(M)
            solution.p[g] = float(np.linalg.norm(solution.w[g]) ** 2)
    else:
        solution = randomize(W)
    solution.sdr_rank = ranks
    return solution


@conic.driven
def solve_centralized(channels, topology, gr_count=DEFAULT_GR_COUNT,
                      rng=None):
    """Full centralized design: SDP relaxation plus rank-one recovery.

    Returns a :class:`BeamformingSolution` whose ``objective`` is the
    achieved sum power (equal to the relaxation optimum when every
    covariance is rank one).  The relaxation optimum itself is attached
    as ``sdr_objective``.
    """
    sol, = yield [assemble_qos_sdp(channels, topology)]
    if sol.status is SolveStatus.INFEASIBLE:
        raise InfeasibleTargetsError(
            "SINR targets are infeasible for this channel realization")
    if sol.status is not SolveStatus.OPTIMAL:
        raise IndeterminateError(
            f"relaxation solve stopped with status {sol.status}")
    rng = np.random.default_rng() if rng is None else rng
    solution = finalize(
        {g: sol.matrix_values[g] for g in range(topology.G)},
        lambda W: randomize_from_covariances(
            channels, topology, W, gr_count, rng,
            sdr_objective=sol.objective))
    if not solution.used_randomization:
        solution.objective = sol.objective
    solution.sdr_objective = sol.objective
    return solution
