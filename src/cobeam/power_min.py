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
    noise, outgoing ones cap Tr(H_{b,u} sum_g W_g) <= theta[b, u]; at None
    the cell sees no ICI.  ``copies`` (a (B, U) grid of linear weights, one
    quadratic weight) instead makes every ICI value touching the cell a
    local scalar variable with those ADMM objective weights, one per pair
    in row-major order.  ``budget`` adds sum_g Tr(W_g) <= p_max per BS;
    ``objective`` minimizes the sum of traces (else the problem is a
    feasibility check); ``basis`` confines a cell's covariances to
    span(basis) by projecting channels.  The matrix variables are the
    groups in scope in :meth:`Topology.groups_of_bs` order, so a solution's
    covariances are ``np.stack(sol.matrix_values)``.  Rows come in the
    order SINR, cap, budget.  Returns the problem and the (B, U) grid of
    copy variables, -1 where a pair has none.  :func:`sinr_update` gives
    a built cell new ``level``, ``theta`` or ``copies``.
    """
    groups = range(topology.G) if cell is None \
        else topology.groups_of_bs(cell)
    users = range(topology.U) if cell is None else topology.users_of_bs(cell)
    dim = topology.A if basis is None else basis.shape[1]
    peers = [j for j in range(topology.B) if j != cell]
    prob = ConicProblem()
    for g in groups:
        prob.add_psd_var(dim, name=f"W{g}")
    copy_slot = np.full((topology.B, topology.U), -1)
    rhs, linear = _sinr_data(topology, cell, level, theta, copies)
    if copies is not None:
        for j, u in zip(*np.nonzero(topology.ici_owned(cell).any(axis=0))):
            copy_slot[j, u] = prob.add_scalar_var(name=f"theta~({j}, {u})")
    if objective:
        prob.set_objective(matrix={k: np.eye(dim)
                                   for k in range(len(groups))},
                           scalar=linear,
                           scalar_quad=dict.fromkeys(linear, copies[1])
                           if copies is not None else None)
    # nested lists: the rows below read single entries
    slots = copy_slot.tolist()

    def channel(b, u):
        if basis is None:
            return channels.mat(b, u)
        h = basis.conj().T @ channels.vec(b, u)
        return np.outer(h, h.conj())

    rhs = iter(rhs)
    for u in users:
        t = topology.gamma[u] if level is None else level
        mats = {}
        for k, g in enumerate(groups):
            H = channel(topology.bs_of_group[g], u)
            mats[k] = H if g == topology.group_of_user[u] else -t * H
        scalars = {slots[j][u]: -t for j in peers} \
            if copies is not None else None
        prob.add_constraint(matrix=mats, scalars=scalars, rel=">=",
                            rhs=next(rhs), label=("sinr", u))
    # one cap row per right-hand side left, none without ICI
    for u, cap in zip(topology.out_of_cell_users(cell), rhs):
        prob.add_constraint(
            matrix={k: channel(cell, u) for k in range(len(groups))},
            scalars={slots[cell][u]: -1.0} if copies is not None else None,
            rel="<=", rhs=cap, label=("cap", (cell, u)))
    if budget:
        for b in range(topology.B) if cell is None else [cell]:
            prob.add_constraint(
                matrix={k: np.eye(dim) for k, g in enumerate(groups)
                        if topology.bs_of_group[g] == b},
                rel="<=", rhs=float(topology.p_max[b]), label=("power", b))
    return prob, copy_slot


def _sinr_data(topology, cell, level, theta, copies):
    """The right-hand sides of :func:`sinr_system`'s SINR and cap rows,
    in order, and its copy variables' linear weights {slot: weight}."""
    users = range(topology.U) if cell is None else topology.users_of_bs(cell)
    peers = [j for j in range(topology.B) if j != cell]
    ici = cell is not None and (theta is not None or copies is not None)
    grid = topology.ici_grid(theta).tolist() \
        if ici and copies is None else None
    rhs = []
    for u in users:
        t = topology.gamma[u] if level is None else level
        incoming = sum(grid[j][u] for j in peers) if grid else 0
        rhs.append(t * (topology.sigma2[u] + incoming))
    if ici:
        rhs += [0.0 if grid is None else grid[cell][u]
                for u in topology.out_of_cell_users(cell)]
    if copies is None:
        return rhs, {}
    js, us = np.nonzero(topology.ici_owned(cell).any(axis=0))
    return rhs, dict(enumerate(copies[0][js, us].tolist()))


def sinr_update(prob, topology, cell, level=None, theta=None, copies=None):
    """BS ``cell``'s problem ``prob`` of :func:`sinr_system` at new
    ``level``, ``theta`` or ``copies``, whose right-hand sides and linear
    costs alone change (:meth:`ConicProblem.updated`); a level also
    scales the -t H blocks of a cell of several groups."""
    return prob.updated(*_sinr_data(topology, cell, level, theta, copies))


def assemble_qos_sdp(channels, topology):
    """QoS power-minimization SDP over all groups (:func:`sinr_system`)."""
    return sinr_system(channels, topology)[0]


def extract_rank_one(W):
    """Principal-component beamformer when W is numerically rank one, or
    one per covariance of a stack."""
    val, vec = conic.principal_eigenpair(W)
    return np.sqrt(np.maximum(val, 0.0))[..., None] * vec


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
    and its outgoing ones cap it; at ``theta`` None it sees no ICI.
    ``budget`` adds one row sum_g p_g <= p_max per BS.
    """
    if cell is None:
        groups, users = range(topology.G), list(range(topology.U))
        bss, own = range(topology.B), topology.group_of_user
        gains = direction_gains(channels.h[list(topology.bs_of_group)], V)
    else:
        groups, users = topology.groups_of_bs(cell), topology.users_of_bs(cell)
        bss = [cell]
        own = [groups.index(topology.group_of_user[u]) for u in users]
        gains = direction_gains(channels.h[cell, users], V)
    # at level 1 the SINR rows' right-hand sides are the noise plus ICI
    rhs = _sinr_data(topology, cell, 1.0, theta, None)[0]
    noise, caps = np.array(rhs[:len(users)]), rhs[len(users):]
    cap_gains = direction_gains(channels.h[
        cell, topology.out_of_cell_users(cell)], V) if caps \
        else np.zeros((len(V), 0, len(groups)))
    if budget:
        member = [[topology.bs_of_group[g] == b for g in groups] for b in bss]
        cap_gains = np.concatenate([cap_gains, np.broadcast_to(
            member, (len(V), len(bss), len(groups)))], axis=1)
        caps = caps + [topology.p_max[b] for b in bss]
    return users, gains, own, noise, cap_gains, caps


def candidate_power_lp(channels, topology, candidates):
    """Power allocation for fixed unit-norm directions, (G, A), one per
    group.

    Returns the (G,) powers, or None when the targets cannot be met
    along these directions.
    """
    p = fixed_direction_powers(channels, topology,
                               np.asarray(candidates)[None])[0]
    return p if np.isfinite(p).all() else None


def fixed_direction_powers(channels, topology, V, cell=None, theta=None):
    """Least powers (C, G) at the users' targets of candidate sets V of
    the network, or of BS ``cell`` at its ICI values ``theta``
    (:func:`direction_system`); a cell's candidate breaking an outgoing
    cap by more than ``CAP_RTOL`` is ``inf``."""
    users, gains, own, noise, cap_gains, caps = direction_system(
        channels, topology, V, cell=cell, theta=theta)
    return capped_least_powers(gains, own, topology.gamma[users], noise,
                               cap_gains, caps, CAP_RTOL)


def randomized_solution(V, powers, **fields):
    """Rank-one solution sqrt(p_g) v_g at unit directions V (n, A) and
    their (n,) powers, as Gaussian randomization picks it."""
    p = np.asarray(powers, dtype=float)
    w = np.sqrt(p)[:, None] * V
    return BeamformingSolution(
        W=w[:, :, None] * w.conj()[:, None, :], w=w, p=p,
        rank=np.ones(len(p), dtype=int), used_randomization=True, **fields)


def randomize_from_covariances(channels, topology, W_star, count, rng,
                               sdr_objective=None):
    """Gaussian randomization for the network's covariances W_star
    (G, A, A).

    Draws ``count`` candidate direction sets, allocates each its least
    feasible powers, and keeps the feasible set with the lowest sum
    power (ties broken by candidate index).  Infeasible draws count
    against the budget.
    """
    V = np.stack([gaussian_candidates(W, count, rng) for W in W_star],
                 axis=1)
    powers = fixed_direction_powers(channels, topology, V)
    totals = powers.sum(axis=1)
    if not np.isfinite(totals).any():
        raise RandomizationFailureError(
            f"all {count} randomization candidates were infeasible",
            sdr_solution=BeamformingSolution(
                W=W_star, objective=sdr_objective))
    pick = int(np.argmin(totals))
    return randomized_solution(V[pick], powers[pick],
                               objective=float(totals[pick]))


def finalize(W, randomize):
    """Beamformers from relaxed covariances, a stack W (n, A, A):
    principal components when every covariance is rank one, else the
    caller's Gaussian randomization step ``randomize(W)``.

    Every design ends here.  The extracted solution carries no
    objective; the caller states what its design reports.
    """
    ranks = conic.numerical_rank(W)
    if (ranks == 1).all():
        w = extract_rank_one(W)
        # one norm per beam: the stacked norm differs in the last bits
        p = np.array([float(np.linalg.norm(v) ** 2) for v in w])
        solution = BeamformingSolution(W=W, w=w, p=p, rank=ranks)
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
        np.stack(sol.matrix_values),
        lambda W: randomize_from_covariances(
            channels, topology, W, gr_count, rng,
            sdr_objective=sol.objective))
    if not solution.used_randomization:
        solution.objective = sol.objective
    solution.sdr_objective = sol.objective
    return solution
