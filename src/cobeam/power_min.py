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
from .errors import (ConfigurationError, IndeterminateError,
                     InfeasibleTargetsError, RandomizationFailureError)
from .network import BeamformingSolution

DEFAULT_GR_COUNT = 100
MAX_POLICY_ROUNDS = 50     # least_powers settles in a handful of rounds
POLICY_RTOL = 1e-12        # demand margin that switches a binding user
SINR_RTOL = 1e-9           # slack of the closing SINR check
# ICI values come out of conic solves whose rows hold to about this
# relative accuracy, so GR candidates meet the outgoing caps to it too
CAP_RTOL = 1e-7
# singular values of a channel stack below this times the largest are
# roundoff (:func:`channel_span`)
SPAN_RTOL = 1e-12


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
    span(basis) by projecting channels.

    Each BS's groups are also confined to the span of its channels toward
    the users whose rows read them, when those users are fewer than the
    dimensions (:func:`_span_basis`): every user for the network, a
    cell's own users and, with cap rows, its out-of-cell users.  A
    covariance enters the rows only through those channels and its trace,
    so projecting it onto their span keeps every row and lowers no trace
    bound: the feasible levels, the optimum and the ranks stay.  The
    problem's ``bases`` hold each variable's basis, and
    :func:`covariances` lifts a solution back to antenna space.

    The matrix variables are the groups in scope in
    :meth:`Topology.groups_of_bs` order.  Rows come in three row
    families (:meth:`ConicProblem.add_constraints`), SINR, cap and
    budget; the SINR family's -t H blocks are formed as -t times H, then
    validated (their Hermitian part) and, when compiled, halved and
    packed.  Returns the problem and the (B, U) grid of copy variables,
    -1 where a pair has none.  :func:`sinr_update` gives a built problem
    a new ``level``, ``theta`` or ``copies``.
    """
    channels.check_shape(topology)
    groups = range(topology.G) if cell is None \
        else topology.groups_of_bs(cell)
    users = list(range(topology.U)) if cell is None \
        else topology.users_of_bs(cell)
    rhs, linear = _sinr_data(topology, cell, theta, copies)
    rhs = rhs(level)
    # one cap row per right-hand side left, none without ICI
    out = topology.out_of_cell_users(cell) if len(rhs) > len(users) else []
    span = {b: _span_basis(channels.h[b, users + out], basis)
            for b in {topology.bs_of_group[g] for g in groups}}
    prob = ConicProblem(bases=[span[topology.bs_of_group[g]]
                               for g in groups])
    dims = [topology.A if Q is None else Q.shape[1] for Q in prob.bases]
    for g, dim in zip(groups, dims):
        prob.add_psd_var(dim, name=f"W{g}")
    copy_slot = np.full((topology.B, topology.U), -1)
    if copies is not None:
        for j, u in zip(*np.nonzero(topology.ici_owned(cell).any(axis=0))):
            copy_slot[j, u] = prob.add_scalar_var(name=f"theta~({j}, {u})")
    if objective:
        prob.set_objective(matrix={k: np.eye(dim)
                                   for k, dim in enumerate(dims)},
                           scalar=linear,
                           scalar_quad=dict.fromkeys(linear, copies[1])
                           if copies is not None else None)

    mats, scalars = _sinr_rows(channels, topology, cell, level, prob.bases,
                               copies)
    prob.add_constraints(matrix=mats, scalars=scalars, rel=">=",
                         rhs=rhs[:len(users)],
                         labels=[("sinr", u) for u in users])
    if out:
        prob.add_constraints(
            matrix=dict.fromkeys(range(len(groups)), (range(len(out)),
                                 _outer(channels, cell, out, span[cell]))),
            scalars={copy_slot[cell, u]: ([r], [-1.0])
                     for r, u in enumerate(out)}
            if copies is not None else None,
            rel="<=", rhs=rhs[len(users):],
            labels=[("cap", (cell, u)) for u in out])
    if budget:
        bss = range(topology.B) if cell is None else [cell]
        prob.add_constraints(
            matrix={k: ([bss.index(topology.bs_of_group[g])],
                        np.eye(dim)[None])
                    for k, (g, dim) in enumerate(zip(groups, dims))},
            rel="<=", rhs=topology.p_max[list(bss)],
            labels=[("power", b) for b in bss])
    return prob, copy_slot


def _outer(channels, b, users, basis):
    """The (len(users), d, d) stack of BS b's channel outer products
    toward ``users``, in ``basis`` (None: antenna space)."""
    if basis is None:
        return channels.outer[b, users]
    h = np.matvec(basis.conj().T, channels.h[b, users])
    return h[:, :, None] * h.conj()[:, None, :]


def _sinr_rows(channels, topology, cell, level, bases, copies):
    """The coefficients of :func:`sinr_system`'s SINR family, a row per
    user in scope, in the variables' ``bases``: a served group's block
    is H, any other's -t H, and with ``copies`` the user's incoming ICI
    copies carry -t.  Returns (matrix, scalars) in the form of
    :meth:`ConicProblem.add_constraints`."""
    groups = range(topology.G) if cell is None \
        else topology.groups_of_bs(cell)
    users = list(range(topology.U)) if cell is None \
        else topology.users_of_bs(cell)
    t = topology.gamma[users] if level is None \
        else np.full(len(users), level, dtype=float)
    serving = np.take(topology.group_of_user, users)[:, None, None]
    mats = {}
    for k, (g, basis) in enumerate(zip(groups, bases)):
        H = _outer(channels, topology.bs_of_group[g], users, basis)
        mats[k] = (range(len(users)),
                   np.where(serving == g, H, -t[:, None, None] * H))
    if copies is None:
        return mats, None
    # the copy variables in sinr_system's order
    owned = zip(*np.nonzero(topology.ici_owned(cell).any(axis=0)))
    slot = {pair: s for s, pair in enumerate(owned)}
    return mats, {slot[j, u]: ([r], [-t[r]]) for r, u in enumerate(users)
                  for j in range(topology.B) if j != cell}


def channel_span(rows):
    """The right singular vectors vh of stacked channel rows (n, A) and
    their numerical rank r, the count of singular values above
    ``SPAN_RTOL`` times the largest: vh[:r] spans the rows, vh[r:] is
    orthogonal to them."""
    _, s, vh = np.linalg.svd(rows)
    return vh, int(np.sum(s > SPAN_RTOL * (s[0] if s.size else 1.0)))


def _span_basis(h, basis=None):
    """The basis of a BS's covariances: ``basis`` (A, k), the identity
    at None, narrowed to the span of its channels h (n, A) seen through
    it when they are fewer than k (:func:`channel_span`; zero channels
    narrow nothing).  Each channel is a combination of the rows vh[:r],
    so their span has the orthonormal basis vh[:r].T, not its
    conjugate."""
    if basis is not None:
        h = np.matvec(basis.conj().T, h)
    if len(h) >= h.shape[1]:
        return basis
    vh, rank = channel_span(h)
    if rank == 0:
        return basis
    return vh[:rank].T if basis is None else basis @ vh[:rank].T


def covariances(prob, sol):
    """The covariance stack (n, A, A) of a solution ``sol`` of a
    :func:`sinr_system` problem ``prob``: each variable X lifted to
    Q X Q^H at its basis Q."""
    return np.stack([X if Q is None else Q @ X @ Q.conj().T
                     for X, Q in zip(sol.matrix_values, prob.bases)])


def _sinr_data(topology, cell, theta, copies):
    """The right-hand sides of :func:`sinr_system`'s SINR and cap rows,
    in order, as a function of the level (None: each user's target), and
    its copy variables' linear weights {slot: weight}; the ICI grid is
    read once, into each SINR row's noise plus ICI and the caps."""
    users = range(topology.U) if cell is None else topology.users_of_bs(cell)
    peers = [j for j in range(topology.B) if j != cell]
    ici = cell is not None and (theta is not None or copies is not None)
    grid = topology.ici_grid(theta).tolist() \
        if ici and copies is None else None
    noise = [topology.sigma2[u] + (sum(grid[j][u] for j in peers)
                                   if grid else 0) for u in users]
    caps = [0.0 if grid is None else grid[cell][u]
            for u in topology.out_of_cell_users(cell)] if ici else []

    def rhs(level):
        return [(topology.gamma[u] if level is None else level) * n
                for u, n in zip(users, noise)] + caps
    if copies is None:
        return rhs, {}
    js, us = np.nonzero(topology.ici_owned(cell).any(axis=0))
    return rhs, dict(enumerate(copies[0][js, us].tolist()))


def sinr_update(prob, channels, topology, cell, level=None, theta=None,
                copies=None):
    """The problem ``prob`` of :func:`sinr_system` (BS ``cell``'s, the
    network's at None) at new ``level``, ``theta`` or ``copies``
    (:func:`sinr_levels`)."""
    return sinr_levels(prob, channels, topology, cell, theta, copies)(level)


def sinr_levels(prob, channels, topology, cell, theta=None, copies=None):
    """``prob`` of :func:`sinr_system` at ``theta`` or ``copies`` as a
    function of the level, with new right-hand sides and linear costs
    (:meth:`ConicProblem.updated`), their fixed part built once.  Where
    a level also scales -t H blocks (of several groups) or the -t
    weights of copies, its SINR family is built anew in ``prob``'s
    bases, as :func:`sinr_system` builds it, and its solve compiles
    anew; every other family keeps its coefficients."""
    rhs, linear = _sinr_data(topology, cell, theta, copies)

    def at(level):
        coeffs = {0: _sinr_rows(channels, topology, cell, level, prob.bases,
                                copies)} if level is not None and (
            len(prob.matrix_vars) > 1 or copies is not None) else None
        return prob.updated(rhs(level), linear, coeffs=coeffs)
    return at


def assemble_qos_sdp(channels, topology):
    """QoS power-minimization SDP over all groups (:func:`sinr_system`)."""
    return sinr_system(channels, topology)[0]


def extract_rank_one(W):
    """Principal-component beamformer when W is numerically rank one, or
    one per covariance of a stack."""
    val, vec = conic.principal_eigenpair(W)
    return np.sqrt(np.maximum(val, 0.0))[..., None] * vec


def check_gr_count(count):
    """Raise :class:`ConfigurationError` unless ``count``, a design's
    ``gr_count``, is an integer >= 0, not a bool.  Every randomizing
    design checks it where it starts, since a design whose relaxation
    is rank one never draws."""
    if isinstance(count, bool) or not isinstance(
            count, (int, np.integer)) or count < 0:
        raise ConfigurationError(
            f"gr_count must be an integer >= 0 (got {count!r})")


def gaussian_candidates(W_star, count, rng):
    """Unit-norm candidate beamformers drawn from CN(0, W*), (count, dim).

    Raw draws are L z with L a PSD square root of W* and z standard
    complex normal, then normalized to unit power.  One block of normals
    gives the same stream as drawing each candidate's real part, then its
    imaginary part, in turn; an empty draw takes nothing from ``rng``.
    ``count`` is a design's ``gr_count`` (:func:`check_gr_count`).
    """
    check_gr_count(count)
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
    channels.check_shape(topology)
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
    rhs = _sinr_data(topology, cell, theta, None)[0](1.0)
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
    check_gr_count(gr_count)
    prob = assemble_qos_sdp(channels, topology)
    sol, = yield [prob]
    if sol.status is SolveStatus.INFEASIBLE:
        raise InfeasibleTargetsError(
            "SINR targets are infeasible for this channel realization")
    if sol.status is not SolveStatus.OPTIMAL:
        raise IndeterminateError(
            f"relaxation solve stopped with status {sol.status}")
    rng = np.random.default_rng(rng)
    solution = finalize(
        covariances(prob, sol),
        lambda W: randomize_from_covariances(
            channels, topology, W, gr_count, rng,
            sdr_objective=sol.objective))
    if not solution.used_randomization:
        solution.objective = sol.objective
    solution.sdr_objective = sol.objective
    return solution
