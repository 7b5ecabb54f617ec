"""Distributed power minimization.

Two coordination schemes over per-BS subproblems:

* primal decomposition: fix inter-cell interference (ICI) caps, solve
  BS-local SDPs, exchange the two dual prices of every directed ICI
  pair, and move the caps by a projected subgradient step; and
* ADMM consensus: give each BS local copies of every ICI value it
  touches, penalize disagreement with the global value, average the two
  copies, and update the pair's duals so they stay exact complements.

Both run one exchange (:func:`_exchange`): each round every BS sends
each peer its own values of the pairs the two of them share, through
the backhaul bus, so logged counts are the algorithm's real signaling
load.  One canonical state is updated per round; each BS's own update,
from its values and its inbox alone, is checked against it
(``replica_error``).  The special-case designs (common cap, fixed caps,
interference nulling, orthogonal access) and the distributed Gaussian
randomization live here too.  Every design is a :func:`conic.driven`
solve generator: a call solves alone, and its ``steps`` form shares its
per-BS solves with other runs' batches.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import conic
from .backhaul import MessageBus
from .conic import SolveStatus
from .errors import (CobeamError, ConfigurationError, IndeterminateError,
                     InfeasibleTargetsError, RandomizationFailureError)
from .network import (BeamformingSolution, build_topology, evaluate_sinr,
                      orthogonal_equivalent_target)
from .power_min import (DEFAULT_GR_COUNT, blind_caps, capped_least_powers,
                        direction_gains, direction_system, extract_rank_one,
                        finalize, gaussian_candidates, least_powers,
                        randomized_solution, sinr_system)

THETA_FLOOR = 1e-10
DEFAULT_RHO = 2.0
DEFAULT_STEP = 0.3
# PD and ADMM stop once their caps (and ADMM's consensus) move less
STOP_TOL = 1e-6
# ICI values come out of conic solves whose rows hold to about this
# relative accuracy, so GR candidates meet the outgoing caps to it too
CAP_RTOL = 1e-7


class IciIndex:
    """Canonical ordering of directed ICI pairs (interferer BS, user)."""

    def __init__(self, topology):
        self.topology = topology
        self.pairs = topology.ici_pairs()
        self.index = {pair: i for i, pair in enumerate(self.pairs)}

    def __len__(self):
        return len(self.pairs)

    def interferer(self, i):
        return self.pairs[i][0]

    def server(self, i):
        return self.topology.serving_bs(self.pairs[i][1])

    def side(self, i, b):
        """Row of BS b's own value of pair i: 0 interferer, 1 serving BS."""
        return 0 if self.interferer(i) == b else 1

    def touching(self, b):
        """Pair indices BS b participates in (either side)."""
        return [i for i in range(len(self.pairs))
                if self.interferer(i) == b or self.server(i) == b]

    def shared(self, a, b):
        """Pair indices owned by BSs a and b, one on each side."""
        return [i for i in self.touching(a)
                if b in (self.interferer(i), self.server(i))]


@dataclass
class IciState:
    """Coupling variables of the distributed algorithms.

    ``theta`` is the canonical per-pair ICI power; ``theta_local`` holds
    the two owners' copies (row 0 interferer, row 1 serving BS, ADMM
    only); ``lam`` / ``mu`` are the SINR-side and cap-side dual prices;
    ``nu`` the ADMM consensus duals per owner.
    """

    index: IciIndex
    theta: np.ndarray
    theta_local: np.ndarray = None
    lam: np.ndarray = None
    mu: np.ndarray = None
    nu: np.ndarray = None


@dataclass
class ConvergenceTrace:
    """Per-iteration records plus the artifacts of the final iterate."""

    algorithm: str
    rows: list = field(default_factory=list)
    extras: list = field(default_factory=list)
    solution: BeamformingSolution = None
    ici: IciState = None
    log: object = None
    best_power: float = None

    def add(self, iteration, sum_power, residual, scalars, **extra):
        self.rows.append({"iteration": iteration,
                          "sum_power": sum_power,
                          "residual": residual,
                          "scalars_exchanged": scalars})
        self.extras.append(extra)

    @property
    def iterations(self):
        return len(self.rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "iteration", "sum_power", "residual", "scalars_exchanged"])
            writer.writeheader()
            writer.writerows(self.rows)


# ---------------------------------------------------------------------------
# subproblem assembly


def assemble_subproblem(b, channels, topology, theta):
    """BS-local power-minimization SDP at fixed ICI values.

    ``theta`` maps directed pairs (j, u) to watts, covering at least the
    pairs that touch cell b.  Incoming values enter the SINR right-hand
    sides, outgoing ones cap this BS's interference (:func:`sinr_system`).
    """
    prob, slot, _ = sinr_system(channels, topology, cell=b, theta=theta)
    return prob, slot


def _cells(assembled, failure):
    """Solve generator (:mod:`.conic.schedule`) of the per-BS problems of
    ``assembled`` ({b: (problem, ...)}); returns [(assembled[b],
    solution)] in BS order.

    The first BS whose solve is not optimal raises, as a BS-by-BS loop
    would: :class:`InfeasibleTargetsError` with message
    ``failure(b, status)`` when it is infeasible, else
    :class:`IndeterminateError`.
    """
    sols = yield [parts[0] for parts in assembled.values()]
    for b, sol in zip(assembled, sols):
        if sol.status is SolveStatus.INFEASIBLE:
            raise InfeasibleTargetsError(failure(b, sol.status))
        if sol.status is not SolveStatus.OPTIMAL:
            raise IndeterminateError(
                f"solve of BS {b} stopped with status {sol.status}")
    return list(zip(assembled.values(), sols))


def _exchange(bus, index, own, tags, update, state):
    """One round of the ICI exchange; returns its scalar count and the
    largest difference between a BS's own update and the round's state.

    ``own`` (2, npairs) holds every pair's values by owner, row 0 the
    interferer's and row 1 the serving BS's.  Each BS posts each peer
    its own values of the pairs the two share, in pair order, one
    message per tag: ``tags[row]`` carries that row's values.  Each BS
    then computes ``update(values, pairs)`` over the pairs it touches
    from its own values and its inbox alone; ``state`` is the round's
    canonical update of every pair.
    """
    def carried(sender, receiver, tag):
        """(rows, pairs) of the values ``sender`` posts under ``tag``."""
        pairs = [i for i in index.shared(sender, receiver)
                 if tags[index.side(i, sender)] == tag]
        return [index.side(i, sender) for i in pairs], pairs

    for b in bus.agents:
        for peer in bus.agents:
            if peer != b:
                for tag in dict.fromkeys(tags):
                    bus.post(b, peer, tag, own[carried(b, peer, tag)])
    inboxes = bus.deliver()
    errors = []
    for b in bus.agents:
        # a value the inbox lacks stays nan, and so does the error
        view = np.full(own.shape, np.nan)
        pairs = index.touching(b)
        mine = ([index.side(i, b) for i in pairs], pairs)
        view[mine] = own[mine]
        for sender, tag, values in inboxes[b]:
            view[carried(sender, b, tag)] = values
        errors.append(np.max(np.abs(update(view[:, pairs], pairs)
                                    - state[pairs]), initial=0.0))
    return (bus.log.scalars_in_round(bus.round - 1),
            float(np.max(errors, initial=0.0)))


def extract_subgradient(problem, solution, topology, b):
    """Dual prices this BS contributes to the master subgradient.

    For a pair (j, u): the serving BS supplies lam = gamma_u times the
    dual of user u's SINR constraint (the sensitivity of its local
    optimum to any incoming ICI term), the interfering BS supplies mu,
    the dual of its cap.  s = lam - mu.
    """
    if solution.status is not SolveStatus.OPTIMAL or solution.duals is None:
        raise CobeamError("subgradient extraction needs an optimal solution "
                          "with duals")
    lam = {}
    for u in topology.users_of_bs(b):
        k = problem.constraint_index(("sinr", u))
        lam[u] = float(topology.gamma[u] * solution.duals[k])
    mu = {}
    for u in topology.out_of_cell_users(b):
        k = problem.constraint_index(("cap", (b, u)))
        mu[(b, u)] = float(solution.duals[k])
    return {"lam": lam, "mu": mu}


def master_update(theta, subgrad, iteration, step, floor=THETA_FLOOR):
    """Projected subgradient step on the ICI caps.

    ``step`` is either a fixed size or a callable schedule step(r); the
    projection clamps onto the (numerically) positive orthant at
    ``floor``.  The consensus loops raise the floor well above 1e-10:
    the cap dual grows like 1/sqrt(theta) at the boundary, so iterates
    touching a near-zero cap would pick up enormous subgradients.
    """
    size = step(iteration) if callable(step) else float(step)
    return np.maximum(theta - size * subgrad, floor)


def diminishing_step(initial):
    """Nonsummable diminishing schedule initial / sqrt(r + 1)."""
    return lambda r: initial / np.sqrt(r + 1.0)


def _theta_floor(topology):
    """Least ICI cap of PD and ADMM, 1% of the mean noise power: lower
    caps are physically irrelevant but sit on the boundary singularity
    of the cap dual, which would destabilize the updates."""
    return 1e-2 * float(np.mean(topology.sigma2))


# ---------------------------------------------------------------------------
# primal decomposition (projected subgradient master)


@conic.driven
def run_primal_decomposition(channels, topology, max_iters=100,
                             step=DEFAULT_STEP, theta0=None,
                             gr_count=DEFAULT_GR_COUNT, rng=None,
                             common_theta=False):
    """Distributed power minimization by primal decomposition.

    Each round the BSs solve their subproblems at the caps theta, swap
    the two prices of every pair they share (:func:`_exchange`), and
    move the caps by one projected subgradient step.  The best (lowest
    master objective) iterate is kept and its beamformers extracted at
    the end.  Caps never fall below :func:`_theta_floor`; the run stops
    once no cap moves by more than ``STOP_TOL``.  ``common_theta`` moves
    one cap shared by every pair along the summed prices, which each BS
    holds only at B = 2; more cells raise :class:`ConfigurationError`.
    """
    if common_theta and topology.B > 2:
        raise ConfigurationError(
            f"common_theta needs B = 2 (got B={topology.B}): no BS "
            "receives every pair's prices")
    index = IciIndex(topology)
    npairs = len(index)
    theta_floor = _theta_floor(topology)
    theta = np.full(npairs, float(np.mean(topology.sigma2)))
    if theta0 is not None:
        theta = np.broadcast_to(np.asarray(theta0, float), (npairs,)).copy()
    theta = np.maximum(theta, theta_floor)
    if common_theta and npairs:
        theta[:] = theta[0]
    users = [u for _, u in index.pairs]

    def direction(prices):
        s = prices[1] - prices[0]
        return np.full(s.size, s.sum()) if common_theta else s

    bus = MessageBus(range(topology.B))
    trace = ConvergenceTrace(algorithm="primal-decomposition")
    best = {"power": np.inf, "theta": theta.copy(), "W": None}

    for r in range(max_iters):
        assembled = {b: assemble_subproblem(
            b, channels, topology,
            {index.pairs[i]: theta[i] for i in index.touching(b)})
            for b in range(topology.B)}
        # prices by owner: row 0 the interferer's cap dual mu, row 1 the
        # serving BS's lam
        prices, lam = np.empty((2, npairs)), np.empty(topology.U)
        total_power, current_W = 0.0, {}
        for b, ((prob, slot), sol) in enumerate((yield from _cells(
                assembled, lambda b, status: f"subproblem of BS {b} "
                "infeasible at the initial ICI caps; retry with a larger "
                "theta0" if r == 0 else f"subproblem of BS {b} became "
                f"infeasible at iteration {r} (status {status})"))):
            grad = extract_subgradient(prob, sol, topology, b)
            for u, val in grad["lam"].items():
                lam[u] = val
            for pair, val in grad["mu"].items():
                prices[0, index.index[pair]] = val
            total_power += sol.objective
            current_W.update({g: sol.matrix_values[k]
                              for g, k in slot.items()})
        prices[1] = lam[users]

        theta_new = master_update(theta, direction(prices), r, step,
                                  theta_floor)
        scalars, replica_err = _exchange(
            bus, index, prices, ("dual-mu", "dual-lambda"),
            lambda own, pairs: master_update(
                theta[pairs], direction(own), r, step, theta_floor),
            theta_new)
        change = float(np.max(np.abs(theta_new - theta))) if npairs else 0.0
        if total_power < best["power"]:
            best = {"power": total_power, "theta": theta.copy(),
                    "W": current_W, "lam": prices[1], "mu": prices[0]}
        trace.add(r, total_power, change, scalars,
                  replica_error=replica_err,
                  best_power=best["power"],
                  min_sinr_margin=_rank_one_margin(
                      channels, topology, current_W))
        theta = theta_new
        if change <= STOP_TOL:
            break

    trace.best_power = best["power"]
    trace.ici = IciState(index=index, theta=best["theta"],
                         lam=best.get("lam"), mu=best.get("mu"))
    theta_map = {index.pairs[i]: best["theta"][i] for i in range(npairs)}
    trace.solution = _finalize(channels, topology, best["W"],
                               dict.fromkeys(range(topology.B), theta_map),
                               gr_count, rng, bus=bus)
    trace.log = bus.log
    return trace


def _rank_one_margin(channels, topology, W_by_group):
    """min_u SINR(u)/gamma_u - 1 for eigen-extracted beams, or None."""
    if W_by_group is None:
        return None
    sol = BeamformingSolution()
    for g, W in W_by_group.items():
        if conic.numerical_rank(W) > 1:
            return None
        sol.w[g] = extract_rank_one(W)
    margins = [evaluate_sinr(channels, sol, u, topology) / topology.gamma[u]
               - 1.0 for u in range(topology.U)]
    return float(min(margins))


def _finalize(channels, topology, W, theta, gr_count, rng, bus=None):
    """Rank-one extraction, else distributed GR at each BS b's ICI values
    ``theta[b]`` (pair -> watts).

    With a bus, every BS first broadcasts one bit: whether all of its
    covariances are rank one.  An extracted design reports its sum power.
    """
    if bus is not None:
        for b in range(topology.B):
            all_one = all(conic.numerical_rank(W[g]) == 1
                          for g in topology.groups_of_bs(b))
            bus.post(b, None, "rank-bit", [1.0 if all_one else 0.0])
        bus.deliver()
    rng = np.random.default_rng() if rng is None else rng
    solution = finalize(W, lambda W: distributed_gaussian_randomization(
        channels, topology, W, theta, gr_count, rng, bus=bus))
    if not solution.used_randomization:
        solution.objective = sum(solution.p.values())
    return solution


# ---------------------------------------------------------------------------
# ADMM consensus


def assemble_admm_local(b, channels, topology, theta_global, nu_b, rho,
                        index=None):
    """BS-local augmented-Lagrangian step.

    Variables: this BS's covariances plus one nonnegative local copy per
    ICI pair touching the cell (both directions).  The disagreement
    penalty contributes rho/2 per squared copy on the quadratic diagonal
    and nu - rho * theta_global on the linear part.  Copy variables are
    keyed by pair index.
    """
    if index is None:
        index = IciIndex(topology)
    copies = {index.pairs[i]: (float(nu_b[i] - rho * theta_global[i]),
                               rho / 2.0) for i in index.touching(b)}
    prob, slot, copy_slot = sinr_system(channels, topology, cell=b,
                                        copies=copies)
    return prob, slot, {index.index[pair]: j
                        for pair, j in copy_slot.items()}


def admm_global_update(theta_local_pair):
    """Consensus value: arithmetic mean of the two owners' copies.

    The dual terms cancel exactly because paired duals are complements,
    leaving theta = (copy_interferer + copy_server) / 2.
    """
    pair = np.asarray(theta_local_pair, dtype=float)
    return 0.5 * (pair[0] + pair[1])


def admm_pair_dual_update(nu_pair, copies_pair, rho):
    """Both owners' dual updates at once; pair sums stay exactly zero."""
    nu_pair = np.asarray(nu_pair, dtype=float)
    copies = np.asarray(copies_pair, dtype=float)
    delta = 0.5 * rho * (copies[0] - copies[1])
    return np.array([nu_pair[0] + delta, nu_pair[1] - delta])


@conic.driven
def run_admm(channels, topology, max_iters=100, rho=DEFAULT_RHO,
             gr_count=DEFAULT_GR_COUNT, rng=None):
    """Distributed power minimization by ADMM consensus.

    Per iteration: the B local solves, one exchange of local copies,
    the global average, and the exactly-complementary dual update.
    Stops when both the consensus residual and the dual residual
    rho * |theta change| fall below ``STOP_TOL``; the consensus residual
    alone can be small long before the caps stop moving.  The
    returned solution is restored at the final global ICI values, floored
    at :func:`_theta_floor`, so it is feasible for the true coupled
    problem.
    """
    index = IciIndex(topology)
    npairs = len(index)
    theta = np.full(npairs, float(np.mean(topology.sigma2)))
    # owner rows: 0 interferer, 1 serving BS
    nu = np.zeros((2, npairs))
    copies = np.zeros((2, npairs))
    bus = MessageBus(range(topology.B))
    trace = ConvergenceTrace(algorithm="admm")

    for it in range(max_iters):
        total_power = 0.0
        assembled = {b: assemble_admm_local(
            b, channels, topology, theta,
            {i: nu[index.side(i, b), i] for i in index.touching(b)}, rho,
            index=index)
            for b in range(topology.B)}
        for b, ((_, slot, copy_slot), sol) in enumerate((yield from _cells(
                assembled, lambda b, status: f"ADMM local problem of BS {b} "
                f"failed at iteration {it} (status {status})"))):
            for k in slot.values():
                total_power += float(np.real(np.trace(sol.matrix_values[k])))
            for i, j in copy_slot.items():
                copies[index.side(i, b), i] = sol.scalar_values[j]

        theta_new = admm_global_update(copies)
        nu = admm_pair_dual_update(nu, copies, rho)
        scalars, replica_err = _exchange(
            bus, index, copies, ("local-copy", "local-copy"),
            lambda own, _: admm_global_update(own), theta_new)
        residual = float(np.max(np.abs(copies - theta_new[None, :]))) \
            if npairs else 0.0
        dual_residual = rho * float(np.max(np.abs(theta_new - theta))) \
            if npairs else 0.0
        trace.add(it, total_power, residual, scalars,
                  dual_residual=dual_residual,
                  replica_error=replica_err,
                  nu_pair_sum=float(np.max(np.abs(nu.sum(axis=0))))
                  if npairs else 0.0)
        theta = theta_new
        if residual <= STOP_TOL and dual_residual <= STOP_TOL:
            break

    # restore a network-feasible solution at the final global values;
    # caps are floored away from the boundary singularity
    theta_floor = _theta_floor(topology)
    theta_by_bs = dict.fromkeys(range(topology.B), {
        index.pairs[i]: max(theta[i], theta_floor) for i in range(npairs)})
    restored = yield from _fixed_ici(channels, topology, theta_by_bs,
                                     _unrestorable)
    trace.ici = IciState(index=index, theta=theta.copy(),
                         theta_local=copies.copy(), nu=nu.copy())
    trace.solution = _finalize(channels, topology, restored, theta_by_bs,
                               gr_count, rng, bus=bus)
    trace.log = bus.log
    trace.best_power = trace.solution.objective
    return trace


@conic.driven
def admm_feasibility_restore(b, channels, topology, theta_global):
    """Feasible BS-b beamformers at the current global ICI values.

    Pins the local copies to the global values, which reduces the
    augmented local problem to the fixed-cap subproblem.
    """
    ((_, slot), sol), = yield from _cells(
        {b: assemble_subproblem(b, channels, topology, theta_global)},
        _unrestorable)
    out = BeamformingSolution(objective=sol.objective)
    for g, k in slot.items():
        out.W[g] = sol.matrix_values[k]
        out.rank[g] = conic.numerical_rank(sol.matrix_values[k])
    return out


def _unrestorable(b, _):
    return f"restoration at BS {b} infeasible for the current global ICI " \
        "values"


# ---------------------------------------------------------------------------
# distributed Gaussian randomization (fixed ICI values)


def local_randomization_lp(b, channels, topology, candidates_b, theta):
    """Power LP of one BS for one candidate set, ICI values fixed.

    Returns per-group powers or None when this draw cannot meet the
    targets under the caps.
    """
    groups = topology.groups_of_bs(b)
    V = np.stack([candidates_b[g] for g in groups])
    p = _local_least_powers(b, channels, topology, V[None], theta)[0]
    if not np.isfinite(p).all():
        return None
    return {g: float(p[i]) for i, g in enumerate(groups)}


def _local_least_powers(b, channels, topology, V, theta):
    """Least powers (C, G_b) of BS b's power LPs for candidate sets V.

    In-cell users see their noise raised by the incoming ICI values; a
    candidate whose least point breaks an outgoing cap by more than
    ``CAP_RTOL`` is ``inf``.
    """
    users, gains, own, noise, cap_gains, caps = direction_system(
        channels, topology, V, cell=b, theta=theta)
    return capped_least_powers(gains, own, topology.gamma[users], noise,
                               cap_gains, caps, CAP_RTOL)


def distributed_gaussian_randomization(channels, topology, W_star, theta,
                                       count, rng, bus=None):
    """Network-wide randomization with only per-candidate exchanges.

    ``theta`` maps each BS b to its ICI values (pair -> watts).  Each BS
    draws candidates from its own covariances, gives each its least
    local powers at ``theta[b]``, and broadcasts its per-candidate
    totals (``gr-power``); all BSs then pick the same globally cheapest
    index.

    When no index is feasible at every BS, the fixed values were too
    tight for these draws, though the coupled network may still serve
    some of them.  Then each BS broadcasts the gains |h_{b,u}^H v_g|^2
    of its draws at every user (``gr-gain``, C U G_b scalars), every BS
    computes the same coupled least powers (:func:`least_powers`) and
    they pick the cheapest feasible index, lowest on ties; the solution
    has ``gr_fallback`` set.  Raises :class:`RandomizationFailureError`
    only when no index is feasible network-wide.
    """
    if bus is None:
        bus = MessageBus(range(topology.B))
    seeds = rng.spawn(topology.B) if hasattr(rng, "spawn") \
        else [np.random.default_rng(rng.integers(2 ** 63))
              for _ in range(topology.B)]
    per_bs = {}
    totals = np.zeros((topology.B, count))
    for b in range(topology.B):
        groups = topology.groups_of_bs(b)
        V = np.stack([np.reshape(gaussian_candidates(W_star[g], count,
                                                     seeds[b]),
                                 (count, len(W_star[g]))) for g in groups],
                     axis=1)
        powers = _local_least_powers(b, channels, topology, V, theta[b])
        totals[b] = powers.sum(axis=1)
        per_bs[b] = (V, powers)
        bus.post(b, None, "gr-power",
                 np.where(np.isfinite(totals[b]), totals[b], 1e300))
    bus.deliver()

    network = totals.sum(axis=0)
    fallback = not np.isfinite(network).any()
    if fallback:
        gains = np.zeros((count, topology.U, topology.G))
        for b, (V, _) in per_bs.items():
            groups = topology.groups_of_bs(b)
            gains[:, :, groups] = direction_gains(channels.h[b], V)
            bus.post(b, None, "gr-gain", gains[:, :, groups].ravel())
        bus.deliver()
        coupled = least_powers(gains, topology.group_of_user, topology.gamma,
                               topology.sigma2)
        network = coupled.sum(axis=1)
        if not np.isfinite(network).any():
            raise RandomizationFailureError(
                f"no candidate index feasible network-wide ({count} drawn)")
        per_bs = {b: (V, coupled[:, topology.groups_of_bs(b)])
                  for b, (V, _) in per_bs.items()}
    pick = int(np.argmin(network))
    directions, powers = {}, {}
    for b in range(topology.B):
        V, P = per_bs[b]
        for i, g in enumerate(topology.groups_of_bs(b)):
            directions[g], powers[g] = V[pick, i], P[pick, i]
    return randomized_solution(directions, powers,
                               objective=float(network[pick]),
                               gr_fallback=fallback)


# ---------------------------------------------------------------------------
# special-case designs (fixed caps, nulling, orthogonal access)


@conic.driven
def solve_fixed_ici(channels, topology, theta_value,
                    gr_count=DEFAULT_GR_COUNT, rng=None):
    """One-shot per-cell design with predefined ICI caps, no signaling."""
    theta = dict.fromkeys(range(topology.B), dict.fromkeys(
        topology.ici_pairs(), float(theta_value)))
    W = yield from _fixed_ici(
        channels, topology, theta, lambda b, _: f"fixed-cap subproblem of "
        f"BS {b} infeasible at theta={theta_value}")
    return _finalize(channels, topology, W, theta, gr_count, rng)


def _fixed_ici(channels, topology, theta_by_bs, failure):
    """Solve generator of every cell's design at its fixed ICI values
    ``theta_by_bs[b]`` (pair -> watts, :func:`assemble_subproblem`);
    returns every group's covariance.  ``failure`` as in :func:`_cells`."""
    solved = yield from _cells(
        {b: assemble_subproblem(b, channels, topology, theta_by_bs[b])
         for b in range(topology.B)}, failure)
    return {g: sol.matrix_values[k] for (_, slot), sol in solved
            for g, k in slot.items()}


def _null_space_basis(channels, topology, b):
    """Orthonormal basis of the directions invisible to other cells.

    Beams w with h^H w = 0 for every out-of-cell channel h, i.e. the
    null space of the stacked conjugated channels.
    """
    rows = [channels.vec(b, u).conj() for u in topology.out_of_cell_users(b)]
    if not rows:
        return np.eye(topology.A, dtype=complex)
    stack = np.array(rows)
    _, s, vh = np.linalg.svd(stack)
    rank = int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0)))
    return vh[rank:].conj().T


@conic.driven
def solve_nulling(channels, topology, gr_count=DEFAULT_GR_COUNT, rng=None):
    """Zero-forcing toward other cells: beams in the cross-channel null
    space, then a per-cell QoS design in the reduced space.

    Any covariance with exactly zero leakage has its range inside the
    null space, so the reduction is lossless.
    """
    assembled = {}
    for b in range(topology.B):
        basis = _null_space_basis(channels, topology, b)
        if basis.shape[1] == 0:
            break
        assembled[b] = sinr_system(channels, topology, cell=b,
                                   basis=basis)[:2] + (basis,)
    # the cells before one that cannot null report their failures first
    solved = yield from _cells(
        assembled, lambda b, _: f"nulling design infeasible at BS {b}")
    if len(assembled) < topology.B:
        raise InfeasibleTargetsError(f"BS {len(assembled)} lacks antennas "
                                     "to null all out-of-cell users")
    combined = {g: basis @ sol.matrix_values[k] @ basis.conj().T
                for (_, slot, basis), sol in solved for g, k in slot.items()}
    zero = dict.fromkeys(topology.ici_pairs(), 0.0)
    return _finalize(channels, topology, combined,
                     dict.fromkeys(range(topology.B), zero), gr_count, rng)


@conic.driven
def solve_orthogonal(channels, topology, gr_count=DEFAULT_GR_COUNT,
                     rng=None):
    """Per-cell design with orthogonal (time/frequency) access.

    Each cell optimizes alone with no inter-cell interference, but the
    SINR targets rise to (1 + gamma)^B - 1 to deliver the same rates in
    a 1/B share of the resources.  The reported objective is the sum of
    the per-slot transmit powers.
    """
    gamma_orth = orthogonal_equivalent_target(topology.gamma, topology.B)
    topo_orth = build_topology(
        B=topology.B, G=topology.G, U=topology.U, A=topology.A,
        gamma=gamma_orth, sigma2=topology.sigma2, p_max=topology.p_max,
        cell_separation=topology.cell_separation)
    blind = {b: blind_caps(topo_orth, b) for b in range(topology.B)}
    W = yield from _fixed_ici(
        channels, topo_orth, blind, lambda b, _: f"orthogonal-access design "
        f"infeasible at BS {b} (raised target "
        f"{float(np.max(gamma_orth)):.3g})")
    return _finalize(channels, topo_orth, W, blind, gr_count, rng)
