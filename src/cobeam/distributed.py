"""Distributed power minimization.

Two coordination schemes over per-BS subproblems:

* primal decomposition: fix inter-cell interference (ICI) caps, solve
  BS-local SDPs, exchange the two dual prices of every directed ICI
  pair, and move the caps by a projected subgradient step; and
* ADMM consensus: give each BS local copies of every ICI value it
  touches, penalize disagreement with the global value, average the two
  copies, and update the pair's duals so they stay exact complements.

ICI values live on (B, U) grids theta[j, u], read only under
:meth:`Topology.ici_mask`; PD and ADMM keep two owner rows of them,
(2, B, U), with in-cell entries held at 0.  Both run one exchange
(:func:`_exchange`): each round every BS sends each peer its own values
of the pairs the two of them share, through the backhaul bus, so logged
counts are the algorithm's real signaling load.  One canonical state is
updated per round; each BS's own update, from its values and its inbox
alone, is checked against it (``replica_error``).  The special-case
designs (common cap, fixed caps, interference nulling, orthogonal
access) and the distributed Gaussian randomization live here too.
Every design is a :func:`conic.driven` solve generator: a call solves
alone, and its ``steps`` form shares its per-BS solves with other runs'
batches.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import conic
from .backhaul import MessageBus
from .conic import SolveStatus
from .errors import (CobeamError, ConfigurationError, IndeterminateError,
                     InfeasibleTargetsError, RandomizationFailureError)
# evaluate_sinr is no longer called here; perfbench's traced runs still
# wrap distributed.evaluate_sinr, so the name stays until they drop it
from .network import (BeamformingSolution, build_topology,  # noqa: F401
                      evaluate_sinr, network_stack,
                      orthogonal_equivalent_target)
from .power_min import (DEFAULT_GR_COUNT, channel_span, check_gr_count,
                        covariances, direction_gains, finalize,
                        fixed_direction_powers, gaussian_candidates,
                        least_powers, randomized_solution, sinr_system,
                        sinr_update)

DEFAULT_RHO = 2.0
DEFAULT_STEP = 0.3
# PD and ADMM stop once their caps (and ADMM's consensus) move less
STOP_TOL = 1e-6


@dataclass
class IciState:
    """Coupling variables of the distributed algorithms, (B, U) grids
    with in-cell entries 0.

    ``theta`` is the canonical ICI power; ``theta_local`` holds the two
    owners' copies, (2, B, U) (row 0 interferer, row 1 serving BS, ADMM
    only); ``lam`` / ``mu`` are the SINR-side and cap-side dual prices;
    ``nu`` the ADMM consensus duals per owner.
    """

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

    ``theta`` is the ICI grid theta[j, u] in watts (a scalar
    broadcasts).  Incoming values enter the SINR right-hand sides,
    outgoing ones cap this BS's interference (:func:`sinr_system`); at
    ``theta`` None the cell sees no ICI: noise alone and no caps.
    """
    return sinr_system(channels, topology, cell=b, theta=theta)[0]


def _cells(problems, failure, starts=None):
    """Solve generator (:mod:`.conic.schedule`) of the per-BS problems
    ``problems`` ({b: problem}); returns their solutions in BS order.

    With a dict ``starts``, each BS's problem starts from
    ``starts.get(b)`` and its solution's iterate replaces that entry, so
    the next round's solve starts from this one's; without, the solves
    start cold.  The first BS whose solve is not optimal raises, as a
    BS-by-BS loop would: :class:`InfeasibleTargetsError` with message
    ``failure(b, status)`` when it is infeasible, else
    :class:`IndeterminateError`.
    """
    if starts is not None:
        for b, prob in problems.items():
            prob.start = starts.get(b)
    sols = yield list(problems.values())
    if starts is not None:
        starts.update(zip(problems, (sol.iterate for sol in sols)))
    for b, sol in zip(problems, sols):
        if sol.status is SolveStatus.INFEASIBLE:
            raise InfeasibleTargetsError(failure(b, sol.status))
        if sol.status is not SolveStatus.OPTIMAL:
            raise IndeterminateError(
                f"solve of BS {b} stopped with status {sol.status}")
    return sols


def _exchange(bus, topology, tags):
    """The ICI exchange of a run, indexed once: a function of one round,
    ``(own, update, state)``, that returns its scalar count and the
    largest difference between a BS's own update and the round's state.

    ``own`` (2, B, U) holds every pair's values by owner, row 0 the
    interferer's and row 1 the serving BS's.  Each BS posts each peer
    its own values of the pairs the two share, in pair order, one
    message per tag: ``tags[row]`` carries that row's values.  Each BS
    then computes ``update(values, touching)`` over the (B, U) mask of
    the pairs it touches, from its own values and its inbox alone;
    ``state`` is the round's canonical (B, U) update.
    """
    owned = {b: topology.ici_owned(b) for b in bus.agents}
    # (rows, js, us) of the values each sender posts each receiver under
    # each tag: a shared pair is in the sender's row 0 exactly when it is
    # in the receiver's row 1, and (j, u)-major order is pair order
    carried = {}
    for b in bus.agents:
        for peer in bus.agents:
            if peer != b:
                shared = owned[b] & owned[peer][::-1]
                for tag in dict.fromkeys(tags):
                    sent = shared & np.array([t == tag for t in tags])[
                        :, None, None]
                    js, us, rows = np.nonzero(sent.transpose(1, 2, 0))
                    carried[b, peer, tag] = rows, js, us
    scalars = sum(len(rows) for rows, _, _ in carried.values())

    def exchange_round(own, update, state):
        for (b, peer, tag), (rows, js, us) in carried.items():
            bus.post(b, peer, tag, own[rows, js, us])
        inboxes = bus.deliver()
        errors = []
        for b in bus.agents:
            # a value the inbox lacks stays nan, and so does the error
            view = np.full(own.shape, np.nan)
            view[owned[b]] = own[owned[b]]
            for sender, tag, values in inboxes[b]:
                view[carried[sender, b, tag]] = values
            touching = owned[b].any(axis=0)
            errors.append(np.max(np.abs(update(view[:, touching], touching)
                                        - state[touching]), initial=0.0))
        return scalars, float(np.max(errors, initial=0.0))
    return exchange_round


def extract_subgradient(problem, solution, topology, b):
    """Dual prices this BS contributes to the master subgradient, as
    (2, B, U) owner rows that are 0 off BS b's entries
    (:meth:`Topology.ici_owned`).

    Row 1 holds, at each pair (j, u) into a user u of BS b, lam =
    gamma_u times the dual of u's SINR constraint (the sensitivity of
    the local optimum to any incoming ICI term); row 0 holds, at each
    pair (b, u) out of it, mu, the dual of its cap.  s = lam - mu.
    """
    if solution.status is not SolveStatus.OPTIMAL or solution.duals is None:
        raise CobeamError("subgradient extraction needs an optimal solution "
                          "with duals")
    mask = topology.ici_mask()
    prices = np.zeros((2,) + mask.shape)
    for u in topology.users_of_bs(b):
        k = problem.constraint_index(("sinr", u))
        prices[1, mask[:, u], u] = topology.gamma[u] * solution.duals[k]
    for u in topology.out_of_cell_users(b):
        k = problem.constraint_index(("cap", (b, u)))
        prices[0, b, u] = solution.duals[k]
    return prices


def master_update(theta, subgrad, step, floor):
    """Projected subgradient step of fixed size ``step`` on the ICI caps.

    The projection clamps onto the positive orthant at ``floor``.  Primal
    decomposition passes :func:`_theta_floor`, well away from zero: the
    cap dual grows like 1/sqrt(theta) at the boundary, so iterates
    touching a near-zero cap would pick up enormous subgradients.
    """
    return np.maximum(theta - float(step) * subgrad, floor)


def _check_run(max_iters, name, value):
    """Raise :class:`ConfigurationError` unless ``max_iters`` is an int
    >= 1, not a bool, and ``value`` (``name``) is finite and positive."""
    if isinstance(max_iters, bool) or not isinstance(
            max_iters, (int, np.integer)) or max_iters < 1:
        raise ConfigurationError(
            f"max_iters must be an integer >= 1 (got {max_iters!r})")
    if not 0 < value < np.inf:
        raise ConfigurationError(
            f"{name} must be finite and positive (got {value!r})")


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

    Each round the BSs solve their subproblems at the caps theta, each
    starting from its solve of the round before, swap the two prices of
    every pair they share (:func:`_exchange`), and move the caps by one
    projected subgradient step.  The best (lowest master objective)
    iterate is kept and its beamformers extracted at the end.  The caps
    start at ``theta0``, a scalar or a (B, U) ICI grid (default: the mean
    noise power), and never fall below :func:`_theta_floor`; the run
    stops once no cap moves by more than ``STOP_TOL``.  ``common_theta`` moves one cap shared by
    every pair along the summed prices, which each BS holds only at
    B = 2; more cells raise :class:`ConfigurationError`, as do bad
    ``max_iters`` and ``step`` (:func:`_check_run`) and a bad
    ``gr_count`` (:func:`check_gr_count`).
    """
    _check_run(max_iters, "step", step)
    check_gr_count(gr_count)
    if common_theta and topology.B > 2:
        raise ConfigurationError(
            f"common_theta needs B = 2 (got B={topology.B}): no BS "
            "receives every pair's prices")
    mask = topology.ici_mask()
    theta_floor = _theta_floor(topology)
    theta = np.where(mask, topology.ici_grid(float(np.mean(
        topology.sigma2)) if theta0 is None else theta0), 0.0)
    theta[mask] = np.maximum(theta[mask], theta_floor)
    if common_theta and mask.any():
        theta[mask] = theta[mask][0]

    def direction(prices):
        s = prices[1] - prices[0]
        return np.full(s.size, s.sum()) if common_theta else s

    bus = MessageBus(range(topology.B))
    exchange = _exchange(bus, topology, ("dual-mu", "dual-lambda"))
    trace = ConvergenceTrace(algorithm="primal-decomposition")
    best = {"power": np.inf, "theta": theta.copy(), "W": None}
    starts = {}
    # each cell is built once; a round moves its caps
    cells = {b: assemble_subproblem(b, channels, topology, theta)
             for b in range(topology.B)}

    for r in range(max_iters):
        problems = {b: sinr_update(prob, channels, topology, b, theta=theta)
                    for b, prob in cells.items()}
        sols = yield from _cells(
            problems, lambda b, status: f"subproblem of BS {b} "
            "infeasible at the initial ICI caps; retry with a larger "
            "theta0" if r == 0 else f"subproblem of BS {b} became "
            f"infeasible at iteration {r} (status {status})", starts)
        # prices by owner: row 0 the interferer's cap dual mu, row 1 the
        # serving BS's lam
        prices = np.zeros((2,) + mask.shape)
        total_power = 0.0
        for b, (prob, sol) in enumerate(zip(problems.values(), sols)):
            prices += extract_subgradient(prob, sol, topology, b)
            total_power += sol.objective
        current_W = network_stack(topology, [
            covariances(prob, sol) for prob, sol in zip(problems.values(),
                                                        sols)])

        theta_new = np.zeros_like(theta)
        theta_new[mask] = master_update(theta[mask], direction(
            prices[:, mask]), step, theta_floor)
        scalars, replica_err = exchange(
            prices, lambda own, pairs: master_update(
                theta[pairs], direction(own), step, theta_floor), theta_new)
        change = float(np.max(np.abs(theta_new[mask] - theta[mask]),
                              initial=0.0))
        if total_power < best["power"]:
            best = {"power": total_power, "theta": theta.copy(),
                    "W": current_W, "lam": prices[1], "mu": prices[0]}
        trace.add(r, total_power, change, scalars,
                  replica_error=replica_err,
                  best_power=best["power"], W=current_W)
        theta = theta_new
        if change <= STOP_TOL:
            break

    trace.best_power = best["power"]
    trace.ici = IciState(theta=best["theta"], lam=best.get("lam"),
                         mu=best.get("mu"))
    trace.solution = _finalize(channels, topology, best["W"], best["theta"],
                               gr_count, rng, bus=bus)
    trace.log = bus.log
    return trace


def _finalize(channels, topology, W, theta, gr_count, rng, bus=None):
    """Rank-one extraction from the covariances W (G, A, A), else
    distributed GR at the ICI values ``theta``
    (:func:`distributed_gaussian_randomization`).

    With a bus, every BS first broadcasts one bit: whether all of its
    covariances are rank one.  An extracted design reports its sum power,
    added up cell by cell.
    """
    if bus is not None:
        ones = conic.numerical_rank(W) == 1
        for b in range(topology.B):
            bus.post(b, None, "rank-bit",
                     [float(ones[topology.groups_of_bs(b)].all())])
        bus.deliver()
    rng = np.random.default_rng(rng)
    solution = finalize(W, lambda W: distributed_gaussian_randomization(
        channels, topology, W, theta, gr_count, rng, bus=bus))
    if not solution.used_randomization:
        solution.objective = sum(solution.p[topology.cell_order()].tolist())
    return solution


# ---------------------------------------------------------------------------
# ADMM consensus


def assemble_admm_local(b, channels, topology, theta_global, nu_b, rho):
    """BS-local augmented-Lagrangian step.

    Variables: this BS's covariances plus one nonnegative local copy per
    ICI pair touching the cell (both directions).  The disagreement
    penalty contributes rho/2 per squared copy on the quadratic diagonal
    and nu_b - rho * theta_global on the linear part, where both are
    (B, U) grids and ``nu_b`` holds this BS's own duals.  Returns the
    problem and the (B, U) grid of copy variables, -1 off the pairs
    touching the cell.
    """
    return sinr_system(channels, topology, cell=b,
                       copies=(nu_b - rho * theta_global, rho / 2.0))


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

    Per iteration: the B local solves, each starting from its solve of
    the iteration before, one exchange of local copies, the global
    average, and the exactly-complementary dual update.
    Stops when both the consensus residual and the dual residual
    rho * |theta change| fall below ``STOP_TOL``; the consensus residual
    alone can be small long before the caps stop moving.  The
    returned solution is restored at the final global ICI values, floored
    at :func:`_theta_floor`, so it is feasible for the true coupled
    problem.  Bad ``max_iters``, ``rho`` and ``gr_count`` raise
    :class:`ConfigurationError` (:func:`_check_run`,
    :func:`check_gr_count`).
    """
    _check_run(max_iters, "rho", rho)
    check_gr_count(gr_count)
    mask = topology.ici_mask()
    theta = np.where(mask, float(np.mean(topology.sigma2)), 0.0)
    # owner rows: 0 interferer, 1 serving BS
    nu = np.zeros((2,) + mask.shape)
    copies = np.zeros((2,) + mask.shape)
    owned = [topology.ici_owned(b) for b in range(topology.B)]
    bus = MessageBus(range(topology.B))
    exchange = _exchange(bus, topology, ("local-copy", "local-copy"))
    trace = ConvergenceTrace(algorithm="admm")
    starts = {}

    # each cell is built once; an iteration moves its copy weights
    cells = [assemble_admm_local(b, channels, topology, theta, nu[0], rho)
             for b in range(topology.B)]
    for it in range(max_iters):
        total_power = 0.0
        sols = yield from _cells(
            {b: sinr_update(prob, channels, topology, b, copies=(np.where(
                owned[b][0], nu[0], nu[1]) - rho * theta, rho / 2.0))
             for b, (prob, _) in enumerate(cells)},
            lambda b, status: f"ADMM local problem of BS {b} failed at "
            f"iteration {it} (status {status})", starts)
        for b, ((_, copy_slot), sol) in enumerate(zip(cells, sols)):
            # a trace is the same in any basis
            for W in sol.matrix_values:
                total_power += float(np.real(np.trace(W)))
            copies[owned[b]] = sol.scalar_values[
                np.broadcast_to(copy_slot, copies.shape)[owned[b]]]

        # in-cell entries average and update zeros to zeros
        theta_new = admm_global_update(copies)
        nu = admm_pair_dual_update(nu, copies, rho)
        scalars, replica_err = exchange(
            copies, lambda own, _: admm_global_update(own), theta_new)
        residual = float(np.max(np.abs(copies[:, mask] - theta_new[mask]),
                                initial=0.0))
        dual_residual = rho * float(np.max(
            np.abs(theta_new[mask] - theta[mask]), initial=0.0))
        trace.add(it, total_power, residual, scalars,
                  dual_residual=dual_residual,
                  replica_error=replica_err,
                  nu_pair_sum=float(np.max(np.abs(nu[:, mask].sum(axis=0)),
                                           initial=0.0)))
        theta = theta_new
        if residual <= STOP_TOL and dual_residual <= STOP_TOL:
            break

    # restore a network-feasible solution at the final global values;
    # caps are floored away from the boundary singularity
    floored = theta.copy()
    floored[mask] = np.maximum(theta[mask], _theta_floor(topology))
    restored = yield from _fixed_ici(channels, topology, floored,
                                     _unrestorable)
    trace.ici = IciState(theta=theta.copy(), theta_local=copies.copy(),
                         nu=nu.copy())
    trace.solution = _finalize(channels, topology, restored, floored,
                               gr_count, rng, bus=bus)
    trace.log = bus.log
    trace.best_power = trace.solution.objective
    return trace


@conic.driven
def admm_feasibility_restore(b, channels, topology, theta_global):
    """Feasible BS-b beamformers at the current global ICI values.

    Pins the local copies to the global values, which reduces the
    augmented local problem to the fixed-cap subproblem.  The solution
    holds BS b's covariances and their ranks, in
    :meth:`Topology.groups_of_bs` order.
    """
    prob = assemble_subproblem(b, channels, topology, theta_global)
    sol, = yield from _cells({b: prob}, _unrestorable)
    W = covariances(prob, sol)
    return BeamformingSolution(W=W, rank=conic.numerical_rank(W),
                               objective=sol.objective)


def _unrestorable(b, _):
    return f"restoration at BS {b} infeasible for the current global ICI " \
        "values"


# ---------------------------------------------------------------------------
# distributed Gaussian randomization (fixed ICI values)


def local_randomization_lp(b, channels, topology, candidates_b, theta):
    """Power LP of one BS for one candidate set, ICI values fixed.

    ``candidates_b`` (G_b, A) holds a unit direction per group of BS b,
    in :meth:`Topology.groups_of_bs` order.  Returns their (G_b,) powers
    or None when this draw cannot meet the targets under the caps.
    """
    p = fixed_direction_powers(channels, topology,
                               np.asarray(candidates_b)[None], cell=b,
                               theta=theta)[0]
    return p if np.isfinite(p).all() else None


def distributed_gaussian_randomization(channels, topology, W_star, theta,
                                       count, rng, bus=None):
    """Network-wide randomization with only per-candidate exchanges.

    ``theta`` is the ICI grid every BS sees: a (B, U) grid, a scalar, or
    None for cells that see no ICI (:func:`direction_system`).  Each BS draws
    candidates from its own rows of the covariances W_star (G, A, A),
    gives each its least local powers at its grid, and broadcasts its
    per-candidate totals (``gr-power``); all BSs then pick the same
    globally cheapest index.

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
    seeds = rng.spawn(topology.B)
    V = np.stack([gaussian_candidates(W, count, seeds[b]) for W, b
                  in zip(W_star, topology.bs_of_group)], axis=1)
    P = np.zeros((count, topology.G))
    totals = np.zeros((topology.B, count))
    for b in range(topology.B):
        groups = topology.groups_of_bs(b)
        P[:, groups] = fixed_direction_powers(
            channels, topology, V[:, groups], cell=b, theta=theta)
        totals[b] = P[:, groups].sum(axis=1)
        bus.post(b, None, "gr-power",
                 np.where(np.isfinite(totals[b]), totals[b], 1e300))
    bus.deliver()

    network = totals.sum(axis=0)
    fallback = not np.isfinite(network).any()
    if fallback:
        gains = np.zeros((count, topology.U, topology.G))
        for b in range(topology.B):
            groups = topology.groups_of_bs(b)
            gains[:, :, groups] = direction_gains(channels.h[b], V[:, groups])
            bus.post(b, None, "gr-gain", gains[:, :, groups].ravel())
        bus.deliver()
        P = least_powers(gains, topology.group_of_user, topology.gamma,
                         topology.sigma2)
        network = P.sum(axis=1)
        if not np.isfinite(network).any():
            raise RandomizationFailureError(
                f"no candidate index feasible network-wide ({count} drawn)")
    pick = int(np.argmin(network))
    return randomized_solution(V[pick], P[pick],
                               objective=float(network[pick]),
                               gr_fallback=fallback)


# ---------------------------------------------------------------------------
# special-case designs (fixed caps, nulling, orthogonal access)


@conic.driven
def solve_fixed_ici(channels, topology, theta_value,
                    gr_count=DEFAULT_GR_COUNT, rng=None):
    """One-shot per-cell design with predefined ICI caps, no signaling.

    ``theta_value`` is a scalar or a (B, U) ICI grid shared by every BS;
    NaN or negative values raise :class:`ConfigurationError`."""
    check_gr_count(gr_count)
    W = yield from _fixed_ici(
        channels, topology, theta_value, lambda b, _: f"fixed-cap "
        f"subproblem of BS {b} infeasible at theta={theta_value}")
    return _finalize(channels, topology, W, theta_value, gr_count, rng)


def _fixed_ici(channels, topology, theta, failure):
    """Solve generator of every cell's design at the fixed ICI values
    ``theta`` (:func:`assemble_subproblem`); returns the covariances
    (G, A, A).  ``failure`` as in :func:`_cells`."""
    problems = {b: assemble_subproblem(b, channels, topology, theta)
                for b in range(topology.B)}
    sols = yield from _cells(problems, failure)
    return network_stack(topology, [
        covariances(prob, sol) for prob, sol in zip(problems.values(), sols)])


def _null_space_basis(channels, topology, b):
    """Orthonormal basis of the directions invisible to other cells.

    Beams w with h^H w = 0 for every out-of-cell channel h, i.e. the
    null space of the stacked conjugated channels.
    """
    rows = [channels.vec(b, u).conj() for u in topology.out_of_cell_users(b)]
    if not rows:
        return np.eye(topology.A, dtype=complex)
    vh, rank = channel_span(np.array(rows))
    return vh[rank:].conj().T


@conic.driven
def solve_nulling(channels, topology, gr_count=DEFAULT_GR_COUNT, rng=None):
    """Zero-forcing toward other cells: beams in the cross-channel null
    space, then a per-cell QoS design in the reduced space.

    Any covariance with exactly zero leakage has its range inside the
    null space, so the reduction is lossless.
    """
    check_gr_count(gr_count)
    problems = {}
    for b in range(topology.B):
        basis = _null_space_basis(channels, topology, b)
        if basis.shape[1] == 0:
            break
        problems[b] = sinr_system(channels, topology, cell=b,
                                  basis=basis)[0]
    # the cells before one that cannot null report their failures first
    sols = yield from _cells(
        problems, lambda b, _: f"nulling design infeasible at BS {b}")
    if len(problems) < topology.B:
        raise InfeasibleTargetsError(f"BS {len(problems)} lacks antennas "
                                     "to null all out-of-cell users")
    W = network_stack(topology, [
        covariances(prob, sol) for prob, sol in zip(problems.values(), sols)])
    return _finalize(channels, topology, W, 0.0, gr_count, rng)


@conic.driven
def solve_orthogonal(channels, topology, gr_count=DEFAULT_GR_COUNT,
                     rng=None):
    """Per-cell design with orthogonal (time/frequency) access.

    Each cell optimizes alone, at ``theta`` None (no ICI), but the
    SINR targets rise to (1 + gamma)^B - 1 to deliver the same rates in
    a 1/B share of the resources.  The reported objective is the sum of
    the per-slot transmit powers.
    """
    check_gr_count(gr_count)
    gamma_orth = orthogonal_equivalent_target(topology.gamma, topology.B)
    topo_orth = build_topology(
        B=topology.B, G=topology.G, U=topology.U, A=topology.A,
        gamma=gamma_orth, sigma2=topology.sigma2, p_max=topology.p_max,
        cell_separation=topology.cell_separation)
    W = yield from _fixed_ici(
        channels, topo_orth, None, lambda b, _: f"orthogonal-access design "
        f"infeasible at BS {b} (raised target "
        f"{float(np.max(gamma_orth)):.3g})")
    return _finalize(channels, topo_orth, W, None, gr_count, rng)
