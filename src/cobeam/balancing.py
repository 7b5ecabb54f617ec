"""Max-min SINR balancing.

The centralized design runs a bisection over the relaxed feasibility
problem (per-BS power budgets, all interference coupled); the
distributed design lets each cell balance its own users against fixed
incoming-interference assumptions and outgoing caps, with no backhaul
exchange at all; the uncoordinated baseline is the distributed design
at ``theta`` None, each cell blind to interference, re-evaluated
against the truth.  The bisections and pipelines are
:func:`conic.driven` solve generators; the per-cell designs run their
B bisections side by side.
"""

import inspect
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import conic
from .conic import ConicSolution, SolveStatus
from .conic.ipm import ACCEPT_TOL, point_violation
from .errors import (ConfigurationError, IndeterminateError,
                     RandomizationFailureError)
from .network import BeamformingSolution, evaluate_sinr, network_stack
from .power_min import (DEFAULT_GR_COUNT, capped_least_powers,
                        check_gr_count, covariances, direction_system,
                        finalize, gaussian_candidates, randomized_solution,
                        sinr_levels, sinr_system)

DEFAULT_EPSILON = 1e-3


@dataclass
class BisectionResult:
    """Outcome of one bisection run.

    ``payload`` is what the probe returned at the final feasible level;
    in the SDR bisections (:func:`_sdr_bisect`) the covariance stack
    (n, A, A) of the groups in scope, a cell's in
    :meth:`Topology.groups_of_bs` order.  ``probes`` records every (t,
    feasible) pair in order; ``calls`` only counts the probes of the
    halving loop, ``extra_calls`` the solves around it (a probe of the
    lower end, the extreme-face polish when it runs).
    ``indeterminate`` counts the halving probes that raised
    :class:`IndeterminateError` and were taken as infeasible, and
    ``decided`` the probes a point from an earlier solve, feasible or
    not, settled without a solve (:func:`_sdr_bisect`): ``calls`` counts
    probes, not solves.
    """

    t: float
    lower: float
    upper: float
    payload: object = None
    calls: int = 0
    extra_calls: int = 0
    probes: list = field(default_factory=list)
    indeterminate: int = 0
    decided: int = 0


def _probed(probe, t):
    """Solve generator of ``probe(t)``: a probe returns (feasible,
    payload) or a solve generator of it."""
    out = probe(t)
    return (yield from out) if inspect.isgenerator(out) else out


@conic.driven
def bisect(lower, upper, epsilon, probe):
    """Generic bisection over a monotone feasibility predicate.

    ``probe(t)`` returns (feasible, payload), or a solve generator of
    them.  The final interval width is at most ``epsilon`` and the
    lower end is feasible (by invariant; it is only probed if no
    interior point ever succeeded).  A probe on
    the numerical knife edge that cannot be decided counts as
    infeasible and is counted in ``indeterminate``.  Such a probe can
    lower the final level by up to its own step, half the bracket width
    when it is made, not just by the solver's resolution: one undecided
    probe cost 7e-4 on a level of 13.58 in a per-cell bisection of
    ``scenarios/balancing_small.json``.  ``calls`` counts the halving
    loop's probes, however each was answered: a probe may settle its
    level without a solve (:func:`_sdr_bisect`).
    """
    if not epsilon > 0:
        raise ConfigurationError("bisection tolerance must be positive")
    if upper < lower:
        raise ConfigurationError("upper bound below lower bound")
    result = BisectionResult(t=0.5 * (lower + upper), lower=lower,
                             upper=upper)
    payload = None
    while upper - lower > epsilon:
        mid = 0.5 * (lower + upper)
        try:
            feasible, pay = yield from _probed(probe, mid)
        except IndeterminateError:
            feasible, pay = False, None
            result.indeterminate += 1
        result.calls += 1
        result.probes.append((mid, feasible))
        if feasible:
            lower, payload = mid, pay
        else:
            upper = mid
    if payload is None:
        feasible, payload = yield from _probed(probe, lower)
        result.extra_calls += 1
        result.probes.append((lower, feasible))
        if not feasible:
            raise ConfigurationError(
                f"lower bound {lower} is not feasible; bad bracket")
    result.t = 0.5 * (lower + upper)
    result.lower = lower
    result.upper = upper
    result.payload = payload
    return result


def single_user_upper_bound(channels, topology, users=None):
    """Interference-free cap max_u P_b(u) ||h_{b(u),u}||^2 / sigma_u^2.

    No user can beat its own matched-filter SINR at full serving-BS
    power, so this always brackets the balanced optimum from above.
    The gain is a plain sum of squared magnitudes, which calls no BLAS,
    so its bits, and every probe level, do not depend on the BLAS
    kernel.
    """
    users = range(topology.U) if users is None else users
    bound = 0.0
    for u in users:
        b = topology.serving_bs(u)
        gain = float(np.sum(np.abs(channels.vec(b, u)) ** 2))
        bound = max(bound, topology.p_max[b] * gain / topology.sigma2[u])
    return bound


def _scaled_point(prob, X, t, serving):
    """Two candidates from a solve of the probe ``prob`` at level ``t``
    > 0 (:func:`sinr_system`, in its bases), its point ``X`` (one
    (k, d, d) stack per run of its variables, :meth:`ConeLayout.unpack`)
    and that point's principal rank-one part per variable, each scaled
    uniformly, up or down, until its tightest cap or budget row holds
    with equality: the one whose SINR rows meet the higher level, as a
    list of variables, and that level.  ``serving`` gives each SINR
    row's served variable.  A SINR row reads the served covariance at H
    and every other one at -t H, with right-hand side t N, so at scale s
    its level is t s S / (s C + rhs), S the served term and C = t I the
    other terms negated.  Both candidates' row terms come from one
    :meth:`ConicProblem.row_terms` call."""
    pairs = []
    for stack in X:
        lam, vec = np.linalg.eigh(stack)
        top = vec[..., -1]
        pairs.append(np.stack([stack, np.einsum(
            "k,ki,kj->kij", lam[:, -1], top, top.conj())]))
    X = [pair[:, j] for pair in pairs for j in range(pair.shape[1])]
    rhs = prob.rhs().tolist()
    terms = prob.row_terms(X).tolist()
    n, best = len(serving), (None, -np.inf)
    for c, rows in enumerate(terms):
        scale = min((cap / sum(row) for cap, row in zip(rhs[n:], rows[n:])
                     if sum(row) > 0), default=1.0)
        level = min(t * scale * row[k] / (scale * (row[k] - sum(row)) + b)
                    for row, k, b in zip(rows, serving, rhs))
        if level > best[1]:
            best = [scale * M[c] for M in X], level
    return best


def _sdr_bisect(channels, topology, epsilon, cell=None, theta=None):
    """Bisection over the relaxed SINR system at level t under per-BS
    budgets, of the network (``cell`` None) or of one cell with ICI
    values ``theta`` (:func:`sinr_system`), as a solve generator.

    The upper end is the matched-filter cap of the users involved
    (:func:`single_user_upper_bound`), provably unreachable, so it is
    not probed.  Interior-point feasibility solves return central
    (high-rank) points, so unless every covariance of the final payload
    is rank one (:func:`conic.numerical_rank`, as :func:`finalize`
    tests it), one power-minimizing solve at the final feasible level,
    the polish, replaces it with an extreme-face solution; that is the
    covariance set whose rank the extraction step inspects.  Each solved
    probe starts from the iterate of the previous solved one; the polish
    starts cold.  The probes share one compile, of the
    system at level 0, and each is its update to its own level
    (:func:`sinr_levels`): its right-hand sides and, where the level
    scales -t H blocks, its SINR rows.

    The probes of one bisection share their variables' bases, so every
    solved probe offers points to the later ones: its final iterate's
    x/tau blocks, read through the kept compile's layout (a feasible
    probe's covariances, an infeasible one's last iterate), and their
    principal rank-one parts, each scaled into the budgets and caps
    (:func:`_scaled_point`).  The point of the highest level any reaches
    is kept.  A probe at or below that level is settled without a solve
    when the kept point meets its own rows to ``ACCEPT_TOL``
    (:func:`point_violation`, as the solver's point screen confirms a
    point), and it is its payload.  It still counts as a probe, so the
    bracket and the probe log are those of solving every probe;
    ``decided`` counts the settled ones.  A settled payload shows only
    in the design, when it is rank one and so kept.  A cell that
    polishes waits at its gather's barrier (:func:`conic.gather`)
    first, so the cells of :func:`_per_cell_pipeline` polish in one
    step; a cell that skips its polish ends, which counts as past it.
    """
    def system(t, objective=False):
        return sinr_system(channels, topology, cell=cell, level=t,
                           theta=theta, budget=True, objective=objective)[0]

    groups = list(range(topology.G)) if cell is None \
        else topology.groups_of_bs(cell)
    users = range(topology.U) if cell is None else topology.users_of_bs(cell)
    serving = [groups.index(topology.group_of_user[u]) for u in users]
    last, scaled, level, settled = None, None, -np.inf, 0
    kept = conic.compile_once(system(0.0))
    update = sinr_levels(kept, channels, topology, cell, theta=theta)

    def probe(t):
        nonlocal last, scaled, level, settled
        prob = update(t)
        if t <= level:
            sol = ConicSolution(SolveStatus.OPTIMAL, matrix_values=scaled)
            if point_violation(prob, sol) <= ACCEPT_TOL:
                settled += 1
                return True, covariances(prob, sol)
        prob.start = last
        feasible, sol = yield from conic.feasibility(prob)
        last = sol.iterate
        # a probe at level 0, the lower end's, is the last of its bisection
        if t > 0:
            point, at = _scaled_point(
                prob, kept.compiled.layout.unpack(last.x), t, serving)
            if at > level:
                scaled, level = point, at
        return feasible, covariances(prob, sol) if feasible else None

    result = yield from conic.solving(
        bisect, 0.0, single_user_upper_bound(channels, topology, users),
        epsilon, probe)
    result.decided = settled
    if (conic.numerical_rank(result.payload) == 1).all():
        return result
    if cell is not None:
        yield []    # the barrier: polish beside the other cells
    polish = system(result.lower, objective=True)
    sol, = yield [polish]
    result.extra_calls += 1
    if sol.status is SolveStatus.OPTIMAL:
        result.payload = covariances(polish, sol)
    return result


@conic.driven
def bisect_balance(channels, topology, epsilon=DEFAULT_EPSILON):
    """Centralized max-min SINR via bisection on the relaxed problem.

    Returns a :class:`BisectionResult` whose payload is the covariance
    stack (G, A, A) at the final feasible level: rank one, or polished
    to an extreme face (:func:`_sdr_bisect`).
    """
    return (yield from _sdr_bisect(channels, topology, epsilon))


def _gr_level(channels, topology, V, epsilon, cell=None, theta=None):
    """Best balanced level of fixed direction sets: (t, powers, index),
    the powers one per direction of the set.

    ``V`` (C, G, A) holds direction sets of the network's groups
    (``cell`` None) or of one cell's groups in its order, which sees the
    ICI values ``theta`` (:func:`direction_system`).  Each set's level
    is bisected as :func:`bisect` would: its probe at level t asks for
    its least powers at targets t, feasible exactly when they exist and
    meet the budgets and caps (no slack: the caps are inputs, not solver
    output).  Each halving probes every live set in one
    :func:`capped_least_powers` call.  Ties go to the lowest index; the
    winner's powers are its least point at the lower end of its bracket.
    """
    if not epsilon > 0:
        raise ConfigurationError("bisection tolerance must be positive")
    users, gains, own, noise, cap_gains, caps = direction_system(
        channels, topology, V, cell=cell, theta=theta, budget=True)

    def least(c, t):
        return capped_least_powers(gains[c], own, t[:, None], noise,
                                   cap_gains[c], caps)

    lower = np.zeros(len(V))
    upper = lower + single_user_upper_bound(channels, topology, users)
    live = np.flatnonzero(upper - lower > epsilon)
    while live.size:
        mid = 0.5 * (lower[live] + upper[live])
        ok = np.isfinite(least(live, mid)).all(axis=1)
        lower[live[ok]], upper[live[~ok]] = mid[ok], mid[~ok]
        live = live[upper[live] - lower[live] > epsilon]
    t = 0.5 * (lower + upper)
    idx = int(np.argmax(t))
    return float(t[idx]), least([idx], lower[[idx]])[0], idx


def balance_gaussian_randomization(channels, topology, V,
                                   epsilon=DEFAULT_EPSILON):
    """Pick the candidate beamformer set with the best balanced level.

    ``V`` (C, G, A) holds full direction sets.  Each set is scored by a
    bisection whose feasibility test is its power allocation under the
    per-BS budgets; the best (t, powers, index) wins.
    """
    best = _gr_level(channels, topology, V, epsilon)
    if best[0] <= epsilon:
        warnings.warn("every candidate balances essentially to zero; "
                      "returning the least bad one", stacklevel=2)
    return best


@conic.driven
def local_balance(b, channels, topology, theta_cap,
                  epsilon=DEFAULT_EPSILON):
    """Per-cell balancing with fixed ICI caps, no backhaul exchange.

    Incoming interference is assumed at the cap value; outgoing
    interference is constrained below it.  ``theta_cap`` is a scalar, a
    (B, U) ICI grid, or None: the cell alone, blind to ICI.
    """
    return (yield from _sdr_bisect(channels, topology, epsilon, cell=b,
                                   theta=theta_cap))


def local_balance_gr(b, channels, topology, V, theta_cap,
                     epsilon=DEFAULT_EPSILON):
    """Local Gaussian-randomization balancing for one cell.

    ``V`` (C, G_b, A) holds direction sets of this cell's groups;
    scoring mirrors :func:`local_balance` with fixed directions.
    """
    return _gr_level(channels, topology, V, epsilon, cell=b,
                     theta=theta_cap)


@conic.driven
def uncoordinated_balance(b, channels, topology, epsilon=DEFAULT_EPSILON):
    """Interference-blind per-cell balancing: :func:`local_balance` at
    ``theta_cap`` None; its optimistic level must be re-checked with
    true ICI."""
    return (yield from _sdr_bisect(channels, topology, epsilon, cell=b))


def achieved_min_sinr(channels, solution, topology):
    """Network-wide minimum achieved SINR under full cross interference,
    of a :class:`BeamformingSolution` or (G, A) beams; beams of fewer
    groups raise :class:`StateError`."""
    return min(evaluate_sinr(channels, solution, u, topology)
               for u in range(topology.U))


# ---------------------------------------------------------------------------
# scheme pipelines (bisection + rank handling + achieved evaluation)


@dataclass
class BalanceOutcome:
    """What an experiment records for one balancing run."""

    t_relaxed: float
    solution: BeamformingSolution
    achieved: float
    bisection: object = None
    per_cell_t: dict = None


def _randomize(W, gr_count, rng, score):
    """Balancing GR: ``gr_count`` direction sets drawn from the
    covariances W (n, A, A), the one ``score`` ranks best, at its
    powers; also returns its level.  An empty draw raises
    :class:`RandomizationFailureError`."""
    V = np.stack([gaussian_candidates(M, gr_count, rng) for M in W], axis=1)
    if not len(V):
        raise RandomizationFailureError(
            "no randomization candidate drawn",
            sdr_solution=BeamformingSolution(W=W))
    t, powers, idx = score(V)
    return randomized_solution(V[idx], powers), t


@conic.driven
def balance_centralized(channels, topology, epsilon=DEFAULT_EPSILON,
                        gr_count=DEFAULT_GR_COUNT, rng=None):
    """Full centralized balancing pipeline."""
    check_gr_count(gr_count)
    res = yield from conic.solving(bisect_balance, channels, topology,
                                   epsilon)
    rng = np.random.default_rng(rng)

    def randomize(W):
        return _randomize(W, gr_count, rng, lambda V:
                          balance_gaussian_randomization(
                              channels, topology, V, epsilon))[0]

    sol = finalize(res.payload, randomize)
    achieved = achieved_min_sinr(channels, sol, topology)
    return BalanceOutcome(t_relaxed=res.t, solution=sol, achieved=achieved,
                          bisection=res)


def _per_cell_pipeline(channels, topology, theta, epsilon, gr_count, rng):
    """Per-cell balancing at the ICI values ``theta`` (None: each cell
    blind to ICI): the B :func:`local_balance` bisections side by side,
    then each cell's tail in turn, which raises what a cell-by-cell loop
    would raise first.  A cell whose bisection ends on a payload not of
    rank one waits at the gather's barrier, so the polishes that run go
    out in one step.  The cells' solutions join into one of the
    network's groups."""
    check_gr_count(gr_count)
    cells = []
    per_cell_t = {}
    rng = np.random.default_rng(rng)
    results = yield from conic.gather([
        conic.solving(local_balance, b, channels, topology, theta, epsilon)
        for b in range(topology.B)])
    for b, res in enumerate(results):
        if isinstance(res, Exception):
            raise res
        per_cell_t[b] = res.t

        def randomize(W):
            sol, t_b = _randomize(W, gr_count, rng, lambda V: local_balance_gr(
                b, channels, topology, V, theta, epsilon))
            per_cell_t[b] = min(per_cell_t[b], t_b)
            return sol

        cells.append(finalize(res.payload, randomize))
    combined = BeamformingSolution(used_randomization=any(
        cell.used_randomization for cell in cells))
    for part in ("W", "w", "p", "rank", "sdr_rank"):
        setattr(combined, part, network_stack(
            topology, [getattr(cell, part) for cell in cells]))
    achieved = achieved_min_sinr(channels, combined, topology)
    return BalanceOutcome(t_relaxed=min(per_cell_t.values()),
                          solution=combined, achieved=achieved,
                          per_cell_t=per_cell_t)


@conic.driven
def balance_distributed(channels, topology, theta_cap,
                        epsilon=DEFAULT_EPSILON, gr_count=DEFAULT_GR_COUNT,
                        rng=None):
    """Distributed balancing at fixed caps, all cells independent."""
    return (yield from _per_cell_pipeline(channels, topology, theta_cap,
                                          epsilon, gr_count, rng))


@conic.driven
def balance_uncoordinated(channels, topology, epsilon=DEFAULT_EPSILON,
                          gr_count=DEFAULT_GR_COUNT, rng=None):
    """Interference-blind baseline, re-evaluated with true ICI: the
    distributed design at ``theta_cap`` None."""
    return (yield from _per_cell_pipeline(channels, topology, None, epsilon,
                                          gr_count, rng))
