"""Distributed algorithms: subgradients, ADMM identities, convergence."""

import numpy as np
import pytest

from cobeam import conic
from cobeam.backhaul import (MessageBus, gr_gain_signaling_load,
                             periter_signaling_load, verify_exchange_count)
from cobeam.errors import (CobeamError, ConfigurationError,
                           InfeasibleTargetsError, RandomizationFailureError)
from cobeam.network import (ChannelSet, build_topology, evaluate_sinr,
                            sample_channels)
from cobeam.power_min import (extract_rank_one, gaussian_candidates,
                              solve_centralized)
from cobeam.distributed import (admm_feasibility_restore,
                                admm_global_update, admm_pair_dual_update,
                                assemble_admm_local, assemble_subproblem,
                                distributed_gaussian_randomization,
                                extract_subgradient, master_update,
                                run_admm, run_primal_decomposition,
                                solve_fixed_ici, solve_nulling)

GAMMA_1DB = 10 ** 0.1


def rank_one_margin(channels, topology, W):
    """min_u SINR(u)/gamma_u - 1 for beams eigen-extracted from the
    covariances W (G, A, A), such as a PD round's ``W`` extra, or None
    when one is not rank one."""
    if W is None or (conic.numerical_rank(W) > 1).any():
        return None
    w = extract_rank_one(W)
    margins = [evaluate_sinr(channels, w, u, topology) / topology.gamma[u]
               - 1.0 for u in range(topology.U)]
    return float(min(margins))


def small_scenario(seed, **overrides):
    params = dict(B=2, G=2, U=4, A=6, gamma=GAMMA_1DB,
                  cell_separation=GAMMA_1DB)
    params.update(overrides)
    topo = build_topology(**params)
    return topo, sample_channels(topo, seed)


def on_pairs(topo, values):
    """The (B, U) ICI grid holding ``values`` at the directed pairs in
    row-major order, 0 in-cell."""
    mask = topo.ici_mask()
    theta = np.zeros(mask.shape)
    theta[mask] = values
    return theta


def solve_master(channels, topo, theta):
    total = 0.0
    pieces = {}
    for b in range(topo.B):
        prob = assemble_subproblem(b, channels, topo, theta)
        sol = conic.solve(prob)
        assert sol.status is conic.SolveStatus.OPTIMAL
        total += sol.objective
        pieces[b] = (prob, sol)
    return total, pieces


class TestSubproblem:
    def test_single_cell_reduces_to_centralized(self):
        topo, chans = small_scenario(0, B=1)
        prob = assemble_subproblem(0, chans, topo, 0.0)
        sol = conic.solve(prob)
        cen = solve_centralized(chans, topo)
        assert sol.objective == pytest.approx(cen.sdr_objective, rel=1e-7)

    def test_huge_caps_relax(self):
        topo, chans = small_scenario(1)
        tight = on_pairs(topo, 0.4)
        loose = tight.copy()
        loose[0][topo.ici_mask()[0]] = 1e6
        p_t = assemble_subproblem(0, chans, topo, tight)
        p_l = assemble_subproblem(0, chans, topo, loose)
        tight_obj = conic.solve(p_t).objective
        loose_obj = conic.solve(p_l).objective
        assert loose_obj <= tight_obj + 1e-8

    def test_zero_caps_mean_nulling_rows(self):
        topo, chans = small_scenario(2)
        prob = assemble_subproblem(0, chans, topo, on_pairs(topo, 0.0))
        caps = [c for c in prob.constraints if c.relation == "<="]
        assert caps and all(c.rhs == 0.0 for c in caps)


class TestSubgradient:
    def test_inactive_cap_gives_nonnegative_pair_price(self):
        topo, chans = small_scenario(3)
        theta = on_pairs(topo, 50.0)  # caps far from active
        _, pieces = solve_master(chans, topo, theta)
        for b in range(topo.B):
            prob, sol = pieces[b]
            mu, lam = extract_subgradient(prob, sol, topo, b)
            for val in mu[b][topo.ici_mask()[b]]:
                assert abs(val) <= 1e-6
            for val in lam[topo.ici_mask()]:
                assert val >= -1e-9

    def test_single_cell_empty(self):
        topo, chans = small_scenario(4, B=1)
        prob = assemble_subproblem(0, chans, topo, 0.0)
        sol = conic.solve(prob)
        comp = extract_subgradient(prob, sol, topo, 0)
        assert comp.shape == (2, 1, topo.U) and not comp.any()

    def test_requires_optimal_solution(self):
        topo, chans = small_scenario(5)
        prob = assemble_subproblem(0, chans, topo, on_pairs(topo, 1.0))
        bad = conic.ConicSolution(status=conic.SolveStatus.MAX_ITER)
        with pytest.raises(CobeamError):
            extract_subgradient(prob, bad, topo, 0)

    def test_matches_finite_differences(self):
        topo, chans = small_scenario(6)
        pairs = list(zip(*np.nonzero(topo.ici_mask())))
        rng = np.random.default_rng(60)
        for _ in range(2):
            vec = rng.uniform(0.4, 1.4, size=len(pairs))
            _, pieces = solve_master(chans, topo, on_pairs(topo, vec))
            mu, lam = sum(extract_subgradient(*pieces[b], topo, b)
                          for b in range(topo.B))
            h = 1e-5
            for i, (b, u) in enumerate(pairs):
                s = lam[b, u] - mu[b, u]
                up = vec.copy()
                up[i] += h
                dn = vec.copy()
                dn[i] -= h
                f_up, _ = solve_master(chans, topo, on_pairs(topo, up))
                f_dn, _ = solve_master(chans, topo, on_pairs(topo, dn))
                assert s == pytest.approx((f_up - f_dn) / (2 * h), abs=1e-3)


class TestMasterUpdate:
    def test_plain_step(self):
        out = master_update(np.array([1.0]), np.array([2.0]), 0.3, 1e-10)
        assert out[0] == pytest.approx(0.4)

    def test_clamp_to_floor(self):
        out = master_update(np.array([0.1]), np.array([10.0]), 0.3, 1e-10)
        assert out[0] == 1e-10

    def test_zero_subgradient_fixed_point(self):
        theta = np.array([0.7, 0.2])
        out = master_update(theta, np.zeros(2), 0.3, 1e-10)
        assert np.array_equal(out, theta)


class TestPrimalDecomposition:
    def test_close_to_centralized(self):
        for seed in (0, 3):
            topo, chans = small_scenario(seed)
            cen = solve_centralized(chans, topo)
            trace = run_primal_decomposition(chans, topo, max_iters=100)
            rel = trace.best_power / cen.sdr_objective - 1.0
            assert 0 <= rel <= 0.02
            for u in range(topo.U):
                assert evaluate_sinr(chans, trace.solution, u, topo) \
                    >= topo.gamma[u] * (1 - 1e-5)

    def test_exchange_count_matches_table(self):
        topo = build_topology(B=2, G=4, U=8, A=12, gamma=GAMMA_1DB,
                              cell_separation=GAMMA_1DB)
        chans = sample_channels(topo, 1)
        trace = run_primal_decomposition(chans, topo, max_iters=2)
        assert all(r["scalars_exchanged"] == 16 for r in trace.rows)

    def test_single_cell_one_iteration(self):
        topo, chans = small_scenario(7, B=1)
        cen = solve_centralized(chans, topo)
        trace = run_primal_decomposition(chans, topo, max_iters=50)
        assert trace.iterations == 1
        assert trace.best_power == pytest.approx(cen.sdr_objective,
                                                 rel=1e-7)

    def test_replicas_never_diverge(self):
        topo, chans = small_scenario(8)
        trace = run_primal_decomposition(chans, topo, max_iters=20)
        assert all(e["replica_error"] == 0.0 for e in trace.extras)

    def test_best_objective_nonincreasing(self):
        topo, chans = small_scenario(9)
        trace = run_primal_decomposition(chans, topo, max_iters=30)
        bests = [e["best_power"] for e in trace.extras]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_ici_state_carries_prices(self):
        topo, chans = small_scenario(9)
        trace = run_primal_decomposition(chans, topo, max_iters=10)
        state = trace.ici
        grid = (topo.B, topo.U)
        assert state.theta.shape == grid
        assert state.lam.shape == grid
        assert state.mu.shape == grid
        in_cell = ~topo.ici_mask()
        assert not (state.theta[in_cell].any() or state.lam[in_cell].any()
                    or state.mu[in_cell].any())
        assert np.all(state.lam >= -1e-9)
        assert np.all(state.mu >= -1e-9)

    def test_iterates_meet_targets(self):
        # fixed caps per iterate guarantee the coupled constraints
        topo, chans = small_scenario(10)
        trace = run_primal_decomposition(chans, topo, max_iters=15)
        margins = [rank_one_margin(chans, topo, e["W"])
                   for e in trace.extras]
        margins = [m for m in margins if m is not None]
        assert margins and all(m >= -1e-5 for m in margins)


class TestAdmmPieces:
    def test_local_copies_track_global_for_huge_rho(self):
        topo, chans = small_scenario(11)
        theta = on_pairs(topo, 0.8)
        prob, copy_slot = assemble_admm_local(
            0, chans, topo, theta, np.zeros_like(theta), rho=1e6)
        sol = conic.solve(prob)
        assert sol.status is conic.SolveStatus.OPTIMAL
        touching = copy_slot >= 0
        assert touching.sum() == topo.ici_mask().sum()
        for value, k in zip(theta[touching], copy_slot[touching]):
            assert abs(sol.scalar_values[k] - value) <= 1e-3

    def test_zero_penalty_pull_matches_unconstrained_local(self):
        # nu = 0 and a vanishing penalty: the copies are effectively
        # free, so the power part matches the local design that assumes
        # no incoming interference and has unbounded outgoing caps
        topo, chans = small_scenario(12)
        prob, _ = assemble_admm_local(
            0, chans, topo, on_pairs(topo, 1.0), on_pairs(topo, 0.0),
            rho=1e-9)
        sol = conic.solve(prob)
        power = sum(float(np.real(np.trace(W))) for W in sol.matrix_values)
        theta_ref = np.zeros((topo.B, topo.U))
        theta_ref[0][topo.ici_mask()[0]] = 1e6
        loose = assemble_subproblem(0, chans, topo, theta_ref)
        ref = conic.solve(loose).objective
        assert power == pytest.approx(ref, rel=1e-4)

    def test_single_cell_has_no_copies(self):
        topo, chans = small_scenario(13, B=1)
        prob, copy_slot = assemble_admm_local(
            0, chans, topo, np.zeros((1, topo.U)), np.zeros((1, topo.U)),
            rho=2.0)
        assert (copy_slot == -1).all() and prob.num_scalars == 0
        sol = conic.solve(prob)
        cen = solve_centralized(chans, topo)
        assert sol.objective == pytest.approx(cen.sdr_objective, rel=1e-7)

    def test_global_update_values(self):
        assert admm_global_update([2.0, 4.0]) == pytest.approx(3.0)
        assert admm_global_update([0.37, 0.37]) == 0.37

    def test_global_update_matches_quadratic_oracle(self):
        rng = np.random.default_rng(14)
        rho = 2.0
        for _ in range(5):
            copies = rng.uniform(0.1, 2.0, size=2)
            nu0 = rng.standard_normal()
            nu = np.array([nu0, -nu0])     # complements, as maintained
            grid = np.linspace(-1, 4, 200001)
            val = sum(nu[k] * (copies[k] - grid)
                      + 0.5 * rho * (copies[k] - grid) ** 2
                      for k in range(2))
            oracle = grid[np.argmin(val)]
            assert admm_global_update(copies) == pytest.approx(
                oracle, abs=1e-4)

    def test_pair_update_sums_exactly_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            nu0 = rng.standard_normal()
            pair = np.array([nu0, -nu0])
            copies = rng.uniform(0, 3, size=2)
            new = admm_pair_dual_update(pair, copies, rho=2.0)
            assert new[0] + new[1] == 0.0


class TestAdmmRun:
    def test_reaches_centralized_and_consensus(self):
        for seed in (0, 3):
            topo, chans = small_scenario(seed)
            cen = solve_centralized(chans, topo)
            trace = run_admm(chans, topo, max_iters=100)
            assert trace.rows[-1]["residual"] <= 1e-3
            rel = abs(trace.rows[-1]["sum_power"] / cen.sdr_objective - 1.0)
            assert rel <= 0.02
            for u in range(topo.U):
                assert evaluate_sinr(chans, trace.solution, u, topo) \
                    >= topo.gamma[u] * (1 - 1e-5)

    def test_pair_sums_zero_every_iteration(self):
        topo, chans = small_scenario(16)
        trace = run_admm(chans, topo, max_iters=25)
        assert all(e["nu_pair_sum"] == 0.0 for e in trace.extras)

    def test_agent_views_rebuild_global_state_exactly(self):
        topo, chans = small_scenario(16)
        trace = run_admm(chans, topo, max_iters=10)
        assert all(e["replica_error"] == 0.0 for e in trace.extras)

    def test_same_exchange_count_as_primal_decomposition(self):
        topo, chans = small_scenario(17)
        pd = run_primal_decomposition(chans, topo, max_iters=2)
        adm = run_admm(chans, topo, max_iters=2)
        assert pd.rows[0]["scalars_exchanged"] \
            == adm.rows[0]["scalars_exchanged"]

    def test_restore_mid_iteration_feasible(self):
        from cobeam.network import network_stack
        from cobeam.power_min import extract_rank_one

        topo, chans = small_scenario(18)
        trace = run_admm(chans, topo, max_iters=5)
        theta = on_pairs(topo, np.maximum(
            trace.ici.theta[topo.ici_mask()], 1e-2))
        W = network_stack(topo, [admm_feasibility_restore(
            b, chans, topo, theta).W for b in range(topo.B)])
        w = extract_rank_one(W)
        for u in range(topo.U):
            assert evaluate_sinr(chans, w, u, topo) \
                >= topo.gamma[u] * (1 - 1e-5)

    def test_restore_single_cell_identity(self):
        topo, chans = small_scenario(19, B=1)
        part = admm_feasibility_restore(0, chans, topo, 0.0)
        cen = solve_centralized(chans, topo)
        assert part.objective == pytest.approx(cen.sdr_objective, rel=1e-7)


class TestDistributedRandomization:
    def test_degenerate_rank_one(self):
        topo, chans = small_scenario(20)
        pd = run_primal_decomposition(chans, topo, max_iters=20)
        theta = on_pairs(topo, np.maximum(pd.ici.theta[topo.ici_mask()],
                                          1e-2))
        exact = np.array([np.outer(w, w.conj()) for w in pd.solution.w])
        rng = np.random.default_rng(21)
        gr = distributed_gaussian_randomization(
            chans, topo, exact, theta, 10, rng)
        assert gr.objective == pytest.approx(pd.solution.objective,
                                             rel=1e-6)

    def test_bounded_below_by_relaxation(self):
        topo, chans = small_scenario(22)
        cen = solve_centralized(chans, topo)
        pd = run_primal_decomposition(chans, topo, max_iters=30)
        theta = on_pairs(topo, np.maximum(pd.ici.theta[topo.ici_mask()],
                                          1e-2))
        W = pd.solution.W
        rng = np.random.default_rng(23)
        gr = distributed_gaussian_randomization(
            chans, topo, W, theta, 30, rng)
        assert gr.objective >= cen.sdr_objective - 1e-7

    def test_selection_exchange_count(self):
        topo, chans = small_scenario(24)
        pd = run_primal_decomposition(chans, topo, max_iters=10)
        theta = on_pairs(topo, np.maximum(pd.ici.theta[topo.ici_mask()],
                                          1e-2))
        W = pd.solution.W
        bus = MessageBus(range(topo.B))
        rng = np.random.default_rng(25)
        distributed_gaussian_randomization(
            chans, topo, W, theta, 17, rng,
            bus=bus)
        assert bus.log.scalars_in_round(0, tags=("gr-power",)) \
            == 17 * topo.B

    def test_pick_matches_highs_reference(self, highs_powers):
        topo, chans = small_scenario(26, G=4, U=8, A=4, gamma=0.5,
                                     cell_separation=10.0)
        rng = np.random.default_rng(27)
        theta = on_pairs(topo, [float(10 ** rng.uniform(-1, 1))
                                for _ in range(topo.ici_mask().sum())])
        # full-rank covariances leaning toward each group's own users
        W = np.array([sum(chans.outer[topo.bs_of_group[g], u]
                          for u in topo.users_of_group(g)) + 0.1 * np.eye(4)
                      for g in range(topo.G)])
        count = 40
        gr = distributed_gaussian_randomization(
            chans, topo, W, theta, count,
            np.random.default_rng(28))
        seeds = np.random.default_rng(28).spawn(topo.B)
        network = np.zeros(count)
        draws = {}
        for b in range(topo.B):
            groups = topo.groups_of_bs(b)
            users, others = topo.users_of_bs(b), topo.out_of_cell_users(b)
            draws.update({g: gaussian_candidates(W[g], count, seeds[b])
                          for g in groups})
            noise = topo.sigma2[users] + [
                sum(theta[j, u] for j in range(topo.B) if j != b)
                for u in users]
            for c in range(count):
                def rows(us):
                    return [[abs(np.vdot(chans.vec(b, u), draws[g][c])) ** 2
                             for g in groups] for u in us]

                x = highs_powers(
                    rows(users),
                    [groups.index(topo.group_of_user[u]) for u in users],
                    topo.gamma[users], noise, cap_gains=rows(others),
                    caps=[theta[b, u] for u in others])
                network[c] += np.inf if x is None else x.sum()
        assert 0 < np.isfinite(network).sum() < count
        pick = int(np.argmin(network))
        assert not gr.gr_fallback
        assert gr.objective == pytest.approx(network[pick], rel=1e-7)
        for g in range(topo.G):
            unit = gr.w[g] / np.sqrt(gr.p[g])
            assert np.linalg.norm(unit - draws[g][pick]) < 1e-12

    def test_fallback_matches_coupled_highs_powers(self, highs_powers):
        # caps far below any draw's leakage: no index meets every BS's
        # caps, so the BSs exchange gains and pick by coupled powers
        topo, chans = small_scenario(26, G=4, U=8, A=4, gamma=0.5,
                                     cell_separation=10.0)
        theta = 1e-9
        W = np.array([sum(chans.outer[topo.bs_of_group[g], u]
                          for u in topo.users_of_group(g)) + 0.1 * np.eye(4)
                      for g in range(topo.G)])
        count = 40
        bus = MessageBus(range(topo.B))
        gr = distributed_gaussian_randomization(
            chans, topo, W, theta, count,
            np.random.default_rng(29), bus=bus)
        assert gr.gr_fallback
        assert verify_exchange_count(
            bus.log, 1, gr_gain_signaling_load(count, topo.U, topo.G))
        seeds = np.random.default_rng(29).spawn(topo.B)
        draws = {}
        for b in range(topo.B):
            draws.update({g: gaussian_candidates(W[g], count, seeds[b])
                          for g in topo.groups_of_bs(b)})
        network, powers = np.full(count, np.inf), {}
        for c in range(count):
            x = highs_powers(
                [[abs(np.vdot(chans.vec(topo.bs_of_group[g], u),
                              draws[g][c])) ** 2 for g in range(topo.G)]
                 for u in range(topo.U)],
                list(topo.group_of_user), topo.gamma, topo.sigma2)
            if x is not None:
                network[c], powers[c] = x.sum(), x
        assert np.isfinite(network).any()
        pick = int(np.argmin(network))
        assert gr.objective == pytest.approx(network[pick], rel=1e-7)
        for g in range(topo.G):
            assert gr.p[g] == pytest.approx(powers[pick][g], rel=1e-7)
            unit = gr.w[g] / np.sqrt(gr.p[g])
            assert np.linalg.norm(unit - draws[g][pick]) < 1e-12
        for u in range(topo.U):
            assert evaluate_sinr(chans, gr, u, topo) \
                >= topo.gamma[u] * (1 - 1e-7)

    def test_fallback_raises_only_when_nothing_is_feasible(self):
        # every user sees user 0's channels, so two co-channel groups at
        # a target above 0 dB cannot both be served by any directions
        topo, chans = small_scenario(30)
        h = np.broadcast_to(chans.h[:, :1], chans.h.shape).copy()
        chans = ChannelSet(h=h, outer=np.einsum("bui,buj->buij", h,
                                                h.conj()))
        theta = 1e-9
        W = np.broadcast_to(np.eye(topo.A), (topo.G, topo.A, topo.A))
        with pytest.raises(RandomizationFailureError,
                           match="network-wide"):
            distributed_gaussian_randomization(
                chans, topo, W, theta, 20,
                np.random.default_rng(31))


class TestSpecialCases:
    def test_nulling_leaks_nothing(self):
        topo, chans = small_scenario(26)
        sol = solve_nulling(chans, topo)
        for g, w in enumerate(sol.w):
            b = topo.bs_of_group[g]
            for u in topo.out_of_cell_users(b):
                assert abs(np.vdot(chans.vec(b, u), w)) ** 2 <= 1e-18
        for u in range(topo.U):
            assert evaluate_sinr(chans, sol, u, topo) \
                >= topo.gamma[u] * (1 - 1e-5)

    def test_fixed_caps_feasible_and_dominated(self):
        topo, chans = small_scenario(27)
        cen = solve_centralized(chans, topo)
        for theta in (0.3, 1.0):
            sol = solve_fixed_ici(chans, topo, theta)
            assert sol.objective >= cen.sdr_objective - 1e-6
            for u in range(topo.U):
                assert evaluate_sinr(chans, sol, u, topo) \
                    >= topo.gamma[u] * (1 - 1e-5)

    def test_bad_caps_are_input_errors(self):
        # not an infeasible solve, nor a ValueError from inside the IPM
        topo, chans = small_scenario(27)
        grid = np.full((topo.B, topo.U), 0.3)
        grid[1, 0] = np.nan
        for theta in (np.nan, -1.0, grid):
            with pytest.raises(ConfigurationError, match="finite"):
                solve_fixed_ici(chans, topo, theta)

    def test_common_theta_variant_runs(self):
        topo, chans = small_scenario(28)
        trace = run_primal_decomposition(chans, topo, max_iters=15,
                                         common_theta=True)
        theta = trace.ici.theta[topo.ici_mask()]
        assert np.allclose(theta, theta[0])

    def test_pair_vector_is_not_a_grid(self):
        # at B = 2 the pair count equals U, so a pair-ordered vector
        # would broadcast along the rows of a (B, U) grid
        topo, chans = small_scenario(28)
        pairs = np.full(topo.ici_mask().sum(), 0.1)
        assert pairs.shape == (topo.U,)
        W = np.broadcast_to(np.eye(topo.A), (topo.G, topo.A, topo.A))
        for run in [
                lambda: run_primal_decomposition(chans, topo, max_iters=1,
                                                 theta0=pairs),
                lambda: solve_fixed_ici(chans, topo, pairs),
                lambda: assemble_subproblem(0, chans, topo, pairs),
                lambda: distributed_gaussian_randomization(
                    chans, topo, W, pairs, 2, np.random.default_rng(0))]:
            with pytest.raises(ConfigurationError, match="shape"):
                run()

    def test_grid_theta0_matches_scalar(self):
        topo, chans = small_scenario(28)
        runs = [run_primal_decomposition(chans, topo, max_iters=3,
                                         theta0=theta0)
                for theta0 in [0.2, np.full((topo.B, topo.U), 0.2)]]
        assert runs[0].rows == runs[1].rows


class TestThreeCells:
    """B = 3 and B = 4, where no BS holds every pair: each BS's own update from
    its inbox must still equal the round's state."""

    def scenario(self):
        return small_scenario(0, B=3, G=3, U=6, A=6)

    @pytest.mark.parametrize("run", [run_primal_decomposition, run_admm])
    def test_agents_match_state_and_load(self, run):
        # and at B = 4, where each BS exchanges with three peers
        for B, U, load in ((3, 6, 24), (4, 8, 48)):
            topo, chans = small_scenario(0, B=B, G=B, U=U, A=6)
            trace = run(chans, topo, max_iters=5)
            assert trace.iterations == 5
            assert periter_signaling_load(B, U) == load
            assert all(r["scalars_exchanged"] == load for r in trace.rows)
            assert all(e["replica_error"] == 0.0 for e in trace.extras)

    def test_common_theta_needs_two_cells(self):
        topo, chans = self.scenario()
        with pytest.raises(ConfigurationError, match="B = 2"):
            run_primal_decomposition(chans, topo, common_theta=True)


def silenced(channels, links):
    """The channel set with the given (BS, user) links zeroed, which
    makes the serving cell's SINR constraint for that user infeasible."""
    h = np.array(channels.h)
    for b, u in links:
        h[b, u] = 0.0
    return ChannelSet(h=h, outer=np.einsum("bui,buj->buij", h, h.conj()))


class TestFirstFailingCell:
    """Per-BS solves run as one batch, yet each scheme still reports the
    first BS (in BS order) whose subproblem fails, with the message a
    BS-by-BS loop gives."""

    # user 1 is served by BS 1 and user 0 by BS 0
    SCHEMES = {
        "pd": (lambda chans, topo: run_primal_decomposition(
            chans, topo, max_iters=3),
            "subproblem of BS {b} infeasible at the initial ICI caps; "
            "retry with a larger theta0"),
        "admm": (lambda chans, topo: run_admm(chans, topo, max_iters=3),
                 "ADMM local problem of BS {b} failed at iteration 0 "
                 "(status SolveStatus.INFEASIBLE)"),
        "fixed": (lambda chans, topo: solve_fixed_ici(chans, topo, 0.1),
                  "fixed-cap subproblem of BS {b} infeasible at "
                  "theta=0.1"),
        "nulling": (lambda chans, topo: solve_nulling(chans, topo),
                    "nulling design infeasible at BS {b}"),
    }

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("links, first", [
        ([(1, 1)], 1), ([(1, 1), (0, 0)], 0)])
    def test_names_the_first_failing_bs(self, scheme, links, first):
        topo, chans = small_scenario(40)
        run, message = self.SCHEMES[scheme]
        with pytest.raises(InfeasibleTargetsError) as err:
            run(silenced(chans, links), topo)
        assert str(err.value) == message.format(b=first)


class TestDualityOracle:
    # B = 3 keeps two groups per BS and A = 8; each BS's groups are then
    # strided by 3, so the cells' covariances interleave in group order
    @pytest.mark.parametrize("B, G, pd_tail", [(2, 4, 2e-3), (3, 6, 1e-2)],
                             ids=["B2", "B3"])
    def test_converged_runs_match_uplink_downlink_duality(
            self, duality_power, B, G, pd_tail):
        # after 100 rounds ADMM's restored design is optimal; PD's best
        # round is feasible for the coupled problem, so it lies at or
        # above the optimum, within its subgradient tail (0.2% at B = 2,
        # up to 0.53% at B = 3)
        topo = build_topology(B=B, G=G, U=G, A=8, gamma=GAMMA_1DB,
                              cell_separation=GAMMA_1DB)
        chans = [sample_channels(topo, seed) for seed in range(3)]
        runs = conic.drive(
            [run_primal_decomposition.steps(c, topo, max_iters=100, step=0.3)
             for c in chans]
            + [run_admm.steps(c, topo, max_iters=100, rho=2.0)
               for c in chans])
        for seed, c in enumerate(chans):
            best = duality_power(c, topo)
            pd, admm = runs[seed], runs[3 + seed]
            assert admm.best_power == pytest.approx(best, rel=1e-6), seed
            assert -1e-7 <= pd.best_power / best - 1.0 <= pd_tail, seed
