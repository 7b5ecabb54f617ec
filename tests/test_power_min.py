"""Centralized power minimization: oracles, randomization, invariants."""

import numpy as np
import pytest
from conftest import row_data

from cobeam import conic
from cobeam.balancing import (balance_centralized, balance_distributed,
                              balance_uncoordinated)
from cobeam.distributed import (run_admm, run_primal_decomposition,
                                solve_fixed_ici, solve_nulling,
                                solve_orthogonal)
from cobeam.errors import ConfigurationError, RandomizationFailureError
from cobeam.network import (BeamformingSolution, ChannelSet,
                            build_topology, evaluate_sinr, sample_channels,
                            sum_power)
from cobeam.power_min import (assemble_qos_sdp, candidate_power_lp,
                              extract_rank_one, finalize,
                              gaussian_candidates, randomize_from_covariances,
                              solve_centralized)


class TestAssembly:
    def test_single_everything(self):
        topo = build_topology(B=1, G=1, U=1, A=2)
        chans = sample_channels(topo, 0)
        prob = assemble_qos_sdp(chans, topo)
        assert len(prob.matrix_vars) == 1
        assert len(row_data(prob)) == 1

    def test_paper_figure_setup(self):
        topo = build_topology(B=2, G=4, U=8, A=12)
        chans = sample_channels(topo, 0)
        prob = assemble_qos_sdp(chans, topo)
        assert len(prob.matrix_vars) == 4
        assert len(row_data(prob)) == 8

    def test_one_constraint_per_user(self):
        for (B, G, U) in [(1, 2, 6), (2, 2, 4), (3, 3, 9)]:
            topo = build_topology(B=B, G=G, U=U, A=4)
            chans = sample_channels(topo, 1)
            prob = assemble_qos_sdp(chans, topo)
            assert len(row_data(prob)) == U
            for u in range(U):
                assert prob.constraint_index(("sinr", u)) == u


class TestCentralizedSolve:
    def test_single_user_matched_filter(self):
        topo = build_topology(B=1, G=1, U=1, A=4, gamma=2.0, sigma2=1.5)
        chans = sample_channels(topo, 3)
        sol = solve_centralized(chans, topo)
        h = chans.vec(0, 0)
        closed = 2.0 * 1.5 / np.linalg.norm(h) ** 2
        assert sol.objective == pytest.approx(closed, rel=1e-6)
        # beam direction aligns with the channel (up to phase)
        w = sol.w[0] / np.linalg.norm(sol.w[0])
        assert abs(abs(np.vdot(w, h / np.linalg.norm(h))) - 1) < 1e-5

    def test_single_user_per_group_rank_one(self):
        hits = 0
        for seed in range(10):
            topo = build_topology(B=2, G=4, U=4, A=8, gamma=10 ** 0.1)
            chans = sample_channels(topo, seed)
            sol = solve_centralized(chans, topo)
            if (sol.sdr_rank == 1).all():
                hits += 1
        assert hits == 10

    def test_vanishing_target_vanishing_power(self):
        topo = build_topology(B=1, G=2, U=4, A=6, gamma=1e-6)
        chans = sample_channels(topo, 4)
        sol = solve_centralized(chans, topo)
        assert sol.objective < 1e-4

    def test_targets_met_with_equality_when_rank_one(self):
        topo = build_topology(B=2, G=2, U=4, A=6, gamma=1.2)
        chans = sample_channels(topo, 5)
        sol = solve_centralized(chans, topo)
        assert (sol.sdr_rank == 1).all()
        for u in range(topo.U):
            sinr = evaluate_sinr(chans, sol, u, topo)
            assert sinr == pytest.approx(1.2, rel=1e-5)

    def test_target_monotonicity(self):
        base = None
        for gamma in (0.8, 1.2, 2.0):
            topo = build_topology(B=2, G=2, U=4, A=6, gamma=gamma)
            chans = sample_channels(topo, 6)
            sol = solve_centralized(chans, topo)
            if base is not None:
                assert sol.sdr_objective >= base - 1e-7
            base = sol.sdr_objective

    def test_noise_scaling_homogeneity(self):
        topo1 = build_topology(B=2, G=2, U=4, A=6, gamma=1.2, sigma2=1.0)
        topo2 = build_topology(B=2, G=2, U=4, A=6, gamma=1.2, sigma2=3.0)
        chans = sample_channels(topo1, 7)
        sol1 = solve_centralized(chans, topo1)
        sol2 = solve_centralized(chans, topo2)
        assert sol2.sdr_objective == pytest.approx(3.0 * sol1.sdr_objective,
                                                   rel=1e-6)
        for g in range(topo1.G):
            d1 = sol1.w[g] / np.linalg.norm(sol1.w[g])
            d2 = sol2.w[g] / np.linalg.norm(sol2.w[g])
            assert abs(abs(np.vdot(d1, d2)) - 1) < 1e-4


class TestGaussianCandidates:
    def test_rank_one_degenerate(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        W = np.outer(w, w.conj())
        for cand in gaussian_candidates(W, 5, rng):
            assert abs(abs(np.vdot(cand, w / np.linalg.norm(w))) - 1) < 1e-9
            assert np.linalg.norm(cand) == pytest.approx(1.0)

    def test_sample_covariance_matches(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        W = q @ q.conj().T
        L = conic.psd_sqrt(W)
        draws = np.empty((10_000, 3), dtype=complex)
        for k in range(draws.shape[0]):
            z = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) \
                / np.sqrt(2)
            draws[k] = L @ z
        emp = np.einsum("ki,kj->ij", draws, draws.conj()) / draws.shape[0]
        rel = np.linalg.norm(emp - W) / np.linalg.norm(W)
        assert rel < 0.05

    def test_zero_count(self):
        rng = np.random.default_rng(10)
        state = rng.bit_generator.state
        assert gaussian_candidates(np.eye(2), 0, rng).shape == (0, 2)
        # an empty draw takes nothing from the stream
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("count", [2.5, -1, True, "3", None])
    def test_bad_count_named(self, count):
        with pytest.raises(ConfigurationError, match="gr_count"):
            gaussian_candidates(np.eye(2), count, np.random.default_rng(0))

    def test_numpy_integer_count(self):
        assert gaussian_candidates(np.eye(2), np.int64(3),
                                   np.random.default_rng(0)).shape == (3, 2)

    def test_excluded_direction_stays_out(self):
        # a covariance built orthogonal to h: its roundoff-sized
        # eigenvalue along h must not turn into a 1e-8 leak toward h
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(5):
            h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            X = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
            X -= np.outer(h, h.conj() @ X) / np.vdot(h, h)
            W = X @ X.conj().T
            for v in gaussian_candidates(W, 200, rng):
                worst = max(worst, abs(np.vdot(h, v)) / np.linalg.norm(h))
        assert worst < 1e-13

    def test_matches_per_candidate_loop(self):
        # the per-candidate loop the block draw replaced
        def loop(W, count, rng):
            L = conic.psd_sqrt(W)
            out = []
            for _ in range(count):
                z = (rng.standard_normal(W.shape[0])
                     + 1j * rng.standard_normal(W.shape[0])) / np.sqrt(2.0)
                cand = L @ z
                out.append(cand / np.linalg.norm(cand))
            return out

        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 8):
            q = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            W = q @ q.conj().T
            old_rng, new_rng = (np.random.default_rng(12) for _ in range(2))
            old = loop(W, 50, old_rng)
            new = gaussian_candidates(W, 50, new_rng)
            # the same stream of normals consumed
            assert new_rng.bit_generator.state == old_rng.bit_generator.state
            assert len(new) == 50
            # the batched norm sums in another order than BLAS's ddot
            np.testing.assert_allclose(new, old, rtol=0, atol=4e-16)


def _randomizing_design(name, **kwargs):
    """Solution of design ``name`` on a draw whose relaxation is not of
    rank one, so it goes through Gaussian randomization: the perfbench
    ``multicast-gr`` shape at channel seed 1, or that of
    ``scenarios/balancing_gr.json`` at seeds 4 and 1."""
    if name.startswith("balance"):
        topo = build_topology(B=2, G=2, U=8, A=4, gamma=1.0,
                              cell_separation=10 ** 0.1)
        if name == "balance-centralized":
            return balance_centralized(sample_channels(topo, 4), topo,
                                       **kwargs).solution
        return balance_distributed(sample_channels(topo, 1), topo, 0.1,
                                   **kwargs).solution
    topo = build_topology(B=2, G=2, U=20, A=8, gamma=10 ** 0.1,
                          cell_separation=10 ** 0.6)
    chans = sample_channels(topo, 1)
    if name == "centralized":
        return solve_centralized(chans, topo, **kwargs)
    if name == "fixed-theta":
        return solve_fixed_ici(chans, topo, 0.1, **kwargs)
    run = {"primal-decomp": run_primal_decomposition, "admm": run_admm}
    return run[name](chans, topo, max_iters=5, **kwargs).solution


RANDOMIZING = ["centralized", "primal-decomp", "admm", "fixed-theta",
               "balance-centralized", "balance-distributed"]


class TestRandomizationInputs:
    @pytest.mark.parametrize("count", [2.5, -1, True])
    @pytest.mark.parametrize("name", RANDOMIZING)
    def test_bad_gr_count_named(self, name, count):
        with pytest.raises(ConfigurationError, match="gr_count"):
            _randomizing_design(name, gr_count=count)

    @pytest.mark.parametrize("name", RANDOMIZING)
    def test_int_seed_is_its_generator(self, name):
        sol = _randomizing_design(name, rng=7)
        ref = _randomizing_design(name, rng=np.random.default_rng(7))
        assert sol.used_randomization and ref.used_randomization
        assert sol.objective == ref.objective
        assert np.array_equal(sol.w, ref.w)


# every design that may randomize, each on power_min_small.json's shape
# (gamma = d = 1 dB) at channel seed 3, where all of their relaxations
# are rank one, so none of them ever draws
RANK_ONE_DESIGNS = {
    "centralized": solve_centralized,
    "primal-decomp": lambda *a, **k: run_primal_decomposition(
        *a, max_iters=2, **k),
    "admm": lambda *a, **k: run_admm(*a, max_iters=2, **k),
    "fixed-theta": lambda *a, **k: solve_fixed_ici(*a, 0.1, **k),
    "nulling": solve_nulling,
    "orthogonal": solve_orthogonal,
    "balance-centralized": balance_centralized,
    "balance-distributed": lambda *a, **k: balance_distributed(
        *a, 0.1, **k),
    "balance-uncoordinated": balance_uncoordinated,
}


class TestGrCountAtStart:
    @staticmethod
    def instance():
        topo = build_topology(B=2, G=2, U=4, A=6, gamma=10 ** 0.1,
                              cell_separation=10 ** 0.1)
        return sample_channels(topo, 3), topo

    @pytest.mark.parametrize("count", [2.5, -1, True])
    @pytest.mark.parametrize("name", RANK_ONE_DESIGNS)
    def test_bad_gr_count_named_without_a_draw(self, name, count):
        # a design checks gr_count where it starts, so one that would
        # extract its beams without a draw rejects it all the same
        with pytest.raises(ConfigurationError, match="gr_count"):
            RANK_ONE_DESIGNS[name](*self.instance(), gr_count=count)

    @pytest.mark.parametrize("name", RANK_ONE_DESIGNS)
    def test_instance_draws_nothing(self, name):
        out = RANK_ONE_DESIGNS[name](*self.instance())
        sol = getattr(out, "solution", out)
        assert not sol.used_randomization


class TestStackedFinalize:
    def test_matches_per_matrix_bits(self):
        # finalize takes the ranks and principal eigenpairs of a whole
        # stack in one scipy call; each covariance must keep the bits of
        # its own call, or every design's beams and digests would move
        rng = np.random.default_rng(60)
        seen = set()
        for _ in range(200):
            G, A = int(rng.integers(1, 7)), int(rng.integers(2, 13))
            factors = [rng.standard_normal((A, r))
                       + 1j * rng.standard_normal((A, r))
                       for r in (1 if rng.random() < 0.8
                                 else int(rng.integers(2, A + 1))
                                 for _ in range(G))]
            W = np.stack([f @ f.conj().T for f in factors])
            sol = finalize(W, lambda W: BeamformingSolution(
                used_randomization=True))
            assert sol.sdr_rank.tolist() == [conic.numerical_rank(M)
                                             for M in W]
            seen.add(sol.used_randomization)
            if sol.used_randomization:
                continue
            for M, w, p in zip(W, sol.w, sol.p):
                ref = extract_rank_one(M)
                assert w.tobytes() == ref.tobytes()
                assert p == float(np.linalg.norm(ref) ** 2)
        assert seen == {False, True}


class TestCandidatePowerLp:
    def test_matched_filter_direction(self):
        topo = build_topology(B=1, G=1, U=1, A=3, gamma=1.8, sigma2=2.0)
        chans = sample_channels(topo, 11)
        h = chans.vec(0, 0)
        powers = candidate_power_lp(chans, topo, [h / np.linalg.norm(h)])
        assert powers is not None
        assert powers[0] == pytest.approx(1.8 * 2.0 / np.linalg.norm(h) ** 2,
                                          rel=1e-6)

    def test_orthogonal_candidate_infeasible(self):
        topo = build_topology(B=1, G=1, U=1, A=2, gamma=1.0)
        chans = sample_channels(topo, 12)
        h = chans.vec(0, 0)
        orth = np.array([-h[1].conj(), h[0].conj()])
        orth = orth / np.linalg.norm(orth)
        assert candidate_power_lp(chans, topo, [orth]) is None

    def test_isolated_cells_decouple(self):
        # d huge: network LP decomposes into independent per-cell LPs
        topo = build_topology(B=2, G=2, U=4, A=4, gamma=1.1,
                              cell_separation=1e12)
        chans = sample_channels(topo, 13)
        rng = np.random.default_rng(14)
        cands = np.zeros((2, 4), dtype=complex)
        for g in range(2):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            # keep candidates useful: bias toward the served users
            for u in topo.users_of_group(g):
                v = v + chans.vec(topo.bs_of_group[g], u)
            cands[g] = v / np.linalg.norm(v)
        powers = candidate_power_lp(chans, topo, cands)
        assert powers is not None
        # per-cell oracle: single-group LP with only in-cell users
        for g in range(2):
            b = topo.bs_of_group[g]
            users = topo.users_of_group(g)
            need = 0.0
            for u in users:
                gain = abs(np.vdot(chans.vec(b, u), cands[g])) ** 2
                need = max(need, topo.gamma[u] * topo.sigma2[u] / gain)
            assert powers[g] == pytest.approx(need, rel=1e-4)


class TestRandomizationSoundness:
    def higher_rank_instance(self):
        # many users per group pushes the relaxation away from rank one
        for seed in range(60):
            topo = build_topology(B=1, G=2, U=12, A=4, gamma=1.0)
            chans = sample_channels(topo, seed)
            sdp = assemble_qos_sdp(chans, topo)
            sol = conic.solve(sdp)
            if sol.status is not conic.SolveStatus.OPTIMAL:
                continue
            W = np.stack(sol.matrix_values)
            if (conic.numerical_rank(W) > 1).any():
                return topo, chans, W, sol.objective
        raise AssertionError("no higher-rank instance found")

    def test_randomized_solution_feasible_and_bounded(self):
        topo, chans, W_star, sdr_obj = self.higher_rank_instance()
        rng = np.random.default_rng(100)
        sol = randomize_from_covariances(chans, topo, W_star, 100, rng,
                                         sdr_objective=sdr_obj)
        assert sol.used_randomization
        assert sol.objective >= sdr_obj - 1e-7
        for u in range(topo.U):
            sinr = evaluate_sinr(chans, sol, u, topo)
            assert sinr >= topo.gamma[u] * (1 - 1e-5)

    def test_pick_matches_highs_loop(self, highs_powers):
        topo, chans, W_star, sdr_obj = self.higher_rank_instance()
        sol = randomize_from_covariances(chans, topo, W_star, 100,
                                         np.random.default_rng(102))
        rng = np.random.default_rng(102)
        draws = {g: gaussian_candidates(W_star[g], 100, rng)
                 for g in range(topo.G)}
        totals = []
        for c in range(100):
            gains = [[abs(np.vdot(chans.vec(topo.bs_of_group[g], u),
                                  draws[g][c])) ** 2 for g in range(topo.G)]
                     for u in range(topo.U)]
            x = highs_powers(gains, topo.group_of_user, topo.gamma,
                             topo.sigma2)
            totals.append(np.inf if x is None else x.sum())
        pick = int(np.argmin(totals))
        assert sol.objective == pytest.approx(totals[pick], rel=1e-7)
        for g in range(topo.G):
            unit = sol.w[g] / np.sqrt(sol.p[g])
            dist = [np.linalg.norm(unit - d) for d in draws[g]]
            assert int(np.argmin(dist)) == pick
            assert dist[pick] < 1e-12

    def test_all_candidates_infeasible(self):
        # each group's covariance spans exactly the null space of its own
        # users' channels, so every draw is orthogonal to them
        topo = build_topology(B=1, G=2, U=4, A=4)
        e = np.eye(4, dtype=complex)
        h = np.stack([e[0] + e[1], e[2], e[0] - 2j * e[1], e[3]])[None]
        chans = ChannelSet(h=h, outer=np.einsum("bui,buj->buij", h,
                                                h.conj()))
        W = np.array([np.diag([0, 0, 1.0, 1.0]), np.diag([1.0, 1.0, 0, 0])])
        with pytest.raises(RandomizationFailureError) as err:
            randomize_from_covariances(chans, topo, W, 20,
                                       np.random.default_rng(103),
                                       sdr_objective=2.5)
        assert err.value.sdr_solution.objective == 2.5
        np.testing.assert_array_equal(err.value.sdr_solution.W, W)

    def test_sum_power_consistency(self):
        topo, chans, W_star, sdr_obj = self.higher_rank_instance()
        rng = np.random.default_rng(101)
        sol = randomize_from_covariances(chans, topo, W_star, 50, rng)
        assert sum_power(sol) == pytest.approx(sol.objective, rel=1e-9)
        assert sum_power(sol) == pytest.approx(sol.p.sum())


class TestDualityOracle:
    def test_sdr_matches_uplink_downlink_duality(self, duality_power):
        # unicast, so the relaxation is tight and its optimum is the
        # duality fixed point's
        topo = build_topology(B=2, G=4, U=4, A=8, gamma=10 ** 0.1,
                              cell_separation=10 ** 0.1)
        for seed in range(10):
            chans = sample_channels(topo, seed)
            sol = solve_centralized(chans, topo)
            assert sol.sdr_objective == pytest.approx(
                duality_power(chans, topo), rel=1e-7), seed
