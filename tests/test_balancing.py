"""Max-min balancing: bisection contracts, oracles, dominance."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from conftest import loop_sinr_system

from cobeam import balancing, conic
from cobeam.errors import (ConfigurationError, IndeterminateError,
                           RandomizationFailureError, StateError)
from cobeam.network import build_topology, sample_channels
from cobeam.balancing import (achieved_min_sinr, balance_centralized,
                              balance_distributed,
                              balance_gaussian_randomization,
                              balance_uncoordinated, bisect, bisect_balance,
                              local_balance, local_balance_gr,
                              single_user_upper_bound,
                              uncoordinated_balance)
from cobeam.conic.ipm import ACCEPT_TOL, point_violation
from cobeam.experiment import db_to_linear, parse_scenario, run_sweep
from cobeam.power_min import (capped_least_powers, direction_system,
                              fixed_direction_powers, gaussian_candidates,
                              sinr_system)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def two_cell(seed, **overrides):
    params = dict(B=2, G=2, U=4, A=4, gamma=1.0, p_max=10.0,
                  cell_separation=10 ** 0.1)
    params.update(overrides)
    topo = build_topology(**params)
    return topo, sample_channels(topo, seed)


class TestBisectHelper:
    def test_synthetic_monotone_oracle(self):
        def oracle(t):
            return t <= 3.7, {"at": t}

        res = bisect(0.0, 10.0, 0.01, oracle)
        assert res.t == pytest.approx(3.7, abs=0.01)
        assert res.calls == int(np.ceil(np.log2(10.0 / 0.01)))
        assert res.upper - res.lower <= 0.01
        assert res.payload["at"] == res.lower

    def test_call_count_formula(self):
        for width, eps in [(10.0, 0.01), (4.0, 1e-3), (1.0, 0.25)]:
            res = bisect(0.0, width, eps, lambda t: (t <= width / 3, None))
            assert res.calls == int(np.ceil(np.log2(width / eps)))

    def test_probes_monotone_consistent(self):
        res = bisect(0.0, 8.0, 1e-2, lambda t: (t <= 2.2, None))
        feas_ts = [t for t, f in res.probes if f]
        infeas_ts = [t for t, f in res.probes if not f]
        if feas_ts and infeas_ts:
            assert max(feas_ts) < min(infeas_ts)

    def test_indeterminate_probe_counted_infeasible(self):
        # the first probe (t = 5) is feasible but undecided: counted as
        # infeasible, it costs the level its whole step
        def oracle(t):
            if t == 5.0:
                raise IndeterminateError("knife edge")
            return t <= 7.0, None

        res = bisect(0.0, 10.0, 0.01, oracle)
        assert res.indeterminate == 1
        assert res.probes[0] == (5.0, False)
        assert res.upper == 5.0 and res.lower > 4.98
        assert res.calls == int(np.ceil(np.log2(10.0 / 0.01)))
        assert bisect(0.0, 10.0, 0.01, lambda t: (t <= 7.0, None)) \
            .indeterminate == 0

    def test_bad_bracket_rejected(self):
        with pytest.raises(ConfigurationError):
            bisect(1.0, 0.0, 0.1, lambda t: (True, None))
        with pytest.raises(ConfigurationError):
            bisect(0.0, 1.0, -0.1, lambda t: (True, None))


def feasibility_at(chans, topo, t):
    """The relaxed balancing feasibility problem at SINR level t."""
    return sinr_system(chans, topo, level=t, budget=True,
                       objective=False)[0]


class TestFeasibilityAssembly:
    def test_zero_level_feasible(self):
        topo, chans = two_cell(0)
        assert conic.check_feasibility(
            feasibility_at(chans, topo, 0.0)) is True

    def test_single_user_bound_infeasible(self):
        topo = build_topology(B=1, G=1, U=1, A=3, p_max=2.0)
        chans = sample_channels(topo, 1)
        cap = single_user_upper_bound(chans, topo)
        assert conic.check_feasibility(
            feasibility_at(chans, topo, 1.02 * cap)) is False
        assert conic.check_feasibility(
            feasibility_at(chans, topo, 0.9 * cap)) is True

    def test_monotone_in_level(self):
        topo, chans = two_cell(2)
        levels = np.linspace(0.1, 3.0, 6)
        flags = [conic.check_feasibility(
            feasibility_at(chans, topo, t)) for t in levels]
        # once infeasible, stays infeasible
        for a, b in zip(flags, flags[1:]):
            assert a or not b


class TestCentralizedBalance:
    def test_single_user_matched_filter_level(self):
        topo = build_topology(B=1, G=1, U=1, A=3, p_max=2.0, sigma2=1.0)
        chans = sample_channels(topo, 3)
        res = bisect_balance(chans, topo, epsilon=1e-3)
        closed = 2.0 * np.linalg.norm(chans.vec(0, 0)) ** 2
        assert res.t == pytest.approx(closed, abs=1e-3)

    def test_interval_contract(self):
        topo, chans = two_cell(4)
        res = bisect_balance(chans, topo, epsilon=1e-3)
        assert res.upper - res.lower <= 1e-3
        width0 = single_user_upper_bound(chans, topo)
        assert res.calls == int(np.ceil(np.log2(width0 / 1e-3)))

    def test_achieved_matches_level_when_rank_one(self):
        topo, chans = two_cell(5)
        out = balance_centralized(chans, topo, epsilon=1e-3)
        if (out.solution.sdr_rank == 1).all():
            assert out.achieved == pytest.approx(out.t_relaxed, abs=2e-3)

    def test_scale_invariance(self):
        # scaling both budgets and noise leaves the level unchanged
        topo1 = build_topology(B=2, G=2, U=4, A=4, p_max=10.0, sigma2=1.0,
                               cell_separation=2.0)
        topo2 = build_topology(B=2, G=2, U=4, A=4, p_max=50.0, sigma2=5.0,
                               cell_separation=2.0)
        chans = sample_channels(topo1, 7)
        r1 = bisect_balance(chans, topo1, epsilon=1e-3)
        r2 = bisect_balance(chans, topo2, epsilon=1e-3)
        assert r1.t == pytest.approx(r2.t, abs=2e-3)


class TestBalanceRandomization:
    def test_rank_one_candidate_recovers_level(self):
        topo, chans = two_cell(8)
        out = balance_centralized(chans, topo, epsilon=1e-3)
        assert (out.solution.sdr_rank == 1).all()
        w = out.solution.w
        V = (w / np.linalg.norm(w, axis=1, keepdims=True))[None]
        t, powers, idx = balance_gaussian_randomization(
            chans, topo, V, epsilon=1e-3)
        assert idx == 0
        assert t == pytest.approx(out.t_relaxed, abs=2e-3)

    def test_orthogonal_candidate_scores_zero(self):
        topo = build_topology(B=1, G=1, U=1, A=2, p_max=5.0)
        chans = sample_channels(topo, 9)
        h = chans.vec(0, 0)
        orth = np.array([-h[1].conj(), h[0].conj()])
        orth /= np.linalg.norm(orth)
        with pytest.warns(UserWarning):
            t, powers, idx = balance_gaussian_randomization(
                chans, topo, orth[None, None], epsilon=1e-3)
        assert t <= 1e-3

    def test_equal_zero_levels_pick_first(self):
        # three directions orthogonal to the one user's channel all
        # balance to zero: the scorer warns and keeps the first
        topo = build_topology(B=1, G=1, U=1, A=4, p_max=5.0)
        chans = sample_channels(topo, 9)
        h = chans.vec(0, 0)
        # three unit directions spanning the null space of h^H
        V = np.linalg.svd(h[None].conj())[2][1:, None].conj()
        assert np.abs(V @ h.conj()).max() < 1e-12
        with pytest.warns(UserWarning):
            t, powers, idx = balance_gaussian_randomization(
                chans, topo, V, epsilon=1e-3)
        assert t <= 1e-3
        assert idx == 0

    def test_empty_draw_raises_with_relaxation(self):
        # balancing_gr.json's trial 0 relaxes to higher rank; with no
        # draws the pipeline hands the relaxation back
        config = parse_scenario(SCENARIOS / "balancing_gr.json")
        topo = build_topology(
            B=config.B, G=config.G, U=config.U, A=config.A,
            gamma=float(db_to_linear(config.gamma_db[0])),
            sigma2=config.sigma2, p_max=config.p_max[0],
            cell_separation=float(db_to_linear(config.d_db[0])))
        chans = sample_channels(topo, np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(0,))))
        with pytest.raises(RandomizationFailureError) as err:
            balance_centralized(chans, topo, epsilon=config.epsilon,
                                gr_count=0)
        W = err.value.sdr_solution.W
        assert W.shape == (topo.G, topo.A, topo.A)
        assert conic.numerical_rank(W).max() > 1

    def test_upper_bounded_by_relaxation(self):
        topo, chans = two_cell(10)
        res = bisect_balance(chans, topo, epsilon=1e-3)
        rng = np.random.default_rng(11)
        V = np.stack([gaussian_candidates(W, 5, rng) for W in res.payload],
                     axis=1)
        t, powers, idx = balance_gaussian_randomization(chans, topo, V,
                                                        epsilon=1e-3)
        assert t <= res.t + 1e-3


def aimed_directions(rng, chans, topo, groups, count, b=None):
    """Random unit directions per group, tilted toward its users."""
    sets = []
    for _ in range(count):
        cand = {}
        for g in groups:
            v = rng.standard_normal(topo.A) + 1j * rng.standard_normal(topo.A)
            for u in topo.users_of_group(g):
                v = v + chans.vec(topo.bs_of_group[g], u)
            cand[g] = v / np.linalg.norm(v)
        sets.append(cand)
    return sets


def highs_rows(chans, topo, cand, b=None, theta=None):
    """The fixed-direction LP of one direction set, built with np.vdot:
    users, gains, served columns, noise, cap rows (outgoing caps of cell
    b, then the power budgets) and caps."""
    groups = range(topo.G) if b is None else topo.groups_of_bs(b)
    users = range(topo.U) if b is None else topo.users_of_bs(b)
    bss = range(topo.B) if b is None else [b]

    def gain_rows(us):
        return np.array([[abs(np.vdot(chans.vec(topo.bs_of_group[g], u),
                                      cand[g])) ** 2
                          for g in groups] for u in us]).reshape(-1,
                                                                 len(groups))

    noise = [topo.sigma2[u] + (0.0 if b is None else sum(
        theta[j, u] for j in range(topo.B) if j != b)) for u in users]
    others = [] if b is None else topo.out_of_cell_users(b)
    caps = [theta[b, u] for u in others] + [topo.p_max[j] for j in bss]
    cap_rows = np.vstack([gain_rows(others), [
        [float(topo.bs_of_group[g] == j) for g in groups] for j in bss]])
    own = [list(groups).index(topo.group_of_user[u]) for u in users]
    return list(users), gain_rows(users), own, noise, cap_rows, caps


class TestBalancingProbesAgainstHighs:
    """A balancing GR probe at level t is the least point at targets t,
    feasible exactly when it meets the budgets and caps."""

    def check_probes(self, highs_powers, b=None, make_theta=None):
        rng = np.random.default_rng(40 if b is None else 41)
        outcomes = set()
        for trial in range(12):
            topo, chans = two_cell(200 + trial, G=4, U=8,
                                   p_max=float(rng.uniform(1, 20)))
            theta = make_theta(rng, topo) if make_theta else None
            groups = range(topo.G) if b is None else topo.groups_of_bs(b)
            sets = aimed_directions(rng, chans, topo, groups, 4)
            V = np.array([[cand[g] for g in groups] for cand in sets])
            system = direction_system(chans, topo, V, cell=b, theta=theta,
                                      budget=True)
            users, gains, own, noise, cap_gains, caps = system
            for c, cand in enumerate(sets):
                rows = highs_rows(chans, topo, cand, b, theta)
                for t in 10 ** rng.uniform(-1.5, 1.0, size=4):
                    target = np.full(len(users), t)
                    p = capped_least_powers(gains[c:c + 1], own, target,
                                            noise, cap_gains[c:c + 1],
                                            caps)[0]
                    x = highs_powers(rows[1], rows[2], target, rows[3],
                                     cap_gains=rows[4], caps=rows[5])
                    if x is None:
                        assert np.isinf(p).all()
                        bare = highs_powers(rows[1], rows[2], target,
                                            rows[3])
                        outcomes.add("sinr" if bare is None else "caps")
                    else:
                        np.testing.assert_allclose(p, x, rtol=1e-7)
                        outcomes.add("feasible")
        assert outcomes == {"sinr", "caps", "feasible"}

    def test_network_form(self, highs_powers):
        self.check_probes(highs_powers)

    def test_per_cell_form(self, highs_powers):
        def theta(rng, topo):
            # incoming ICI assumed into cell 0, outgoing caps out of it
            mask = topo.ici_mask()
            theta = np.zeros(mask.shape)
            theta[mask] = [10 ** rng.uniform(-2, 0.5)
                           for _ in range(mask.sum())]
            return theta

        self.check_probes(highs_powers, b=0, make_theta=theta)

    @pytest.mark.parametrize("cell", [None, 1])
    def test_pick_matches_highs_bisection(self, highs_powers, cell):
        topo, chans = two_cell(230, G=4, U=8)
        rng = np.random.default_rng(42)
        theta = np.full((topo.B, topo.U), 0.3)
        groups = range(topo.G) if cell is None else topo.groups_of_bs(cell)
        sets = aimed_directions(rng, chans, topo, groups, 12)
        V = np.array([[cand[g] for g in groups] for cand in sets])
        if cell is None:
            got = balance_gaussian_randomization(chans, topo, V, 1e-3)
            upper = single_user_upper_bound(chans, topo)
        else:
            got = local_balance_gr(cell, chans, topo, V, 0.3, 1e-3)
            upper = single_user_upper_bound(chans, topo,
                                            topo.users_of_bs(cell))
        best = (0.0, None, -1)
        for idx, cand in enumerate(sets):
            _, gains, own, noise, cap_rows, caps = highs_rows(
                chans, topo, cand, cell, theta)

            def probe(t):
                x = highs_powers(gains, own, np.full(len(own), t), noise,
                                 cap_gains=cap_rows, caps=caps)
                return x is not None, x

            res = bisect(0.0, upper, 1e-3, probe)
            if res.t > best[0] or best[2] < 0:
                best = (res.t, res.payload, idx)
        assert got[2] == best[2]
        assert got[0] == best[0]
        np.testing.assert_allclose(got[1], best[1], rtol=1e-7)


    @pytest.mark.parametrize("cell", [None, 1])
    def test_repeated_sets_pick_first(self, cell):
        # a draw of [a, b, a, b] ties each set with its copy: the pick is
        # the first of the best, at the level and powers it has alone
        topo, chans = two_cell(231, G=4, U=8)
        groups = range(topo.G) if cell is None else topo.groups_of_bs(cell)
        sets = aimed_directions(np.random.default_rng(43), chans, topo,
                                groups, 2)
        a, b = np.array([[cand[g] for g in groups] for cand in sets])

        def score(V):
            if cell is None:
                return balance_gaussian_randomization(chans, topo, V, 1e-3)
            return local_balance_gr(cell, chans, topo, V, 0.3, 1e-3)

        alone = [score(v[None]) for v in (a, b)]
        assert alone[0][0] != alone[1][0]
        best = int(alone[1][0] > alone[0][0])
        for first, V in ((best, [a, b, a, b]), (1 - best, [b, a, b, a])):
            t, powers, idx = score(np.stack(V))
            assert idx == first
            assert t == alone[best][0]
            assert np.array_equal(powers, alone[best][1])


class TestLocalBalance:
    def test_matches_centralized_single_cell(self):
        topo = build_topology(B=1, G=2, U=4, A=4, p_max=10.0)
        chans = sample_channels(topo, 12)
        cen = bisect_balance(chans, topo, epsilon=1e-3)
        loc = local_balance(0, chans, topo, theta_cap=1e9, epsilon=1e-3)
        assert loc.t == pytest.approx(cen.t, abs=2e-3)

    def test_per_cell_levels_differ(self):
        topo, chans = two_cell(13)
        t_vals = [local_balance(b, chans, topo, 0.5, epsilon=1e-3).t
                  for b in range(2)]
        assert t_vals[0] != pytest.approx(t_vals[1], abs=1e-3)

    def test_outgoing_caps_respected(self):
        topo, chans = two_cell(14)
        cap = 0.4
        for b in range(2):
            res = local_balance(b, chans, topo, cap, epsilon=1e-3)
            for u in topo.out_of_cell_users(b):
                leak = sum(float(np.real(np.trace(chans.outer[b, u] @ W)))
                           for W in res.payload)
                assert leak <= cap + 1e-7

    def test_dominated_by_centralized(self):
        topo, chans = two_cell(15)
        cen = balance_centralized(chans, topo, epsilon=1e-3)
        if not (cen.solution.sdr_rank == 1).all():
            pytest.skip("relaxation not tight on this draw")
        for cap in (0.1, 1.0):
            out = balance_distributed(chans, topo, cap, epsilon=1e-3)
            assert out.achieved <= cen.t_relaxed + 2e-3

    def test_local_gr_consistency_and_caps(self):
        topo, chans = two_cell(16)
        cap = 0.6
        b = 0
        res = local_balance(b, chans, topo, cap, epsilon=1e-3)
        # rank-one extraction as the single candidate
        from cobeam.power_min import extract_rank_one
        w = extract_rank_one(res.payload)
        cand = w / np.linalg.norm(w, axis=1, keepdims=True)
        t_b, powers, idx = local_balance_gr(b, chans, topo, cand[None], cap,
                                            epsilon=1e-3)
        assert t_b == pytest.approx(res.t, abs=2e-3)
        for u in topo.out_of_cell_users(b):
            leak = sum(p * abs(np.vdot(chans.vec(b, u), v)) ** 2
                       for p, v in zip(powers, cand))
            assert leak <= cap + 1e-8

    def test_numpy_scalar_cap_broadcasts(self):
        # a cap that randomizes in cell 0, so both the relaxation and the
        # randomization see it
        topo = build_topology(B=2, G=4, U=8, A=3, p_max=10.0,
                              cell_separation=10 ** 0.1)
        chans = sample_channels(topo, 0)
        outs = [balance_distributed(chans, topo, cap, epsilon=1e-2,
                                    gr_count=20, rng=np.random.default_rng(0))
                for cap in (0.1, np.float64(0.1))]
        assert outs[0].solution.used_randomization
        assert outs[0].t_relaxed == outs[1].t_relaxed
        assert outs[0].achieved == outs[1].achieved
        assert outs[0].per_cell_t == outs[1].per_cell_t
        for g in range(topo.G):
            assert np.array_equal(outs[0].solution.w[g],
                                  outs[1].solution.w[g])

    def test_level_nondecreasing_in_budget(self):
        topo1 = build_topology(B=2, G=2, U=4, A=4, p_max=5.0,
                               cell_separation=2.0)
        topo2 = build_topology(B=2, G=2, U=4, A=4, p_max=10.0,
                               cell_separation=2.0)
        chans = sample_channels(topo1, 17)
        t1 = local_balance(0, chans, topo1, 0.5, epsilon=1e-3).t
        t2 = local_balance(0, chans, topo2, 0.5, epsilon=1e-3).t
        assert t2 >= t1 - 2e-3


class TestUncoordinated:
    def test_single_cell_equals_centralized(self):
        topo = build_topology(B=1, G=2, U=4, A=4, p_max=10.0)
        chans = sample_channels(topo, 18)
        cen = bisect_balance(chans, topo, epsilon=1e-3)
        unc = uncoordinated_balance(0, chans, topo, epsilon=1e-3)
        assert unc.t == pytest.approx(cen.t, abs=2e-3)

    def test_truth_no_better_than_blind_estimate(self):
        topo, chans = two_cell(19)
        out = balance_uncoordinated(chans, topo, epsilon=1e-3)
        blind = min(out.per_cell_t.values())
        assert out.achieved <= blind + 1e-6

    @pytest.mark.parametrize("G, U", [(2, 4), (4, 8)])
    def test_no_ici_is_the_blind_grid(self, G, U):
        # theta=None scores a cell alone exactly as a grid with no
        # incoming ICI and a cap far above any leakage on its own row
        rng = np.random.default_rng(7)
        for seed in range(3):
            topo, chans = two_cell(seed, G=G, U=U)
            for b in range(topo.B):
                blind = np.zeros((topo.B, topo.U))
                blind[b] = 1e9
                n = len(topo.groups_of_bs(b))
                V = np.stack([gaussian_candidates(np.eye(topo.A), 30, rng)
                              for _ in range(n)], axis=1)
                V[0] = 0.5      # unit norm at A = 4
                powers = [fixed_direction_powers(chans, topo, V, cell=b,
                                                 theta=theta)
                          for theta in (None, blind)]
                assert np.isfinite(powers[0]).any()
                assert np.array_equal(powers[0], powers[1])
                (t, p, idx), want = (
                    local_balance_gr(b, chans, topo, V, theta, 1e-3)
                    for theta in (None, blind))
                assert t == want[0] and idx == want[2]
                assert np.array_equal(p, want[1])
                assert np.isfinite(p).all()

    def test_is_distributed_at_no_ici(self):
        # balancing_gr.json's shape and draws: the blind baseline is the
        # distributed design at theta None, field for field, through
        # trial 1's Gaussian randomization too
        topo = build_topology(B=2, G=2, U=8, A=4, gamma=1.0, sigma2=1.0,
                              p_max=10.0,
                              cell_separation=float(db_to_linear(1.0)))
        for trial in range(3):
            chans = sample_channels(topo, np.random.default_rng(
                np.random.SeedSequence(entropy=5, spawn_key=(trial,))))
            unc, dist = (
                balance_uncoordinated(chans, topo, epsilon=1e-3,
                                      rng=np.random.default_rng(11)),
                balance_distributed(chans, topo, None, epsilon=1e-3,
                                    rng=np.random.default_rng(11)))
            assert unc.solution.used_randomization is (trial == 1)
            assert dist.achieved == unc.achieved
            assert dist.t_relaxed == unc.t_relaxed
            assert dist.per_cell_t == unc.per_cell_t
            assert dist.solution.used_randomization \
                is unc.solution.used_randomization
            for part in ("W", "w", "p", "rank", "sdr_rank"):
                assert np.array_equal(getattr(dist.solution, part),
                                      getattr(unc.solution, part)), part


class TestUncoordinatedBudgetDip:
    def test_average_level_non_monotone_in_budget(self):
        # blasting more power without coordination eventually hurts:
        # the average achieved level rises from 1 W to 10 W and then
        # drops at 100 W in this interference-limited setup
        means = {}
        budgets = (1.0, 10.0, 100.0)
        topos = [build_topology(B=2, G=4, U=8, A=4, p_max=p_max,
                                cell_separation=10 ** 0.1)
                 for p_max in budgets]
        # all 60 runs share their solves' batches (conic.drive)
        outs = iter(conic.drive(
            [balance_uncoordinated.steps(sample_channels(topo, seed), topo,
                                         epsilon=1e-3)
             for topo in topos for seed in range(20)]))
        for p_max in budgets:
            vals = []
            for seed in range(20):
                out = next(outs)
                vals.append(out.achieved)
            means[p_max] = float(np.mean(vals))
        assert means[10.0] > means[1.0]
        assert means[100.0] < means[10.0]


class TestAchievedMinSinr:
    def test_requires_all_cells(self):
        topo, chans = two_cell(20)
        with pytest.raises(StateError):
            achieved_min_sinr(chans, np.ones((1, 4), dtype=complex), topo)

    def test_single_user_full_power(self):
        topo = build_topology(B=1, G=1, U=1, A=3, p_max=4.0, sigma2=2.0)
        chans = sample_channels(topo, 21)
        h = chans.vec(0, 0)
        w = np.sqrt(4.0) * h / np.linalg.norm(h)
        val = achieved_min_sinr(chans, w[None], topo)
        assert val == pytest.approx(4.0 * np.linalg.norm(h) ** 2 / 2.0)

    def test_power_budgets_hold_across_pipelines(self):
        topo, chans = two_cell(22)
        for out in (balance_centralized(chans, topo, epsilon=1e-3),
                    balance_distributed(chans, topo, 0.5, epsilon=1e-3),
                    balance_uncoordinated(chans, topo, epsilon=1e-3)):
            for b in range(topo.B):
                used = sum(out.solution.p[g]
                           for g in topo.groups_of_bs(b))
                assert used <= topo.p_max[b] + 1e-6


# (t, feasible, iterations) of every probe of bisect_balance and of
# local_balance at cap 0.5 for cells 0 and 1 on c08's topology (seed
# 200, epsilon 1e-3), as recorded when every probe still ran to full
# optimality
C08_PROBES = [[
    (34.559883, False, 6), (17.279942, False, 6), (8.639971, False, 7),
    (4.319985, True, 9), (6.479978, True, 9), (7.559974, False, 8),
    (7.019976, True, 10), (7.289975, True, 11), (7.424975, False, 8),
    (7.357475, False, 9), (7.323725, False, 9), (7.306850, True, 11),
    (7.315288, True, 11), (7.319507, False, 10), (7.317397, False, 10),
    (7.316342, True, 11), (7.316870, True, 14),
], [
    (34.559883, False, 6), (17.279942, True, 8), (25.919912, False, 6),
    (21.599927, False, 6), (19.439934, False, 7), (18.359938, True, 9),
    (18.899936, True, 9), (19.169935, False, 8), (19.034936, True, 9),
    (19.102436, True, 9), (19.136185, True, 9), (19.153060, False, 8),
    (19.144623, True, 9), (19.148842, True, 10), (19.150951, False, 9),
    (19.149896, True, 10), (19.150424, False, 10),
], [
    (8.083191, False, 6), (4.041596, False, 6), (2.020798, True, 8),
    (3.031197, True, 9), (3.536396, False, 6), (3.283796, False, 7),
    (3.157497, True, 10), (3.220646, False, 7), (3.189072, False, 8),
    (3.173284, False, 9), (3.165390, True, 10), (3.169337, True, 10),
    (3.171311, True, 10), (3.172297, True, 10),
]]


class TestProbeEarlyStop:
    def test_c08_probes_decide_alike_in_fewer_iterations(self, monkeypatch):
        # a zero-objective probe stops at its first verified point or
        # certificate; the iterates up to that stop are the full solve's,
        # so no probe may change its answer or take more iterations
        iterations = []
        full = conic.ipm.solve

        def recording(problem, *args, **kwargs):
            sol = full(problem, *args, **kwargs)
            # the probes, not the polish solves: only a zero-objective
            # solve carries the early-stop counters
            if "point_stop" in sol.stats:
                iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(conic.ipm, "solve", recording)
        topo, chans = two_cell(200)
        runs = [bisect_balance(chans, topo, epsilon=1e-3)]
        runs += [local_balance(b, chans, topo, 0.5, epsilon=1e-3)
                 for b in range(topo.B)]
        probes = [(t, f) for res in runs for t, f in res.probes]
        pinned = [p for run in C08_PROBES for p in run]
        assert [len(res.probes) for res in runs] == \
            [len(run) for run in C08_PROBES]
        assert len(iterations) == len(pinned)
        for (t, feasible), its, (t0, feasible0, its0) in zip(
                probes, iterations, pinned):
            assert t == pytest.approx(t0, abs=1e-6)
            assert feasible is feasible0
            assert its <= its0
        assert sum(iterations) < sum(p[2] for p in pinned)


class TestWarmProbes:
    """Each probe of a bisection starts from the previous probe's
    iterate; it must decide as a cold solve of the same probe does."""

    @staticmethod
    def warm_probes(monkeypatch, run):
        """(problem, feasible, solution) of every warm-started probe that
        ``run()`` solves."""
        probes = []
        feasibility = conic.feasibility

        def recording(problem):
            feasible, sol = yield from feasibility(problem)
            if problem.start is not None:
                probes.append((problem, feasible, sol))
            return feasible, sol

        with monkeypatch.context() as patch:
            patch.setattr(conic, "feasibility", recording)
            run()
        return probes

    @staticmethod
    def cold(problem):
        """The decision and solution of ``problem`` started cold."""
        return conic.drive([conic.feasibility(
            dataclasses.replace(problem, start=None))])[0]

    def test_c08_probe_decisions_match_cold(self, monkeypatch):
        def run():
            for seed in range(4):
                topo, chans = two_cell(200 + seed)
                bisect_balance(chans, topo, epsilon=1e-3)
                for b in range(topo.B):
                    local_balance(b, chans, topo, 0.5, epsilon=1e-3)

        probes = self.warm_probes(monkeypatch, run)
        assert len(probes) > 150
        for problem, feasible, _ in probes:
            assert self.cold(problem)[0] is feasible

    def test_scenario_probe_decisions_match_cold(self, monkeypatch):
        config = parse_scenario(SCENARIOS / "balancing_small.json")
        config.trials = 1
        probes = self.warm_probes(monkeypatch, lambda: run_sweep(config))
        assert len(probes) > 300
        for problem, feasible, _ in probes:
            assert self.cold(problem)[0] is feasible

    def test_knife_edge_probe_is_certified(self, monkeypatch):
        # balancing_small.json's trial 2 has one probe, in cell 1's
        # interference-blind bisection, that a cold solve accepts with a
        # point breaking a row by less than ACCEPT_TOL, while a warm one
        # proves it infeasible by a Farkas certificate: the decisions
        # differ only where the cold one is within its tolerance.  The
        # probes are built at the full dimension, by the row-by-row
        # oracle: the builder's channel span gives another path
        monkeypatch.setattr(balancing, "sinr_system", loop_sinr_system)
        config = parse_scenario(SCENARIOS / "balancing_small.json")
        topo = build_topology(
            B=config.B, G=config.G, U=config.U, A=config.A,
            gamma=float(db_to_linear(config.gamma_db[0])),
            sigma2=config.sigma2, p_max=config.p_max[0])
        chans = sample_channels(topo, np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(2,))))
        probes = self.warm_probes(monkeypatch, lambda: uncoordinated_balance(
            1, chans, topo, epsilon=config.epsilon))
        differ = []
        for problem, feasible, sol in probes:
            cold_feasible, cold_sol = self.cold(problem)
            if cold_feasible is not feasible:
                differ.append((problem, feasible, sol, cold_sol))
        assert len(differ) == 1
        problem, feasible, sol, cold_sol = differ[0]
        assert not feasible and sol.stats["farkas_stop"] == 1
        assert conic.verify_infeasibility_certificate(
            problem, sol.certificate["weights"])["ok"]
        assert 0.0 < point_violation(problem, cold_sol) <= ACCEPT_TOL


def c08_runs():
    """c08's bisections: the network and each cell at cap 0.5, over its
    four channel draws."""
    runs = []
    for seed in range(4):
        topo, chans = two_cell(200 + seed)
        runs.append(lambda topo=topo, chans=chans: bisect_balance(
            chans, topo, epsilon=1e-3))
        runs.extend(lambda b=b, topo=topo, chans=chans: local_balance(
            b, chans, topo, 0.5, epsilon=1e-3) for b in range(topo.B))
    return runs


def workload_draws():
    """The balancing workload's configuration, B=2, G=2, U=2, A=6 at
    cell separations of 0 and 10 dB, with two channel draws each."""
    for seed, d_db in enumerate((0.0, 10.0, 0.0, 10.0)):
        topo = build_topology(B=2, G=2, U=2, A=6, gamma=1.0, p_max=10.0,
                              cell_separation=10 ** (d_db / 10))
        yield topo, sample_channels(topo, 300 + seed)


WORKLOAD_CAPS = (0.01, 0.1, 1.0, None)


def workload_runs():
    """The workload's bisections on each draw: the network's and each
    cell's at every cap of the workload and blind to ICI."""
    runs = []
    for topo, chans in workload_draws():
        runs.append(lambda topo=topo, chans=chans: bisect_balance(
            chans, topo, epsilon=1e-2))
        runs.extend(lambda b=b, cap=cap, topo=topo, chans=chans:
                    local_balance(b, chans, topo, cap, epsilon=1e-2)
                    for cap in WORKLOAD_CAPS for b in range(topo.B))
    return runs


def workload_pipelines():
    """The workload's five pipelines on each draw, each from a fresh
    seeded stream."""
    runs = []
    for k, (topo, chans) in enumerate(workload_draws()):
        def call(cap, topo=topo, chans=chans, k=k):
            rng = np.random.default_rng(k)
            if cap == "centralized":
                return balance_centralized(chans, topo, epsilon=1e-2,
                                           rng=rng)
            if cap is None:
                return balance_uncoordinated(chans, topo, epsilon=1e-2,
                                             rng=rng)
            return balance_distributed(chans, topo, cap, epsilon=1e-2,
                                       rng=rng)

        runs.extend(lambda cap=cap, call=call: call(cap)
                    for cap in ("centralized",) + WORKLOAD_CAPS)
    return runs


def unsettled(patch):
    """Patch out the settled probes: no earlier point meets any level."""
    patch.setattr(balancing, "_scaled_point",
                  lambda prob, X, t, serving: (X, -np.inf))


class TestSettledProbes:
    """A probe at or below the level of the last feasible solve's
    covariances, scaled into the budgets and caps, is settled by
    checking them against its own rows instead of solving it."""

    @pytest.mark.parametrize("runs", [c08_runs, workload_runs],
                             ids=["c08", "workload"])
    def test_settled_probes_match_cold(self, monkeypatch, runs):
        settled = []
        violation = balancing.point_violation

        def recording(problem, sol):
            worst = violation(problem, sol)
            if worst <= ACCEPT_TOL:
                settled.append(problem)
            return worst

        with monkeypatch.context() as patch:
            patch.setattr(balancing, "point_violation", recording)
            results = [run() for run in runs()]
        assert len(settled) == sum(res.decided for res in results) > 0
        for problem in settled:
            assert TestWarmProbes.cold(problem)[0] is True

    @pytest.mark.parametrize("runs", [c08_runs, workload_runs],
                             ids=["c08", "workload"])
    def test_bisections_without_settling(self, monkeypatch, runs):
        settling = [run() for run in runs()]
        with monkeypatch.context() as patch:
            unsettled(patch)
            solving = [run() for run in runs()]
        for a, b in zip(settling, solving, strict=True):
            assert b.decided == 0
            assert (a.t, a.lower, a.upper, a.calls, a.extra_calls,
                    a.probes, a.indeterminate) == (
                b.t, b.lower, b.upper, b.calls, b.extra_calls, b.probes,
                b.indeterminate)
            assert a.payload.tobytes() == b.payload.tobytes()

    def test_pipelines_without_settling(self, monkeypatch):
        settling = [run() for run in workload_pipelines()]
        with monkeypatch.context() as patch:
            unsettled(patch)
            solving = [run() for run in workload_pipelines()]
        for a, b in zip(settling, solving, strict=True):
            assert (a.t_relaxed, a.achieved, a.per_cell_t) == (
                b.t_relaxed, b.achieved, b.per_cell_t)
            for part in ("W", "w", "p", "rank", "sdr_rank"):
                assert getattr(a.solution, part).tobytes() \
                    == getattr(b.solution, part).tobytes()
        central = [out.bisection for out in settling if out.bisection]
        assert len(central) == 4
        assert sum(res.decided for res in central) > 0
