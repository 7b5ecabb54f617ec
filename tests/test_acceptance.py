"""Acceptance suite: one test per release criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  The heavier criteria take a few minutes together.
"""

import numpy as np
import pytest

from cobeam import conic
from cobeam.backhaul import (centralized_signaling_load,
                             periter_signaling_load)
from cobeam.balancing import (balance_centralized, balance_distributed,
                              balance_uncoordinated, bisect_balance,
                              local_balance, single_user_upper_bound)
from cobeam.conic import (ConicProblem, SolveStatus, solve,
                          verify_infeasibility_certificate)
from cobeam.distributed import (assemble_subproblem,
                                extract_subgradient, run_admm,
                                run_primal_decomposition)
from cobeam.network import (build_topology, evaluate_sinr, sample_channels)
from cobeam.power_min import (assemble_qos_sdp, randomize_from_covariances,
                              solve_centralized)

GAMMA_1DB = 10 ** 0.1
D_1DB = 10 ** 0.1


def report(number, description):
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def test_c01_signaling_formulas():
    table = [((2, 8, 8), 256, 16), ((3, 12, 12), 1728, 48),
             ((4, 16, 16), 6144, 96)]
    for (B, U, A), central, per_iter in table:
        assert centralized_signaling_load(B, U, A) == central
        assert periter_signaling_load(B, U) == per_iter
    report(1, "Table signaling loads reproduced exactly "
              "(256/16, 1728/48, 6144/96)")


def test_c02_closed_form_oracles():
    for antennas in (2, 4):
        for seed in range(10):
            topo = build_topology(B=1, G=1, U=1, A=antennas, gamma=1.9,
                                  sigma2=1.3, p_max=2.5)
            chans = sample_channels(topo, seed)
            gain = np.linalg.norm(chans.vec(0, 0)) ** 2
            sol = solve_centralized(chans, topo)
            closed = 1.9 * 1.3 / gain
            assert sol.objective == pytest.approx(closed, rel=1e-6)
            res = bisect_balance(chans, topo, epsilon=1e-3)
            assert res.t == pytest.approx(2.5 * gain / 1.3, abs=1e-3)
    report(2, "single-user power and balancing levels match closed forms "
              "(20 seeds, A in {2,4})")


def test_c03_distributed_matches_centralized():
    topo = build_topology(B=2, G=2, U=4, A=6, gamma=GAMMA_1DB,
                          cell_separation=D_1DB)
    worst_pd = worst_admm = 0.0
    # the seeds' runs share their solves' batches (conic.drive)
    chans = [sample_channels(topo, seed) for seed in range(10)]
    runs = conic.drive(
        [solve_centralized.steps(c, topo) for c in chans]
        + [run_primal_decomposition.steps(c, topo, max_iters=100, step=0.3)
           for c in chans]
        + [run_admm.steps(c, topo, max_iters=100, rho=2.0) for c in chans])
    for seed in range(10):
        cen = runs[seed].sdr_objective
        pd, admm = runs[10 + seed], runs[20 + seed]
        rel_pd = pd.best_power / cen - 1.0
        rel_admm = abs(admm.rows[-1]["sum_power"] / cen - 1.0)
        assert -1e-7 <= rel_pd <= 0.02, (seed, rel_pd)
        assert rel_admm <= 0.02, (seed, rel_admm)
        worst_pd = max(worst_pd, rel_pd)
        worst_admm = max(worst_admm, rel_admm)
    report(3, f"both distributed methods within 2% of centralized in <=100 "
              f"iterations (worst PD {worst_pd:.2%}, "
              f"ADMM {worst_admm:.2%})")


def test_c04_rank_one_prevalence():
    for (B, G, U, A) in [(2, 4, 4, 8), (2, 4, 8, 8)]:
        topo = build_topology(B=B, G=G, U=U, A=A, gamma=GAMMA_1DB,
                              cell_separation=D_1DB)
        hits = 0
        for seed in range(50):
            chans = sample_channels(topo, seed)
            sdp = assemble_qos_sdp(chans, topo)
            sol = conic.solve(sdp)
            assert sol.status is SolveStatus.OPTIMAL
            ranks = [conic.numerical_rank(W) for W in sol.matrix_values]
            hits += all(r == 1 for r in ranks)
        assert hits >= 0.95 * 50, (B, G, U, A, hits)
    report(4, "relaxation rank-one on >=95% of 50 seeds for users-per-group "
              "1 and 2")


def test_c05_randomization_soundness():
    topo = build_topology(B=2, G=4, U=24, A=24, gamma=GAMMA_1DB,
                          cell_separation=D_1DB)
    higher_rank_avgs = []
    checked = 0
    for seed in range(6):
        chans = sample_channels(topo, seed)
        sdp = assemble_qos_sdp(chans, topo)
        sol = conic.solve(sdp)
        assert sol.status is SolveStatus.OPTIMAL
        W_star = np.stack(sol.matrix_values)
        ranks = conic.numerical_rank(W_star)
        if (ranks == 1).all():
            continue
        higher_rank_avgs.append(ranks.sum() / topo.G)
        rng = np.random.default_rng(1000 + seed)
        gr = randomize_from_covariances(chans, topo, W_star, 100, rng,
                                        sdr_objective=sol.objective)
        assert gr.objective >= sol.objective - 1e-7
        for u in range(topo.U):
            sinr = evaluate_sinr(chans, gr, u, topo)
            assert sinr >= topo.gamma[u] * (1 - 1e-5), (seed, u, sinr)
        checked += 1
    assert checked >= 1, "no higher-rank draws in the budgeted seeds"
    avg = float(np.mean(higher_rank_avgs))
    assert 1.0 <= avg <= 1.5, avg
    report(5, f"{checked} higher-rank draws randomized soundly; average "
              f"rank {avg:.4f} inside [1.0, 1.5]")


def test_c06_admm_identities():
    topo = build_topology(B=2, G=2, U=4, A=6, gamma=GAMMA_1DB,
                          cell_separation=D_1DB)
    worst_cons = 0.0
    traces = conic.drive([run_admm.steps(sample_channels(topo, seed), topo,
                                         max_iters=100, rho=2.0)
                          for seed in range(3)])
    for trace in traces:
        assert all(e["nu_pair_sum"] == 0.0 for e in trace.extras)
        final_mean = 0.5 * (trace.ici.theta_local[0]
                            + trace.ici.theta_local[1])
        assert np.array_equal(trace.ici.theta, final_mean)
        within = [r["iteration"] for r in trace.rows
                  if r["residual"] <= 1e-3]
        assert within and min(within) <= 100
        worst_cons = max(worst_cons, trace.rows[-1]["residual"])
    report(6, "dual pair sums exactly zero, global update is the exact "
              f"copy mean, consensus <= 1e-3 (final worst "
              f"{worst_cons:.1e})")


def test_c07_subgradient_finite_differences():
    worst = 0.0
    for seed in range(5):
        topo = build_topology(B=2, G=2, U=4, A=5, gamma=GAMMA_1DB,
                              cell_separation=1.5)
        chans = sample_channels(topo, 100 + seed)
        mask = topo.ici_mask()
        pairs = list(zip(*np.nonzero(mask)))
        rng = np.random.default_rng(seed)

        def master(vec):
            theta = np.zeros(mask.shape)
            theta[mask] = vec
            total = 0.0
            comps = []
            for b in range(topo.B):
                prob = assemble_subproblem(b, chans, topo, theta)
                sol = conic.solve(prob)
                assert sol.status is SolveStatus.OPTIMAL
                total += sol.objective
                comps.append((prob, sol))
            return total, comps

        for _ in range(3):
            vec = rng.uniform(0.4, 1.6, size=len(pairs))
            _, comps = master(vec)
            mu, lam = sum(extract_subgradient(*comps[b], topo, b)
                          for b in range(topo.B))
            h = 1e-5
            for i, (b, u) in enumerate(pairs):
                s = lam[b, u] - mu[b, u]
                up, dn = vec.copy(), vec.copy()
                up[i] += h
                dn[i] -= h
                fd = (master(up)[0] - master(dn)[0]) / (2 * h)
                worst = max(worst, abs(s - fd))
                assert abs(s - fd) <= 1e-3, (seed, (b, u), s, fd)
    report(7, f"subgradients match central differences within 1e-3 "
              f"(worst {worst:.1e}) on 5 instances x 3 points")


def test_c08_bisection_contracts():
    eps = 1e-3
    checked = 0
    for seed in range(4):
        topo = build_topology(B=2, G=2, U=4, A=4, gamma=1.0, p_max=10.0,
                              cell_separation=D_1DB)
        chans = sample_channels(topo, 200 + seed)
        runs = [bisect_balance(chans, topo, epsilon=eps)]
        runs.extend(local_balance(b, chans, topo, 0.5, epsilon=eps)
                    for b in range(topo.B))
        for res in runs:
            assert res.upper - res.lower <= eps
            feas = [t for t, f in res.probes if f]
            infeas = [t for t, f in res.probes if not f]
            if feas and infeas:
                assert max(feas) < min(infeas)
            checked += 1
        width = single_user_upper_bound(chans, topo)
        assert runs[0].calls == int(np.ceil(np.log2(width / eps)))
        for b in range(topo.B):
            w_b = single_user_upper_bound(chans, topo,
                                          topo.users_of_bs(b))
            assert runs[1 + b].calls == int(np.ceil(np.log2(w_b / eps)))
    report(8, f"{checked} bisections: width <= eps, monotone probe logs, "
              "call count = ceil(log2(width/eps))")


def test_c09_balancing_dominance():
    topo = build_topology(B=2, G=6, U=12, A=12, gamma=1.0, p_max=10.0,
                          cell_separation=D_1DB)
    eps = 1e-3
    compared = 0
    chans = [sample_channels(topo, seed) for seed in range(10)]
    cens = conic.drive([balance_centralized.steps(c, topo, epsilon=eps)
                        for c in chans])
    seeds = [seed for seed, cen in enumerate(cens)
             if (cen.solution.sdr_rank == 1).all()]
    caps = (0.01, 0.1, 1.0)
    outs = iter(conic.drive(
        [balance_distributed.steps(chans[seed], topo, cap, epsilon=eps)
         for seed in seeds for cap in caps]
        + [balance_uncoordinated.steps(chans[seed], topo, epsilon=eps)
           for seed in seeds]))
    dist = {(seed, cap): next(outs) for seed in seeds for cap in caps}
    for seed in seeds:
        bound = cens[seed].t_relaxed + eps
        for cap in caps:
            out = dist[seed, cap]
            assert out.achieved <= bound + 1e-9, (seed, cap, out.achieved,
                                                  bound)
        unc = next(outs)
        assert unc.achieved <= bound + 1e-9, (seed, unc.achieved, bound)
        compared += 1
    assert compared >= 5, f"only {compared} rank-one centralized draws"
    report(9, f"balancing dominance held on {compared}/10 rank-one seeds "
              "(3-cap grid + uncoordinated)")


def test_c10_solver_health():
    rng = np.random.default_rng(42)
    solved = 0
    for trial in range(100):
        prob = ConicProblem()
        dims = [int(rng.integers(2, 9)) for _ in range(rng.integers(0, 3))]
        n_scalars = int(rng.integers(1 if not dims else 0, 5))
        vs = [prob.add_psd_var(d) for d in dims]
        js = prob.add_scalar_vars(n_scalars) if n_scalars else []
        obj = {}
        for i, d in enumerate(dims):
            q = rng.standard_normal((d, d)) + 1j * rng.standard_normal(
                (d, d))
            obj[i] = q @ q.conj().T / d + np.eye(d)
        prob.set_objective(matrix=obj, scalar={j: float(rng.uniform(0.1, 2))
                                               for j in js})
        point_m = [np.eye(d) * rng.uniform(0.5, 2) for d in dims]
        point_s = rng.uniform(0.5, 2, size=n_scalars)
        for _ in range(int(rng.integers(1, 6))):
            mats, scalars = {}, {}
            for i, d in enumerate(dims):
                q = rng.standard_normal((d, d)) \
                    + 1j * rng.standard_normal((d, d))
                mats[i] = 0.5 * (q + q.conj().T)
            for j in js:
                scalars[j] = float(rng.standard_normal())
            value = sum(np.real(np.trace(mats[i] @ point_m[i]))
                        for i in mats)
            value += sum(scalars[j] * point_s[j] for j in scalars)
            rel = rng.choice([">=", "<=", "=="])
            off = rng.uniform(0.1, 1.0)
            rhs = {">=": value - off, "<=": value + off, "==": value}[rel]
            prob.add_constraint(matrix=mats, scalars=scalars, rel=rel,
                                rhs=float(rhs))
        sol = solve(prob)
        assert sol.status is SolveStatus.OPTIMAL, (trial, sol.status)
        assert max(sol.kkt.values()) <= 1e-7, (trial, sol.kkt)
        solved += 1

    certified = 0
    for trial in range(20):
        prob = ConicProblem()
        d = int(rng.integers(2, 8))
        i = prob.add_psd_var(d)
        h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        H = np.outer(h, h.conj())
        prob.add_constraint(matrix={i: H}, rel=">=", rhs=2.0)
        prob.add_constraint(matrix={i: H}, rel="<=", rhs=1.0)
        sol = solve(prob)
        assert sol.status is SolveStatus.INFEASIBLE, (trial, sol.status)
        check = verify_infeasibility_certificate(
            prob, sol.certificate["weights"])
        assert check["ok"] and check["violation"] >= 1e-8
        certified += 1
    report(10, f"{solved} random instances at KKT <= 1e-7; {certified} "
               "injected-infeasible certificates verified")
