"""Solver-level tests: statuses, duals, certificates, and oracles."""

import collections
import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg as sla

from cobeam.conic import (ConicProblem, SolveStatus, check_feasibility,
                          dump_problem, numerical_rank, principal_eigenpair,
                          psd_sqrt, solve, solve_batch,
                          verify_infeasibility_certificate)
from cobeam.conic import ipm
from cobeam.conic.ipm import point_violation
from cobeam.conic.linalg import RANK_TOL
from cobeam.conic.problem import CompiledProblem
from cobeam.balancing import single_user_upper_bound
from cobeam.distributed import assemble_admm_local, assemble_subproblem
from cobeam.network import build_topology, sample_channels
from cobeam.power_min import assemble_qos_sdp, sinr_system
from conftest import embed_hermitian, embed_matrix, unembed_matrix


def rand_channel(rng, dim):
    return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) \
        / np.sqrt(2.0)


def single_user_qos(h, gamma, sigma2):
    """min Tr(W) s.t. Tr(h h^H W) >= gamma sigma2, W PSD."""
    prob = ConicProblem()
    i = prob.add_psd_var(len(h))
    prob.set_objective(matrix={i: np.eye(len(h))})
    prob.add_constraint(matrix={i: np.outer(h, h.conj())}, rel=">=",
                        rhs=gamma * sigma2, label="qos")
    return prob


class TestLinearPrograms:
    def test_simple_bound(self):
        prob = ConicProblem()
        j = prob.add_scalar_var("x")
        prob.set_objective(scalar={j: 1.0})
        prob.add_constraint(scalars={j: 1.0}, rel=">=", rhs=2.0)
        sol = solve(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.scalar_values[0] == pytest.approx(2.0, rel=1e-7)
        assert sol.duals[0] == pytest.approx(1.0, rel=1e-6)

    def test_conflicting_bounds_infeasible(self):
        prob = ConicProblem()
        j = prob.add_scalar_var()
        prob.add_constraint(scalars={j: 1.0}, rel=">=", rhs=1.0)
        prob.add_constraint(scalars={j: -1.0}, rel=">=", rhs=0.0)
        sol = solve(prob)
        assert sol.status is SolveStatus.INFEASIBLE
        report = verify_infeasibility_certificate(
            prob, sol.certificate["weights"])
        assert report["ok"]
        assert report["violation"] >= 1e-8

    def test_unbounded_ray(self):
        prob = ConicProblem()
        j = prob.add_scalar_var()
        prob.set_objective(scalar={j: -1.0})
        sol = solve(prob)
        assert sol.status is SolveStatus.UNBOUNDED
        assert sol.certificate["ray_scalar_values"][0] > 0


class TestSingleUserSdp:
    def test_closed_form_and_grid_oracle(self):
        rng = np.random.default_rng(7)
        h = rand_channel(rng, 2)
        gamma, sigma2 = 1.7, 1.0
        sol = solve(single_user_qos(h, gamma, sigma2))
        assert sol.status is SolveStatus.OPTIMAL
        closed = gamma * sigma2 / np.linalg.norm(h) ** 2
        assert sol.objective == pytest.approx(closed, rel=1e-7)
        assert numerical_rank(sol.matrix_values[0]) == 1

        # brute force over unit beamformers w = [cos t, sin t e^{i phi}]
        best = np.inf
        for t in np.linspace(0, np.pi / 2, 300):
            for phi in np.linspace(0, 2 * np.pi, 300, endpoint=False):
                w = np.array([np.cos(t), np.sin(t) * np.exp(1j * phi)])
                gain = abs(h.conj() @ w) ** 2
                if gain > 1e-12:
                    best = min(best, gamma * sigma2 / gain)
        assert sol.objective == pytest.approx(best, rel=1e-4)

    def test_dual_is_sensitivity(self):
        rng = np.random.default_rng(11)
        h = rand_channel(rng, 3)
        base = solve(single_user_qos(h, 2.0, 1.0))
        bumped = solve(single_user_qos(h, 2.0, 1.0 + 1e-4))
        fd = (bumped.objective - base.objective) / (2.0 * 1e-4)
        assert base.duals[0] == pytest.approx(fd, rel=1e-3)


class TestFeasibility:
    def test_zero_target_feasible(self):
        # power-limited instance at t = 0: any scaled identity works
        rng = np.random.default_rng(3)
        prob = ConicProblem()
        i = prob.add_psd_var(3)
        h = rand_channel(rng, 3)
        prob.add_constraint(matrix={i: np.outer(h, h.conj())}, rel=">=",
                            rhs=0.0)
        prob.add_constraint(matrix={i: np.eye(3)}, rel="<=", rhs=5.0)
        assert check_feasibility(prob) is True

    def test_above_single_user_bound_infeasible(self):
        rng = np.random.default_rng(4)
        h = rand_channel(rng, 3)
        p_max, sigma2 = 2.0, 1.0
        t_max = p_max * np.linalg.norm(h) ** 2 / sigma2
        prob = ConicProblem()
        i = prob.add_psd_var(3)
        prob.add_constraint(matrix={i: np.outer(h, h.conj())}, rel=">=",
                            rhs=1.05 * t_max * sigma2)
        prob.add_constraint(matrix={i: np.eye(3)}, rel="<=", rhs=p_max)
        assert check_feasibility(prob) is False

    def test_empty_constraints_feasible(self):
        prob = ConicProblem()
        prob.add_scalar_var()
        assert check_feasibility(prob) is True


    def test_probe_keeps_every_field_but_the_objective(self):
        prob = admm_pair(4)[0]
        prob.start = solve(prob).iterate
        assert prob.start is not None and prob.scalar_names
        assert prob.obj_scalar and prob.obj_scalar_quad
        probe, = next(ipm.feasibility(prob))
        objective = {"obj_matrix", "obj_scalar", "obj_scalar_quad"}
        for field in dataclasses.fields(ConicProblem):
            if field.name in objective:
                assert getattr(probe, field.name) == {}
            else:
                assert getattr(probe, field.name) is getattr(prob, field.name)
        assert prob.obj_scalar and prob.obj_scalar_quad

class TestZeroObjectiveStop:
    """A solve with nothing to optimize stops at its first verified
    feasible point or Farkas certificate and says which one."""

    def bounded_probe(self, target):
        rng = np.random.default_rng(4)
        h = rand_channel(rng, 3)
        prob = ConicProblem()
        i = prob.add_psd_var(3)
        prob.add_constraint(matrix={i: np.outer(h, h.conj())}, rel=">=",
                            rhs=target * np.linalg.norm(h) ** 2)
        prob.add_constraint(matrix={i: np.eye(3)}, rel="<=", rhs=2.0)
        return prob

    def test_feasible_stops_at_point(self):
        prob = self.bounded_probe(1.5)
        sol = solve(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.stats["point_stop"] == 1
        assert sol.stats["farkas_stop"] == 0
        assert point_violation(prob, sol) <= 1e-7
        # zero duals are the exact dual optimum of a zero objective
        assert sol.objective == 0.0
        assert not sol.duals.any()
        assert set(sol.kkt) == {"primal", "dual", "gap"}

    def test_infeasible_stops_at_certificate(self):
        prob = self.bounded_probe(2.5)
        sol = solve(prob)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.stats["point_stop"] == 0
        assert sol.stats["farkas_stop"] == 1
        assert verify_infeasibility_certificate(
            prob, sol.certificate["weights"])["ok"]
        assert set(sol.kkt) == {"primal", "dual", "gap"}

    def test_objective_runs_to_optimality(self):
        prob = self.bounded_probe(1.5)
        prob.set_objective(matrix={0: np.eye(3)})
        sol = solve(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert "point_stop" not in sol.stats
        assert max(sol.kkt.values()) <= 1e-7


class TestFarkasVerifier:
    def test_positive_aggregate_rejected(self):
        # x = 1 satisfies 1e-7 x >= 1e-7: an aggregate that is positive
        # on the cone certifies nothing, however small it is
        prob = ConicProblem()
        i = prob.add_psd_var(1, complex=False)
        prob.add_constraint(matrix={i: np.array([[1e-7]])}, rel=">=",
                            rhs=1e-7)
        report = verify_infeasibility_certificate(prob, [1.0])
        assert not report["ok"]
        assert report["max_cone_value"] > 0

    def test_wrong_sign_weights(self):
        # x >= 1 and -x >= 0 conflict; the <= row is not needed
        prob = ConicProblem()
        j = prob.add_scalar_var()
        prob.add_constraint(scalars={j: 1.0}, rel=">=", rhs=1.0)
        prob.add_constraint(scalars={j: -1.0}, rel=">=", rhs=0.0)
        prob.add_constraint(scalars={j: 1.0}, rel="<=", rhs=5.0)
        # a wrong-sign weight within tol counts as zero
        clipped = verify_infeasibility_certificate(prob, [1.0, 1.0, 1e-9])
        assert clipped["ok"] and clipped["signs_ok"]
        assert clipped["violation"] == pytest.approx(1.0)
        # a larger one fails the check
        assert not verify_infeasibility_certificate(
            prob, [1.0, 1.0, 1e-3])["ok"]


def jacobi_eigenvalues(sym, sweeps=30):
    """Cyclic Jacobi on a real symmetric matrix; test-local oracle."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-14:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    return np.sort(np.diag(a))


class TestEigenHelpers:
    def test_rank_one_eigenpair(self):
        rng = np.random.default_rng(5)
        w = rand_channel(rng, 4)
        val, vec = principal_eigenpair(np.outer(w, w.conj()))
        assert val == pytest.approx(np.linalg.norm(w) ** 2, rel=1e-12)
        # up to a global phase
        assert abs(abs(vec.conj() @ (w / np.linalg.norm(w))) - 1) < 1e-10

    def test_diagonal(self):
        val, vec = principal_eigenpair(np.diag([5.0, 1.0]))
        assert val == 5.0
        assert abs(abs(vec[0]) - 1) < 1e-12

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = q @ q.conj().T
        val, vec = principal_eigenpair(mat)
        resid = np.linalg.norm(mat @ vec - val * vec)
        assert resid <= 1e-9 * np.linalg.norm(mat)
        oracle = jacobi_eigenvalues(embed_matrix(mat))
        assert val == pytest.approx(oracle[-1], rel=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            principal_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_numerical_rank(self):
        assert numerical_rank(np.diag([5.0, 0.0, 0.0])) == 1
        assert numerical_rank(np.diag([1.0, 1.0])) == 2
        rng = np.random.default_rng(8)
        w = rand_channel(rng, 3)
        v = rand_channel(rng, 3)
        mat = np.outer(w, w.conj()) + 1e-9 * np.outer(v, v.conj())
        assert numerical_rank(mat) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_rank_is_per_matrix_scipy_rank(self, seed):
        # the one stacked numpy call against scipy's call per matrix,
        # on real and Hermitian stacks of mixed rank, with tails of
        # eigenvalues around the threshold
        rng = np.random.default_rng(seed)
        for dim in (1, 2, 6, 12):
            for cplx in (False, True):
                q = rng.standard_normal((5, dim, dim))
                if cplx:
                    q = q + 1j * rng.standard_normal((5, dim, dim))
                mats = q * np.logspace(0, -9, dim) @ q.conj().swapaxes(1, 2)
                mats[0] = np.outer(q[0, 0], q[0, 0].conj())
                want = []
                for mat in mats:
                    vals = sla.eigvalsh(0.5 * (mat + mat.conj().T))
                    want.append(np.sum(vals > RANK_TOL * vals[-1]))
                assert numerical_rank(mats).tolist() == want
                assert [numerical_rank(mat) for mat in mats] == want

    def test_psd_sqrt_roundtrip(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = q @ q.conj().T
        factor = psd_sqrt(mat)
        assert np.allclose(factor @ factor.conj().T, mat, atol=1e-10)


class TestHermitianEmbedding:
    def test_trace_identity(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ah = 0.5 * (a + a.conj().T)
        bh = 0.5 * (b + b.conj().T)
        lhs = np.trace(embed_matrix(ah) / 2 @ embed_matrix(bh))
        assert lhs == pytest.approx(float(np.real(np.trace(ah @ bh))),
                                    rel=1e-12)

    def test_unembed_roundtrip(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ah = 0.5 * (a + a.conj().T)
        assert np.allclose(unembed_matrix(embed_matrix(ah)), ah)

    def test_real_input_identical_optimum(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal(3)
        prob = single_user_qos(h, 1.3, 1.0)
        emb = embed_hermitian(prob)
        s1 = solve(prob)
        s2 = solve(emb)
        assert s2.objective == pytest.approx(s1.objective, abs=1e-9)

    def test_complex_pre_post_embedding(self):
        rng = np.random.default_rng(14)
        h = rand_channel(rng, 3)
        prob = single_user_qos(h, 1.3, 1.0)
        emb = embed_hermitian(prob)
        s1 = solve(prob)
        s2 = solve(emb)
        assert s2.objective == pytest.approx(s1.objective, abs=1e-9)


class TestHermitianMirror:
    """Hermitian cone blocks against the real embedding of the same
    problem: the embedding is an isometry, so both take the same path."""

    @pytest.mark.parametrize("seed", range(3))
    def test_qos_matches_embedding(self, seed):
        topo = build_topology(B=2, G=6, U=12, A=12, gamma=10 ** 0.1)
        prob = assemble_qos_sdp(sample_channels(topo, seed), topo)
        native, emb = solve(prob), solve(embed_hermitian(prob))
        assert native.status is emb.status is SolveStatus.OPTIMAL
        assert native.iterations == emb.iterations
        assert native.objective == pytest.approx(emb.objective, rel=1e-9)
        np.testing.assert_allclose(native.duals, emb.duals, rtol=0,
                                   atol=1e-7)
        for W, W_emb in zip(native.matrix_values, emb.matrix_values):
            np.testing.assert_allclose(W, unembed_matrix(W_emb), rtol=0,
                                       atol=1e-7 * np.abs(W).max())

    def test_infeasible_matches_embedding(self):
        topo = build_topology(B=2, G=2, U=4, A=4)
        chans = sample_channels(topo, 0)
        prob = sinr_system(
            chans, topo, level=1.5 * single_user_upper_bound(chans, topo),
            budget=True, objective=False)[0]
        for sol in (solve(prob), solve(embed_hermitian(prob))):
            assert sol.status is SolveStatus.INFEASIBLE
            assert verify_infeasibility_certificate(
                prob, sol.certificate["weights"])["ok"]

    def test_quadratic_matches_embedding(self):
        # an ADMM local step: rho/2 theta^2 terms take the QP variant
        topo = build_topology(B=2, G=2, U=4, A=6)
        mask = topo.ici_mask()
        rng = np.random.default_rng(3)
        theta, nu = np.zeros((2,) + mask.shape)
        theta[mask] = rng.uniform(0.1, 1.0, mask.sum())
        nu[mask] = rng.uniform(-0.5, 0.5, mask.sum())
        prob = assemble_admm_local(0, sample_channels(topo, 3), topo, theta,
                                   nu, 1.0)[0]
        assert CompiledProblem(prob).qdiag.any()
        native, emb = solve(prob), solve(embed_hermitian(prob))
        assert native.status is emb.status is SolveStatus.OPTIMAL
        assert native.iterations == emb.iterations
        assert native.objective == pytest.approx(emb.objective, rel=1e-9)
        np.testing.assert_allclose(native.duals, emb.duals, rtol=0,
                                   atol=1e-7)
        np.testing.assert_allclose(native.scalar_values, emb.scalar_values,
                                   rtol=0, atol=1e-7)


class TestSolverInvariants:
    def qos_instance(self, seed):
        rng = np.random.default_rng(seed)
        prob = ConicProblem()
        vs = [prob.add_psd_var(4) for _ in range(2)]
        prob.set_objective(matrix={i: np.eye(4) for i in vs})
        for u in range(4):
            h = rand_channel(rng, 4)
            H = np.outer(h, h.conj())
            g = u % 2
            mats = {k: (H if k == g else -1.5 * H) for k in vs}
            prob.add_constraint(matrix=mats, rel=">=", rhs=1.5)
        return prob

    def test_weak_duality_and_slackness(self):
        for seed in range(5):
            prob = self.qos_instance(seed)
            sol = solve(prob)
            assert sol.status is SolveStatus.OPTIMAL
            # dual objective = sum_k dual_k * rhs_k (with <= rows negated)
            dobj = 0.0
            for k, con in enumerate(prob.constraints):
                sgn = -1.0 if con.relation == "<=" else 1.0
                dobj += sgn * sol.duals[k] * con.rhs
            assert dobj <= sol.objective + 1e-6 * (1 + abs(sol.objective))
            for k, con in enumerate(prob.constraints):
                lhs = prob.evaluate_constraint(
                    k, sol.matrix_values, sol.scalar_values)
                slack = lhs - con.rhs
                assert abs(sol.duals[k] * slack) <= 1e-6
                if con.relation in (">=", "<="):
                    assert sol.duals[k] >= -1e-9

    def test_objective_scaling(self):
        prob = self.qos_instance(42)
        sol1 = solve(prob)
        scaled = self.qos_instance(42)
        scaled.obj_matrix = {i: 7.0 * C for i, C in scaled.obj_matrix.items()}
        sol2 = solve(scaled)
        for w1, w2 in zip(sol1.matrix_values, sol2.matrix_values):
            assert np.allclose(w1, w2, atol=1e-4 * np.abs(w1).max())
        assert np.allclose(sol2.duals, 7.0 * sol1.duals, rtol=1e-4)

    def test_kkt_residuals_reported(self):
        sol = solve(self.qos_instance(1))
        assert sol.status is SolveStatus.OPTIMAL
        assert set(sol.kkt) == {"primal", "dual", "gap"}
        assert max(sol.kkt.values()) <= 1e-7
        # a well-posed instance needs no numerical fallback, and a
        # problem without a start starts cold
        stats = dict(sol.stats)
        passes = stats.pop("refine_passes")
        assert stats == {"chol_jitter": 0, "schur_ridge": 0,
                         "schur_pinv": 0, "warm_start": 0}
        # whether a corrector refines follows the last bits of its
        # residual, so the count differs between BLAS kernels (4 to 6
        # here); it stays within the corrector's passes per iteration
        assert 1 <= passes <= ipm.REFINE_STEPS * sol.iterations

    @pytest.mark.parametrize("b", [0, 1])
    def test_refinement_runs_where_a_direction_is_inaccurate(self, b):
        # a per-BS subproblem at a near-zero ICI cap: its corrector stays
        # short of its right-hand side's accuracy, so it refines (BS 1
        # ends MAX_ITER without refinement)
        topo = build_topology(B=2, G=2, U=4, A=6, gamma=10 ** 0.1,
                              cell_separation=10 ** 0.1)
        chans = sample_channels(topo, 8)
        sol = solve(assemble_subproblem(b, chans, topo, 1e-7))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.stats["refine_passes"] > 0

    @pytest.mark.parametrize("count", [1, 4])
    def test_only_the_corrector_is_refined(self, count, monkeypatch):
        # per Newton step (one KKT solver): the predictor is one scaled
        # pass, with no residual and no unscale; the corrector is one
        # refined solve of at most 1 + REFINE_STEPS passes
        kkt_cls = ipm._KktSolver
        steps, phase = [], ["predictor"]
        orig_init, orig_solve = kkt_cls.__init__, kkt_cls.solve

        def init(self, *args):
            steps.append(collections.Counter())
            phase[0] = "predictor"
            orig_init(self, *args)

        def corrector(self, *rhs):
            phase[0] = "corrector"
            steps[-1]["corrector", "solve"] += 1
            return orig_solve(self, *rhs)

        def counted(cls, name):
            orig = getattr(cls, name)

            def wrapper(*args):
                steps[-1][phase[0], name] += 1
                return orig(*args)
            monkeypatch.setattr(cls, name, wrapper)

        monkeypatch.setattr(kkt_cls, "__init__", init)
        monkeypatch.setattr(kkt_cls, "solve", corrector)
        counted(kkt_cls, "solve_scaled")
        counted(kkt_cls, "_residual")
        counted(ipm.NTScaling, "unscale")
        sols = solve_batch([self.qos_instance(seed) for seed in range(count)])
        assert all(s.status is SolveStatus.OPTIMAL for s in sols)
        assert len(steps) == max(s.iterations for s in sols) - 1
        for step in steps:
            assert step["predictor", "solve_scaled"] == 1
            assert step["predictor", "_residual"] == 0
            assert step["predictor", "unscale"] == 0
            assert step["corrector", "solve"] == 1
            assert 1 <= step["corrector", "solve_scaled"] \
                <= 1 + ipm.REFINE_STEPS
        if count == 1:
            assert sols[0].stats["refine_passes"] == sum(
                step["corrector", "solve_scaled"] - 1 for step in steps)


class TestQuadraticObjective:
    def test_scalar_quadratic(self):
        # min (y - 3)^2 s.t. y >= 4  ->  y = 4, multiplier 2
        prob = ConicProblem()
        j = prob.add_scalar_var()
        prob.set_objective(scalar={j: -6.0}, scalar_quad={j: 1.0})
        prob.add_constraint(scalars={j: 1.0}, rel=">=", rhs=4.0)
        sol = solve(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.scalar_values[0] == pytest.approx(4.0, rel=1e-6)
        assert sol.duals[0] == pytest.approx(2.0, rel=1e-5)

    def test_infeasible_quadratic_has_certificate(self):
        # y0 + y1 <= -1 has no nonnegative solution, whatever the cost
        prob = ConicProblem()
        prob.add_scalar_var()
        prob.add_scalar_var()
        prob.set_objective(scalar={0: 1.0}, scalar_quad={0: 1.0, 1: 2.0})
        prob.add_constraint(scalars={0: 1.0, 1: 1.0}, rel="<=", rhs=-1.0)
        sol = solve(prob)
        assert sol.status is SolveStatus.INFEASIBLE
        assert verify_infeasibility_certificate(
            prob, sol.certificate["weights"])["ok"]

    def test_zero_linear_cost_runs_to_optimality(self):
        # min y^2 s.t. y >= 1 -> y = 1, objective 1, multiplier 2; the
        # first feasible point is no answer here
        prob = ConicProblem()
        j = prob.add_scalar_var()
        prob.set_objective(scalar_quad={j: 1.0})
        prob.add_constraint(scalars={j: 1.0}, rel=">=", rhs=1.0)
        sol = solve(prob)
        assert sol.status is SolveStatus.OPTIMAL
        assert "point_stop" not in sol.stats
        assert sol.scalar_values[0] == pytest.approx(1.0, rel=1e-6)
        assert sol.objective == pytest.approx(1.0, rel=1e-6)
        assert sol.duals[0] == pytest.approx(2.0, rel=1e-5)

    def test_unbounded_ray_has_no_quadratic_part(self):
        # min y0^2 - y1 s.t. y0 + y1 >= 1: y1 grows without bound
        prob = ConicProblem()
        prob.add_scalar_var()
        prob.add_scalar_var()
        prob.set_objective(scalar={1: -1.0}, scalar_quad={0: 1.0})
        prob.add_constraint(scalars={0: 1.0, 1: 1.0}, rel=">=", rhs=1.0)
        sol = solve(prob)
        assert sol.status is SolveStatus.UNBOUNDED
        ray = sol.certificate["ray_scalar_values"]
        assert ray[1] > 0
        assert abs(ray[0]) <= 1e-6 * ray[1]

    def test_negative_quadratic_rejected(self):
        prob = ConicProblem()
        j = prob.add_scalar_var()
        with pytest.raises(ValueError):
            prob.set_objective(scalar_quad={j: -1.0})


class TestConstruction:
    def test_dimension_mismatch(self):
        prob = ConicProblem()
        prob.add_psd_var(3)
        with pytest.raises(ValueError):
            prob.add_constraint(matrix={0: np.eye(2)}, rel=">=", rhs=0.0)

    def test_unknown_variable(self):
        prob = ConicProblem()
        with pytest.raises(ValueError):
            prob.add_constraint(scalars={0: 1.0}, rel=">=", rhs=0.0)

    def test_no_variables(self):
        with pytest.raises(ValueError):
            solve(ConicProblem())

    def test_nan_right_hand_side(self):
        prob = ConicProblem()
        js = [prob.add_scalar_var(), prob.add_scalar_var()]
        prob.set_objective(scalar={j: 1.0 for j in js})
        prob.add_constraint(scalars={j: 1.0 for j in js}, rel=">=",
                            rhs=float("nan"))
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(prob)

    def test_dump_is_self_describing(self):
        prob = single_user_qos(np.array([1.0, 1j]), 2.0, 1.0)
        text = dump_problem(prob)
        assert "psd-var 0 dim 2" in text
        assert "constraint 0 rel >=" in text
        assert "objective minimize" in text


class TestRandomHealth:
    def test_mixed_batch(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            prob = ConicProblem()
            dims = [int(rng.integers(2, 9))
                    for _ in range(rng.integers(0, 3))]
            n_sc = int(rng.integers(1 if not dims else 0, 5))
            vs = [prob.add_psd_var(d) for d in dims]
            js = [prob.add_scalar_var() for _ in range(n_sc)]
            obj = {}
            for i, d in enumerate(dims):
                q = rng.standard_normal((d, d)) \
                    + 1j * rng.standard_normal((d, d))
                obj[i] = q @ q.conj().T / d + np.eye(d)
            prob.set_objective(
                matrix=obj,
                scalar={j: float(rng.uniform(0.1, 2)) for j in js})
            mats_pt = [np.eye(d) * rng.uniform(0.5, 2) for d in dims]
            sc_pt = rng.uniform(0.5, 2, size=n_sc)
            for _ in range(int(rng.integers(1, 6))):
                mc, scc = {}, {}
                for i, d in enumerate(dims):
                    q = rng.standard_normal((d, d)) \
                        + 1j * rng.standard_normal((d, d))
                    mc[i] = (q + q.conj().T) / 2
                for j in js:
                    scc[j] = float(rng.standard_normal())
                val = sum(np.real(np.trace(mc[i] @ mats_pt[i])) for i in mc)
                val += sum(scc[j] * sc_pt[j] for j in scc)
                rel = rng.choice([">=", "<=", "=="])
                off = rng.uniform(0.1, 1.0)
                rhs = {">=": val - off, "<=": val + off, "==": val}[rel]
                prob.add_constraint(matrix=mc, scalars=scc, rel=rel,
                                    rhs=float(rhs))
            sol = solve(prob)
            assert sol.status is SolveStatus.OPTIMAL
            assert max(sol.kkt.values()) <= 1e-7


# -- lockstep batches --------------------------------------------------------

def assert_same(got, want):
    """Equal bit for bit, through dicts, lists and arrays."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want)
        assert_same(vars(got), vars(want))
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    else:
        assert type(got) is type(want)
        assert np.array_equal(got, want)


def assert_batch_matches_serial(problems):
    """solve_batch returns the serial solutions, every field, in order."""
    batch = solve_batch(problems)
    serial = [solve(p) for p in problems]
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        for field in ("status", "iterations", "objective", "matrix_values",
                      "scalar_values", "duals", "kkt", "stats",
                      "certificate", "iterate"):
            assert_same(getattr(got, field), getattr(want, field))
    return serial


def pd_pair(seed, scale=1.0):
    topo = build_topology(B=2, G=2, U=4, A=6, gamma=10 ** 0.1,
                          cell_separation=10 ** 0.1)
    chans = sample_channels(topo, seed)
    return [assemble_subproblem(b, chans, topo, scale) for b in range(2)]


def admm_pair(seed, scale=0.5):
    topo = build_topology(B=2, G=2, U=4, A=6, gamma=10 ** 0.1,
                          cell_separation=10 ** 0.1)
    chans = sample_channels(topo, seed)
    grid = np.ones((topo.B, topo.U))
    return [assemble_admm_local(b, chans, topo, scale * grid, 0.1 * grid,
                                2.0)[0] for b in range(2)]


def bound_lp(low, high):
    """min x s.t. x >= low, x <= high: infeasible when low > high."""
    prob = ConicProblem()
    j = prob.add_scalar_var()
    prob.set_objective(scalar={j: 1.0})
    prob.add_constraint(scalars={j: 1.0}, rel=">=", rhs=low)
    prob.add_constraint(scalars={j: 1.0}, rel="<=", rhs=high)
    return prob


def two_rows(second):
    """min Tr(W) + t s.t. Tr(F W) + t = 3 and Tr(G W) + t = 3; G = F
    makes the Schur complement singular."""
    prob = ConicProblem()
    i = prob.add_psd_var(3, complex=False)
    j = prob.add_scalar_var()
    prob.set_objective(matrix={i: np.eye(3)}, scalar={j: 1.0})
    F = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for G in (F, second):
        prob.add_constraint(matrix={i: G}, scalars={j: 1.0}, rel="==",
                            rhs=3.0)
    return prob


class TestSolveBatch:
    def test_pd_subproblem_pair(self):
        serial = assert_batch_matches_serial(pd_pair(3))
        assert all(s.status is SolveStatus.OPTIMAL for s in serial)

    def test_admm_qp_pair(self):
        problems = admm_pair(4)
        assert all(CompiledProblem(p).qdiag.any() for p in problems)
        serial = assert_batch_matches_serial(problems)
        assert all(s.status is SolveStatus.OPTIMAL for s in serial)

    def test_members_stop_at_different_iterations(self):
        for problems in (pd_pair(0, 0.01), admm_pair(1)):
            serial = assert_batch_matches_serial(problems)
            assert len({s.iterations for s in serial}) == 2

    def test_many_members_leave_at_different_iterations(self):
        # members leave one or two at a time, so the batch is narrowed
        # from ten problems down to one through several sizes
        problems = [p for seed, scale in ((0, 0.01), (1, 1.0), (2, 0.1),
                                          (3, 3.0), (4, 0.03))
                    for p in pd_pair(seed, scale)]
        serial = assert_batch_matches_serial(problems)
        assert len({s.iterations for s in serial}) >= 4
        assert_batch_matches_serial(admm_pair(1) + admm_pair(2)
                                    + admm_pair(3))

    def test_feasible_with_infeasible(self):
        serial = assert_batch_matches_serial(
            [bound_lp(1.0, 2.0), bound_lp(3.0, 2.0), bound_lp(0.5, 4.0)])
        assert [s.status for s in serial] == [
            SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL]

    def test_zero_objective_pair(self):
        probe = TestZeroObjectiveStop().bounded_probe
        serial = assert_batch_matches_serial([probe(2.5), probe(1.5)])
        assert [s.stats["farkas_stop"] for s in serial] == [1, 0]
        assert [s.stats["point_stop"] for s in serial] == [0, 1]

    def test_one_member_needs_a_schur_ridge(self):
        G = np.diag([1.0, 2.0, 3.0])
        F = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        serial = assert_batch_matches_serial([two_rows(G), two_rows(F)])
        assert serial[0].stats["schur_ridge"] == 0
        assert serial[1].stats["schur_ridge"] > 0

    def test_mixed_layouts_keep_order(self):
        problems = [bound_lp(1.0, 2.0), *pd_pair(5), admm_pair(6)[0],
                    single_user_qos(np.array([1.0, 1j, 0.5]), 2.0, 1.0),
                    bound_lp(3.0, 2.0), admm_pair(6)[1]]
        serial = assert_batch_matches_serial(problems)
        assert serial[-2].status is SolveStatus.INFEASIBLE

    def test_one_problem_and_none(self):
        assert_batch_matches_serial(pd_pair(7)[:1])
        assert solve_batch([]) == []

    def test_solutions_share_the_call_time(self):
        problems = pd_pair(8) + admm_pair(8) + [bound_lp(3.0, 2.0)]
        start = time.perf_counter()
        sols = solve_batch(problems)
        wall = time.perf_counter() - start
        assert all(sol.time_s > 0 for sol in sols)
        assert sum(sol.time_s for sol in sols) <= wall


def cold(problem):
    """A copy of ``problem`` without its start."""
    return dataclasses.replace(problem, start=None)


class TestWarmStart:
    @pytest.mark.parametrize("pair, scales", [(pd_pair, (1.0, 1.1)),
                                              (admm_pair, (0.5, 0.55))])
    def test_warm_cold_warm_batch(self, pair, scales):
        # the next round's subproblems, their ICI values moved by 10%,
        # each started from its solve of this round, around a cold one
        warm = pair(3, scales[1])
        for problem, sol in zip(warm, solve_batch(pair(3, scales[0]))):
            problem.start = sol.iterate
        serial = assert_batch_matches_serial(
            [warm[0], pair(4, scales[1])[0], warm[1]])
        assert [s.stats["warm_start"] for s in serial] == [1, 0, 1]
        for problem, sol in zip(warm, serial[::2]):
            fresh = solve(cold(problem))
            assert sol.status is fresh.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(fresh.objective, rel=1e-7)
            assert sol.iterations < fresh.iterations

    def test_warm_probes_in_a_batch(self):
        probe = TestZeroObjectiveStop().bounded_probe
        starts = solve_batch([probe(2.5), probe(1.5)])
        problems = [probe(2.4), probe(1.6), probe(1.6)]
        problems[0].start, problems[2].start = (s.iterate for s in starts)
        serial = assert_batch_matches_serial(problems)
        assert [s.stats["warm_start"] for s in serial] == [1, 0, 1]

    def test_iterate_in_source_units(self):
        # rows with large right-hand sides are scaled down in the solve;
        # the iterate keeps their slacks and multipliers unscaled
        prob = bound_lp(30.0, 50.0)
        sol = solve(prob)
        compiled = CompiledProblem(prob)
        assert (compiled.row_scale < 1.0).all()
        x = sol.scalar_values[0]
        np.testing.assert_allclose(sol.iterate.x[1:], [x - 30.0, 50.0 - x],
                                   atol=1e-6)
        np.testing.assert_allclose(sol.iterate.y, sol.duals * [1.0, -1.0])
        # and a start read in a problem's units gives the iterate back
        prob.start = sol.iterate
        back = compiled.source_iterate(*CompiledProblem(prob).start_point())
        for got, want in zip((back.x, back.y, back.z),
                             (sol.iterate.x, sol.iterate.y, sol.iterate.z)):
            np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_start_of_another_shape_raises(self):
        start = solve(bound_lp(1.0, 2.0)).iterate
        other_layout = single_user_qos(np.array([1.0, 1j]), 2.0, 1.0)
        # three orthant entries like bound_lp, but one row instead of two
        other_rows = ConicProblem()
        j, k = other_rows.add_scalar_var(), other_rows.add_scalar_var()
        other_rows.set_objective(scalar={j: 1.0, k: 1.0})
        other_rows.add_constraint(scalars={j: 1.0, k: 1.0}, rel=">=",
                                  rhs=1.0)
        for problem in (other_layout, other_rows):
            problem.start = start
            with pytest.raises(ValueError, match="start of shape"):
                solve(problem)
            with pytest.raises(ValueError, match="start of shape"):
                solve_batch([bound_lp(1.0, 2.0), problem])
