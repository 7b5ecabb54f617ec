"""Cells compiled once: an updated cell's compiled form equals a fresh
compile of the problem rebuilt from the channels, bit for bit, the PD
and ADMM rounds build each BS's rows once per run, and a one-group
cell's bisection compiles its probes once, while a probe with a SINR
family of its own compiles anew.  A problem and its updated copies
share one store of what their coefficients give (``_derived``); a new
objective starts a new one."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from conftest import assert_same_compile, compiled_form, row_data
from test_conic import assert_same

from cobeam import balancing, conic, distributed
from cobeam.conic import ConicProblem, ipm, problem
from cobeam.conic.problem import CompiledProblem
from cobeam.distributed import (assemble_admm_local,
                                assemble_subproblem, run_admm,
                                run_primal_decomposition)
from cobeam.network import build_topology, sample_channels
from cobeam.power_min import sinr_system, sinr_update

GAMMA_1DB = 10 ** 0.1


def scenario(seed, **overrides):
    params = dict(B=2, G=2, U=4, A=6, gamma=GAMMA_1DB,
                  cell_separation=GAMMA_1DB)
    params.update(overrides)
    topo = build_topology(**params)
    return topo, sample_channels(topo, seed)


def grid(topo, values):
    theta = np.zeros((topo.B, topo.U))
    theta[topo.ici_mask()] = values
    return theta


class TestUpdatedCell:
    def test_pd_caps(self):
        topo, chans = scenario(3)
        kept = assemble_subproblem(0, chans, topo, 1.0)
        first = compiled_form(kept)
        rng = np.random.default_rng(0)
        theta = grid(topo, rng.uniform(0.05, 2.0, topo.ici_mask().sum()))
        # one cap far above its row's max-abs, so its row scale changes
        cap = kept.constraint_index(("cap", (0, 1)))
        big = 100.0 * (1.0 + first.row_max[cap])
        theta[0, 1] = big
        updated = sinr_update(kept, chans, topo, 0, theta=theta)
        assert compiled_form(updated).row_scale[cap] == 1.0 / big
        assert first.row_scale[cap] != 1.0 / big
        assert_same_compile(updated,
                            assemble_subproblem(0, chans, topo, theta))

    def test_pd_caps_each_round(self):
        # a cell is updated from its first build, round after round
        topo, chans = scenario(4, B=3, G=3, U=6)
        kept = assemble_subproblem(1, chans, topo, 0.5)
        compiled_form(kept)
        rng = np.random.default_rng(1)
        for _ in range(3):
            theta = grid(topo, rng.uniform(0.01, 3.0,
                                           topo.ici_mask().sum()))
            assert_same_compile(
                sinr_update(kept, chans, topo, 1, theta=theta),
                assemble_subproblem(1, chans, topo, theta))

    def test_admm_costs(self):
        topo, chans = scenario(5)
        rng = np.random.default_rng(2)
        theta0, nu0 = grid(topo, 0.3), np.zeros((topo.B, topo.U))
        kept, slot = assemble_admm_local(1, chans, topo, theta0, nu0, 2.0)
        compiled_form(kept)
        for _ in range(2):
            theta = grid(topo, rng.uniform(0.0, 2.0, topo.ici_mask().sum()))
            nu = grid(topo, rng.normal(size=topo.ici_mask().sum()))
            fresh, fresh_slot = assemble_admm_local(1, chans, topo, theta,
                                                    nu, 2.0)
            assert np.array_equal(slot, fresh_slot)
            assert_same_compile(sinr_update(
                kept, chans, topo, 1, copies=(nu - 2.0 * theta, 1.0)), fresh)

    @pytest.mark.parametrize("theta", [None, 0.2])
    def test_probe_levels(self, theta):
        topo, chans = scenario(6, U=2, p_max=10.0)

        def probe(t):
            return sinr_system(chans, topo, cell=0, level=t, theta=theta,
                               budget=True, objective=False)[0]

        kept = probe(0.0)
        compiled_form(kept)
        # levels whose right-hand sides stay under, and pass, the rows'
        # max-abs values
        for t in (0.37, 3.1, 250.0, 1e4):
            assert_same_compile(
                sinr_update(kept, chans, topo, 0, level=t, theta=theta),
                probe(t))

    def test_probe_after_feasibility(self):
        topo, chans = scenario(7, U=2, p_max=10.0)

        def probe(t, objective=False):
            return sinr_system(chans, topo, cell=1, level=t, theta=0.1,
                               budget=True, objective=objective)[0]

        kept = probe(0.0)
        compiled_form(kept)
        updated = sinr_update(kept, chans, topo, 1, level=2.5, theta=0.1)
        # an objective-free problem is solved as it is, compile shared
        yielded, = next(conic.feasibility(updated))
        assert yielded._derived is kept._derived
        assert_same_compile(yielded, probe(2.5))
        # dropping an objective drops the shared compile, whose c and
        # pads it has
        with_objective = probe(2.5, objective=True)
        compiled_form(with_objective)
        yielded, = next(conic.feasibility(with_objective))
        assert yielded._derived == {} and not yielded.obj_matrix
        assert_same_compile(yielded, dataclasses.replace(
            probe(2.5, objective=True), obj_matrix={}))

    def test_updated_copy_leaves_its_original(self):
        topo, chans = scenario(8)
        kept = assemble_subproblem(0, chans, topo, 1.0)
        compiled_form(kept)
        before = row_data(kept)
        sinr_update(kept, chans, topo, 0, theta=0.25)
        assert row_data(kept) == before
        assert_same_compile(kept, assemble_subproblem(0, chans, topo, 1.0))


class TestKeptCompile:
    """A kept compile serves the coefficients it was compiled from, at
    any right-hand sides and linear scalar costs."""

    def test_new_coefficients_drop_it(self):
        topo, chans = scenario(11, p_max=10.0)

        def probe(t):
            return sinr_system(chans, topo, level=t, budget=True,
                               objective=False)[0]

        kept = probe(0.0)
        compiled_form(kept)
        updated = sinr_update(kept, chans, topo, None, level=2.0)
        assert updated.families[0].matrix is not kept.families[0].matrix
        assert updated._derived == {} and "compiled" in kept._derived
        assert_same_compile(updated, probe(2.0))

    def admm_cell(self):
        topo, chans = scenario(5)
        kept, _ = assemble_admm_local(1, chans, topo, grid(topo, 0.3),
                                      np.zeros((topo.B, topo.U)), 2.0)
        rhs = np.array([v for fam in kept.families for v in fam.rhs])
        return kept, [kept.updated(rhs=f * rhs, scalar={
            j: f * c for j, c in kept.obj_scalar.items()})
            for f in (0.5, 40.0)]

    def test_new_right_hand_sides_and_costs_keep_it(self):
        kept, updated = self.admm_cell()
        for prob in updated:
            assert prob._derived is kept._derived
            assert prob.families[0].matrix is kept.families[0].matrix

    def test_updates_leave_its_arrays_unwritten(self, monkeypatch):
        kept, updated = self.admm_cell()
        compiles = []

        def frozen(prob):
            compiled = CompiledProblem(prob)
            held = [v for v in vars(compiled).values()
                    if isinstance(v, np.ndarray)] \
                + compiled.blocks + compiled.A_blocks
            compiles.append((compiled, held, [v.copy() for v in held]))
            for v in held:
                v.flags.writeable = False
            return compiled

        monkeypatch.setattr(ipm, "CompiledProblem", frozen)
        # the kept problem's compile and two updates of it, solved at once
        sols = conic.solve_batch([kept] + updated)
        assert all(sol.iterations > 0 for sol in sols)
        (compiled, held, before), = compiles
        # at 40 times the right-hand sides, some rows scale otherwise
        assert not np.array_equal(compiled_form(updated[1]).row_scale,
                                  compiled.row_scale)
        for got, want in zip(held, before):
            assert np.array_equal(got, want)


class TestRowsBuiltOnce:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of full row builds: ``sinr_system`` calls (with or
        without ADMM copies) and compiles."""
        counts = {"copies": 0, "caps": 0, "compile": 0}
        build, compile_ = distributed.sinr_system, ipm.CompiledProblem

        def counting_build(*args, **kwargs):
            counts["copies" if kwargs.get("copies") is not None
                   else "caps"] += 1
            return build(*args, **kwargs)

        def counting_compile(problem):
            counts["compile"] += 1
            return compile_(problem)

        monkeypatch.setattr(distributed, "sinr_system", counting_build)
        monkeypatch.setattr(ipm, "CompiledProblem", counting_compile)
        return counts

    def test_pd(self, counted):
        topo, chans = scenario(9)
        trace = run_primal_decomposition(chans, topo, max_iters=6,
                                         rng=np.random.default_rng(0))
        assert trace.iterations == 6
        assert counted == {"copies": 0, "caps": topo.B, "compile": topo.B}

    def test_admm(self, counted):
        topo, chans = scenario(10)
        trace = run_admm(chans, topo, max_iters=6,
                         rng=np.random.default_rng(0))
        assert trace.iterations == 6
        # the restoration at the final values builds each cell once more
        assert counted == {"copies": topo.B, "caps": topo.B,
                           "compile": 2 * topo.B}

    @pytest.mark.parametrize("G, U, cell, rebuilt", [
        (2, 4, None, True), (2, 4, 0, False), (4, 8, 0, True)],
        ids=["network", "one-group", "multi-group"])
    def test_bisection(self, counted, G, U, cell, rebuilt):
        # the first solved probe compiles, and so does the polish when it
        # runs; a probe of several groups builds its SINR family anew at
        # its level, so it compiles again when it is solved rather than
        # settled, while a one-group cell's later probes rescale the first
        # compile; the system at level 0 is never compiled
        topo, chans = scenario(11, G=G, U=U, p_max=10.0)
        result = balancing.bisect_balance(chans, topo) if cell is None \
            else balancing.local_balance(cell, chans, topo, 0.1)
        assert result.calls > 1
        solved = len(result.probes) - result.decided
        # the extra solves beyond a probe of the lower end: the polish
        polished = result.extra_calls - (len(result.probes) - result.calls)
        assert polished in (0, 1)
        assert solved > 0
        assert counted["compile"] == polished + (solved if rebuilt else 1)

    @pytest.mark.parametrize("first", [0, 1])
    def test_updated_copies_share_one_compile(self, counted, monkeypatch,
                                              first):
        # whichever copy is solved first compiles, the other rescales it
        topo, chans = scenario(12)
        prob = sinr_system(chans, topo, cell=0, theta=0.5)[0]
        copies = [sinr_update(prob, chans, topo, 0, theta=theta)
                  for theta in (0.25, 1.0)]
        rescales, rescale = [], problem.CompiledProblem.updated

        def counting(compiled, source):
            rescales.append(source)
            return rescale(compiled, source)

        monkeypatch.setattr(problem.CompiledProblem, "updated", counting)
        conic.solve(copies[first])
        conic.solve(copies[1 - first])
        assert counted["compile"] == 1
        assert rescales == [copies[1 - first]]


def assert_same_solution(got, want):
    for field in ("status", "iterations", "objective", "matrix_values",
                  "scalar_values", "duals", "kkt", "stats", "certificate",
                  "iterate"):
        assert_same(getattr(got, field), getattr(want, field))


class TestOneStore:
    """A store serves one set of row coefficients, matrix costs,
    quadratic costs and pads: a solve after any of them changed gives
    the bits of the problem built anew."""

    @staticmethod
    def build(**objective):
        # Tr(F X) + y >= 1, Tr(X) <= 5: four orthant entries, so an
        # objective gives it pads
        prob = ConicProblem()
        i, j = prob.add_psd_var(2), prob.add_scalar_var()
        prob.add_constraint(matrix={i: np.array([[2.0, 0.5j],
                                                 [-0.5j, 1.0]])},
                            scalars={j: 1.0}, rhs=1.0)
        prob.add_constraint(matrix={i: np.eye(2)}, rel="<=", rhs=5.0)
        prob.set_objective(**objective)
        return prob

    @pytest.mark.parametrize("objective", [
        {"matrix": {0: np.diag([1.0, 3.0])}}, {"scalar": {0: 0.25}},
        {"scalar_quad": {0: 2.0}}], ids=["matrix", "scalar", "quadratic"])
    def test_set_objective(self, objective):
        prob = self.build()
        assert conic.solve(prob).status is conic.SolveStatus.OPTIMAL
        prob.set_objective(**objective)
        assert_same_solution(conic.solve(prob),
                             conic.solve(self.build(**objective)))

    def test_updated_costs(self):
        # scalar costs that drop the only objective drop its pads
        prob = self.build(scalar={0: 1.0})
        conic.solve(prob)
        copy, fresh = prob.updated(scalar={0: 0.0}), self.build(
            scalar={0: 0.0})
        assert_same_solution(conic.solve(copy), conic.solve(fresh))
        assert_same_compile(copy, fresh)
        # a copy without the scalar cost of the copy solved first
        matrix = {0: np.eye(2)}
        prob = self.build(matrix=matrix)
        conic.solve(prob.updated(scalar={0: 5.0}))
        assert_same_solution(conic.solve(prob.updated()),
                             conic.solve(self.build(matrix=matrix)))

    def test_copy_mutators_leave_the_original(self):
        matrix = {0: np.eye(2)}
        prob = self.build(matrix=matrix)
        conic.solve(prob)
        for copy in (prob.updated(), dataclasses.replace(prob)):
            copy.set_objective(matrix={0: np.diag([1.0, 3.0])})
            copy.add_psd_var(2)
            copy.add_scalar_var()
            copy.add_constraint(matrix={0: np.eye(2)}, rel="<=", rhs=0.5)
        assert_same_solution(conic.solve(prob),
                             conic.solve(self.build(matrix=matrix)))

    def test_a_solved_problem_is_freed_with_its_last_reference(self):
        # its store keeps no reference to it, so no cycle holds it and
        # its compile until the collector runs
        enabled = gc.isenabled()
        gc.disable()
        try:
            prob = self.build(matrix={0: np.eye(2)})
            conic.solve(prob)
            conic.solve(prob.updated(scalar={0: 2.0}))
            freed = weakref.ref(prob)
            del prob
            assert freed() is None
        finally:
            if enabled:
                gc.enable()
