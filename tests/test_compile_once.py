"""Cells compiled once: an updated cell's compiled form equals a fresh
compile of the problem rebuilt from the channels, bit for bit, and the
PD and ADMM rounds build each BS's rows once per run."""

import dataclasses

import numpy as np
import pytest

from cobeam import conic, distributed
from cobeam.conic import ipm
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


def compiled_form(problem):
    """The compiled form a solve of ``problem`` uses (``solve_batch``)."""
    return CompiledProblem(problem) if problem.compiled is None \
        else problem.compiled.updated(problem)


def assert_same_compile(updated, fresh):
    """``updated``'s compiled form equals a fresh compile of ``fresh``
    bit for bit, its start read in its units included."""
    got, want = compiled_form(updated), CompiledProblem(fresh)
    for name in ("A", "b", "c", "qdiag", "row_scale", "slack_scale"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(got.A_blocks) == len(want.A_blocks)
    for g, w in zip(got.A_blocks, want.A_blocks):
        assert np.array_equal(g, w)
    assert got.shape == want.shape
    # the same start, read in each problem's own units
    updated.start = fresh.start = conic.solve(fresh).iterate
    for g, w in zip(got.start_point(), want.start_point()):
        assert np.array_equal(g, w)
    assert [con.rhs for con in updated.constraints] \
        == [con.rhs for con in fresh.constraints]
    assert updated.obj_scalar == fresh.obj_scalar


def grid(topo, values):
    theta = np.zeros((topo.B, topo.U))
    theta[topo.ici_mask()] = values
    return theta


class TestUpdatedCell:
    def test_pd_caps(self):
        topo, chans = scenario(3)
        kept = conic.compile_once(assemble_subproblem(0, chans, topo, 1.0))
        rng = np.random.default_rng(0)
        theta = grid(topo, rng.uniform(0.05, 2.0, topo.ici_mask().sum()))
        # one cap far above its row's max-abs, so its row scale changes
        cap = kept.constraint_index(("cap", (0, 1)))
        big = 100.0 * (1.0 + kept.compiled.row_max[cap])
        theta[0, 1] = big
        updated = sinr_update(kept, topo, 0, theta=theta)
        assert compiled_form(updated).row_scale[cap] == 1.0 / big
        assert kept.compiled.row_scale[cap] != 1.0 / big
        assert_same_compile(updated,
                            assemble_subproblem(0, chans, topo, theta))

    def test_pd_caps_each_round(self):
        # a cell is updated from its first build, round after round
        topo, chans = scenario(4, B=3, G=3, U=6)
        kept = conic.compile_once(assemble_subproblem(1, chans, topo, 0.5))
        rng = np.random.default_rng(1)
        for _ in range(3):
            theta = grid(topo, rng.uniform(0.01, 3.0,
                                           topo.ici_mask().sum()))
            assert_same_compile(sinr_update(kept, topo, 1, theta=theta),
                                assemble_subproblem(1, chans, topo, theta))

    def test_admm_costs(self):
        topo, chans = scenario(5)
        rng = np.random.default_rng(2)
        theta0, nu0 = grid(topo, 0.3), np.zeros((topo.B, topo.U))
        prob, slot = assemble_admm_local(1, chans, topo, theta0, nu0, 2.0)
        kept = conic.compile_once(prob)
        for _ in range(2):
            theta = grid(topo, rng.uniform(0.0, 2.0, topo.ici_mask().sum()))
            nu = grid(topo, rng.normal(size=topo.ici_mask().sum()))
            fresh, fresh_slot = assemble_admm_local(1, chans, topo, theta,
                                                    nu, 2.0)
            assert np.array_equal(slot, fresh_slot)
            assert_same_compile(sinr_update(
                kept, topo, 1, copies=(nu - 2.0 * theta, 1.0)), fresh)

    @pytest.mark.parametrize("theta", [None, 0.2])
    def test_probe_levels(self, theta):
        topo, chans = scenario(6, U=2, p_max=10.0)

        def probe(t):
            return sinr_system(chans, topo, cell=0, level=t, theta=theta,
                               budget=True, objective=False)[0]

        kept = conic.compile_once(probe(0.0))
        # levels whose right-hand sides stay under, and pass, the rows'
        # max-abs values
        for t in (0.37, 3.1, 250.0, 1e4):
            assert_same_compile(
                sinr_update(kept, topo, 0, level=t, theta=theta), probe(t))

    def test_probe_after_feasibility(self):
        topo, chans = scenario(7, U=2, p_max=10.0)

        def probe(t, objective=False):
            return sinr_system(chans, topo, cell=1, level=t, theta=0.1,
                               budget=True, objective=objective)[0]

        kept = conic.compile_once(probe(0.0))
        updated = sinr_update(kept, topo, 1, level=2.5, theta=0.1)
        # an objective-free problem is solved as it is, compile shared
        yielded, = next(conic.feasibility(updated))
        assert yielded.compiled is kept.compiled
        assert_same_compile(yielded, probe(2.5))
        # dropping an objective drops the shared compile, whose c it has
        with_objective = conic.compile_once(probe(2.5, objective=True))
        yielded, = next(conic.feasibility(with_objective))
        assert yielded.compiled is None and not yielded.obj_matrix
        assert_same_compile(yielded, dataclasses.replace(
            probe(2.5, objective=True), obj_matrix={}))

    def test_updated_copy_leaves_its_original(self):
        topo, chans = scenario(8)
        kept = conic.compile_once(assemble_subproblem(0, chans, topo, 1.0))
        before = [con.rhs for con in kept.constraints]
        sinr_update(kept, topo, 0, theta=0.25)
        assert [con.rhs for con in kept.constraints] == before
        assert_same_compile(kept, assemble_subproblem(0, chans, topo, 1.0))


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
