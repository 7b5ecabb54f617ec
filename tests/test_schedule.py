"""The solve scheduler: generators driven together give the results
they give alone, errors stay with their generator, and sweep records
keep their failures and wall times apart."""

import pickle
import time

import numpy as np
import pytest

from cobeam import conic, experiment
from cobeam.conic import ipm
from cobeam.balancing import balance_distributed, local_balance
from cobeam.distributed import (run_admm, run_primal_decomposition,
                                solve_fixed_ici, solve_nulling,
                                solve_orthogonal)
from cobeam.errors import InfeasibleTargetsError
from cobeam.experiment import ScenarioConfig, run_sweep
from cobeam.network import build_topology, sample_channels
from cobeam.power_min import solve_centralized


def setup(seed=3):
    topo = build_topology(B=2, G=2, U=4, A=6, gamma=10 ** 0.1,
                          cell_separation=10 ** 0.1)
    return topo, sample_channels(topo, seed)


def mixed(seed=3):
    """Fresh generators of every solving design, each with its own
    seeded stream; GR runs in the per-cell balancing of a multicast
    topology."""
    topo, chans = setup(seed)
    multicast = build_topology(B=2, G=2, U=8, A=6, gamma=10 ** 0.1,
                               cell_separation=10 ** 0.1)

    def rng(k):
        return np.random.default_rng([seed, k])

    return [
        run_primal_decomposition.steps(chans, topo, max_iters=6,
                                       rng=rng(0)),
        run_admm.steps(chans, topo, max_iters=6, rng=rng(1)),
        solve_fixed_ici.steps(chans, topo, 0.05, rng=rng(2)),
        solve_nulling.steps(chans, topo, rng=rng(3)),
        solve_orthogonal.steps(chans, topo, rng=rng(4)),
        solve_centralized.steps(chans, topo, rng=rng(5)),
        local_balance.steps(1, chans, topo, 0.1, epsilon=1e-2),
        balance_distributed.steps(sample_channels(multicast, 0), multicast,
                                  0.1, epsilon=1e-2, gr_count=20,
                                  rng=rng(6)),
    ]


def degenerate(chans):
    """Every user sees user 0's channel: two co-channel groups at a
    target above 0 dB cannot both be served."""
    h = np.broadcast_to(chans.h[:, :1], chans.h.shape).copy()
    return type(chans)(h=h, outer=np.einsum("bui,buj->buij", h, h.conj()))


def same(a, b):
    """Equal bit for bit: every array and float by its bytes."""
    return pickle.dumps(a) == pickle.dumps(b)


class TestDrive:
    def test_driven_together_equals_driven_alone(self):
        together = conic.drive(mixed())
        alone = [conic.drive([gen])[0] for gen in mixed()]
        assert len(together) == len(alone) == 8
        for k, (a, b) in enumerate(zip(together, alone)):
            assert same(a, b), k
        # and the public functions are the lone drives
        topo, chans = setup()
        assert same(alone[3], solve_nulling(
            chans, topo, rng=np.random.default_rng([3, 3])))
        assert alone[7].solution.used_randomization

    def test_failing_generator_leaves_alone(self):
        topo, chans = setup()
        chans = degenerate(chans)
        with pytest.raises(InfeasibleTargetsError) as lone:
            solve_fixed_ici(chans, topo, 0.1)
        finished = {}

        def kept(k, gen):
            finished[k] = yield from gen

        gens = mixed()
        # the bad design's per-BS problems share the first batch with
        # primal decomposition's, which have their shape
        gens.insert(1, solve_fixed_ici.steps(chans, topo, 0.1))
        with pytest.raises(InfeasibleTargetsError) as err:
            conic.drive([gen if k == 1 else kept(k, gen)
                         for k, gen in enumerate(gens)])
        assert str(err.value) == str(lone.value)
        assert "fixed-cap subproblem of BS 0" in str(err.value)
        alone = [conic.drive([gen])[0] for gen in mixed()]
        assert sorted(finished) == [0, 2, 3, 4, 5, 6, 7, 8]
        for k, result in zip(sorted(finished), alone):
            assert same(finished[k], result), k

    def test_gather_returns_the_exception_in_place(self):
        topo, chans = setup()
        steps = conic.gather([
            solve_nulling.steps(chans, topo),
            solve_fixed_ici.steps(degenerate(chans), topo, 0.1)])
        problems = next(steps)
        assert len(problems) == 4
        with pytest.raises(StopIteration) as stop:
            steps.send(conic.solve_batch(problems))
        nulled, failed = stop.value.value
        assert nulled.objective > 0
        assert isinstance(failed, InfeasibleTargetsError)

    def test_plain_generator_and_empty_steps(self):
        def plain():
            return "done"
            yield

        def idle():
            assert (yield []) == []
            prob = conic.ConicProblem()
            j = prob.add_scalar_var()
            prob.set_objective(scalar={j: 1.0})
            prob.add_constraint(scalars={j: 1.0}, rel=">=", rhs=1.0)
            sol, = yield [prob]
            return sol.status

        assert conic.drive([plain(), idle()]) == [
            "done", conic.SolveStatus.OPTIMAL]


def worker(name, steps):
    """Solve generator of ``steps`` named problems, then an empty yield
    and one more problem; returns its name."""
    for k in range(steps):
        got, = yield [f"{name}{k}"]
        assert got == f"solved {name}{k}"
    assert (yield []) == []
    got, = yield [f"{name} after"]
    assert got == f"solved {name} after"
    return name


def failing():
    yield ["bad"]
    raise ValueError("bad")


def stepped(generators):
    """Run ``gather(generators)`` by hand, each problem solved to a
    string: its steps' problem lists and its results."""
    steps = []
    gen = conic.gather(generators)
    try:
        problems = next(gen)
        while True:
            steps.append(problems)
            problems = gen.send([f"solved {p}" for p in problems])
    except StopIteration as stop:
        return steps, stop.value


class TestBarrier:
    """What is left of the barrier that per-cell polishes once waited
    at: an empty yield is answered at once, in the same step."""

    def test_lone_waiting_generator_resumes_at_once(self):
        steps, results = stepped([worker("a", 2)])
        assert steps == [["a0"], ["a1"], ["a after"]]
        assert results == ["a"]

    def test_drive_never_receives_an_empty_list(self, monkeypatch):
        sizes = []

        def solve_batch(problems):
            sizes.append(len(problems))
            return [f"solved {p}" for p in problems]

        def idle():
            assert (yield []) == []
            assert (yield []) == []
            return "idle"

        monkeypatch.setattr(ipm, "solve_batch", solve_batch)
        monkeypatch.setattr(ipm, "solve", lambda p: solve_batch([p])[0])
        assert conic.drive([worker("a", 2), idle(), worker("b", 0)]) \
            == ["a", "idle", "b"]
        # idle ends in the first step; b's problem after its empty yield
        # shares that step with a's first, and a's with nothing
        assert sizes == [2, 1, 1]


def sweep_config(trials=3):
    return ScenarioConfig(B=2, G=2, U=4, A=6, gamma_db=1.0, d_db=1.0,
                          schemes=["centralized", "primal-decomp",
                                   "nulling"],
                          iters=3, trials=trials, seed=17)


def without_time(records):
    return [{k: v for k, v in rec.items() if k != "wall_time_s"}
            for rec in records]


class TestSweepSchedule:
    def test_failing_trial_keeps_other_trials_intact(self, monkeypatch):
        clean, clean_traces = run_sweep(sweep_config())
        draw, calls = experiment.sample_channels, []

        def trial_one_degenerate(topology, rng):
            calls.append(None)
            chans = draw(topology, rng)
            return degenerate(chans) if len(calls) == 2 else chans

        monkeypatch.setattr(experiment, "sample_channels",
                            trial_one_degenerate)
        records, traces = run_sweep(sweep_config())
        assert len(records) == len(clean) == 9
        for rec, ref in zip(without_time(records), without_time(clean)):
            if rec["trial"] == 1:
                assert rec["feasible"] is False
                assert rec["failure_kind"] == "InfeasibleTargetsError"
            else:
                assert rec == ref
        assert traces == [row for row in clean_traces if row["trial"] != 1]

    def test_wall_times_share_the_sweep(self):
        config = sweep_config(trials=2)
        config.d_db = [0.0, 3.0]
        start = time.perf_counter()
        records, _ = run_sweep(config)
        wall = time.perf_counter() - start
        assert len(records) == 12
        assert all(rec["wall_time_s"] > 0 for rec in records)
        # solves are most of a sweep's time, so a record must count its
        # solutions' shares as well as its own steps
        assert 0.5 * wall <= sum(rec["wall_time_s"] for rec in records) \
            <= wall
