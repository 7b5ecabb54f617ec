"""Self-tests of the benchmark's own arithmetic and wrappers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from tracing import (Patches, Tracer, ancestor_where,  # noqa: E402
                     self_times, unattributed_share)


@pytest.mark.parametrize("n, want", [(1000, 99.0), (100, 90.0), (40, 75.0),
                                     (25, 50.0), (20, 50.0)])
def test_tail_is_highest_ladder_step_with_ten_beyond(n, want):
    samples = [float(i) for i in range(1, n + 1)]
    p, value, beyond = run.tail_percentile(samples)
    assert p == want
    assert value == pytest.approx(run.percentile(samples, want))
    assert beyond >= 10
    higher = [q for q in run.TAIL_LADDER if q > want]
    for q in higher:
        v = run.percentile(samples, q)
        assert sum(1 for x in samples if x > v) < 10


def test_tail_falls_back_to_median_below_twenty_samples():
    samples = [3.0, 1.0, 2.0, 5.0, 4.0]
    p, value, beyond = run.tail_percentile(samples)
    assert (p, value, beyond) == (50.0, 3.0, 2)


def test_percentile_interpolates_linearly():
    assert run.percentile([10.0, 0.0], 50.0) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 75.0) == pytest.approx(3.25)
    assert run.percentile([7.0], 99.9) == 7.0


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > g [2,3];  root > b [5,8]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 8.0])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(start, end, parent)
    assert own.tolist() == [4.0, 2.0, 1.0, 3.0]
    assert own.sum() == end[0] - start[0]


def test_unattributed_share_is_root_time_outside_children():
    # trial 0: root [0,10] > a [1,4] > g [2,3];  root > b [5,8]
    # trial 1: root [20,24] > c [20,23.5]
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 8.0, 24.0, 23.5])
    parent = np.array([-1, 0, 1, 0, -1, 4])
    share = unattributed_share(start, end, parent, np.array([0, 4]))
    assert share.tolist() == [0.4, 0.125]


def test_ancestor_where_finds_nearest_flagged():
    parent = np.array([-1, 0, 1, 2, 0])
    flag = np.array([True, False, True, False, False])
    got = ancestor_where(parent, np.array([3, 2, 4, 0]), flag)
    assert got.tolist() == [2, 0, 0, -1]


def _toy():
    mod = types.ModuleType("toy")

    class Box:
        def grow(self, x):
            return x + 1

    def outer(box, x):
        return mod.inner(box, x) * 2

    def inner(box, x):
        return box.grow(x)

    mod.Box, mod.outer, mod.inner = Box, outer, inner
    return mod


def test_patches_record_nested_spans_and_restore():
    mod = _toy()
    originals = (mod.outer, mod.inner, vars(mod.Box)["grow"])
    tracer = Tracer()
    plan = [(mod, "outer", "toy.outer", None),
            (mod, "inner", "toy.inner", lambda out, args: out),
            (mod.Box, "grow", "toy.grow", None)]
    with Patches(tracer, plan) as patches:
        box = mod.Box()
        assert mod.outer(box, 1) == 4          # untraced outside a trial
        assert len(tracer.start) == 0
        with tracer.trial_span(7):
            assert mod.outer(box, 2) == 6
    assert patches.restored()
    assert (mod.outer, mod.inner, vars(mod.Box)["grow"]) == originals
    name, start, end, parent, trial = tracer.arrays()
    names = [tracer.names[i] for i in name]
    assert names == ["bench.trial", "toy.outer", "toy.inner", "toy.grow"]
    assert parent.tolist() == [-1, 0, 1, 2]
    assert set(trial.tolist()) == {7}
    assert np.all(end >= start)
    assert tracer.attrs == {2: 3}
    own = self_times(start, end, parent)
    assert own.sum() == pytest.approx(end[0] - start[0])


def test_patches_restore_after_an_error():
    mod = _toy()
    tracer = Tracer()

    def boom(box, x):
        raise ValueError("boom")

    mod.inner = boom
    with pytest.raises(ValueError):
        with Patches(tracer, [(mod, "inner", "toy.inner", None)]):
            with tracer.trial_span(0):
                mod.outer(mod.Box(), 1)
    assert mod.inner is boom
    assert tracer.attrs[1] == ("error", "ValueError")
    assert tracer._trial is None


def test_cobeam_plan_targets_exist_and_restore():
    import layers
    plan = layers.plan()
    before = [vars(owner)[attr] for owner, attr, _, _ in plan]
    with Patches(Tracer(), plan) as patches:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr, _, _), orig in zip(plan, before))
    assert patches.restored()
    assert [vars(owner)[attr] for owner, attr, _, _ in plan] == before


def test_speed_factor_averages_probes_near_the_call():
    speed = run.Speed.__new__(run.Speed)       # no probing at construction
    pad = run.Speed.PAD_S
    speed.samples = [(0.0, 0.001, 0.0009),     # too early
                     (1.0, 1.001, 0.0005), (1.5, 1.502, 0.001),
                     (2.4, 2.401, 0.0005),
                     (2.5 + pad, 2.6 + pad, 0.0009)]   # too late
    factor = speed.factor(start=1.2, wall=1.2)
    assert factor == pytest.approx(run.Speed.REFERENCE_S / (0.002 / 3))


@pytest.mark.parametrize("name, want", [("qos-sdp", 90.0),
                                        ("multicast-gr", 75.0),
                                        ("sweep", 75.0),
                                        ("balancing", 75.0)])
def test_trial_count_fixes_the_tail_percentile(tmp_path, name, want):
    import workloads
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    wl = workloads.make(name, tmp_path)
    n = run.trial_count(wl, seconds) * len(wl.calls(wl.inputs(1, 0)))
    if name == "sweep":
        n *= workloads.Sweep.trials    # one sample per sweep point
    samples = [float(i) for i in range(n)]
    assert run.tail_percentile(samples)[0] == want
