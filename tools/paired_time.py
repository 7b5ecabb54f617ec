"""Time ``run_sweep`` of this tree against another tree's, in one process.

    PYTHONPATH=src python tools/paired_time.py ../parent scenarios/power_min_small.json

The other tree's ``src/cobeam`` is imported under another package name
(the package imports itself only relatively), so both run in one
interpreter, with one set of warm caches and one host state.  Each call
runs the scenario on both trees, alternating which tree runs first from
call to call, and keeps each tree's best of ``--best-of`` runs.  The
tool prints each tree's total over the calls and the median and
quartiles of the per-call ratios, the other tree's time over this
tree's (above 1: this tree is faster).  It then compares the trees'
records, ``wall_time_s`` left out, and trace rows.  When they differ,
as after a change of the solver's floating-point path, every call is
still timed, and the tool prints the largest relative difference of a
record's objective and each record whose ``feasible``, ``failure_kind``
or ``used_randomization`` differs, and exits non-zero.
"""

import argparse
import gc
import importlib
import importlib.util
import pathlib
import sys
import time

import numpy as np

import cobeam.experiment


def load_tree(root, name="cobeam_base"):
    """The ``cobeam`` package of the tree at ``root``, imported as
    ``name``."""
    package = pathlib.Path(root) / "src" / "cobeam"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.experiment")


# the fields of a record that say whether and how it succeeded
FLAGS = ("feasible", "failure_kind", "used_randomization")


def best_time(experiment, path, trials, runs):
    """Best wall time of ``runs`` sweeps of the scenario at ``path``,
    and the last sweep's records without their times, and trace rows."""
    best = np.inf
    for _ in range(runs):
        config = experiment.parse_scenario(path)
        if trials is not None:
            config.trials = trials
        gc.collect()
        start = time.perf_counter()
        records, rows = experiment.run_sweep(config)
        best = min(best, time.perf_counter() - start)
    kept = [{k: v for k, v in rec.items() if k != "wall_time_s"}
            for rec in records]
    return best, (kept, rows)


def compare(base, this):
    """The largest relative difference of a record's objective between
    two runs' records, and a line for each record whose ``FLAGS``
    differ."""
    worst, flipped = 0.0, []
    for i, (a, b) in enumerate(zip(base, this)):
        x, y = a["objective"], b["objective"]
        if x is not None and y is not None and max(abs(x), abs(y)) > 0:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        changed = [f"{f} {a[f]!r} -> {b[f]!r}" for f in FLAGS if a[f] != b[f]]
        if changed:
            flipped.append(f"record {i} ({a['scheme']}, trial {a['trial']}): "
                           + ", ".join(changed))
    return worst, flipped


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the other tree")
    parser.add_argument("scenario")
    parser.add_argument("--calls", type=int, default=10)
    parser.add_argument("--best-of", type=int, default=3)
    parser.add_argument("--trials", type=int, help="override trial count")
    args = parser.parse_args(argv)
    if min(args.calls, args.best_of) < 1 \
            or args.trials is not None and args.trials < 1:
        parser.error("--calls, --best-of and --trials must be >= 1")
    sides = {"base": load_tree(args.base), "this": cobeam.experiment}
    totals, ratios, differ = dict.fromkeys(sides, 0.0), [], 0
    for call in range(args.calls):
        order = list(sides) if call % 2 == 0 else list(sides)[::-1]
        times, results = {}, {}
        for side in order:
            times[side], results[side] = best_time(
                sides[side], args.scenario, args.trials, args.best_of)
            totals[side] += times[side]
        if repr(results["base"]) != repr(results["this"]):
            differ += 1
        ratios.append(times["base"] / times["this"])
        print(f"call {call} ({order[0]} first): base {times['base']:.3f} s, "
              f"this {times['this']:.3f} s, ratio {ratios[-1]:.3f}")
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    print(f"total over {args.calls} calls, best of {args.best_of}: "
          f"base {totals['base']:.3f} s, this {totals['this']:.3f} s")
    print(f"ratio base/this: median {median:.3f}, quartiles {q1:.3f} - "
          f"{q3:.3f}, this tree faster in "
          f"{sum(r > 1 for r in ratios)}/{args.calls} calls")
    if differ:
        (base, base_rows), (this, this_rows) = results["base"], results["this"]
        worst, flipped = compare(base, this)
        print(f"the trees' records or trace rows differ in {differ}/"
              f"{args.calls} calls; last call: largest relative objective "
              f"difference {worst:.3g}, {len(flipped)} of {len(base)} "
              f"records with other {'/'.join(FLAGS)}, trace rows "
              f"{'equal' if repr(base_rows) == repr(this_rows) else 'differ'}")
        for line in flipped:
            print(f"  {line}")
        sys.exit(1)


if __name__ == "__main__":
    main()
