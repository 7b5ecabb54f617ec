"""What a scenario's solves cost per lockstep run and per Newton step.

    PYTHONPATH=src python tools/probe_cost.py scenarios/balancing_small.json

Each scenario file goes through ``experiment.run_sweep`` ``--repeats``
times with ``ipm._solve_hsd``, ``ipm.solve_batch`` and ``ipm.NTScaling``
wrapped by their module names, as ``tools/solve_digest.py`` wraps them.
A call of ``_solve_hsd`` is one lockstep run of P problems, timed from
its call to its return, and each NTScaling it builds is one Newton step
of the run, taken by the problems still in it (the length of its
stacked x): a run narrows as its problems finish, so its problem-steps,
the sum of those counts over its Newton steps, measure its work.  The
sweeps are deterministic, so the k-th run of every sweep solves the
same problems: each run counts with its least time over the repeats,
and the time outside ``solve_batch`` with its least sweep, which leaves
out most of what other processes cost.  The tool prints, per file:

- the lockstep runs, their Newton steps and their problem-steps;
- for each batch size P, the least-squares line through the runs' wall
  times against their problem-steps: its intercept, the fixed cost of a
  run (set-up, screens, exits and the last residuals), and its slope,
  the cost of one problem's Newton step (nan, and the intercept their
  mean time, when all runs of that size take as many problem-steps);
- the wall time of ``run_sweep`` outside ``solve_batch`` per solve: what
  the algorithms around the solver pay per solve, such as a bisection's
  level updates, its kept points and its settled probes.

To measure another tree's solver, run this tool with its ``src`` on
``PYTHONPATH``.  The times move with the host, so compare two trees only
in runs that alternate on one host.
"""

import argparse
import time

import numpy as np

from cobeam.conic import ipm
from cobeam.experiment import parse_scenario, run_sweep


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="+")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trials", type=int, help="override trial count")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.trials is not None and args.trials < 1:
        parser.error("--repeats and --trials must be >= 1")
    runs, steps, solving = [], [0, 0], [0.0, 0]

    def timed_run(solve_hsd):
        def wrapper(group):
            steps[:], start = [0, 0], time.perf_counter()
            sols = solve_hsd(group)
            runs.append((len(group), *steps, time.perf_counter() - start))
            return sols
        return wrapper

    def counted(scaling):
        def wrapper(layout, x, z):
            steps[0] += 1
            steps[1] += len(x)
            return scaling(layout, x, z)
        return wrapper

    def timed_batch(solve_batch):
        def wrapper(problems):
            start = time.perf_counter()
            sols = solve_batch(problems)
            solving[0] += time.perf_counter() - start
            solving[1] += len(problems)
            return sols
        return wrapper

    originals = ipm._solve_hsd, ipm.NTScaling, ipm.solve_batch
    ipm._solve_hsd = timed_run(originals[0])
    ipm.NTScaling = counted(originals[1])
    ipm.solve_batch = timed_batch(originals[2])
    try:
        for path in args.scenarios:
            sweeps = []
            for _ in range(args.repeats):
                runs.clear()
                solving[:] = [0.0, 0]
                config = parse_scenario(path)
                if args.trials is not None:
                    config.trials = args.trials
                start = time.perf_counter()
                run_sweep(config)
                sweeps.append((list(runs), time.perf_counter() - start
                               - solving[0], solving[1]))
            report(path, sweeps)
    finally:
        ipm._solve_hsd, ipm.NTScaling, ipm.solve_batch = originals


def report(path, sweeps):
    """Print one scenario file's lines from its repeated sweeps, each
    its runs' (P, Newton steps, problem-steps, wall seconds), its seconds
    outside ``solve_batch`` and its number of solves."""
    sizes, counts, work = np.array(
        [run[:3] for run in sweeps[0][0]], dtype=int).reshape(-1, 3).T
    # the k-th run of every sweep solves the same problems
    seconds = np.min([[run[-1] for run in runs] for runs, _, _ in sweeps],
                     axis=0)
    print(f"{path}: lockstep runs {len(sizes)} newton steps {counts.sum()} "
          f"problem steps {work.sum()}")
    for p in np.unique(sizes):
        at = sizes == p
        fixed, per_step = fit(work[at], seconds[at])
        print(f"{path}: P {p}: runs {at.sum()} newton steps "
              f"{counts[at].sum()} problem steps {work[at].sum()} fixed "
              f"{fixed * 1e6:.0f} us per run, {per_step * 1e6:.0f} us per "
              "problem step")
    outside, solves = min(sweep[1] for sweep in sweeps), sweeps[0][2]
    print(f"{path}: solves {solves} outside solve_batch "
          f"{outside / max(solves, 1) * 1e6:.0f} us per solve")


def fit(steps, seconds):
    """Intercept and slope of the least-squares line through (steps,
    seconds); the mean time and nan when the steps do not vary."""
    if np.ptp(steps) == 0:
        return seconds.mean(), np.nan
    slope, intercept = np.polyfit(steps, seconds, 1)
    return intercept, slope


if __name__ == "__main__":
    main()
