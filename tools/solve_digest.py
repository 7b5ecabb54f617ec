"""Count and fingerprint every conic solve of some scenario runs.

    PYTHONPATH=src python tools/solve_digest.py scenarios/*.json

Each scenario file goes through ``experiment.run_sweep`` with
``cobeam.conic.solve_batch`` and ``cobeam.conic.ipm.solve_batch``
wrapped.  ``solve`` is the one-problem case of ``solve_batch`` and calls
it by its module name, so every solve passes one wrapper once, alone or
in a batch.  The tool prints the number of solves and one sha256 over
every returned ``ConicSolution``, in the order the solves return
(within a batch, its list order, which is the order of a serial loop):
status, iterations, objective, matrix values, scalar values, duals,
``kkt``, ``stats`` and certificate.  Two versions of the solver that
print the same digest gave the same answers, bit for bit; a batched
version compares directly with one that solves problem by problem.

A second line prints the count and a sha256 over the sorted per-solution
hashes: it does not depend on the order of the solves, so it also
compares versions that schedule the same solves differently (such as
batching them across trials and schemes), where the first line cannot.
A third line prints the count and the sum of ``iterations`` over every
solve, which shows how much interior-point work the same solves took,
and a fourth the sum of ``stats["refine_passes"]``, the corrector's
refinement passes (nan for a solver that does not count them).
A fifth line prints the number of records and trace rows of the runs
and one sha256 over the records, ``wall_time_s`` left out, and then the
trace rows: it also covers what no conic solve returns, such as the
Gaussian randomization picks and their least powers.
To check the solver of another tree, run this tool with its ``src`` on
``PYTHONPATH``.
"""

import argparse
import hashlib
import math

import numpy as np

from cobeam import conic
from cobeam.conic import ipm
from cobeam.experiment import parse_scenario, run_sweep


def feed(h, value):
    """Hash ``value`` exactly: arrays and floats by their bytes."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            feed(h, item)
        h.update(b"]")
    elif isinstance(value, (float, np.floating)):
        h.update(np.float64(value).tobytes())
    else:
        h.update(repr(value).encode())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="+")
    parser.add_argument("--trials", type=int, help="override trial count")
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    digest, hashes, iterations, passes = hashlib.sha256(), [], 0, 0
    results, nrecords, nrows = hashlib.sha256(), 0, 0

    def recorded(solve_batch):
        def wrapper(*a, **kw):
            nonlocal iterations, passes
            sols = solve_batch(*a, **kw)
            for sol in sols:
                iterations += sol.iterations
                passes += sol.stats.get("refine_passes", math.nan)
                fields = [sol.status.value, sol.iterations, sol.objective,
                          sol.matrix_values, sol.scalar_values, sol.duals,
                          sol.kkt, sol.stats, sol.certificate]
                feed(digest, fields)
                one = hashlib.sha256()
                feed(one, fields)
                hashes.append(one.hexdigest())
            return sols
        return wrapper

    originals = conic.solve_batch, ipm.solve_batch
    conic.solve_batch, ipm.solve_batch = map(recorded, originals)
    try:
        for path in args.scenarios:
            config = parse_scenario(path)
            if args.trials is not None:
                config.trials = args.trials
            records, trace_rows = run_sweep(config)
            feed(results, [{k: v for k, v in rec.items()
                            if k != "wall_time_s"} for rec in records])
            feed(results, trace_rows)
            nrecords += len(records)
            nrows += len(trace_rows)
    finally:
        conic.solve_batch, ipm.solve_batch = originals
    print(f"solves {len(hashes)} sha256 {digest.hexdigest()}")
    print(f"solves {len(hashes)} order-free sha256 "
          f"{hashlib.sha256(''.join(sorted(hashes)).encode()).hexdigest()}")
    print(f"solves {len(hashes)} iterations {iterations}")
    print(f"solves {len(hashes)} refine passes {passes}")
    print(f"records {nrecords} trace rows {nrows} sha256 "
          f"{results.hexdigest()}")


if __name__ == "__main__":
    main()
