"""Count and fingerprint every conic solve of some scenario runs.

    PYTHONPATH=src python tools/solve_digest.py scenarios/*.json

The first line names the OpenBLAS kernel (core) that numpy's and
scipy's libraries run, as each library's ``get_corename`` reports it
through ctypes, or ``unknown``: a ``DYNAMIC_ARCH`` build picks its kernel
from the CPU or from ``OPENBLAS_CORETYPE``, and the kernel's rounding
moves every hash below, so two sets of lines compare only on one kernel.

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
refinement passes (nan for a solver that does not count them).  A
fifth line prints the sum over every solve of its PSD block orders, the
dimensions of its matrix variables: how large the solved systems were,
such as how far ``sinr_system``'s channel spans shrank them.  A sixth
line prints the number of lockstep runs, the calls of ``ipm._solve_hsd``
that ``solve_batch`` makes, one per group of problems it stacks, and the
sum of their loop iterations, each run's largest ``iterations``: fewer
runs for the same solves means more of them shared a loop.  The last
line prints the number of records and trace rows of the runs
and one sha256 over the records, ``wall_time_s`` left out, and then the
trace rows: it also covers what no conic solve returns, such as the
Gaussian randomization picks and their least powers.  One more line
prints the same hash with each record's ``ipm_iterations`` also left
out: a change that moves work between solves, such as one that skips or
warm-starts other solves, but gives the same answers leaves it as it is.
To check the solver of another tree, run this tool with its ``src`` on
``PYTHONPATH``.
"""

import argparse
import ctypes
import glob
import hashlib
import math
import os

import numpy as np
import scipy

from cobeam import conic
from cobeam.conic import ipm
from cobeam.experiment import parse_scenario, run_sweep


# scipy-openblas, which numpy's and scipy's wheels bundle, in its ILP64
# (numpy) and LP64 (scipy) builds
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_",
                    "scipy_openblas_get_corename")


def blas_kernel(package):
    """OpenBLAS core name of the library bundled with ``package`` (in
    the wheel's ``<name>.libs`` folder), or ``unknown``."""
    for path in sorted(glob.glob(os.path.join(
            os.path.dirname(package.__file__), os.pardir,
            f"{package.__name__}.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return (corename() or b"unknown").decode()
    return "unknown"


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
    print(f"blas numpy {blas_kernel(np)} scipy {blas_kernel(scipy)}")
    digest, hashes, iterations, passes = hashlib.sha256(), [], 0, 0
    orders, runs, loops = 0, 0, 0
    results, answers = hashlib.sha256(), hashlib.sha256()
    nrecords, nrows = 0, 0

    def recorded(solve_batch):
        def wrapper(problems):
            nonlocal iterations, passes, orders
            sols = solve_batch(problems)
            orders += sum(var.dim for prob in problems
                          for var in prob.matrix_vars)
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

    def counted(solve_hsd):
        def wrapper(group):
            nonlocal runs, loops
            sols = solve_hsd(group)
            runs += 1
            loops += max(sol.iterations for sol in sols)
            return sols
        return wrapper

    originals = conic.solve_batch, ipm.solve_batch, ipm._solve_hsd
    conic.solve_batch, ipm.solve_batch = map(recorded, originals[:2])
    ipm._solve_hsd = counted(originals[2])
    try:
        for path in args.scenarios:
            config = parse_scenario(path)
            if args.trials is not None:
                config.trials = args.trials
            records, trace_rows = run_sweep(config)
            for h, dropped in ((results, {"wall_time_s"}), (answers, {
                    "wall_time_s", "ipm_iterations"})):
                feed(h, [{k: v for k, v in rec.items() if k not in dropped}
                         for rec in records])
                feed(h, trace_rows)
            nrecords += len(records)
            nrows += len(trace_rows)
    finally:
        conic.solve_batch, ipm.solve_batch, ipm._solve_hsd = originals
    print(f"solves {len(hashes)} sha256 {digest.hexdigest()}")
    print(f"solves {len(hashes)} order-free sha256 "
          f"{hashlib.sha256(''.join(sorted(hashes)).encode()).hexdigest()}")
    print(f"solves {len(hashes)} iterations {iterations}")
    print(f"solves {len(hashes)} refine passes {passes}")
    print(f"solves {len(hashes)} psd block orders {orders}")
    print(f"lockstep runs {runs} loop iterations {loops}")
    print(f"records {nrecords} trace rows {nrows} sha256 "
          f"{results.hexdigest()}")
    print(f"records {nrecords} trace rows {nrows} without ipm_iterations "
          f"sha256 {answers.hexdigest()}")


if __name__ == "__main__":
    main()
