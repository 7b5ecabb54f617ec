"""cobeam benchmark: drives the public API on one workload and prints
every metric by name and unit, then one JSON result line.

    python3 perfbench/run.py --workload qos-sdp --seed 1 --seconds 20 \
        --trace 0

Run it from a checkout that holds ``src/cobeam``; nothing needs to be
installed.  ``--trace 0`` reports the end-to-end metrics, measured
untraced.  ``--trace 1`` runs half the trials untraced, replays them
with span wrappers installed and reports the per-layer metrics.  See
perfbench/README.md for the workloads and every metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("qos-sdp", "multicast-gr", "sweep", "balancing")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
CLOSURE_LIMIT = 0.05
TIME_CAP = 2.0          # a run stops after this many times --seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads():
    """One BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def import_cobeam():
    """Import cobeam from this checkout's sources; returns (start,
    seconds)."""
    if not (SRC / "cobeam" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cobeam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import cobeam
    elapsed = time.perf_counter() - start
    if Path(cobeam.__file__).resolve().parent != SRC / "cobeam":
        raise SystemExit(f"perfbench: imported cobeam from {cobeam.__file__}"
                         f", not from {SRC}")
    return start, elapsed


def environment(cores):
    import numpy
    import scipy
    commit = "unavailable"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cobeam").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"nproc": cores, "blas_threads": cores,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


# -- statistics -----------------------------------------------------------

def percentile(samples, p):
    """Linearly interpolated percentile of a non-empty sample."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond).  Below twenty samples
    no ladder step qualifies and the median is returned.
    """
    for p in TAIL_LADDER:
        value = percentile(samples, p)
        beyond = sum(1 for x in samples if x > value)
        if beyond >= TAIL_BEYOND:
            return p, value, beyond
    value = percentile(samples, 50.0)
    return 50.0, value, sum(1 for x in samples if x > value)


def mean(values):
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else float("nan")


# -- host speed -----------------------------------------------------------

class Speed:
    """Rescales wall time to a reference host speed.

    The same solver work took anywhere from one to two times as long
    within a minute on the shared 2-core host this benchmark was tuned
    on, while CPU time tracked wall time: the host ran slower, it did
    not deschedule the process.  So a fixed kernel of interpreter work
    and small LAPACK calls, independent of cobeam, is timed at every call
    boundary, while cobeam is idle; cobeam's own load never shares the
    cores with a probe.  A call's seconds are its wall time times
    ``REFERENCE_S`` over the mean kernel time of the probes within
    ``PAD_S`` of the call.
    """

    REFERENCE_S = 0.0005
    PAD_S = 0.5

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((24, 24))
        self.mat = mat @ mat.T + 24.0 * np.eye(24)
        self.rows, self.cols = np.triu_indices(24)
        self.samples = []        # (start, end, kernel seconds)
        self.mark()

    def _kernel(self):
        import scipy.linalg as sla
        acc = 0.0
        for _ in range(4):
            acc += float(sla.eigvalsh(self.mat)[0])
            acc += float(sla.cholesky(self.mat, lower=True)[3, 2])
            acc += float((self.mat[self.rows, self.cols] * 1.5).sum())
            acc += sum({j: j * 0.5 for j in range(40)}.values())
        return acc

    def mark(self):
        """Probe now: best of two kernel runs."""
        start = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            begin = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - begin)
        self.samples.append((start, time.perf_counter(), best))

    def factor(self, start, wall):
        """Reference seconds per wall second for a call of ``wall``
        seconds from ``start``, once the probe after it has run too."""
        lo, hi = start - self.PAD_S, start + wall + self.PAD_S
        rows = [r[2] for r in self.samples if r[0] >= lo and r[1] <= hi]
        return self.REFERENCE_S / (sum(rows) / len(rows))


# -- running trials -------------------------------------------------------

class Tally:
    """Outcomes, timed call seconds and failure kinds of one pass.

    ``call_s`` and ``latencies`` are at reference speed once ``rescale``
    has run; ``call_wall`` is unscaled."""

    def __init__(self):
        self.outcomes = []
        self.timed = []          # (start, wall, latency samples) per call
        self.latencies = []
        self.call_s = 0.0
        self.call_wall = 0.0
        self.completed = 0
        self.kinds = Counter()
        self.fingerprints = []
        self.trials = []         # trial indices in the order run

    def failed(self):
        return sum(1 for o in self.outcomes if o.problems)

    def rescale(self, speed):
        for start, wall, lat in self.timed:
            factor = speed.factor(start, wall)
            self.call_s += wall * factor
            self.latencies.extend(x * factor for x in lat)


def execute(wl, inp, label, call, probe):
    """One timed scheme call plus the program work that follows it,
    between two host-speed probes.  Returns (label, result or exception,
    wall seconds, start)."""
    probe()
    start = time.perf_counter()
    try:
        result = call()
    except Exception as err:  # a failed call is counted; the run goes on
        result = err
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - start
    if not isinstance(result, Exception):
        wl.post(inp, result)
    probe()
    return label, result, wall, start


def settle(wl, inp, ran, tally):
    """Checks and figures of finished calls, outside any timed region.
    ``ran`` holds the rows ``execute`` returns."""
    from workloads import Outcome, failure_kind
    for label, result, wall, start in ran:
        tally.call_wall += wall
        if isinstance(result, Exception):
            n = wl.trials_per_call
            kind = failure_kind(result)
            outs = [Outcome(problems=[(kind, str(result))])
                    for _ in range(n)]
            lat = [wall]
            tally.fingerprints.append(kind)
        else:
            outs = wl.outcomes(inp, label, result)
            lat = wl.latencies(result, wall)
            tally.completed += len(outs)
            tally.fingerprints.append(wl.fingerprint(result))
        tally.timed.append((start, wall, lat))
        for out in outs:
            for kind, message in out.problems:
                tally.kinds[kind] += 1
                print(f"problem [{kind}] {message}", file=sys.stderr)
        tally.outcomes.extend(outs)


def trial_count(wl, seconds):
    """Trials of a run: fixed by the workload and ``--seconds`` alone,
    so that every commit times the same inputs and the tail percentile
    never changes."""
    return max(1, round(seconds * wl.rate))


def measure(wl, seed, trials, seconds, speed):
    """Untraced trials 0 .. ``trials`` - 1.  A run stops early only when
    it has taken ``TIME_CAP`` times ``seconds`` of wall time."""
    tally = Tally()
    start = time.perf_counter()
    for k in range(trials):
        if time.perf_counter() - start > TIME_CAP * seconds:
            break
        inp = wl.inputs(seed, k)
        ran = [execute(wl, inp, label, call, speed.mark)
               for label, call in wl.calls(inp)]
        settle(wl, inp, ran, tally)
        tally.trials.append(k)
    tally.rescale(speed)
    return tally


def replay(wl, seed, trials, tracer, speed):
    """The same trials again, traced.  Each probe runs in a
    ``bench.probe`` span, so that no probe lands inside a cobeam span
    and the root span's own time is only the benchmark's glue."""

    def probe():
        with tracer.span("bench.probe"):
            speed.mark()

    tally = Tally()
    for k in trials:
        with tracer.trial_span(k):
            with tracer.span("bench.inputs"):
                inp = wl.inputs(seed, k)
            ran = [execute(wl, inp, label, call, probe)
                   for label, call in wl.calls(inp)]
        settle(wl, inp, ran, tally)
        tally.trials.append(k)
    tally.rescale(speed)
    return tally


def set_up(wl, seed, speed):
    """Warm-up repetitions alternating the seed and another seed.
    Returns the per-repetition seconds at reference speed and whether
    the determinism check held."""
    timed, prints = [], []
    for s in (seed, seed, seed + 1, seed, seed + 1):
        speed.mark()
        start = time.perf_counter()
        prints.append(wl.warmup(s))
        timed.append((start, time.perf_counter() - start))
        speed.mark()
    reps = [wall * speed.factor(start, wall) for start, wall in timed]
    same = prints[0] == prints[1] == prints[3] and prints[2] == prints[4]
    differs = prints[0] != prints[2]
    return reps, same, differs


# -- metrics --------------------------------------------------------------

def end_to_end(tally, setup_s):
    lat = tally.latencies
    p_tail, tail, beyond = tail_percentile(lat)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (tally.completed / tally.call_s, "1/s"),
        "trial_p50_s": (percentile(lat, 50.0), "s"),
        "trial_tail_s": (tail, "s"),
        "backhaul_scalars_per_trial": (
            mean(o.backhaul for o in tally.outcomes), "count"),
        "quality_ratio": (mean(o.quality for o in tally.outcomes), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {"trial_tail_percentile": p_tail, "trial_samples": len(lat),
             "trial_tail_beyond": beyond,
             "failed_frac": tally.failed() / len(tally.outcomes),
             "raw_trials_per_s": tally.completed / tally.call_wall}
    return metrics, notes


def per_layer(wl, seed, trials, seconds, speed):
    """Untraced pass over ``trials`` trials, then the same trials
    traced."""
    import numpy as np
    import layers
    from tracing import Patches, Tracer, unattributed_share
    plain = measure(wl, seed, trials, seconds, speed)
    tracer = Tracer()
    with Patches(tracer, layers.plan()) as patches:
        traced = replay(wl, seed, plain.trials, tracer, speed)
    restored = patches.restored()
    name, start, end, parent, trial = tracer.arrays()
    root = np.flatnonzero(name == tracer.name_id("bench.trial"))
    scale = np.zeros(max(plain.trials) + 1)
    for i in root:
        scale[trial[i]] = speed.factor(start[i], end[i] - start[i])
    n = len(traced.outcomes)
    metrics = layers.layer_metrics(tracer, n, scale[trial])
    closure = float(unattributed_share(start, end, parent, root).max())
    metrics.update({
        "trace.overhead_ratio": (traced.call_s / plain.call_s, "ratio"),
        "trace.untraced_trials_per_s": (plain.completed / plain.call_s,
                                        "1/s"),
        "trace.traced_trials_per_s": (traced.completed / traced.call_s,
                                      "1/s"),
        "trace.closure_err_max": (closure, "ratio"),
        "trace.spans": (len(start) / n, "count/trial"),
    })
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz")
    checks = {"wrappers_restored": restored,
              "traced_results_match": traced.fingerprints
              == plain.fingerprints,
              "closure_within_5pct": bool(closure <= CLOSURE_LIMIT)}
    return metrics, checks, (plain, traced)


def main(argv=None):
    args = parse_args(argv)
    cores = cap_blas_threads()
    import_start, import_wall = import_cobeam()
    speed = Speed()
    speed.mark()
    speed.mark()
    import_s = import_wall * speed.factor(import_start, import_wall)
    import workloads
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT)
    env = environment(cores)

    reps, same, differs = set_up(wl, args.seed, speed)
    setup_s = import_s + statistics.median(reps)
    checks = {"same_seed_identical": same, "other_seed_differs": differs}
    notes = {"import_s": import_s, "warmup_reps_s": reps}
    trials = trial_count(wl, args.seconds)
    if args.trace:
        # half the trials untraced, then the same half traced
        trials = max(1, trials // 2)
        metrics, trace_checks, tallies = per_layer(
            wl, args.seed, trials, args.seconds / 2.0, speed)
        checks.update(trace_checks)
    else:
        tally = measure(wl, args.seed, trials, args.seconds, speed)
        metrics, more = end_to_end(tally, setup_s)
        notes.update(more)
        tallies = (tally,)
    notes["trials_planned"] = trials
    notes["trials_run"] = len(tallies[0].trials)
    attempted = sum(len(t.outcomes) for t in tallies)
    failed = sum(t.failed() for t in tallies)
    kinds = Counter()
    for t in tallies:
        kinds.update(t.kinds)
    correct = failed == 0 and all(checks.values())

    print(f"perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"workload why: {wl.why}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"setup import={import_s:.4f}s warm-up reps="
          + ",".join(f"{r:.4f}" for r in reps) + "s")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"trials run {notes['trials_run']} of {trials}"
          + ("" if notes["trials_run"] == trials else
             f" (stopped at {TIME_CAP:g} x --seconds)"))
    print(f"failures {failed}/{attempted} by kind: {dict(kinds) or '{}'}")
    if wl.name == "sweep":
        print("note: run_sweep records InfeasibleTargetsError, "
              "RandomizationFailureError and IndeterminateError all as "
              "feasible=False, so their kinds are not visible on sweep")
    if not args.trace:
        print(f"metric failed_frac = {notes['failed_frac']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"unscaled wall time: trials_per_s = "
              f"{notes['raw_trials_per_s']:.6g} 1/s, host speed "
              f"{Speed.REFERENCE_S / speed.samples[-1][2]:.3g}x "
              "reference at the end")
        print(f"trial_tail_s is p{notes['trial_tail_percentile']:g} of "
              f"{notes['trial_samples']} samples "
              f"({notes['trial_tail_beyond']} beyond it)")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=wl.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  checks=checks, failure_kinds=dict(kinds), notes=notes,
                  wall_s=time.perf_counter() - T_START)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
