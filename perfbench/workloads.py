"""The benchmark workloads.

Each workload makes the inputs of trial ``k`` from the workload seed,
lists the scheme calls of that trial, and turns each call's result into
per-trial outcomes carrying the solver-independent checks.  Inputs go
through ``cobeam.network`` attributes so the traced run sees them.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from cobeam import backhaul, balancing, experiment, network, power_min
from cobeam.errors import (IndeterminateError, InfeasibleTargetsError,
                           RandomizationFailureError)

SINR_SLACK = 1e-6        # evaluate_sinr >= gamma * (1 - SINR_SLACK)
BOUND_SLACK = 1e-7       # objective >= SDR bound * (1 - BOUND_SLACK)
POWER_SLACK = 1e-7       # per-BS power <= p_max * (1 + POWER_SLACK)
KNOWN_ERRORS = (InfeasibleTargetsError, RandomizationFailureError,
                IndeterminateError)


@dataclass
class Outcome:
    """One trial: the problems found and its figures."""

    problems: list = field(default_factory=list)   # (kind, message)
    quality: float = None
    backhaul: float = None


def failure_kind(err):
    """Failure class of an exception raised by a scheme call."""
    if isinstance(err, KNOWN_ERRORS):
        return type(err).__name__
    return f"other:{type(err).__name__}"


def db(value):
    return 10.0 ** (value / 10.0)


def trial_streams(seed, k, count):
    """``count`` independent seed sequences for trial ``k``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(k,)).spawn(count)


def draw(topology, seq):
    return network.sample_channels(topology, np.random.default_rng(seq))


class Workload:
    """Defaults for workloads whose calls each make one trial."""

    name = why = ""
    trials_per_call = 1
    rate = None              # trial indices per second of --seconds

    def post(self, inp, result):
        """Program work that follows a call outside its timed region."""

    def latencies(self, result, wall):
        """Latency samples of one call: the call itself."""
        return [wall]

    def warmup(self, seed):
        """Set-up work: trial 0's inputs and its first call.  Returns the
        fingerprint the determinism check compares."""
        inp = self.inputs(seed, 0)
        label, call = self.calls(inp)[0]
        result = call()
        self.post(inp, result)
        return self.fingerprint(result)


class CentralizedPowerMin(Workload):
    """``solve_centralized`` on one channel draw per trial."""

    def __init__(self, name, why, rate, B, G, U, A, gamma_db, d_db,
                 gr_count):
        self.name, self.why, self.rate = name, why, rate
        self.shape = dict(B=B, G=G, U=U, A=A)
        self.gamma_db = gamma_db
        self.d_db = d_db
        self.gr_count = gr_count

    def inputs(self, seed, k):
        chan_seq, gr_seq = trial_streams(seed, k, 2)
        topology = network.build_topology(
            **self.shape, gamma=db(self.gamma_db[k % len(self.gamma_db)]),
            cell_separation=db(self.d_db))
        return {"topology": topology, "channels": draw(topology, chan_seq),
                "rng": np.random.default_rng(gr_seq)}

    def calls(self, inp):
        return [("centralized", lambda: power_min.solve_centralized(
            inp["channels"], inp["topology"], gr_count=self.gr_count,
            rng=inp["rng"]))]

    def outcomes(self, inp, label, sol):
        topo, chans = inp["topology"], inp["channels"]
        out = Outcome(quality=sol.objective / sol.sdr_objective,
                      backhaul=backhaul.centralized_signaling_load(
                          topo.B, topo.U, topo.A))
        out.problems = power_min_problems(chans, topo, sol)
        return [out]

    def fingerprint(self, sol):
        return (sol.objective, sol.sdr_objective, sol.used_randomization)


def power_min_problems(chans, topo, sol):
    """SINR targets met, objective equal to the beams' sum power, and
    never below the relaxation bound."""
    problems = []
    for u in range(topo.U):
        sinr = network.evaluate_sinr(chans, sol, u, topo)
        if not sinr >= topo.gamma[u] * (1.0 - SINR_SLACK):
            problems.append(("check", f"user {u}: SINR {sinr:.9g} below "
                                      f"target {topo.gamma[u]:.9g}"))
    total = network.sum_power(sol)
    if not abs(sol.objective - total) <= 1e-9 * max(1.0, abs(total)):
        problems.append(("check", f"objective {sol.objective!r} differs "
                                  f"from sum_power {total!r}"))
    if not sol.objective >= sol.sdr_objective * (1.0 - BOUND_SLACK):
        problems.append(("check", f"objective {sol.objective!r} below the "
                                  f"SDR bound {sol.sdr_objective!r}"))
    return problems


class Sweep(Workload):
    """One ``run_sweep`` per call over a generated power-min scenario:
    two Monte Carlo trials at one cell separation.  Each record is one
    trial of the benchmark; latency samples are per sweep point."""

    schemes = ("centralized", "primal-decomp", "admm", "nulling",
               "orthogonal")
    d_db = 1.0                   # one cell separation: see README
    trials = 2                   # Monte Carlo trials per run_sweep call
    iters = 5                    # outer iterations of PD and ADMM
    trials_per_call = len(schemes) * trials
    rate = 1.0
    # schemes whose achieved power is bounded below by the centralized SDR
    # (orthogonal access serves a different, time-shared system)
    bounded = ("centralized", "primal-decomp", "admm", "nulling")

    def __init__(self, name, why, out_dir):
        self.name, self.why = name, why
        self.out_dir = out_dir

    def config(self, seed, k, iters):
        chunk_seed = int(trial_streams(seed, k, 1)[0].generate_state(1)[0])
        return experiment.ScenarioConfig(
            B=2, G=2, U=4, A=6, schemes=list(self.schemes), gamma_db=1.0,
            d_db=self.d_db, iters=iters,
            trials=self.trials, seed=chunk_seed)

    def inputs(self, seed, k, iters=None):
        return {"config": self.config(seed, k, iters or self.iters),
                "csv": str(self.out_dir / f"{self.name}-records.csv")}

    def warmup(self, seed):
        # the same scenario with two iterations runs every scheme's code
        # once; the full count would make set-up longer than the trials
        inp = self.inputs(seed, 0, iters=2)
        records, _ = experiment.run_sweep(inp["config"])
        return self.fingerprint((records, None))

    def latencies(self, result, wall):
        """One sample per sweep point: its five scheme calls together."""
        points = {}
        for rec in result[0]:
            key = (rec["d_db"], rec["trial"])
            points[key] = points.get(key, 0.0) + rec["wall_time_s"]
        return list(points.values())

    def calls(self, inp):
        return [("run_sweep", lambda: experiment.run_sweep(inp["config"]))]

    def post(self, inp, result):
        experiment.emit_results(result[0], inp["csv"], format="csv")

    def outcomes(self, inp, label, result):
        records = result[0]
        cfg = inp["config"]
        per_iter = backhaul.periter_signaling_load(cfg.B, cfg.U)
        bound = {(r["d_db"], r["trial"]): r["sdr_bound"] for r in records
                 if r["scheme"] == "centralized" and r["feasible"]}
        shared = csv_problems(inp["csv"], records)
        if len(records) != self.trials_per_call:
            shared.append(("check", f"{len(records)} records, expected "
                                    f"{self.trials_per_call}"))
        outs = []
        for rec in records:
            out = Outcome(problems=list(shared))
            outs.append(out)
            if not rec["feasible"]:
                out.problems.append((
                    "flattened", f"{rec['scheme']} at d={rec['d_db']} dB "
                    "recorded feasible=False (run_sweep does not say which "
                    "error)"))
                continue
            sdr = bound.get((rec["d_db"], rec["trial"]))
            if rec["scheme"] in self.bounded and sdr is not None:
                out.quality = rec["objective"] / sdr
                if not rec["objective"] >= sdr * (1.0 - BOUND_SLACK):
                    out.problems.append((
                        "check", f"{rec['scheme']} objective "
                        f"{rec['objective']!r} below the SDR bound {sdr!r}"))
            if rec["scalars_exchanged"] is not None:
                out.backhaul = rec["scalars_exchanged"]
                want = rec["iterations"] * per_iter + cfg.B
                if not rec["used_randomization"] \
                        and rec["scalars_exchanged"] != want:
                    out.problems.append((
                        "check", f"{rec['scheme']} exchanged "
                        f"{rec['scalars_exchanged']} scalars, expected "
                        f"{want}"))
        return outs

    def fingerprint(self, result):
        return tuple((r["scheme"], r["d_db"], r["objective"],
                      r["scalars_exchanged"]) for r in result[0])


def csv_problems(path, records):
    """The emitted CSV holds every record with its objective."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(records):
        return [("check", f"CSV has {len(rows)} rows for {len(records)} "
                          "records")]
    for row, rec in zip(rows, records):
        if rec["objective"] is None:
            continue
        got = float(row["objective"])
        if abs(got - rec["objective"]) > 1e-8 * abs(rec["objective"]):
            return [("check", f"CSV objective {got!r} differs from the "
                              f"record's {rec['objective']!r}")]
    return []


class Balancing(Workload):
    """The three balancing pipelines, five calls per trial.  Each call
    gets its own channel draw, alternating the cell separation, so a
    run's latencies come from many draws rather than a few."""

    caps = (0.01, 0.1, 1.0)
    rate = 0.4
    d_db = (0.0, 10.0)
    epsilon = 1e-2

    def __init__(self, name, why):
        self.name, self.why = name, why

    def labels(self):
        return (["centralized"] + [f"distributed-{c:g}" for c in self.caps]
                + ["uncoordinated"])

    def inputs(self, seed, k):
        labels = self.labels()
        streams = trial_streams(seed, k, 2 * len(labels))
        inp = {}
        for j, label in enumerate(labels):
            topology = network.build_topology(
                B=2, G=2, U=2, A=6, gamma=1.0, p_max=10.0,
                cell_separation=db(self.d_db[(k + j) % len(self.d_db)]))
            inp[label] = (topology, draw(topology, streams[2 * j]),
                          np.random.default_rng(streams[2 * j + 1]))
        return inp

    def calls(self, inp):
        eps = self.epsilon

        def centralized(topo, chans, rng):
            return balancing.balance_centralized(chans, topo, epsilon=eps,
                                                 rng=rng)

        def distributed(cap):
            return lambda topo, chans, rng: balancing.balance_distributed(
                chans, topo, cap, epsilon=eps, rng=rng)

        def uncoordinated(topo, chans, rng):
            return balancing.balance_uncoordinated(chans, topo, epsilon=eps,
                                                   rng=rng)

        fns = [centralized] + [distributed(c) for c in self.caps] \
            + [uncoordinated]
        return [(label, lambda fn=fn, args=inp[label]: fn(*args))
                for label, fn in zip(self.labels(), fns)]

    def outcomes(self, inp, label, outcome):
        topo, chans, _ = inp[label]
        load = backhaul.centralized_signaling_load(topo.B, topo.U, topo.A) \
            if label == "centralized" else 0
        out = Outcome(backhaul=load)
        # the blind baseline's level belongs to an interference-free
        # problem, so its ratio measures the channel, not the answer
        if label != "uncoordinated":
            out.quality = outcome.t_relaxed / outcome.achieved
        again = balancing.achieved_min_sinr(chans, outcome.solution, topo)
        if again != outcome.achieved:
            out.problems.append(("check", f"{label}: achieved "
                                          f"{outcome.achieved!r}, recomputed "
                                          f"{again!r}"))
        for b in range(topo.B):
            power = sum(float(np.linalg.norm(outcome.solution.w[g]) ** 2)
                        for g in topo.groups_of_bs(b))
            if not power <= topo.p_max[b] * (1.0 + POWER_SLACK):
                out.problems.append(("check", f"{label}: BS {b} transmits "
                                              f"{power!r} > p_max "
                                              f"{topo.p_max[b]!r}"))
        return [out]

    def fingerprint(self, outcome):
        return (outcome.t_relaxed, outcome.achieved)


WHY = {
    "qos-sdp": "one mid-size QoS SDP per trial, almost always rank one: "
               "the cone kernel (svec/smat, NT scaling, Schur rows, "
               "max_step) dominates; 100 calls a run, tail p90",
    "multicast-gr": "relaxation almost never tight, so 100 tiny power LPs per "
                    "trial dominate: per-solve overhead and GR batching show "
                    "here; 40 calls a run, tail p75",
    "sweep": "run_sweep over five schemes: PD and ADMM loops, small per-"
             "BS solves, the QP IPM and the backhaul bus; 40 sweep "
             "points a run, tail p75",
    "balancing": "bisection over feasibility probes, a third or more "
                 "infeasible: the HSD infeasibility/Farkas path and the "
                 "balancing pipelines; 40 calls a run, tail p75",
}


def make(name, out_dir):
    if name == "qos-sdp":
        return CentralizedPowerMin(name, WHY[name], rate=5.0, B=2, G=6,
                                   U=12, A=12, gamma_db=(0.0, 1.0, 3.0),
                                   d_db=1.0, gr_count=100)
    if name == "multicast-gr":
        return CentralizedPowerMin(name, WHY[name], rate=2.0, B=2, G=2,
                                   U=20, A=8, gamma_db=(1.0,), d_db=6.0,
                                   gr_count=100)
    if name == "sweep":
        return Sweep(name, WHY[name], out_dir)
    if name == "balancing":
        return Balancing(name, WHY[name])
    raise KeyError(name)
