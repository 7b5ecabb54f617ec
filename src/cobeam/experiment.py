"""Scenario-driven Monte Carlo experiment runner.

Scenarios are JSON files; dB quantities are converted to linear scale
here and nowhere else.  Each scheme's runner names its solver calls,
one per ICI cap or one for a scheme without caps, and every call of a
(sweep point, trial) becomes one flat record; distributed runs also
produce per-iteration trace rows.  :meth:`_SweepPoint.run` times each
call on its own and records a failed one, never silently dropping it.
All trials and schemes of a sweep point run side by side as solve
generators (:mod:`.conic.schedule`), so their solves share batches.
"""

import csv
import functools
import inspect
import json
import math
import re
import time
from collections import Counter

import numpy as np

from . import conic
from .balancing import (BalanceOutcome, balance_centralized,
                        balance_distributed, balance_uncoordinated)
from .distributed import (ConvergenceTrace, run_admm,
                          run_primal_decomposition, solve_fixed_ici,
                          solve_nulling, solve_orthogonal)
from .errors import (ConfigurationError, IndeterminateError,
                     InfeasibleTargetsError, RandomizationFailureError)
from .network import build_topology, sample_channels
from .power_min import solve_centralized

# a scenario file's "topology" fields; the other parameters are top-level
_TOPOLOGY = ("B", "G", "U", "A")

RECORD_COLUMNS = [
    "trial", "seed", "scheme", "B", "G", "U", "A", "gamma_db", "d_db",
    "sigma2", "p_max", "theta_cap", "objective", "objective_kind",
    "sdr_bound", "feasible", "used_randomization", "all_rank_one",
    "avg_rank", "iterations", "scalars_exchanged", "wall_time_s",
    "ipm_iterations", "failure_kind",
]

TRACE_COLUMNS = ["scheme", "trial", "gamma_db", "d_db", "p_max",
                 "iteration", "sum_power", "residual", "scalars_exchanged"]

# the failures a sweep records instead of raising
_FAILURES = (InfeasibleTargetsError, RandomizationFailureError,
             IndeterminateError)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def _number(name, value, kind=float):
    """``value`` as a finite ``kind`` (int or float), which it must equal;
    a boolean is no number, though True == 1."""
    try:
        out = math.nan if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not (math.isfinite(out) and out == value):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return out


class ScenarioConfig:
    """Validated experiment description."""

    def __init__(self, B, G, U, A, schemes, gamma_db=1.0, d_db=1.0,
                 sigma2=1.0, p_max=10.0, iters=100, trials=20, seed=1,
                 step_size=0.3, rho=2.0, epsilon=1e-3, gr_budget=100,
                 theta_grid=(0.01, 0.1, 1.0), theta_fixed=0.1):
        self.B, self.G, self.U, self.A = (_number(name, val, int) for name, val
                                          in zip(_TOPOLOGY, (B, G, U, A)))
        if not isinstance(schemes, (list, tuple)) or not schemes:
            raise ConfigurationError("schemes must be a non-empty list")
        for name in schemes:
            if not isinstance(name, str) or name not in SCHEMES:
                raise ConfigurationError(
                    f"unknown scheme {name!r}; valid: {', '.join(SCHEMES)}")
            if schemes.count(name) > 1:
                raise ConfigurationError(f"scheme {name!r} is listed twice")
        self.schemes = list(schemes)
        if "common-theta" in self.schemes and self.B > 2:
            raise ConfigurationError("common-theta needs B = 2")
        self.gamma_db = expand_sweep(gamma_db, "gamma_db")
        self.d_db = expand_sweep(d_db, "d_db")
        self.p_max = expand_sweep(p_max, "p_max")
        self.sigma2 = _number("sigma2", sigma2)
        self.iters = _number("iters", iters, int)
        self.trials = _number("trials", trials, int)
        self.seed = _number("seed", seed, int)
        self.step_size = _number("step_size", step_size)
        self.rho = _number("rho", rho)
        self.epsilon = _number("epsilon", epsilon)
        self.gr_budget = _number("gr_budget", gr_budget, int)
        self.theta_grid = expand_sweep(theta_grid, "theta_grid")
        self.theta_fixed = _number("theta_fixed", theta_fixed)
        for name, caps in (("theta_grid", self.theta_grid),
                           ("theta_fixed", [self.theta_fixed])):
            if any(v < 0 for v in caps):
                raise ConfigurationError(
                    f"{name} must be >= 0 (ICI caps in watts)")
        for name, vals in (("sigma2", [self.sigma2]), ("p_max", self.p_max),
                           ("rho", [self.rho]), ("epsilon", [self.epsilon]),
                           ("step_size", [self.step_size])):
            if any(v <= 0 for v in vals):
                raise ConfigurationError(f"{name} must be positive")
        if self.trials < 1 or self.iters < 1 or self.gr_budget < 0:
            raise ConfigurationError("trials, iters must be >= 1 and "
                                     "gr_budget >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if any(v < 0 for v in self.d_db):
            raise ConfigurationError("d_db must be >= 0 (d >= 1 linear)")


def expand_sweep(value, name):
    """Scalars, lists, or 'start:step:stop' strings (inclusive stop)."""
    if isinstance(value, str):
        number = r"\s*(-?(?:\d+\.?\d*|\.\d+))\s*"
        match = re.fullmatch(rf"{number}:{number}:{number}(dB)?\s*", value)
        if not match:
            raise ConfigurationError(
                f"{name}: cannot parse sweep {value!r}; expected "
                "'start:step:stop'")
        start, step, stop = (float(match.group(i)) for i in (1, 2, 3))
        if step <= 0 or stop < start:
            raise ConfigurationError(f"{name}: bad sweep range {value!r}")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(round(v, 12))
            v += step
        return out
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigurationError(f"{name}: empty sweep list")
        return [_number(name, v) for v in value]
    return [_number(name, value)]


def parse_scenario(path):
    """Read and validate a scenario file, reporting lines on errors."""
    with open(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"{path}: line {err.lineno}: invalid JSON ({err.msg})") from err

    def where(key):
        """Message prefix naming the line of ``key``'s first mention."""
        match = re.search(rf'"{re.escape(key)}"', text)
        if match is None:
            return ""
        line = text.count("\n", 0, match.start()) + 1
        return f"line {line}: "

    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    topo = raw.get("topology")
    if not isinstance(topo, dict):
        raise ConfigurationError(f"{path}: missing 'topology' object")
    for field in _TOPOLOGY:
        if field not in topo:
            raise ConfigurationError(f"{path}: {where('topology')}topology "
                                     f"is missing field {field!r}")
    for key in topo:
        if key not in _TOPOLOGY:
            raise ConfigurationError(
                f"{path}: {where(key)}unknown topology field {key!r}")
    if "schemes" not in raw:
        raise ConfigurationError(f"{path}: missing 'schemes' list")
    known = {"topology", *inspect.signature(ScenarioConfig).parameters}
    known.difference_update(_TOPOLOGY)
    for key in raw:
        if key not in known:
            raise ConfigurationError(
                f"{path}: {where(key)}unknown field {key!r}")
    kwargs = {k: v for k, v in raw.items() if k != "topology"}
    try:
        return ScenarioConfig(**topo, **kwargs)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err


def run_sweep(config):
    """Execute the whole scenario; returns (records, trace_rows).

    Channel draws depend only on (master seed, trial), so a given trial
    sees the same fading across all sweep values; randomization streams
    are keyed by (sweep point, trial, scheme) and never collide.  The
    runs of one sweep point go to one :func:`conic.drive`.
    """
    records = []
    trace_rows = []
    for gi, gamma_db in enumerate(config.gamma_db):
        for di, d_db in enumerate(config.d_db):
            for pi, p_max in enumerate(config.p_max):
                points = [_SweepPoint(config, gamma_db, d_db, p_max, trial,
                                      point_key=(gi, di, pi))
                          for trial in range(config.trials)]
                for recs, traces in conic.drive(
                        point.run(k, scheme) for point in points
                        for k, scheme in enumerate(config.schemes)):
                    records.extend(recs)
                    trace_rows.extend(traces)
    # a scheme's caps are all None or all numbers, so the keys compare
    records.sort(key=lambda r: (r["gamma_db"], r["d_db"], r["p_max"],
                                r["trial"], r["scheme"], r["theta_cap"]))
    return records, trace_rows


class _SweepPoint:
    def __init__(self, config, gamma_db, d_db, p_max, trial, point_key):
        self.config = config
        self.gamma_db = gamma_db
        self.d_db = d_db
        self.p_max = p_max
        self.trial = trial
        self.point_key = point_key
        gamma = float(db_to_linear(gamma_db))
        self.topology = build_topology(
            B=config.B, G=config.G, U=config.U, A=config.A, gamma=gamma,
            sigma2=config.sigma2, p_max=p_max,
            cell_separation=float(db_to_linear(d_db)))
        chan_seq = np.random.SeedSequence(entropy=config.seed,
                                          spawn_key=(trial,))
        self.channels = sample_channels(
            self.topology, np.random.default_rng(chan_seq))

    def _scheme_rng(self, scheme_index):
        seq = np.random.SeedSequence(
            entropy=self.config.seed,
            spawn_key=(*self.point_key, self.trial, 1 + scheme_index))
        return np.random.default_rng(seq)

    def run(self, k, scheme):
        """Solve generator of scheme ``k``'s (records, trace rows).  Its
        runner's solver calls run one after the other, each timed on its
        own: a record's ``wall_time_s`` is the time of its call's steps
        plus the ``time_s`` of the solutions they were sent, and its
        ``ipm_iterations`` are those solutions' iterations.  This is the
        one place that catches :data:`_FAILURES`."""
        records, traces = [], []
        for cap, steps in _RUNNERS[scheme](self, self.config,
                                           self._scheme_rng(k)):
            sent, seconds, iterations = None, 0.0, 0
            while True:
                start = time.perf_counter()
                try:
                    problems = steps.send(sent)
                except StopIteration as stop:
                    outcome = stop.value
                    break
                except _FAILURES as err:
                    outcome = err
                    break
                finally:
                    seconds += time.perf_counter() - start
                sent = yield problems
                seconds += sum(sol.time_s for sol in sent)
                iterations += sum(sol.iterations for sol in sent)
            rec, rows = self._record(scheme, cap, outcome)
            rec["wall_time_s"], rec["ipm_iterations"] = seconds, iterations
            records.append(rec)
            traces.extend(rows)
        return records, traces

    def solving(self, solver, rng, *args, **kwargs):
        """Solve generator of a scheme's ``solver`` on this trial's draw."""
        return conic.solving(solver, self.channels, self.topology, *args,
                             gr_count=self.config.gr_budget, rng=rng,
                             **kwargs)

    def _record(self, scheme, cap, outcome):
        """Record and trace rows of a solver call of ``scheme`` at
        ``cap``, whose ``outcome`` is the :class:`BeamformingSolution`,
        :class:`ConvergenceTrace` or :class:`BalanceOutcome` it returned
        or the error of :data:`_FAILURES` it raised."""
        rec = dict.fromkeys(RECORD_COLUMNS)
        rec.update({
            "trial": self.trial, "seed": self.config.seed,
            "scheme": scheme,
            "B": self.topology.B, "G": self.topology.G,
            "U": self.topology.U, "A": self.topology.A,
            "gamma_db": self.gamma_db, "d_db": self.d_db,
            "sigma2": self.config.sigma2, "p_max": self.p_max,
            "theta_cap": cap, "feasible": True, "failure_kind": "",
        })
        if isinstance(outcome, _FAILURES):
            rec.update(feasible=False, failure_kind=type(outcome).__name__)
            return rec, []
        sol = getattr(outcome, "solution", outcome)
        all_one = bool((sol.sdr_rank == 1).all())
        rec.update(objective=sol.objective, objective_kind="sum_power_w",
                   sdr_bound=sol.sdr_objective,
                   used_randomization=sol.used_randomization,
                   all_rank_one=all_one, avg_rank=None if all_one
                   else sum(sol.sdr_rank.tolist()) / self.topology.G)
        if isinstance(outcome, BalanceOutcome):
            rec.update(objective=outcome.achieved,
                       objective_kind="min_sinr_linear",
                       sdr_bound=outcome.t_relaxed)
        elif isinstance(outcome, ConvergenceTrace):
            rec.update(sdr_bound=outcome.best_power,
                       iterations=outcome.iterations,
                       scalars_exchanged=outcome.log.total_scalars())
            return rec, [{"scheme": scheme, "trial": self.trial,
                          "gamma_db": self.gamma_db, "d_db": self.d_db,
                          "p_max": self.p_max, **row}
                         for row in outcome.rows]
        return rec, []


# scheme registry: every runner returns its solver calls as (cap, solve
# generator) pairs, one with cap None for a scheme without caps, and
# looks its solver up among this module's globals when it is called


def _centralized(pt, cfg, rng):
    return [(None, pt.solving(solve_centralized, rng))]


def _primal_decomposition(pt, cfg, rng, common_theta=False):
    return [(None, pt.solving(run_primal_decomposition, rng,
                              max_iters=cfg.iters, step=cfg.step_size,
                              common_theta=common_theta))]


def _admm(pt, cfg, rng):
    return [(None, pt.solving(run_admm, rng, max_iters=cfg.iters,
                              rho=cfg.rho))]


def _nulling(pt, cfg, rng):
    return [(None, pt.solving(solve_nulling, rng))]


def _fixed_theta(pt, cfg, rng):
    return [(cfg.theta_fixed,
             pt.solving(solve_fixed_ici, rng, cfg.theta_fixed))]


def _orthogonal(pt, cfg, rng):
    return [(None, pt.solving(solve_orthogonal, rng))]


def _balance_centralized(pt, cfg, rng):
    return [(None, pt.solving(balance_centralized, rng,
                              epsilon=cfg.epsilon))]


def _balance_distributed(pt, cfg, rng):
    return [(cap, pt.solving(balance_distributed, rng, cap,
                             epsilon=cfg.epsilon))
            for cap in cfg.theta_grid]


def _balance_uncoordinated(pt, cfg, rng):
    return [(None, pt.solving(balance_uncoordinated, rng,
                              epsilon=cfg.epsilon))]


_RUNNERS = {
    "centralized": _centralized,
    "primal-decomp": _primal_decomposition,
    "admm": _admm,
    "nulling": _nulling,
    "fixed-theta": _fixed_theta,
    "common-theta": functools.partial(_primal_decomposition,
                                      common_theta=True),
    "orthogonal": _orthogonal,
    "balance-centralized": _balance_centralized,
    "balance-distributed": _balance_distributed,
    "balance-uncoordinated": _balance_uncoordinated,
}
SCHEMES = tuple(_RUNNERS)


def emit_results(records, path, format="csv", columns=RECORD_COLUMNS):
    """Write records with a stable column order.

    CSV prints floats at 9 significant digits with blanks for missing
    values; JSON keeps native types so a load round-trips exactly.
    """
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in records:
                writer.writerow([_fmt(rec.get(col)) for col in columns])
    elif format == "json":
        with open(path, "w") as fh:
            json.dump([{col: rec.get(col) for col in columns}
                       for rec in records], fh, indent=1)
            fh.write("\n")
    else:
        raise ConfigurationError(f"unknown output format {format!r}")
    return path


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.9g}"
    return value


def emit_traces(trace_rows, path):
    return emit_results(trace_rows, path, format="csv",
                        columns=TRACE_COLUMNS)


def summarize(records):
    """Per (scheme, sweep point) means with explicit exclusion counts.

    Failed trials are excluded from the mean and counted by kind:
    infeasible targets, solver stalls (indeterminate) and randomization
    that found no feasible candidate.
    """
    groups = {}
    for rec in records:
        key = (rec["scheme"], rec["gamma_db"], rec["d_db"], rec["p_max"],
               rec["theta_cap"])
        groups.setdefault(key, []).append(rec)
    rows = []
    for key in sorted(groups):  # caps compare as in run_sweep
        recs = groups[key]
        values = [r["objective"] for r in recs if r["feasible"]]
        kinds = Counter(r["failure_kind"] for r in recs
                        if not r["feasible"])
        rows.append({
            "scheme": key[0], "gamma_db": key[1], "d_db": key[2],
            "p_max": key[3], "theta_cap": key[4],
            "mean_objective": float(np.mean(values)) if values else None,
            "trials": len(recs),
            "infeasible_excluded": kinds["InfeasibleTargetsError"],
            "indeterminate_excluded": kinds["IndeterminateError"],
            "randomization_excluded": kinds["RandomizationFailureError"],
        })
    return rows
