"""What the traced run wraps, and the per-layer metrics its spans give.

Every wrapper sits on the attribute the calling module looks up, so a
function imported by name into several modules is wrapped in each of
them under one span name.
"""

import numpy as np

from cobeam import (backhaul, balancing, conic, distributed, experiment,
                    network, power_min)
from cobeam.conic import cones, ipm, problem

from tracing import ancestor_where, self_times


def _solve_hook(out, args):
    kkt = max(out.kkt.values()) if out.kkt else float("nan")
    return (out.status.value, out.iterations, kkt)


def _feasible_hook(out, args):
    return bool(out[0] if isinstance(out, tuple) else out)


def _found_hook(out, args):
    return out is not None


def _iterations_hook(out, args):
    return out.iterations


def _probes_hook(out, args):
    return out.calls + out.extra_calls


def _scalars_hook(out, args):
    # MessageBus.post(self, sender, receiver, tag, values)
    return len(args[4])


def plan():
    """(owner, attribute, span name, result hook) for every wrapper."""
    return [
        (conic, "solve", "conic.solve", _solve_hook),
        (ipm, "solve", "conic.solve", _solve_hook),
        (conic, "check_feasibility", "conic.check_feasibility",
         _feasible_hook),
        (ipm, "CompiledProblem", "conic.compile", None),
        (ipm, "NTScaling", "conic.nt_scaling", None),
        (cones.NTScaling, "scale_dual", "conic.scale_dual", None),
        (cones.NTScaling, "max_step", "conic.max_step", None),
        (cones.ConeLayout, "pack", "conic.pack", None),
        (cones, "svec", "conic.svec", None),
        (problem, "svec", "conic.svec", None),
        (cones, "smat", "conic.smat", None),
        (power_min, "solve_centralized", "power_min.centralized", None),
        (experiment, "solve_centralized", "power_min.centralized", None),
        (power_min, "assemble_qos_sdp", "power_min.assemble", None),
        (power_min, "candidate_power_lp", "power_min.gr_lp", _found_hook),
        (power_min, "gaussian_candidates", "power_min.candidates", None),
        (distributed, "gaussian_candidates", "power_min.candidates", None),
        (balancing, "gaussian_candidates", "power_min.candidates", None),
        (power_min, "randomize_from_covariances", "power_min.randomize",
         None),
        (experiment, "run_primal_decomposition", "distributed.pd",
         _iterations_hook),
        (experiment, "run_admm", "distributed.admm", _iterations_hook),
        (distributed, "assemble_subproblem",
         "distributed.subproblem_assemble", None),
        (distributed, "assemble_admm_local",
         "distributed.subproblem_assemble", None),
        (distributed, "extract_subgradient", "distributed.subgradient",
         None),
        (distributed, "master_update", "distributed.subgradient", None),
        (distributed, "admm_feasibility_restore", "distributed.restore",
         None),
        (distributed, "local_randomization_lp", "distributed.local_gr_lp",
         _found_hook),
        (experiment, "solve_nulling", "distributed.nulling", None),
        (experiment, "solve_orthogonal", "experiment.orthogonal", None),
        (balancing, "balance_centralized", "balancing.centralized", None),
        (balancing, "balance_distributed", "balancing.distributed", None),
        (balancing, "balance_uncoordinated", "balancing.uncoordinated",
         None),
        (balancing, "bisect_balance", "balancing.sdp_bisection", None),
        (balancing, "local_balance", "balancing.sdp_bisection", None),
        (balancing, "uncoordinated_balance", "balancing.sdp_bisection",
         None),
        (balancing, "balance_gaussian_randomization", "balancing.gr", None),
        (balancing, "local_balance_gr", "balancing.gr", None),
        (balancing, "bisect", "balancing.bisect", _probes_hook),
        (backhaul.MessageBus, "post", "backhaul.post", _scalars_hook),
        (backhaul.MessageBus, "deliver", "backhaul.deliver", None),
        (network, "sample_channels", "network.sample_channels", None),
        (experiment, "sample_channels", "network.sample_channels", None),
        (network, "evaluate_sinr", "network.evaluate_sinr", None),
        (distributed, "evaluate_sinr", "network.evaluate_sinr", None),
        (balancing, "evaluate_sinr", "network.evaluate_sinr", None),
        (experiment, "run_sweep", "experiment.run_sweep", None),
        (experiment, "emit_results", "experiment.emit", None),
    ]


def layer_metrics(tracer, trials, scale):
    """Per-layer metrics, each normalised per traced trial where it is
    a total; ``scale`` rescales each span's seconds to reference speed.
    Returns {name: (value, unit)}."""
    name, start, end, parent, _ = tracer.arrays()
    dur = (end - start) * scale
    own = self_times(start, end, parent) * scale
    ids = {n: i for i, n in enumerate(tracer.names)}
    attrs = tracer.attrs

    def mask(*names):
        m = np.zeros(len(name), dtype=bool)
        for n in names:
            if n in ids:
                m |= name == ids[n]
        return m

    def where(*names):
        return np.flatnonzero(mask(*names))

    def per_trial(value):
        return float(value) / trials

    def seconds(*names):
        return per_trial(dur[mask(*names)].sum())

    def calls(*names):
        return per_trial(mask(*names).sum())

    def values(idx):
        return [attrs.get(int(i)) for i in idx]

    def ok(vals):
        return [v for v in vals
                if v is not None and not (isinstance(v, tuple)
                                          and v[0] == "error")]

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def prefixed(prefix):
        flags = [n.startswith(prefix) for n in tracer.names]
        return np.array(flags, dtype=bool)[name]

    out = {}

    # conic layer
    solve = where("conic.solve")
    solved = ok(values(solve))
    is_conic = prefixed("conic.")
    iters = [v[1] for v in solved]
    kkts = [v[2] for v in solved if v[0] == "optimal"]
    feas = where("conic.check_feasibility")
    feas_vals = values(feas)
    out.update({
        "conic.solve.calls": (calls("conic.solve"), "count/trial"),
        "conic.solve.self_s": (per_trial(own[is_conic].sum()), "s/trial"),
        "conic.solve.p50_ms": (
            float(np.median(dur[solve])) * 1e3 if solve.size else 0.0, "ms"),
        "conic.compile.s": (seconds("conic.compile"), "s/trial"),
        "conic.compile.calls": (calls("conic.compile"), "count/trial"),
        "conic.nt_scaling.s": (seconds("conic.nt_scaling"), "s/trial"),
        "conic.scale_dual.calls": (calls("conic.scale_dual"), "count/trial"),
        "conic.scale_dual.s": (seconds("conic.scale_dual"), "s/trial"),
        "conic.max_step.s": (seconds("conic.max_step"), "s/trial"),
        "conic.pack.s": (seconds("conic.pack"), "s/trial"),
        "conic.svec.s": (seconds("conic.svec"), "s/trial"),
        "conic.smat.s": (seconds("conic.smat"), "s/trial"),
        "conic.ipm_rest.self_s": (per_trial(own[solve].sum()), "s/trial"),
        "conic.check_feasibility.calls": (calls("conic.check_feasibility"),
                                          "count/trial"),
        "conic.check_feasibility.s": (seconds("conic.check_feasibility"),
                                      "s/trial"),
        "conic.indeterminate.count": (per_trial(sum(
            1 for v in feas_vals if v == ("error", "IndeterminateError"))),
            "count/trial"),
        "conic.ipm_iters": (per_trial(sum(iters)), "count/trial"),
        "conic.iters_per_solve": (ratio(sum(iters), len(iters)), "count"),
        "conic.not_optimal_frac": (
            ratio(sum(1 for v in solved if v[0] != "optimal"), len(solved)),
            "ratio"),
        "conic.kkt_max": (float(max(kkts)) if kkts else 0.0, "residual"),
    })

    # power_min layer
    gr_lp = ok(values(where("power_min.gr_lp")))
    central = where("power_min.centralized")
    randomize = where("power_min.randomize")
    out.update({
        "power_min.assemble.s": (seconds("power_min.assemble"), "s/trial"),
        "power_min.gr_lp.calls": (calls("power_min.gr_lp"), "count/trial"),
        "power_min.gr_lp.s": (seconds("power_min.gr_lp"), "s/trial"),
        "power_min.gr_lp.feasible_ratio": (ratio(sum(gr_lp), len(gr_lp)),
                                           "ratio"),
        "power_min.candidates.s": (seconds("power_min.candidates"),
                                   "s/trial"),
        "power_min.randomize.s": (seconds("power_min.randomize"), "s/trial"),
        "power_min.gr_trial_frac": (ratio(
            np.isin(parent[randomize], central).sum(), central.size),
            "ratio"),
    })

    # distributed layer
    dist_iters = sum(ok(values(where("distributed.pd", "distributed.admm"))))
    loop_s = seconds("distributed.pd", "distributed.admm")
    host = ancestor_where(parent, solve, ~is_conic)
    out.update({
        "distributed.pd.s": (seconds("distributed.pd"), "s/trial"),
        "distributed.admm.s": (seconds("distributed.admm"), "s/trial"),
        "distributed.iterations": (per_trial(dist_iters), "count/trial"),
        "distributed.iter_ms": (
            ratio(loop_s * trials * 1e3, dist_iters), "ms"),
        "distributed.subproblem_assemble.s": (
            seconds("distributed.subproblem_assemble"), "s/trial"),
        "distributed.local_solve.calls": (per_trial(
            prefixed("distributed.")[host[host >= 0]].sum()), "count/trial"),
        "distributed.subgradient.s": (seconds("distributed.subgradient"),
                                      "s/trial"),
        "distributed.restore.s": (seconds("distributed.restore"), "s/trial"),
        "distributed.local_gr_lp.calls": (calls("distributed.local_gr_lp"),
                                          "count/trial"),
        "distributed.nulling.s": (seconds("distributed.nulling"), "s/trial"),
    })

    # balancing layer: a probe belongs to the SDP bisection or to the GR
    # scoring around it, whichever encloses it most closely
    scope = mask("balancing.sdp_bisection", "balancing.gr")
    sdp_id = ids.get("balancing.sdp_bisection", -1)

    def in_sdp(idx):
        host = ancestor_where(parent, idx, scope)
        inside = host >= 0
        return np.where(inside, name[np.maximum(host, 0)] == sdp_id, False), \
            inside

    bis = where("balancing.bisect")
    bis_sdp, _ = in_sdp(bis)
    probes_sdp = sum(v for v, s in zip(values(bis), bis_sdp)
                     if s and isinstance(v, int))
    polish = solve[np.isin(parent[solve], where("balancing.sdp_bisection"))]
    feas_sdp, feas_in = in_sdp(feas)
    sdp_feas = [v for v, s in zip(feas_vals, feas_sdp) if s]
    sdp_ok = [v for v in sdp_feas if isinstance(v, bool)]
    out.update({
        "balancing.bisect.probes": (per_trial(probes_sdp + polish.size),
                                    "count/trial"),
        "balancing.probe.s": (per_trial(dur[feas[feas_sdp]].sum()),
                              "s/trial"),
        "balancing.probe.feasible_ratio": (ratio(sum(sdp_ok), len(sdp_ok)),
                                           "ratio"),
        "balancing.polish.s": (per_trial(dur[polish].sum()), "s/trial"),
        "balancing.gr_probe.calls": (per_trial(
            (feas_in & ~feas_sdp).sum()), "count/trial"),
        "balancing.centralized.s": (seconds("balancing.centralized"),
                                    "s/trial"),
        "balancing.distributed.s": (seconds("balancing.distributed"),
                                    "s/trial"),
        "balancing.uncoordinated.s": (seconds("balancing.uncoordinated"),
                                      "s/trial"),
    })

    # backhaul, network and experiment layers
    out.update({
        "backhaul.rounds": (calls("backhaul.deliver"), "count/trial"),
        "backhaul.messages": (calls("backhaul.post"), "count/trial"),
        "backhaul.scalars": (per_trial(sum(ok(values(
            where("backhaul.post"))))), "count/trial"),
        "backhaul.post.s": (seconds("backhaul.post"), "s/trial"),
        "backhaul.deliver.s": (seconds("backhaul.deliver"), "s/trial"),
        "network.sample_channels.s": (seconds("network.sample_channels"),
                                      "s/trial"),
        "network.evaluate_sinr.calls": (calls("network.evaluate_sinr"),
                                        "count/trial"),
        "network.evaluate_sinr.s": (seconds("network.evaluate_sinr"),
                                    "s/trial"),
        "experiment.run_sweep.self_s": (per_trial(
            own[mask("experiment.run_sweep")].sum()), "s/trial"),
        "experiment.emit.s": (seconds("experiment.emit"), "s/trial"),
    })
    return out
