"""Scenario parsing, sweep mechanics, result emission, CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from cobeam import conic, experiment
from cobeam.cli import main
from cobeam.conic import ipm
from cobeam.errors import (ConfigurationError, IndeterminateError,
                           InfeasibleTargetsError, StateError)
from cobeam.experiment import (RECORD_COLUMNS, SCHEMES, ScenarioConfig,
                               emit_results, emit_traces, expand_sweep,
                               parse_scenario, run_sweep, solve_orthogonal,
                               summarize)
from cobeam.network import (build_topology, orthogonal_equivalent_target,
                            sample_channels)
from cobeam.balancing import (balance_centralized, balance_distributed,
                              balance_uncoordinated)
from cobeam.distributed import (run_admm, run_primal_decomposition,
                                solve_fixed_ici, solve_nulling)
from cobeam.power_min import solve_centralized

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# the record columns that hold a solver call's answer
PINNED = ("objective", "objective_kind", "sdr_bound", "theta_cap",
          "used_randomization", "all_rank_one", "avg_rank", "iterations",
          "scalars_exchanged")


def write_scenario(tmp_path, name="scn.json", **overrides):
    data = {
        "topology": {"B": 2, "G": 2, "U": 4, "A": 6},
        "gamma_db": 1.0,
        "schemes": ["centralized"],
        "trials": 2,
        "seed": 3,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return path


class TestParsing:
    def test_paper_defaults_accepted(self, tmp_path):
        path = write_scenario(tmp_path, step_size=0.3, rho=2.0,
                              gr_budget=100)
        cfg = parse_scenario(path)
        assert cfg.step_size == 0.3
        assert cfg.rho == 2.0
        assert cfg.gr_budget == 100

    def test_missing_topology_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"topology": {"G": 2, "U": 4, "A": 6},
             "schemes": ["centralized"]}))
        with pytest.raises(ConfigurationError, match="'B'"):
            parse_scenario(path)

    def test_unknown_scheme_named(self, tmp_path):
        path = write_scenario(tmp_path, schemes=["warp-drive"])
        with pytest.raises(ConfigurationError, match="warp-drive"):
            parse_scenario(path)

    def test_unknown_field_with_line(self, tmp_path):
        path = write_scenario(tmp_path, bogus_field=1)
        with pytest.raises(ConfigurationError, match="line"):
            parse_scenario(path)

    def test_json_error_has_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"topology\": ,\n}")
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_scenario(path)

    def test_sweep_expansion(self):
        assert expand_sweep("-1:1:5", "gamma_db") == [-1, 0, 1, 2, 3, 4, 5]
        assert expand_sweep("0:2.5:5 dB", "d_db") == [0, 2.5, 5]
        assert expand_sweep([1, 2], "x") == [1.0, 2.0]
        assert expand_sweep(3, "x") == [3.0]
        with pytest.raises(ConfigurationError):
            expand_sweep("5:-1:0", "x")
        with pytest.raises(ConfigurationError):
            expand_sweep("nonsense", "x")

    def test_unicode_scheme_spelling_unknown(self, tmp_path):
        path = write_scenario(tmp_path, schemes=["fixed-θ"])
        with pytest.raises(ConfigurationError,
                           match="unknown scheme 'fixed-θ'; valid: .*"
                                 "fixed-theta"):
            parse_scenario(path)

    def test_step_schedule_is_unknown_field(self, tmp_path, capsys):
        path = write_scenario(tmp_path, step_schedule="diminishing")
        with pytest.raises(ConfigurationError,
                           match=r"line \d+: unknown field 'step_schedule'"):
            parse_scenario(path)
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("field, overrides", [
        ("trials", {"trials": True}), ("iters", {"iters": True}),
        ("B", {"topology": {"B": True, "G": 2, "U": 4, "A": 6}}),
        ("sigma2", {"sigma2": True}), ("gamma_db", {"gamma_db": False}),
        ("gamma_db", {"gamma_db": [1.0, True]})])
    def test_boolean_is_no_number(self, tmp_path, capsys, field, overrides):
        path = write_scenario(tmp_path, **overrides)
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            parse_scenario(path)
        assert main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_repeated_scheme_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, schemes=["centralized", "nulling",
                                                 "centralized"])
        with pytest.raises(ConfigurationError,
                           match="'centralized' is listed twice"):
            parse_scenario(path)
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("p_max", [0, [10, 0], -1])
    def test_nonpositive_p_max_rejected(self, tmp_path, p_max):
        path = write_scenario(tmp_path, p_max=p_max)
        with pytest.raises(ConfigurationError, match="p_max must be positive"):
            parse_scenario(path)

    @pytest.mark.parametrize("field, value", [
        ("theta_grid", [-0.1]), ("theta_grid", [0.1, float("inf")]),
        ("theta_fixed", -1.0), ("theta_fixed", float("nan"))])
    def test_bad_caps_named(self, tmp_path, capsys, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ScenarioConfig(B=2, G=2, U=4, A=4, schemes=["fixed-theta"],
                           **{field: value})
        path = write_scenario(tmp_path, **{field: value})
        assert main(["run", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("text, args", [
        ('"gamma_db": NaN', []), ('"d_db": NaN', []), ('"sigma2": NaN', []),
        ('"topology": {"B": 2.5, "G": 2, "U": 4, "A": 6}', []),
        ('"topology": {"B": 2, "G": 2, "U": 4, "A": 6, "C": 1}', []),
        ('"trials": 1.7', []), ('"gamma_db": "0:1..5:2"', []),
        ('"gamma_db": [1, "x"]', []), ('"schemes": "centralized"', []),
        ('"schemes": [["centralized"]]', []),
        ('"seed": -1', []), (None, []), ("", ["--seed", "-1"]),
        ('"gamma_db": []', []), ('"d_db": []', []), ('"p_max": []', []),
        ('"theta_grid": []', []), ('"step_size": 0.0', []),
        ('"step_size": -0.3', [])])
    def test_malformed_input_exits_2(self, tmp_path, capsys, text, args):
        path = write_scenario(tmp_path)
        if text is None:  # the scenario inside a top-level array
            path.write_text("[" + path.read_text() + "]")
        elif text:
            # the last duplicate key wins in Python's json
            path.write_text(path.read_text()[:-2] + ",\n " + text + "\n}")
        assert main(["run", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "Traceback" not in err
        if args:
            return
        with pytest.raises(ConfigurationError):
            parse_scenario(path)

    def test_common_theta_needs_two_cells(self):
        with pytest.raises(ConfigurationError, match="common-theta"):
            ScenarioConfig(B=3, G=3, U=6, A=6, schemes=["common-theta"])


def assert_slot_targets_met(chans, topo, sol, raised):
    """Every user meets ``raised`` in its cell's own slot: in-cell
    interference only."""
    for u in range(topo.U):
        g = topo.group_of_user[u]
        b = topo.bs_of_group[g]
        own = abs(np.vdot(chans.vec(b, u), sol.w[g])) ** 2
        intra = sum(abs(np.vdot(chans.vec(b, u), sol.w[k])) ** 2
                    for k in topo.groups_of_bs(b) if k != g)
        assert own / (1.0 + intra) >= raised * (1 - 1e-5)


class TestSweep:
    def small_config(self, **overrides):
        params = dict(B=2, G=2, U=4, A=6,
                      schemes=["centralized", "nulling", "fixed-theta"],
                      gamma_db=1.0, d_db=1.0, trials=2, seed=5, iters=20,
                      theta_fixed=0.1)
        params.update(overrides)
        return ScenarioConfig(**params)

    def test_deterministic_records(self):
        cfg = self.small_config()
        rec1, _ = run_sweep(cfg)
        rec2, _ = run_sweep(cfg)
        for a, b in zip(rec1, rec2):
            for col in RECORD_COLUMNS:
                if col == "wall_time_s":
                    continue
                assert a[col] == b[col], col

    def test_nulling_is_zero_cap_limit(self):
        # eps-cap designs relax exact nulling, so they approach its
        # power from below as the cap vanishes
        topo = build_topology(B=2, G=2, U=4, A=6, gamma=10 ** 0.1,
                              cell_separation=10 ** 0.1)
        chans = sample_channels(topo, 8)
        nul = solve_nulling(chans, topo)
        tiny = solve_fixed_ici(chans, topo, 1e-7)
        assert tiny.objective <= nul.objective + 1e-6
        assert tiny.objective == pytest.approx(nul.objective, rel=1e-2)

    def test_orthogonal_uses_transformed_target(self):
        topo = build_topology(B=2, G=2, U=4, A=6, gamma=1.0,
                              cell_separation=10.0)
        chans = sample_channels(topo, 9)
        sol = solve_orthogonal(chans, topo)
        # each cell alone must deliver (1+1)^2 - 1 = 3 to its users
        raised = orthogonal_equivalent_target(1.0, 2)
        assert raised == 3.0
        assert_slot_targets_met(chans, topo, sol, raised)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_orthogonal_randomization_sees_no_ici(self, seed):
        # these draws relax to rank above one, so the beams come from
        # randomization, whose cells share no slot and see no ICI
        gamma = 10 ** 0.1
        topo = build_topology(B=2, G=2, U=12, A=4, gamma=gamma,
                              cell_separation=gamma)
        chans = sample_channels(topo, seed)
        sol = solve_orthogonal(chans, topo, rng=np.random.default_rng(seed))
        assert sol.used_randomization
        assert_slot_targets_met(chans, topo, sol,
                                orthogonal_equivalent_target(gamma, 2))

    def test_distributed_randomization_falls_back_to_coupled_powers(self):
        # on this draw no PD or ADMM candidate meets every BS's fixed ICI
        # caps, yet some are feasible for the coupled network
        cfg = ScenarioConfig(
            B=2, G=2, U=4, A=6, schemes=["centralized", "primal-decomp",
                                         "admm", "nulling", "orthogonal"],
            gamma_db=1.0, d_db=1.0, iters=5, trials=2, seed=804183656)
        records, _ = run_sweep(cfg)
        assert len(records) == 10
        assert all(rec["feasible"] for rec in records)
        bound = {rec["trial"]: rec["sdr_bound"] for rec in records
                 if rec["scheme"] == "centralized"}
        for rec in records:
            if rec["scheme"] in ("primal-decomp", "admm"):
                assert rec["objective"] >= bound[rec["trial"]] * (1 - 1e-7)

    def test_centralized_dominates_constrained_schemes(self):
        cfg = self.small_config(trials=3)
        records, _ = run_sweep(cfg)
        by_trial = {}
        for rec in records:
            by_trial.setdefault(rec["trial"], {})[rec["scheme"]] = rec
        for trial, recs in by_trial.items():
            cen = recs["centralized"]["sdr_bound"]
            assert cen <= recs["nulling"]["objective"] + 1e-6
            assert cen <= recs["fixed-theta"]["objective"] + 1e-6

    def test_infeasible_recorded_not_dropped(self):
        # nulling with too few antennas cannot zero-force
        cfg = ScenarioConfig(B=2, G=2, U=8, A=3, schemes=["nulling"],
                             gamma_db=1.0, trials=2, seed=6)
        records, _ = run_sweep(cfg)
        assert len(records) == 2
        assert all(rec["feasible"] is False for rec in records)
        assert all(rec["failure_kind"] == "InfeasibleTargetsError"
                   for rec in records)
        summary = summarize(records)
        assert summary[0]["infeasible_excluded"] == 2
        assert summary[0]["indeterminate_excluded"] == 0
        assert summary[0]["mean_objective"] is None

    def test_solver_stall_not_counted_infeasible(self, monkeypatch):
        def stall(*args, **kwargs):
            raise IndeterminateError("iteration limit")

        monkeypatch.setattr(experiment, "solve_nulling", stall)
        cfg = self.small_config(schemes=["centralized", "nulling"])
        records, _ = run_sweep(cfg)
        kinds = {rec["scheme"]: rec["failure_kind"] for rec in records}
        assert kinds == {"centralized": "", "nulling": "IndeterminateError"}
        rows = {row["scheme"]: row for row in summarize(records)}
        assert rows["nulling"]["infeasible_excluded"] == 0
        assert rows["nulling"]["indeterminate_excluded"] == 2
        assert rows["nulling"]["randomization_excluded"] == 0
        assert rows["centralized"]["indeterminate_excluded"] == 0
        assert rows["centralized"]["mean_objective"] is not None

    def test_every_stalled_solve_reported_as_stall(self, monkeypatch):
        # no solve ends optimal or infeasible, so no scheme may report
        # its failure as infeasibility
        def stalled(problem, *args, **kwargs):
            return conic.ConicSolution(status=conic.SolveStatus.MAX_ITER)

        monkeypatch.setattr(ipm, "solve", stalled)
        monkeypatch.setattr(ipm, "solve_batch", lambda problems, *a, **k:
                            [stalled(p) for p in problems])
        schemes = ["centralized", "primal-decomp", "admm", "fixed-theta",
                   "nulling", "orthogonal"]
        records, _ = run_sweep(self.small_config(schemes=schemes))
        assert sorted({rec["scheme"] for rec in records}) == sorted(schemes)
        assert all(rec["failure_kind"] == "IndeterminateError"
                   for rec in records)

    def test_ipm_iterations_add_up(self, monkeypatch):
        # every solve's iterations land in the record of the run that
        # asked for it, also when a run yields several records
        total = 0
        solve_batch = ipm.solve_batch

        def counting(problems, *args, **kwargs):
            nonlocal total
            sols = solve_batch(problems, *args, **kwargs)
            total += sum(sol.iterations for sol in sols)
            return sols

        monkeypatch.setattr(ipm, "solve_batch", counting)
        cfg = self.small_config(
            schemes=["centralized", "primal-decomp", "balance-distributed"],
            trials=1, iters=3, theta_grid=[0.1, 1.0])
        records, _ = run_sweep(cfg)
        assert len(records) == 4
        assert all(rec["ipm_iterations"] > 0 for rec in records)
        assert sum(rec["ipm_iterations"] for rec in records) == total

    def test_failing_cap_keeps_every_cap_record(self, monkeypatch):
        # a failure at one cap must not drop the later caps' records, and
        # each failure record names its cap
        balance = experiment.balance_distributed

        def failing_at_low_cap(channels, topology, theta_cap, **kwargs):
            if theta_cap == 0.01:
                raise InfeasibleTargetsError("cap too tight")
            return balance(channels, topology, theta_cap, **kwargs)

        def failing(*args, **kwargs):
            raise InfeasibleTargetsError("cap too tight")

        monkeypatch.setattr(experiment, "balance_distributed",
                            failing_at_low_cap)
        monkeypatch.setattr(experiment, "solve_fixed_ici", failing)
        cfg = self.small_config(
            schemes=["balance-distributed", "fixed-theta"], trials=1,
            theta_grid=[0.01, 0.1, 1.0])
        records, _ = run_sweep(cfg)
        kinds = {(rec["scheme"], rec["theta_cap"]): rec["failure_kind"]
                 for rec in records}
        failed = "InfeasibleTargetsError"
        assert len(records) == 4
        assert kinds == {("balance-distributed", 0.01): failed,
                         ("balance-distributed", 0.1): "",
                         ("balance-distributed", 1.0): "",
                         ("fixed-theta", 0.1): failed}

    def test_empty_randomization_draw_recorded(self):
        # every balancing scheme randomizes somewhere in this file; with
        # no draws each such run records a randomization failure and the
        # others keep their records
        config = parse_scenario(SCENARIOS / "balancing_gr.json")
        full, _ = run_sweep(config)
        config.gr_budget = 0
        empty, _ = run_sweep(config)
        assert {rec["scheme"] for rec in full
                if rec["used_randomization"]} == set(config.schemes)
        assert len(empty) == len(full)
        for rec, ref in zip(empty, full):
            assert (rec["trial"], rec["scheme"], rec["theta_cap"]) \
                == (ref["trial"], ref["scheme"], ref["theta_cap"])
            if ref["used_randomization"]:
                assert rec["feasible"] is False
                assert rec["failure_kind"] == "RandomizationFailureError"
            else:
                assert rec["objective"] == ref["objective"]

    def test_records_match_direct_calls(self):
        # each record holds what its scheme's solver returns when called
        # alone on the trial's channels and the scheme's stream: on this
        # draw some designs randomize, nulling and fixed-theta fail, and
        # balance-distributed runs its caps in turn on one stream
        cfg = ScenarioConfig(B=2, G=2, U=8, A=4, schemes=list(SCHEMES),
                             gamma_db=3.0, d_db=1.0, trials=1, seed=1,
                             iters=5, theta_grid=[0.0, 0.1, 1.0],
                             theta_fixed=0.01)
        records, _ = run_sweep(cfg)
        point = experiment._SweepPoint(cfg, 3.0, 1.0, cfg.p_max[0], 0,
                                       point_key=(0, 0, 0))
        run = (point.channels, point.topology)
        calls = {
            "centralized": [(None, solve_centralized, run, {})],
            "primal-decomp": [(None, run_primal_decomposition, run, dict(
                max_iters=cfg.iters, step=cfg.step_size))],
            "admm": [(None, run_admm, run, dict(max_iters=cfg.iters,
                                                rho=cfg.rho))],
            "nulling": [(None, solve_nulling, run, {})],
            "fixed-theta": [(cfg.theta_fixed, solve_fixed_ici,
                             run + (cfg.theta_fixed,), {})],
            "common-theta": [(None, run_primal_decomposition, run, dict(
                max_iters=cfg.iters, step=cfg.step_size,
                common_theta=True))],
            "orthogonal": [(None, solve_orthogonal, run, {})],
            "balance-centralized": [(None, balance_centralized, run, dict(
                epsilon=cfg.epsilon))],
            "balance-distributed": [
                (cap, balance_distributed, run + (cap,),
                 dict(epsilon=cfg.epsilon)) for cap in cfg.theta_grid],
            "balance-uncoordinated": [(None, balance_uncoordinated, run,
                                       dict(epsilon=cfg.epsilon))],
        }
        want = []
        for k, scheme in enumerate(SCHEMES):
            rng = point._scheme_rng(k)
            for cap, solver, args, kwargs in calls[scheme]:
                try:
                    out = solver(*args, gr_count=cfg.gr_budget, rng=rng,
                                 **kwargs)
                except experiment._FAILURES as err:
                    want.append(dict(dict.fromkeys(PINNED), theta_cap=cap,
                                     scheme=scheme, feasible=False,
                                     failure_kind=type(err).__name__))
                    continue
                sol = getattr(out, "solution", out)
                one = bool((sol.sdr_rank == 1).all())
                rec = dict(dict.fromkeys(PINNED), theta_cap=cap,
                           scheme=scheme, feasible=True, failure_kind="",
                           objective=sol.objective,
                           objective_kind="sum_power_w",
                           sdr_bound=sol.sdr_objective,
                           used_randomization=sol.used_randomization,
                           all_rank_one=one, avg_rank=None if one
                           else float(sol.sdr_rank.sum()) / cfg.G)
                if hasattr(out, "achieved"):
                    rec.update(objective=out.achieved,
                               objective_kind="min_sinr_linear",
                               sdr_bound=out.t_relaxed)
                elif hasattr(out, "best_power"):
                    rec.update(sdr_bound=out.best_power,
                               iterations=out.iterations,
                               scalars_exchanged=out.log.total_scalars())
                want.append(rec)
        got = [{col: rec[col] for col in want[0]} for rec in records]
        assert got == sorted(want, key=lambda rec: rec["scheme"])
        kinds = {(rec["scheme"], rec["theta_cap"]): rec["failure_kind"]
                 for rec in got if not rec["feasible"]}
        assert kinds == {("fixed-theta", 0.01): "InfeasibleTargetsError",
                         ("nulling", None): "InfeasibleTargetsError"}
        assert {rec["used_randomization"] for rec in got} == {
            True, False, None}

    def test_balancing_as_theta_grid_rows(self):
        cfg = ScenarioConfig(B=2, G=2, U=4, A=4,
                             schemes=["balance-distributed"],
                             gamma_db=1.0, trials=1, seed=7,
                             theta_grid=[0.1, 1.0])
        records, _ = run_sweep(cfg)
        assert sorted(rec["theta_cap"] for rec in records) == [0.1, 1.0]
        assert all(rec["objective_kind"] == "min_sinr_linear"
                   for rec in records)

    def test_sweep_values_sort_as_numbers(self):
        # records and summary rows follow d_db and theta_cap as numbers:
        # as strings, 10 would sort before 2 and 5
        cfg = ScenarioConfig(B=2, G=2, U=4, A=4,
                             schemes=["balance-distributed"],
                             gamma_db=1.0, d_db="0:5:10", trials=1, seed=7,
                             epsilon=1e-2, theta_grid=[0.5, 2, 10])
        records, _ = run_sweep(cfg)
        want = [(d, cap) for d in (0, 5, 10) for cap in (0.5, 2, 10)]
        assert [(rec["d_db"], rec["theta_cap"]) for rec in records] == want
        assert [(row["d_db"], row["theta_cap"])
                for row in summarize(records)] == want


class TestEmission:
    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",")[0] == "trial"

    def test_json_round_trip(self, tmp_path):
        cfg = ScenarioConfig(B=1, G=1, U=1, A=2, schemes=["centralized"],
                             trials=2, seed=9)
        records, _ = run_sweep(cfg)
        path = tmp_path / "out.json"
        emit_results(records, path, "json")
        loaded = json.loads(path.read_text())
        assert loaded == [{col: rec.get(col) for col in RECORD_COLUMNS}
                          for rec in records]

    def test_csv_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        rec = {col: None for col in RECORD_COLUMNS}
        rec.update({"trial": 0, "scheme": "centralized",
                    "objective": 0.123456789123456, "feasible": True})
        emit_results([rec], path, "csv")
        body = path.read_text().splitlines()[1]
        assert "0.123456789" in body
        assert "123456789123" not in body

    def test_trace_schema(self, tmp_path):
        cfg = ScenarioConfig(B=2, G=2, U=4, A=6, schemes=["primal-decomp"],
                             trials=1, seed=10, iters=3)
        _, traces = run_sweep(cfg)
        path = tmp_path / "traces.csv"
        emit_traces(traces, path)
        header = path.read_text().splitlines()[0].split(",")
        for col in ("iteration", "sum_power", "residual",
                    "scalars_exchanged"):
            assert col in header

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_results([], tmp_path / "x.bin", "parquet")


class TestCli:
    def test_run_writes_outputs(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, trials=1)
        out = tmp_path / "records.csv"
        code = main(["run", str(scenario), "--out", str(out),
                     "--trials", "1", "--seed", "2"])
        assert code == 0
        assert out.exists()
        assert "centralized" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, schemes=["bogus"])
        code = main(["run", str(scenario)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_failed_trials_exit_0(self, tmp_path, capsys):
        # targets no scheme meets on these draws: every trial fails, and
        # the failures are recorded, not an error of the run
        scenario = write_scenario(
            tmp_path, topology={"B": 2, "G": 2, "U": 4, "A": 2},
            gamma_db=30.0, d_db=0.0, schemes=["centralized", "nulling"])
        out = tmp_path / "records.json"
        assert main(["run", str(scenario), "--out", str(out),
                     "--format", "json"]) == 0
        records = json.loads(out.read_text())
        assert len(records) == 4
        assert all(rec["feasible"] is False for rec in records)
        assert all(rec["failure_kind"] == "InfeasibleTargetsError"
                   for rec in records)

    def test_escaped_error_exit_1(self, tmp_path, capsys, monkeypatch):
        # an error that no record stands for ends the run
        def broken(*args, **kwargs):
            raise StateError("beamformers missing")

        monkeypatch.setattr(experiment, "solve_nulling", broken)
        scenario = write_scenario(tmp_path, schemes=["centralized",
                                                     "nulling"])
        assert main(["run", str(scenario)]) == 1
        assert capsys.readouterr().err == "error: beamformers missing\n"

    def test_json_output(self, tmp_path):
        scenario = write_scenario(tmp_path, trials=1)
        out = tmp_path / "records.json"
        code = main(["run", str(scenario), "--out", str(out),
                     "--format", "json"])
        assert code == 0
        assert isinstance(json.loads(out.read_text()), list)
