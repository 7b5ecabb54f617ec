"""Smoke test of tools/solve_digest.py, which CI only prints."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "power_min_small.json"


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "solve_digest", ROOT / "tools" / "solve_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_lines_are_repeatable(capsys):
    tool = load_tool()
    runs = []
    for _ in range(2):
        tool.main([str(SCENARIO), "--trials", "1"])
        runs.append(capsys.readouterr().out.splitlines())
    first, second = runs
    assert first[0].startswith("blas numpy ")
    assert " scipy " in first[0]
    # one records line per scheme, each with the scheme's one record
    schemes = json.loads(SCENARIO.read_text())["schemes"]
    per_scheme = sorted(line.split()[1] for line in first
                        if line.startswith("records ")
                        and line.split()[2:4] == ["1", "sha256"])
    assert per_scheme == sorted(schemes)
    assert first == second


def test_confirmations_cover_the_screen_exits(capsys, monkeypatch):
    tool = load_tool()
    calls = []
    farkas = tool.ipm._certified
    monkeypatch.setattr(
        tool.ipm, "_certified",
        lambda comp, y, it: calls.append(y) or farkas(comp, y, it))
    scenario = ROOT / "scenarios" / "balancing_gr.json"
    tool.main([str(scenario), "--trials", "1"])
    lines = capsys.readouterr().out.splitlines()
    exits = next(line.split() for line in lines
                 if line.startswith("screen exits "))
    confirms = [line.split() for line in lines
                if line.startswith("confirmations ")]
    assert len(confirms) == 1
    _, points, _, certificates, _, _, path = confirms[0]
    assert path == str(scenario)
    # every screen exit is one accepted confirmation, and the Farkas
    # screen asks the verifier at most once per call
    assert int(points) >= int(exits[2])
    assert 0 < int(exits[4]) <= int(certificates) <= len(calls)


def test_hsd_exits_count_the_unconfirmed_answers(capsys, monkeypatch):
    tool = load_tool()
    # with every certificate rejected, the zero-objective solves that
    # the Farkas screen would end go on to the embedding's own exit
    verify = tool.ipm.verify_infeasibility_certificate
    monkeypatch.setattr(tool.ipm, "verify_infeasibility_certificate",
                        lambda prob, w: {**verify(prob, w), "ok": False})
    scenario = ROOT / "scenarios" / "balancing_gr.json"
    tool.main([str(scenario), "--trials", "1"])
    lines = capsys.readouterr().out.splitlines()
    exits = [line.split() for line in lines if line.startswith("hsd exits ")]
    assert len(exits) == 1
    _, _, infeasible, _, unbounded, _, _, path = exits[0]
    assert path == str(scenario)
    # a trace objective is bounded below, so no solve ends on a ray
    assert int(infeasible) > 0 and int(unbounded) == 0
