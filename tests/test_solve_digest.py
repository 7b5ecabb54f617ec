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
