"""Smoke test of tools/probe_cost.py, which CI only prints."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "balancing_gr.json"


def test_lines_add_up(capsys):
    spec = importlib.util.spec_from_file_location(
        "probe_cost", ROOT / "tools" / "probe_cost.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    originals = tool.ipm._solve_hsd, tool.ipm.NTScaling, tool.ipm.solve_batch
    tool.main([str(SCENARIO), "--trials", "1", "--repeats", "2"])
    # the wrappers are taken off again
    assert (tool.ipm._solve_hsd, tool.ipm.NTScaling,
            tool.ipm.solve_batch) == originals
    lines = [line.split(": ", 1) for line in
             capsys.readouterr().out.splitlines()]
    assert {path for path, _ in lines} == {str(SCENARIO)}
    total, *sizes, outside = (text for _, text in lines)
    runs, steps, work = map(int, re.fullmatch(
        r"lockstep runs (\d+) newton steps (\d+) problem steps (\d+)",
        total).groups())
    per_size = [re.fullmatch(
        r"P (\d+): runs (\d+) newton steps (\d+) problem steps (\d+) "
        r"fixed (-?\d+) us per run, (-?\d+|nan) us per problem step",
        text).groups() for text in sizes]
    assert sum(int(p[1]) for p in per_size) == runs > 0
    assert sum(int(p[2]) for p in per_size) == steps > 0
    assert sum(int(p[3]) for p in per_size) == work >= steps
    # a run of P problems takes at most P problem-steps a Newton step
    for p, _, newton, problem_steps, *_ in per_size:
        assert int(newton) <= int(problem_steps) <= int(p) * int(newton)
    assert re.fullmatch(r"solves \d+ outside solve_batch \d+ us per solve",
                        outside)
