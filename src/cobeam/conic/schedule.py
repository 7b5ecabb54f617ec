"""Solve scheduling: algorithms written as generators of conic problems.

A solve generator yields a list of :class:`ConicProblem` whenever it
needs solutions, is sent their :class:`ConicSolution` list in the same
order, and returns its result.  :func:`drive` runs several side by side
and solves each step's problems in one :func:`solve_batch` call, which
gives every problem the bits of its own solve, so a generator's result
does not depend on what it shares its batches with.
"""

import functools
import time

from . import ipm


def gather(generators, seconds=None, iterations=None):
    """Solve generator that runs ``generators`` side by side: each step
    yields the pending problems of every live one, in order, and sends
    each its slice.  A generator that raises leaves alone.  Returns the
    results in order, a raised exception in place of a result.
    ``seconds``, a list, gains each generator's wall time: its own steps
    plus its problem-count share of each step's solve.  ``iterations``,
    a list, gains the interior-point iterations of each generator's
    solves."""
    results = [None] * len(generators)
    sends = dict.fromkeys(range(len(generators)))
    clock = time.perf_counter
    while True:
        problems, owners, last = [], [], clock()
        for i, sent in sends.items():
            try:
                batch = generators[i].send(sent)
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as err:
                results[i] = err
            else:
                owners.append((i, len(problems), len(batch)))
                problems.extend(batch)
            if seconds is not None:
                now = clock()
                seconds[i] += now - last
                last = now
        if not owners:
            return results
        solutions = yield problems
        if seconds is not None and problems:
            share = (clock() - last) / len(problems)
            for i, _, count in owners:
                seconds[i] += share * count
        sends = {i: solutions[start:start + count]
                 for i, start, count in owners}
        if iterations is not None:
            for i, sols in sends.items():
                iterations[i] += sum(sol.iterations for sol in sols)


def drive(generators, seconds=None, iterations=None):
    """Run solve generators to their ends; returns their results in
    order, or raises the first exception one raised once the others
    have finished.  Each step's problems go to one :func:`solve_batch`
    call (a lone problem to :func:`solve`), which groups them by shape.
    ``seconds`` and ``iterations`` are as in :func:`gather`."""
    steps = gather(list(generators), seconds, iterations)
    try:
        problems = next(steps)
        while True:
            problems = steps.send(
                [ipm.solve(problems[0])] if len(problems) == 1
                else ipm.solve_batch(problems))
    except StopIteration as stop:
        results = stop.value
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def check_feasibility(problem):
    """Whether the constraints of ``problem`` are feasible: its
    :func:`ipm.feasibility` check, solved alone."""
    return drive([ipm.feasibility(problem)])[0][0]


def driven(steps):
    """Decorator: a solve generator function as the function that drives
    it alone; the generator function stays its ``steps`` attribute."""
    @functools.wraps(steps)
    def alone(*args, **kwargs):
        return drive([steps(*args, **kwargs)])[0]
    alone.steps = steps
    return alone


def solving(fn, *args, **kwargs):
    """Solve generator of ``fn(*args, **kwargs)`` for a :func:`driven`
    ``fn``; any other callable, such as a test double or a tracing
    wrapper standing in for one, is called as it is and solves alone."""
    steps = getattr(fn, "steps", None)
    if steps is None:
        return fn(*args, **kwargs)
    return (yield from steps(*args, **kwargs))
