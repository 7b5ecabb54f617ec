"""Solve scheduling: algorithms written as generators of conic problems.

A solve generator yields a list of :class:`ConicProblem` whenever it
needs solutions, is sent their :class:`ConicSolution` list in the same
order, and returns its result.  :func:`drive` runs several side by side
and solves each step's problems in one :func:`solve_batch` call, which
gives every problem the bits of its own solve, so a generator's result
does not depend on what it shares its batches with.  ``solve_batch``
runs the problems of one compiled shape in one lockstep loop, with or
without quadratic terms, and pads a small orthant up to
``problem.ORTHANT_FLOOR``, so generators driven side by side share loops:
a round of primal decomposition and one of ADMM run as one.  A generator
that yields an empty list is answered at once with an empty list.
"""

import functools

from . import ipm


def gather(generators):
    """Solve generator that runs ``generators`` side by side: each step
    yields the pending problems of every live one, in order, and sends
    each its slice.  A generator that yields an empty list is sent an
    empty list at once, in the same step, so this never yields one.  A
    generator that raises leaves alone.  Returns the results in order,
    a raised exception in place of a result."""
    results = [None] * len(generators)
    sends = dict.fromkeys(range(len(generators)))
    while True:
        problems, owners = [], []
        for i, sent in sends.items():
            try:
                batch = generators[i].send(sent)
                while not batch:
                    batch = generators[i].send([])
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as err:
                results[i] = err
            else:
                owners.append((i, len(problems), len(batch)))
                problems.extend(batch)
        if not owners:
            return results
        solutions = yield problems
        sends = {i: solutions[start:start + count]
                 for i, start, count in owners}


def drive(generators):
    """Run solve generators to their ends; returns their results in
    order, or raises the first exception one raised once the others
    have finished.  Each step's problems go to one :func:`solve_batch`
    call (a lone problem to :func:`solve`), which groups them by shape."""
    steps = gather(list(generators))
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
