"""Property tests of the conic core on random small problems.

Problems mix real symmetric and complex Hermitian PSD variables with
nonnegative scalars.  Each is feasible by construction (its rows hold
strictly at a random interior point, and the objective is positive on
the cone, so an optimum exists) or infeasible by construction (a Farkas
combination of its rows is planted).  The solver's answer is checked by
evaluation independent of the solver: the constraint violation of the
returned point, the dual objective, and the planted or returned
certificate.  Examples are derandomized so every run tests the same
problems.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import row_data
from hypothesis import strategies as st

from cobeam.conic import (ConicProblem, SolveStatus, check_feasibility, solve,
                          verify_infeasibility_certificate)
from cobeam.conic import ipm
from cobeam.conic.ipm import point_violation
from cobeam.errors import IndeterminateError

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


@dataclass
class Case:
    problem: ConicProblem
    feasible: bool


def _hermitian(rng, dim, complex):
    G = rng.standard_normal((dim, dim))
    if complex:
        G = G + 1j * rng.standard_normal((dim, dim))
    return G


def _build(seed, blocks, n_scalars, n_rows, feasible):
    rng = np.random.default_rng(seed)
    prob = ConicProblem()
    mats = [prob.add_psd_var(d, complex=c) for d, c in blocks]
    scalars = [prob.add_scalar_var() for _ in range(n_scalars)]
    obj = {}
    for i, (d, c) in zip(mats, blocks):
        G = _hermitian(rng, d, c)
        obj[i] = G @ G.conj().T / d + np.eye(d)
    prob.set_objective(matrix=obj, scalar={j: float(rng.uniform(0.1, 2.0))
                                           for j in scalars})

    def random_row():
        F = {}
        for i, (d, c) in zip(mats, blocks):
            G = _hermitian(rng, d, c)
            F[i] = 0.5 * (G + G.conj().T)
        return F, {j: float(rng.standard_normal()) for j in scalars}

    def flip(F, a, rhs):
        return ({i: -M for i, M in F.items()},
                {j: -v for j, v in a.items()}, -rhs)

    if feasible:
        point = [np.eye(d) * rng.uniform(0.5, 2.0) for d, _ in blocks]
        values = rng.uniform(0.5, 2.0, n_scalars)
        for _ in range(n_rows):
            F, a = random_row()
            val = sum(float(np.real(np.trace(F[i] @ X)))
                      for i, X in zip(mats, point))
            val += sum(a[j] * values[j] for j in scalars)
            rel = str(rng.choice([">=", "<=", "=="]))
            off = rng.uniform(0.1, 1.0)
            rhs = {">=": val - off, "<=": val + off, "==": val}[rel]
            prob.add_constraint(matrix=F, scalars=a, rel=rel, rhs=rhs)
        return Case(prob, True)

    # plant weights w > 0 on >= rows with sum_k w_k F_k = -P (P > 0),
    # sum_k w_k a_k <= 0 and sum_k w_k rhs_k > 0: no point satisfies all
    w = rng.uniform(0.5, 2.0, n_rows)
    rows = [random_row() + (float(rng.standard_normal()),)
            for _ in range(n_rows - 1)]
    F_last, a_last = {}, {}
    for i, (d, c) in zip(mats, blocks):
        G = _hermitian(rng, d, c)
        P = G @ G.conj().T / d + 0.1 * np.eye(d)
        F_last[i] = -(P + sum(w[k] * F[i] for k, (F, _, _)
                              in enumerate(rows))) / w[-1]
    for j in scalars:
        a_last[j] = -(rng.uniform(0.0, 1.0) + sum(
            w[k] * a[j] for k, (_, a, _) in enumerate(rows))) / w[-1]
    margin = rng.uniform(0.1, 1.0)
    rhs_last = (margin - sum(w[k] * r for k, (_, _, r)
                             in enumerate(rows))) / w[-1]
    rows.append((F_last, a_last, rhs_last))
    for F, a, rhs in rows:
        # a <= row is the negated >= row, with the weight's sign flipped
        rel = ">="
        if rng.uniform() < 0.5:
            F, a, rhs, rel = *flip(F, a, rhs), "<="
        prob.add_constraint(matrix=F, scalars=a, rel=rel, rhs=rhs)
    return Case(prob, False)


@st.composite
def cases(draw):
    blocks = draw(st.lists(st.tuples(st.integers(1, 4), st.booleans()),
                           min_size=1, max_size=3))
    n_scalars = draw(st.integers(0, 3))
    return _build(draw(st.integers(0, 2 ** 32 - 1)), blocks, n_scalars,
                  draw(st.integers(1, 5)), draw(st.booleans()))


def dual_objective(problem, duals):
    """sum_k y_k b_k with the solver's sign convention on <= rows."""
    return sum((-d if rel == "<=" else d) * rhs
               for d, (rel, rhs) in zip(duals, row_data(problem)))


@SETTINGS
@given(cases())
def test_solve_answers_check_out(case):
    sol = solve(case.problem)
    assert sol.status is (SolveStatus.OPTIMAL if case.feasible
                          else SolveStatus.INFEASIBLE)
    if sol.status is SolveStatus.OPTIMAL:
        assert point_violation(case.problem, sol) <= 1e-7
        assert dual_objective(case.problem, sol.duals) == pytest.approx(
            sol.objective, rel=1e-6, abs=1e-6)
    else:
        assert verify_infeasibility_certificate(
            case.problem, sol.certificate["weights"])["ok"]


@SETTINGS
@given(cases())
def test_feasibility_check_never_wrong(case):
    try:
        answer = check_feasibility(case.problem)
    except IndeterminateError:
        return
    assert answer is case.feasible


@SETTINGS
@given(cases())
def test_stalled_check_raises(case):
    # one iteration leaves the solver at its starting point: MAX_ITER,
    # which must surface as IndeterminateError unless the starting point
    # itself satisfies every row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ipm, "MAX_ITER", 1)
        if case.feasible:
            try:
                assert check_feasibility(case.problem) is True
            except IndeterminateError:
                pass
        else:
            with pytest.raises(IndeterminateError):
                check_feasibility(case.problem)


@SETTINGS
@given(cases())
def test_zero_objective_answers_check_out(case):
    # without an objective the solve may stop at its first verified
    # point or certificate; either must still check out
    stripped = ConicProblem(
        matrix_vars=case.problem.matrix_vars,
        num_scalars=case.problem.num_scalars,
        scalar_names=case.problem.scalar_names,
        families=case.problem.families)
    sol = solve(stripped)
    assert sol.status is (SolveStatus.OPTIMAL if case.feasible
                          else SolveStatus.INFEASIBLE)
    if sol.status is SolveStatus.OPTIMAL:
        assert point_violation(stripped, sol) <= 1e-7
    else:
        assert verify_infeasibility_certificate(
            stripped, sol.certificate["weights"])["ok"]
