"""Shared oracles."""

import numpy as np
import pytest
from scipy.optimize import linprog


def _highs_powers(gains, own, gamma, noise, cap_gains=None, caps=None):
    """Sum-power LP of one fixed-direction problem, solved by HiGHS.

    User u asks gains[u, own[u]] p_own - gamma_u sum_{g != own}
    gains[u, g] p_g >= gamma_u noise_u; optional rows cap_gains @ p <=
    caps.  Returns the optimal powers, or None when HiGHS proves the LP
    infeasible.
    """
    gains = np.asarray(gains, dtype=float)
    U, G = gains.shape
    users = np.arange(U)
    rows = np.asarray(gamma)[:, None] * gains
    rows[users, own] = -gains[users, own]
    rhs = -np.asarray(gamma) * np.asarray(noise)
    if cap_gains is not None:
        rows = np.vstack([rows, cap_gains])
        rhs = np.concatenate([rhs, caps])
    res = linprog(np.ones(G), A_ub=rows, b_ub=rhs, bounds=[(0, None)] * G,
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return res.x


@pytest.fixture
def highs_powers():
    return _highs_powers
