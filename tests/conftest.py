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


def _duality_power(channels, topology, tol=1e-14, max_iter=10000):
    """Least sum power of a unicast network (one user per group, unit
    noise, no power budgets) by the uplink-downlink duality fixed point
    of Dahrouj & Yu (IEEE TWC 2010), with no conic solver.

    The uplink powers iterate lam_u = 1 / ((1 + 1/gamma_u) h^H (I +
    sum_j lam_j h_{b,j} h_{b,j}^H)^{-1} h), with b user u's serving BS
    and h = h_{b,u}, until they stop moving; the optimum is sum_u lam_u.
    """
    users = range(topology.U)
    serving = [topology.serving_bs(u) for u in users]
    own = channels.h[serving, users]
    boost = 1.0 + 1.0 / np.asarray(topology.gamma, dtype=float)
    lam = np.zeros(topology.U)
    for _ in range(max_iter):
        cov = np.eye(topology.A) + np.einsum("j,bjxy->bxy", lam,
                                             channels.outer)
        gain = [np.real(h.conj() @ np.linalg.solve(cov[b], h))
                for b, h in zip(serving, own)]
        new = 1.0 / (boost * np.array(gain))
        if np.abs(new - lam).max() <= tol * new.sum():
            return float(new.sum())
        lam = new
    raise AssertionError("duality fixed point did not converge")


@pytest.fixture
def duality_power():
    return _duality_power
