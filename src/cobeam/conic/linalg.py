"""Small dense Hermitian helpers used across the algorithms."""

import numpy as np
import scipy.linalg as sla

from .problem import HERMITIAN_TOL

RANK_TOL = 1e-6


def _require_hermitian(mat, tol=HERMITIAN_TOL):
    mat = np.asarray(mat)
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.conj().T).max() > tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (mat + mat.conj().T)


def principal_eigenpair(mat):
    """Largest eigenvalue and a unit-norm eigenvector of a Hermitian matrix."""
    herm = _require_hermitian(mat)
    vals, vecs = sla.eigh(herm)
    return float(vals[-1]), vecs[:, -1]


def numerical_rank(mat):
    """Number of eigenvalues above ``RANK_TOL`` times the largest one."""
    herm = 0.5 * (np.asarray(mat) + np.asarray(mat).conj().T)
    vals = sla.eigvalsh(herm)
    top = float(vals[-1])
    if top <= 0.0:
        return 0
    return int(np.sum(vals > RANK_TOL * top))


def psd_sqrt(mat):
    """Factor L with L L^H = mat, via eigendecomposition.

    Robust for rank-deficient inputs: eigenvalues at or below the
    roundoff level dim * eps * lambda_max, negative ones included, are
    clipped to zero, so L has no column along a direction mat excludes.
    """
    herm = 0.5 * (np.asarray(mat) + np.asarray(mat).conj().T)
    vals, vecs = sla.eigh(herm)
    floor = len(vals) * np.finfo(float).eps * max(vals[-1], 0.0)
    return vecs * np.sqrt(np.where(vals > floor, vals, 0.0))
