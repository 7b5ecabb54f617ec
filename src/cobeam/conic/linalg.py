"""Small dense Hermitian helpers used across the algorithms."""

import numpy as np
import scipy.linalg as sla

from .problem import _as_hermitian

RANK_TOL = 1e-6


def _adjoint(mat):
    return np.swapaxes(mat.conj(), -1, -2)


def principal_eigenpair(mat):
    """Largest eigenvalue and a unit-norm eigenvector of a Hermitian
    matrix, or of each matrix of a stack (..., n, n), with the bits of
    its own call."""
    herm = _as_hermitian(mat)
    flat = herm.reshape((-1,) + herm.shape[-2:])
    vals, vecs = np.empty(flat.shape[:-1]), np.empty_like(flat)
    # scipy's eigh, one call per matrix: numpy's eigh gives other bits,
    # and scipy's stacked call loops in Python, slower
    for i, one in enumerate(flat):
        vals[i], vecs[i] = sla.eigh(one)
    return (vals[:, -1].reshape(herm.shape[:-2]),
            vecs[..., -1].reshape(herm.shape[:-1]))


def numerical_rank(mat):
    """Number of eigenvalues above ``RANK_TOL`` times the largest one
    (none when it is not positive): an int, or ints for each matrix of a
    stack, as :func:`principal_eigenpair` takes them."""
    mat = np.asarray(mat)
    herm = 0.5 * (mat + _adjoint(mat))
    # numpy's stacked eigvalsh: the bits of scipy's call per matrix
    vals = np.linalg.eigvalsh(herm)
    rank = np.sum(vals > RANK_TOL * vals[..., -1:], axis=-1)
    return rank if rank.ndim else int(rank)


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
