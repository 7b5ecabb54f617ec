"""Small dense Hermitian helpers used across the algorithms."""

import functools

import numpy as np
import scipy.linalg as sla

from .problem import _as_hermitian

RANK_TOL = 1e-6

# scipy.linalg.eigh's default driver and its workspace query, syevr for
# a real and heevr for a complex matrix, looked up once: eigh looks both
# up, queries the workspace and checks its input on every call
_EVR = {False: sla.get_lapack_funcs(("syevr", "syevr_lwork"), (np.empty(0),)),
        True: sla.get_lapack_funcs(("heevr", "heevr_lwork"),
                                   (np.empty(0, complex),))}


@functools.cache
def _evr_work(cplx, n):
    """The workspace sizes eigh queries for an n x n matrix."""
    *sizes, info = _EVR[cplx][1](n, lower=1)
    if info:
        raise ValueError(f"workspace size query failed: {info}")
    names = ("lwork", "lrwork", "liwork") if cplx else ("lwork", "liwork")
    return dict(zip(names, (int(v.real) for v in sizes)))


def _eigh(mat):
    """``scipy.linalg.eigh(mat)`` of a finite Hermitian matrix, bit for
    bit: its driver with its defaults (the lower triangle, vectors,
    every eigenvalue) and its workspace."""
    cplx = mat.dtype.kind == "c"
    driver = _EVR[cplx][0]
    vals, vecs, _, _, info = driver(mat, compute_v=1, lower=1,
                                    **_evr_work(cplx, len(mat)))
    if info:
        raise np.linalg.LinAlgError(
            f"{driver.typecode}{'he' if cplx else 'sy'}evr failed: "
            f"info {info}")
    return vals, vecs


def _adjoint(mat):
    return np.swapaxes(mat.conj(), -1, -2)


def principal_eigenpair(mat):
    """Largest eigenvalue and a unit-norm eigenvector of a Hermitian
    matrix, or of each matrix of a stack (..., n, n), with the bits of
    its own call."""
    herm = _as_hermitian(mat)
    flat = herm.reshape((-1,) + herm.shape[-2:])
    vals = np.empty(flat.shape[:-1])
    vecs = np.empty(flat.shape, np.result_type(flat, float))
    # scipy's eigh driver, one call per matrix: numpy's eigh gives other
    # bits, and scipy's stacked call loops in Python, slower
    for i, one in enumerate(flat):
        vals[i], vecs[i] = _eigh(one)
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
    A non-finite entry raises ``ValueError``, as ``scipy.linalg.eigh``
    does.
    """
    herm = 0.5 * (np.asarray(mat) + np.asarray(mat).conj().T)
    if not np.isfinite(herm).all():
        raise ValueError("array must not contain infs or NaNs")
    vals, vecs = _eigh(herm)
    floor = len(vals) * np.finfo(float).eps * max(vals[-1], 0.0)
    return vecs * np.sqrt(np.where(vals > floor, vals, 0.0))
