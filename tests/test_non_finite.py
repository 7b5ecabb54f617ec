"""Property tests: a non-finite input fails as itself.

A NaN or an infinity anywhere in a channel set raises
:class:`ConfigurationError` naming the entry, through every public
design; anywhere in a conic problem's coefficients, right-hand sides or
costs it raises :class:`ValueError` naming the input where it enters
:class:`ConicProblem`.  Neither may surface as numpy's error, hang in a
factorization, or come back as a result.  Examples are derandomized so
every run tests the same inputs.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobeam.balancing import (balance_centralized, balance_distributed,
                              balance_uncoordinated)
from cobeam.conic import ConicProblem, solve
from cobeam.distributed import run_admm, run_primal_decomposition
from cobeam.errors import ConfigurationError
from cobeam.network import ChannelSet, build_topology, sample_channels
from cobeam.power_min import solve_centralized

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])

DESIGNS = {
    "centralized": solve_centralized,
    "primal-decomp": run_primal_decomposition,
    "admm": run_admm,
    "balance-centralized": balance_centralized,
    "balance-distributed": lambda chans, topo: balance_distributed(
        chans, topo, 0.1),
    "balance-uncoordinated": balance_uncoordinated,
}

# (B, G, U, A): one cell, two cells with multicast groups, three cells
TOPOLOGIES = [(1, 1, 1, 1), (2, 2, 4, 6), (3, 3, 6, 2)]


def _entry(draw, shape):
    return tuple(draw(st.integers(0, n - 1)) for n in shape)


def _outer(h):
    # the caller's own product: inf times a zero part reads NaN
    with np.errstate(invalid="ignore", over="ignore"):
        return np.einsum("bui,buj->buij", h, h.conj())


@SETTINGS
@given(data=st.data(), shape=st.sampled_from(TOPOLOGIES),
       design=st.sampled_from(sorted(DESIGNS)),
       array=st.sampled_from(["h", "outer"]), imag=st.booleans(),
       value=NON_FINITE)
def test_channel_entry_is_named(data, shape, design, array, imag, value):
    B, G, U, A = shape
    topo = build_topology(B=B, G=G, U=U, A=A, p_max=10.0)
    chans = sample_channels(topo, 0)
    h, outer = np.array(chans.h), np.array(chans.outer)
    where = _entry(data.draw, (h if array == "h" else outer).shape)
    bad = h if array == "h" else outer
    part = bad[where]
    bad[where] = complex(part.real, value) if imag \
        else complex(value, part.imag)
    if array == "h":
        outer = _outer(h)
    name = re.escape(f"channel {array}{list(where)} is not finite")
    with pytest.raises(ConfigurationError, match=name):
        DESIGNS[design](ChannelSet(h=h, outer=outer), topo)


@SETTINGS
@given(data=st.data(), shape=st.sampled_from(TOPOLOGIES),
       value=NON_FINITE)
def test_channels_keep_their_checked_entries(data, shape, value):
    # a channel set keeps read-only entries of its own, so a write to
    # the caller's arrays after the check cannot reach a design
    B, G, U, A = shape
    topo = build_topology(B=B, G=G, U=U, A=A, p_max=10.0)
    drawn = sample_channels(topo, 0)
    h, outer = np.array(drawn.h), np.array(drawn.outer)
    chans = ChannelSet(h=h, outer=outer)
    h[_entry(data.draw, h.shape)] = value
    outer[_entry(data.draw, outer.shape)] = value
    assert (chans.h == drawn.h).all() and (chans.outer == drawn.outer).all()
    for own in (chans.h, chans.outer):
        with pytest.raises(ValueError, match="read-only"):
            own[(0,) * own.ndim] = value


def _problem(dim, complex):
    """One PSD variable of order ``dim`` and two scalars, a cost on each
    and two rows, so that every input has a place to enter."""
    prob = ConicProblem()
    prob.add_psd_var(dim, complex=complex)
    prob.add_scalar_var()
    prob.add_scalar_var()
    prob.set_objective(matrix={0: np.eye(dim)}, scalar={0: 1.0, 1: 2.0},
                       scalar_quad={1: 0.5})
    prob.add_constraints(matrix={0: ([0, 1], [np.eye(dim)] * 2)},
                         scalars={0: ([0, 1], [1.0, -1.0])}, rel=">=",
                         rhs=[1.0, -3.0])
    return prob


def _matrix(dim, where, value, imag):
    """The identity of order ``dim`` with ``value`` at ``where`` and at
    its mirror entry, in the imaginary part if ``imag``."""
    mat = np.eye(dim, dtype=complex if imag else float)
    entry = complex(mat[where].real, value) if imag else value
    mat[where] = entry
    mat[where[::-1]] = np.conj(entry)
    return mat


def _two(value, row, other=1.0):
    """Two rows' right-hand sides or coefficients: ``value`` in row
    ``row``, ``other`` in the other."""
    return [value, other] if row == 0 else [other, value]


# how each input enters a problem: (the name its error gives, a setter
# of the problem, the drawn value, entry and row, and whether the entry
# is an imaginary part)
ENTRIES = {
    "rhs": ("rhs", lambda prob, v, where, row, imag: prob.add_constraints(
        scalars={0: ([0, 1], [1.0, 1.0])}, rhs=_two(v, row))),
    "updated rhs": ("rhs", lambda prob, v, where, row, imag: prob.updated(
        rhs=_two(v, row))),
    "matrix coefficient": (
        "constraint coeff[0]",
        lambda prob, v, where, row, imag: prob.add_constraints(
            matrix={0: ([0, 1], _two(
                _matrix(prob.matrix_vars[0].dim, where, v, imag), row,
                np.eye(prob.matrix_vars[0].dim)))},
            rhs=[1.0, 1.0])),
    "updated matrix coefficient": (
        "constraint coeff[0]",
        lambda prob, v, where, row, imag: prob.updated(coeffs={0: (
            {0: ([row], [_matrix(prob.matrix_vars[0].dim, where, v,
                                 imag)])}, {})})),
    "scalar coefficient": (
        "constraint scalar coeff[1]",
        lambda prob, v, where, row, imag: prob.add_constraints(
            scalars={1: ([0, 1], _two(v, row))}, rhs=[1.0, 1.0])),
    "updated scalar coefficient": (
        "constraint scalar coeff[0]",
        lambda prob, v, where, row, imag: prob.updated(coeffs={0: (
            {}, {0: ([row], [v])})})),
    "matrix cost": (
        "objective[0]",
        lambda prob, v, where, row, imag: prob.set_objective(matrix={
            0: _matrix(prob.matrix_vars[0].dim, where, v, imag)})),
    "scalar cost": (
        "objective scalar[1]",
        lambda prob, v, where, row, imag: prob.set_objective(
            scalar={1: v})),
    "updated scalar cost": (
        "objective scalar[0]",
        lambda prob, v, where, row, imag: prob.updated(scalar={0: v})),
    "quadratic cost": (
        "objective scalar_quad[0]",
        lambda prob, v, where, row, imag: prob.set_objective(
            scalar_quad={0: v})),
}


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(sorted(ENTRIES)),
       dim=st.integers(1, 4), complex=st.booleans(), value=NON_FINITE,
       row=st.integers(0, 1))
def test_conic_input_is_named(data, kind, dim, complex, value, row):
    where = _entry(data.draw, (dim, dim))
    imag = complex and data.draw(st.booleans())
    what, enter = ENTRIES[kind]
    prob = _problem(dim, complex)
    with pytest.raises(ValueError, match=re.escape(f"{what}: non-finite")):
        out = enter(prob, value, where, row, imag)
        # a problem that took the value would solve here, to numpy's
        # error or to a result
        solve(out if isinstance(out, ConicProblem) else prob)
