"""The stacked SINR-system builder against the loop builder it replaced.

``loop_sinr_system`` adds one row at a time, one (user, group) block at
a time, through :meth:`ConicProblem.add_constraint`.  It is the oracle
of :func:`power_min.sinr_system`, which builds each row family as one
stack through :meth:`ConicProblem.add_constraints`: the two problems
must carry equal entries and compile to equal rows, bit for bit.
"""

import itertools

import numpy as np
import pytest

from cobeam.conic import ConicProblem
from cobeam.conic.problem import CompiledProblem
from cobeam.network import build_topology, sample_channels
from cobeam.power_min import _sinr_data, sinr_system, sinr_update


def loop_sinr_system(channels, topology, cell=None, level=None, theta=None,
                     copies=None, budget=False, objective=True, basis=None):
    """:func:`power_min.sinr_system` row by row and block by block."""
    groups = range(topology.G) if cell is None \
        else topology.groups_of_bs(cell)
    users = range(topology.U) if cell is None else topology.users_of_bs(cell)
    dim = topology.A if basis is None else basis.shape[1]
    peers = [j for j in range(topology.B) if j != cell]
    prob = ConicProblem()
    for g in groups:
        prob.add_psd_var(dim, name=f"W{g}")
    copy_slot = np.full((topology.B, topology.U), -1)
    rhs, linear = _sinr_data(topology, cell, level, theta, copies)
    if copies is not None:
        for j, u in zip(*np.nonzero(topology.ici_owned(cell).any(axis=0))):
            copy_slot[j, u] = prob.add_scalar_var(name=f"theta~({j}, {u})")
    if objective:
        prob.set_objective(matrix={k: np.eye(dim)
                                   for k in range(len(groups))},
                           scalar=linear,
                           scalar_quad=dict.fromkeys(linear, copies[1])
                           if copies is not None else None)
    slots = copy_slot.tolist()

    def channel(b, u):
        if basis is None:
            return channels.mat(b, u)
        h = basis.conj().T @ channels.vec(b, u)
        return np.outer(h, h.conj())

    rhs = iter(rhs)
    for u in users:
        t = topology.gamma[u] if level is None else level
        mats = {}
        for k, g in enumerate(groups):
            H = channel(topology.bs_of_group[g], u)
            mats[k] = H if g == topology.group_of_user[u] else -t * H
        scalars = {slots[j][u]: -t for j in peers} \
            if copies is not None else None
        prob.add_constraint(matrix=mats, scalars=scalars, rel=">=",
                            rhs=next(rhs), label=("sinr", u))
    for u, cap in zip(topology.out_of_cell_users(cell), rhs):
        prob.add_constraint(
            matrix={k: channel(cell, u) for k in range(len(groups))},
            scalars={slots[cell][u]: -1.0} if copies is not None else None,
            rel="<=", rhs=cap, label=("cap", (cell, u)))
    if budget:
        for b in range(topology.B) if cell is None else [cell]:
            prob.add_constraint(
                matrix={k: np.eye(dim) for k, g in enumerate(groups)
                        if topology.bs_of_group[g] == b},
                rel="<=", rhs=float(topology.p_max[b]), label=("power", b))
    return prob, copy_slot


def assert_same_problem(got, want):
    assert got.matrix_vars == want.matrix_vars
    assert got.scalar_names == want.scalar_names
    assert got.obj_scalar == want.obj_scalar
    assert got.obj_scalar_quad == want.obj_scalar_quad
    assert got.obj_matrix.keys() == want.obj_matrix.keys()
    for i, C in want.obj_matrix.items():
        assert np.array_equal(got.obj_matrix[i], C)
    assert len(got.constraints) == len(want.constraints)
    for g, w in zip(got.constraints, want.constraints):
        assert (g.label, g.relation, g.rhs, g.scalar_coeffs) \
            == (w.label, w.relation, w.rhs, w.scalar_coeffs)
        assert g.matrix_coeffs.keys() == w.matrix_coeffs.keys(), w.label
        for i, F in w.matrix_coeffs.items():
            assert np.array_equal(g.matrix_coeffs[i], F), (w.label, i)
    got, want = CompiledProblem(got), CompiledProblem(want)
    for name in ("A", "b", "c", "qdiag", "row_scale"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(got.A_blocks) == len(want.A_blocks)
    for g, w in zip(got.A_blocks, want.A_blocks):
        assert np.array_equal(g, w)
    assert got.shape == want.shape


GAMMA_1DB = 10 ** 0.1
# two groups per cell, and three cells of one group each
TOPOLOGIES = [dict(B=2, G=4, U=8, A=4), dict(B=3, G=3, U=6, A=5)]


@pytest.mark.parametrize("shape", TOPOLOGIES, ids=["B2G4", "B3G3"])
@pytest.mark.parametrize("level", [None, 2.5])
def test_network_matches_loop_builder(shape, level):
    topo = build_topology(gamma=GAMMA_1DB, cell_separation=GAMMA_1DB,
                          p_max=3.0, **shape)
    chans = sample_channels(topo, 11)
    for budget, objective in itertools.product([False, True], repeat=2):
        kwargs = dict(level=level, budget=budget, objective=objective)
        got, slot = sinr_system(chans, topo, **kwargs)
        want, want_slot = loop_sinr_system(chans, topo, **kwargs)
        assert np.array_equal(slot, want_slot)
        assert_same_problem(got, want)


@pytest.mark.parametrize("shape", TOPOLOGIES, ids=["B2G4", "B3G3"])
@pytest.mark.parametrize("level", [None, 2.5])
@pytest.mark.parametrize("theta", ["none", "scalar", "grid"])
def test_cell_matches_loop_builder(shape, level, theta):
    topo = build_topology(gamma=GAMMA_1DB, cell_separation=GAMMA_1DB,
                          p_max=3.0, **shape)
    chans = sample_channels(topo, 12)
    rng = np.random.default_rng(4)
    grid = np.where(topo.ici_mask(), rng.uniform(0.0, 2.0, (topo.B, topo.U)),
                    0.0)
    theta = {"none": None, "scalar": 0.3, "grid": grid}[theta]
    copies = (rng.normal(size=(topo.B, topo.U)), 1.7)
    q, _ = np.linalg.qr(rng.normal(size=(topo.A, 3))
                        + 1j * rng.normal(size=(topo.A, 3)))
    for cell, copy, budget, objective, basis in itertools.product(
            range(topo.B), [None, copies], [False, True], [False, True],
            [None, q]):
        kwargs = dict(cell=cell, level=level, theta=theta, copies=copy,
                      budget=budget, objective=objective, basis=basis)
        got, slot = sinr_system(chans, topo, **kwargs)
        want, want_slot = loop_sinr_system(chans, topo, **kwargs)
        assert np.array_equal(slot, want_slot)
        assert_same_problem(got, want)


class TestSinrUpdateLevel:
    """A level scales the -t H blocks of the network and of a cell of
    several groups, and the -t weights of a cell's copies, which an
    update does not touch: such an update raises."""

    def test_multi_group_cell_raises(self):
        topo = build_topology(B=2, G=4, U=8, A=4, gamma=GAMMA_1DB)
        chans = sample_channels(topo, 3)
        kept = sinr_system(chans, topo, cell=0, level=1.0, theta=0.1,
                           budget=True, objective=False)[0]
        with pytest.raises(ValueError, match="level"):
            sinr_update(kept, topo, 0, level=5.0, theta=0.1)

    def test_network_raises(self):
        topo = build_topology(B=2, G=4, U=8, A=4, gamma=GAMMA_1DB)
        chans = sample_channels(topo, 3)
        kept = sinr_system(chans, topo, level=1.0, budget=True)[0]
        with pytest.raises(ValueError, match="level"):
            sinr_update(kept, topo, None, level=5.0)

    def test_copies_raise(self):
        topo = build_topology(B=2, G=2, U=4, A=4, gamma=GAMMA_1DB)
        chans = sample_channels(topo, 3)
        copies = (np.zeros((topo.B, topo.U)), 1.0)
        kept = sinr_system(chans, topo, cell=0, level=1.0,
                           copies=copies)[0]
        with pytest.raises(ValueError, match="level"):
            sinr_update(kept, topo, 0, level=5.0, copies=copies)
