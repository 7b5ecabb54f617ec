"""The stacked SINR-system builder against the loop builder it replaced,
and its channel spans against the full antenna space.

``loop_sinr_system`` (conftest) adds one row at a time, one (user,
group) block at a time, through :meth:`ConicProblem.add_constraint`.  It
is the oracle of :func:`power_min.sinr_system`, which builds each row
family as one stack through :meth:`ConicProblem.add_constraints`: at the
bases the builder chose, the two problems must carry equal entries and
compile to equal rows, bit for bit.  Where a BS's in-scope users are
fewer than the dimensions, the builder confines its covariances to their
channel span; :class:`TestChannelSpan` checks the reduced problems
against the oracle's full-dimension ones by solving both.
"""

import itertools

import numpy as np
import pytest
from conftest import assert_same_compile, loop_sinr_system

from cobeam import conic
from cobeam.balancing import bisect, single_user_upper_bound
from cobeam.conic import SolveStatus
from cobeam.conic.problem import CompiledProblem
from cobeam.distributed import _null_space_basis
from cobeam.network import ChannelSet, build_topology, sample_channels
from cobeam.power_min import covariances, sinr_system, sinr_update


def rows_of(problem):
    """Each row's label, relation, right-hand side, scalar coefficients
    {j: a} and matrix coefficients {i: F}, read from its row family."""
    def read(fam, r, coeffs):
        return {i: c[k] for i, (rows, c) in coeffs.items()
                for k in np.flatnonzero(rows == r)}
    return [(label, fam.relation, rhs, read(fam, r, fam.scalars),
             read(fam, r, fam.matrix))
            for fam in problem.families
            for r, (label, rhs) in enumerate(zip(fam.labels, fam.rhs))]


def assert_same_problem(got, want):
    assert got.matrix_vars == want.matrix_vars
    assert got.scalar_names == want.scalar_names
    assert got.obj_scalar == want.obj_scalar
    assert got.obj_scalar_quad == want.obj_scalar_quad
    assert got.obj_matrix.keys() == want.obj_matrix.keys()
    for i, C in want.obj_matrix.items():
        assert np.array_equal(got.obj_matrix[i], C)
    got_rows, want_rows = rows_of(got), rows_of(want)
    assert len(got_rows) == len(want_rows)
    for (*g, g_mats), (*w, w_mats) in zip(got_rows, want_rows):
        assert g == w
        assert g_mats.keys() == w_mats.keys(), w[0]
        for i, F in w_mats.items():
            assert np.array_equal(g_mats[i], F), (w[0], i)
    got, want = CompiledProblem(got), CompiledProblem(want)
    for name in ("A", "b", "c", "qdiag", "row_scale"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(got.A_blocks) == len(want.A_blocks)
    for g, w in zip(got.A_blocks, want.A_blocks):
        assert np.array_equal(g, w)
    assert got.shape == want.shape


def seen_users(topo, cell=None, theta=None, copies=None):
    """The users whose rows read the covariances of ``cell`` (None: the
    network): a cell's own, and every user once it has cap rows."""
    if cell is None or theta is not None or copies is not None:
        return list(range(topo.U))
    return topo.users_of_bs(cell)


def span_projector(chans, b, users, basis=None):
    """The orthogonal projector onto the span of BS b's channels toward
    ``users`` seen through ``basis``, from a QR factorization of the
    channels as columns."""
    h = chans.h[b, users].T
    if basis is not None:
        h = basis @ (basis.conj().T @ h)
    q, _ = np.linalg.qr(h)
    return q @ q.conj().T


def assert_span_rule(prob, chans, topo, cell=None, theta=None, copies=None,
                     basis=None, **_):
    """Each group's basis is ``basis`` when its BS's in-scope users are
    at least its dimensions, else orthonormal columns spanning their
    channels seen through ``basis``."""
    users = seen_users(topo, cell, theta, copies)
    groups = range(topo.G) if cell is None else topo.groups_of_bs(cell)
    full = topo.A if basis is None else basis.shape[1]
    assert len(prob.bases) == len(groups)
    for g, Q in zip(groups, prob.bases):
        if len(users) >= full:
            assert Q is basis
            continue
        assert Q.shape == (topo.A, len(users))
        assert np.abs(Q.conj().T @ Q - np.eye(len(users))).max() <= 1e-12
        P = span_projector(chans, topo.bs_of_group[g], users, basis)
        assert np.linalg.norm(Q - P @ Q) <= 1e-12


GAMMA_1DB = 10 ** 0.1
# two groups per cell, three cells of one group each, and a network whose
# users are fewer than its antennas
TOPOLOGIES = [dict(B=2, G=4, U=8, A=4), dict(B=3, G=3, U=6, A=5),
              dict(B=2, G=2, U=4, A=6)]
IDS = ["B2G4", "B3G3", "U4A6"]


@pytest.mark.parametrize("shape", TOPOLOGIES, ids=IDS)
@pytest.mark.parametrize("level", [None, 2.5])
def test_network_matches_loop_builder(shape, level):
    topo = build_topology(gamma=GAMMA_1DB, cell_separation=GAMMA_1DB,
                          p_max=3.0, **shape)
    chans = sample_channels(topo, 11)
    for budget, objective in itertools.product([False, True], repeat=2):
        kwargs = dict(level=level, budget=budget, objective=objective)
        got, slot = sinr_system(chans, topo, **kwargs)
        assert_span_rule(got, chans, topo)
        want, want_slot = loop_sinr_system(chans, topo, bases=got.bases,
                                           **kwargs)
        assert np.array_equal(slot, want_slot)
        assert_same_problem(got, want)


@pytest.mark.parametrize("shape", TOPOLOGIES, ids=IDS)
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
        assert_span_rule(got, chans, topo, **kwargs)
        del kwargs["basis"]
        want, want_slot = loop_sinr_system(chans, topo, bases=got.bases,
                                           **kwargs)
        assert np.array_equal(slot, want_slot)
        assert_same_problem(got, want)


class TestChannelSpan:
    """Random instances whose in-scope users are fewer than the
    antennas: the builder's reduced problem against the oracle's
    full-dimension one, solved."""

    SHAPES = [dict(B=2, G=2, U=4, A=6), dict(B=2, G=2, U=2, A=6),
              dict(B=3, G=3, U=3, A=5)]
    SHAPE_IDS = ["U4A6", "U2A6", "B3U3A5"]
    CASES = ["network", "cell-none", "cell-scalar", "cell-grid", "copies",
             "nulling"]

    @staticmethod
    def instance(shape, case, seed):
        """(topology, channels, builder keywords) of one case."""
        topo = build_topology(gamma=GAMMA_1DB, cell_separation=GAMMA_1DB,
                              p_max=3.0, **shape)
        chans = sample_channels(topo, seed)
        rng = np.random.default_rng(seed)
        grid = np.where(topo.ici_mask(),
                        rng.uniform(0.05, 2.0, (topo.B, topo.U)), 0.0)
        cell = rng.integers(topo.B)
        kwargs = {
            "network": {},
            "cell-none": dict(cell=cell),
            "cell-scalar": dict(cell=cell, theta=0.3),
            "cell-grid": dict(cell=cell, theta=grid),
            "copies": dict(cell=cell, copies=(
                rng.normal(size=(topo.B, topo.U)), 1.7)),
            "nulling": dict(cell=cell, basis=_null_space_basis(
                chans, topo, cell)),
        }[case]
        return topo, chans, kwargs

    @staticmethod
    def both(chans, topo, **kwargs):
        """The builder's problem and the oracle's at the full dimension,
        or at the nulling basis alone."""
        got = sinr_system(chans, topo, **kwargs)[0]
        full = dict(kwargs)
        basis = full.pop("basis", None)
        want = loop_sinr_system(chans, topo, bases=None if basis is None
                                else [basis] * len(got.bases), **full)[0]
        assert all(g.dim < w.dim for g, w in zip(got.matrix_vars,
                                                 want.matrix_vars))
        return got, want

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_optimum_and_span(self, shape, case):
        for seed, budget in itertools.product([21, 22], [False, True]):
            topo, chans, kwargs = self.instance(shape, case, seed)
            got, want = self.both(chans, topo, budget=budget, **kwargs)
            assert_span_rule(got, chans, topo, **kwargs)
            sol, ref = conic.solve(got), conic.solve(want)
            assert sol.status is ref.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(ref.objective, rel=1e-7)
            # the lifted covariances have no component off the span
            cell = kwargs.get("cell")
            users = seen_users(topo, cell, kwargs.get("theta"),
                               kwargs.get("copies"))
            groups = range(topo.G) if cell is None \
                else topo.groups_of_bs(cell)
            for g, W in zip(groups, covariances(got, sol)):
                P = span_projector(chans, topo.bs_of_group[g], users,
                                   kwargs.get("basis"))
                assert np.linalg.norm(W - P @ W @ P) \
                    <= 1e-12 * np.linalg.norm(W)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_feasible_levels(self, shape, case):
        topo, chans, kwargs = self.instance(shape, case, 23)
        cell = kwargs.get("cell")
        upper = single_user_upper_bound(
            chans, topo, None if cell is None else topo.users_of_bs(cell))

        def decide(t):
            got, want = self.both(chans, topo, level=t, budget=True,
                                  objective=False, **kwargs)
            feasible = conic.check_feasibility(want)
            assert conic.check_feasibility(got) is feasible, t
            return feasible, None

        # the full system's balanced level to 1e-3, then random levels
        # within a factor two of it
        level = bisect(0.0, upper, 1e-3 * upper, decide).t
        rng = np.random.default_rng(24)
        decisions = [decide(t)[0]
                     for t in level * 2.0 ** rng.uniform(-1.0, 1.0, 6)]
        assert True in decisions and False in decisions

    def test_zero_channels_keep_the_antenna_space(self):
        # the only user of cell 1 hears nothing from its BS: no span to
        # narrow to, and no way to serve it
        topo = build_topology(B=2, G=2, U=2, A=6, gamma=GAMMA_1DB)
        h = np.array(sample_channels(topo, 25).h)
        h[1, 1] = 0.0
        chans = ChannelSet(h=h, outer=np.einsum("bui,buj->buij", h,
                                                h.conj()))
        prob = sinr_system(chans, topo, cell=1)[0]
        assert prob.bases == [None]
        assert conic.solve(prob).status is SolveStatus.INFEASIBLE


class TestSinrUpdateLevel:
    """A level scales the -t H blocks of the network and of a cell of
    several groups, and the -t weights of a cell's copies: an update of
    a problem kept at level 0 builds its SINR rows anew, and at every
    level it equals the loop builder's problem and its compiled form a
    fresh compile, bit for bit."""

    @staticmethod
    def check(chans, topo, cell, **kwargs):
        kept = sinr_system(chans, topo, cell=cell, level=0.0, **kwargs)[0]
        moved = {k: v for k, v in kwargs.items() if k in ("theta", "copies")}
        for level in (2.5, 0.0, 5.0):
            got = sinr_update(kept, chans, topo, cell, level=level, **moved)
            assert_same_problem(got, loop_sinr_system(
                chans, topo, cell=cell, level=level, bases=kept.bases,
                **kwargs)[0])
            assert_same_compile(got, sinr_system(
                chans, topo, cell=cell, level=level, **kwargs)[0])

    def test_multi_group_cell(self):
        topo = build_topology(B=2, G=4, U=8, A=4, gamma=GAMMA_1DB)
        self.check(sample_channels(topo, 3), topo, 0, theta=0.1,
                   budget=True, objective=False)

    def test_network(self):
        topo = build_topology(B=2, G=4, U=8, A=4, gamma=GAMMA_1DB)
        self.check(sample_channels(topo, 3), topo, None, budget=True)

    def test_copies(self):
        topo = build_topology(B=2, G=2, U=4, A=4, gamma=GAMMA_1DB)
        self.check(sample_channels(topo, 3), topo, 0,
                   copies=(np.zeros((topo.B, topo.U)), 1.0))
