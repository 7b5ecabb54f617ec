"""Least feasible powers of fixed-direction problems, checked by HiGHS."""

import numpy as np
import pytest

from cobeam.distributed import local_randomization_lp
from cobeam.network import build_topology, sample_channels
from cobeam.power_min import direction_gains, least_powers


def assert_agree(p, x):
    """Feasibility agrees exactly; powers agree to 1e-7 relative."""
    if x is None:
        assert np.isinf(p).all()
    else:
        np.testing.assert_allclose(p, x, rtol=1e-7)


def random_instance(rng, C, G, per):
    U = G * per
    own = np.arange(U) % G
    # gains spread over three decades, per-user targets and noise
    gains = rng.exponential(size=(C, U, G)) \
        * 10 ** rng.uniform(-3, 0, size=(C, U, G))
    gamma = 10 ** rng.uniform(-1, 0.5, size=U)
    noise = rng.uniform(0.5, 2.0, size=U)
    return gains, own, gamma, noise


class TestAgainstHighs:
    def test_random_batches(self, highs_powers):
        rng = np.random.default_rng(31)
        outcomes = set()
        for G, per in [(1, 1), (1, 4), (2, 1), (2, 5), (3, 2), (4, 3)]:
            for _ in range(6):
                gains, own, gamma, noise = random_instance(rng, 8, G, per)
                P = least_powers(gains, own, gamma, noise)
                for c in range(8):
                    x = highs_powers(gains[c], own, gamma, noise)
                    assert_agree(P[c], x)
                    outcomes.add(x is None)
        assert outcomes == {True, False}

    def test_single_group_closed_form(self, highs_powers):
        gains = np.array([[[0.5], [2.0], [0.1]]])
        gamma, noise = np.array([1.0, 3.0, 0.2]), np.array([1.0, 1.0, 2.0])
        p = least_powers(gains, [0, 0, 0], gamma, noise)
        assert p[0, 0] == pytest.approx(max(gamma * noise / gains[0, :, 0]),
                                        rel=1e-15)
        assert_agree(p[0], highs_powers(gains[0], [0, 0, 0], gamma, noise))

    def test_zero_own_gain(self, highs_powers):
        rng = np.random.default_rng(32)
        gains, own, gamma, noise = random_instance(rng, 4, 2, 3)
        gains[:, np.arange(6), own] += 1.0
        gamma = np.full(6, 0.1)
        gains[1, 4, own[4]] = 0.0
        P = least_powers(gains, own, gamma, noise)
        assert np.isinf(P[1]).all()
        assert np.isfinite(P[[0, 2, 3]]).all()
        for c in range(4):
            assert_agree(P[c], highs_powers(gains[c], own, gamma, noise))

    def test_direction_orthogonal_to_a_channel(self, highs_powers):
        topo = build_topology(B=1, G=2, U=4, A=2, gamma=0.5)
        chans = sample_channels(topo, 33)
        h = chans.h[0]
        # group 0's direction is orthogonal to user 2, one of its users
        orth = np.array([-h[2, 1].conj(), h[2, 0].conj()])
        V = np.stack([orth / np.linalg.norm(orth),
                      h[1] / np.linalg.norm(h[1])])[None]
        gains = direction_gains(h, V)
        assert gains[0, 2, 0] == 0.0
        p = least_powers(gains, topo.group_of_user, topo.gamma, topo.sigma2)
        # HiGHS sees the raw, roundoff-sized gain
        raw = np.array([[abs(np.vdot(h[u], V[0, g])) ** 2 for g in range(2)]
                        for u in range(4)])
        assert 0 < raw[2, 0] < 1e-28
        assert_agree(p[0], highs_powers(raw, topo.group_of_user, topo.gamma,
                                        topo.sigma2))

    @pytest.mark.parametrize("factor", [1 - 1e-4, 1 + 1e-4])
    def test_targets_at_the_feasibility_threshold(self, highs_powers,
                                                  factor):
        rng = np.random.default_rng(34)
        gains, own, _, noise = random_instance(rng, 6, 2, 4)
        for c in range(6):
            # two groups: feasible iff gamma^2 max_u r_u max_v r_v < 1,
            # r the cross-to-own gain ratio of a user
            ratio = gains[c, np.arange(8), 1 - own] \
                / gains[c, np.arange(8), own]
            threshold = 1 / np.sqrt(ratio[own == 0].max()
                                    * ratio[own == 1].max())
            gamma = np.full(8, threshold * factor)
            p = least_powers(gains[c:c + 1], own, gamma, noise)[0]
            x = highs_powers(gains[c], own, gamma, noise)
            assert (x is None) == (factor > 1)
            assert_agree(p, x)

    def test_zero_target_asks_nothing(self, highs_powers):
        # a user at target zero needs no power, even with no own gain
        rng = np.random.default_rng(37)
        gains, own, gamma, noise = random_instance(rng, 1, 2, 2)
        gains[0, 1, own[1]] = 0.0
        gamma[1] = 0.0
        p = least_powers(gains, own, gamma, noise)
        assert_agree(p[0], highs_powers(gains[0], own, gamma, noise))
        zero = least_powers(gains, own, np.zeros(4), noise)
        np.testing.assert_array_equal(zero, 0.0)

    def test_singular_policy_system(self, highs_powers):
        # gamma exactly at the threshold: I - D is singular
        gains = np.ones((1, 2, 2))
        p = least_powers(gains, [0, 1], [1.0, 1.0], [1.0, 1.0])
        assert np.isinf(p).all()
        assert highs_powers(gains[0], [0, 1], [1.0, 1.0], [1.0, 1.0]) is None

    def test_batch_rows_match_single_solves(self):
        rng = np.random.default_rng(35)
        gains, own, gamma, noise = random_instance(rng, 40, 3, 4)
        P = least_powers(gains, own, gamma, noise)
        for c in range(40):
            np.testing.assert_array_equal(
                P[c], least_powers(gains[c:c + 1], own, gamma, noise)[0])


class TestLocalLp:
    def test_incoming_ici_and_outgoing_caps(self, highs_powers):
        topo = build_topology(B=2, G=4, U=8, A=4, gamma=0.5,
                              cell_separation=10 ** 0.1)
        rng = np.random.default_rng(36)
        outcomes = set()
        for trial in range(40):
            chans = sample_channels(topo, 100 + trial)
            for b in range(topo.B):
                # outgoing caps of BS b, and the other BS's ICI into b
                theta = np.zeros((topo.B, topo.U))
                for j, u in zip(*np.nonzero(topo.ici_mask())):
                    theta[j, u] = 10 ** (rng.uniform(0, 1.5) if j == b
                                         else rng.uniform(-2, 0))
                groups = topo.groups_of_bs(b)
                cand = {}
                for g in groups:
                    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                    for u in topo.users_of_group(g):
                        v = v + chans.vec(b, u)
                    cand[g] = v / np.linalg.norm(v)
                users = topo.users_of_bs(b)
                others = topo.out_of_cell_users(b)

                def gain_rows(us):
                    return np.array([[abs(np.vdot(chans.vec(b, u),
                                                  cand[g])) ** 2
                                      for g in groups] for u in us])

                lp = (gain_rows(users),
                      [groups.index(topo.group_of_user[u]) for u in users],
                      topo.gamma[users],
                      topo.sigma2[users] + [sum(theta[j, u]
                                                for j in range(topo.B)
                                                if j != b) for u in users])
                x = highs_powers(*lp, cap_gains=gain_rows(others),
                                 caps=[theta[b, u] for u in others])
                got = local_randomization_lp(
                    b, chans, topo, np.array([cand[g] for g in groups]),
                    theta)
                if x is None:
                    assert got is None
                    outcomes.add("in-cell" if highs_powers(*lp) is None
                                 else "caps")
                else:
                    np.testing.assert_allclose(got, x, rtol=1e-7)
                    outcomes.add("feasible")
        assert outcomes == {"in-cell", "caps", "feasible"}
