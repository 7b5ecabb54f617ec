"""Topology, channel sampling, and SINR evaluation tests."""

import re

import numpy as np
import pytest

from cobeam import (balance_centralized, balance_distributed, run_admm,
                    run_primal_decomposition, solve_centralized,
                    solve_nulling)
from cobeam.errors import ConfigurationError, StateError
from cobeam.network import (BeamformingSolution, ChannelSet, build_topology,
                            evaluate_sinr, orthogonal_equivalent_target,
                            sample_channels, sum_power)


class TestTopology:
    def test_paper_setup_split(self):
        topo = build_topology(B=2, G=4, U=8, A=12)
        assert [len(topo.groups_of_bs(b)) for b in range(2)] == [2, 2]
        assert all(len(topo.users_of_group(g)) == 2 for g in range(4))

    def test_trivial_single_cell(self):
        topo = build_topology(B=1, G=1, U=1, A=2)
        assert topo.serving_bs(0) == 0
        assert not topo.ici_mask().any()

    def test_indivisible_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            build_topology(B=2, G=3, U=6, A=4)
        with pytest.raises(ConfigurationError):
            build_topology(B=2, G=4, U=6, A=4)

    def test_disjoint_cover(self):
        topo = build_topology(B=3, G=6, U=12, A=4)
        seen = []
        for g in range(topo.G):
            seen.extend(topo.users_of_group(g))
        assert sorted(seen) == list(range(topo.U))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            build_topology(B=1, G=1, U=1, A=2, gamma=0.0)
        with pytest.raises(ConfigurationError):
            build_topology(B=1, G=1, U=1, A=2, cell_separation=0.5)
        nan, inf = float("nan"), float("inf")
        for bad in ({"gamma": nan}, {"sigma2": nan}, {"p_max": nan},
                    {"gamma": inf}, {"sigma2": [1.0, inf]},
                    {"cell_separation": nan}, {"cell_separation": inf},
                    {"A": nan}, {"A": inf}):
            with pytest.raises(ConfigurationError):
                build_topology(**{"B": 1, "G": 1, "U": 2, "A": 2, **bad})

    def test_ici_pair_count(self):
        topo = build_topology(B=2, G=2, U=8, A=4)
        assert topo.ici_mask().shape == (2, 8)
        assert topo.ici_mask().sum() == 2 * 8 - 8

    @pytest.mark.parametrize("shape", [(1, 1, 2), (2, 4, 8), (3, 3, 6)])
    def test_ici_mask_order_is_pair_order(self, shape):
        B, G, U = shape
        topo = build_topology(B=B, G=G, U=U, A=2)
        pairs = [(j, u) for j in range(B) for u in range(U)
                 if topo.serving_bs(u) != j]
        assert list(zip(*np.nonzero(topo.ici_mask()))) == pairs

    def test_ici_grid_shapes(self):
        topo = build_topology(B=2, G=2, U=4, A=2)
        grid = np.arange(8.0).reshape(2, 4)
        assert np.array_equal(topo.ici_grid(0.5), np.full((2, 4), 0.5))
        assert np.array_equal(topo.ici_grid(np.float64(0.5)),
                              np.full((2, 4), 0.5))
        assert np.array_equal(topo.ici_grid(grid), grid)
        stack = np.arange(16.0).reshape(2, 2, 4)
        for bad in [np.ones(4), stack, np.ones((4, 2))]:
            with pytest.raises(ConfigurationError, match="shape"):
                topo.ici_grid(bad)
        # a cell that sees no ICI is theta=None to a design, never a grid
        for bad in [np.nan, np.inf, -0.1, None, np.where(grid > 6, -1, grid)]:
            with pytest.raises(ConfigurationError, match="finite"):
                topo.ici_grid(bad)


class TestChannels:
    def test_seed_determinism(self):
        topo = build_topology(B=2, G=2, U=4, A=3, cell_separation=2.0)
        c1 = sample_channels(topo, 123)
        c2 = sample_channels(topo, 123)
        assert np.array_equal(c1.h, c2.h)
        assert np.array_equal(c1.outer, c2.outer)

    def test_no_separation_statistics(self):
        # with d = 1 cross-cell entries share the in-cell distribution
        topo = build_topology(B=2, G=2, U=2, A=64, cell_separation=1.0)
        chans = sample_channels(topo, 7)
        in_cell = abs(chans.vec(topo.serving_bs(0), 0)) ** 2
        cross = abs(chans.vec(1 - topo.serving_bs(0), 0)) ** 2
        assert np.mean(in_cell) == pytest.approx(1.0, abs=0.35)
        assert np.mean(cross) == pytest.approx(1.0, abs=0.35)

    def test_large_separation_kills_cross_links(self):
        topo = build_topology(B=2, G=2, U=2, A=8, cell_separation=1e12)
        chans = sample_channels(topo, 5)
        u0 = 0
        other = 1 - topo.serving_bs(u0)
        assert np.abs(chans.vec(other, u0)).max() < 1e-5

    def test_mean_power_unit(self):
        topo = build_topology(B=1, G=1, U=4, A=64)
        total, count = 0.0, 0
        for seed in range(40):
            chans = sample_channels(topo, seed)
            total += float(np.sum(np.abs(chans.h) ** 2))
            count += chans.h.size
        assert count >= 10_000
        assert total / count == pytest.approx(1.0, rel=0.05)

    def test_outer_products(self):
        topo = build_topology(B=1, G=1, U=1, A=4)
        chans = sample_channels(topo, 3)
        H = chans.outer[0, 0]
        h = chans.vec(0, 0)
        assert np.allclose(H, np.outer(h, h.conj()))
        assert np.trace(H).real == pytest.approx(np.linalg.norm(h) ** 2)

    @pytest.mark.parametrize("design", [solve_centralized,
                                        balance_centralized])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_channel_is_named(self, design, value):
        # unchecked, an inf hangs in the channel span's SVD and a NaN
        # raises numpy's LinAlgError from it
        topo = build_topology(B=2, G=2, U=4, A=6, p_max=10.0,
                              cell_separation=1.26)
        h = np.array(sample_channels(topo, 0).h)
        h[0, 0, 0] = value
        with pytest.raises(ConfigurationError,
                           match=r"channel h\[0, 0, 0\] is not finite"):
            design(ChannelSet(h=h, outer=np.einsum("bui,buj->buij", h,
                                                   h.conj())), topo)

    def test_non_finite_outer_product_is_named(self):
        chans = sample_channels(build_topology(B=2, G=2, U=4, A=6), 0)
        outer = np.array(chans.outer)
        outer[1, 2, 3, 4] = np.nan
        with pytest.raises(ConfigurationError,
                           match=r"channel outer\[1, 2, 3, 4\]"):
            ChannelSet(h=chans.h, outer=outer)

    @pytest.mark.parametrize("design", [
        solve_centralized, balance_centralized, run_primal_decomposition,
        run_admm, solve_nulling,
        lambda chans, topo: balance_distributed(chans, topo, 1.0)],
        ids=["centralized", "balance-centralized", "primal-decomp", "admm",
             "nulling", "balance-distributed"])
    @pytest.mark.parametrize("drawn", [dict(A=5), dict(U=6), dict(B=3)],
                             ids=["A5", "U6", "B3"])
    def test_channels_of_another_shape_are_named(self, design, drawn):
        # unchecked, fewer antennas give beams of that size and more
        # users or base stations are silently read in part
        topo = build_topology(B=2, G=2, U=4, A=6, p_max=10.0,
                              cell_separation=1.26)
        shape = tuple({"B": 2, "U": 4, "A": 6, **drawn}.values())
        rng = np.random.default_rng(0)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        chans = ChannelSet(h=h, outer=np.einsum("bui,buj->buij", h, h.conj()))
        with pytest.raises(ConfigurationError, match=re.escape(
                f"channels h {chans.h.shape} and outer "
                f"{chans.outer.shape}; expected h (2, 4, 6) and outer "
                f"(2, 4, 6, 6)")):
            design(chans, topo)


def reference_sinr(channels, beams, u, topo):
    """Straight transcription of the SINR ratio, kept separate from the
    library implementation on purpose."""
    g_u = topo.group_of_user[u]
    num = 0.0
    den = float(topo.sigma2[u])
    for g in range(topo.G):
        b = topo.bs_of_group[g]
        h = channels.vec(b, u)
        val = abs(np.sum(h.conj() * beams[g])) ** 2
        if g == g_u:
            num = val
        else:
            den += val
    return num / den


class TestSinrEvaluation:
    def test_no_interference(self):
        topo = build_topology(B=1, G=1, U=1, A=2, sigma2=1.0)
        chans = sample_channels(topo, 1)
        h = chans.vec(0, 0)
        w = 2.0 * h / np.linalg.norm(h)
        sol = BeamformingSolution(w=w[None])
        expected = abs(np.vdot(h, w)) ** 2
        assert evaluate_sinr(chans, sol, 0, topo) == pytest.approx(expected)

    def test_orthogonal_interferer_is_invisible(self):
        topo = build_topology(B=1, G=2, U=2, A=2, sigma2=1.0)
        chans = sample_channels(topo, 2)
        h = chans.vec(0, 0)
        w0 = h / np.linalg.norm(h)
        w1 = np.array([-h[1].conj(), h[0].conj()])
        w1 = w1 / np.linalg.norm(w1)
        assert abs(np.vdot(h, w1)) < 1e-12
        sol = BeamformingSolution(w=np.array([w0, w1]))
        alone = BeamformingSolution(w=np.array([w0, np.zeros(2)]))
        assert evaluate_sinr(chans, sol, 0, topo) == pytest.approx(
            evaluate_sinr(chans, alone, 0, topo))

    def test_matches_independent_recomputation(self):
        topo = build_topology(B=2, G=2, U=4, A=3, cell_separation=1.5)
        chans = sample_channels(topo, 9)
        rng = np.random.default_rng(10)
        beams = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        sol = BeamformingSolution(w=beams)
        for u in range(4):
            assert evaluate_sinr(chans, sol, u, topo) == pytest.approx(
                reference_sinr(chans, beams, u, topo), rel=1e-12)

    def test_phase_rotation_invariance(self):
        topo = build_topology(B=1, G=2, U=2, A=3)
        chans = sample_channels(topo, 11)
        rng = np.random.default_rng(12)
        beams = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        rotated = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 1))) * beams
        for u in range(2):
            assert evaluate_sinr(chans, BeamformingSolution(w=beams), u,
                                 topo) == pytest.approx(
                evaluate_sinr(chans, BeamformingSolution(w=rotated), u,
                              topo))

    def test_channel_scaling_monotone(self):
        topo = build_topology(B=1, G=2, U=2, A=3, sigma2=1.0)
        chans = sample_channels(topo, 13)
        rng = np.random.default_rng(14)
        beams = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        sol = BeamformingSolution(w=beams)
        base = evaluate_sinr(chans, sol, 0, topo)
        scaled_chans = sample_channels(topo, 13)
        object.__setattr__(scaled_chans, "h", 2.0 * chans.h)
        object.__setattr__(scaled_chans, "outer", 4.0 * chans.outer)
        boosted = evaluate_sinr(scaled_chans, sol, 0, topo)
        assert boosted > base

    def test_missing_beamformer_raises(self):
        topo = build_topology(B=1, G=1, U=1, A=2)
        chans = sample_channels(topo, 1)
        with pytest.raises(StateError):
            evaluate_sinr(chans, BeamformingSolution(), 0, topo)


class TestScalarHelpers:
    def test_orthogonal_target_values(self):
        assert orthogonal_equivalent_target(1.0, 2) == pytest.approx(3.0)
        assert orthogonal_equivalent_target(0.7, 1) == pytest.approx(0.7)
        assert orthogonal_equivalent_target(3.0, 3) == pytest.approx(63.0)

    def test_sum_power_traces(self):
        sol = BeamformingSolution(W=np.array([np.diag([1.0, 0.5]),
                                              np.diag([2.0, 0.5])]))
        assert sum_power(sol) == pytest.approx(4.0)

    def test_sum_power_rank_one_agreement(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        with_mat = BeamformingSolution(W=np.outer(w, w.conj())[None])
        with_vec = BeamformingSolution(w=w[None])
        assert sum_power(with_mat) == pytest.approx(sum_power(with_vec))

    def test_sum_power_random_oracle(self):
        rng = np.random.default_rng(16)
        q = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        mats = q @ q.conj().transpose(0, 2, 1)
        expected = np.linalg.eigvalsh(mats).sum()
        assert sum_power(BeamformingSolution(W=mats)) == pytest.approx(
            expected)
