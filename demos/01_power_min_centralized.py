"""Walk through the centralized power-minimization design on one draw.

Builds a two-cell network with two multicast groups per cell, solves the
relaxed covariance problem, extracts beamformers, and verifies that every
user's achieved SINR meets its target with equality.
"""

import numpy as np

from cobeam import (build_topology, evaluate_sinr, sample_channels,
                    solve_centralized, sum_power)

gamma_db = 1.0
topo = build_topology(B=2, G=4, U=8, A=12,
                      gamma=10 ** (gamma_db / 10),
                      cell_separation=10 ** 0.1)
chans = sample_channels(topo, seed=2024)

sol = solve_centralized(chans, topo, gr_count=100,
                        rng=np.random.default_rng(1))

print(f"network: B={topo.B} cells, G={topo.G} groups, U={topo.U} users, "
      f"A={topo.A} antennas, target {gamma_db} dB")
print(f"relaxation optimum : {sol.sdr_objective:.6f} W")
print(f"achieved sum power : {sum_power(sol):.6f} W "
      f"(randomized: {sol.used_randomization})")
print(f"covariance ranks   : {sol.sdr_rank}")
print("\nper-group transmit powers:")
for g, p in enumerate(sol.p):
    print(f"  group {g} (BS {topo.bs_of_group[g]}): {p:.4f} W")

print("\nachieved SINR vs target (should meet with equality):")
for u in range(topo.U):
    sinr = evaluate_sinr(chans, sol, u, topo)
    print(f"  user {u}: {10 * np.log10(sinr):6.3f} dB "
          f"(target {gamma_db:.3f} dB)")
