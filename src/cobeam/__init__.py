"""Coordinated multi-cell multigroup multicast beamforming toolkit.

Centralized and distributed sum-power minimization, max-min SINR
balancing, Gaussian randomization, and backhaul signaling accounting,
built on an in-package dense conic interior-point solver.
"""

from .network import (BeamformingSolution, ChannelSet, Topology,
                      build_topology, evaluate_sinr,
                      orthogonal_equivalent_target, sample_channels,
                      sum_power)
from .power_min import (assemble_qos_sdp, candidate_power_lp,
                        gaussian_candidates, solve_centralized)
from .distributed import (ConvergenceTrace, IciState,
                          admm_feasibility_restore, run_admm,
                          run_primal_decomposition, solve_fixed_ici,
                          solve_nulling)
from .balancing import (achieved_min_sinr, balance_centralized,
                        balance_distributed, balance_uncoordinated,
                        bisect_balance, local_balance,
                        uncoordinated_balance)
from .backhaul import (MessageBus, centralized_signaling_load,
                       periter_signaling_load, verify_exchange_count)
from .experiment import (ScenarioConfig, emit_results, parse_scenario,
                         run_sweep, summarize)

__version__ = "0.1.0"

__all__ = [
    "Topology", "ChannelSet", "BeamformingSolution",
    "build_topology", "sample_channels", "evaluate_sinr", "sum_power",
    "orthogonal_equivalent_target",
    "assemble_qos_sdp", "solve_centralized", "gaussian_candidates",
    "candidate_power_lp",
    "IciState", "ConvergenceTrace",
    "run_primal_decomposition", "run_admm", "admm_feasibility_restore",
    "solve_fixed_ici", "solve_nulling",
    "bisect_balance", "balance_centralized", "balance_distributed",
    "balance_uncoordinated", "local_balance", "uncoordinated_balance",
    "achieved_min_sinr",
    "MessageBus", "centralized_signaling_load",
    "periter_signaling_load", "verify_exchange_count",
    "ScenarioConfig", "parse_scenario", "run_sweep", "emit_results",
    "summarize",
]
