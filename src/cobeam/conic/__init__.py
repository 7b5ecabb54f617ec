"""Dense conic (SDP/LP) interior-point solver with dual extraction, and
the scheduler that batches the solves of several algorithms."""

from .ipm import (feasibility, solve, solve_batch,
                  verify_infeasibility_certificate)
from .linalg import numerical_rank, principal_eigenpair, psd_sqrt
from .problem import ConicProblem, ConicSolution, SolveStatus, dump_problem
from .schedule import check_feasibility, drive, driven, gather, solving

__all__ = [
    "ConicProblem", "ConicSolution", "SolveStatus",
    "solve", "solve_batch", "check_feasibility", "feasibility",
    "drive", "driven", "gather", "solving",
    "verify_infeasibility_certificate",
    "principal_eigenpair", "numerical_rank", "psd_sqrt", "dump_problem",
]
