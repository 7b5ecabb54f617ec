"""Dense conic (SDP/LP) interior-point solver with dual extraction."""

from .ipm import (check_feasibility, solve, solve_batch,
                  verify_infeasibility_certificate)
from .linalg import numerical_rank, principal_eigenpair, psd_sqrt
from .problem import (ConicProblem, ConicSolution, SolveStatus, dump_problem,
                      embed_hermitian, embed_matrix, unembed_matrix)

__all__ = [
    "ConicProblem", "ConicSolution", "SolveStatus",
    "solve", "solve_batch", "check_feasibility",
    "verify_infeasibility_certificate",
    "principal_eigenpair", "numerical_rank", "psd_sqrt",
    "embed_hermitian", "embed_matrix", "unembed_matrix", "dump_problem",
]
