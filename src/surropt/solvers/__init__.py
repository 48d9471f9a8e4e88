"""Desk-scale solvers: simplex LP, branch-and-bound MILP, Frank-Wolfe QP,
activation-pattern solvers for complementarity models, a dense dual
active-set QP, and the embedded SQP solver."""

from .result import NumericalError, SolveResult, SolverError, Status, TraceRecord
from .simplex import lp_solve

__all__ = [
    "NumericalError",
    "SolveResult",
    "SolverError",
    "Status",
    "TraceRecord",
    "lp_solve",
]
