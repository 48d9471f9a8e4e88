"""Common result types shared by every solver in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class Status(Enum):
    OPTIMAL = "Optimal"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    LIMIT = "LimitReached"
    STALLED = "Stalled"


@dataclass
class SolveResult:
    status: Status
    point: dict = field(default_factory=dict)  # var id -> value
    objective: float = math.nan
    best_bound: float = math.nan
    iterations: int = 0
    duals: dict = field(default_factory=dict)  # constraint index -> dy/d(rhs)
    reduced_costs: dict = field(default_factory=dict)  # var id -> reduced cost
    kkt_residual: float = math.nan
    dual_objective: float = math.nan
    # B&B nodes explored, patterns an MPCC local search evaluated, or LPs the
    # pattern oracle solved (a Frank-Wolfe leaf counts as one)
    nodes: int = 0
    pattern: frozenset | None = None  # pattern-based solvers only

    @property
    def ok(self) -> bool:
        return self.status in (Status.OPTIMAL, Status.FEASIBLE)


@dataclass
class TraceRecord:
    iteration: int
    objective: float
    primal_infeasibility: float
    dual_infeasibility: float

    def __post_init__(self):
        if self.primal_infeasibility < 0 or self.dual_infeasibility < 0:
            raise ValueError("infeasibilities must be nonnegative")


class SolverError(Exception):
    """Base class for solver failures."""


class NumericalError(SolverError):
    """The linear algebra gave up (singular basis after retries, NaNs, ...)."""
