"""Branch and bound over binary variables with simplex (or Frank-Wolfe for
convex-quadratic objectives) node relaxations.

Node selection is best-bound with a depth-first dive until the first
incumbent: the open list is a stack during the dive and a heap after it.
Branching picks the most fractional binary.  Single-threaded and
deterministic.  Each new incumbent, and every ``LOG_EVERY_NODES`` explored
nodes, is logged at INFO with the bound, the gap and the open and explored
node counts.
"""

from __future__ import annotations

import heapq
import logging
import math
import time

import numpy as np

from ..model import BINARY, Model
from .frank_wolfe import FW_TOL, solve_relaxation
from .result import SolveResult, Status
from .simplex import standard_form

INT_TOL = 1e-6
GAP_TOL = 1e-6
FEAS_TOL = 1e-6
LOG_EVERY_NODES = 100

log = logging.getLogger(__name__)


def milp_solve(model: Model, warmstart=None, max_nodes: int = 100000,
               time_limit: float | None = None) -> SolveResult:
    """Solve a model with binary variables to global optimality.

    ``warmstart`` is an incumbent point (var id -> value); it must be feasible
    and integral and is used to prune from the start.  With no binaries left,
    this reduces to a single relaxation solve.
    """
    if model.complementarities:
        raise ValueError("milp_solve does not accept complementarity pairs")
    sf = standard_form(model)
    bin_ids = np.array([v.id for v in model.variables
                        if v.kind == BINARY and v.lower < v.upper], dtype=int)
    sign = sf.sign

    incumbent_x = None
    incumbent = math.inf  # min space
    if warmstart is not None:
        arr = model.point_array(warmstart)
        if model.max_violation(arr) > FEAS_TOL:
            raise ValueError("warmstart point violates the model constraints")
        if bin_ids.size and np.abs(arr[bin_ids] - np.round(arr[bin_ids])).max() > INT_TOL:
            raise ValueError("warmstart point is not integral on the binaries")
        incumbent = sign * model.objective.value(arr)
        full = np.zeros(sf.A.shape[1])
        full[: model.num_variables] = arr
        incumbent_x = full

    deadline = time.monotonic() + time_limit if time_limit is not None else None
    # open nodes as (bound, seq, lower, upper, parent (basis, state)); seq is
    # unique, so comparisons never reach the arrays.  Only the last solved
    # node's warm-start handle keeps its basis inverse (m^2 floats), for the
    # node popped next when that is its child, as in a dive.
    nodes = [(-math.inf, 0, sf.lower.copy(), sf.upper.copy(), None)]
    last = None
    heaped = False
    seq = 1
    explored = 0
    limit_hit = False
    lost_bound = math.inf  # parent bounds of nodes whose relaxation hit a limit
    while nodes:
        if explored >= max_nodes or (deadline is not None and time.monotonic() >= deadline):
            limit_hit = True
            break
        if incumbent_x is None:
            node = nodes.pop()  # dive for a first incumbent
        else:
            if not heaped:
                heapq.heapify(nodes)
                heaped = True
            node = heapq.heappop(nodes)
        bound0, _, lo, up, basis = node
        if bound0 >= incumbent - GAP_TOL:
            continue
        explored += 1
        if explored % LOG_EVERY_NODES == 0 and log.isEnabledFor(logging.INFO):
            _log_progress(sign, incumbent, [bound0, lost_bound], nodes, explored)
        if basis and last and basis[0] is last[0]:
            basis = last
        status, x, val, gap, _, basis = solve_relaxation(sf, lo, up, tol=FW_TOL, basis=basis,
                                                         deadline=deadline)
        last = basis or last
        if status == "infeasible":
            continue
        if status == "unbounded":
            return SolveResult(status=Status.UNBOUNDED, iterations=explored)
        if status == "limit":
            limit_hit = True
            lost_bound = min(lost_bound, bound0)
            continue
        bound = val - gap
        if bound >= incumbent - GAP_TOL:
            continue
        frac = np.abs(x[bin_ids] - np.round(x[bin_ids])) if bin_ids.size else np.empty(0)
        if frac.size == 0 or frac.max() <= INT_TOL:
            if val < incumbent - 1e-12:
                incumbent = val
                incumbent_x = x.copy()
                if log.isEnabledFor(logging.INFO):
                    _log_progress(sign, val, [lost_bound], nodes, explored)
            continue
        j = int(bin_ids[np.abs(frac - 0.5).argmin()])
        parked = basis and basis[:2]
        for branch_val in (0.0, 1.0):
            lo2, up2 = lo.copy(), up.copy()
            if branch_val == 0.0:
                up2[j] = 0.0
            else:
                lo2[j] = 1.0
            (heapq.heappush if heaped else list.append)(nodes, (bound, seq, lo2, up2, parked))
            seq += 1

    open_bound = min((node[0] for node in nodes), default=incumbent)
    best_bound = min(incumbent, open_bound, lost_bound)
    res = SolveResult(status=Status.INFEASIBLE, iterations=explored, nodes=explored)
    if incumbent_x is not None:
        res.point = {vid: float(incumbent_x[vid]) for vid in range(model.num_variables)}
        res.objective = sign * incumbent
        res.best_bound = sign * best_bound
        res.status = Status.FEASIBLE if limit_hit else Status.OPTIMAL
    elif limit_hit:
        res.status = Status.LIMIT
        res.best_bound = sign * best_bound
    return res


def _log_progress(sign, incumbent, bounds, nodes, explored):
    """One INFO line in the model's orientation; the bound is the least of
    ``bounds``, the open nodes' bounds and the incumbent (all in min space)."""
    low = min([incumbent, *bounds] + [n[0] for n in nodes])
    log.info("incumbent %.10g, bound %.10g, gap %.3g, %d open, %d explored",
             sign * incumbent, sign * low, incumbent - low, len(nodes), explored)
