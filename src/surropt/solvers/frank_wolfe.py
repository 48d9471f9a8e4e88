"""Relaxation solves: the package simplex for linear objectives, Frank-Wolfe
(conditional gradient) for convex quadratic ones, with the simplex as the
linear-minimization oracle and exact line search; the duality gap certifies
suboptimality."""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from ..model import BINARY, Model
from .result import SolveResult, Status
from .simplex import (_STATUS_MAP, SimplexOut, result_from_simplex, solve_standard_form,
                      standard_form)

DEFAULT_TOL = 1e-6
FW_TOL = 1e-8  # the gap of relaxations inside B&B, the pattern oracle and MPCC search
DEFAULT_MAX_ITER = 100000


class Relaxation(NamedTuple):
    """One relaxation solve in min space; x is None and value inf unless optimal."""

    status: str  # optimal | infeasible | unbounded | limit
    x: np.ndarray | None
    value: float
    gap: float  # Frank-Wolfe duality gap: value - gap bounds the optimum
    lp: SimplexOut | None  # the simplex output of a linear objective
    basis: tuple | None = None  # the last simplex basis, to warm-start a related solve


def _quad_value(quad, x):
    return sum(c * x[i] * x[j] for i, j, c in quad)


def _quad_grad(quad, x, out):
    out[:] = 0.0
    for i, j, c in quad:
        if i == j:
            out[i] += 2.0 * c * x[i]
        else:
            out[i] += c * x[j]
            out[j] += c * x[i]
    return out


def solve_relaxation(sf, lower=None, upper=None, tol=DEFAULT_TOL,
                     max_iter=DEFAULT_MAX_ITER, basis=None, deadline=None) -> Relaxation:
    """Minimize ``sf.c`` plus the quadratic terms ``sf.quad`` over the polytope.

    A linear objective is one simplex solve.  A quadratic one runs Frank-Wolfe
    from a feasible vertex until the gap is at most ``tol`` or
    ``max_iter`` steps are spent; an LP that hits its limit, or passing the
    ``time.monotonic()`` instant ``deadline``, ends it as "limit".  The first
    simplex solve starts from ``basis`` (a ``Relaxation.basis`` of the same
    rows), each later one from the one before.
    """
    if not sf.quad:
        out = solve_standard_form(sf, lower=lower, upper=upper, basis=basis)
        if out.status != "optimal":
            return Relaxation(out.status, None, math.inf, 0.0, out)
        return Relaxation("optimal", out.x, out.obj, 0.0, out, out.basis)
    ntot = sf.A.shape[1]
    feas = solve_standard_form(sf, c_min=np.zeros(ntot), lower=lower, upper=upper,
                               basis=basis)
    if feas.status != "optimal":
        return Relaxation(feas.status, None, math.inf, 0.0, None)
    x, basis = feas.x, feas.basis  # x is rebound, never written in place
    g = np.zeros(ntot)
    gap = math.inf
    for _ in range(max_iter):
        if deadline is not None and time.monotonic() > deadline:
            return Relaxation("limit", None, math.inf, 0.0, None)
        _quad_grad(sf.quad, x, g)
        g += sf.c
        lmo = solve_standard_form(sf, c_min=g, lower=lower, upper=upper, basis=basis)
        if lmo.status == "unbounded":
            raise ValueError("Frank-Wolfe requires a bounded feasible region")
        if lmo.status != "optimal":
            return Relaxation(lmo.status, None, math.inf, 0.0, None)
        basis = lmo.basis
        d = lmo.x - x
        gap = float(-g @ d)
        if gap <= tol:
            break
        dqd = _quad_value(sf.quad, d)
        gamma = 1.0 if dqd <= 0 else min(1.0, gap / (2.0 * dqd))
        x = x + gamma * d
    value = float(sf.c @ x) + sf.c0 + _quad_value(sf.quad, x)
    return Relaxation("optimal", x, value, max(gap, 0.0), None, basis)


def relaxation_result(model: Model, sf, rel: Relaxation, tol: float) -> SolveResult:
    """Map a relaxation solve back to the model's orientation; ``sf`` carries
    the bounds it was solved under.  A Frank-Wolfe gap above ``tol`` is a limit."""
    if rel.lp is not None:
        return result_from_simplex(model, sf, rel.lp)
    if rel.status != "optimal":
        return SolveResult(status=_STATUS_MAP[rel.status])
    point = {vid: float(rel.x[vid]) for vid in range(model.num_variables)}
    status = Status.OPTIMAL if rel.gap <= tol else Status.LIMIT
    return SolveResult(status=status, point=point, objective=sf.sign * rel.value,
                       best_bound=sf.sign * (rel.value - rel.gap), kkt_residual=rel.gap)


def qp_frank_wolfe(model: Model, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Minimize a convex linear+quadratic objective over the model's polyhedron.

    Terminates when the Frank-Wolfe duality gap drops below ``tol``; the gap
    bounds the true suboptimality, and ``best_bound`` reports value - gap.
    """
    if any(v.kind == BINARY for v in model.variables):
        raise ValueError("qp_frank_wolfe does not accept binary variables")
    if model.complementarities:
        raise ValueError("qp_frank_wolfe does not accept complementarity pairs")
    sf = standard_form(model)
    rel = solve_relaxation(sf, tol=tol, max_iter=max_iter)
    return relaxation_result(model, sf, rel, tol)
