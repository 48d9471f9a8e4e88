"""Direct optimization over DNN(x) without per-neuron auxiliary variables.

An augmented-Lagrangian outer loop handles the (inequality) constraints; the
inner solves are projected gradient descent with Barzilai-Borwein steps over
the input region.  At ReLU kinks the gradient uses the vertex with every
degenerate neuron inactive, so smooth nets converge while kink-optimal ReLU
nets keep a nonvanishing dual infeasibility and stall, which is exactly the
phenomenon this formulation is known for.

Per iteration the solver runs one forward pass per line-search trial point
and one network Jacobian per accepted step, built from that pass's
preactivations; an outer update that moves the multipliers or the penalty
costs one more forward pass and Jacobian at the current point.  Each outer
update is logged at DEBUG on this module's logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..nn import Network, forward, forward_with_preactivations, _apply_derivative
from .result import SolveResult, Status, TraceRecord

DEFAULT_MAX_ITER = 3000
DEFAULT_TOL = 1e-6
# Frank-Wolfe gap and step budget of one projection onto a PolytopeRegion
PROJECTION_GAP_TOL = 1e-9
PROJECTION_MAX_ITER = 5000

log = logging.getLogger(__name__)


@dataclass
class SmoothObjective:
    """f(y, x) with gradients; y is the network output at x."""

    value: Callable
    grad_x: Callable
    grad_y: Callable


@dataclass
class SmoothConstraints:
    """Vector constraint c(y, x) <= 0 with Jacobians (rows = constraints)."""

    value: Callable
    jac_x: Callable
    jac_y: Callable


class BoxRegion:
    """Axis-aligned input region with exact projection."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float).reshape(-1)
        self.upper = np.asarray(upper, dtype=float).reshape(-1)
        if np.any(self.lower > self.upper):
            raise ValueError("box lower bounds exceed upper bounds")

    @property
    def dim(self):
        return self.lower.shape[0]

    def project(self, p):
        return np.clip(p, self.lower, self.upper)


class PolytopeRegion:
    """Input region {x: A x <= b, lower <= x <= upper}; projection by Frank-Wolfe."""

    def __init__(self, A, b, lower, upper):
        from ..model import Model
        from .simplex import standard_form

        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float).reshape(-1)
        self.lower = np.asarray(lower, dtype=float).reshape(-1)
        self.upper = np.asarray(upper, dtype=float).reshape(-1)
        n = self.lower.shape[0]
        mdl = Model()
        ids = [mdl.add_variable(f"x[{j}]", lower=self.lower[j], upper=self.upper[j])
               for j in range(n)]
        for r in range(self.A.shape[0]):
            mdl.add_constraint({ids[j]: float(self.A[r, j]) for j in range(n)
                                if self.A[r, j] != 0.0}, "<=", float(self.b[r]))
        self._sf = standard_form(mdl)
        self._n = n

    @property
    def dim(self):
        return self._n

    def project(self, p):
        from .frank_wolfe import solve_relaxation

        p = np.asarray(p, dtype=float).reshape(-1)
        sf = self._sf
        c = np.zeros(sf.A.shape[1])
        c[: self._n] = -2.0 * p
        quad = tuple((j, j, 1.0) for j in range(self._n))
        out = solve_relaxation(replace(sf, c=c, c0=float(p @ p), sign=1.0, quad=quad),
                               tol=PROJECTION_GAP_TOL, max_iter=PROJECTION_MAX_ITER)
        if out.status != "optimal":
            raise ValueError(f"projection onto the region failed: its LP is {out.status}")
        return out.x[: self._n].copy()


def _dnn_jacobian(net: Network, preacts, kink_tol):
    """Network Jacobian from the preactivations of one forward pass.

    For a pure-ReLU net it is the affine piece of the neurons with
    preactivation above ``kink_tol`` (the vertex with every degenerate neuron
    inactive), the same matrix, bit for bit, as
    ``affine_piece(net, sign_partition(net, x, kink_tol).active)[0]``;
    other nets use the chain rule.
    """
    pure_relu = net.is_pure_relu()
    J = np.eye(net.input_dim)
    for lay, a in zip(net.hidden_layers, preacts):
        if pure_relu:
            J = (lay.weights @ J) * (a > kink_tol)[:, None]
        else:
            J = (lay.weights * _apply_derivative(lay.activation, a)[:, None]) @ J
    return net.layers[-1].weights @ J


def embedded_solve(net: Network, objective: SmoothObjective, region,
                   constraints: SmoothConstraints | None = None, start=None,
                   max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                   kink_tol: float = 1e-10, trace_path=None):
    """Minimize f(DNN(x), x) s.t. c(DNN(x), x) <= 0 over x in the region.

    Returns (SolveResult, [TraceRecord...]) with one trace row per inner
    iteration (objective, primal and dual infeasibility); with ``trace_path``
    the rows are also written as CSV.  Converged means both infeasibilities
    fall below ``tol``; a run that exhausts its budget while primal-feasible
    is flagged Stalled.
    """
    n = region.dim
    if n != net.input_dim:
        raise ValueError("region dimension must match the network input")
    x = region.project(np.zeros(n) if start is None else np.asarray(start, float))

    def cvals(x, y):
        if constraints is None:
            return np.zeros(0)
        return np.asarray(constraints.value(y, x), dtype=float).reshape(-1)

    lam = np.zeros(cvals(x, forward(net, x)).shape[0])
    rho = 10.0

    def al_parts(x):
        y, preacts = forward_with_preactivations(net, x)
        c = cvals(x, y)
        w = np.maximum(0.0, lam + rho * c)
        fval = float(objective.value(y, x))
        alval = fval + float(w @ w - lam @ lam) / (2.0 * rho) if c.size else fval
        return y, preacts, c, w, fval, alval

    def al_grad(x, parts):
        y, preacts, _, w, _, _ = parts
        gx = np.asarray(objective.grad_x(y, x), dtype=float).reshape(-1)
        gy = np.asarray(objective.grad_y(y, x), dtype=float).reshape(-1)
        if w.size:
            gx = gx + np.asarray(constraints.jac_x(y, x)).T @ w
            gy = gy + np.asarray(constraints.jac_y(y, x)).T @ w
        J = _dnn_jacobian(net, preacts, kink_tol)
        return gx + J.T @ gy

    traces = []
    it = 0
    alpha = 1.0
    inner_target = 1e-2
    primal_target = 0.1
    converged = False
    stuck = False
    primal = dual = math.inf
    here = None  # (al_parts(x), its gradient), valid while lam and rho hold
    while it < max_iter:
        if here is None:
            parts = al_parts(x)
            here = parts, al_grad(x, parts)
        (_, _, c, w, fval, alval), g = here
        primal = float(np.maximum(c, 0.0).max(initial=0.0))
        dual = float(np.abs(x - region.project(x - g)).max(initial=0.0))
        traces.append(TraceRecord(it, fval, primal, dual))
        it += 1
        if primal <= tol and dual <= tol:
            converged = True
            break
        if dual <= max(inner_target, tol) or stuck:
            # inner solve done: update multipliers / penalty, tighten targets
            if lam.size:
                lam_moved = primal <= primal_target
                if lam_moved:
                    lam = w
                    primal_target = max(tol / 10.0, primal_target * 0.5)
                else:
                    rho = min(rho * 10.0, 1e10)
                here = None
                if log.isEnabledFor(logging.DEBUG):
                    log.debug("AL update at iteration %d: rho=%g primal=%.3e dual=%.3e "
                              "lam %s", it - 1, rho, primal, dual,
                              "moved" if lam_moved else "kept")
                inner_target = max(tol / 2.0, inner_target * 0.2)
                stuck = False
                alpha = 1.0
                continue
            if stuck:
                break  # unconstrained and no descent step exists
            inner_target = max(tol / 2.0, inner_target * 0.2)
            continue
        # projected-gradient step with Armijo backtracking
        step = alpha
        accepted = False
        for _ in range(40):
            x_try = region.project(x - step * g)
            d = x_try - x
            if np.abs(d).max(initial=0.0) <= 0.0:
                break
            parts = al_parts(x_try)
            if parts[-1] <= alval + 1e-4 * float(g @ d):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stuck = True
            continue
        g_new = al_grad(x_try, parts)
        s = x_try - x
        yv = g_new - g
        sty = float(s @ yv)
        alpha = float(s @ s) / sty if sty > 1e-16 else min(step * 2.0, 1e8)
        alpha = min(max(alpha, 1e-12), 1e8)
        x = x_try
        here = parts, g_new
        stuck = False

    y = forward(net, x)
    res = SolveResult(
        status=Status.OPTIMAL if converged else (
            Status.STALLED if primal <= tol else Status.LIMIT),
        point={j: float(x[j]) for j in range(n)},
        objective=float(objective.value(y, x)),
        iterations=it,
        kkt_residual=dual,
    )
    if trace_path is not None:
        from .. import io as sio

        sio.write_trace(traces, trace_path)
    return res, traces
