"""Direct optimization over DNN(x) without per-neuron auxiliary variables.

An augmented-Lagrangian outer loop handles the (inequality) constraints; the
inner solves are projected gradient descent with Barzilai-Borwein steps over
the input region.  The gradient g of the augmented Lagrangian uses the
network Jacobian with every degenerate ReLU neuron inactive
(``nn.preactivation_jacobian``, bound here as ``_dnn_jacobian``), and the
trace's dual infeasibility is ``|x - P(x - g)|``, so at a kink optimum of a
ReLU net that column never vanishes while a smooth net's does.

At an iterate of a pure-ReLU net where k <= KINK_CAP hidden neurons lie within
KINK_RADIUS of their kink, the solver instead takes the min-norm element v of
the hull of the 2**k piece gradients around the kink (the gradient-sampling
direction of Burke, Lewis & Overton 2005): it steps along -v, and
``|x - P(x - v)|`` decides the inner solve.  A primal-feasible kink iterate
where that measure is below ``tol`` ends at once as Stalled: the point is
Clarke stationary, but not a smooth optimum.  A run whose state can no longer
change (multipliers and penalty fixed for good, x not moving) stops at once
with the status the full budget would give.

Per iteration the solver runs one forward pass per line-search trial point
and one network Jacobian per accepted step, built from that pass's
preactivations; an outer update that moves the multipliers or the penalty
costs one more forward pass and Jacobian at the current point.  Each outer
update and each stop at a kink is logged at DEBUG on this module's logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..nn import Network, forward, forward_with_preactivations, slope_jacobian
from ..nn import preactivation_jacobian as _dnn_jacobian
from .result import SolveResult, Status, TraceRecord

DEFAULT_MAX_ITER = 3000
DEFAULT_TOL = 1e-6
RHO_MAX = 1e10  # cap of the augmented-Lagrangian penalty
# hidden ReLU neurons with |preactivation| <= KINK_RADIUS sit at a kink; the
# solver takes the hull of the 2**k pieces around at most KINK_CAP of them
KINK_RADIUS = 1e-6
KINK_CAP = 6
MNP_TOL = 1e-12  # optimality and weight tolerance of min_norm_point
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


def min_norm_point(P):
    """Point of least Euclidean norm in the convex hull of the rows of P.

    Wolfe's (1976) algorithm: each major cycle adds to the corral S the row
    with the least ``<p, z>``; each minor cycle moves z to the least-norm
    point of S's affine hull, or as far towards it as the weights stay
    nonnegative, and drops the rows whose weight reaches 0.  Returns
    ``(z, weights)`` with ``z = weights @ P``, weights nonnegative summing to 1.
    """
    P = np.asarray(P, dtype=float)
    sq = np.einsum("ij,ij->i", P, P)
    S = [int(np.argmin(sq))]
    lam = np.ones(1)
    z = P[S[0]]
    while True:
        dots = P @ z
        j = int(np.argmin(dots))
        if float(z @ z) - dots[j] <= MNP_TOL * sq.max() or j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        while True:
            Q = P[S]
            b = np.linalg.lstsq((Q[1:] - Q[0]).T, -Q[0], rcond=None)[0]
            a = np.concatenate(([1.0 - b.sum()], b))
            if np.all(a > MNP_TOL):
                lam = a
                break
            neg = a <= MNP_TOL
            den = lam[neg] - a[neg]
            ratio = np.divide(lam[neg], den, out=np.zeros_like(den), where=den > 0.0)
            lam = lam + min(1.0, float(ratio.min())) * (a - lam)
            keep = lam > MNP_TOL
            S = [i for i, kept in zip(S, keep) if kept]
            lam = lam[keep] / lam[keep].sum()
        z_new = lam @ P[S]
        stalled = float(z_new @ z_new) >= float(z @ z)  # no decrease left
        z = z_new
        if stalled:
            break
    weights = np.zeros(P.shape[0])
    weights[S] = lam
    return z, weights


def _kink_pieces(net: Network, preacts, gx, gy):
    """Gradients ``gx + J_S^T gy`` of every affine piece around a ReLU kink.

    For a pure-ReLU net, S runs over the on/off choices of the hidden neurons
    whose preactivation lies within ``KINK_RADIUS`` of 0; the other neurons
    keep their side; one batched ``slope_jacobian`` call gives every J_S.
    Returns ``(pieces, k)`` with k those neurons' count, or None off a kink
    and past ``KINK_CAP`` such neurons.
    """
    hidden = preacts[:-1]
    if all(np.abs(a).min() > KINK_RADIUS for a in hidden):
        return None
    near = [np.flatnonzero(np.abs(a) <= KINK_RADIUS) for a in hidden]
    k = sum(ix.size for ix in near)
    if k > KINK_CAP:
        return None
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1 == 1
    masks, col = [], 0
    for a, ix in zip(hidden, near):
        m = np.repeat((a > KINK_RADIUS)[None, :], 2 ** k, axis=0)
        m[:, ix] = bits[:, col:col + ix.size]
        col += ix.size
        masks.append(m)
    return gx + gy @ slope_jacobian(net, masks), k


def embedded_solve(net: Network, objective: SmoothObjective, region,
                   constraints: SmoothConstraints | None = None, start=None,
                   max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                   kink_tol: float = 1e-10, trace_path=None):
    """Minimize f(DNN(x), x) s.t. c(DNN(x), x) <= 0 over x in the region.

    Returns (SolveResult, [TraceRecord...]) with one trace row per inner
    iteration (objective, primal and dual infeasibility); with ``trace_path``
    the rows are also written as CSV.  Optimal means both infeasibilities
    fall below ``tol`` away from a ReLU kink.  At a kink the min-norm hull
    element replaces the gradient in the step and in the stopping measure, and
    a primal-feasible kink point where that measure falls below ``tol`` ends
    at once as Stalled; ``kkt_residual`` is the measure of the last iterate.
    A run that exhausts its budget, or reaches a state that no longer
    changes, is Stalled if primal-feasible and LimitReached otherwise.
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
    pure_relu = net.is_pure_relu()

    def al_parts(x):
        y, preacts = forward_with_preactivations(net, x)
        c = cvals(x, y)
        w = np.maximum(0.0, lam + rho * c)
        fval = float(objective.value(y, x))
        alval = fval + float(w @ w - lam @ lam) / (2.0 * rho) if c.size else fval
        return y, preacts, c, w, fval, alval

    def al_grad(x, parts):
        """The gradient g at x and, at a ReLU kink, (v, k, pieces): the min-norm
        element v of the hull of the k near-kink neurons' piece gradients."""
        y, preacts, _, w, _, _ = parts
        gx = np.asarray(objective.grad_x(y, x), dtype=float).reshape(-1)
        gy = np.asarray(objective.grad_y(y, x), dtype=float).reshape(-1)
        if w.size:
            gx = gx + np.asarray(constraints.jac_x(y, x)).T @ w
            gy = gy + np.asarray(constraints.jac_y(y, x)).T @ w
        J = _dnn_jacobian(net, preacts, kink_tol)
        kink = _kink_pieces(net, preacts, gx, gy) if pure_relu else None
        if kink is not None:
            pieces, k = kink
            kink = min_norm_point(pieces)[0], k, len(pieces)
        return gx + J.T @ gy, kink

    def measure(x, d):
        return float(np.abs(x - region.project(x - d)).max(initial=0.0))

    traces = []
    it = 0
    alpha = 1.0
    inner_target = 1e-2
    primal_target = 0.1
    converged = False
    stuck = False
    frozen = False  # an idle update followed a failed line search, x held since
    primal = dual = math.inf
    here = None  # (al_parts(x), its gradient, kink), valid while lam and rho hold
    while it < max_iter:
        if here is None:
            parts = al_parts(x)
            here = parts, *al_grad(x, parts)
        (_, _, c, w, fval, alval), g, kink = here
        primal = float(np.maximum(c, 0.0).max(initial=0.0))
        dual = measure(x, g)
        traces.append(TraceRecord(it, fval, primal, dual))
        it += 1
        d = g
        if kink is not None:
            # at a kink, descend along the min-norm hull element and judge by it
            d = kink[0]
            dual = measure(x, d)
            if primal <= tol and dual <= tol:
                log.debug("kink stop at iteration %d: k=%d pieces=%d measure=%.3e",
                          it - 1, kink[1], kink[2], dual)
                break
        elif primal <= tol and dual <= tol:
            converged = True
            break
        if dual <= max(inner_target, tol) or stuck:
            # inner solve done: update multipliers / penalty, tighten targets
            if lam.size:
                lam_moved = primal <= primal_target
                # an idle update leaves lam and rho as they are, now and at
                # every later update from this x
                idle = (primal <= tol / 10.0 and np.array_equal(w, lam) if lam_moved
                        else rho >= RHO_MAX)
                if not idle:
                    frozen = False
                elif stuck or dual <= tol:
                    # every later iteration repeats this state: at once when
                    # dual <= tol, else once the line search from alpha = 1
                    # has failed at this x
                    if frozen or not stuck:
                        break
                    frozen = True
                if lam_moved:
                    lam = w
                    primal_target = max(tol / 10.0, primal_target * 0.5)
                else:
                    rho = min(rho * 10.0, RHO_MAX)
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
        # projected step along -d with Armijo backtracking
        step = alpha
        accepted = False
        for _ in range(40):
            x_try = region.project(x - step * d)
            s = x_try - x
            if np.abs(s).max(initial=0.0) <= 0.0:
                break
            parts = al_parts(x_try)
            if parts[-1] <= alval + 1e-4 * float(d @ s):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stuck = True
            continue
        g_new, kink_new = al_grad(x_try, parts)
        yv = g_new - g
        sty = float(s @ yv)
        alpha = float(s @ s) / sty if sty > 1e-16 else min(step * 2.0, 1e8)
        alpha = min(max(alpha, 1e-12), 1e8)
        x = x_try
        here = parts, g_new, kink_new
        stuck = frozen = False

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
