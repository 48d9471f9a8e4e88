"""Direct optimization over DNN(x) without per-neuron auxiliary variables.

Sequential quadratic programming (SQP; Nocedal & Wright 2006, ch. 18).  Each
iteration solves one strictly convex QP in the step d,

    min 0.5 d'B d + g'd   s.t.   c + J d <= 0,   x + d in the region,

with g the objective's gradient, J the constraints' Jacobian and B a damped
BFGS model of the Lagrangian's Hessian (Powell 1978), on the dual active-set
solver of ``qp.py`` (Goldfarb & Idnani 1983), warm-started from the last
QP's working set.  The region's box enters as bounds, a PolytopeRegion's rows
A x <= b as rows.  A QP whose linearized constraints admit no step is solved
again with Powell's relaxation variable.  An Armijo search from step 1 on the
l1 merit f + pi * sum(max(0, c)) then takes the step; pi rises to twice the
largest QP multiplier whenever it falls below 1.5 times it, so between
raises the merit never increases.  The QP's multipliers lam give the
Lagrangian gradient g + J'lam, whose change along an accepted step is the
BFGS pair; B starts as the identity, scaled by y'y / s'y at its first update.
A failed search resets B to the identity.  A failed search with a fresh B at
an infeasible point, a local minimum of the merit, takes the full step
regardless and restarts pi from 0, the one step that may raise the merit; at
a feasible point, or with a zero step, nothing can change any more and the
solve ends at once with the status the full budget would give.  A budget
exit returns the last point, the lowest in merit since the last raise.

The gradients use the network Jacobian with every ReLU neuron within KINK_TOL
of its kink inactive (``nn.preactivation_jacobian``, bound here as
``_dnn_jacobian``), and the trace's dual infeasibility is
``|x - P(x - g - J'lam)|``, so at a kink optimum of a ReLU net that column
never vanishes while a smooth net's does.

At an iterate of a pure-ReLU net where k <= KINK_CAP hidden neurons lie within
KINK_RADIUS of their kink, ``|x - P(x - v)|`` decides convergence instead, v
the min-norm element of the hull of the 2**k piece gradients of the
Lagrangian around the kink (the gradient-sampling direction of Burke, Lewis &
Overton 2005).  The Lagrangian there takes the multipliers of the face QP,
the QP that also holds the near-kink preactivations at 0 to first order: the
plain QP's belong to the one piece it linearizes.  A primal-feasible kink
iterate where that measure is below ``tol`` ends at once as Stalled: the
point is Clarke stationary, but not a smooth optimum.  At a kink a search
ends once its step is shorter than KINK_RADIUS; when the QP step's search
fails there, the solver steps along -v (the merit's hull, with weight pi on
each violated constraint, at an infeasible point), then along the face QP's
step.

Per iteration the solver solves one QP, and the face QP too at a kink
iterate; it runs one forward pass per line-search trial point and one network
Jacobian per accepted step, built from that pass's preactivations.  The
solver carries B's inverse H through the same updates (the BFGS inverse
update by the damped pair), so a QP takes one Cholesky factor of H and never
inverts B; the face QP takes the same H.  Each penalty raise and reset, each relaxed QP and each stop at a kink is logged at
DEBUG on this module's logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..nn import Network, forward, forward_with_preactivations, slope_jacobian
from ..nn import preactivation_jacobian as _dnn_jacobian
from .qp import solve_qp
from .result import SolveResult, Status, TraceRecord

DEFAULT_MAX_ITER = 3000
DEFAULT_TOL = 1e-6
# the gradient and the trace treat a ReLU neuron within KINK_TOL of 0 as inactive
KINK_TOL = 1e-10
# hidden ReLU neurons with |preactivation| <= KINK_RADIUS sit at a kink; the
# solver takes the hull of the 2**k pieces around at most KINK_CAP of them
KINK_RADIUS = 1e-6
KINK_CAP = 6
MNP_TOL = 1e-12  # optimality and weight tolerance of min_norm_point
ARMIJO = 1e-4  # the share of the model's decrease a step must achieve
MAX_HALVINGS = 40  # trial steps per line search

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


def _bounds(lower, upper):
    """Lower and upper bounds as flat float arrays of one length, neither NaN
    (infinite allowed) and lower <= upper."""
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    if lower.shape != upper.shape:
        raise ValueError("lower and upper bounds must have the same length")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("bounds must not be NaN")
    if (lower > upper).any():
        raise ValueError("lower bounds exceed upper bounds")
    return lower, upper


class BoxRegion:
    """Axis-aligned input region with exact projection."""

    def __init__(self, lower, upper):
        self.lower, self.upper = _bounds(lower, upper)

    @property
    def dim(self):
        return self.lower.shape[0]

    def project(self, p):
        # np.clip(p, lower, upper) bit for bit, signed zeros, NaN and inf
        # included, in this argument order only; embedded_solve clips its
        # QP steps in the same order
        return np.minimum(np.maximum(p, self.lower), self.upper)


class PolytopeRegion:
    """Input region {x: A x <= b, lower <= x <= upper} with exact projection."""

    def __init__(self, A, b, lower, upper):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float).reshape(-1)
        self.lower, self.upper = _bounds(lower, upper)
        n = self._n = self.lower.shape[0]
        if self.A.shape != (self.b.shape[0], n):
            raise ValueError("A must be m x n, b of length m, lower and upper of length n")
        if not np.isfinite(np.column_stack([self.A, self.b])).all():
            raise ValueError("A and b must be finite")
        # G x <= h: the rows of A and the finite box faces, each nonzero row
        # scaled so that G p - h is p's signed distance to its face
        up, lo = np.isfinite(self.upper), np.isfinite(self.lower)
        G = np.vstack([self.A, np.eye(n)[up], -np.eye(n)[lo]])
        h = np.concatenate([self.b, self.upper[up], -self.lower[lo]])
        norm = np.linalg.norm(G, axis=1)
        norm[norm == 0.0] = 1.0
        self._G, self._h = G / norm[:, None], h / norm

    @property
    def dim(self):
        return self._n

    def project(self, p):
        """Nearest point to p, by the least-distance program min |x - p| s.t.
        G x <= h as one NNLS (Lawson & Hanson 1974, ch. 23): u >= 0 minimizes
        |E u - e| for E = [-G^T; (G p - h)^T / s] and the last unit vector e,
        with s the larger of 1 and p's largest distance past a face.  Then
        r = E u - e gives x = p - s r[:n] / r[n]; |r|^2 = -r[n] at or below
        the simplex's feasibility tolerance means the region is empty."""
        # imported here, not at module level, so that `import surropt` loads no scipy
        from scipy.optimize import nnls

        from .simplex import FEAS_TOL

        p = np.asarray(p, dtype=float).reshape(-1)
        if not self._h.size:
            return p.copy()
        d = self._G @ p - self._h
        s = max(1.0, float(d.max()))
        E = np.vstack([-self._G.T, d / s])
        e = np.eye(self._n + 1)[-1]
        r = E @ nnls(E, e)[0] - e
        if -r[-1] <= FEAS_TOL:
            raise ValueError("projection onto the region failed: the region is empty")
        return p - s * r[:-1] / r[-1]


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
    S = [int(sq.argmin())]
    lam = np.ones(1)
    z = P[S[0]]
    while True:
        dots = P @ z
        j = int(dots.argmin())
        if float(z @ z) - dots[j] <= MNP_TOL * sq.max() or j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        while True:
            Q = P[S]
            b = np.linalg.lstsq((Q[1:] - Q[0]).T, -Q[0], rcond=None)[0]
            a = np.concatenate(([1.0 - b.sum()], b))
            if (a > MNP_TOL).all():
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
    if all(np.minimum.reduce(np.abs(a)) > KINK_RADIUS for a in hidden):
        return None
    near = [(np.abs(a) <= KINK_RADIUS).nonzero()[0] for a in hidden]
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


def _kink_rows(net: Network, preacts):
    """Gradients of the hidden preactivations within ``KINK_RADIUS`` of 0, one
    row each, with their values; a neuron upstream counts as active above
    KINK_TOL, as in the Jacobian."""
    rows, vals, M = [], [], None
    for lay, a in zip(net.hidden_layers, preacts):
        P = lay.weights if M is None else lay.weights @ M
        near = np.abs(a) <= KINK_RADIUS
        rows.append(P[near])
        vals.append(a[near])
        M = P * (a > KINK_TOL)[:, None]
    return np.vstack(rows), np.concatenate(vals)


def embedded_solve(net: Network, objective: SmoothObjective, region,
                   constraints: SmoothConstraints | None = None, start=None,
                   max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                   trace_path=None):
    """Minimize f(DNN(x), x) s.t. c(DNN(x), x) <= 0 over x in the region.

    Returns (SolveResult, [TraceRecord...]) with one trace row per iteration
    (objective, primal and dual infeasibility); with ``trace_path`` the rows
    are also written as CSV.  Optimal means both infeasibilities fall below
    ``tol`` away from a ReLU kink.  At a kink the min-norm hull element
    replaces the Lagrangian gradient in the stopping measure, and a
    primal-feasible kink point where that measure falls below ``tol`` ends at
    once as Stalled; ``kkt_residual`` is the measure of the last iterate.  A
    run that exhausts its budget, or reaches a state that no longer changes,
    is Stalled if primal-feasible and LimitReached otherwise.
    """
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise ValueError(f"max_iter must be an integer >= 0, not {max_iter!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, not {tol!r}")
    n = region.dim
    if n != net.input_dim:
        raise ValueError("region dimension must match the network input")
    start = np.zeros(n) if start is None else np.asarray(start, float).reshape(-1)
    if start.shape != (n,):
        raise ValueError(f"start must hold {n} entries, one per input, not {start.size}")
    x = region.project(start)
    lower, upper = region.lower, region.upper
    A = getattr(region, "A", np.zeros((0, n)))
    b = getattr(region, "b", np.zeros(0))
    pure_relu = net.is_pure_relu()

    def evaluate(x):
        """One forward pass: (y, preactivations, c, f, sum of max(0, c))."""
        y, preacts = forward_with_preactivations(net, x)
        c = (np.zeros(0) if constraints is None
             else np.asarray(constraints.value(y, x), dtype=float).reshape(-1))
        return y, preacts, c, float(objective.value(y, x)), float(np.maximum(c, 0.0).sum())

    def derivatives(x, parts):
        """One network Jacobian: f's gradient, the constraint Jacobian and the
        partial derivatives the kink pieces take."""
        y, preacts = parts[0], parts[1]
        gx = np.asarray(objective.grad_x(y, x), dtype=float).reshape(-1)
        gy = np.asarray(objective.grad_y(y, x), dtype=float).reshape(-1)
        J = _dnn_jacobian(net, preacts, KINK_TOL)
        if constraints is None:
            cx, cy = np.zeros((0, n)), np.zeros((0, gy.size))
        else:
            cx = np.asarray(constraints.jac_x(y, x), dtype=float).reshape(-1, n)
            cy = np.asarray(constraints.jac_y(y, x), dtype=float).reshape(cx.shape[0], -1)
        return gx + J.T @ gy, cx + cy @ J, (gx, gy, cx, cy)

    def measure(x, d):
        return float(np.maximum.reduce(np.abs(x - region.project(x - d)), initial=0.0))

    traces = []
    it = 0
    B = H = np.eye(n)  # the model and its inverse
    fresh = True  # B is the identity: no pair has updated it since the start or a reset
    pi = 0.0  # the merit's penalty
    working = None  # the last QP's working set, the next one's warm start
    lam = np.zeros(0)
    converged = False
    primal = dual = math.inf
    parts = evaluate(x)
    grads = derivatives(x, parts)
    while it < max_iter:
        y, preacts, c, fval, csum = parts
        g, Jc, (gx, gy, cx, cy) = grads
        # the QP in the step d: the linearized constraints and the region's rows
        # as rows, the box as bounds; 0 satisfies all but the former
        rows = np.vstack((Jc, A)) if A.size else Jc
        rhs = np.concatenate((-c, np.maximum(b - A @ x, 0.0))) if A.size else -c
        qp = solve_qp(B, H, g, rows, rhs, np.minimum(lower - x, 0.0),
                      np.maximum(upper - x, 0.0), active=working, relax=True)
        if qp is None:  # the relaxed QP failed too: no step, the last multipliers
            d = np.zeros(n)
            lam = lam if lam.size else np.zeros(c.size)
        else:
            d, lam, working = qp.x, qp.y[:c.size], qp.active
        gl = g + Jc.T @ lam if lam.size else g
        primal = float(np.maximum.reduce(c, initial=0.0)) + 0.0  # + 0.0 turns a -0.0 into 0.0
        dual = measure(x, gl)
        traces.append(TraceRecord(it, fval, primal, dual))
        it += 1
        kink = face = None
        if pure_relu:
            kink = _kink_pieces(net, preacts, gx + cx.T @ lam, gy + cy.T @ lam)
        if kink is not None:
            # the QP with the near-kink preactivations held at 0 to first
            # order; its multipliers, not those of the piece the plain QP
            # linearizes, weigh the constraints in the hull's pieces
            G, a = _kink_rows(net, preacts)
            face = solve_qp(B, H, g, np.vstack((rows, G, -G)), np.concatenate((rhs, -a, a)),
                            np.minimum(lower - x, 0.0), np.maximum(upper - x, 0.0),
                            relax=True)
            if c.size and face is not None and face.relaxation == 0.0:
                mu = face.y[:c.size]
                kink = _kink_pieces(net, preacts, gx + cx.T @ mu, gy + cy.T @ mu)
            pieces, k = kink
            v = min_norm_point(pieces)[0]
            dual = measure(x, v)
            if primal <= tol and dual <= tol:
                log.debug("kink stop at iteration %d: k=%d pieces=%d measure=%.3e",
                          it - 1, k, len(pieces), dual)
                break
        elif primal <= tol and dual <= tol:
            converged = True
            break
        if qp is not None and qp.relaxation > 0.0:
            log.debug("relaxed QP at iteration %d: xi=%.3e", it - 1, qp.relaxation)
        lam_max = float(np.maximum.reduce(lam, initial=0.0))
        if pi < 1.5 * lam_max:
            pi = 2.0 * lam_max
            log.debug("penalty raise at iteration %d: pi=%.17g", it - 1, pi)
        phi = fval + pi * csum
        # at a kink, a step shorter than KINK_RADIUS cannot leave it
        floor = KINK_RADIUS if kink is not None else 0.0

        def search(point, decrease, length):
            """Armijo on the merit over the trial points point(t), t = 1, 1/2,
            ...: the first whose merit falls by ARMIJO * decrease(t, s) with
            s its step, or None once t * length reaches the floor."""
            t = 1.0
            for _ in range(MAX_HALVINGS):
                x_try = point(t)
                s = x_try - x
                if not np.logical_or.reduce(s) or t * length <= floor:
                    return None
                trial = evaluate(x_try)
                if trial[3] + pi * trial[4] <= phi + ARMIJO * decrease(t, s):
                    return x_try, trial
                t *= 0.5
            return None

        def qp_search(d):
            # Armijo from step 1, judged by the model's decrease D
            D = float(g @ d) + pi * (float(np.maximum(c + Jc @ d, 0.0).sum()) - csum)
            if not D < 0.0:
                return None
            return search(lambda t: np.minimum(np.maximum(x + t * d, lower), upper),
                          lambda t, s: t * D, float(np.maximum.reduce(np.abs(d))))

        step = qp_search(d)
        if step is None and kink is not None:
            # at a kink, along the min-norm element of the hull of the merit's piece
            # gradients: the Lagrangian's where x is feasible, else the
            # penalty's weight on each violated constraint
            if primal > 0.0:
                w = np.where(c > 0.0, pi, 0.0)
                v = min_norm_point(_kink_pieces(net, preacts, gx + cx.T @ w,
                                                gy + cy.T @ w)[0])[0]
            span = measure(x, v)  # the first trial moves x by up to 1
            if span > 0.0:
                step = search(lambda t: region.project(x - (t / span) * v),
                              lambda t, s: float(v @ s), 1.0)
        if step is None and face is not None:
            step = qp_search(face.x)  # then along the kink
        accepted = step is not None
        if accepted:
            x_try, trial = step
        if not accepted and fresh and primal > tol and np.logical_or.reduce(d):
            # an infeasible point where even a fresh model's step fails is a
            # local minimum of the merit: take the full step regardless and
            # restart the penalty from 0
            x_try = np.minimum(np.maximum(x + d, lower), upper)
            trial = evaluate(x_try)
            accepted = True
            pi = 0.0
            log.debug("penalty reset at iteration %d: full step from an infeasible stall", it - 1)
        if not accepted:
            if fresh or not np.logical_or.reduce(d):
                break  # every later iteration would repeat this one
            B = H = np.eye(n)
            fresh = True
            continue
        grads_new = derivatives(x_try, trial)
        s = x_try - x
        if kink is None:
            gl_new = grads_new[0] + grads_new[1].T @ lam if lam.size else grads_new[0]
            B, H, fresh = _damped_bfgs(B, H, s, gl_new - gl, fresh)
        x, parts, grads = x_try, trial, grads_new
    else:
        if traces:  # the budget ran out: judge the point the last step reached
            primal = float(parts[2].max(initial=0.0)) + 0.0
            dual = measure(x, grads[0] + grads[1].T @ lam if lam.size else grads[0])

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


def _damped_bfgs(B, H, s, yv, fresh):
    """Powell's (1978) damped BFGS update of B by the pair (s, yv), and of its
    inverse H: yv is replaced by r = theta yv + (1 - theta) B s, with theta
    the largest value in [0, 1] that keeps s'r >= 0.2 s'B s, so B stays
    positive definite, and H takes the BFGS inverse update by (s, r),
    (I - rho s r') H (I - rho r s') + rho s s' with rho = 1 / s'r.  A fresh
    identity is first scaled by yv'yv / s'yv (Nocedal & Wright 2006, eq.
    6.20).  Returns (B, H, fresh)."""
    sy = float(s @ yv)
    if fresh and sy > 0.0:
        scale = float(yv @ yv) / sy
        B, H = scale * np.eye(s.size), np.eye(s.size) / scale
    Bs = B @ s
    sBs = float(s @ Bs)
    if not sBs > 0.0:
        return B, H, fresh
    theta = 1.0 if sy >= 0.2 * sBs else 0.8 * sBs / (sBs - sy)
    r = theta * yv + (1.0 - theta) * Bs
    sr = float(s @ r)
    B = B - Bs[:, None] * (Bs / sBs) + r[:, None] * (r / sr)
    rho = 1.0 / sr
    # H's update as H + (s t' + t s'), which is symmetric bit for bit
    Hr = H @ r
    st = s[:, None] * ((0.5 * rho * (rho * float(r @ Hr) + 1.0)) * s - rho * Hr)
    return 0.5 * (B + B.T), H + (st + st.T), False
