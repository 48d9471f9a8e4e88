"""Direct optimization over DNN(x) without per-neuron auxiliary variables.

An augmented-Lagrangian outer loop handles the (inequality) constraints.  The
inner solves step along a projected L-BFGS direction: the two-loop recursion
over the inner solve's last LBFGS_MEMORY accepted (s, y) pairs (Nocedal 1980),
taken over the free variables alone, as in L-BFGS-B (Byrd, Lu, Nocedal & Zhu
1995).  A variable on a box face whose gradient points out of the box is not
free and stays on that face; each pair is cut to the free variables, and one
with s'y <= 1e-16 there is left out.  The line search of an L-BFGS step
starts at step 1.  Where the memory is empty, or the direction is no descent
direction, the step is the spectral projected gradient (SPG) step of Birgin,
Martinez & Raydan (2000), P(x - alpha g) with a Barzilai-Borwein alpha.  Any
region but a BoxRegion, a PolytopeRegion say, takes SPG steps alone:
projected onto a face A x <= b, an L-BFGS descent direction can climb.  The memory empties at
every multiplier or penalty update, at a step from or to a kink iterate
(below), and at a step that changes the set of positive augmented-Lagrangian
terms.  Each trial point must pass an Armijo
test against the largest augmented-Lagrangian value of the last
NONMONOTONE_MEMORY accepted iterates (Grippo, Lampariello & Lucidi 1986), a
memory that also restarts at every update.  A solve's first alpha is SPG's
initial step 1 / |x - P(x - g)|_inf; a multiplier update keeps the current
spectral step, while a penalty raise, or an update that follows a failed
line search, starts alpha again from that rule at the current point.  A
constrained solve tests against the current value alone until its first
update, and a run that exhausts its budget returns the lowest point of its
last inner solve.  The gradient g of the augmented Lagrangian uses the
network Jacobian with every ReLU neuron within KINK_TOL of its kink inactive
(``nn.preactivation_jacobian``, bound here as ``_dnn_jacobian``), and the
trace's dual infeasibility is
``|x - P(x - g)|``, so at a kink optimum of a ReLU net that column never
vanishes while a smooth net's does.

At an iterate of a pure-ReLU net where k <= KINK_CAP hidden neurons lie within
KINK_RADIUS of their kink, the solver instead takes the min-norm element v of
the hull of the 2**k piece gradients around the kink (the gradient-sampling
direction of Burke, Lewis & Overton 2005): it steps along -v, tested against
the current value alone (the memory restarts there), and ``|x - P(x - v)|``
decides the inner solve.  A primal-feasible kink iterate
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
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..nn import Network, forward, forward_with_preactivations, slope_jacobian
from ..nn import preactivation_jacobian as _dnn_jacobian
from .result import SolveResult, Status, TraceRecord

DEFAULT_MAX_ITER = 3000
DEFAULT_TOL = 1e-6
RHO_MAX = 1e10  # cap of the augmented-Lagrangian penalty
# the gradient and the trace treat a ReLU neuron within KINK_TOL of 0 as inactive
KINK_TOL = 1e-10
# a trial step must improve on the largest augmented-Lagrangian value of the
# last NONMONOTONE_MEMORY accepted iterates (Grippo, Lampariello & Lucidi 1986).
# Not the literature's 10: longer climbs carry ReLU solves past the kinks that
# end them (unconstrained on 200 random [4, 12, 1] nets: 35,652 iterations
# with 10, 12,316 with 5, 4,137 with a monotone search)
NONMONOTONE_MEMORY = 5
# hidden ReLU neurons with |preactivation| <= KINK_RADIUS sit at a kink; the
# solver takes the hull of the 2**k pieces around at most KINK_CAP of them
KINK_RADIUS = 1e-6
KINK_CAP = 6
MNP_TOL = 1e-12  # optimality and weight tolerance of min_norm_point
# (s, y) pairs of the inner solve's last accepted steps behind the L-BFGS step
LBFGS_MEMORY = 6

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
        # included, in this argument order only (see embedded_solve's loop)
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
    if all(np.abs(a).min() > KINK_RADIUS for a in hidden):
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


def _lbfgs_direction(g, pairs):
    """-H g for the L-BFGS inverse Hessian H of the (s, y) pairs, oldest
    first, held as rows 2i and 2i + 1 of ``pairs`` (Nocedal 1980).  Pairs with
    s'y <= 1e-16 are left out, and H's initial scaling is s'y / y'y of the
    newest pair kept; None when no pair is kept.  The two-loop recursion runs
    on Python floats over the Gram matrix of the rows, one matrix product: the
    textbook loop of vector operations left the embedded benchmark's solve_s
    8 % higher (BENCH_21.json, lbfgs_direction_form)."""
    G, Zg = (pairs @ pairs.T).tolist(), (pairs @ g).tolist()
    kept = [i for i in range(0, len(G), 2) if G[i][i + 1] > 1e-16]  # rows of s
    if not kept:
        return None
    a = {}  # a_i = s_i'q / s_i'y_i with q = g - (the sum of a_j y_j over newer j)
    for i in reversed(kept):
        a[i] = (Zg[i] - sum(aj * G[i][j + 1] for j, aj in a.items())) / G[i][i + 1]
    k = kept[-1]
    gamma = G[k][k + 1] / G[k + 1][k + 1]
    # r = gamma q, then r += (a_i - b_i) s_i, oldest first, with b_i = y_i'r / s_i'y_i
    coef = [0.0] * len(G)  # -H g = coef @ pairs - gamma g
    for i in kept:
        yi = G[i + 1]
        yr = gamma * (Zg[i + 1] - sum(aj * yi[j + 1] for j, aj in a.items()))
        yr -= sum(coef[j] * yi[j] for j in kept if j < i)
        coef[i] = yr / G[i][i + 1] - a[i]
        coef[i + 1] = gamma * a[i]
    return np.array(coef) @ pairs - gamma * g


def embedded_solve(net: Network, objective: SmoothObjective, region,
                   constraints: SmoothConstraints | None = None, start=None,
                   max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                   trace_path=None):
    """Minimize f(DNN(x), x) s.t. c(DNN(x), x) <= 0 over x in the region.

    Returns (SolveResult, [TraceRecord...]) with one trace row per inner
    iteration (objective, primal and dual infeasibility); with ``trace_path``
    the rows are also written as CSV.  Optimal means both infeasibilities
    fall below ``tol`` away from a ReLU kink.  At a kink the min-norm hull
    element replaces the gradient in the step and in the stopping measure, and
    a primal-feasible kink point where that measure falls below ``tol`` ends
    at once as Stalled; ``kkt_residual`` is the measure of the last iterate.
    A run that exhausts its budget, or reaches a state that no longer
    changes, is Stalled if primal-feasible and LimitReached otherwise; at
    the budget it returns the lowest point of its last inner solve.
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

    def cvals(x, y):
        if constraints is None:
            return np.zeros(0)
        return np.asarray(constraints.value(y, x), dtype=float).reshape(-1)

    lam = np.zeros(cvals(x, forward(net, x)).shape[0])
    lam_sq = lam @ lam  # taken anew whenever lam moves
    rho = 10.0
    pure_relu = net.is_pure_relu()
    # L-BFGS steps need a box: projecting them onto a face A x <= b can climb
    # along a descent direction, so a polytope keeps SPG's steps alone
    box = isinstance(region, BoxRegion)

    def al_parts(x):
        y, preacts = forward_with_preactivations(net, x)
        c = cvals(x, y)
        w = np.maximum(0.0, lam + rho * c)
        fval = float(objective.value(y, x))
        alval = fval + float(w @ w - lam_sq) / (2.0 * rho) if c.size else fval
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
        J = _dnn_jacobian(net, preacts, KINK_TOL)
        kink = _kink_pieces(net, preacts, gx, gy) if pure_relu else None
        if kink is not None:
            pieces, k = kink
            kink = min_norm_point(pieces)[0], k, len(pieces)
        return gx + J.T @ gy, kink

    def measure(x, d):
        return float(np.abs(x - region.project(x - d)).max(initial=0.0))

    traces = []
    it = 0
    restart = True  # the next step is SPG's initial one, set from the trace's dual
    inner_target = 1e-2
    primal_target = 0.1
    converged = False
    stuck = False
    frozen = False  # an idle update followed a failed line search, x held since
    # a constrained solve descends monotonically until its first update: the
    # start's penalty term would let the memory admit any trial
    monotone = lam.size > 0
    primal = dual = math.inf
    here = None  # (al_parts(x), its gradient, kink), valid while lam and rho hold
    # Each iteration works on vectors of a few dozen entries, where numpy's
    # Python-level wrappers (np.clip, np.any, np.argmin) cost 1-3 us per call,
    # more than the work they wrap; the loop calls ndarray methods and ufuncs
    # that return the same bits.  For the projection that takes one order:
    # BoxRegion.project's minimum(maximum(p, lower), upper) equals np.clip,
    # while minimum(upper, maximum(lower, p)) gives +0.0 for its -0.0.
    while it < max_iter:
        if here is None:
            parts = al_parts(x)
            here = parts, *al_grad(x, parts)
            # AL values of this inner solve's last accepted iterates, x's the newest
            recent = deque([parts[-1]], maxlen=NONMONOTONE_MEMORY)
            best = x, here  # this inner solve's lowest AL value so far
            pairs = np.empty((0, n))  # the L-BFGS (s, y) pairs, oldest first
        (_, _, c, w, fval, alval), g, kink = here
        # max(0, max c); + 0.0 turns a -0.0 maximum into the 0.0 np.maximum gives
        primal = float(c.max(initial=0.0)) + 0.0
        dual = measure(x, g)
        traces.append(TraceRecord(it, fval, primal, dual))
        if restart:
            # SPG's initial step 1 / |x - P(x - g)| (Birgin, Martinez & Raydan 2000)
            alpha = min(max(1.0 / dual, 1e-12), 1e8) if dual > 0.0 else 1.0
            restart = False
        it += 1
        d = g
        if kink is not None:
            # at a kink, descend along the min-norm hull element and judge by
            # it, with a monotone line search from here
            d = kink[0]
            dual = measure(x, d)
            recent = deque([alval], maxlen=NONMONOTONE_MEMORY)
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
                    # dual <= tol, else once the line search from SPG's
                    # initial step at this x has failed
                    if frozen or not stuck:
                        break
                    frozen = True
                monotone = False
                if lam_moved:
                    lam = w
                    lam_sq = lam @ lam
                    primal_target = max(tol / 10.0, primal_target * 0.5)
                else:
                    rho = min(rho * 10.0, RHO_MAX)
                here = None
                if log.isEnabledFor(logging.DEBUG):
                    log.debug("AL update at iteration %d: rho=%g primal=%.3e dual=%.3e "
                              "lam %s", it - 1, rho, primal, dual,
                              "moved" if lam_moved else "kept")
                inner_target = max(tol / 2.0, inner_target * 0.2)
                # new multipliers keep the spectral step; a new penalty or a
                # failed search starts the next one afresh
                restart = stuck or not lam_moved
                stuck = False
                continue
            if stuck:
                break  # unconstrained and no descent step exists
            inner_target = max(tol / 2.0, inner_target * 0.2)
            continue
        # projected step with nonmonotone Armijo backtracking, the decrease
        # judged along d
        ref = alval if monotone else max(recent)
        step, e = alpha, d  # the trial points are P(x - step * e)
        if box and pairs.shape[0]:  # never at a kink iterate: stepping there empties it
            # L-BFGS on the free variables, from step 1; a variable on a box
            # face whose gradient points out stays on that face
            free = ~(((x <= region.lower) & (g > 0.0)) | ((x >= region.upper) & (g < 0.0)))
            gf, pf = (g, pairs) if free.all() else (g[free], pairs[:, free])
            p = _lbfgs_direction(gf, pf)
            if p is not None and p @ gf < 0.0:
                step, e = 1.0, np.zeros(n)
                e[free] = -p
        accepted = False
        for _ in range(40):
            x_try = region.project(x - step * e)
            s = x_try - x
            if not s.any():
                break
            parts = al_parts(x_try)
            if parts[-1] <= ref + 1e-4 * float(d @ s):
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
        if kink is None and kink_new is None and ((parts[3] > 0.0) == (w > 0.0)).all():
            full = pairs.shape[0] == 2 * LBFGS_MEMORY  # then the oldest pair goes
            pairs = np.vstack((pairs[2:] if full else pairs, s, yv))
        else:  # a kink or a new set of positive AL terms: the curvature is not x's
            pairs = np.empty((0, n))
        x = x_try
        here = parts, g_new, kink_new
        recent.append(parts[-1])
        if parts[-1] < best[1][0][-1]:
            best = x, here
        stuck = frozen = False
    else:
        # the budget ran out; the search may have climbed from a point it visited
        if here is not None and best[1][0][-1] < here[0][-1]:
            x, here = best
            (_, _, c, _, _, _), g, kink = here
            primal = float(c.max(initial=0.0)) + 0.0
            dual = measure(x, g if kink is None else kink[0])

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
