"""Dense strictly convex QP by the dual active-set method of Goldfarb & Idnani (1983).

    min 0.5 x'B x + g'x   s.t.   C x <= h,   lower <= x <= upper

for a symmetric positive definite B, numpy only.  The method starts from the
unconstrained minimizer -B^-1 g and adds one violated constraint at a time,
keeping the working set's point optimal for the constraints in it with
nonnegative multipliers; a constraint whose normal depends on the working set
first drops the working constraints whose multipliers would turn negative,
and one that depends on them with no such constraint proves the QP infeasible.
A working set from an earlier QP (``active``) is a warm start: the solver
drops its constraints of negative multiplier one at a time, then proceeds as
from a cold start.  The warm start's point and multipliers, and the final
ones, come from the null space of the working normals (their QR factors), so
they carry the rows' conditioning rather than B^-1's.  Rows are scaled to
unit length inside, and the dependency test measures the residual of a new
unscaled unit row off the span of the working rows.

With ``relax``, a QP that proves infeasible is solved again with one more
variable xi in [0, 1] (Powell 1978): each row with h_j < 0, which x = 0
violates, becomes C_j x + h_j xi <= h_j, and 0.5 w xi^2 joins the objective
with w the largest diagonal entry of B, so that xi = 1 admits x = 0 whenever
the bounds and the other rows do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# a constraint is violated when it exceeds its bound by more than QP_TOL
# (times 1 + |x|_inf) in distance units; a unit row whose residual off the
# working rows' span is at most DEP_TOL depends on them; that test runs on
# every row whose residual through B^-1 is at most DEP_SCREEN
QP_TOL = 1e-10
DEP_TOL = 1e-10
DEP_SCREEN = 1e-6


@dataclass
class QPSolution:
    """Minimizer x with multipliers: B x + g + C'y + z = 0, y >= 0 on the rows,
    z_i >= 0 at an upper bound, z_i <= 0 at a lower bound and 0 elsewhere.
    ``active`` is the final working set (row j as j, the upper bound of
    variable i as m + i, its lower bound as m + n + i), a warm start for a
    QP of the same shape; ``relaxation`` is xi (0.0 unless relaxed)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    active: tuple
    relaxation: float = 0.0


def relax_weight(B):
    """The weight w of 0.5 w xi^2 in a relaxed QP: on the scale of B."""
    return max(1.0, float(np.diagonal(B).max(initial=0.0)))


def solve_qp(B, g, C, h, lower, upper, active=None, relax=False):
    """Minimize 0.5 x'B x + g'x s.t. C x <= h, lower <= x <= upper.

    Returns a QPSolution, or None when the QP is infeasible (with ``relax``,
    when the relaxed QP is too), or when the method fails to end.
    """
    B = np.asarray(B, dtype=float)
    g = np.asarray(g, dtype=float).reshape(-1)
    n = g.size
    C = np.asarray(C, dtype=float).reshape(-1, n)
    h = np.asarray(h, dtype=float).reshape(-1)
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    m = h.size
    if not (np.isfinite(B).all() and np.isfinite(g).all() and np.isfinite(C).all()
            and np.isfinite(h).all()):
        return None
    H = np.linalg.inv(B)
    H = 0.5 * (H + H.T)
    norm = np.linalg.norm(C, axis=1)
    norm[norm == 0.0] = 1.0
    Cs, hs = C / norm[:, None], h / norm
    out = _dual_active_set(B, H, g, Cs, hs, lower, upper, active)
    if out is None:
        if not relax:
            return None
        soft = np.minimum(hs, 0.0)
        Ce = np.column_stack([Cs, soft])
        ne = np.linalg.norm(Ce, axis=1)
        w = relax_weight(B)
        He = np.zeros((n + 1, n + 1))
        He[:n, :n] = H
        He[n, n] = 1.0 / w
        Be = np.zeros((n + 1, n + 1))
        Be[:n, :n] = B
        Be[n, n] = w
        out = _dual_active_set(Be, He, np.append(g, 0.0), Ce / ne[:, None], hs / ne,
                               np.append(lower, 0.0), np.append(upper, 1.0), None)
        if out is None:
            return None
        xe, ye, ze, W = out
        # the working set without xi's bounds, in the ids of the unrelaxed QP
        W = tuple(k - (k > m + n) for k in W if k not in (m + n, m + 2 * n + 1))
        return QPSolution(xe[:n], ye / (ne * norm), ze[:n], W, float(xe[n]))
    x, y, z, W = out
    return QPSolution(x, y / norm, z, W)


def _dual_active_set(B, H, g, C, h, lower, upper, active):
    """Goldfarb-Idnani on unit rows C; H = B^-1.  Returns (x, y, z, working
    set) or None when infeasible."""
    n, m = g.size, h.size

    def tol(x):
        return QP_TOL * (1.0 + float(np.abs(x).max(initial=0.0)))

    # every constraint's normal as a column: the rows, then e_i for the
    # upper bounds and -e_i for the lower ones
    eye = np.eye(n)
    normals = np.hstack([C.T, eye, -eye])
    beta = np.concatenate([h, upper, -lower])
    fin = np.isfinite(beta)
    Hg = H @ g
    if active is None:  # the bounds that the unconstrained minimizer violates
        W = np.concatenate([np.zeros(m, bool), -Hg > upper, -Hg < lower]).nonzero()[0]
    else:
        W = [k for k in dict.fromkeys(active) if 0 <= k < m + 2 * n and fin[k]]
    W = [int(k) for k in W]
    # the warm start: the point optimal for the working set, by the null
    # space of its normals; drop the constraint of least multiplier until
    # none is negative; a dependent set starts cold
    x, lam = -Hg, np.zeros(0)
    while W:
        point = _null_space_point(B, g, normals[:, W], beta[W]) if len(W) <= n else None
        if point is None:
            W = []
        elif point[1].min() >= 0.0:
            x, lam = point
            break
        else:
            del W[int(point[1].argmin())]
    N = normals[:, W]
    HN = H @ N
    S = N.T @ HN
    exact = True  # x is the null-space point of the working set
    for _ in range(20 * (m + 2 * n) + 100):
        viol = np.concatenate([C @ x - h, x - upper, lower - x])
        viol[~fin] = -np.inf
        viol[W] = -np.inf
        p = int(viol.argmax()) if viol.size else 0
        if not viol.size or viol[p] <= tol(x):
            if W and not exact:
                exact = True
                point = _null_space_point(B, g, N, beta[W])
                if point is not None and (point[1] >= 0.0).all():
                    x, lam = point
                    continue
            break
        a = normals[:, p]
        Ha = H @ a
        tp = 0.0
        exact = False
        while True:
            NtHa = HN.T @ a
            r = -np.linalg.solve(S, NtHa)
            t1 = np.inf
            if len(W) < n and np.abs(a + N @ r).max() > DEP_SCREEN:
                z = -(Ha + HN @ r)
                t1 = (float(a @ x) - beta[p]) / float(-(a @ z))
            else:
                # B^-1's rounding can hide a dependent row in a residual up to
                # DEP_SCREEN: the unscaled residual a - N c decides
                c = (np.linalg.solve(N, a) if len(W) == n
                     else np.linalg.lstsq(N, a, rcond=None)[0])
                if np.abs(a - N @ c).max() <= DEP_TOL:
                    r, z = -c, np.zeros(n)
                else:
                    z = -(Ha + HN @ r)
                    t1 = (float(a @ x) - beta[p]) / float(-(a @ z))
            neg = r < 0.0
            t2, j = np.inf, -1
            if neg.any():
                ratios = np.where(neg, lam / np.where(neg, -r, 1.0), np.inf)
                j = int(ratios.argmin())
                t2 = float(ratios[j])
            if t1 == np.inf and t2 == np.inf:
                # the new row depends on rows that cannot yield: infeasible,
                # unless the violation was the updates' rounding
                point = _null_space_point(B, g, N, beta[W]) if W else None
                if (point is not None and (point[1] >= 0.0).all()
                        and a @ point[0] - beta[p] <= tol(point[0])):
                    x, lam = point
                    break
                return None
            if t1 <= t2:
                x = x + t1 * z
                lam = np.append(lam + t1 * r, tp + t1)
                W.append(p)
                N = np.column_stack([N, a])
                HN = np.column_stack([HN, Ha])
                q = len(NtHa)
                S, S_old = np.empty((q + 1, q + 1)), S
                S[:q, :q] = S_old
                S[:q, q] = S[q, :q] = NtHa
                S[q, q] = a @ Ha
                break
            x = x + t2 * z
            lam = lam + t2 * r
            tp += t2
            del W[j]
            keep = np.arange(lam.size) != j
            lam, N, HN, S = lam[keep], N[:, keep], HN[:, keep], S[np.ix_(keep, keep)]
    else:
        return None
    # the working set holds each constraint at most once, and never both
    # bounds of a variable: their normals would depend on each other
    k = np.array(W, dtype=int)
    y = np.zeros(m)
    y[k[k < m]] = lam[k < m]
    zb = np.zeros(n)
    zb[k[(k >= m) & (k < m + n)] - m] = lam[(k >= m) & (k < m + n)]
    zb[k[k >= m + n] - m - n] = -lam[k >= m + n]
    return x, y, zb, tuple(W)


def _null_space_point(B, g, N, b):
    """Point and multipliers optimal for N'x = b, by the null space of N' (its
    QR factors): exact in N's conditioning where the Goldfarb-Idnani updates
    carry B^-1's.  None when a diagonal entry of R is at most DEP_TOL, so
    that N's unit columns depend on each other; N has a column at least."""
    q = N.shape[1]
    Q, R = np.linalg.qr(N, mode="complete")
    R = R[:q]
    if np.abs(R.diagonal()).min() <= DEP_TOL:
        return None
    Y, Z = Q[:, :q], Q[:, q:]
    x = Y @ np.linalg.solve(R.T, b)
    if q < N.shape[0]:
        ZB = Z.T @ B
        x = x + Z @ np.linalg.solve(ZB @ Z, -(Z.T @ g + ZB @ x))
    return x, np.linalg.solve(R, -(Y.T @ (B @ x + g)))
