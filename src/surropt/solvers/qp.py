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
from a cold start.

The method carries its own factors (Goldfarb & Idnani 1983, sec. 4): J with
J J' = B^-1 and J'N = [R; 0] for the working normals N, and R^-1.  The caller
passes B's inverse H with B, and each QP factors its warm working set once,
from H's Cholesky factor and one QR; then an added constraint costs one
Householder reflection of J's trailing columns and a dropped one a
reflection of its leading columns that leaves R^-1's last row to go, so a
dual step takes matrix-vector products only.  An H that rounding has left
without a Cholesky factor is set aside for a factor of B itself.  The
working set's point and multipliers come from Newton steps of its
equality-constrained QP through the factors, on the residual of B itself:
one at the warm start, and one more once no constraint is violated, which
leaves only the square of H's error as B's inverse.  Rows are scaled to
unit length inside.  A warm working set whose
unit normals are nearly dependent, by a QR of the normals themselves, starts
cold; a new constraint depends on the working set when its unscaled unit
row's residual off the working rows' span is at most DEP_TOL.

With ``relax``, a QP that proves infeasible is solved again with one more
variable xi in [0, 1] (Powell 1978): each row with h_j < 0, which x = 0
violates, becomes C_j x + h_j xi <= h_j, and 0.5 w xi^2 joins the objective
with w the largest diagonal entry of B, so that xi = 1 admits x = 0 whenever
the bounds and the other rows do.  A QP that runs out of dual steps (STEP_CAP)
gives None without the relaxation: a limit is not a proof of infeasibility.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

# a constraint is violated when it exceeds its bound by more than QP_TOL
# (times 1 + |x|_inf) in distance units; a unit row whose residual off the
# working rows' span is at most DEP_TOL depends on them; that test runs on
# every row whose residual through B^-1 is at most DEP_SCREEN
QP_TOL = 1e-10
DEP_TOL = 1e-10
DEP_SCREEN = 1e-6
# a QP gives up after STEP_CAP dual steps per constraint (plus five)
STEP_CAP = 20

log = logging.getLogger(__name__)


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


class _StepCap(Exception):
    """The dual steps ran out before the QP was solved or proved infeasible."""


def relax_weight(B):
    """The weight w of 0.5 w xi^2 in a relaxed QP: on the scale of B."""
    return max(1.0, float(np.diagonal(B).max(initial=0.0)))


def solve_qp(B, H, g, C, h, lower, upper, active=None, relax=False):
    """Minimize 0.5 x'B x + g'x s.t. C x <= h, lower <= x <= upper.

    ``H`` is B's inverse as the caller carries it, symmetric: its Cholesky
    factor reads the lower triangle only.  Returns a QPSolution, or None
    when the QP is infeasible (with ``relax``, when the relaxed QP is too),
    or when it runs out of dual steps.
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
    J0 = _inverse_factor(B, np.asarray(H, dtype=float))
    norm = np.linalg.norm(C, axis=1)
    norm[norm == 0.0] = 1.0
    Cs, hs = C / norm[:, None], h / norm
    try:
        out = _dual_active_set(B, J0, g, Cs, hs, lower, upper, active)
        if out is None:
            if not relax:
                return None
            soft = np.minimum(hs, 0.0)
            Ce = np.column_stack([Cs, soft])
            ne = np.linalg.norm(Ce, axis=1)
            w = relax_weight(B)
            Be = np.zeros((n + 1, n + 1))
            Be[:n, :n] = B
            Be[n, n] = w
            Je = np.zeros((n + 1, n + 1))
            Je[:n, :n] = J0
            Je[n, n] = 1.0 / math.sqrt(w)
            out = _dual_active_set(Be, Je, np.append(g, 0.0), Ce / ne[:, None], hs / ne,
                                   np.append(lower, 0.0), np.append(upper, 1.0), None)
            if out is None:
                return None
            xe, ye, ze, W = out
            # the working set without xi's bounds, in the ids of the unrelaxed QP
            W = tuple(k - (k > m + n) for k in W if k not in (m + n, m + 2 * n + 1))
            return QPSolution(xe[:n], ye / (ne * norm), ze[:n], W, float(xe[n]))
    except _StepCap as cap:
        log.debug("QP step cap: %s dual steps taken, %d rows, %d variables; no solution",
                  cap, m, n)
        return None
    x, y, z, W = out
    return QPSolution(x, y / norm, z, W)


def _inverse_factor(B, H):
    """J0 with J0 J0' = B^-1: H's Cholesky factor, or L^-T for B = L L' when
    H has none (rounding has left it indefinite, or it is not finite).
    Raises LinAlgError when B is not positive definite either."""
    if np.isfinite(H).all():
        try:
            return np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            pass
    log.debug("B's inverse without a Cholesky factor: factoring B")
    return np.linalg.inv(np.linalg.cholesky(B)).T


def _independent(N):
    """Whether the unit columns of N are independent: every diagonal entry of
    R in N = QR above DEP_TOL, in N's own conditioning (the raw QR holds R
    in its upper triangle, transposed)."""
    return N.shape[1] <= N.shape[0] and float(
        np.abs(np.linalg.qr(N, mode="raw")[0].diagonal()).min()) > DEP_TOL


def _dual_active_set(B, J0, g, C, h, lower, upper, active):
    """Goldfarb-Idnani on unit rows C; J0 J0' = B^-1.  Returns (x, y, z,
    working set), or None when infeasible; raises _StepCap when the dual
    steps run out."""
    n, m = g.size, h.size

    def tol(x):
        return QP_TOL * (1.0 + float(np.maximum.reduce(np.abs(x))))

    # every constraint's normal as a column: the rows, then e_i for the
    # upper bounds and -e_i for the lower ones; an infinite bound is never
    # violated, as N'x - beta is -inf there
    eye = np.eye(n)
    normals = np.concatenate((C.T, eye, -eye), axis=1)
    beta = np.concatenate((h, upper, -lower))
    if active is None:  # the bounds that the unconstrained minimizer violates
        x = -(J0 @ (g @ J0))
        W = (np.concatenate((x > upper, x < lower)).nonzero()[0] + m).tolist()
    else:
        fin = np.isfinite(beta)
        W = [int(k) for k in dict.fromkeys(active) if 0 <= k < m + 2 * n and fin[k]]
    # the factors: J J' = B^-1, J'N = [R; 0] with R^-1 as Rinv, for the
    # working normals N = normals[:, W]; J's first len(W) columns are J1, the
    # others J2, which spans the step directions that keep N'x fixed; a warm
    # set whose normals depend on each other starts cold
    J, Rinv = J0.copy(), np.zeros((0, 0))
    if W:
        N = normals[:, W]
        if active is None or _independent(N):
            Q, R = np.linalg.qr(J0.T @ N, mode="complete")
            J, Rinv = J0 @ Q, np.linalg.inv(R[:len(W)])
        else:
            W = []

    def point(x, lam):
        """One Newton step from (x, lam) to the point optimal for N'x = beta
        on the working set, with its multipliers."""
        q = len(W)
        N = normals[:, W]
        rho = B @ x + g + N @ lam
        u = (beta[W] - x @ N) @ Rinv
        J1, J2 = J[:, :q], J[:, q:]
        return x + J1 @ u - J2 @ (rho @ J2), lam - Rinv @ (u + rho @ J1)

    def drop(j):
        """Rinv and J without working constraint j: a reflection of J1 that
        takes row j of Rinv to a multiple of the last unit vector moves J1's
        last column to J2 and leaves Rinv's last column and row j to go."""
        q = len(W)
        u = Rinv[j]
        nrm = math.sqrt(float(u @ u))
        v = u.copy()
        v[-1] += math.copysign(nrm, u[-1])
        v *= 1.0 / math.sqrt(nrm * (nrm + abs(u[-1])))  # I - v v' reflects
        J1 = J[:, :q]
        J1 -= (J1 @ v)[:, None] * v
        keep = np.arange(q) != j
        del W[j]
        return (Rinv - (Rinv @ v)[:, None] * v)[keep, :q - 1], keep

    # the warm start: the working set's point, dropping the constraint of
    # least multiplier until none is negative
    x, lam = point(np.zeros(n), np.zeros(len(W)))
    while W and not float(np.minimum.reduce(lam)) >= 0.0:
        Rinv, keep = drop(int(lam.argmin()))
        x, lam = point(x, lam[keep])
    refined = False  # whether x has taken a Newton step since its last dual step
    steps = STEP_CAP * (m + 2 * n + 5)
    for _ in range(steps):
        viol = x @ normals - beta
        viol[W] = -np.inf
        p = int(viol.argmax())
        if viol[p] <= tol(x):
            if not refined:
                refined = True
                x_new, lam_new = point(x, lam)
                if np.logical_and.reduce(lam_new >= 0.0):
                    x, lam = x_new, lam_new
                    continue
            break
        refined = False
        a = normals[:, p]
        tp = 0.0
        while True:
            q = len(W)
            d = a @ J
            d2 = d[q:]
            r = -(Rinv @ d[:q])
            z = -(J[:, q:] @ d2)  # the primal step, B^-1 a off N's span
            t1, dd = np.inf, float(d2 @ d2)
            if dd > 0.0 and (float(np.maximum.reduce(np.abs(B @ z))) > DEP_SCREEN
                             or not _depends(normals[:, W], a)):
                t1 = float(viol[p]) / dd
            else:
                z[:] = 0.0  # a depends on the working rows: a dual step only
            neg = r < 0.0
            t2, j = np.inf, -1
            if np.logical_or.reduce(neg):
                ratios = np.where(neg, lam / np.where(neg, -r, 1.0), np.inf)
                j = int(ratios.argmin())
                t2 = float(ratios[j])
            if t1 == np.inf and t2 == np.inf:
                # the new row depends on rows that cannot yield: infeasible,
                # unless the violation was the updates' rounding
                if not W:
                    return None
                x_new, lam_new = point(x, lam)
                if not (np.logical_and.reduce(lam_new >= 0.0)
                        and a @ x_new - beta[p] <= tol(x_new)):
                    return None
                x, lam = x_new, lam_new
                break
            if t1 <= t2:
                x = x + t1 * z
                lam = np.append(lam + t1 * r, tp + t1)
                # a reflection of J2 that takes J2'a = d2 to delta e_1 makes
                # J2's first column J1's last, and R's last column (d1, delta)
                nrm = math.sqrt(dd)
                delta = math.copysign(nrm, -d2[0])
                v = d2.copy()
                v[0] -= delta
                v *= 1.0 / math.sqrt(nrm * (nrm + abs(d2[0])))
                J2 = J[:, q:]
                J2 -= (J2 @ v)[:, None] * v
                grown = np.zeros((q + 1, q + 1))
                grown[:q, :q] = Rinv
                grown[:q, q] = r / delta
                grown[q, q] = 1.0 / delta
                Rinv = grown
                W.append(p)
                break
            x = x + t2 * z
            tp += t2
            Rinv, keep = drop(j)
            lam = (lam + t2 * r)[keep]
            viol[p] = a @ x - beta[p]
    else:
        raise _StepCap(steps)
    # the working set holds each constraint at most once, and never both
    # bounds of a variable: their normals would depend on each other
    full = np.zeros(m + 2 * n)
    full[W] = lam
    return x, full[:m], full[m:m + n] - full[m + n:], tuple(W)


def _depends(N, a):
    """Whether the unit normal a lies within DEP_TOL of the span of N's
    columns, by its unscaled residual off an orthonormal basis of N."""
    if not N.shape[1]:
        return False
    Q = np.linalg.qr(N)[0]
    return float(np.maximum.reduce(np.abs(a - Q @ (a @ Q)))) <= DEP_TOL
