"""Dense bounded-variable simplex: one dual-then-primal path for every start.

Deliberately dense: the problems this package builds are desk scale (hundreds
of rows).  The pivot loops keep an explicit basis inverse and apply a rank-1
(product-form, eta) update after each basis change, so a pivot costs a few
matrix-vector products; the inverse is recomputed from scratch every
``REFACTOR_EVERY`` basis changes, whenever an update looks numerically unsafe,
and before the primal loop reports optimality (Forrest & Tomlin 1972; Bixby
2002).  The point and the duals come from that last fresh inverse.  Dantzig
pricing with a permanent switch to Bland's rule once degenerate pivots pile
up gives finite termination.

Every solve starts from a basis, inverts it once, restores primal
feasibility with a bounded dual simplex and then optimizes the costs with
the primal simplex.  The dual runs on the costs when the start is dual
feasible for them (only bounds changed, as between a branch-and-bound node
and its children), else on zero costs, for which every basis is dual
feasible (a cost change alone, as between Frank-Wolfe steps, takes no dual
pivot).  A dual run that finds no entering column proves the LP infeasible.
Only the start differs (Koberstein 2005; Bixby 2002):

* cold: a lower-triangular crash basis (Bixby 1992) of slacks and of
  structural columns each absorbing its row's residual within its bounds,
  plus an artificial column fixed at 0 for each row where neither does; the
  dual drives the artificials to 0, and one still basic there is then
  swapped for a structural column of its row (a row with none is redundant);
* warm: the final basis of an earlier optimal solve of the same rows
  (``SimplexOut.basis``), its nonbasics snapped to the new bounds.  The
  handle is ``(basis, state, inverse, A)``: the basic columns, the nonbasic
  states, and the fresh basis inverse that solve priced "optimal" on, with
  the matrix it factors.  On that same matrix object the start copies the
  inverse and recomputes only the basic values; a handle of another matrix,
  or one cut to ``(basis, state)``, is inverted.  A warm start that hits its
  dual-pivot budget, its iteration limit or a numerical failure is solved
  cold instead.

Zero costs price every basis out, so a zero-cost solve (a feasibility
question) takes no pricing pass: its dual enters the largest pivot, and it
is optimal as soon as its basic values are fresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..model import BINARY, EQ, LE, MIN, Model
from .result import NumericalError, SolveResult, Status

INF = float("inf")

FEAS_TOL = 1e-8
OPT_TOL = 1e-8
PIV_TOL = 1e-9
# basis changes between fresh inverses; an eta pivot below ETA_TOL (relative
# to the entering column) refactors at once
REFACTOR_EVERY = 50
ETA_TOL = 1e-7
# dual pivots a warm start may take before the LP is solved cold instead
DUAL_LIMIT = 500

# nonbasic variable states, and by state whether the variable may rise or fall
AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, 3
_CAN_RISE = np.array([True, False, True, False])
_CAN_FALL = np.array([False, True, True, False])


@dataclass
class StandardFormLP:
    """min c·x + c0 (+ quad)  s.t.  A x = b,  lower <= x <= upper (inf bounds allowed)."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c0: float
    lower: np.ndarray
    upper: np.ndarray
    slack_col: np.ndarray  # per row: slack column index, -1 for equalities
    sign: float  # +1 for min models, -1 for max (already folded into c, c0, quad)
    quad: tuple = ()  # ((i, j, coef), ...) quadratic terms; the simplex ignores them


def standard_form(model: Model) -> StandardFormLP:
    """Equality-form arrays for a model; binaries are relaxed to their bounds."""
    n = model.num_variables
    m = len(model.constraints)
    nslack = sum(1 for c in model.constraints if c.sense != EQ)
    ntot = n + nslack
    A = np.zeros((m, ntot))
    b = np.empty(m)
    lower = np.empty(ntot)
    upper = np.empty(ntot)
    for var in model.variables:
        lower[var.id] = var.lower
        upper[var.id] = var.upper
    slack_col = np.full(m, -1, dtype=int)
    k = n
    for r, con in enumerate(model.constraints):
        for vid, coef in con.expr.terms.items():
            A[r, vid] = coef
        b[r] = con.rhs - con.expr.constant
        if con.sense != EQ:
            A[r, k] = 1.0
            if con.sense == LE:
                lower[k], upper[k] = 0.0, INF
            else:
                lower[k], upper[k] = -INF, 0.0
            slack_col[r] = k
            k += 1
    sign = 1.0 if model.objective.sense == MIN else -1.0
    c = np.zeros(ntot)
    for vid, coef in model.objective.linear.terms.items():
        c[vid] = sign * coef
    c0 = sign * model.objective.linear.constant
    quad = tuple((i, j, sign * coef) for i, j, coef in model.objective.quadratic)
    return StandardFormLP(A, b, c, c0, lower, upper, slack_col, sign, quad)


@dataclass
class SimplexOut:
    status: str  # optimal | infeasible | unbounded | limit
    x: np.ndarray
    obj: float  # min-space objective including c0
    pi: np.ndarray
    reduced: np.ndarray
    iterations: int
    basis: tuple | None = None  # warm-start handle of an optimal solve (module docstring)
    inverses: int = 0  # fresh basis inverses taken


class _Tableau:
    # The pivot loops work on vectors of a few to a few dozen entries, where
    # numpy's Python-level wrappers (np.argmax, np.flatnonzero, np.any) cost
    # 1-3 us per call, more than the work they wrap; the loops call the
    # ndarray methods and ufuncs instead, which return the same bits.
    def __init__(self, A, b, lower, upper, slack_col, start=None):
        self.m = A.shape[0]
        self.A, self.b = A, b
        self.lower, self.upper = lower, upper
        self.Binv = None  # explicit basis inverse, eta-updated between refactors
        if start is None:
            self._crash(slack_col)
        else:
            self._snap(*start)
        self.ntot = self.A.shape[1]
        self.iterations = 0
        self.bland = False
        self._degen = 0
        self.pi = np.zeros(self.m)
        self._etas = 0  # eta updates since the last fresh inverse
        self._stale = True  # x moved since the basic values were last computed
        self.inverses = 0  # fresh inverses taken
        # nonbasics that may rise or fall, kept up to date by _set_state
        self.movable = self.lower < self.upper
        self.can_rise = self.movable & _CAN_RISE[self.state]
        self.can_fall = self.movable & _CAN_FALL[self.state]

    def _crash(self, slack_col):
        """Cold start: nonbasics at their nearest finite bound (free ones at 0),
        then row by row a basic column that absorbs the row's residual within
        its bounds: the row's slack, else the movable column with the largest
        entry among those whose first nonzero is in this row, so the basis is
        lower triangular (Bixby 1992); else an artificial fixed at 0 that
        starts at the residual's size."""
        A, b, lower, upper = self.A, self.b, self.lower, self.upper
        m, n = A.shape
        x = np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))
        state = np.where(np.isfinite(lower), AT_LOWER,
                         np.where(np.isfinite(upper), AT_UPPER, FREE)).astype(np.int8)
        resid = b - A @ x
        # movable columns grouped by the row of their first nonzero; their
        # values stay unchanged until their row
        seen = np.logical_or.accumulate(A != 0.0, axis=0).sum(axis=0)
        first = np.where(lower < upper, m - seen, m)
        order = np.argsort(first, kind="stable")
        starts = np.searchsorted(first[order], np.arange(m + 1)).tolist()
        cols = order[:starts[m]]  # columns that have a first row, and their entry there
        cols, lead = cols.tolist(), A[first[cols], cols].tolist()
        lo, up, xo = (lower - 1e-12).tolist(), (upper + 1e-12).tolist(), x.tolist()
        basis = np.full(m, -1)
        for i, j in enumerate(slack_col.tolist()):
            r = float(resid[i])
            if j >= 0 and lo[j] <= x[j] + r <= up[j]:
                x[j] += r  # the row's own slack absorbs the residual
            else:
                j, best = -1, 0.0  # the largest entry that fits, the first of ties
                s = slice(starts[i], starts[i + 1])
                for k, a in zip(cols[s], lead[s]):
                    v = xo[k] + r / a
                    if abs(a) > best and lo[k] <= v <= up[k]:
                        j, best, val = k, abs(a), v
                if j < 0:
                    continue
                resid -= (val - x[j]) * A[:, j]  # rows above i hold no entry of column j
                x[j] = val
            basis[i] = j
            state[j] = BASIC
        art = (basis < 0).nonzero()[0]
        if art.size:
            E = np.zeros((m, art.size))
            E[art, np.arange(art.size)] = np.where(resid[art] >= 0, 1.0, -1.0)
            basis[art] = n + np.arange(art.size)
            self.A = np.hstack([A, E])
            self.lower = np.concatenate([lower, np.zeros(art.size)])
            self.upper = np.concatenate([upper, np.zeros(art.size)])
            x = np.concatenate([x, np.abs(resid[art])])
            state = np.concatenate([state, np.full(art.size, BASIC, dtype=np.int8)])
        self.x = x
        self.state = state
        self.basis = basis

    def _snap(self, basis, state, Binv=None, A=None):
        """Warm start from an earlier basis: each nonbasic keeps its bound if
        that bound is still finite, else moves to the other one (or 0 if free);
        the basic values come with the first refresh, from a copy of the
        handle's inverse when it factors this matrix."""
        lo_f = np.isfinite(self.lower)
        at_up = np.isfinite(self.upper) & ((state == AT_UPPER) | ~lo_f)
        self.x = np.where(at_up, self.upper, np.where(lo_f, self.lower, 0.0))
        self.state = np.where(at_up, AT_UPPER, np.where(lo_f, AT_LOWER, FREE)).astype(np.int8)
        self.basis = basis.copy()
        self.state[basis] = BASIC
        if A is self.A:
            self.Binv = Binv.copy()

    def _invert(self):
        """Fresh explicit basis inverse, and the basic values recomputed from it."""
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"basis inversion failed: {exc}") from exc
        if not np.isfinite(self.Binv).all():
            raise NumericalError("singular basis during refactorization")
        self.inverses += 1
        self._etas = 0
        self._recompute_basics()

    def _refresh(self):
        """Fresh basic values, from a fresh inverse if there is none yet or
        eta updates were applied; False when both were fresh already."""
        if self._etas or self.Binv is None:
            self._invert()
        elif self._stale:
            self._recompute_basics()
        else:
            return False
        return True

    def _recompute_basics(self):
        xn = self.x.copy()
        xn[self.basis] = 0.0
        xb = self.Binv @ (self.b - self.A @ xn)
        if not np.isfinite(xb).all():
            raise NumericalError("singular basis during refactorization")
        self.x[self.basis] = xb
        self._stale = False

    def _set_state(self, j, state):
        """Nonbasic state (or BASIC) of column j, with its rise/fall masks."""
        self.state[j] = state
        self.can_rise[j] = self.movable[j] and _CAN_RISE[state]
        self.can_fall[j] = self.movable[j] and _CAN_FALL[state]

    def _replace(self, k, q, u):
        """Basis position k now holds column q (u = B^-1 a_q): eta-update B^-1."""
        self.basis[k] = q
        self._set_state(q, BASIC)
        uk = u[k]
        row = self.Binv[k] / uk
        self.Binv -= u[:, None] * row
        self.Binv[k] = row
        self._etas += 1
        if self._etas >= REFACTOR_EVERY or abs(uk) < ETA_TOL * np.abs(u).max():
            self._invert()

    def run(self, c, maxiter):
        """Iterate to optimality for costs c; returns 'optimal'|'unbounded'|'limit'.

        Basic values are updated in place between fresh inverses; before it
        reports 'optimal' or 'unbounded' after any such update, the loop
        refactors and prices once more, so drift cannot end the solve.
        Zero costs take no pricing: every basis is optimal for them.
        """
        m = self.m
        priced = c.any()
        self._refresh()
        while True:
            if self.iterations >= maxiter:
                return "limit"
            if not priced:
                self.pi = np.zeros(m)
                return "optimal"
            self.pi = c[self.basis] @ self.Binv
            d = c - self.pi @ self.A
            st, up_ok, dn_ok = self.state, self.can_rise, self.can_fall
            score = np.maximum(np.where(up_ok, -d, -INF), np.where(dn_ok, d, -INF))
            if self.bland:
                eligible = (score > OPT_TOL).nonzero()[0]
                q = int(eligible[0]) if eligible.size else -1
            else:
                q = int(score.argmax())
                if score[q] <= OPT_TOL:
                    q = -1
            if q < 0:
                if self._refresh():
                    continue
                return "optimal"
            delta = 1.0 if up_ok[q] and (not dn_ok[q] or d[q] <= 0.0) else -1.0
            u = self.Binv @ self.A[:, q]
            if not np.isfinite(u).all():
                if self._refresh():
                    continue
                raise NumericalError("singular basis in ratio test")
            xb = self.x[self.basis]
            # ratio test: entering moves by t >= 0 in direction delta; each
            # basic variable blocks at the bound it moves toward (NaN: never)
            denom = delta * u
            bound = np.where(denom > PIV_TOL, self.lower[self.basis],
                             np.where(denom < -PIV_TOL, self.upper[self.basis], np.nan))
            ratios = (xb - bound) / denom
            ratios[np.isnan(ratios)] = INF
            np.maximum(ratios, 0.0, out=ratios)
            t_basic = float(ratios.min()) if m else INF
            if st[q] == FREE:
                t_cap = INF
            else:
                span = self.upper[q] - self.lower[q]
                t_cap = span if np.isfinite(span) else INF
            t = min(t_basic, t_cap)
            if t == INF:
                if self._refresh():
                    continue
                return "unbounded"
            self.iterations += 1
            self._degen = self._degen + 1 if t <= 1e-10 else 0
            if self._degen > 200:
                self.bland = True
            self.x[self.basis] = xb - (delta * t) * u
            self.x[q] += delta * t
            self._stale = True
            if t_cap <= t_basic:
                # bound flip, basis unchanged
                self._set_state(q, AT_UPPER if st[q] == AT_LOWER else AT_LOWER)
                continue
            ties = (ratios <= t_basic + 1e-12).nonzero()[0]
            if self.bland:
                k = int(ties[self.basis[ties].argmin()])
            else:
                k = int(ties[np.abs(u[ties]).argmax()])
            leave = self.basis[k]
            self.x[leave] = self.lower[leave] if denom[k] > 0 else self.upper[leave]
            self._set_state(leave, AT_LOWER if denom[k] > 0 else AT_UPPER)
            self._replace(k, q, u)

    def dual_feasible(self, c):
        """Whether the reduced costs of c price every movable nonbasic out."""
        d = c - (c[self.basis] @ self.Binv) @ self.A
        return not ((self.can_rise & (d < -OPT_TOL)) | (self.can_fall & (d > OPT_TOL))).any()

    def dual(self, c, feas_tol, maxiter):
        """Dual simplex from a dual feasible basis for costs c, with a current
        inverse and basic values, until the basic values are within
        ``feas_tol`` of their bounds; returns 'feasible'|'infeasible'|'limit'.

        The leaving row is the most infeasible basic; the entering column
        passes a Harris two-pass ratio test (largest pivot among the near-ties;
        under zero costs all tie).  "infeasible" is drawn from a fresh inverse
        only; "feasible" may rest on updated values, since ``run`` refreshes
        them before it prices.
        """
        priced = c.any()
        while self.m:
            xb = self.x[self.basis]
            below = self.lower[self.basis] - xb
            above = xb - self.upper[self.basis]
            viol = np.maximum(below, above)
            r = int(viol.argmax())
            if viol[r] <= feas_tol:
                break
            if self.iterations >= maxiter:
                return "limit"
            # sigma = +1: basic r rises to its lower bound, -1: falls to its upper
            sigma = 1.0 if below[r] > above[r] else -1.0
            alpha = sigma * (self.Binv[r] @ self.A)
            # entering candidates: moving in their allowed direction pushes row r
            # toward its bound; each may move until its reduced cost reaches 0
            rise = self.can_rise & (alpha < -PIV_TOL)
            elig = (rise | (self.can_fall & (alpha > PIV_TOL))).nonzero()[0]
            if not elig.size:
                if self._refresh():
                    continue
                return "infeasible"
            aj = np.abs(alpha[elig])
            if priced:
                d = c - (c[self.basis] @ self.Binv) @ self.A
                dj = np.maximum(np.where(rise[elig], d[elig], -d[elig]), 0.0)
                near = (dj / aj <= ((dj + OPT_TOL) / aj).min()).nonzero()[0]
                q = int(elig[near[aj[near].argmax()]])
            else:
                q = int(elig[aj.argmax()])
            u = self.Binv @ self.A[:, q]
            if not np.isfinite(u).all() or abs(u[r]) <= PIV_TOL:
                if self._refresh():
                    continue
                raise NumericalError("unstable dual pivot")
            leave = self.basis[r]
            target = self.lower[leave] if sigma > 0 else self.upper[leave]
            step = (xb[r] - target) / u[r]  # change of x_q
            self.iterations += 1
            self.x[self.basis] = xb - step * u
            self.x[q] += step
            self.x[leave] = target
            self._stale = True
            self._set_state(leave, AT_LOWER if sigma > 0 else AT_UPPER)
            self._replace(r, q, u)
        return "feasible"

    def pivot_out_artificials(self, n):
        """Swap each artificial still basic (at 0, after the dual) for the
        nonbasic column among the first n with the largest entry in its row;
        an artificial whose row has none stays, its row being redundant."""
        if self.ntot == n:
            return
        for k in (self.basis >= n).nonzero()[0]:
            row = self.Binv[k] @ self.A[:, :n]
            candidates = ((np.abs(row) > 1e-7) & (self.state[:n] != BASIC)).nonzero()[0]
            if candidates.size:
                enter = int(candidates[np.abs(row[candidates]).argmax()])
                self._set_state(self.basis[k], AT_LOWER)
                self.x[self.basis[k]] = 0.0
                self._stale = True
                self._replace(k, enter, self.Binv @ self.A[:, enter])


def solve_standard_form(sf: StandardFormLP, c_min=None, lower=None, upper=None,
                        maxiter=None, basis=None) -> SimplexOut:
    """Solve (optionally with substituted costs/bounds); everything in min space.

    ``basis`` is the ``SimplexOut.basis`` of an earlier solve of the same
    rows; the solve then starts from it (see the module docstring) and falls
    back to a cold start when that does not settle the LP.
    """
    c_struct = sf.c if c_min is None else np.asarray(c_min, dtype=float)
    lo = sf.lower if lower is None else np.asarray(lower, dtype=float)
    up = sf.upper if upper is None else np.asarray(upper, dtype=float)
    if (lo > up).any():
        x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(up), up, 0.0))
        return SimplexOut("infeasible", x, math.nan, np.zeros(sf.A.shape[0]),
                          np.zeros(sf.A.shape[1]), 0)
    m, ntot = sf.A.shape
    if maxiter is None:
        maxiter = 200 * (m + ntot) + 2000
    feas_scale = FEAS_TOL * max(1.0, float(np.abs(sf.b).max(initial=0.0)))
    # a warm start that stops at a limit or fails numerically is solved cold
    tab = None
    for start in (None,) if basis is None else (basis, None):
        spent = tab.inverses if tab else 0  # by a warm start given up
        tab = _Tableau(sf.A, sf.b, lo, up, sf.slack_col, start)
        tab.inverses = spent
        c = np.zeros(tab.ntot)  # artificials cost nothing
        c[:ntot] = c_struct
        try:
            tab._refresh()
            dual_c = c if not c.any() or tab.dual_feasible(c) else np.zeros_like(c)
            status = tab.dual(dual_c, feas_scale,
                              maxiter if start is None else min(maxiter, DUAL_LIMIT))
            if status == "feasible":
                tab.pivot_out_artificials(ntot)
                status = tab.run(c, maxiter)
        except NumericalError:
            if start is None:
                raise
            continue
        if start is None or status != "limit":
            return _finish(sf, tab, c, status)


def _finish(sf, tab, c, status):
    """Point, duals and reduced costs from the kept basis inverse, which
    ``run`` leaves fresh unless it stopped at its limit; the dead tableau's
    basis, states and inverse are the warm-start handle when the solve is
    optimal and no artificial stayed basic."""
    ntot = sf.A.shape[1]
    if status == "infeasible":
        return SimplexOut(status, tab.x[:ntot].copy(), math.nan, tab.pi,
                          np.zeros(ntot), tab.iterations, inverses=tab.inverses)
    if status == "limit":
        tab._refresh()
        tab.pi = c[tab.basis] @ tab.Binv
    x = tab.x[:ntot].copy()
    reduced = c[:ntot] - tab.pi @ sf.A
    obj = float(c[:ntot] @ x) + sf.c0
    basis = None
    if status == "optimal" and tab.basis.max(initial=-1) < ntot:
        basis = (tab.basis, tab.state[:ntot], tab.Binv, sf.A)
    return SimplexOut(status, x, obj, tab.pi, reduced, tab.iterations, basis, tab.inverses)


_STATUS_MAP = {
    "optimal": Status.OPTIMAL,
    "infeasible": Status.INFEASIBLE,
    "unbounded": Status.UNBOUNDED,
    "limit": Status.LIMIT,
}


def _dual_objective(sf: StandardFormLP, out: SimplexOut) -> float:
    """Dual bound: pi·b plus the bound contributions of the reduced costs."""
    val = float(out.pi @ sf.b) + sf.c0
    for j in range(sf.A.shape[1]):
        dj = out.reduced[j]
        if dj > OPT_TOL:
            if not np.isfinite(sf.lower[j]):
                return -INF
            val += dj * sf.lower[j]
        elif dj < -OPT_TOL:
            if not np.isfinite(sf.upper[j]):
                return -INF
            val += dj * sf.upper[j]
    return val


def result_from_simplex(model: Model, sf: StandardFormLP, out: SimplexOut) -> SolveResult:
    """Map a min-space simplex output back to the model's objective orientation."""
    status = _STATUS_MAP[out.status]
    point = {vid: float(out.x[vid]) for vid in range(model.num_variables)}
    res = SolveResult(status=status, point=point, iterations=out.iterations)
    if out.status == "optimal":
        res.objective = sf.sign * out.obj
        res.best_bound = res.objective
        res.duals = {r: sf.sign * float(out.pi[r]) for r in range(len(model.constraints))}
        res.reduced_costs = {vid: sf.sign * float(out.reduced[vid])
                             for vid in range(model.num_variables)}
        res.dual_objective = sf.sign * _dual_objective(sf, out)
    return res


def lp_solve(model: Model, maxiter=None) -> SolveResult:
    """Solve a pure LP (no binaries, no complementarities, no quadratic objective)."""
    if any(v.kind == BINARY for v in model.variables):
        raise ValueError("lp_solve does not accept binary variables")
    if model.complementarities:
        raise ValueError("lp_solve does not accept complementarity pairs")
    if model.objective.quadratic:
        raise ValueError("lp_solve does not accept quadratic objectives")
    sf = standard_form(model)
    out = solve_standard_form(sf, maxiter=maxiter)
    return result_from_simplex(model, sf, out)
