"""The simplex against HiGHS (``scipy.optimize.linprog``) on random LPs.

Instances mix <=, >= and = rows with boxed, one-sided, free and fixed
variables; right-hand sides are often tight at a known point, which makes
the start degenerate.  Status, optimum and the dual bound must agree.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst
from scipy.optimize import linprog

from surropt.model import Model
from surropt.solvers import simplex
from surropt.solvers.result import Status
from surropt.solvers.simplex import REFACTOR_EVERY, lp_solve

REL_TOL = 1e-7
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
HIGHS_STATUS = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}


def random_lp(seed, m, n, infeasible=False):
    """(Model, linprog kwargs) for one random instance.

    Rows hold at a point x0 inside the bounds (about half of them with
    equality, so degenerate); an infeasible instance boxes every variable,
    so that it cannot also be unbounded, and adds two contradicting rows.
    """
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["box", "lower", "upper", "free", "fixed"], size=n,
                       p=[0.4, 0.25, 0.15, 0.15, 0.05])
    if infeasible:
        kinds[:] = "box"
    lo = np.round(rng.uniform(-2, 0, n), 1)
    hi = lo + np.round(rng.uniform(0.5, 3, n), 1)
    x0 = rng.uniform(lo, hi)
    lower = np.where(np.isin(kinds, ["box", "lower"]), lo, -np.inf)
    upper = np.where(np.isin(kinds, ["box", "upper"]), hi, np.inf)
    fixed = kinds == "fixed"
    lower[fixed] = upper[fixed] = x0[fixed] = lo[fixed]
    A = np.round(rng.uniform(-3, 3, (m, n)), 1) * (rng.random((m, n)) < 0.7)
    senses = rng.choice(["<=", ">=", "="], size=m, p=[0.45, 0.35, 0.2])
    tight = rng.random(m) < 0.5
    gap = np.where(tight, 0.0, np.round(rng.uniform(0.1, 2, m), 1))
    rhs = A @ x0 + np.where(senses == "<=", gap, np.where(senses == ">=", -gap, 0.0))
    if infeasible:
        a = np.round(rng.uniform(-3, 3, n), 1)
        A = np.vstack([A, a, a])
        senses = np.append(senses, ["<=", ">="])
        rhs = np.append(rhs, [a @ x0, a @ x0 + 1.0])
    c = np.round(rng.uniform(-2, 2, n), 1)

    model = Model()
    ids = [model.add_variable(f"x{j}", lower=lower[j], upper=upper[j]) for j in range(n)]
    for row, sense, r in zip(A, senses, rhs):
        model.add_constraint({ids[j]: float(row[j]) for j in range(n) if row[j]},
                             str(sense), float(r))
    model.set_objective("min", {ids[j]: float(c[j]) for j in range(n)})
    flip = np.where(senses == ">=", -1.0, 1.0)[:, None]
    ub = senses != "="
    kwargs = dict(c=c, A_ub=(flip * A)[ub] if ub.any() else None,
                  b_ub=(flip[:, 0] * rhs)[ub] if ub.any() else None,
                  A_eq=A[~ub] if (~ub).any() else None, b_eq=rhs[~ub] if (~ub).any() else None,
                  bounds=list(zip(lower, upper)))
    return model, kwargs


def assert_matches_highs(model, kwargs):
    ref = linprog(method="highs", options=HIGHS_OPTIONS, **kwargs)
    res = lp_solve(model)
    assert res.status is HIGHS_STATUS[ref.status]
    if ref.status == 0:
        tol = REL_TOL * max(1.0, abs(ref.fun))
        assert abs(res.objective - ref.fun) <= tol
        assert abs(res.dual_objective - ref.fun) <= tol
    return res


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(1, 14), n=hst.integers(1, 14),
       infeasible=hst.booleans())
def test_small_lps_match_highs(seed, m, n, infeasible):
    assert_matches_highs(*random_lp(seed, m, n, infeasible))


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1))
def test_long_lps_match_highs(seed):
    # 40 x 60: most of these take more pivots than one refactor interval
    assert_matches_highs(*random_lp(seed, 40, 60))


def test_long_solve_refactors_once_per_interval(monkeypatch):
    model, kwargs = random_lp(7, 60, 90)
    etas_at_inversion = []  # eta updates each fresh inverse replaced
    stale_optimal = []  # runs that reported "optimal" from an updated inverse
    lu_calls = [0]
    invert, run, lu_factor = simplex._Tableau._invert, simplex._Tableau.run, simplex.lu_factor

    def counting_invert(tab):
        etas_at_inversion.append(tab._etas)
        invert(tab)

    def checking_run(tab, c, maxiter):
        status = run(tab, c, maxiter)
        if status == "optimal" and tab._etas:
            stale_optimal.append(tab._etas)
        return status

    def counting_lu(*args, **kw):
        lu_calls[0] += 1
        return lu_factor(*args, **kw)

    monkeypatch.setattr(simplex._Tableau, "_invert", counting_invert)
    monkeypatch.setattr(simplex._Tableau, "run", checking_run)
    monkeypatch.setattr(simplex, "lu_factor", counting_lu)
    res = assert_matches_highs(model, kwargs)
    assert res.status is Status.OPTIMAL
    intervals = res.iterations // REFACTOR_EVERY
    assert intervals >= 3
    # a fresh inverse at least every interval, not one per pivot: one per
    # interval plus at most one at the start and one before "optimal" in
    # each phase; the LU behind the final duals is the only LU
    assert max(etas_at_inversion) <= REFACTOR_EVERY
    assert len(etas_at_inversion) <= intervals + 5
    assert not stale_optimal
    assert lu_calls[0] == 1

