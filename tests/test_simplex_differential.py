"""The simplex against HiGHS (``scipy.optimize.linprog``) on random LPs.

Instances mix <=, >= and = rows with boxed, one-sided, free and fixed
variables; right-hand sides are often tight at a known point, which makes
the start degenerate.  Status, optimum and the dual bound must agree, for
cold solves and for warm re-solves from an optimal basis after bound or
cost changes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst
from scipy.optimize import linprog

from surropt.encoders import interval_bounds, tighten_bounds
from surropt.model import Model
from surropt.nn import NeuronId, random_network, sign_partition
from surropt.problems import build_engine
from surropt.regions import enumerate_nonempty_patterns, generalized_jacobian
from surropt.solvers import simplex
from surropt.solvers.branch_bound import milp_solve
from surropt.solvers.pattern import mpcc_local_solve, pattern_enumerate_solve
from surropt.solvers.result import Status
from surropt.solvers.simplex import REFACTOR_EVERY, lp_solve

from conftest import two_fold_kink
from test_problems import engine_relu_spec
from test_status_propagation import _box_model, _oracle_instance

REL_TOL = 1e-7
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
HIGHS_STATUS = {0: Status.OPTIMAL, 2: Status.INFEASIBLE, 3: Status.UNBOUNDED}


def random_lp(seed, m, n, infeasible=False, costs=None):
    """(Model, linprog kwargs) for one random instance.

    Rows hold at a point x0 inside the bounds (about half of them with
    equality, so degenerate); an infeasible instance boxes every variable,
    so that it cannot also be unbounded, and adds two contradicting rows.
    ``costs`` replaces the drawn objective.
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
    if costs is not None:
        c = np.asarray(costs, dtype=float)

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


def highs_reference(kwargs):
    """HiGHS's answer to the linprog problem ``kwargs``.

    HiGHS's presolve can call an unbounded LP infeasible (random_lp(3229, 6, 6)
    with the costs of test_presolve_infeasible_verdict_is_asked_again), and
    without presolve HiGHS can end "unknown" on one (random_lp(368666, 5, 7),
    costs from default_rng(255755978)); an infeasible or undecided verdict is
    asked again without presolve.
    """
    for presolve in (True, False):
        ref = linprog(method="highs", options=dict(HIGHS_OPTIONS, presolve=presolve),
                      **kwargs)
        if ref.status in (0, 3):
            break
    assert ref.status in HIGHS_STATUS, f"HiGHS reached no verdict: {ref.message}"
    return ref


def assert_matches_highs(model, kwargs):
    ref = highs_reference(kwargs)
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


def test_presolve_infeasible_verdict_is_asked_again():
    costs = np.round(np.random.default_rng(2).uniform(-2, 2, 6), 1)
    model, kwargs = random_lp(3229, 6, 6, costs=costs)
    assert highs_reference(kwargs).status == 3
    assert assert_matches_highs(model, kwargs).status is Status.UNBOUNDED


def test_long_solve_refactors_once_per_interval(monkeypatch):
    model, kwargs = random_lp(7, 60, 90)
    etas_at_inversion = []  # eta updates each fresh inverse replaced
    stale_optimal = []  # runs that reported "optimal" from an updated inverse
    finish_inversions = []  # fresh inverses taken inside _finish, per solve
    invert, run, finish = simplex._Tableau._invert, simplex._Tableau.run, simplex._finish

    def counting_invert(tab):
        etas_at_inversion.append(tab._etas)
        invert(tab)

    def checking_run(tab, c, maxiter):
        status = run(tab, c, maxiter)
        if status == "optimal" and tab._etas:
            stale_optimal.append(tab._etas)
        return status

    def counting_finish(sf, tab, c, status):
        before = len(etas_at_inversion)
        out = finish(sf, tab, c, status)
        finish_inversions.append(len(etas_at_inversion) - before)
        return out

    monkeypatch.setattr(simplex._Tableau, "_invert", counting_invert)
    monkeypatch.setattr(simplex._Tableau, "run", checking_run)
    monkeypatch.setattr(simplex, "_finish", counting_finish)
    res = assert_matches_highs(model, kwargs)
    assert res.status is Status.OPTIMAL
    intervals = res.iterations // REFACTOR_EVERY
    assert intervals >= 3
    # a fresh inverse at least every interval, not one per pivot: one per
    # interval plus at most one at the start and one before "optimal" in
    # each phase; the final duals reuse the inverse "optimal" was priced on
    assert max(etas_at_inversion) <= REFACTOR_EVERY
    assert len(etas_at_inversion) <= intervals + 5
    assert not stale_optimal
    assert finish_inversions == [0]


def assert_warm_matches_highs(model, kwargs, lower, upper, c, basis):
    """Re-solve from ``basis`` under new bounds and costs; ``kwargs`` are the
    ``random_lp`` linprog arguments, which get the same bounds and costs."""
    sf = simplex.standard_form(model)
    n = model.num_variables
    ref = highs_reference(dict(kwargs, c=c[:n], bounds=list(zip(lower[:n], upper[:n]))))
    out = simplex.solve_standard_form(sf, c_min=c, lower=lower, upper=upper, basis=basis)
    res = simplex.result_from_simplex(model, replace(sf, c=c, lower=lower, upper=upper), out)
    assert res.status is HIGHS_STATUS[ref.status]
    if ref.status == 0:
        tol = REL_TOL * max(1.0, abs(ref.fun))
        assert abs(res.objective - ref.fun) <= tol
        assert abs(res.dual_objective - ref.fun) <= tol


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(1, 14), n=hst.integers(1, 14),
       moves=hst.lists(hst.tuples(hst.integers(0, 13), hst.sampled_from(
           ["tighten", "fix", "cross", "far"]), hst.floats(0.05, 1.0)), min_size=1, max_size=4))
def test_warm_start_after_bound_changes_matches_highs(seed, m, n, moves):
    # from an optimal basis: tighten a bound toward the optimum, fix a
    # variable, move a bound past the optimum (a branch), or far past it
    # (often infeasible); the re-solve starts from the old basis
    model, kwargs = random_lp(seed, m, n)
    sf = simplex.standard_form(model)
    out = simplex.solve_standard_form(sf)
    assume(out.basis is not None)
    lower, upper = sf.lower.copy(), sf.upper.copy()
    for j, kind, frac in moves:
        j %= n
        xj = out.x[j]
        below = xj - lower[j] if np.isfinite(lower[j]) else 2.0
        above = upper[j] - xj if np.isfinite(upper[j]) else 2.0
        if kind == "tighten":
            lower[j] = xj - (1 - frac) * below
            upper[j] = xj + (1 - frac) * above
        elif kind == "fix":
            lower[j] = upper[j] = xj - frac * below
        else:
            step = frac * (1.0 if kind == "cross" else 10.0)
            if frac < 0.5 and np.isfinite(upper[j]):
                upper[j] = min(upper[j], xj - step)
            else:
                lower[j] = max(lower[j], xj + step)
    assume(np.all(lower <= upper))
    assert_warm_matches_highs(model, kwargs, lower, upper, sf.c, out.basis)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(1, 14), n=hst.integers(1, 14),
       cost_seed=hst.integers(0, 2**32 - 1))
def test_warm_start_after_a_cost_change_matches_highs(seed, m, n, cost_seed):
    model, kwargs = random_lp(seed, m, n)
    sf = simplex.standard_form(model)
    out = simplex.solve_standard_form(sf)
    assume(out.basis is not None)
    c = np.zeros_like(sf.c)
    c[:n] = np.round(np.random.default_rng(cost_seed).uniform(-2, 2, n), 1)
    assert_warm_matches_highs(model, kwargs, sf.lower, sf.upper, c, out.basis)


def moved_bounds(sf, x, n, moves):
    """The bounds of ``sf`` after the moves of
    ``test_warm_start_after_bound_changes_matches_highs`` on its first n
    columns around the point x."""
    lower, upper = sf.lower.copy(), sf.upper.copy()
    for j, kind, frac in moves:
        j %= n
        below = x[j] - lower[j] if np.isfinite(lower[j]) else 2.0
        above = upper[j] - x[j] if np.isfinite(upper[j]) else 2.0
        if kind == "tighten":
            lower[j] = x[j] - (1 - frac) * below
            upper[j] = x[j] + (1 - frac) * above
        elif kind == "fix":
            lower[j] = upper[j] = x[j] - frac * below
        else:
            step = frac * (1.0 if kind == "cross" else 10.0)
            if frac < 0.5 and np.isfinite(upper[j]):
                upper[j] = min(upper[j], x[j] - step)
            else:
                lower[j] = max(lower[j], x[j] + step)
    return lower, upper


def assert_same_bits(a, b):
    """Two simplex outputs agree bit for bit, warm-start handles included."""
    assert (a.status, a.iterations, repr(a.obj)) == (b.status, b.iterations, repr(b.obj))
    for name in ("x", "pi", "reduced"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.basis is None) == (b.basis is None)
    if a.basis is not None:
        assert all(u.tobytes() == v.tobytes() for u, v in zip(a.basis[:3], b.basis[:3]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(1, 14), n=hst.integers(1, 14),
       moves=hst.lists(hst.tuples(hst.integers(0, 13), hst.sampled_from(
           ["tighten", "fix", "cross", "far"]), hst.floats(0.05, 1.0)), max_size=4),
       cost_seed=hst.none() | hst.integers(0, 2**32 - 1))
def test_carried_inverse_changes_no_bit(seed, m, n, moves, cost_seed):
    # a re-solve after bound or cost changes from the full handle, whose
    # inverse is copied, equals one from (basis, state), which is inverted
    model, _ = random_lp(seed, m, n)
    sf = simplex.standard_form(model)
    out = simplex.solve_standard_form(sf)
    assume(out.basis is not None)
    basis, _, inverse, A = out.basis
    assert A is sf.A
    assert inverse.tobytes() == np.linalg.inv(sf.A[:, basis]).tobytes()
    again = simplex.solve_standard_form(sf, basis=out.basis)  # still optimal
    assert (again.status, again.iterations, again.inverses) == ("optimal", 0, 0)
    lower, upper = moved_bounds(sf, out.x, n, moves)
    assume(np.all(lower <= upper))
    c = sf.c.copy()
    if cost_seed is not None:
        c[:n] = np.round(np.random.default_rng(cost_seed).uniform(-2, 2, n), 1)
    carried = simplex.solve_standard_form(sf, c_min=c, lower=lower, upper=upper,
                                          basis=out.basis)
    inverted = simplex.solve_standard_form(sf, c_min=c, lower=lower, upper=upper,
                                           basis=out.basis[:2])
    assert_same_bits(carried, inverted)
    assert carried.inverses == inverted.inverses - 1


def test_zero_cost_solve_at_its_iteration_limit_reports_limit():
    # zero-cost solves skip pricing, not the limit check, cold or warm
    limited = 0
    for seed in range(40):
        model, _ = random_lp(seed, 8, 10)
        sf = simplex.standard_form(model)
        zero = np.zeros_like(sf.c)
        full = simplex.solve_standard_form(sf, c_min=zero)
        if full.status != "optimal":
            continue
        assert simplex.solve_standard_form(sf, c_min=zero, maxiter=0).status == "limit"
        warm = simplex.solve_standard_form(sf, c_min=zero, maxiter=0, basis=full.basis)
        assert warm.status == "limit"
        if full.iterations:
            out = simplex.solve_standard_form(sf, c_min=zero, maxiter=full.iterations - 1)
            assert out.status == "limit" and out.iterations == full.iterations - 1
            limited += 1
    assert limited >= 5


def test_infeasible_zero_cost_child_rests_on_a_fresh_inverse(monkeypatch):
    verdicts = []  # (eta updates, stale basic values) at each "infeasible"
    dual = simplex._Tableau.dual

    def checking_dual(tab, c, feas_tol, maxiter):
        status = dual(tab, c, feas_tol, maxiter)
        if status == "infeasible":
            verdicts.append((tab._etas, tab._stale, tab.iterations))
        return status

    monkeypatch.setattr(simplex._Tableau, "dual", checking_dual)
    rng = np.random.default_rng(3)
    for seed in range(60):
        model, _ = random_lp(seed, 8, 10)
        sf = simplex.standard_form(model)
        zero = np.zeros_like(sf.c)
        parent = simplex.solve_standard_form(sf, c_min=zero)
        if parent.basis is None:
            continue
        moves = [(int(rng.integers(10)), "far", float(rng.uniform(0.05, 1.0)))
                 for _ in range(3)]
        lower, upper = moved_bounds(sf, parent.x, 10, moves)
        if np.any(lower > upper):
            continue
        child = simplex.solve_standard_form(sf, c_min=zero, lower=lower, upper=upper,
                                            basis=parent.basis)
        again = simplex.solve_standard_form(sf, c_min=zero, lower=lower, upper=upper,
                                            basis=parent.basis[:2])
        assert_same_bits(child, again)
    assert verdicts and all(etas == 0 and not stale for etas, stale, _ in verdicts)
    assert any(pivots for _, _, pivots in verdicts)  # some after dual pivots


def test_handle_of_another_matrix_is_inverted():
    model, _ = random_lp(5, 9, 12)
    sf = simplex.standard_form(model)
    out = simplex.solve_standard_form(sf)
    assert out.basis is not None
    lower = sf.lower.copy()
    lower[0] = out.x[0] + 0.5
    copied = replace(sf, A=sf.A.copy())  # equal entries, another object
    other = simplex.solve_standard_form(copied, lower=lower, basis=out.basis)
    cold_inverse = simplex.solve_standard_form(sf, lower=lower, basis=out.basis[:2])
    assert_same_bits(other, cold_inverse)
    assert other.status == "optimal" and other.iterations >= 1
    assert other.inverses == cold_inverse.inverses
    assert other.basis[3] is copied.A


def test_optimal_cold_solves_hand_back_a_basis():
    # an artificial the dual leaves basic at 0 is swapped for a structural
    # column of its row; only a redundant row may keep one, so an optimal
    # solve of full-row-rank rows always returns a basis to warm-start from
    optimal = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        model, _ = random_lp(seed, int(rng.integers(1, 15)), int(rng.integers(1, 15)))
        sf = simplex.standard_form(model)
        if np.linalg.matrix_rank(sf.A) < sf.A.shape[0]:
            continue
        out = simplex.solve_standard_form(sf)
        if out.status == "optimal":
            optimal += 1
            assert out.basis is not None, seed
    assert optimal >= 50
    model, _ = build_engine(engine_relu_spec(np.random.default_rng(7), T=2, hidden=4), "mip")
    sf = simplex.standard_form(model)
    assert np.linalg.matrix_rank(sf.A) == sf.A.shape[0]
    out = simplex.solve_standard_form(sf)
    assert out.status == "optimal" and out.basis is not None


def crash(sf):
    """The cold tableau of a standard form, before any pivot."""
    return simplex._Tableau(sf.A, sf.b, sf.lower, sf.upper, sf.slack_col)


@pytest.mark.parametrize("formulation", ["mip", "mpcc"])
def test_crash_puts_no_artificial_on_neuron_or_output_rows(formulation):
    # each neuron row y - s - Wx = b and each output row finds a structural
    # column of its own; a crash of slacks alone needed an artificial on each
    model, _ = build_engine(engine_relu_spec(np.random.default_rng(7), T=2, hidden=4),
                            formulation)
    sf = simplex.standard_form(model)
    tab = crash(sf)
    tags = [model.constraints[i].tag for i in np.flatnonzero(tab.basis >= sf.A.shape[1])]
    assert not [t for t in tags if "relu[" in t or "out[" in t], tags
    assert sum("relu[" in c.tag for c in model.constraints) == 8


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(1, 14), n=hst.integers(1, 14))
def test_crash_basis_is_lower_triangular_and_within_bounds(seed, m, n):
    model, _ = random_lp(seed, m, n)
    sf = simplex.standard_form(model)
    tab = crash(sf)
    ntot = sf.A.shape[1]
    B = tab.A[:, tab.basis]  # row i's basic column is the i-th pick
    assert not np.triu(B, 1).any() and np.diag(B).all()
    assert np.allclose(tab.A @ tab.x, sf.b)
    struct = tab.basis[tab.basis < ntot]
    assert np.all(sf.lower[struct] - 1e-9 <= tab.x[struct])
    assert np.all(tab.x[struct] <= sf.upper[struct] + 1e-9)
    # a row gets an artificial only when no movable column whose first
    # nonzero lies in that row could absorb its residual within its bounds
    first = np.argmax(sf.A != 0, axis=0)
    for i in np.flatnonzero(tab.basis >= ntot):
        resid = sf.b[i] - sf.A[i] @ tab.x[:ntot]
        for j in np.flatnonzero((first == i) & (sf.A[i] != 0) & (sf.lower < sf.upper)):
            val = tab.x[j] + resid / sf.A[i, j]
            assert not sf.lower[j] - 1e-9 <= val <= sf.upper[j] + 1e-9, (i, j)


def test_cold_engine_lps_take_few_pivots():
    # the T=5 engine of a [3, 16, 3] surrogate (260 MIP rows): one dual pivot
    # per artificial took the MIP root 167 pivots and the MPCC subproblem of
    # the pattern at x = 0.5 96
    spec = engine_relu_spec(np.random.default_rng(0), T=5, hidden=16)
    model, _ = build_engine(spec, "mip")
    out = simplex.solve_standard_form(simplex.standard_form(model))
    assert out.status == "optimal" and out.iterations <= 60
    assert out.obj == pytest.approx(-1.247864, abs=1e-6)
    model, handles = build_engine(spec, "mpcc")
    start = sign_partition(spec.net, np.full(3, 0.5)).active
    res = mpcc_local_solve(model, handles.embeddings, start_pattern=start)
    assert res.nodes == 1  # no flip tried: iterations are the start's cold solve
    assert res.iterations <= 10
    assert res.objective == pytest.approx(0.411633, abs=1e-6)


def _cold_tableaux(monkeypatch):
    """Count the tableaux set up from a crash basis, not from a given one."""
    cold = [0]
    init = simplex._Tableau.__init__

    def counting_init(tab, A, b, lower, upper, slack_col, start=None):
        cold[0] += start is None
        init(tab, A, b, lower, upper, slack_col, start)

    monkeypatch.setattr(simplex._Tableau, "__init__", counting_init)
    return cold


def test_bb_children_start_from_the_parent_basis(monkeypatch):
    model, _ = _box_model(random_network(np.random.default_rng(0), [2, 10, 1]), "mip")
    cold = _cold_tableaux(monkeypatch)
    res = milp_solve(model)
    assert res.status is Status.OPTIMAL and res.nodes > 10
    assert cold[0] == 1  # the root


def test_bb_parks_open_nodes_without_a_basis_inverse(monkeypatch):
    from surropt.solvers import branch_bound

    model, _ = _box_model(random_network(np.random.default_rng(0), [2, 10, 1]), "mip")
    starts = []  # per node: its warm start, and the last handle solved before it
    last = [None]
    solve = branch_bound.solve_relaxation

    def recording(sf, lower, upper, **kw):
        starts.append((kw["basis"], last[0]))
        rel = solve(sf, lower, upper, **kw)
        last[0] = rel.basis or last[0]
        return rel

    monkeypatch.setattr(branch_bound, "solve_relaxation", recording)
    res = milp_solve(model)
    assert res.status is Status.OPTIMAL and res.nodes == len(starts) > 10
    # an open node holds (basis, state); the last solved node's full handle,
    # inverse included, goes to a node popped right after it that is its child
    full = [basis is prev for basis, prev in starts[1:]]
    assert all(basis is prev or len(basis) == 2 for basis, prev in starts[1:])
    assert sum(full) >= len(full) // 3


def test_oracle_prefixes_and_leaves_start_from_an_ancestor_basis(monkeypatch):
    model, handles = _oracle_instance()
    cold = _cold_tableaux(monkeypatch)
    assert pattern_enumerate_solve(model, handles).status is Status.OPTIMAL
    assert cold[0] == 2  # the two first-level prefixes have no solved ancestor


def test_region_prefixes_start_from_an_ancestor_basis(monkeypatch):
    net = random_network(np.random.default_rng(7), [2, 4, 3, 1])
    cold = _cold_tableaux(monkeypatch)
    assert len(enumerate_nonempty_patterns(net)) > 2
    assert cold[0] == 2  # the two first-level prefixes have no solved ancestor


def test_hull_vertices_start_from_an_ancestor_basis(monkeypatch):
    net, x = two_fold_kink()
    cold = _cold_tableaux(monkeypatch)
    assert len(generalized_jacobian(net, x).vertices) == 4
    assert cold[0] <= 2


def test_tightening_builds_one_tableau_per_layer_after_the_first(monkeypatch):
    net = random_network(np.random.default_rng(0), [2, 6, 5, 4, 1])
    cold = _cold_tableaux(monkeypatch)
    tighten_bounds(net, (np.full(2, -1.0), np.full(2, 1.0)))
    assert cold[0] == 2  # each later neuron's max and min start from the last basis


def test_mpcc_flips_start_from_the_current_basis(monkeypatch):
    from test_acceptance import _instance_pool

    cold = _cold_tableaux(monkeypatch)
    net, build, d = _instance_pool()[21]
    m, h, _ = build("mpcc")
    start = sign_partition(net, np.zeros(d)).active
    res = mpcc_local_solve(m, h, start_pattern=start)
    assert res.pattern != frozenset(start) and res.nodes >= 5
    assert cold[0] == 2  # the start and the cold re-solve of the final pattern

    net, build, d = _instance_pool()[9]
    m, h, _ = build("mpcc")
    final = mpcc_local_solve(m, h, start_pattern=sign_partition(net, np.zeros(d)).active)
    cold[0] = 0
    res = mpcc_local_solve(m, h, start_pattern=final.pattern)  # already locally optimal
    assert res.pattern == final.pattern and res.nodes > 1
    assert cold[0] == 1  # the start alone: no move, so no re-solve


def big_m_relaxation(net, box, bounds, upto):
    """linprog arguments (without costs) of the LP relaxation of the big-M
    rows of hidden layers [0, upto) over ``box``, and the columns of the last
    encoded layer's outputs."""
    col_bounds = list(zip(box[0], box[1]))
    eq, ub = [], []  # (row as {column: coefficient}, right-hand side)
    prev = list(range(len(col_bounds)))
    for li in range(upto):
        lay = net.hidden_layers[li]
        nxt = []
        for i in range(lay.fan_out):
            my, ms = bounds.for_neuron(NeuronId(li, i))
            y, s, z = range(len(col_bounds), len(col_bounds) + 3)
            col_bounds += [(0.0, my), (0.0, ms), (0.0, 1.0)]
            row = {y: 1.0, s: -1.0}
            row.update({p: -w for p, w in zip(prev, lay.weights[i])})
            eq.append((row, lay.bias[i]))
            ub.append(({y: 1.0, z: my}, my))
            ub.append(({s: 1.0, z: -ms}, 0.0))
            nxt.append(y)
        prev = nxt

    def dense(rows):
        A = np.zeros((len(rows), len(col_bounds)))
        for r, (row, _) in enumerate(rows):
            for j, coef in row.items():
                A[r, j] = coef
        return A, np.array([rhs for _, rhs in rows])

    (A_eq, b_eq), (A_ub, b_ub) = dense(eq), dense(ub)
    return dict(A_eq=A_eq, b_eq=b_eq, A_ub=A_ub, b_ub=b_ub, bounds=col_bounds), prev


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1), n_in=hst.integers(1, 3),
       widths=hst.lists(hst.integers(1, 5), min_size=2, max_size=3))
def test_tightened_bounds_match_highs_on_the_upstream_relaxation(seed, n_in, widths):
    rng = np.random.default_rng(seed)
    net = random_network(rng, [n_in, *widths, 1])
    lo = np.round(rng.uniform(-2.0, 0.0, n_in), 1)
    box = (lo, lo + np.round(rng.uniform(0.1, 2.0, n_in), 1))
    bounds, interval = tighten_bounds(net, box), interval_bounds(net, box)
    for li in range(1, len(widths)):
        kwargs, prev = big_m_relaxation(net, box, bounds, li)
        lay = net.hidden_layers[li]
        for i in range(lay.fan_out):
            nid = NeuronId(li, i)
            c = np.zeros(len(kwargs["bounds"]))
            c[prev] = lay.weights[i]
            top, bottom = highs_reference(dict(kwargs, c=-c)), highs_reference(dict(kwargs, c=c))
            assert top.status == 0 and bottom.status == 0
            my = min(interval.my[nid], max(0.0, lay.bias[i] - top.fun))
            ms = min(interval.ms[nid], max(0.0, -(lay.bias[i] + bottom.fun)))
            assert abs(bounds.my[nid] - my) <= 1e-7
            assert abs(bounds.ms[nid] - ms) <= 1e-7
