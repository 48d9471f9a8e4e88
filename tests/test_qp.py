"""The dense dual active-set QP (Goldfarb & Idnani) on random strictly convex
problems: KKT conditions, warm starts, dependent rows and the relaxation."""

import itertools
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surropt.solvers.embedded import _damped_bfgs
from surropt.solvers.qp import relax_weight, solve_qp

from conftest import assert_same_bits

TOL = 1e-8


def inverse(B):
    """B's inverse, symmetric bit for bit like the one the embedded solver
    carries (L^-T L^-1 for B = L L')."""
    Linv = np.linalg.inv(np.linalg.cholesky(B))
    return Linv.T @ Linv


def solve(B, g, C, h, lower, upper, **kwargs):
    """solve_qp with B's inverse alongside B, as the embedded solver passes it."""
    return solve_qp(B, inverse(B), g, C, h, lower, upper, **kwargs)


def draw_qp(rng, n, m, rows):
    """min 0.5 x'B x + g'x s.t. C x <= h, lower <= x <= upper.  ``rows`` adds
    a duplicate of row 0, an anti-parallel copy of it that leaves a slab, or
    one that contradicts it."""
    M = rng.normal(size=(n, n))
    B = M @ M.T + rng.uniform(0.1, 1.0) * np.eye(n)
    g = 3.0 * rng.normal(size=n)
    C = rng.normal(size=(m, n))
    h = rng.normal(size=m)
    if m and rows != "plain":
        extra = {"duplicate": (C[0], h[0]), "slab": (-C[0], -h[0] + rng.uniform(0.1, 1.0)),
                 "contradiction": (-C[0], -h[0] - rng.uniform(0.1, 1.0))}[rows]
        C, h = np.vstack([C, extra[0]]), np.append(h, extra[1])
    lower, upper = rng.uniform(-2.0, 0.0, n), rng.uniform(0.0, 2.0, n)
    lower[rng.random(n) < 0.3] = -np.inf
    upper[rng.random(n) < 0.3] = np.inf
    return B, g, C, h, lower, upper


def assert_kkt(B, g, C, h, lower, upper, sol, xi_row=None, w=None):
    """Stationarity, feasibility, complementarity and multiplier signs to TOL;
    with ``xi_row``, of the relaxed QP in (x, xi)."""
    x, y, z = sol.x, sol.y, sol.z
    scale = 1.0 + np.abs(B).max() * np.abs(x).max() + np.abs(g).max() + np.abs(y).sum()
    res = B @ x + g + C.T @ y + z
    assert np.abs(res).max() <= TOL * scale
    slack = C @ x - h
    if xi_row is not None:
        xi = sol.relaxation
        slack = slack + xi_row * xi
        assert -TOL <= xi <= 1.0 + TOL
        r_xi = w * xi + xi_row @ y  # plus the multiplier of 0 <= xi <= 1
        assert r_xi >= -TOL * scale if xi <= TOL else (
            r_xi <= TOL * scale if xi >= 1.0 - TOL else abs(r_xi) <= TOL * scale)
    assert slack.max(initial=0.0) <= TOL * (1.0 + np.abs(h).max(initial=0.0))
    assert (x >= lower - TOL).all() and (x <= upper + TOL).all()
    assert (y >= 0.0).all()
    assert np.abs(y * slack).max(initial=0.0) <= TOL * scale
    assert (z[x < upper - 1e-7] <= TOL * scale).all()
    assert (z[x > lower + 1e-7] >= -TOL * scale).all()


def enumerate_active_sets(B, g, C, h, lower, upper):
    """The KKT point by trying every set of at most n active constraints, or
    None if no set gives one (the QP is infeasible)."""
    n = g.size
    eye = np.eye(n)
    G = np.vstack([C, eye[np.isfinite(upper)], -eye[np.isfinite(lower)]])
    b = np.concatenate([h, upper[np.isfinite(upper)], -lower[np.isfinite(lower)]])
    for k in range(n + 1):
        for S in map(list, itertools.combinations(range(len(b)), k)):
            K = np.block([[B, G[S].T], [G[S], np.zeros((k, k))]])
            if np.linalg.matrix_rank(K) < n + k:
                continue
            sol = np.linalg.solve(K, np.concatenate([-g, b[S]]))
            if (G @ sol[:n] - b <= 1e-9).all() and (sol[n:] >= -1e-9).all():
                return sol[:n]
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5),
       st.sampled_from(["plain", "duplicate", "slab", "contradiction"]),
       st.integers(0, 2**32 - 1))
def test_qp_meets_kkt_and_matches_enumeration(n, m, rows, seed):
    rng = np.random.default_rng(seed)
    B, g, C, h, lower, upper = draw_qp(rng, n, m, rows)
    sol = solve(B, g, C, h, lower, upper)
    ref = enumerate_active_sets(B, g, C, h, lower, upper) if n <= 4 else None
    if sol is None:
        assert n > 4 or ref is None
        return
    assert_kkt(B, g, C, h, lower, upper, sol)
    if n <= 4:
        assert ref is not None
        np.testing.assert_allclose(sol.x, ref, rtol=0.0, atol=1e-6)
    # the final working set warm-starts the same QP at its answer
    again = solve(B, g, C, h, lower, upper, active=sol.active)
    np.testing.assert_allclose(again.x, sol.x, rtol=0.0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_inconsistent_rows_take_the_relaxation_variable(n, m, seed):
    # bounds around 0 and a row that contradicts row 0: some row has h < 0,
    # and xi = 1 admits x = 0
    rng = np.random.default_rng(seed)
    B, g, C, h, lower, upper = draw_qp(rng, n, m, "contradiction")
    lower, upper = np.minimum(lower, 0.0), np.maximum(upper, 0.0)
    assert solve(B, g, C, h, lower, upper) is None
    if n <= 4:
        assert enumerate_active_sets(B, g, C, h, lower, upper) is None
    sol = solve(B, g, C, h, lower, upper, relax=True)
    assert sol is not None and sol.relaxation > 0.0
    assert_kkt(B, g, C, h, lower, upper, sol, xi_row=np.minimum(h, 0.0), w=relax_weight(B))


def test_consistent_rows_are_not_relaxed():
    B, g = np.eye(2), np.array([1.0, 1.0])
    sol = solve(B, g, [[-1.0, 0.0]], [-0.5], [-1.0, -1.0], [1.0, 1.0], relax=True)
    assert sol.relaxation == 0.0
    np.testing.assert_allclose(sol.x, [0.5, -1.0], atol=1e-12)
    np.testing.assert_allclose(sol.y, [1.5], atol=1e-12)
    np.testing.assert_allclose(sol.z, [0.0, -0.0], atol=1e-12)


@pytest.mark.parametrize("bad", ["B", "g"])
def test_non_finite_input_gives_no_solution(bad):
    B, g = np.eye(2), np.ones(2)
    if bad == "B":
        B = B * np.nan
    else:
        g = g * np.inf
    assert solve(B, g, np.zeros((0, 2)), np.zeros(0), -np.ones(2), np.ones(2)) is None


def draw_scaled_qp(rng, n, m, spread, box_heavy, near):
    """A QP at the embedded solver's scale: B with eigenvalues spread over
    10**-spread[0] .. 10**spread[1], and the rest by ``draw_scaled_rows``."""
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    eig = np.logspace(-spread[0], spread[1], n)
    B = (Q * eig) @ Q.T
    B = 0.5 * (B + B.T)
    return (B,) + draw_scaled_rows(rng, n, m, eig.max(), box_heavy, near)


def draw_scaled_rows(rng, n, m, top, box_heavy, near):
    """g, C, h and every variable's box of a QP at the embedded solver's
    scale, for a B whose largest eigenvalue is ``top``; with ``near`` a row
    pair at that angle.  ``box_heavy`` pushes the unconstrained minimizer
    past the box in every coordinate, so that n constraints hold at the
    optimum."""
    g = rng.normal(size=n)
    if box_heavy:
        g = 1e3 * np.sign(g) * (1.0 + np.abs(g)) * top
    C = rng.normal(size=(m, n))
    h = rng.uniform(-0.5, 1.0, m)
    if near is not None and m >= 2 and n >= 2:
        # row 1 is row 0 turned by the angle near in a random plane, with
        # the same distance from the origin or a little more
        u = rng.normal(size=n)
        c0 = C[0] / np.linalg.norm(C[0])
        u -= (u @ c0) * c0
        u /= np.linalg.norm(u)
        C[1] = np.cos(near) * c0 + np.sin(near) * u
        h[1] = h[0] / np.linalg.norm(C[0]) + rng.choice([0.0, near, 1e-3])
    lower, upper = rng.uniform(-2.0, -0.1, n), rng.uniform(0.1, 2.0, n)
    return g, C, h, lower, upper


def stale_set(rng, sol, other, m, n):
    """A warm start that no longer fits: the answer's working set with ids
    added or removed, or another QP's set."""
    kind = rng.integers(3)
    if kind == 0 or sol is None:
        return other
    W = list(sol.active)
    if kind == 1:
        return W + rng.integers(0, m + 2 * n, size=rng.integers(1, 6)).tolist()
    keep = rng.random(len(W)) < 0.5
    return [k for k, kept in zip(W, keep) if kept]


def assert_cold_and_warm_agree(rng, qp, H, other):
    """The cold answer meets KKT, and so do warm starts from its own working
    set, from ``other``'s and from stale sets, each near the cold answer."""
    B, g, C, h, lower, upper = qp
    n, m = g.size, h.size
    cold = solve_qp(B, H, g, C, h, lower, upper)
    if cold is not None:
        assert_kkt(*qp, cold)
    starts = [cold.active if cold is not None else (), other.active if other is not None else ()]
    starts += [stale_set(rng, cold, starts[1], m, n) for _ in range(3)]
    for active in starts:
        warm = solve_qp(B, H, g, C, h, lower, upper, active=active)
        if warm is None:
            assert cold is None
            continue
        assert_kkt(*qp, warm)
        if cold is not None:
            np.testing.assert_allclose(warm.x, cold.x, rtol=0.0,
                                       atol=1e-7 * (1.0 + np.abs(cold.x).max()))
    return cold


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 48), st.integers(0, 24), st.integers(0, 6), st.integers(0, 4),
       st.booleans(), st.sampled_from([None, 1e-6, 1e-8, 1e-10, 1e-12]),
       st.integers(0, 2**32 - 1))
# a negative row multiplier next to a nearly dependent row pair, before the
# dependency test took unscaled unit rows
@example(17, 15, 3, 0, False, 1e-8, 4192940498)
@example(10, 3, 0, 0, False, 1e-8, 589226372)
@example(40, 7, 5, 4, False, 1e-8, 2923100245)
def test_qp_at_scale_meets_kkt_and_warm_starts_agree(n, m, lo, hi, box_heavy, near, seed):
    rng = np.random.default_rng(seed)
    qp = draw_scaled_qp(rng, n, m, (lo, hi), box_heavy, near)
    other = solve(*draw_scaled_qp(rng, n, m, (lo, hi), box_heavy, near))
    cold = assert_cold_and_warm_agree(rng, qp, inverse(qp[0]), other)
    if cold is not None and box_heavy and m == 0:
        assert len(cold.active) == n


def carried_model(rng, n, updates):
    """B and its inverse H as the embedded solver carries them: ``updates``
    damped BFGS pairs of a curvature with eigenvalues over 1e-3 .. 1e3, one
    pair in five of negative curvature, with a fresh start at the first."""
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = (Q * np.logspace(-3.0, 3.0, n)) @ Q.T
    B = H = np.eye(n)
    fresh = True
    for _ in range(updates):
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 1.0)
        yv = A @ s if rng.random() >= 0.2 else -rng.uniform(0.0, 1.0) * (A @ s)
        B, H, fresh = _damped_bfgs(B, H, s, yv, fresh)
    return B, H


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 400), st.integers(0, 20), st.booleans(),
       st.sampled_from([None, 1e-8, 1e-12]), st.integers(0, 2**32 - 1))
def test_qp_with_the_carried_inverse_meets_kkt(n, updates, m, box_heavy, near, seed):
    # the QP answers to B, not to the inverse the SQP carries beside it
    rng = np.random.default_rng(seed)
    B, H = carried_model(rng, n, updates)
    top = float(np.linalg.eigvalsh(B)[-1])
    qp = (B,) + draw_scaled_rows(rng, n, m, top, box_heavy, near)
    other = solve_qp(B, H, *draw_scaled_rows(rng, n, m, top, box_heavy, near))
    assert_cold_and_warm_agree(rng, qp, H, other)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.sampled_from(["plain", "duplicate", "slab"]),
       st.sampled_from([1e-6, 1e-5]), st.integers(0, 2**32 - 1))
def test_qp_answers_to_b_when_the_inverse_is_off(n, m, rows, delta, seed):
    # H = S B^-1 S with |S - I| = delta: the answer still meets B's KKT to
    # TOL, warm or cold, as the final Newton step corrects it against B
    rng = np.random.default_rng(seed)
    B, g, C, h, lower, upper = qp = draw_qp(rng, n, m, rows)
    E = rng.normal(size=(n, n))
    S = np.eye(n) + delta * (E + E.T) / np.linalg.norm(E + E.T, 2)
    H = S @ inverse(B) @ S
    exact = solve(*qp)
    for active in (None, exact.active if exact is not None else None):
        sol = solve_qp(B, 0.5 * (H + H.T), g, C, h, lower, upper, active=active)
        if exact is None:
            assert sol is None
            continue
        assert_kkt(*qp, sol)
        np.testing.assert_allclose(sol.x, exact.x, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("bad", ["indefinite", "nan"])
def test_inverse_without_a_cholesky_factor_falls_back_to_b(bad, caplog):
    # rounding can leave a carried inverse indefinite; the QP then factors B
    rng = np.random.default_rng(3)
    B, g, C, h, lower, upper = qp = draw_qp(rng, 5, 3, "plain")
    H = inverse(B)
    H = H - 2.0 * np.linalg.eigvalsh(H)[-1] * np.eye(5) if bad == "indefinite" else H * np.nan
    with caplog.at_level(logging.DEBUG, logger="surropt.solvers.qp"):
        sol = solve_qp(B, H, g, C, h, lower, upper)
    assert [r.getMessage() for r in caplog.records] == [
        "B's inverse without a Cholesky factor: factoring B"]
    assert_kkt(*qp, sol)
    np.testing.assert_allclose(sol.x, solve(*qp).x, rtol=0.0, atol=1e-9)
    with pytest.raises(np.linalg.LinAlgError):
        solve_qp(-B, H, g, C, h, lower, upper)  # B has no factor either


def test_step_cap_gives_no_solution_without_relaxing(monkeypatch, caplog):
    # a feasible QP that needs one dual step, with no dual step allowed
    from surropt.solvers import qp
    calls = []
    inner = qp._dual_active_set
    monkeypatch.setattr(qp, "_dual_active_set", lambda *a: calls.append(a) or inner(*a))
    monkeypatch.setattr(qp, "STEP_CAP", 0)
    args = (np.eye(2), np.array([1.0, 1.0]), [[-1.0, 0.0]], [-0.5], [-1.0, -1.0], [1.0, 1.0])
    with caplog.at_level(logging.DEBUG, logger=qp.__name__):
        assert solve(*args, relax=True) is None
    assert len(calls) == 1  # the relaxed QP never ran
    assert [r.getMessage() for r in caplog.records] == [
        "QP step cap: 0 dual steps taken, 1 rows, 2 variables; no solution"]
    monkeypatch.undo()
    assert solve(*args, relax=True).relaxation == 0.0


@pytest.mark.parametrize("a", [[], [-0.0], [0.0, -0.0], [-0.0, 0.0], [-1.0, -0.0], [np.nan, 1.0],
                               [1.0, np.nan], [-np.inf, -2.0], [[0.0, -3.0], [np.nan, 0.5]],
                               [[-0.0, 0.0]], np.zeros((0, 3))])
def test_ufunc_reduces_give_the_array_methods_bits(a):
    # the solvers call the ufunc reduces, which skip the methods' Python
    # frame: same bits on empty inputs, with initial=, NaN and -0.0
    a = np.asarray(a, dtype=float)
    flat = None if a.ndim > 1 else 0
    for got, want in [(np.logical_or.reduce(a, axis=flat), a.any()),
                      (np.logical_and.reduce(a, axis=flat), a.all()),
                      (np.logical_or.reduce(a > 0.0, axis=flat), (a > 0.0).any()),
                      (np.logical_and.reduce(a >= 0.0, axis=flat), (a >= 0.0).all()),
                      (np.maximum.reduce(a, axis=flat, initial=0.0), a.max(initial=0.0)),
                      (np.minimum.reduce(a, axis=flat, initial=np.inf), a.min(initial=np.inf))]:
        assert type(got) is type(want)
        assert_same_bits(got, want)
    if a.size:
        assert_same_bits(np.maximum.reduce(a, axis=flat), a.max())
        assert_same_bits(np.minimum.reduce(a, axis=flat), a.min())
    else:
        for reduce in (np.maximum.reduce, np.minimum.reduce, np.ndarray.max, np.ndarray.min):
            with pytest.raises(ValueError):
                reduce(a)
