"""The dense dual active-set QP (Goldfarb & Idnani) on random strictly convex
problems: KKT conditions, warm starts, dependent rows and the relaxation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt.solvers.qp import relax_weight, solve_qp

TOL = 1e-8


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
    sol = solve_qp(B, g, C, h, lower, upper)
    ref = enumerate_active_sets(B, g, C, h, lower, upper) if n <= 4 else None
    if sol is None:
        assert n > 4 or ref is None
        return
    assert_kkt(B, g, C, h, lower, upper, sol)
    if n <= 4:
        assert ref is not None
        np.testing.assert_allclose(sol.x, ref, rtol=0.0, atol=1e-6)
    # the final working set warm-starts the same QP at its answer
    again = solve_qp(B, g, C, h, lower, upper, active=sol.active)
    np.testing.assert_allclose(again.x, sol.x, rtol=0.0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_inconsistent_rows_take_the_relaxation_variable(n, m, seed):
    # bounds around 0 and a row that contradicts row 0: some row has h < 0,
    # and xi = 1 admits x = 0
    rng = np.random.default_rng(seed)
    B, g, C, h, lower, upper = draw_qp(rng, n, m, "contradiction")
    lower, upper = np.minimum(lower, 0.0), np.maximum(upper, 0.0)
    assert solve_qp(B, g, C, h, lower, upper) is None
    if n <= 4:
        assert enumerate_active_sets(B, g, C, h, lower, upper) is None
    sol = solve_qp(B, g, C, h, lower, upper, relax=True)
    assert sol is not None and sol.relaxation > 0.0
    assert_kkt(B, g, C, h, lower, upper, sol, xi_row=np.minimum(h, 0.0), w=relax_weight(B))


def test_consistent_rows_are_not_relaxed():
    B, g = np.eye(2), np.array([1.0, 1.0])
    sol = solve_qp(B, g, [[-1.0, 0.0]], [-0.5], [-1.0, -1.0], [1.0, 1.0], relax=True)
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
    assert solve_qp(B, g, np.zeros((0, 2)), np.zeros(0), -np.ones(2), np.ones(2)) is None
