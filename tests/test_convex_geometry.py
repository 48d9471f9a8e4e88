"""Hull membership by Wolfe's min-norm point against HiGHS feasibility, and the
exact NNLS projection onto a PolytopeRegion checked by its optimality
condition, with no solver as reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import linprog

from surropt.regions import GeneralizedJacobianHull, hull_contains_zero
from surropt.solvers.embedded import PolytopeRegion, min_norm_point


def _hull_of(count):
    """A hull with ``count`` vertices; hull_contains_zero reads only their number."""
    return GeneralizedJacobianHull(tuple((frozenset(), None) for _ in range(count)), None)


# small integer points: 0 is either in their hull or far from it on the scale
# of both solvers' tolerances, so the decisions are comparable
_point_sets = hst.integers(1, 4).flatmap(lambda d: hst.lists(
    hst.lists(hst.integers(-4, 4), min_size=d, max_size=d), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_point_sets, hst.lists(hst.integers(1, 9), min_size=8, max_size=8), hst.booleans())
def test_hull_membership_matches_highs(rows, weights, shift):
    V = np.array(rows, dtype=float)
    if shift:  # move a convex combination of the points to 0
        w = np.array(weights[:len(V)], dtype=float)
        V = V - (w / w.sum()) @ V
    # {theta >= 0, sum theta = 1, V^T theta = 0}
    lp = linprog(np.zeros(len(V)), A_eq=np.vstack([V.T, np.ones(len(V))]),
                 b_eq=np.r_[np.zeros(V.shape[1]), 1.0], bounds=(0, None), method="highs")
    assert lp.status in (0, 2)
    ok, theta, residual = hull_contains_zero(_hull_of(len(V)), list(V))
    assert ok == (lp.status == 0)
    assert ok or not shift
    z, weights_mnp = min_norm_point(V)
    if ok:
        np.testing.assert_array_equal(theta, weights_mnp)
    assert np.all(weights_mnp >= 0.0)
    assert weights_mnp.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(weights_mnp @ V) == pytest.approx(residual, abs=1e-12)
    # z is the least-norm point of the hull: no point v lies beyond the plane v.z = |z|^2
    assert np.all(V @ z >= z @ z - 1e-9)


def _random_polytope(rng):
    """Rows A x <= b strictly satisfied at q0, scaled by one factor in
    [1e-4, 1e4] and each by another in [0.1, 10], inside a box around q0
    whose faces are finite in some coordinates only."""
    n = int(rng.integers(1, 5))
    q0 = rng.uniform(-1.0, 1.0, n)
    A = rng.normal(size=(int(rng.integers(0, 7)), n))
    b = A @ q0 + rng.uniform(0.05, 1.0, A.shape[0])
    scale = 10.0 ** (rng.uniform(-4.0, 4.0) + rng.uniform(-1.0, 1.0, A.shape[0]))
    A, b = A * scale[:, None], b * scale
    lower = np.where(rng.random(n) < 0.8, q0 - rng.uniform(0.1, 2.0, n), -np.inf)
    upper = np.where(rng.random(n) < 0.8, q0 + rng.uniform(0.1, 2.0, n), np.inf)
    return PolytopeRegion(A, b, lower, upper), q0


def _feasible_samples(region, q0, rng, count=50):
    lo = np.where(np.isfinite(region.lower), region.lower, q0 - 3.0)
    hi = np.where(np.isfinite(region.upper), region.upper, q0 + 3.0)
    Q = rng.uniform(lo, hi, size=(count, region.dim))
    return Q[np.all(Q @ region.A.T <= region.b, axis=1)]


def test_projection_is_feasible_and_nearest_on_random_polytopes():
    rng = np.random.default_rng(7)
    for _ in range(200):
        region, q0 = _random_polytope(rng)
        p = q0 + rng.normal(scale=3.0, size=region.dim) * 10.0 ** rng.uniform(0.0, 3.0)
        x = region.project(p)
        # distances past the faces of A, as the rows are scaled
        assert np.all((region.A @ x - region.b) / np.linalg.norm(region.A, axis=1) <= 1e-9)
        assert np.all(x >= region.lower - 1e-9) and np.all(x <= region.upper + 1e-9)
        # the variational inequality of a projection onto a convex set
        for q in _feasible_samples(region, q0, rng):
            assert (p - x) @ (q - x) <= 1e-9
        np.testing.assert_array_equal(region.project(q0), q0)


def test_projection_of_a_far_point_and_of_a_region_without_faces():
    triangle = PolytopeRegion([[1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(triangle.project([1e6, 1e6]), [0.5, 0.5], atol=1e-9)
    for k in (1.0, 1e-4, 1e-6):  # x0 + x1 <= 1 with its row scaled by k
        half = PolytopeRegion([[k, k]], [k], [-np.inf, 0.0], [np.inf, np.inf])
        np.testing.assert_allclose(half.project([1e4, 1e4]), [0.5, 0.5], atol=1e-9)
    # a zero row with b >= 0 holds everywhere
    vacuous = PolytopeRegion([[1.0, 1.0], [0.0, 0.0]], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(vacuous.project([1.0, 1.0]), [0.5, 0.5], atol=1e-12)
    free = PolytopeRegion(np.zeros((0, 2)), [], [-np.inf] * 2, [np.inf] * 2)
    np.testing.assert_array_equal(free.project([3.0, -4.0]), [3.0, -4.0])


def test_projection_onto_random_empty_polytopes_raises():
    # a positive combination u of the rows, reversed and pushed past its
    # bound, contradicts the rows it combines
    rng = np.random.default_rng(8)
    for _ in range(200):
        region, _ = _random_polytope(rng)
        if not len(region.b):
            continue
        u = rng.uniform(0.1, 1.0, len(region.b))
        A = np.vstack([region.A, -u @ region.A])
        b = np.r_[region.b, -u @ region.b - rng.uniform(1e-6, 1.0) * np.linalg.norm(A[-1])]
        empty = PolytopeRegion(A, b, region.lower, region.upper)
        with pytest.raises(ValueError, match="empty"):
            empty.project(rng.normal(scale=3.0, size=region.dim))


@pytest.mark.parametrize("A, b, lower, upper", [
    ([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0], [-np.inf] * 2, [np.inf] * 2),
    ([[1.0, 1.0]], [-1.0], [0.0, 0.0], [1.0, 1.0]),
    ([[0.0, 0.0]], [-1.0], [0.0, 0.0], [1.0, 1.0]),
])
def test_projection_onto_an_empty_region_raises(A, b, lower, upper):
    with pytest.raises(ValueError, match="empty"):
        PolytopeRegion(A, b, lower, upper).project([0.3, 0.3])


@pytest.mark.parametrize("A, b, lower, upper", [
    ([[1.0, 1.0]], [1.0], [1.0, 0.0], [0.0, 1.0]),  # bound inversion
    ([[1.0, 1.0]], [np.inf], [0.0, 0.0], [1.0, 1.0]),
    ([[1.0, 1.0]], [np.nan], [0.0, 0.0], [1.0, 1.0]),
    ([[1.0, 1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0]),  # A of the wrong width
    ([[1.0, 1.0]], [1.0, 2.0], [0.0, 0.0], [1.0, 1.0]),  # b of the wrong length
])
def test_polytope_region_rejects_malformed_input(A, b, lower, upper):
    with pytest.raises(ValueError):
        PolytopeRegion(A, b, lower, upper)
