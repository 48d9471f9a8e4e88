from itertools import combinations

import numpy as np
import pytest

from surropt.nn import NeuronId, affine_piece, random_network, sign_partition
from surropt.regions import (
    DEFAULT_SLACK,
    CapExceededError,
    _strict_system_lp,
    enumerate_nonempty_patterns,
    general_position_check,
    generalized_jacobian,
    hull_contains_zero,
    region_inequalities,
    region_nonempty,
    zaslavsky_count,
)

from conftest import (
    absolute_value_net,
    single_neuron_net,
    three_neuron_net,
    two_fold_kink,
    zero_bias_counterexample,
)

N = NeuronId


def test_region_inequalities_single_neuron():
    net = single_neuron_net()
    rows = region_inequalities(net, {N(0, 0)}).rows
    assert len(rows) == 1
    assert rows[0].normal[0] == 1.0
    assert rows[0].offset == -1.0
    assert rows[0].positive


def test_region_inequalities_three_neuron_normals():
    rows = region_inequalities(three_neuron_net(), set()).rows
    normals = np.array([r.normal for r in rows])
    np.testing.assert_array_equal(normals, [[1, 0], [0, 1], [1, 1]])
    assert all(r.offset == 0.0 for r in rows)


def test_region_inequalities_two_layer_truncation(rng):
    # witness interior points of enumerated regions reproduce their pattern
    net = random_network(rng, [2, 3, 2, 1])
    for pattern in enumerate_nonempty_patterns(net)[:8]:
        ok, witness = region_nonempty(net, pattern)
        assert ok
        part = sign_partition(net, witness, tol=5e-7)
        assert part.active == pattern
        assert not part.degenerate


def test_region_nonempty_three_neuron_missing_regions():
    net = three_neuron_net()
    assert not region_nonempty(net, {N(0, 0), N(0, 1)})[0]
    assert not region_nonempty(net, {N(0, 2)})[0]
    ok, _ = region_nonempty(net, {N(0, 0), N(0, 2)})
    assert ok


def test_region_nonempty_single_neuron_witnesses():
    net = single_neuron_net()
    ok, w = region_nonempty(net, {N(0, 0)})
    assert ok and w[0] > 1.0
    ok, w = region_nonempty(net, set())
    assert ok and w[0] < 1.0


def test_enumerate_patterns_counts(rng):
    # three general-position lines in the plane: 7 regions
    net3 = random_network(rng, [2, 3, 1])
    assert general_position_check(net3, rng.uniform(-1, 1, 2))
    assert len(enumerate_nonempty_patterns(net3)) == zaslavsky_count(3, 2) == 7
    # 2 hyperplanes in 3 inputs: all 4 sign patterns realized
    net2 = random_network(rng, [3, 2, 1])
    assert len(enumerate_nonempty_patterns(net2)) == 4
    # the coincident zero-bias pair admits only two patterns
    assert len(enumerate_nonempty_patterns(zero_bias_counterexample())) == 2


def test_enumerate_cap():
    net = random_network(np.random.default_rng(0), [2, 5, 1])
    with pytest.raises(CapExceededError):
        enumerate_nonempty_patterns(net, max_neurons=4)


def test_enumeration_refuses_non_relu_nets():
    # a swish layer has no activation regions to enumerate
    with pytest.raises(ValueError, match="pure-ReLU"):
        enumerate_nonempty_patterns(absolute_value_net("swish"))


def test_zaslavsky_values():
    assert zaslavsky_count(3, 2) == 7
    assert zaslavsky_count(2, 3) == 4  # m <= d gives 2^m
    assert zaslavsky_count(0, 5) == 1
    with pytest.raises(ValueError):
        zaslavsky_count(-1, 2)


def test_general_position_cases(rng):
    net = random_network(rng, [2, 4, 1])
    assert general_position_check(net, rng.uniform(-1, 1, 2))  # no degenerates
    assert not general_position_check(zero_bias_counterexample(), [0.0])
    # more degenerate kinks than input dimensions
    assert not general_position_check(three_neuron_net(), [0.0, 0.0])


def test_generalized_jacobian_nondegenerate_single_vertex(rng):
    net = random_network(rng, [2, 3, 1])
    x = rng.uniform(-1, 1, 2)
    hull = generalized_jacobian(net, x)
    assert len(hull.vertices) == 1
    from surropt.nn import jacobian

    np.testing.assert_array_equal(hull.vertices[0][1], jacobian(net, x))


def test_generalized_jacobian_zero_bias_hull_is_zero():
    hull = generalized_jacobian(zero_bias_counterexample(), [0.0])
    assert len(hull.vertices) == 2
    for _, J in hull.vertices:
        assert J[0, 0] == 0.0
    # the unconstrained scaling form would claim nonzero gradients here
    naive = 1.0 * 1.0 - 0.0 * 1.0  # kappa = (1, 0)
    assert naive != 0.0


def test_generalized_jacobian_kink_two_vertices():
    net = single_neuron_net(out_w=1.5)
    hull = generalized_jacobian(net, [1.0])
    vals = sorted(float(J[0, 0]) for _, J in hull.vertices)
    assert vals == pytest.approx([0.0, 1.5])


def test_hull_contains_zero_cases():
    hull = generalized_jacobian(single_neuron_net(), [1.0])
    ok, theta, res = hull_contains_zero(hull, [np.array([0.0]), np.array([1.0])])
    assert ok and res <= 1e-8 and theta[0] == pytest.approx(1.0)
    ok, theta, _ = hull_contains_zero(hull, [np.array([-1.0]), np.array([1.0])])
    assert ok
    np.testing.assert_allclose(theta, [0.5, 0.5], atol=1e-9)
    ok, theta, res = hull_contains_zero(hull, [np.array([1.0]), np.array([2.0])])
    assert not ok and theta is None and res >= 1.0 - 1e-9


def test_enumeration_matches_zaslavsky_on_random_nets(rng):
    passing = 0
    for _ in range(25):
        m = int(rng.integers(3, 7))
        net = random_network(rng, [2, m, 1])
        if not general_position_check(net, rng.uniform(-1, 1, 2)):
            continue
        pats = enumerate_nonempty_patterns(net)
        assert len(pats) == zaslavsky_count(m, 2)
        passing += 1
    assert passing >= 20


def test_all_subsets_nonempty_at_general_position_degenerate_point(rng):
    # walk onto the intersection of two kink hyperplanes of a random net
    for _ in range(10):
        net = random_network(rng, [2, 4, 1])
        lay = net.layers[0]
        W, b = lay.weights[:2], lay.bias[:2]
        try:
            x = np.linalg.solve(W, -b)
        except np.linalg.LinAlgError:
            continue
        part = sign_partition(net, x)
        if len(part.degenerate) != 2 or not general_position_check(net, x):
            continue
        hull = generalized_jacobian(net, x)
        assert len(hull.vertices) == 4  # every subset of the degenerate pair
        for pattern, J in hull.vertices:
            A, _ = affine_piece(net, pattern)
            np.testing.assert_array_equal(J, A)
        return
    pytest.skip("no generic two-fold intersection found")


def test_vertex_jacobian_is_exact_masked_product(rng):
    net = random_network(rng, [2, 3, 2, 1])
    for pattern in enumerate_nonempty_patterns(net)[:6]:
        A, _ = affine_piece(net, pattern)
        W1, W2, W3 = (lay.weights for lay in net.layers)
        m1 = np.array([1.0 if N(0, i) in pattern else 0.0 for i in range(3)])
        m2 = np.array([1.0 if N(1, i) in pattern else 0.0 for i in range(2)])
        ref = W3 @ (m2[:, None] * (W2 @ (m1[:, None] * W1)))
        np.testing.assert_array_equal(A, ref)


def test_witness_classification_at_half_slack(rng):
    net = random_network(rng, [2, 4, 1])
    slack = 1e-6
    for pattern in enumerate_nonempty_patterns(net, slack=slack):
        ok, witness = region_nonempty(net, pattern, slack=slack)
        assert ok
        part = sign_partition(net, witness, tol=slack / 2)
        assert part.active == pattern
        assert not part.degenerate


@pytest.mark.parametrize("sizes", [[2, 3, 3, 1], [3, 4, 4, 1], [2, 2, 3, 2, 1],
                                   [3, 3, 2, 3, 1]])
def test_enumeration_equals_brute_force_on_deep_nets(sizes):
    # every subset of neurons tested on its own LP, with and without an input
    # box: the enumeration's pruning and its carried witnesses lose nothing
    net = random_network(np.random.default_rng(sum(sizes)), sizes)
    ids = net.hidden_relu_ids()
    d = net.input_dim
    box = (np.full(d, -0.5), np.full(d, 0.5))
    subsets = [frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
               for mask in range(2 ** len(ids))]
    nonempty = {p for p in subsets if region_nonempty(net, p)[0]}
    in_box = {p for p in subsets if _strict_system_lp(
        [(r.normal, r.offset, r.positive) for r in region_inequalities(net, p).rows],
        d, DEFAULT_SLACK, box) is not None}
    assert set(enumerate_nonempty_patterns(net)) == nonempty
    assert set(enumerate_nonempty_patterns(net, box=box)) == in_box
    assert in_box < nonempty


def _subset_loop_hull(net, x, slack=DEFAULT_SLACK):
    """Reference hull vertices: every subset of the degenerate neurons, in the
    order ``combinations`` gives, each decided by its own max-margin LP."""
    part = sign_partition(net, x)
    degen = sorted(part.degenerate)
    vertices = []
    for k in range(len(degen) + 1):
        for extra in combinations(degen, k):
            pattern = frozenset(part.active | set(extra))
            if region_nonempty(net, pattern, slack)[0]:
                vertices.append((pattern, affine_piece(net, pattern)[0]))
    return vertices


KINKS = {
    "three_neuron_origin": lambda: (three_neuron_net(), np.zeros(2)),
    "zero_bias_origin": lambda: (zero_bias_counterexample(), np.zeros(1)),
    "two_fold_intersection": two_fold_kink,
}


@pytest.mark.parametrize("case, count", [("three_neuron_origin", 6), ("zero_bias_origin", 2),
                                         ("two_fold_intersection", 4)])
def test_generalized_jacobian_equals_the_subset_loop(case, count):
    net, x = KINKS[case]()
    hull = generalized_jacobian(net, x)
    ref = _subset_loop_hull(net, x)
    assert len(ref) == count
    assert [p for p, _ in hull.vertices] == [p for p, _ in ref]
    for (_, J), (_, R) in zip(hull.vertices, ref):
        assert np.array_equal(J, R)
