import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt.nn import (
    _sigmoid,
    Activation,
    DegeneratePointError,
    Layer,
    Network,
    NeuronId,
    activation_derivative,
    activation_scalar,
    affine_piece,
    forward,
    forward_with_preactivations,
    jacobian,
    random_network,
    sign_partition,
    slope_jacobian,
)

from conftest import LIN, RELU, assert_same_bits, identity_net, single_neuron_net, zero_bias_counterexample, three_neuron_net


def test_forward_zero_bias_cancellation():
    net = zero_bias_counterexample()
    assert forward(net, [0.7]) == pytest.approx(0.0, abs=0.0)


def test_forward_identity():
    np.testing.assert_allclose(forward(identity_net(2), [1.0, 2.0]), [1.0, 2.0])


def test_forward_single_neuron_sign_cases():
    net = single_neuron_net()
    assert forward(net, [0.25])[0] == 0.0
    assert forward(net, [3.0])[0] == pytest.approx(2.0)


def test_forward_validates_input():
    net = single_neuron_net()
    with pytest.raises(ValueError):
        forward(net, [1.0, 2.0])
    with pytest.raises(ValueError):
        forward(net, [np.nan])


def test_preactivations_single_neuron():
    net = single_neuron_net()
    out, pre = forward_with_preactivations(net, [0.25])
    assert out[0] == 0.0
    assert pre[0][0] == pytest.approx(-0.75)
    out, pre = forward_with_preactivations(net, [1.0])
    assert out[0] == 0.0
    assert pre[0][0] == 0.0


def test_preactivations_zero_bias_layer1():
    out, pre = forward_with_preactivations(zero_bias_counterexample(), [1.0])
    np.testing.assert_allclose(pre[0], [1.0, 1.0])


def test_sign_partition_cases():
    net = single_neuron_net()
    part = sign_partition(net, [1.0], tol=1e-8)
    assert part.degenerate == {NeuronId(0, 0)}
    assert sign_partition(net, [2.0]).active == {NeuronId(0, 0)}
    assert sign_partition(net, [0.0]).strictly_inactive == {NeuronId(0, 0)}


def test_sign_partition_three_neuron_origin():
    part = sign_partition(three_neuron_net(), [0.0, 0.0])
    assert len(part.degenerate) == 3


def test_affine_piece_zero_bias_all_active():
    net = zero_bias_counterexample()
    A, c = affine_piece(net, {NeuronId(0, 0), NeuronId(0, 1)})
    assert A[0, 0] == 0.0 and c[0] == 0.0


def test_affine_piece_empty_pattern():
    net = single_neuron_net(out_b=0.25)
    A, c = affine_piece(net, frozenset())
    assert A[0, 0] == 0.0
    assert c[0] == 0.25


def test_affine_piece_matches_forward(rng):
    for _ in range(20):
        net = random_network(rng, [3, 4, 3, 2])
        x = rng.uniform(-1, 1, 3)
        part = sign_partition(net, x)
        A, c = affine_piece(net, part.active)
        np.testing.assert_allclose(A @ x + c, forward(net, x), rtol=1e-12, atol=1e-14)


def test_jacobian_swish_beta_zero_is_half():
    net = Network((Layer([[1.0]], [0.0], Activation("swish", 0.0)),
                   Layer([[1.0]], [0.0], LIN)))
    assert jacobian(net, [0.3])[0, 0] == pytest.approx(0.5)


def test_jacobian_swish_large_beta_near_relu():
    net = Network((Layer([[1.0]], [0.0], Activation("swish", 100.0)),
                   Layer([[1.0]], [0.0], LIN)))
    J = jacobian(net, [5.0])
    h = 1e-6
    fd = (forward(net, [5.0 + h])[0] - forward(net, [5.0 - h])[0]) / (2 * h)
    assert J[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert J[0, 0] == pytest.approx(fd, abs=1e-6)


def test_jacobian_relu_active_branch():
    net = single_neuron_net(w=2.0, b=1.0)
    assert jacobian(net, [3.0])[0, 0] == pytest.approx(2.0)


def test_jacobian_degenerate_raises():
    net = single_neuron_net()
    with pytest.raises(DegeneratePointError):
        jacobian(net, [1.0])


def test_activation_scalars():
    assert activation_scalar(Activation("swish"), 0.0) == 0.0
    assert activation_scalar(Activation("swish", 0.0), 4.0) == pytest.approx(2.0)
    assert activation_scalar(RELU, -2.0) == 0.0
    assert activation_scalar(RELU, 3.0) == 3.0
    assert activation_derivative(RELU, 2.0) == 1.0
    assert activation_derivative(RELU, -2.0) == 0.0
    with pytest.raises(DegeneratePointError):
        activation_derivative(RELU, 0.0)


def test_network_invariants():
    with pytest.raises(ValueError):
        Network((Layer([[1.0]], [0.0], RELU),))  # final layer must be affine
    with pytest.raises(ValueError):
        Network((Layer([[1.0]], [0.0], LIN), Layer([[1.0]], [0.0], LIN)))
    with pytest.raises(ValueError):
        Activation("swish", -1.0)
    with pytest.raises(ValueError):
        Layer([[np.inf]], [0.0], RELU)


def test_swish_jacobian_vs_finite_differences(rng):
    for _ in range(10):
        dims = [int(rng.integers(2, 5)), int(rng.integers(2, 8)), int(rng.integers(1, 4))]
        net = random_network(rng, dims, kind="swish", beta=1.0)
        x = rng.uniform(-1, 1, dims[0])
        J = jacobian(net, x)
        h = 1e-6
        for j in range(dims[0]):
            e = np.zeros(dims[0])
            e[j] = h
            fd = (forward(net, x + e) - forward(net, x - e)) / (2 * h)
            np.testing.assert_allclose(J[:, j], fd, atol=1e-5)


def test_relu_jacobian_locally_constant(rng):
    for _ in range(10):
        net = random_network(rng, [2, 4, 3, 1])
        x = rng.uniform(-1, 1, 2)
        part = sign_partition(net, x)
        if part.degenerate:
            continue
        J = jacobian(net, x)
        delta = rng.uniform(-1, 1, 2) * 1e-9
        if sign_partition(net, x + delta).active == part.active:
            np.testing.assert_array_equal(J, jacobian(net, x + delta))


def test_zero_bias_outputs_zero_everywhere(rng):
    net = zero_bias_counterexample()
    xs = rng.uniform(-10, 10, 1000)
    for x in xs:
        assert forward(net, [x])[0] == 0.0


def test_swish_beta_zero_superposition(rng):
    net = random_network(rng, [3, 4, 2], kind="swish", beta=0.0)
    f0 = forward(net, np.zeros(3))
    for _ in range(10):
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        lhs = forward(net, a + b) - f0
        rhs = (forward(net, a) - f0) + (forward(net, b) - f0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_slope_jacobian_is_the_product_of_slope_scaled_layers():
    # fractional slopes, as a kappa column scaling gives them:
    # W_L diag(k_{L-1}) W_{L-1} ... diag(k_1) W_1
    rng = np.random.default_rng(3)
    for dims in ([3, 5, 2], [4, 6, 5, 3], [2, 3, 4, 3, 1]):
        net = random_network(rng, dims)
        for _ in range(5):
            slopes = [rng.uniform(0.0, 1.0, lay.fan_out) for lay in net.hidden_layers]
            mats = [net.layers[-1].weights]
            for lay, d in zip(reversed(net.hidden_layers), reversed(slopes)):
                mats += [np.diag(d), lay.weights]
            np.testing.assert_allclose(slope_jacobian(net, slopes), np.linalg.multi_dot(mats),
                                       rtol=1e-12, atol=1e-14)


def test_slope_jacobian_is_bitwise_the_product_started_from_the_identity():
    # starting from the first layer's scaled weights drops a product with I,
    # which only adds exact zeros
    rng = np.random.default_rng(6)
    for dims in ([3, 5, 2], [64, 24, 4], [4, 6, 5, 3]):
        net = random_network(rng, dims)
        for batch in ((), (7,)):
            slopes = [rng.uniform(0.0, 1.0, batch + (lay.fan_out,)) for lay in net.hidden_layers]
            J = np.eye(dims[0])
            for lay, d in zip(net.hidden_layers, slopes):
                J = (lay.weights * d[..., None]) @ J
            assert np.array_equal(slope_jacobian(net, slopes), net.layers[-1].weights @ J)


def test_slope_jacobian_of_a_net_without_hidden_layers():
    net = Network((Layer([[1.0, -2.0]], [0.5], LIN),))
    J = slope_jacobian(net, [])
    assert np.array_equal(J, [[1.0, -2.0]])
    J[0, 0] = 3.0
    assert net.layers[0].weights[0, 0] == 1.0  # a copy, not the layer's weights


def test_batched_slope_jacobian_stacks_the_per_piece_calls():
    rng = np.random.default_rng(4)
    for dims in ([3, 5, 2], [4, 6, 5, 3]):
        net = random_network(rng, dims)
        fractional = [rng.uniform(0.0, 1.0, (7, lay.fan_out)) for lay in net.hidden_layers]
        masks = [rng.random((7, lay.fan_out)) < 0.5 for lay in net.hidden_layers]
        for batch in (fractional, masks):
            J = slope_jacobian(net, batch)
            assert J.shape == (7, dims[-1], dims[0])
            for p in range(7):
                assert np.array_equal(J[p], slope_jacobian(net, [d[p] for d in batch]))
        # a 0/1 mask is the affine piece of its pattern
        for p in range(7):
            pattern = {NeuronId(li, i) for li, m in enumerate(masks) for i in np.flatnonzero(m[p])}
            assert np.array_equal(slope_jacobian(net, masks)[p], affine_piece(net, pattern)[0])


def two_branch_sigmoid(t):
    """The logistic as written before its single division: both branches
    divided out, then the one of t's sign picked."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1 / (1 + e), e / (1 + e))


# signed zeros, NaN, subnormals and |t| >= 710, where exp(-|t|) underflows
SIGMOID_EDGES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 710.0, -710.0]),
    st.floats(min_value=710.0, max_value=1e308), st.floats(min_value=-1e308, max_value=-710.0),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats())


@settings(max_examples=300, deadline=None)
@given(st.lists(SIGMOID_EDGES, min_size=1, max_size=40))
def test_sigmoid_single_division_matches_the_two_branch_form(ts):
    t = np.array(ts)
    assert_same_bits(_sigmoid(t), two_branch_sigmoid(t))
    assert_same_bits(_sigmoid(t[0]), two_branch_sigmoid(t[0]))
