import numpy as np
import pytest

from surropt.nn import Activation, Layer, Network, random_network

LIN = Activation("linear")
RELU = Activation("relu")


def assert_same_bits(got, want):
    """Equal shapes, NaN positions, sign bits and values: what comparing the
    raw bits asks, NaN payloads aside."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(got[~nan], want[~nan])


def single_neuron_net(w=1.0, b=-1.0, out_w=1.0, out_b=0.0) -> Network:
    """1 -> 1 hidden ReLU -> 1 affine output."""
    return Network((Layer([[w]], [b], RELU), Layer([[out_w]], [out_b], LIN)))


def zero_bias_counterexample() -> Network:
    """relu(x) - relu(x): identically zero, kinks everywhere on x = 0."""
    return Network((Layer([[1.0], [1.0]], [0.0, 0.0], RELU),
                    Layer([[1.0, -1.0]], [0.0], LIN)))


def three_neuron_net() -> Network:
    """Zero-bias, 2 inputs, 3 neurons with normals (1,0), (0,1), (1,1)."""
    return Network((
        Layer([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.0], RELU),
        Layer([[1.0, 1.0, 1.0]], [0.0], LIN),
    ))


def two_fold_kink(seed: int = 3):
    """A random [2, 4, 3, 1] ReLU net and the point where the kinks of its
    first two neurons cross (a generic two-fold intersection)."""
    net = random_network(np.random.default_rng(seed), [2, 4, 3, 1])
    W, b = net.layers[0].weights[:2], net.layers[0].bias[:2]
    return net, np.linalg.solve(W, -b)


def identity_net(n: int) -> Network:
    return Network((Layer(np.eye(n), np.zeros(n), LIN),))


def absolute_value_net(kind="relu", beta=1.0) -> Network:
    """relu(x) + relu(-x) = |x| (or the smooth swish analogue)."""
    act = Activation(kind, beta)
    return Network((Layer([[1.0], [-1.0]], [0.0, 0.0], act),
                    Layer([[1.0, 1.0]], [0.0], LIN)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
