"""Feedforward networks with ReLU/swish hidden layers and an affine output layer.

Weight convention used everywhere in this package (files included): a layer
stores its weight matrix with shape ``(fan_out, fan_in)``, so row ``i`` holds
the incoming weights of neuron ``i`` and one forward step is ``W @ y + b``.

Two layer products serve every linear view of a net.  ``piece_maps`` gives
the per-layer affine maps ``(P, q)`` of an activation pattern's piece: its
hidden maps are the region rows, its last map the piece ``(A, c)``.
``slope_jacobian`` multiplies the layers with each hidden neuron replaced by a
slope: 0/1 patterns, kappa column scalings, activation derivatives and
batches of kink pieces alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

RELU = "relu"
SWISH = "swish"
LINEAR = "linear"

#: absolute tolerance on preactivations below which a neuron is degenerate
DEFAULT_TOL = 1e-8


class DegeneratePointError(Exception):
    """A ReLU derivative was requested within tolerance of the kink."""


class NeuronId(NamedTuple):
    """Hidden neuron address: 0-based layer index into ``net.layers``, 0-based row."""

    layer: int
    index: int


ActivationPattern = frozenset  # frozenset[NeuronId]: the neurons declared active


@dataclass(frozen=True)
class Activation:
    """Scalar activation: ``relu``, ``swish`` (slope parameter beta) or ``linear``."""

    kind: str
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in (RELU, SWISH, LINEAR):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError("swish beta must be finite and nonnegative")


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # overflow-safe logistic
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def activation_scalar(act: Activation, a: float) -> float:
    """Evaluate the activation at a single preactivation value."""
    if not math.isfinite(a):
        raise ValueError("preactivation must be finite")
    if act.kind == RELU:
        return a if a > 0 else 0.0
    if act.kind == LINEAR:
        return float(a)
    return float(a * _sigmoid(np.asarray(act.beta * a)))


def activation_derivative(act: Activation, a: float) -> float:
    """Derivative of the activation; errors at the ReLU kink where it is undefined."""
    if not math.isfinite(a):
        raise ValueError("preactivation must be finite")
    if act.kind == RELU:
        if a == 0:
            raise DegeneratePointError("ReLU derivative is undefined at 0")
        return 1.0 if a > 0 else 0.0
    if act.kind == LINEAR:
        return 1.0
    s = float(_sigmoid(np.asarray(act.beta * a)))
    return s + act.beta * a * s * (1.0 - s)


def _apply(act: Activation, a: np.ndarray) -> np.ndarray:
    if act.kind == RELU:
        return np.maximum(a, 0.0)
    if act.kind == LINEAR:
        return a
    return a * _sigmoid(act.beta * a)


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)
    activation: Activation

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        b = np.array(self.bias, dtype=float)
        if w.ndim != 2:
            raise ValueError("layer weights must be a matrix")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValueError("bias length must equal the neuron count")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("weights and biases must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Network:
    """Immutable feedforward net; hidden layers ReLU/swish, final layer affine."""

    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.fan_in != prev.fan_out:
                raise ValueError("layer dimensions are inconsistent")
        if layers[-1].activation.kind != LINEAR:
            raise ValueError("final layer must be linear (affine outputs)")
        for lay in layers[:-1]:
            if lay.activation.kind == LINEAR:
                raise ValueError("hidden layers must be relu or swish")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_layers(self) -> tuple:
        return self.layers[:-1]

    def is_pure_relu(self) -> bool:
        return all(lay.activation.kind == RELU for lay in self.hidden_layers)

    def hidden_relu_ids(self) -> list:
        """All hidden ReLU neurons in layer-major order."""
        ids = []
        for li, lay in enumerate(self.hidden_layers):
            if lay.activation.kind == RELU:
                ids.extend(NeuronId(li, i) for i in range(lay.fan_out))
        return ids

    def num_hidden_relu(self) -> int:
        return len(self.hidden_relu_ids())


@dataclass(frozen=True)
class SignPartition:
    """Three-way split of the hidden ReLU neurons at a point."""

    strictly_inactive: frozenset
    degenerate: frozenset
    active: frozenset
    tolerance: float

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        if (
            self.active & self.degenerate
            or self.active & self.strictly_inactive
            or self.degenerate & self.strictly_inactive
        ):
            raise ValueError("partition sets must be disjoint")


def _check_input(net: Network, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != net.input_dim:
        raise ValueError(f"expected input of length {net.input_dim}, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError("input must be finite")
    return x


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the network; a preactivation of exactly 0 counts as inactive."""
    y = _check_input(net, x)
    for lay in net.layers:
        y = _apply(lay.activation, lay.weights @ y + lay.bias)
    return y


def forward_with_preactivations(net: Network, x):
    """Forward pass returning the output and the per-layer preactivation vectors."""
    y = _check_input(net, x)
    preacts = []
    for lay in net.layers:
        a = lay.weights @ y + lay.bias
        preacts.append(a)
        y = _apply(lay.activation, a)
    return y, preacts


def sign_partition(net: Network, x, tol: float = DEFAULT_TOL) -> SignPartition:
    """Classify every hidden ReLU neuron as active, degenerate or strictly inactive.

    Preactivations come from the plain forward pass, i.e. degenerate upstream
    neurons contribute their (zero) forward value to downstream preactivations.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    _, preacts = forward_with_preactivations(net, x)
    neg, zero, pos = set(), set(), set()
    for li, lay in enumerate(net.hidden_layers):
        if lay.activation.kind != RELU:
            continue
        a = preacts[li]
        for i in range(lay.fan_out):
            nid = NeuronId(li, i)
            if abs(a[i]) <= tol:
                zero.add(nid)
            elif a[i] > tol:
                pos.add(nid)
            else:
                neg.add(nid)
    return SignPartition(frozenset(neg), frozenset(zero), frozenset(pos), tol)


def validate_pattern(net: Network, pattern) -> frozenset:
    pattern = frozenset(pattern)
    valid = set(net.hidden_relu_ids())
    bad = pattern - valid
    if bad:
        raise ValueError(f"pattern contains invalid neurons: {sorted(bad)}")
    return pattern


def piece_maps(net: Network, pattern) -> list:
    """Per-layer preactivation maps ``(P, q)`` of a pure-ReLU net's affine piece.

    Layer ``li``'s preactivation is ``P @ x + q`` for every x whose sign
    pattern matches ``pattern``: the hidden neurons outside it have their
    weight row and bias entry zeroed.  The last map is the output layer's.
    """
    if not net.is_pure_relu():
        raise ValueError("affine pieces are defined for pure-ReLU hidden layers")
    pattern = validate_pattern(net, pattern)
    M = np.eye(net.input_dim)
    v = np.zeros(net.input_dim)
    maps = []
    for li, lay in enumerate(net.layers):
        P = lay.weights @ M
        q = lay.weights @ v + lay.bias
        maps.append((P, q))
        mask = np.array([NeuronId(li, i) in pattern for i in range(lay.fan_out)], float)
        M = P * mask[:, None]
        v = q * mask
    return maps


def affine_piece(net: Network, pattern):
    """Affine map (A, c) selected by an activation pattern of a pure-ReLU net.

    ``A @ x + c`` reproduces ``forward`` for every x whose sign pattern
    matches, and A is the local Jacobian strictly inside the region.
    """
    return piece_maps(net, pattern)[-1]


def slope_jacobian(net: Network, slopes) -> np.ndarray:
    """Jacobian of the net's layer product with hidden neuron i of layer l
    replaced by the linear map of slope ``slopes[l][i]``.

    0/1 slopes give an affine piece's Jacobian, fractional ones a kappa
    column scaling, activation derivatives the chain rule.  Slopes with a
    leading batch axis, shape ``(pieces, fan_out)``, give one Jacobian per
    piece, shape ``(pieces, output_dim, input_dim)``.
    """
    J = np.eye(net.input_dim)
    for lay, d in zip(net.hidden_layers, slopes):
        J = (lay.weights * d[..., None]) @ J
    return net.layers[-1].weights @ J


def _slopes(net: Network, preacts, tol):
    """Hidden-layer activation derivatives; a ReLU neuron is active only above tol."""
    slopes = []
    for lay, a in zip(net.hidden_layers, preacts):
        beta = lay.activation.beta
        if lay.activation.kind == RELU:
            slopes.append(a > tol)
        else:
            s = _sigmoid(beta * a)
            slopes.append(s + beta * a * s * (1.0 - s))
    return slopes


def preactivation_jacobian(net: Network, preacts, tol: float) -> np.ndarray:
    """Network Jacobian from the preactivations of one forward pass.

    ReLU neurons with preactivation at most ``tol`` count as inactive (at a
    kink, the vertex with every degenerate neuron off); swish neurons take
    their derivative.
    """
    return slope_jacobian(net, _slopes(net, preacts, tol))


def jacobian(net: Network, x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Jacobian of ``forward`` at x, shape (output_dim, input_dim).

    No ReLU neuron may lie within ``tol`` of its kink; on a pure-ReLU net
    this is the active pattern's affine piece, on swish layers the exact
    chain rule.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    _, preacts = forward_with_preactivations(net, x)
    degenerate = sum(int(np.count_nonzero(np.abs(a) <= tol))
                     for lay, a in zip(net.hidden_layers, preacts)
                     if lay.activation.kind == RELU)
    if degenerate:
        raise DegeneratePointError(
            f"{degenerate} neuron(s) within {tol} of the kink; "
            "use the generalized-Jacobian machinery instead"
        )
    # not via preactivation_jacobian: perfbench traces that function as the
    # embedded solver's _dnn_jacobian, and would count this call twice
    return slope_jacobian(net, _slopes(net, preacts, tol))


def random_network(rng: np.random.Generator, dims: Sequence[int], kind: str = RELU,
                   beta: float = 1.0) -> Network:
    """Random net with uniform weights in [-1, 1] and biases in [-0.5, 0.5]."""
    if len(dims) < 2:
        raise ValueError("dims must list input, hidden..., output sizes")
    layers = []
    for k in range(1, len(dims)):
        act = Activation(LINEAR) if k == len(dims) - 1 else Activation(kind, beta)
        layers.append(
            Layer(
                rng.uniform(-1.0, 1.0, size=(dims[k], dims[k - 1])),
                rng.uniform(-0.5, 0.5, size=dims[k]),
                act,
            )
        )
    return Network(tuple(layers))
