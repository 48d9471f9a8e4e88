"""Compile networks into optimization models: big-M MIP rows, complementarity
rows, bound tightening and convex-hull-of-training-data constraints.

Naming scheme for embedding variables: ``y[l][i]``, ``s[l][i]``, ``z[l][i]``
with 1-based layer numbers, optionally behind a caller prefix, stable across
runs so exports diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BINARY, EQ, LE, MAX, MIN, LinearExpr, Model
from .nn import Network, NeuronId
from .solvers.result import Status
from .solvers.simplex import _STATUS_MAP, solve_standard_form, standard_form

INTERVAL = "interval"
LP_RELAX = "lp_relax"
EXACT_MIP = "exact_mip"

EXACT_MIP_NEURON_CAP = 30


class InconsistentBoxError(Exception):
    """A bound-tightening subproblem was infeasible: the input box is empty."""


@dataclass
class BigMBounds:
    """Valid per-neuron bounds: y <= my[n], s <= ms[n] over the input box."""

    my: dict  # NeuronId -> float
    ms: dict
    method: str

    def __post_init__(self):
        for table in (self.my, self.ms):
            for nid, val in table.items():
                if not np.isfinite(val) or val < 0:
                    raise ValueError(f"invalid bound {val} for neuron {nid}")

    def for_neuron(self, nid: NeuronId):
        return self.my[nid], self.ms[nid]


@dataclass
class EmbeddingHandles:
    """Variable ids of one network embedding inside a model."""

    input_vars: list
    output_vars: list
    neuron_vars: dict  # NeuronId -> (y, s, z or None)

    def hidden_ids(self) -> list:
        return sorted(self.neuron_vars)


def _require_relu(net: Network, what: str) -> None:
    if not net.is_pure_relu():
        raise ValueError(f"{what} requires pure-ReLU hidden layers")


def _check_box(net: Network, box):
    lo = np.asarray(box[0], dtype=float).reshape(-1)
    hi = np.asarray(box[1], dtype=float).reshape(-1)
    if lo.shape[0] != net.input_dim or hi.shape[0] != net.input_dim:
        raise ValueError("box must give one [lo, hi] pair per input")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("input box must be bounded")
    if np.any(lo > hi):
        raise ValueError("box lower bounds exceed upper bounds")
    return lo, hi


def interval_bounds(net: Network, box) -> BigMBounds:
    """Layer-by-layer interval propagation of the box through the network."""
    _require_relu(net, "interval_bounds")
    lo, hi = _check_box(net, box)
    my, ms = {}, {}
    for li, lay in enumerate(net.hidden_layers):
        wpos = np.maximum(lay.weights, 0.0)
        wneg = np.minimum(lay.weights, 0.0)
        pre_lo = wpos @ lo + wneg @ hi + lay.bias
        pre_hi = wpos @ hi + wneg @ lo + lay.bias
        for i in range(lay.fan_out):
            my[NeuronId(li, i)] = max(0.0, float(pre_hi[i]))
            ms[NeuronId(li, i)] = max(0.0, float(-pre_lo[i]))
        lo = np.maximum(pre_lo, 0.0)
        hi = np.maximum(pre_hi, 0.0)
    return BigMBounds(my, ms, INTERVAL)


def _embed_inputs(model: Model, box, prefix: str) -> list:
    lo, hi = box
    return [model.add_variable(f"{prefix}x[{j}]", lower=float(lo[j]), upper=float(hi[j]))
            for j in range(len(lo))]


def _neuron_row(model: Model, y, s, weights_row, prev_vars, bias, tag):
    terms = {y: 1.0, s: -1.0}
    for coef, pv in zip(weights_row, prev_vars):
        if coef != 0.0:
            terms[pv] = terms.get(pv, 0.0) + float(-coef)
    model.add_constraint(terms, EQ, float(bias), tag=tag)


def _encode_hidden_mip(model, net, input_vars, bounds, prefix, upto):
    """Big-M rows for hidden layers [0, upto); returns (neuron_vars, last post-activations)."""
    neuron_vars = {}
    prev = list(input_vars)
    for li in range(upto):
        lay = net.hidden_layers[li]
        nxt = []
        for i in range(lay.fan_out):
            nid = NeuronId(li, i)
            my, ms = bounds.for_neuron(nid)
            y = model.add_variable(f"{prefix}y[{li + 1}][{i}]", lower=0.0, upper=my)
            s = model.add_variable(f"{prefix}s[{li + 1}][{i}]", lower=0.0, upper=ms)
            z = model.add_variable(f"{prefix}z[{li + 1}][{i}]", kind=BINARY,
                                   lower=0.0, upper=1.0)
            _neuron_row(model, y, s, lay.weights[i], prev, lay.bias[i],
                        tag=f"{prefix}relu[{li + 1}][{i}]")
            # y <= My (1 - z)  and  s <= Ms z
            model.add_constraint({y: 1.0, z: my}, LE, my, tag=f"{prefix}on[{li + 1}][{i}]")
            model.add_constraint({s: 1.0, z: -ms}, LE, 0.0, tag=f"{prefix}off[{li + 1}][{i}]")
            neuron_vars[nid] = (y, s, z)
            nxt.append(y)
        prev = nxt
    return neuron_vars, prev


def _encode_output(model, net, prev, prefix):
    lay = net.layers[-1]
    outs = []
    for i in range(lay.fan_out):
        o = model.add_variable(f"{prefix}out[{i}]")
        terms = {o: 1.0}
        for coef, pv in zip(lay.weights[i], prev):
            if coef != 0.0:
                terms[pv] = terms.get(pv, 0.0) + float(-coef)
        model.add_constraint(terms, EQ, float(lay.bias[i]), tag=f"{prefix}out[{i}]")
        outs.append(o)
    return outs


def encode_mip(model: Model, net: Network, input_vars, bounds: BigMBounds,
               prefix: str = "") -> EmbeddingHandles:
    """Big-M mixed-integer embedding: one binary per hidden ReLU neuron."""
    _require_relu(net, "encode_mip")
    if len(input_vars) != net.input_dim:
        raise ValueError("input variable count must match the network input")
    for vid in input_vars:
        var = model.variables[vid]
        if not (np.isfinite(var.lower) and np.isfinite(var.upper)):
            raise ValueError(f"input variable {var.name} must be box-bounded")
    for nid in net.hidden_relu_ids():
        if nid not in bounds.my or nid not in bounds.ms:
            raise ValueError(f"missing bounds for neuron {nid}")
    neuron_vars, prev = _encode_hidden_mip(
        model, net, input_vars, bounds, prefix, len(net.hidden_layers))
    outs = _encode_output(model, net, prev, prefix)
    return EmbeddingHandles(list(input_vars), outs, neuron_vars)


def encode_mpcc(model: Model, net: Network, input_vars,
                prefix: str = "") -> EmbeddingHandles:
    """Complementarity embedding: y - s = preactivation with 0 <= y  _|_  s >= 0.

    The stored pairs are structural; solvers and exporters realize them (the
    aggregated product form is recorded in the model metadata).
    """
    _require_relu(net, "encode_mpcc")
    if len(input_vars) != net.input_dim:
        raise ValueError("input variable count must match the network input")
    neuron_vars = {}
    prev = list(input_vars)
    for li, lay in enumerate(net.hidden_layers):
        nxt = []
        for i in range(lay.fan_out):
            y = model.add_variable(f"{prefix}y[{li + 1}][{i}]", lower=0.0)
            s = model.add_variable(f"{prefix}s[{li + 1}][{i}]", lower=0.0)
            _neuron_row(model, y, s, lay.weights[i], prev, lay.bias[i],
                        tag=f"{prefix}relu[{li + 1}][{i}]")
            model.add_complementarity(y, s)
            neuron_vars[NeuronId(li, i)] = (y, s, None)
            nxt.append(y)
        prev = nxt
    outs = _encode_output(model, net, prev, prefix)
    model.metadata["complementarity_realization"] = "aggregated_product"
    return EmbeddingHandles(list(input_vars), outs, neuron_vars)


def convex_hull_constraints(model: Model, input_vars, training_inputs,
                            prefix: str = "hull") -> list:
    """Restrict the inputs to the convex hull of the training rows.

    Adds weights lambda_k >= 0 with sum 1 and ties each input coordinate to
    the corresponding convex combination; returns the lambda variable ids.
    """
    V = np.asarray(training_inputs, dtype=float)
    if V.ndim != 2 or V.shape[0] < 1:
        raise ValueError("training inputs must be a nonempty K x n matrix")
    if V.shape[1] != len(input_vars):
        raise ValueError("training rows must match the input dimension")
    lams = [model.add_variable(f"{prefix}_lambda[{k}]", lower=0.0, upper=1.0)
            for k in range(V.shape[0])]
    model.add_constraint({l: 1.0 for l in lams}, EQ, 1.0, tag=f"{prefix}_sum")
    for j, xv in enumerate(input_vars):
        terms = {xv: 1.0}
        for k, l in enumerate(lams):
            if V[k, j] != 0.0:
                terms[l] = -float(V[k, j])
        model.add_constraint(terms, EQ, 0.0, tag=f"{prefix}_mix[{j}]")
    return lams


def tighten_bounds(net: Network, box, mode: str = LP_RELAX,
                   per_solve_limit: int = 200000) -> BigMBounds:
    """Optimality-based bound tightening, strictly layer by layer.

    The first hidden layer keeps its interval bounds, which are exact over a
    box.  Each later layer is one encoding of the layers upstream of it,
    reusing their already-tightened bounds; constraints on neurons in the
    same or later layers are absent.  In ``LP_RELAX`` mode that encoding is
    one LP relaxation in standard form, and each neuron's preactivation max
    and min are cost changes on it, each warm-started from the previous
    basis; ``EXACT_MIP`` solves each by branch and bound.  Results never
    exceed the interval bounds; a subproblem that hits ``per_solve_limit``
    (simplex iterations, or B&B nodes) keeps the interval value.
    """
    from .solvers.branch_bound import milp_solve  # local: avoid import cycle at load

    if mode not in (LP_RELAX, EXACT_MIP):
        raise ValueError(f"unknown tightening mode {mode!r}")
    _require_relu(net, "tighten_bounds")
    if mode == EXACT_MIP and net.num_hidden_relu() > EXACT_MIP_NEURON_CAP:
        raise ValueError(
            f"exact_mip tightening is limited to {EXACT_MIP_NEURON_CAP} neurons"
        )
    box = _check_box(net, box)
    bounds = interval_bounds(net, box)
    tightened = BigMBounds(dict(bounds.my), dict(bounds.ms), mode)
    for li in range(1, len(net.hidden_layers)):
        lay = net.hidden_layers[li]
        model = Model()
        inputs = _embed_inputs(model, box, prefix="")
        _, prev = _encode_hidden_mip(model, net, inputs, tightened, "", li)
        # layer barrier: this layer's subproblems see only the bounds of the
        # layers above it, all committed before its model was built
        sf = standard_form(model) if mode == LP_RELAX else None
        basis = None
        for i in range(lay.fan_out):
            nid = NeuronId(li, i)
            extremes = []  # max, then min; None where a limit was hit
            for sense in (MAX, MIN):
                if mode == LP_RELAX:
                    sign = -1.0 if sense == MAX else 1.0  # to min space and back
                    c = np.zeros(sf.A.shape[1])
                    c[prev] = sign * lay.weights[i]
                    out = solve_standard_form(sf, c_min=c, maxiter=per_solve_limit,
                                              basis=basis)
                    basis = out.basis or basis  # a limited solve leaves no basis
                    status = _STATUS_MAP[out.status]
                    value = sign * out.obj + float(lay.bias[i])
                else:
                    terms = {pv: float(w) for pv, w in zip(prev, lay.weights[i])}
                    model.set_objective(sense, LinearExpr(terms, float(lay.bias[i])))
                    res = milp_solve(model, max_nodes=per_solve_limit)
                    status, value = res.status, res.objective
                if status == Status.INFEASIBLE:
                    raise InconsistentBoxError(f"neuron {nid}: bound subproblem infeasible")
                extremes.append(value if status == Status.OPTIMAL else None)
            amax, amin = extremes
            if amax is not None:
                tightened.my[nid] = min(bounds.my[nid], max(0.0, amax))
            if amin is not None:
                tightened.ms[nid] = min(bounds.ms[nid], max(0.0, -amin))
    return tightened
