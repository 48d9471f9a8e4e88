"""The bound-pruned pattern oracle: implied neuron caps, unbounded prefix
relaxations, its LP count, and a differential check against the minimum over
every pattern-fixed LP."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from surropt.encoders import encode_mpcc, interval_bounds
from surropt.model import Model
from surropt.nn import Layer, Network, forward_with_preactivations, random_network
from surropt.problems import EngineSpec, build_engine
from surropt.solvers import simplex
from surropt.solvers.pattern import _cap_pairs, _gather_neurons, pattern_enumerate_solve
from surropt.solvers.result import Status
from surropt.solvers.simplex import lp_solve, standard_form

from conftest import LIN, RELU


def _boxed_model(net, cobj, sense="min"):
    """sense cobj . (output, x) over x in [-1, 1]^d, complementarity encoding."""
    m = Model()
    xs = [m.add_variable(f"x{j}", lower=-1.0, upper=1.0) for j in range(net.input_dim)]
    h = encode_mpcc(m, net, xs)
    terms = {h.output_vars[0]: float(cobj[0])}
    terms.update({xv: float(c) for xv, c in zip(xs, cobj[1:])})
    m.set_objective(sense, terms)
    return m, h


def _pattern_lp(model, handles, pattern):
    """The LP of one full pattern: active neurons s = 0, the others y = 0."""
    fixed = model.copy()
    fixed.complementarities = []
    for nid, (y, s, _) in handles.neuron_vars.items():
        fixed.variables[s if nid in pattern else y].upper = 0.0
    return lp_solve(fixed)


def test_caps_equal_interval_bounds_on_a_boxed_embedding():
    net = random_network(np.random.default_rng(3), [2, 4, 3, 1])
    m, h = _boxed_model(net, [1.0, 0.0, 0.0])
    sf = standard_form(m)
    _cap_pairs(sf, _gather_neurons(h))
    ib = interval_bounds(net, (np.full(2, -1.0), np.full(2, 1.0)))
    for nid, (y, s, _) in h.neuron_vars.items():
        assert sf.upper[y] == pytest.approx(ib.my[nid], rel=1e-12, abs=1e-12)
        assert sf.upper[s] == pytest.approx(ib.ms[nid], rel=1e-12, abs=1e-12)


def test_caps_hold_at_forward_pass_points_of_two_engine_steps():
    rng = np.random.default_rng(11)
    spec = EngineSpec(net=random_network(rng, [3, 4, 3, 3]), horizon=2,
                      torque_profile=np.full(2, -0.4), fuel_bounds=(0.0, 1.0),
                      rpm_bounds=(0.0, 1.0), compression_bounds=(0.2, 0.8))
    model, handles = build_engine(spec, "mpcc")
    sf = standard_form(model)
    neurons = _gather_neurons(handles.embeddings)
    _cap_pairs(sf, neurons)
    assert np.isfinite(sf.upper[[v for _, y, s, _ in neurons for v in (y, s)]]).all()
    comp = rng.uniform(0.2, 0.8, 200)
    inputs = rng.uniform(0.0, 1.0, size=(200, 2, 2))  # (fuel, rpm) per step
    for c, steps in zip(comp, inputs):
        preacts = [forward_with_preactivations(spec.net, [f, r, c])[1] for f, r in steps]
        for (t, nid), y, s, _ in neurons:
            a = preacts[t][nid.layer][nid.index]
            assert max(a, 0.0) <= sf.upper[y] + 1e-12
            assert max(-a, 0.0) <= sf.upper[s] + 1e-12


def test_unbounded_prefix_relaxation_keeps_descending():
    # relu(x) + relu(x) with x bounded by rows only: no neuron gets a cap, so
    # y and s of a free neuron rise together and every prefix LP is unbounded
    net = Network((Layer([[1.0], [1.0]], [0.0, 0.0], RELU), Layer([[1.0, 1.0]], [0.0], LIN)))
    m = Model()
    x = m.add_variable("x")
    m.add_constraint({x: 1.0}, "<=", 1.0)
    m.add_constraint({x: -1.0}, "<=", 1.0)
    h = encode_mpcc(m, net, [x])
    m.set_objective("min", {v: -1.0 for y, s, _ in h.neuron_vars.values() for v in (y, s)})
    relaxed = m.copy()
    relaxed.complementarities = []
    assert lp_solve(relaxed).status is Status.UNBOUNDED
    res = pattern_enumerate_solve(m, h)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-2.0, abs=1e-12)


def test_nodes_count_the_oracles_lps(monkeypatch):
    net = random_network(np.random.default_rng(5), [2, 4, 3, 1])
    m, h = _boxed_model(net, [1.0, 0.3, -0.2])
    orig = simplex.solve_standard_form
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("surropt.") and getattr(mod, "solve_standard_form", None) is orig:
            monkeypatch.setattr(mod, "solve_standard_form", counting)
    res = pattern_enumerate_solve(m, h)
    assert res.status is Status.OPTIMAL
    assert 0 < res.nodes == calls[0] < 2 ** 7  # fewer LPs than leaves


@hst.composite
def oracle_instances(draw):
    d = draw(hst.integers(1, 3))
    h1 = draw(hst.integers(1, 8))
    hidden = [h1] if h1 == 8 or draw(hst.booleans()) else [h1, draw(hst.integers(1, 8 - h1))]
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    net = random_network(rng, [d] + hidden + [1])
    return net, rng.uniform(-1, 1, d + 1), draw(hst.sampled_from(["min", "max"]))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle_instances())
def test_oracle_equals_the_best_pattern_lp(instance):
    net, cobj, sense = instance
    m, h = _boxed_model(net, cobj, sense)
    nids = sorted(h.neuron_vars)
    values = []
    for flags in itertools.product((True, False), repeat=len(nids)):
        res = _pattern_lp(m, h, {nid for nid, act in zip(nids, flags) if act})
        if res.status is Status.OPTIMAL:
            values.append(res.objective)
    best = min(values) if sense == "min" else max(values)
    orc = pattern_enumerate_solve(m, h)
    assert orc.status is Status.OPTIMAL
    assert orc.objective == pytest.approx(best, abs=1e-9)
    assert _pattern_lp(m, h, orc.pattern).objective == pytest.approx(best, abs=1e-9)
