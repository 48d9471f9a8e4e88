import numpy as np
import pytest

from surropt.encoders import (
    EXACT_MIP,
    LP_RELAX,
    InconsistentBoxError,
    convex_hull_constraints,
    encode_mip,
    encode_mpcc,
    interval_bounds,
    tighten_bounds,
)
from surropt.model import Model
from surropt.nn import Layer, Network, NeuronId, forward_with_preactivations, random_network
from surropt.solvers import simplex
from surropt.solvers.simplex import lp_solve

from conftest import LIN, RELU, single_neuron_net

N = NeuronId


def test_interval_bounds_single_neuron():
    b = interval_bounds(single_neuron_net(), ([0.0], [2.0]))
    assert b.my[N(0, 0)] == pytest.approx(1.0)
    assert b.ms[N(0, 0)] == pytest.approx(1.0)


def test_interval_bounds_mixed_signs():
    net = Network((Layer([[1.0, -1.0]], [0.0], RELU), Layer([[1.0]], [0.0], LIN)))
    b = interval_bounds(net, ([0.0, 0.0], [1.0, 1.0]))
    assert b.my[N(0, 0)] == pytest.approx(1.0)
    assert b.ms[N(0, 0)] == pytest.approx(1.0)


def test_interval_bounds_strictly_active_neuron():
    net = single_neuron_net(w=1.0, b=2.0)
    b = interval_bounds(net, ([0.0], [1.0]))
    assert b.ms[N(0, 0)] == 0.0  # never on the slack branch: binary fixable
    assert b.my[N(0, 0)] == pytest.approx(3.0)


def test_interval_requires_bounded_box():
    with pytest.raises(ValueError):
        interval_bounds(single_neuron_net(), ([0.0], [np.inf]))


def test_tighten_single_neuron_lp():
    bt = tighten_bounds(single_neuron_net(), ([0.0], [2.0]))
    assert bt.my[N(0, 0)] == pytest.approx(1.0, abs=1e-9)
    assert bt.ms[N(0, 0)] == pytest.approx(1.0, abs=1e-9)


def test_tighten_dead_neuron_cuts_downstream():
    # first neuron dead on the box; the interval bound for the second layer
    # still sees its (0-valued) contribution range, OBBT removes it exactly
    net = Network((
        Layer([[1.0]], [-5.0], RELU),  # dead on [0, 2]
        Layer([[2.0]], [1.0], RELU),
        Layer([[1.0]], [0.0], LIN),
    ))
    box = ([0.0], [2.0])
    bi = interval_bounds(net, box)
    bt = tighten_bounds(net, box)
    assert bt.my[N(0, 0)] == 0.0
    assert bt.my[N(1, 0)] <= bi.my[N(1, 0)] + 1e-9
    assert bt.my[N(1, 0)] == pytest.approx(1.0, abs=1e-8)


def test_tighten_exact_mip_matches_pattern_maximum(rng):
    net = random_network(rng, [1, 2, 1])
    box = ([-1.0], [1.0])
    exact = tighten_bounds(net, box, mode=EXACT_MIP)
    # brute-force the true preactivation range on a fine grid
    grid = np.linspace(-1, 1, 4001)
    for li, lay in enumerate(net.hidden_layers):
        pre = np.array([forward_with_preactivations(net, [g])[1][li] for g in grid])
        for i in range(lay.fan_out):
            true_my = max(0.0, pre[:, i].max())
            true_ms = max(0.0, -pre[:, i].min())
            assert exact.my[N(li, i)] >= true_my - 1e-6
            assert exact.my[N(li, i)] <= true_my + 1e-6
            assert exact.ms[N(li, i)] >= true_ms - 1e-6
            assert exact.ms[N(li, i)] <= true_ms + 1e-6


def test_tighten_modes_monotone(rng):
    net = random_network(rng, [2, 3, 2, 1])
    box = (np.full(2, -1.0), np.full(2, 1.0))
    bi = interval_bounds(net, box)
    bl = tighten_bounds(net, box)
    be = tighten_bounds(net, box, mode=EXACT_MIP)
    for nid in bi.my:
        assert be.my[nid] <= bl.my[nid] + 1e-9
        assert bl.my[nid] <= bi.my[nid] + 1e-9
        assert be.ms[nid] <= bl.ms[nid] + 1e-9
        assert bl.ms[nid] <= bi.ms[nid] + 1e-9


@pytest.mark.parametrize("mode", [LP_RELAX, EXACT_MIP])
def test_tighten_single_hidden_layer_is_the_interval_bounds(rng, monkeypatch, mode):
    # interval propagation is exact on the first layer, so no LP is solved
    def no_lp(*args, **kwargs):
        raise AssertionError("tighten_bounds solved an LP")

    monkeypatch.setattr(simplex._Tableau, "__init__", no_lp)
    for sizes in ([1, 3, 1], [3, 8, 2]):
        net = random_network(rng, sizes)
        box = (rng.uniform(-2.0, 0.0, sizes[0]), rng.uniform(0.0, 2.0, sizes[0]))
        bt, bi = tighten_bounds(net, box, mode=mode), interval_bounds(net, box)
        assert (bt.my, bt.ms) == (bi.my, bi.ms)


def test_tighten_infeasible_box_raises():
    with pytest.raises((InconsistentBoxError, ValueError)):
        tighten_bounds(single_neuron_net(), ([2.0], [0.0]))


def test_encode_mip_counts_and_point_feasibility():
    net = single_neuron_net()
    bounds = interval_bounds(net, ([0.0], [2.0]))
    m = Model()
    x = m.add_variable("x", lower=0.0, upper=2.0)
    h = encode_mip(m, net, [x], bounds)
    assert m.num_binaries() == 1
    # active point x=2: y=1, s=0, z=0
    y, s, z = h.neuron_vars[N(0, 0)]
    pt = {x: 2.0, y: 1.0, s: 0.0, z: 0.0, h.output_vars[0]: 1.0}
    assert m.max_violation(pt) <= 1e-9
    # inactive point x=0: y=0, s=1, z=1
    pt = {x: 0.0, y: 0.0, s: 1.0, z: 1.0, h.output_vars[0]: 0.0}
    assert m.max_violation(pt) <= 1e-9


def test_encode_mip_requires_bounded_inputs():
    net = single_neuron_net()
    bounds = interval_bounds(net, ([0.0], [2.0]))
    m = Model()
    x = m.add_variable("x")  # unbounded
    with pytest.raises(ValueError):
        encode_mip(m, net, [x], bounds)


def test_encode_mip_all_rows_affine():
    net = single_neuron_net()
    m = Model()
    x = m.add_variable("x", lower=0.0, upper=2.0)
    encode_mip(m, net, [x], interval_bounds(net, ([0.0], [2.0])))
    assert not m.objective.quadratic
    assert all(c.sense in ("<=", "=", ">=") for c in m.constraints)


def test_encode_mpcc_pairs_and_violation():
    net = single_neuron_net()
    m = Model()
    x = m.add_variable("x", lower=0.0, upper=2.0)
    h = encode_mpcc(m, net, [x])
    assert m.num_complementarities() == 1
    assert m.metadata["complementarity_realization"] == "aggregated_product"
    y, s, _ = h.neuron_vars[N(0, 0)]
    good = {x: 2.0, y: 1.0, s: 0.0, h.output_vars[0]: 1.0}
    assert m.max_violation(good) <= 1e-9
    assert m.complementarity_violation(good) == 0.0
    bad = {x: 1.0, y: 0.5, s: 0.5, h.output_vars[0]: 0.5}
    assert m.complementarity_violation(bad) == pytest.approx(0.25)


def test_encode_feasibility_of_forward_points(rng):
    for _ in range(5):
        net = random_network(rng, [2, 3, 2, 2])
        box = (np.full(2, -1.0), np.full(2, 1.0))
        bounds = interval_bounds(net, box)
        m = Model()
        xs = [m.add_variable(f"x{j}", lower=-1.0, upper=1.0) for j in range(2)]
        h = encode_mip(m, net, xs, bounds)
        xv = rng.uniform(-1, 1, 2)
        out, preacts = forward_with_preactivations(net, xv)
        pt = {xs[0]: xv[0], xs[1]: xv[1]}
        for li, lay in enumerate(net.hidden_layers):
            for i in range(lay.fan_out):
                y, s, z = h.neuron_vars[N(li, i)]
                a = preacts[li][i]
                pt[y] = max(0.0, a)
                pt[s] = max(0.0, -a)
                pt[z] = 1.0 if a <= 0 else 0.0
        for k, o in enumerate(h.output_vars):
            pt[o] = out[k]
        assert m.max_violation(pt) <= 1e-9


def test_bound_validity_sweep(rng):
    net = random_network(rng, [2, 4, 3, 1])
    box = (np.full(2, -1.0), np.full(2, 1.0))
    for bounds in (interval_bounds(net, box), tighten_bounds(net, box)):
        for _ in range(200):
            xv = rng.uniform(-1, 1, 2)
            _, preacts = forward_with_preactivations(net, xv)
            for li, lay in enumerate(net.hidden_layers):
                for i in range(lay.fan_out):
                    a = preacts[li][i]
                    assert max(0.0, a) <= bounds.my[N(li, i)] + 1e-9
                    assert max(0.0, -a) <= bounds.ms[N(li, i)] + 1e-9


def test_convex_hull_single_point_pins_input():
    m = Model()
    x = m.add_variable("x", lower=-5.0, upper=5.0)
    convex_hull_constraints(m, [x], [[2.5]])
    m.set_objective("min", {x: 1.0})
    res = lp_solve(m)
    assert res.point[x] == pytest.approx(2.5)
    m.set_objective("max", {x: 1.0})
    assert lp_solve(m).point[x] == pytest.approx(2.5)


def test_convex_hull_segment():
    m = Model()
    x = m.add_variable("x", lower=-5.0, upper=5.0)
    convex_hull_constraints(m, [x], [[0.0], [2.0]])
    m.set_objective("min", {x: 1.0})
    assert lp_solve(m).objective == pytest.approx(0.0)
    m.set_objective("max", {x: 1.0})
    assert lp_solve(m).objective == pytest.approx(2.0)


def test_convex_hull_membership(rng):
    V = rng.uniform(-1, 1, (5, 2))
    m = Model()
    xs = [m.add_variable(f"x{j}", lower=-2.0, upper=2.0) for j in range(2)]
    convex_hull_constraints(m, xs, V)
    m.set_objective("min", {})
    w = rng.dirichlet(np.ones(5))
    inside = w @ V
    r0 = m.add_constraint({xs[0]: 1.0}, "=", float(inside[0]))
    r1 = m.add_constraint({xs[1]: 1.0}, "=", float(inside[1]))
    assert lp_solve(m).status.value == "Optimal"
    # a point beyond the hull's bounding box is infeasible
    m.constraints[r0].rhs = 1.5
    m.constraints[r1].rhs = 1.5
    assert lp_solve(m).status.value == "Infeasible"
