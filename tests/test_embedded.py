import logging
import re

import numpy as np
import pytest

from surropt.nn import (
    Activation,
    Layer,
    Network,
    NeuronId,
    affine_piece,
    forward_with_preactivations,
    jacobian,
    random_network,
    sign_partition,
)
from surropt.solvers import embedded
from surropt.solvers.embedded import (
    BoxRegion,
    PolytopeRegion,
    SmoothConstraints,
    SmoothObjective,
    _dnn_jacobian,
    embedded_solve,
)
from surropt.solvers.result import Status

from conftest import LIN, RELU, absolute_value_net


def linear_net(slope=1.0):
    return Network((Layer([[slope]], [0.0], Activation("swish", 0.0)),
                    Layer([[2.0]], [0.0], LIN)))


def test_swish_net_with_known_root_converges():
    net = Network((Layer([[1.0]], [-0.5], Activation("swish", 1.0)),
                   Layer([[1.0]], [0.0], LIN)))
    obj = SmoothObjective(
        value=lambda y, x: float(y @ y),
        grad_x=lambda y, x: np.zeros(1),
        grad_y=lambda y, x: 2.0 * y,
    )
    res, trace = embedded_solve(net, obj, BoxRegion([-2.0], [2.0]), start=[1.7])
    assert res.status is Status.OPTIMAL
    assert res.kkt_residual <= 1e-6
    assert res.objective == pytest.approx(0.0, abs=1e-10)
    assert trace[-1].dual_infeasibility <= 1e-6


def test_relu_kink_optimum_stalls():
    net = absolute_value_net("relu")
    obj = SmoothObjective(
        value=lambda y, x: float(y[0] + 0.3 * x[0]),
        grad_x=lambda y, x: np.array([0.3]),
        grad_y=lambda y, x: np.array([1.0]),
    )
    res, trace = embedded_solve(net, obj, BoxRegion([-1.0], [1.0]), start=[0.7])
    assert res.status in (Status.STALLED, Status.LIMIT)
    assert all(t.dual_infeasibility > 1e-6 for t in trace)


def test_swish_twin_of_the_kink_problem_converges():
    net = absolute_value_net("swish", 1.0)
    obj = SmoothObjective(
        value=lambda y, x: float(y[0] + 0.3 * x[0]),
        grad_x=lambda y, x: np.array([0.3]),
        grad_y=lambda y, x: np.array([1.0]),
    )
    res, trace = embedded_solve(net, obj, BoxRegion([-1.0], [1.0]), start=[0.7])
    assert res.status is Status.OPTIMAL
    assert trace[-1].primal_infeasibility <= 1e-6
    assert trace[-1].dual_infeasibility <= 1e-6


def test_linear_net_linear_objective_hits_vertex():
    net = linear_net()
    obj = SmoothObjective(
        value=lambda y, x: float(y[0]),
        grad_x=lambda y, x: np.zeros(1),
        grad_y=lambda y, x: np.array([1.0]),
    )
    res, _ = embedded_solve(net, obj, BoxRegion([-1.0], [1.0]), start=[0.5])
    assert res.status is Status.OPTIMAL
    assert res.point[0] == pytest.approx(-1.0)


def constrained_instance():
    """min x s.t. DNN(x) >= 1 on [-5, 5] from -3: (net, objective, region), kwargs."""
    net = linear_net()  # DNN(x) = x (slope 2 * swish0 = x)
    obj = SmoothObjective(
        value=lambda y, x: float(x[0]),
        grad_x=lambda y, x: np.array([1.0]),
        grad_y=lambda y, x: np.zeros(1),
    )
    cons = SmoothConstraints(
        value=lambda y, x: np.array([1.0 - y[0]]),
        jac_x=lambda y, x: np.zeros((1, 1)),
        jac_y=lambda y, x: np.array([[-1.0]]),
    )
    return (net, obj, BoxRegion([-5.0], [5.0])), dict(constraints=cons, start=[-3.0])


def test_constrained_al_converges():
    args, kwargs = constrained_instance()
    res, trace = embedded_solve(*args, **kwargs)
    assert res.status is Status.OPTIMAL
    assert res.point[0] == pytest.approx(1.0, abs=1e-5)
    assert trace[-1].primal_infeasibility <= 1e-6


def test_at_most_one_jacobian_per_iteration(monkeypatch):
    # the accepted trial point's gradient is reused by the next iteration
    calls = [0]

    def counting(*a):
        calls[0] += 1
        return jac(*a)

    jac = embedded._dnn_jacobian
    monkeypatch.setattr(embedded, "_dnn_jacobian", counting)
    args, kwargs = constrained_instance()
    res, _ = embedded_solve(*args, **kwargs)
    assert res.status is Status.OPTIMAL
    assert 0 < calls[0] <= res.iterations


def test_outer_updates_are_logged_at_debug(caplog):
    args, kwargs = constrained_instance()
    with caplog.at_level(logging.INFO, logger=embedded.__name__):
        embedded_solve(*args, **kwargs)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, _ = embedded_solve(*args, **kwargs)
    msgs = [r.getMessage() for r in caplog.records]
    pattern = (r"AL update at iteration (\d+): rho=\S+ primal=\S+ dual=\S+ "
               r"lam (moved|kept)")
    matches = [re.fullmatch(pattern, m) for m in msgs]
    assert matches and all(matches)
    its = [int(m.group(1)) for m in matches]
    assert its == sorted(its) and its[-1] < res.iterations
    assert any(m.group(2) == "moved" for m in matches)


def test_dnn_jacobian_is_the_affine_piece_on_relu_nets():
    rng = np.random.default_rng(5)
    tol = 1e-10
    for dims in ([3, 6, 2], [4, 5, 5, 3]):
        net = random_network(rng, dims)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, dims[0])
            _, preacts = forward_with_preactivations(net, x)
            expect = affine_piece(net, sign_partition(net, x, tol).active)[0]
            assert np.array_equal(_dnn_jacobian(net, preacts, tol), expect)
    # at a kink: neuron 0 sits exactly at 0 and neuron 1 inside tol of it
    W2 = rng.uniform(-1.0, 1.0, (4, 3))
    net = Network((Layer([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.5], RELU),
                   Layer(W2, rng.uniform(-0.5, 0.5, 4), RELU),
                   Layer(rng.uniform(-1.0, 1.0, (2, 4)), [0.0, 0.0], LIN)))
    x = np.array([0.0, 0.5 * tol])
    part = sign_partition(net, x, tol)
    assert {NeuronId(0, 0), NeuronId(0, 1)} <= part.degenerate
    _, preacts = forward_with_preactivations(net, x)
    assert preacts[0][0] == 0.0 and 0.0 < preacts[0][1] <= tol
    assert np.array_equal(_dnn_jacobian(net, preacts, tol),
                          affine_piece(net, part.active)[0])


def test_dnn_jacobian_is_the_chain_rule_on_swish_and_mixed_nets():
    rng = np.random.default_rng(6)
    swish = Activation("swish", 1.5)
    mixed = Network((Layer(rng.uniform(-1.0, 1.0, (5, 3)), rng.uniform(-0.5, 0.5, 5), RELU),
                     Layer(rng.uniform(-1.0, 1.0, (4, 5)), rng.uniform(-0.5, 0.5, 4), swish),
                     Layer(rng.uniform(-1.0, 1.0, (2, 4)), [0.0, 0.0], LIN)))
    for net in (random_network(rng, [3, 6, 2], "swish"),
                random_network(rng, [3, 5, 4, 2], "swish", 0.5), mixed):
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 3)
            _, preacts = forward_with_preactivations(net, x)
            assert np.array_equal(_dnn_jacobian(net, preacts, 1e-10), jacobian(net, x))


def test_trace_records_are_well_formed():
    net = linear_net()
    obj = SmoothObjective(
        value=lambda y, x: float(y[0] ** 2),
        grad_x=lambda y, x: np.zeros(1),
        grad_y=lambda y, x: np.array([2.0 * y[0]]),
    )
    res, trace = embedded_solve(net, obj, BoxRegion([-1.0], [1.0]), start=[0.9])
    assert len(trace) == res.iterations
    its = [t.iteration for t in trace]
    assert its == list(range(len(trace)))
    assert all(t.primal_infeasibility >= 0 and t.dual_infeasibility >= 0 for t in trace)


def test_polytope_region_projection():
    # triangle x1 + x2 <= 1, x >= 0: project (1, 1) onto it -> (0.5, 0.5)
    region = PolytopeRegion([[1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0])
    p = region.project(np.array([1.0, 1.0]))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-4)


def test_max_iter_budget_respected():
    net = absolute_value_net("relu")
    obj = SmoothObjective(
        value=lambda y, x: float(y[0] + 0.3 * x[0]),
        grad_x=lambda y, x: np.array([0.3]),
        grad_y=lambda y, x: np.array([1.0]),
    )
    res, trace = embedded_solve(net, obj, BoxRegion([-1.0], [1.0]), start=[0.7],
                                max_iter=50)
    assert res.iterations <= 50
    assert len(trace) <= 50
