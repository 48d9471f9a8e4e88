import logging
import re
import signal

import numpy as np
import pytest

from surropt.encoders import encode_mip, tighten_bounds
from surropt.model import Model, fix_binaries
from surropt.nn import random_network
from surropt.problems import AttackSpec, build_attack
from surropt.solvers import branch_bound
from surropt.solvers.branch_bound import milp_solve
from surropt.solvers.frank_wolfe import qp_frank_wolfe
from surropt.solvers.pattern import pattern_enumerate_solve
from surropt.solvers.result import Status
from surropt.solvers.simplex import lp_solve


def knapsack():
    m = Model()
    zs = [m.add_variable(f"z{i}", kind="binary") for i in range(6)]
    w = [3.0, 4.0, 5.0, 8.0, 9.0, 2.0]
    v = [2.0, 3.0, 4.0, 6.0, 7.0, 1.0]
    m.add_constraint({zs[i]: w[i] for i in range(6)}, "<=", 12.0)
    m.set_objective("max", {zs[i]: v[i] for i in range(6)})
    return m, zs


def test_milp_knapsack_optimal():
    m, _ = knapsack()
    res = milp_solve(m)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(9.0)
    assert abs(res.objective - res.best_bound) <= 1e-6 * (1 + abs(res.objective))


def test_milp_fixed_binaries_reduces_to_lp():
    m, zs = knapsack()
    fixed = fix_binaries(m, {z: 1 if i in (1, 2) else 0 for i, z in enumerate(zs)})
    res = milp_solve(fixed)
    ref = lp_solve(fixed)
    assert res.objective == pytest.approx(ref.objective)
    assert res.nodes == 1


def test_milp_warmstart_validation_and_dominance():
    m, zs = knapsack()
    opt = milp_solve(m)
    res_warm = milp_solve(m, warmstart=opt.point)
    assert res_warm.objective == pytest.approx(opt.objective)
    assert res_warm.nodes <= opt.nodes
    with pytest.raises(ValueError):
        milp_solve(m, warmstart={z: 1.0 for z in zs})  # violates the knapsack row


def test_milp_warmstart_at_optimum_prunes_root():
    # integral LP relaxation: solving the root proves the warmstart optimal
    m = Model()
    z1 = m.add_variable("z1", kind="binary")
    z2 = m.add_variable("z2", kind="binary")
    m.add_constraint({z1: 1.0, z2: 1.0}, ">=", 1.0)
    m.set_objective("min", {z1: 2.0, z2: 3.0})
    opt = milp_solve(m)
    assert opt.objective == pytest.approx(2.0)
    res = milp_solve(m, warmstart={z1: 1.0, z2: 0.0})
    assert res.nodes == 1
    assert res.objective == pytest.approx(2.0)


def test_milp_matches_oracle_on_embedded_net(rng):
    net = random_network(rng, [1, 2, 1])
    bounds = tighten_bounds(net, ([-1.0], [1.0]))
    m = Model()
    x = m.add_variable("x", lower=-1.0, upper=1.0)
    h = encode_mip(m, net, [x], bounds)
    m.set_objective("max", {h.output_vars[0]: 1.0})
    res = milp_solve(m)
    oracle = pattern_enumerate_solve(m, h)
    assert res.objective == pytest.approx(oracle.objective, abs=1e-6)


def test_milp_limit_status():
    m, _ = knapsack()
    res = milp_solve(m, max_nodes=1)
    assert res.status in (Status.LIMIT, Status.FEASIBLE)


def _relu_box_milp(sense):
    """Big-M model of the min or max of a [2, 10, 1] net's output over [-1, 1]^2."""
    from test_status_propagation import _box_model

    model, h = _box_model(random_network(np.random.default_rng(0), [2, 10, 1]), "mip")
    model.set_objective(sense, {h.output_vars[0]: 1.0})
    return model


def test_milp_node_order_is_pinned():
    # best-bound picks the least (bound, creation order) open node; the same
    # nodes must be explored however the open list is kept
    res = milp_solve(_relu_box_milp("min"))
    assert res.status is Status.OPTIMAL
    assert res.nodes == 35
    assert res.objective == pytest.approx(-0.24543110818596908, abs=1e-12)


@pytest.mark.parametrize("sense", ["min", "max"])
def test_new_incumbents_are_logged_at_info(caplog, sense):
    model = _relu_box_milp(sense)
    with caplog.at_level(logging.WARNING, logger=branch_bound.__name__):
        milp_solve(model)
    assert not caplog.records
    with caplog.at_level(logging.INFO, logger=branch_bound.__name__):
        res = milp_solve(model)
    assert res.status is Status.OPTIMAL
    line = r"incumbent \S+, bound \S+, gap \S+, \d+ open, \d+ explored"
    assert caplog.records
    assert all(re.fullmatch(line, r.getMessage()) for r in caplog.records)
    rows = [r.args for r in caplog.records]
    better = 1.0 if sense == "max" else -1.0  # the model's orientation
    incumbents = [row[0] for row in rows]
    assert all(better * (b - a) > 0 for a, b in zip(incumbents, incumbents[1:]))
    assert incumbents[-1] == res.objective
    for inc, bound, gap, _, explored in rows:
        assert better * (bound - res.objective) >= -1e-9  # a valid bound throughout
        assert gap == pytest.approx(better * (bound - inc), abs=1e-12) and gap >= 0.0
        assert 0 < explored <= res.nodes


@pytest.mark.parametrize("sense", ["min", "max"])
def test_progress_is_logged_every_n_nodes(caplog, monkeypatch, sense):
    monkeypatch.setattr(branch_bound, "LOG_EVERY_NODES", 4)
    with caplog.at_level(logging.INFO, logger=branch_bound.__name__):
        res = milp_solve(_relu_box_milp(sense))
    assert res.status is Status.OPTIMAL and res.nodes >= 8
    number = r"-?(?:inf|\d+(?:\.\d*)?(?:e[-+]\d+)?)"
    line = rf"incumbent ({number}), bound ({number}), gap ({number}), (\d+) open, (\d+) explored"
    parsed = [re.fullmatch(line, r.getMessage()) for r in caplog.records]
    assert all(parsed)
    rows = [tuple(float(g) for g in p.groups()) for p in parsed]
    # the incumbent lines and one line each at 4, 8, ... explored nodes
    progress = {4.0 * k for k in range(1, res.nodes // 4 + 1)}
    assert progress and progress <= {row[4] for row in rows}
    better = 1.0 if sense == "max" else -1.0
    for inc, bound, gap, _, _ in rows:
        assert better * (bound - res.objective) >= -1e-9  # never past the optimum
        assert gap >= 0.0
        if np.isfinite(inc):
            assert better * (inc - res.objective) <= 1e-9


def test_fw_scalar_projection():
    m = Model()
    x = m.add_variable("x", lower=0.0, upper=1.0)
    m.set_objective("min", {x: -6.0}, quadratic=[(x, x, 1.0)])
    m.objective.linear.constant = 9.0
    res = qp_frank_wolfe(m)
    assert res.status is Status.OPTIMAL
    assert res.point[x] == pytest.approx(1.0)
    assert res.objective == pytest.approx(4.0)


def test_fw_interior_projection_zero_gap(rng):
    m = Model()
    ids = [m.add_variable(f"p{i}", lower=0.0, upper=1.0) for i in range(4)]
    m.add_constraint({i: 1.0 for i in ids}, "=", 1.0)
    x0 = np.array([0.4, 0.3, 0.2, 0.1])
    m.set_objective("min", {ids[i]: -2.0 * x0[i] for i in range(4)},
                    quadratic=[(i, i, 1.0) for i in ids])
    res = qp_frank_wolfe(m, tol=1e-9)
    for i, v in enumerate(x0):
        assert res.point[ids[i]] == pytest.approx(v, abs=1e-4)
    assert res.kkt_residual <= 1e-9


def test_fw_gap_bounds_suboptimality():
    # min (x-3)^2 over [0,1]: optimum 4; bound = value - gap must stay below it
    m = Model()
    x = m.add_variable("x", lower=0.0, upper=1.0)
    m.set_objective("min", {x: -6.0}, quadratic=[(x, x, 1.0)])
    m.objective.linear.constant = 9.0
    res = qp_frank_wolfe(m, tol=1e-8)
    assert res.best_bound <= 4.0 + 1e-9
    assert res.objective >= 4.0 - 1e-12


def test_fw_fixed_pattern_attack_subproblem_closed_form():
    # one active neuron fixed: minimize (z - 0.2)^2 s.t. score row forces z >= 0.6
    m = Model()
    z = m.add_variable("z", lower=0.0, upper=1.0)
    m.add_constraint({z: 1.0}, ">=", 0.6)
    m.set_objective("min", {z: -0.4}, quadratic=[(z, z, 1.0)])
    m.objective.linear.constant = 0.04
    res = qp_frank_wolfe(m, tol=1e-10)
    assert res.point[z] == pytest.approx(0.6, abs=1e-6)
    assert res.objective == pytest.approx(0.16, abs=1e-6)


def test_fw_infeasible_region():
    m = Model()
    x = m.add_variable("x", lower=0.0, upper=1.0)
    m.add_constraint({x: 1.0}, ">=", 2.0)
    m.set_objective("min", {}, quadratic=[(x, x, 1.0)])
    assert qp_frank_wolfe(m).status is Status.INFEASIBLE


def test_fw_unbounded_linear_objective():
    # min -x over x >= 0: a linear objective is one simplex solve, and its
    # unboundedness must not read as an empty region
    m = Model()
    x = m.add_variable("x", lower=0.0)
    m.set_objective("min", {x: -1.0})
    assert qp_frank_wolfe(m).status is Status.UNBOUNDED


def _interrupt(signum, frame):
    raise TimeoutError("milp_solve ran past its time limit")


def test_milp_time_limit_bounds_a_frank_wolfe_stall():
    # the l2 attack's node QPs converge sublinearly under Frank-Wolfe; the
    # time limit must end the stall inside a node, not only between nodes.
    # An alarm turns a run past the limit into a failure instead of a hang.
    rng = np.random.default_rng(1)
    net = random_network(rng, [3, 6, 3])
    image = rng.uniform(0.2, 0.8, 3)
    model, _ = build_attack(AttackSpec(net=net, image=image, target_label=0, norm="l2"),
                            "mip")
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, 3.0)
    try:
        res = milp_solve(model, time_limit=0.5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert res.status in (Status.LIMIT, Status.FEASIBLE)
    if res.status is Status.FEASIBLE:
        assert res.best_bound <= res.objective
