"""A subproblem LP that ends neither optimal nor infeasible must not be read
as "infeasible": each solver surfaces it in its status or bound, or raises.

Every test injects the undecided status by wrapping ``solve_standard_form``
under every name a surropt module bound it to, and checks what the caller
reports.
"""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from surropt import regions
from surropt import stationarity as st
from surropt.encoders import (InconsistentBoxError, encode_mip, encode_mpcc, interval_bounds,
                              tighten_bounds)
from surropt.model import Model
from surropt.nn import random_network
from surropt.solvers import branch_bound, pattern, simplex
from surropt.solvers.result import SolverError, Status
from surropt.solvers.simplex import SimplexOut, standard_form

from conftest import zero_bias_counterexample


def _box_model(net, formulation):
    """min output over x in [-1, 1]^d."""
    d = net.input_dim
    m = Model()
    xs = [m.add_variable(f"x{j}", lower=-1.0, upper=1.0) for j in range(d)]
    if formulation == "mip":
        h = encode_mip(m, net, xs, interval_bounds(net, (np.full(d, -1.0), np.full(d, 1.0))))
    else:
        h = encode_mpcc(m, net, xs)
    m.set_objective("min", {h.output_vars[0]: 1.0})
    return m, h


def _highs_optimum(model):
    sf = standard_form(model)
    integrality = np.zeros(sf.A.shape[1])
    integrality[[v.id for v in model.variables if v.kind == "binary"]] = 1
    res = milp(sf.c, constraints=LinearConstraint(sf.A, sf.b, sf.b),
               bounds=Bounds(sf.lower, sf.upper), integrality=integrality)
    assert res.success
    return sf.sign * (res.fun + sf.c0)


def _inject(monkeypatch, status, when):
    """Make ``solve_standard_form`` report ``status`` on the calls for which
    ``when(call_number, kwargs)`` holds, whichever module makes them."""
    orig = simplex.solve_standard_form
    calls = [0]

    def fake(sf, **kwargs):
        calls[0] += 1
        out = orig(sf, **kwargs)
        if when(calls[0], kwargs):
            return SimplexOut(status, out.x, math.nan, out.pi, out.reduced, out.iterations)
        return out

    for name, mod in list(sys.modules.items()):
        if name == "surropt" or name.startswith("surropt."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, fake)
    return calls


def test_bb_keeps_the_bound_of_a_node_lost_to_a_limit(monkeypatch):
    # the first child of the root holds the optimum; dropping it used to
    # leave best_bound at a worse incumbent, claiming a zero gap
    m, _ = _box_model(random_network(np.random.default_rng(0), [2, 10, 1]), "mip")
    opt = _highs_optimum(m)
    assert branch_bound.milp_solve(m).objective == pytest.approx(opt, abs=1e-9)
    _inject(monkeypatch, "limit", lambda k, kw: k == 2)
    res = branch_bound.milp_solve(m)
    assert res.status is Status.FEASIBLE
    assert res.objective > opt + 1e-3  # the lost node held the optimum
    assert res.best_bound <= opt + 1e-9


def test_bb_zero_time_limit_explores_no_node():
    m, _ = _box_model(random_network(np.random.default_rng(0), [2, 10, 1]), "mip")
    res = branch_bound.milp_solve(m, time_limit=0)
    assert res.status is Status.LIMIT
    assert res.nodes == 0


def test_tightening_limit_keeps_the_interval_value(monkeypatch):
    net = random_network(np.random.default_rng(4), [2, 4, 3, 1])
    box = (np.full(2, -1.0), np.full(2, 1.0))
    interval = interval_bounds(net, box)
    assert tighten_bounds(net, box).my != interval.my
    calls = _inject(monkeypatch, "limit", lambda k, kw: True)
    limited = tighten_bounds(net, box)
    assert calls[0] == 2 * 3  # the max and min of each second-layer neuron
    assert (limited.my, limited.ms) == (interval.my, interval.ms)
    _inject(monkeypatch, "infeasible", lambda k, kw: True)
    with pytest.raises(InconsistentBoxError):
        tighten_bounds(net, box)


def _oracle_instance():
    return _box_model(random_network(np.random.default_rng(5), [2, 4, 1]), "mpcc")


def test_oracle_leaf_limit_is_reported(monkeypatch):
    m, h = _oracle_instance()
    assert pattern.pattern_enumerate_solve(m, h).status is Status.OPTIMAL
    _inject(monkeypatch, "limit", lambda k, kw: kw.get("c_min") is None)
    assert pattern.pattern_enumerate_solve(m, h).status is Status.LIMIT


def test_oracle_leaf_unbounded_is_reported(monkeypatch):
    m, h = _oracle_instance()
    _inject(monkeypatch, "unbounded", lambda k, kw: kw.get("c_min") is None)
    assert pattern.pattern_enumerate_solve(m, h).status is Status.UNBOUNDED


def test_oracle_witness_limit_does_not_prune_as_infeasible(monkeypatch):
    m, h = _oracle_instance()
    pairs = [(y, s) for y, s, _ in h.neuron_vars.values()]
    # prefix LPs: some neuron has neither y nor s fixed
    _inject(monkeypatch, "limit", lambda k, kw: "lower" in kw and any(
        kw["lower"][y] < kw["upper"][y] and kw["lower"][s] < kw["upper"][s]
        for y, s in pairs))
    res = pattern.pattern_enumerate_solve(m, h)
    assert res.status is Status.LIMIT


def _fw_instance(formulation):
    """min (out - 0.3)^2 over x in [-1, 1]: node and leaf solves run Frank-Wolfe."""
    m, h = _box_model(random_network(np.random.default_rng(3), [1, 2, 1]), formulation)
    out = h.output_vars[0]
    m.set_objective("min", {out: -0.6}, quadratic=[(out, out, 1.0)])
    m.objective.linear.constant = 0.09
    return m, h


def test_bb_frank_wolfe_limit_is_not_infeasible(monkeypatch):
    m, _ = _fw_instance("mip")
    opt = branch_bound.milp_solve(m)
    assert opt.status is Status.OPTIMAL
    # every Frank-Wolfe LP (start and linear-minimization oracle) hits its limit
    _inject(monkeypatch, "limit", lambda k, kw: kw.get("c_min") is not None)
    res = branch_bound.milp_solve(m)
    assert res.status is Status.LIMIT
    assert res.best_bound <= opt.objective


def test_oracle_frank_wolfe_limit_is_not_infeasible(monkeypatch):
    m, h = _fw_instance("mpcc")
    assert pattern.pattern_enumerate_solve(m, h).status is Status.OPTIMAL
    # the oracle's LPs (nonzero substituted costs) hit their limit; the
    # zero-cost start and witness LPs stay decided
    _inject(monkeypatch, "limit",
            lambda k, kw: kw.get("c_min") is not None and bool(np.any(kw["c_min"])))
    assert pattern.pattern_enumerate_solve(m, h).status is Status.LIMIT


def test_mpcc_local_search_flip_limit_is_reported(monkeypatch):
    # at x = 0 both neurons of relu(x) - relu(x) sit at y = s = 0, so the
    # search tries flips; when their LPs hit a limit, local optimality is unverified
    m, h = _box_model(zero_bias_counterexample(), "mpcc")
    assert pattern.mpcc_local_solve(m, h, start_pattern=set()).status is Status.FEASIBLE
    calls = _inject(monkeypatch, "limit", lambda k, kw: k > 1)
    assert pattern.mpcc_local_solve(m, h, start_pattern=set()).status is Status.LIMIT
    assert calls[0] > 1
    _inject(monkeypatch, "limit", lambda k, kw: True)
    assert pattern.mpcc_local_solve(m, h, start_pattern=set()).status is Status.LIMIT


def test_region_lp_limit_raises(monkeypatch):
    net = random_network(np.random.default_rng(2), [2, 3, 1])
    assert regions.enumerate_nonempty_patterns(net)
    _inject(monkeypatch, "limit", lambda k, kw: k == 3)
    with pytest.raises(SolverError):
        regions.enumerate_nonempty_patterns(net)
    _inject(monkeypatch, "limit", lambda k, kw: True)
    with pytest.raises(SolverError):
        regions.region_nonempty(net, set())


def test_stationarity_residual_does_not_swallow_errors(monkeypatch):
    net = random_network(np.random.default_rng(5), [2, 4, 1])
    m, h = _box_model(net, "mpcc")
    start = pattern.pattern_enumerate_solve(m, h).pattern
    res = pattern.mpcc_local_solve(m, h, start_pattern=start, net=net)
    assert res.kkt_residual <= 1e-9

    def broken(*args, **kwargs):
        raise RuntimeError("checker failed")

    monkeypatch.setattr(st, "check_strong_stationarity", broken)
    with pytest.raises(RuntimeError, match="checker failed"):
        pattern.mpcc_local_solve(m, h, start_pattern=start, net=net)
