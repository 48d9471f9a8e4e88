import numpy as np
import pytest

from surropt.encoders import encode_mip, encode_mpcc, tighten_bounds
from surropt.model import Model
from surropt.nn import NeuronId, random_network, sign_partition
from surropt.solvers import pattern
from surropt.solvers.branch_bound import milp_solve
from surropt.solvers.pattern import (
    NoFeasibleStartError,
    mpcc_local_solve,
    pattern_enumerate_solve,
)
from surropt.solvers.result import Status

from conftest import single_neuron_net, zero_bias_counterexample

N = NeuronId


def _embedded_model(net, box_lo, box_hi, formulation, obj_terms, sense="min"):
    m = Model()
    n = net.input_dim
    xs = [m.add_variable(f"x{j}", lower=box_lo, upper=box_hi) for j in range(n)]
    if formulation == "mip":
        bounds = tighten_bounds(net, (np.full(n, box_lo), np.full(n, box_hi)))
        h = encode_mip(m, net, xs, bounds)
    else:
        h = encode_mpcc(m, net, xs)
    terms = {}
    for k, coef in obj_terms.get("out", {}).items():
        terms[h.output_vars[k]] = coef
    for j, coef in obj_terms.get("in", {}).items():
        terms[xs[j]] = coef
    m.set_objective(sense, terms)
    return m, h, xs


def test_oracle_single_neuron_min_activation():
    net = single_neuron_net()
    m, h, xs = _embedded_model(net, 0.0, 2.0, "mpcc", {"out": {0: 1.0}})
    res = pattern_enumerate_solve(m, h)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.point[xs[0]] <= 1.0 + 1e-9


def test_oracle_zero_bias_counterexample():
    net = zero_bias_counterexample()
    m, h, _ = _embedded_model(net, -1.0, 1.0, "mpcc", {"out": {0: 1.0}})
    res = pattern_enumerate_solve(m, h)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_oracle_matches_milp_random(rng):
    for _ in range(8):
        layers = [2] + [int(rng.integers(2, 4))] * int(rng.integers(1, 3)) + [1]
        net = random_network(rng, layers)
        obj = {"out": {0: float(rng.uniform(-1, 1))},
               "in": {0: float(rng.uniform(-1, 1)), 1: float(rng.uniform(-1, 1))}}
        m, h, _ = _embedded_model(net, -1.0, 1.0, "mip", obj)
        r_mip = milp_solve(m)
        r_orc = pattern_enumerate_solve(m, h)
        assert r_mip.objective == pytest.approx(r_orc.objective, abs=1e-6)


def test_oracle_cap():
    net = random_network(np.random.default_rng(0), [2, 4, 1])
    m, h, _ = _embedded_model(net, -1.0, 1.0, "mpcc", {"out": {0: 1.0}})
    with pytest.raises(ValueError):
        pattern_enumerate_solve(m, h, cap=3)


def test_local_single_region_is_global():
    # strictly active neuron everywhere on the box: one pattern, convex problem
    net = single_neuron_net(w=1.0, b=1.0)
    m, h, _ = _embedded_model(net, 0.0, 2.0, "mpcc", {"out": {0: 1.0}})
    start = sign_partition(net, [1.0]).active
    res = mpcc_local_solve(m, h, start_pattern=start, net=net)
    oracle = pattern_enumerate_solve(m, h)
    assert res.objective == pytest.approx(oracle.objective, abs=1e-9)


def test_local_from_oracle_pattern_terminates_immediately(rng):
    net = random_network(rng, [2, 3, 1])
    m, h, _ = _embedded_model(net, -1.0, 1.0, "mpcc",
                              {"out": {0: 1.0}, "in": {0: 0.3}})
    oracle = pattern_enumerate_solve(m, h)
    res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
    assert res.objective == pytest.approx(oracle.objective, abs=1e-9)


def test_local_never_beats_oracle_and_flips_verified(rng):
    for _ in range(6):
        net = random_network(rng, [2, 3, 1])
        m, h, _ = _embedded_model(net, -1.0, 1.0, "mpcc",
                                  {"out": {0: -1.0}, "in": {1: 0.2}})
        oracle = pattern_enumerate_solve(m, h)
        start = sign_partition(net, rng.uniform(-1, 1, 2)).active
        res = mpcc_local_solve(m, h, start_pattern=start, net=net)
        assert res.objective >= oracle.objective - 1e-9
        # exhaustive re-verification: no boundary flip improves
        arr = m.point_array(res.point)
        for nid in h.hidden_ids():
            y, s, _ = h.neuron_vars[nid]
            if arr[y] > 1e-7 or arr[s] > 1e-7:
                continue
            flipped = (res.pattern - {nid}) if nid in res.pattern else (res.pattern | {nid})
            try:
                res2 = mpcc_local_solve(m, h, start_pattern=flipped, max_rounds=0)
            except NoFeasibleStartError:
                continue
            assert res2.objective >= res.objective - 1e-8


def test_local_requires_start():
    net = single_neuron_net()
    m, h, _ = _embedded_model(net, 0.0, 2.0, "mpcc", {"out": {0: 1.0}})
    with pytest.raises(ValueError):
        mpcc_local_solve(m, h)


def test_local_infeasible_start_pattern():
    # neuron active requires x > 1, but the box stops at 0.5
    net = single_neuron_net()
    m, h, _ = _embedded_model(net, 0.0, 0.5, "mpcc", {"out": {0: 1.0}})
    with pytest.raises(NoFeasibleStartError):
        mpcc_local_solve(m, h, start_pattern={N(0, 0)})


def test_pattern_fixing_reproduces_mip_solution_set(rng):
    # on a 2-neuron net, every branch assignment either matches a z assignment
    # of the MIP or is infeasible in both encodings
    net = random_network(rng, [1, 2, 1])
    m_mip, h_mip, _ = _embedded_model(net, -1.0, 1.0, "mip", {"out": {0: 1.0}})
    m_cc, h_cc, _ = _embedded_model(net, -1.0, 1.0, "mpcc", {"out": {0: 1.0}})
    r1 = pattern_enumerate_solve(m_mip, h_mip)
    r2 = pattern_enumerate_solve(m_cc, h_cc)
    assert r1.objective == pytest.approx(r2.objective, abs=1e-8)


def test_point_start_derives_pattern(rng):
    net = random_network(rng, [2, 3, 1])
    m, h, xs = _embedded_model(net, -1.0, 1.0, "mpcc", {"out": {0: 1.0}})
    xv = rng.uniform(-1, 1, 2)
    from surropt.nn import forward_with_preactivations

    out, preacts = forward_with_preactivations(net, xv)
    pt = {xs[0]: xv[0], xs[1]: xv[1]}
    for li, lay in enumerate(net.hidden_layers):
        for i in range(lay.fan_out):
            y, s, _ = h.neuron_vars[N(li, i)]
            pt[y] = max(0.0, preacts[li][i])
            pt[s] = max(0.0, -preacts[li][i])
    pt[h.output_vars[0]] = out[0]
    res = mpcc_local_solve(m, h, start=pt, net=net)
    assert res.status is Status.FEASIBLE
    assert res.objective <= m.objective_value(pt) + 1e-9


def _fixed_pattern_model(model, handles, pattern):
    """The model with the pattern's branches fixed and the pairs dropped: the
    convex subproblem ``mpcc_local_solve`` ends on."""
    final = model.copy()
    for nid, (y, s, _) in handles.neuron_vars.items():
        var = final.variables[s if nid in pattern else y]
        var.lower = var.upper = 0.0
    final.complementarities = []
    return final.freeze()


def test_mpcc_local_result_equals_a_resolve_of_its_final_subproblem():
    # the duals come from the search's own last solve; a fresh solve of the
    # final subproblem must give the same result
    from surropt.solvers.simplex import lp_solve
    from test_acceptance import _instance_pool

    for net, build, d in _instance_pool():
        m, h, _ = build("mpcc")
        res = mpcc_local_solve(m, h, start_pattern=sign_partition(net, np.zeros(d)).active,
                               net=net)
        ref = lp_solve(_fixed_pattern_model(m, h, res.pattern))
        assert ref.status is Status.OPTIMAL and res.status is Status.FEASIBLE
        assert res.iterations == ref.iterations
        for key in ("objective", "dual_objective"):
            assert getattr(res, key) == pytest.approx(getattr(ref, key), abs=1e-12)
        for key in ("point", "duals", "reduced_costs"):
            got, want = getattr(res, key), getattr(ref, key)
            assert got.keys() == want.keys()
            assert max(abs(got[k] - want[k]) for k in want) <= 1e-12
        assert res.kkt_residual <= 1e-9


def test_mpcc_local_quadratic_result_equals_frank_wolfe_on_its_final_subproblem():
    from surropt.solvers.frank_wolfe import qp_frank_wolfe

    net = random_network(np.random.default_rng(3), [1, 2, 1])
    m, h, _ = _embedded_model(net, -1.0, 1.0, "mpcc", {})
    out = h.output_vars[0]
    m.set_objective("min", {out: -0.6}, quadratic=[(out, out, 1.0)])
    res = mpcc_local_solve(m, h, start_pattern=set())
    ref = qp_frank_wolfe(_fixed_pattern_model(m, h, res.pattern), tol=1e-8)
    assert ref.status is Status.OPTIMAL and res.status is Status.FEASIBLE
    assert res.objective == ref.objective and res.kkt_residual == ref.kkt_residual
    assert res.point == ref.point


def test_warm_trial_flips_change_no_decision(monkeypatch):
    # a flip's LP starts from the current subproblem's basis; every status,
    # acceptance and final answer must be those of cold flips
    from test_acceptance import _instance_pool

    rng = np.random.default_rng(11)
    runs = []
    for net, build, d in _instance_pool():
        m, h, _ = build("mpcc")
        for x0 in [np.zeros(d)] + [rng.uniform(-1, 1, d) for _ in range(3)]:
            runs.append((m, h, net, sign_partition(net, x0).active))

    def fingerprints():
        out = []
        for m, h, net, start in runs:
            res = mpcc_local_solve(m, h, start_pattern=start, net=net)
            out.append((res.status, res.nodes, res.iterations, res.objective,
                        res.pattern, res.kkt_residual))
        return out

    warm = fingerprints()
    solve = pattern.solve_relaxation

    def cold_solve(*args, basis=None, **kwargs):
        return solve(*args, **kwargs)

    monkeypatch.setattr(pattern, "solve_relaxation", cold_solve)
    assert fingerprints() == warm
    assert sum(fp[1] > 1 for fp in warm) >= 50  # searches that tried flips
