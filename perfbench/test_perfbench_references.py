"""Each outside reference accepts a right answer and rejects a wrong one."""

import json

import numpy as np

import references as ref
import workloads
from surropt import encoders, io as sio, nn, regions
from surropt.nn import Activation, Layer, Network
from surropt.solvers import branch_bound


def small_net(seed=3, dims=(2, 3, 1)):
    return nn.random_network(np.random.default_rng(seed), list(dims))


def test_highs_converter_matches_and_point_check_flags_violations():
    net = small_net(dims=(2, 4, 1))
    m, h = workloads.pool_model(net, np.array([1.0, -0.5, 0.3]), 2, "mip")
    hm = ref.HighsModel(m)
    opt, x, bound = hm.solve()
    assert abs(bound - opt) <= ref.opt_tol(opt)
    res = branch_bound.milp_solve(m)
    assert abs(res.objective - opt) <= ref.opt_tol(opt)
    point = {v: float(x[v]) for v in range(m.num_variables)}
    assert ref.model_violation(m, point) <= ref.FEAS_TOL
    point[h.output_vars[0]] += 1e-3  # the output row no longer holds
    assert ref.model_violation(m, point) > ref.FEAS_TOL


def test_forward_pass_rejects_wrong_outputs():
    relu = Activation("relu")
    net = Network((Layer([[1.0, -1.0], [0.5, 2.0]], [0.1, -0.2], relu),
                   Layer([[1.0, 1.0]], [0.0], Activation("linear"))))
    x = np.array([0.3, 0.4])
    # hand-computed: relu(-0.1 + 0.1) + relu(0.15 + 0.8 - 0.2)
    assert ref.check_outputs(ref.layer_arrays(net), x, [0.75], "relu") == []
    assert ref.check_outputs(ref.layer_arrays(net), x, [0.75 + 1e-4], "relu")
    swish = workloads.twin(net, "swish")
    out = nn.forward(swish, x)
    assert ref.check_outputs(ref.layer_arrays(swish), x, out, "swish") == []
    assert ref.check_outputs(ref.layer_arrays(swish), x, nn.forward(net, x), "swish")


def test_region_checks_reject_missing_and_empty_patterns():
    net = small_net()
    layers = ref.layer_arrays(net)
    pats = regions.enumerate_nonempty_patterns(net)
    pts = np.random.default_rng(0).uniform(-3, 3, size=(300, 2))
    assert ref.check_regions(layers, pats, pts, 1e-6, "ok") == []
    assert len(pats) == 7  # 3 lines in general position in the plane
    missing = ref.check_regions(layers, pats[1:], pts, 1e-6, "missing")
    assert any("binomial" in e for e in missing)
    # two parallel normals: the pattern on neither side of both is empty
    par = Network((Layer([[1.0, 0.0], [1.0, 0.0]], [0.0, -1.0], Activation("relu")),
                   Layer([[1.0, 1.0]], [0.0], Activation("linear"))))
    empty = frozenset({nn.NeuronId(0, 1)})  # x > 1 but x < 0
    assert ref.region_margin(ref.layer_arrays(par), empty) < 0
    errs = ref.check_regions(ref.layer_arrays(par), [empty], pts, 1e-6, "empty")
    assert any("empty region" in e for e in errs)


def test_bounds_sidecar_rejects_a_bound_below_reachable(tmp_path):
    net = small_net(dims=(2, 4, 3, 1))
    box = (np.full(2, -1.0), np.full(2, 1.0))
    bounds = encoders.tighten_bounds(net, box)
    path = tmp_path / "b.json"
    sio.save_bounds_cache(bounds, "key", path)
    rng = np.random.default_rng(1)
    layers = ref.layer_arrays(net)
    assert ref.check_bounds_sidecar(path, layers, *box, rng, 200, "ok") == []
    doc = json.loads(path.read_text())
    loose = max(doc["neurons"], key=lambda n: n["My"])
    loose["My"] *= 0.5
    path.write_text(json.dumps(doc))
    assert ref.check_bounds_sidecar(path, layers, *box, rng, 200, "bad")


def test_pool_check_rejects_a_wrong_optimum():
    pool = workloads.Pool()
    inp = pool.generate(5, None)
    inp = {key: val[:1] for key, val in inp.items()}  # one net, one certificate
    state = {"round": 0}
    for op in pool.ops(inp):
        state[op.label] = op.fn(state)
    results = {k: v for k, v in state.items() if k != "round"}
    assert pool.check(inp, results) == []
    results["bb0"].fields["objective"] += 1e-3
    assert any("HiGHS" in e for e in pool.check(inp, results))
