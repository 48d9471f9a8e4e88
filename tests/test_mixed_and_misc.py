import json

import numpy as np
import pytest

from surropt.model import Model, fix_binaries
from surropt.nn import random_network
from surropt.problems import build_oilwell
from surropt.solvers.branch_bound import milp_solve
from surropt.solvers.pattern import mpcc_local_solve, pattern_enumerate_solve
from surropt.solvers.result import Status
from surropt.solvers.simplex import lp_solve

from test_problems import toy_oilwell


def test_unconstrained_box_lp():
    # zero-row LPs appear in first-layer bound tightening
    m = Model()
    x = m.add_variable("x", lower=-1.0, upper=3.0)
    m.set_objective("max", {x: 2.0})
    res = lp_solve(m)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(6.0)


def test_oilwell_mixed_mpcc_after_fixing():
    # fix the routing binaries: the mixed complementarity model becomes a
    # plain pattern problem the local solver accepts
    spec = toy_oilwell()
    model, handles = build_oilwell(spec, "mpcc")
    embeddings = (list(handles.well_embeddings.values())
                  + list(handles.riser_embeddings.values()))
    with pytest.raises(ValueError, match="free binary"):
        mpcc_local_solve(model, embeddings, start_pattern=frozenset())
    fixed = fix_binaries(model, {yv: 1 for yv in handles.routing.values()})
    res = mpcc_local_solve(fixed, embeddings, start_pattern=frozenset())
    assert res.status is Status.FEASIBLE
    assert res.objective == pytest.approx(5.0, abs=1e-6)
    orc = pattern_enumerate_solve(fixed, embeddings)
    assert orc.objective == pytest.approx(5.0, abs=1e-6)


def test_pattern_oracle_rejects_free_routing():
    spec = toy_oilwell()
    model, handles = build_oilwell(spec, "mpcc")
    embeddings = list(handles.well_embeddings.values())
    with pytest.raises(ValueError, match="free binary"):
        pattern_enumerate_solve(model, embeddings)


def test_milp_solutions_are_feasible_and_match_forward(rng):
    from surropt.encoders import encode_mip, interval_bounds
    from surropt.nn import forward

    for _ in range(5):
        net = random_network(rng, [2, 3, 1])
        m = Model()
        xs = [m.add_variable(f"x{j}", lower=-1.0, upper=1.0) for j in range(2)]
        h = encode_mip(m, net, xs, interval_bounds(net, ([-1.0, -1.0], [1.0, 1.0])))
        m.set_objective("max", {h.output_vars[0]: 1.0})
        res = milp_solve(m)
        assert res.status is Status.OPTIMAL
        assert m.max_violation(res.point) <= 1e-6
        zs = [h.neuron_vars[nid][2] for nid in h.hidden_ids()]
        assert all(abs(res.point[z] - round(res.point[z])) <= 1e-6 for z in zs)
        # integral solutions project onto exact network evaluations
        x_sol = np.array([res.point[v] for v in xs])
        assert res.point[h.output_vars[0]] == pytest.approx(
            forward(net, x_sol)[0], abs=1e-6)


def test_engine_mip_and_mpcc_share_the_optimum(rng):
    from surropt.nn import forward
    from surropt.problems import EngineSpec, build_engine

    net = random_network(rng, [3, 2, 3])
    grid = rng.uniform(0.0, 1.0, size=(50, 3))
    torques = np.array([forward(net, g)[2] for g in grid])
    spec = EngineSpec(net=net, horizon=2,
                      torque_profile=np.full(2, np.quantile(torques, 0.3)),
                      fuel_bounds=(0.0, 1.0), rpm_bounds=(0.0, 1.0),
                      compression_bounds=(0.0, 1.0))
    m_mip, h_mip = build_engine(spec, "mip")
    m_cc, h_cc = build_engine(spec, "mpcc")
    exact = milp_solve(m_mip)
    orc = pattern_enumerate_solve(m_cc, h_cc.embeddings)
    assert exact.status is Status.OPTIMAL and orc.status is Status.OPTIMAL
    assert exact.objective == pytest.approx(orc.objective, abs=1e-6)


def test_cli_hull_flag(tmp_path, capsys, rng):
    from surropt import io as sio
    from surropt.cli import main

    net = random_network(rng, [3, 2, 3])
    sio.save_network(net, tmp_path / "net.json")
    rows = rng.uniform(0.0, 1.0, size=(5, 3))
    lines = ["fuel,rpm,comp"] + [",".join(repr(float(v)) for v in r) for r in rows]
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    doc = {"type": "engine", "network": "net.json", "horizon": 2,
           "torque_profile": [-10.0, -10.0], "fuel_bounds": [0, 1],
           "rpm_bounds": [0, 1], "compression_bounds": [0, 1]}
    (tmp_path / "engine.json").write_text(json.dumps(doc))
    code = main(["--json", "encode", "--problem", str(tmp_path / "engine.json"),
                 "--hull", str(tmp_path / "train.csv"),
                 "-o", str(tmp_path / "hulled.lp")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    model = sio.import_lp(tmp_path / "hulled.lp")
    lams = [v for v in model.variables if "hull_lambda[" in v.name]
    assert len(lams) == 2 * 5  # K lambda variables per time step
