import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surropt
from surropt import cli
from surropt import io as sio
from surropt.cli import main
from surropt.nn import random_network

from conftest import single_neuron_net


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zaslavsky_command(capsys):
    code, out, _ = run(capsys, "analyze", "--zaslavsky", "3", "2")
    assert code == 0
    assert "= 7" in out
    code, out, _ = run(capsys, "--json", "analyze", "--zaslavsky", "3", "2")
    assert json.loads(out)["zaslavsky"] == 7


def test_back_to_back_calls_parse_independently(capsys, monkeypatch):
    # main() builds its parser once per process; each call parses only its argv
    calls = [("--json", "analyze", "--zaslavsky", "3", "2"),
             ("analyze", "--zaslavsky", "3", "2"),
             ("--json", "--seed", "7", "analyze", "--random-net", "2,5,1", "--regions"),
             ("analyze", "--random-net", "2,5,1", "--regions"),
             ("analyze", "--zaslavsky", "4", "2", "--json")]
    shared = [run(capsys, *argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert [run(capsys, *argv) for argv in calls] == shared
    assert all(code == 0 for code, _, _ in shared)
    assert json.loads(shared[0][1])["zaslavsky"] == 7
    assert shared[1][1] == "zaslavsky(3, 2) = 7\n"  # --json did not carry over
    assert json.loads(shared[2][1])["hidden_neurons"] == 5
    assert shared[3][1].startswith("hidden ReLU neurons: 5\n")
    assert json.loads(shared[4][1])["zaslavsky"] == 11


def test_regions_on_random_net(capsys):
    code, out, _ = run(capsys, "--json", "--seed", "7", "analyze",
                       "--random-net", "2,5,1", "--regions")
    assert code == 0
    doc = json.loads(out)
    assert doc["hidden_neurons"] == 5
    assert doc["nonempty_patterns"] >= 6


def test_seed_reproducibility(capsys):
    _, out1, _ = run(capsys, "--json", "--seed", "3", "analyze",
                     "--random-net", "2,4,1", "--regions")
    _, out2, _ = run(capsys, "--json", "--seed", "3", "analyze",
                     "--random-net", "2,4,1", "--regions")
    assert out1 == out2


def test_general_position_command(tmp_path, capsys, rng):
    net = random_network(rng, [2, 3, 1])
    netp = tmp_path / "net.json"
    sio.save_network(net, netp)
    xp = tmp_path / "x.json"
    xp.write_text(json.dumps({"x": [0.3, -0.4]}))
    code, out, _ = run(capsys, "--json", "analyze", "--net", str(netp),
                       "--general-position", str(xp))
    assert code == 0
    assert json.loads(out)["general_position"] is True


def test_stationarity_command(tmp_path, capsys):
    net = single_neuron_net()  # relu(x - 1)
    netp = tmp_path / "net.json"
    sio.save_network(net, netp)
    pt = tmp_path / "point.json"
    pt.write_text(json.dumps({"x": [1.0], "f_x": [0.0], "f_y": [1.0]}))
    code, out, _ = run(capsys, "--json", "analyze", "--net", str(netp),
                       "--stationarity", str(pt))
    assert code == 0
    doc = json.loads(out)
    assert doc["embedded"]["accepted"] is True
    assert doc["strong"]["accepted"] is True


def engine_files(tmp_path, rng, T=2):
    net = random_network(rng, [3, 2, 3])
    sio.save_network(net, tmp_path / "net.json")
    rows = rng.uniform(0.0, 1.0, size=(8, 3))
    rows[:, 2] = 0.5
    torques = np.array([__import__("surropt.nn", fromlist=["forward"]).forward(net, r)[2]
                        for r in rows])
    lines = ["fuel,rpm,comp"] + [f"{float(r[0])!r},{float(r[1])!r},{float(r[2])!r}"
                                 for r in rows]
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
    doc = {
        "type": "engine", "network": "net.json", "horizon": T,
        "torque_profile": [float(torques.max() - 1e-6)] * T,
        "fuel_bounds": [0, 1], "rpm_bounds": [0, 1],
        "compression_bounds": [0.2, 0.8],
        "training_data": "train.csv", "fixed_compression": 0.5,
    }
    spec = tmp_path / "engine.json"
    spec.write_text(json.dumps(doc))
    return spec


def test_encode_and_solve_flow(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    model_path = tmp_path / "engine.lp"
    code, out, _ = run(capsys, "--json", "encode", "--problem", str(spec),
                       "--formulation", "mip", "-o", str(model_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["binaries"] == 4  # 2 neurons x 2 steps
    assert (tmp_path / "engine.lp.bounds.json").exists()

    code, out, _ = run(capsys, "--json", "solve", "--model", str(model_path),
                       "--solver", "milp")
    assert code == 0
    direct = json.loads(out)

    code, out, _ = run(capsys, "--json", "solve", "--problem", str(spec),
                       "--formulation", "mip", "--solver", "milp",
                       "--warmstart", "auto")
    assert code == 0
    warm = json.loads(out)
    assert warm["objective"] == pytest.approx(direct["objective"], abs=1e-6)

    code, out, _ = run(capsys, "--json", "solve", "--problem", str(spec),
                       "--solver", "oracle", "--formulation", "mpcc")
    assert code == 0
    oracle = json.loads(out)
    assert oracle["objective"] == pytest.approx(direct["objective"], abs=1e-6)

    code, out, _ = run(capsys, "--json", "solve", "--problem", str(spec),
                       "--solver", "mpcc-local", "--formulation", "mpcc",
                       "--warmstart", "auto")
    assert code == 0
    local = json.loads(out)
    assert local["objective"] >= oracle["objective"] - 1e-9


def test_oracle_json_reports_its_lp_count(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    code, out, err = run(capsys, "--json", "solve", "--problem", str(spec),
                         "--solver", "oracle", "--formulation", "mpcc")
    assert code == 0, err
    assert json.loads(out)["nodes"] > 0


def test_embedded_solve_writes_trace(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "--json", "solve", "--problem", str(spec),
                       "--solver", "embedded", "--trace", str(trace))
    doc = json.loads(out)
    assert trace.exists()
    recs = sio.read_trace(trace)
    assert len(recs) == doc["iterations"]


def test_solve_json_reports_kkt_residual(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    code, out, err = run(capsys, "--json", "solve", "--problem", str(spec),
                         "--solver", "embedded")
    doc = json.loads(out)
    assert isinstance(doc["kkt_residual"], float) and doc["kkt_residual"] >= 0.0
    if doc["status"] == "Optimal":
        assert doc["kkt_residual"] <= 1e-6
    model_path = tmp_path / "engine.lp"
    run(capsys, "encode", "--problem", str(spec), "--formulation", "mip",
        "-o", str(model_path))
    code, out, err = run(capsys, "--json", "solve", "--model", str(model_path),
                         "--solver", "milp")
    assert code == 0, err
    assert json.loads(out)["kkt_residual"] is None  # B&B reports none (NaN)


def test_encode_mpcc_needs_lossy_flag(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    model_path = tmp_path / "engine_cc.lp"
    code, _, err = run(capsys, "encode", "--problem", str(spec),
                       "--formulation", "mpcc", "-o", str(model_path))
    assert code == 1
    assert "allow" in err.lower() or "lossy" in err.lower()
    code, out, _ = run(capsys, "--json", "encode", "--problem", str(spec),
                       "--formulation", "mpcc", "--allow-lossy",
                       "-o", str(model_path))
    assert code == 0
    assert json.loads(out)["complementarities"] == 4


def test_error_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "--net", str(tmp_path / "missing.json"),
                       "--regions")
    assert code == 1
    assert err.strip()


def test_invalid_log_level_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("SURROPT_LOG", "verbose")
    code, out, err = run(capsys, "analyze", "--zaslavsky", "3", "2")
    assert code == 1
    assert not out
    assert err.startswith("error: ") and "VERBOSE" in err
    monkeypatch.setenv("SURROPT_LOG", "debug")
    assert run(capsys, "analyze", "--zaslavsky", "3", "2")[0] == 0


# Runs CLI commands in one fresh interpreter and prints, as its last line,
# their exit codes and the scipy modules loaded by then.  The check cannot run
# in this process: the test modules import scipy themselves.
SCIPY_PROBE = """
import json, sys
import surropt, surropt.cli
codes = [surropt.cli.main(json.loads(argv)) for argv in sys.argv[1:]]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_fresh(tmp_path, *argvs):
    env = dict(os.environ)
    env.pop("SURROPT_LOG", None)
    src = str(Path(surropt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                           *(json.dumps(a) for a in argvs)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    *printed, probe = proc.stdout.splitlines()
    return json.loads(probe), "\n".join(printed)


def test_cli_commands_load_no_scipy(tmp_path, rng):
    spec = engine_files(tmp_path, rng)
    model_path = str(tmp_path / "engine.lp")
    doc, _ = run_fresh(
        tmp_path,
        ["--json", "encode", "--problem", str(spec), "--formulation", "mip",
         "-o", model_path],
        ["--json", "solve", "--model", model_path, "--solver", "milp"],
        ["--json", "solve", "--problem", str(spec), "--formulation", "mpcc",
         "--solver", "mpcc-local"],
        ["--json", "solve", "--problem", str(spec), "--solver", "embedded"])
    assert doc == {"codes": [0, 0, 0, 0], "scipy": []}


def test_stationarity_without_mu_imports_nnls_on_use(tmp_path):
    # relu(x - 1) at x = 2, min -x s.t. x <= 2 (active) and -x <= 5 (inactive)
    net = single_neuron_net()
    sio.save_network(net, tmp_path / "net.json")
    pt = tmp_path / "point.json"
    pt.write_text(json.dumps({"x": [2.0], "f_x": [-1.0], "f_y": [0.0],
                              "C_x": [[1.0], [-1.0]], "C_y": [[0.0], [0.0]],
                              "d": [2.0, 5.0]}))
    doc, printed = run_fresh(tmp_path, ["--json", "analyze", "--net",
                                        str(tmp_path / "net.json"),
                                        "--stationarity", str(pt)])
    assert doc["codes"] == [0]
    assert "scipy.optimize" in doc["scipy"]
    cert = json.loads(printed)["embedded"]
    assert cert["estimated_mu"] and cert["accepted"]
    assert cert["mu"] == pytest.approx([1.0, 0.0])


def test_solve_mpcc_local_without_warmstart(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    code, out, err = run(capsys, "--json", "solve", "--problem", str(spec),
                         "--solver", "mpcc-local", "--formulation", "mpcc")
    assert code == 0, err
    assert json.loads(out)["status"] in ("Feasible", "Optimal")


def test_solve_warmstart_from_point_file(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    code, out, _ = run(capsys, "--json", "solve", "--problem", str(spec),
                       "--formulation", "mip", "--solver", "milp")
    base = json.loads(out)
    # derive a point file from the auto warmstart machinery
    bundle = sio.load_problem_spec(spec)
    from surropt.problems import build_engine, warmstart_engine
    from surropt.encoders import interval_bounds

    model, handles = build_engine(
        bundle.spec, "mip",
        bounds=interval_bounds(bundle.spec.net, bundle.spec.input_box()))
    ws = warmstart_engine(bundle.spec, model, handles, bundle.training_inputs,
                          bundle.fixed_compression)
    pt = tmp_path / "start.json"
    pt.write_text(json.dumps({str(k): v for k, v in ws.point.items()}))
    code, out, err = run(capsys, "--json", "solve", "--problem", str(spec),
                         "--formulation", "mip", "--solver", "milp",
                         "--warmstart", str(pt))
    assert code == 0, err
    assert json.loads(out)["objective"] == pytest.approx(base["objective"], abs=1e-6)


def strict_json(text):
    """json.loads that refuses the non-standard NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_json_maps_infinite_values_to_null(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    model_path = tmp_path / "engine.lp"
    run(capsys, "encode", "--problem", str(spec), "--formulation", "mip",
        "-o", str(model_path))
    # B&B stopped before its root: no bound yet (-inf), and no objective (NaN)
    code, out, _ = run(capsys, "--json", "solve", "--model", str(model_path),
                       "--solver", "milp", "--time-limit", "0")
    doc = strict_json(out)
    assert doc["best_bound"] is None and doc["objective"] is None
    # an embedded solve with no iteration has an infinite measure
    code, out, _ = run(capsys, "--json", "solve", "--problem", str(spec),
                       "--solver", "embedded", "--max-iter", "0")
    doc = strict_json(out)
    assert code == 1 and doc["iterations"] == 0 and doc["kkt_residual"] is None


def test_embedded_tolerance_must_be_positive(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    code, out, err = run(capsys, "solve", "--problem", str(spec), "--solver", "embedded",
                         "--tol", "-1")
    assert code == 1 and not out
    assert err.startswith("error: tol must be finite and > 0")


@pytest.mark.parametrize("argv", [
    ["--solver", "oracle", "--formulation", "mpcc"],
    ["--solver", "embedded"],
])
def test_warmstart_is_refused_by_solvers_that_drop_it(tmp_path, capsys, rng, argv):
    spec = engine_files(tmp_path, rng)
    with pytest.raises(SystemExit, match="--warmstart applies to --solver milp and "
                                         "mpcc-local on --problem"):
        run(capsys, "solve", "--problem", str(spec), "--warmstart", "auto", *argv)


def test_warmstart_is_refused_with_an_lp_file(tmp_path, capsys, rng):
    spec = engine_files(tmp_path, rng)
    model_path = tmp_path / "engine.lp"
    run(capsys, "encode", "--problem", str(spec), "--formulation", "mip",
        "-o", str(model_path))
    point = tmp_path / "start.json"
    point.write_text(json.dumps({"0": 0.5}))
    with pytest.raises(SystemExit, match="--warmstart applies to --solver milp and "
                                         "mpcc-local on --problem"):
        run(capsys, "solve", "--model", str(model_path), "--solver", "milp",
            "--warmstart", str(point))
