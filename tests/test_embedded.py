import itertools
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surropt.nn import (
    Activation,
    Layer,
    Network,
    NeuronId,
    affine_piece,
    forward,
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
    _damped_bfgs,
    _dnn_jacobian,
    embedded_solve,
)
from surropt.solvers.result import Status

from conftest import LIN, RELU, absolute_value_net, assert_same_bits


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


def swish_descent(seed):
    """min y + 0.5 ||x - x0||^2 over [-2, 2]^4 on a swish [4, 12, 1] net, with
    no constraints and no kinks."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, [4, 12, 1], "swish")
    x0 = rng.uniform(-1.0, 1.0, 4)
    obj = SmoothObjective(
        value=lambda y, x: float(y[0] + 0.5 * (x - x0) @ (x - x0)),
        grad_x=lambda y, x: x - x0,
        grad_y=lambda y, x: np.ones(1),
    )
    return net, obj, BoxRegion(-2.0 * np.ones(4), 2.0 * np.ones(4))


# --- ReLU kinks: the min-norm element of the hull of the piece gradients ---


def seeded_instance(seed, dims, kind="relu"):
    """min y + 0.5 ||x - x0||^2 s.t. a @ x <= 0.2 over [-1, 1]^n, drawn from the seed."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, dims, kind)
    x0 = rng.uniform(-0.5, 0.5, dims[0])
    a = rng.uniform(-1.0, 1.0, dims[0])
    obj = SmoothObjective(
        value=lambda y, x: float(y[0] + 0.5 * (x - x0) @ (x - x0)),
        grad_x=lambda y, x: x - x0,
        grad_y=lambda y, x: np.ones(1),
    )
    cons = SmoothConstraints(
        value=lambda y, x: np.array([a @ x - 0.2]),
        jac_x=lambda y, x: a[None, :],
        jac_y=lambda y, x: np.zeros((1, 1)),
    )
    n = dims[0]
    return (net, obj, BoxRegion(-np.ones(n), np.ones(n))), dict(constraints=cons, start=x0)


def nnls_min_norm(P):
    """Min-norm point of conv(rows of P) from nnls: min ||E u - e|| over u >= 0 with
    E = [P^T; 1^T] puts u / sum(u) at the min-norm weights."""
    from scipy.optimize import nnls

    P = np.asarray(P, dtype=float)
    E = np.vstack([P.T, np.ones(P.shape[0])])
    e = np.zeros(E.shape[0])
    e[-1] = 1.0
    u, _ = nnls(E, e)
    return (u @ P) / u.sum()


def count_kink_iterates(monkeypatch):
    """Wrap the kink helper; the list counts the iterates at which it fired."""
    hits = []
    real = embedded._kink_pieces

    def counting(*a):
        out = real(*a)
        if out is not None:
            hits.append(out[1])
        return out

    monkeypatch.setattr(embedded, "_kink_pieces", counting)
    return hits


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_min_norm_point_matches_nnls(m, n, seed, shifted):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(m, n))
    if shifted:  # a hull far from the origin, or one that holds it
        P += rng.choice([0.0, 3.0]) * rng.normal(size=n)
    if m > 2 and seed % 3 == 0:  # repeated and affinely dependent rows
        P[-1] = P[0]
        P[-2] = 0.5 * (P[0] + P[1])
    z, weights = embedded.min_norm_point(P)
    assert np.all(weights >= 0.0) and weights.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(weights @ P, z, atol=1e-12)
    ref = nnls_min_norm(P)
    scale = max(1.0, float(np.abs(P).max()))
    assert np.linalg.norm(z) <= np.linalg.norm(ref) + 1e-9 * scale
    np.testing.assert_allclose(z, ref, atol=1e-6 * scale)


def test_kink_stall_ends_early_at_a_clarke_stationary_point(monkeypatch):
    # with the single-vertex gradient alone this solve stalls at a kink for
    # the whole 3,000-iteration budget
    hits = count_kink_iterates(monkeypatch)
    args, kwargs = seeded_instance(2, [2, 6, 6, 1])
    res, trace = embedded_solve(*args, **kwargs)
    assert res.status is Status.STALLED
    assert res.iterations < 100 and hits
    assert res.kkt_residual <= embedded.DEFAULT_TOL
    assert trace[-1].dual_infeasibility > embedded.DEFAULT_TOL  # the vertex alone
    assert res.objective < -1.1150
    net, obj = args[0], args[1]
    x = np.array([res.point[j] for j in range(2)])
    assert np.all(np.abs(x) < 0.99)  # inside the box
    a = kwargs["constraints"].jac_x(None, x)[0]
    assert a @ x - 0.2 < -0.1  # the constraint is slack: the gradient is f's
    # every pattern of the near-kink neurons, from affine pieces
    part = sign_partition(net, x, embedded.KINK_RADIUS)
    assert 1 <= len(part.degenerate) <= embedded.KINK_CAP
    y = forward(net, x)
    gx, gy = obj.grad_x(y, x), obj.grad_y(y, x)
    deg = sorted(part.degenerate)
    pieces = []
    for bits in range(2 ** len(deg)):
        on = {nid for i, nid in enumerate(deg) if bits >> i & 1}
        J = affine_piece(net, part.active | on)[0]
        pieces.append(gx + J.T @ gy)
    assert np.abs(nnls_min_norm(pieces)).max() <= embedded.DEFAULT_TOL


def test_kink_stop_is_logged_at_debug(caplog):
    args, kwargs = seeded_instance(2, [2, 6, 6, 1])
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, _ = embedded_solve(*args, **kwargs)
    pattern = r"kink stop at iteration (\d+): k=(\d+) pieces=(\d+) measure=(\S+)"
    stops = [m for m in (re.fullmatch(pattern, r.getMessage()) for r in caplog.records) if m]
    assert len(stops) == 1
    it, k, pieces, measure = stops[0].groups()
    assert int(it) == res.iterations - 1
    assert int(pieces) == 2 ** int(k) and 1 <= int(k) <= embedded.KINK_CAP
    assert float(measure) == pytest.approx(res.kkt_residual, rel=1e-3)


@pytest.mark.parametrize("kind", ["relu", "swish"])
def test_hull_helper_is_idle_off_kinks(monkeypatch, kind):
    args, kwargs = seeded_instance(3, [3, 12, 1], kind)
    hits = count_kink_iterates(monkeypatch)
    res, trace = embedded_solve(*args, **kwargs)
    assert res.status is Status.OPTIMAL and not hits
    monkeypatch.setattr(embedded, "_kink_pieces", lambda *a: None)
    res_off, trace_off = embedded_solve(*args, **kwargs)
    for field in ("status", "point", "objective", "iterations", "kkt_residual"):
        assert getattr(res_off, field) == getattr(res, field)
    assert trace_off == trace


# Solves seeded_instance(2, [2, 6, 6, 1]) in a fresh interpreter and prints, as
# its last line, the kink iterates it took and the scipy modules loaded by then.
# The check cannot run in this process: the test modules import scipy.
NO_SCIPY_PROBE = """
import json, sys
import numpy as np
from surropt.nn import random_network
from surropt.solvers import embedded
from surropt.solvers.embedded import BoxRegion, SmoothConstraints, SmoothObjective
hits = []
real = embedded._kink_pieces
def counting(*a):
    out = real(*a)
    hits.append(out is not None)
    return out
embedded._kink_pieces = counting
rng = np.random.default_rng(2)
net = random_network(rng, [2, 6, 6, 1])
x0 = rng.uniform(-0.5, 0.5, 2)
a = rng.uniform(-1.0, 1.0, 2)
obj = SmoothObjective(value=lambda y, x: float(y[0] + 0.5 * (x - x0) @ (x - x0)),
                      grad_x=lambda y, x: x - x0, grad_y=lambda y, x: np.ones(1))
cons = SmoothConstraints(value=lambda y, x: np.array([a @ x - 0.2]),
                         jac_x=lambda y, x: a[None, :], jac_y=lambda y, x: np.zeros((1, 1)))
res, _ = embedded.embedded_solve(net, obj, BoxRegion(-np.ones(2), np.ones(2)),
                                 constraints=cons, start=x0)
print(json.dumps({"status": res.status.value, "kink_iterates": sum(hits),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_hull_steps_load_no_scipy():
    env = dict(os.environ)
    src = str(Path(embedded.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["status"] == "Stalled" and doc["kink_iterates"] > 0
    assert doc["scipy"] == []


def member_six_attack(seed):
    """A [16, 16, 4] ReLU classifier with every weight and bias moved by up to
    0.002, and min ||z - image||^2 s.t. the least-scoring label wins by a 1.2
    odds ratio, z in [0, 1]^16."""
    frng = np.random.default_rng([20211118, 6])
    base = random_network(frng, [16, 16, 4])
    srng = np.random.default_rng([seed, 1])
    net = Network(tuple(
        Layer(l.weights + srng.uniform(-0.002, 0.002, l.weights.shape),
              l.bias + srng.uniform(-0.002, 0.002, l.bias.shape), l.activation)
        for l in base.layers))
    image = frng.uniform(0.2, 0.8, 16)
    label = int(np.argmin(forward_with_preactivations(net, image)[0]))
    rows = [i for i in range(4) if i != label]
    Cy = np.zeros((3, 4))
    Cy[np.arange(3), rows] = 1.0
    Cy[:, label] = -1.0
    obj = SmoothObjective(
        value=lambda y, x: float((x - image) @ (x - image)),
        grad_x=lambda y, x: 2.0 * (x - image),
        grad_y=lambda y, x: np.zeros(4),
    )
    cons = SmoothConstraints(
        value=lambda y, x: Cy @ y + np.log(1.2),
        jac_x=lambda y, x: np.zeros((3, 16)),
        jac_y=lambda y, x: Cy,
    )
    return (net, obj, BoxRegion(np.zeros(16), np.ones(16))), dict(constraints=cons,
                                                                   start=image.copy())


# --- the SQP loop: the merit, its penalty and the ends of a solve ---


def penalty_updates(caplog):
    """The penalty raises ({row: pi}) and resets ({rows}) logged at DEBUG."""
    raises, resets = {}, set()
    for r in caplog.records:
        m = re.fullmatch(r"penalty raise at iteration (\d+): pi=(\S+)", r.getMessage())
        if m:
            raises[int(m.group(1))] = float(m.group(2))
        m = re.match(r"penalty reset at iteration (\d+)", r.getMessage())
        if m:
            resets.add(int(m.group(1)))
    return raises, resets


def merit(trace_row, pi):
    """f + pi * max(0, c) of a row of a one-constraint solve."""
    return trace_row.objective + pi * trace_row.primal_infeasibility


def assert_merit_never_rises(merit_at, rows, caplog):
    """merit_at(r, pi), the merit of row r, does not rise from a row to the
    next under the penalty of the step between them, but on a penalty reset's
    step.  Returns the raises and resets."""
    raises, resets = penalty_updates(caplog)
    pi = 0.0
    for r in range(rows - 1):
        pi = 0.0 if r in resets else raises.get(r, pi)
        if r not in resets:
            assert merit_at(r + 1, pi) <= merit_at(r, pi) + 1e-12, r
    return raises, resets


def qp_rows(monkeypatch, caplog, args, kwargs):
    """Solve with the QPs, the kink tests, the hull elements, the trace rows
    and the trial points recorded in call order, the log at DEBUG.  Returns
    the result and per trace row a dict: x, B and d (the row's QP model and
    step), kink (the row sits at a kink), v (the last hull element taken) and
    trials (the trial points of the row's searches, in order)."""
    net, obj, region = args
    events = []

    def grad_x(y, x):
        events.append(("x", x.copy(), None))
        return obj.grad_x(y, x)

    def tap(name, arg):
        fn = getattr(embedded, name)

        def tapped(*a, **k):
            out = fn(*a, **k)
            events.append((name, out if arg is None else np.array(a[arg], dtype=float), a))
            return out
        monkeypatch.setattr(embedded, name, tapped)

    for name in ("solve_qp", "_kink_pieces", "min_norm_point", "TraceRecord"):
        tap(name, None)
    tap("forward_with_preactivations", 1)
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, _ = embedded_solve(net, SmoothObjective(obj.value, grad_x, obj.grad_y), region,
                                **kwargs)
    # the row's QP comes just before its trace row; a kink row's face QP after
    rows, x = [], None
    for i, (name, out, a) in enumerate(events):
        if name == "x":
            x = out
        elif name == "solve_qp" and events[i + 1][0] == "TraceRecord":
            rows.append(dict(x=x, B=np.array(a[0]), d=np.zeros(x.size) if out is None else out.x,
                             kink=False, v=None, trials=[]))
        elif name == "_kink_pieces" and rows:
            rows[-1]["kink"] |= out is not None
        elif name == "min_norm_point" and rows:
            rows[-1]["v"] = out[0]
        elif name == "forward_with_preactivations" and rows:
            rows[-1]["trials"].append(out)
    return res, rows


def qp_trials(row, region):
    """How many of the row's first trials are the QP step's search, x + t d
    clipped to the box for t = 1, 1/2, ..."""
    x, d, k = row["x"], row["d"], 0
    while k < len(row["trials"]) and np.array_equal(
            row["trials"][k], np.minimum(np.maximum(x + 0.5 ** k * d, region.lower),
                                         region.upper)):
        k += 1
    return k


def spg_initial_step(dual):
    """SPG's initial step 1 / |x - P(x - v)| (Birgin, Martinez & Raydan 2000)."""
    return min(max(1.0 / dual, 1e-12), 1e8) if dual > 0.0 else 1.0


@pytest.mark.parametrize("seed, dims", [(11, [3, 12, 1]), (3, [4, 12, 1]), (34, [4, 12, 1])],
                         ids=["11-3-12-1", "3-4-12-1", "34-4-12-1"])
def test_merit_does_not_increase_between_penalty_raises(caplog, seed, dims):
    # each solve violates its constraint on the way and raises its penalty
    # more than once
    args, kwargs = seeded_instance(seed, dims)
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, trace = embedded_solve(*args, **kwargs)
    raises, _ = assert_merit_never_rises(lambda r, pi: merit(trace[r], pi), len(trace), caplog)
    assert len(raises) >= 2
    assert max(t.primal_infeasibility for t in trace) > embedded.DEFAULT_TOL


# the augmented-Lagrangian loop ended these attacks Stalled at a feasible kink
# point, at these objectives; the values are that loop's and stay fixed
@pytest.mark.parametrize("seed, value", [(9, 0.2942447509703291),
                                         (10, 0.29429727963382246),
                                         (17, 0.29406762315464985)])
def test_constrained_line_search_is_monotone_until_the_first_update(monkeypatch, caplog,
                                                                    seed, value):
    # each attack starts infeasible and raises its penalty several times: the
    # merit f + pi * sum(max(0, c)) never rises until pi's next update, a
    # penalty reset's step aside, and the solve ends below the loop's stall
    args, kwargs = member_six_attack(seed)
    net, obj, cons = args[0], args[1], kwargs["constraints"]
    res, rows = qp_rows(monkeypatch, caplog, args, kwargs)

    def merit_at(r, pi):
        x = rows[r]["x"]
        y = forward(net, x)
        return obj.value(y, x) + pi * float(np.maximum(cons.value(y, x), 0.0).sum())

    raises, _ = assert_merit_never_rises(merit_at, len(rows), caplog)
    assert len(raises) >= 2
    assert res.status is Status.OPTIMAL
    assert res.objective < value


def test_budget_exit_returns_the_lowest_point_of_the_last_inner_solve(caplog):
    # between two penalty raises the solve minimizes one merit, its inner
    # solve: a budget exit returns the lowest-merit iterate since the last raise
    args, kwargs = seeded_instance(11, [3, 12, 1])
    net, obj = args[0], args[1]
    cons = kwargs["constraints"]
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, trace = embedded_solve(*args, max_iter=6, **kwargs)
    raises, resets = penalty_updates(caplog)
    last = max(raises)
    assert res.iterations == 6 and not resets and last < 5
    x = np.array([res.point[j] for j in range(3)])
    y = forward(net, x)
    c = max(0.0, float(cons.value(y, x)[0]))
    assert res.objective == obj.value(y, x)
    assert res.objective + raises[last] * c <= min(merit(t, raises[last]) for t in trace[last:])
    assert res.status is (Status.STALLED if c <= embedded.DEFAULT_TOL else Status.LIMIT)


def test_outer_updates_are_logged_at_debug(caplog):
    # the outer updates are the penalty's raises and resets; this attack's linearized constraints become inconsistent in a locally
    # infeasible basin, which the solve leaves by a penalty reset
    args, kwargs = member_six_attack(60)
    with caplog.at_level(logging.INFO, logger=embedded.__name__):
        embedded_solve(*args, **kwargs)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, _ = embedded_solve(*args, **kwargs)
    assert res.status is Status.OPTIMAL
    patterns = {"raise": r"penalty raise at iteration (\d+): pi=\S+",
                "relaxed": r"relaxed QP at iteration (\d+): xi=\S+",
                "reset": r"penalty reset at iteration (\d+): full step from an infeasible stall"}
    seen = {kind: [] for kind in patterns}
    for r in caplog.records:
        kinds = [k for k, p in patterns.items() if re.fullmatch(p, r.getMessage())]
        assert len(kinds) == 1, r.getMessage()
        seen[kinds[0]].append(int(re.fullmatch(patterns[kinds[0]], r.getMessage()).group(1)))
    for its in seen.values():
        assert its and its == sorted(its) and its[-1] < res.iterations
    # the reset follows the relaxed QPs, and a raise follows the reset
    assert seen["relaxed"][0] < seen["reset"][0] < seen["raise"][-1]


def test_zero_step_with_no_state_change_ends_at_once(caplog):
    # 1 + DNN(x)^2 <= 0 has no solution, and at x = 0 neither the violation
    # nor f = 0.5 x^2 can fall: the relaxed QP's step is 0 and nothing changes
    obj = SmoothObjective(value=lambda y, x: 0.5 * float(x @ x), grad_x=lambda y, x: x.copy(),
                          grad_y=lambda y, x: np.zeros(1))
    cons = SmoothConstraints(value=lambda y, x: np.array([1.0 + y[0] ** 2]),
                             jac_x=lambda y, x: np.zeros((1, 1)),
                             jac_y=lambda y, x: np.array([[2.0 * y[0]]]))
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, trace = embedded_solve(linear_net(), obj, BoxRegion([-1.0], [1.0]),
                                    constraints=cons, start=[0.0])
    assert res.status is Status.LIMIT
    assert res.iterations == len(trace) == 1
    assert res.point == {0: 0.0} and trace[0].primal_infeasibility == 1.0
    assert any(r.getMessage().startswith("relaxed QP at iteration 0: xi=1.000e+00")
               for r in caplog.records)


def test_first_step_is_spg_initial_step(monkeypatch):
    # f = |x1| + 0.5 x1 + 0.1 x2 from the kink (0, 0): the QP step follows the
    # piece with both neurons off, (-0.5, -0.1), along which f climbs; the
    # hull of the three pieces' gradients has min-norm element v = (0, 0.1),
    # and the first step along it is SPG's initial step
    net = Network((Layer([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], RELU),
                   Layer([[1.0, 1.0]], [0.0], LIN)))
    obj = SmoothObjective(value=lambda y, x: float(y[0] + 0.5 * x[0] + 0.1 * x[1]),
                          grad_x=lambda y, x: np.array([0.5, 0.1]),
                          grad_y=lambda y, x: np.ones(1))
    trials, hull = [], []
    real, mnp = embedded.forward_with_preactivations, embedded.min_norm_point

    def recording(net, x):
        trials.append(np.array(x, dtype=float))
        return real(net, x)

    def hull_element(P):
        out = mnp(P)
        hull.append(out[0])
        return out

    monkeypatch.setattr(embedded, "forward_with_preactivations", recording)
    monkeypatch.setattr(embedded, "min_norm_point", hull_element)
    box = BoxRegion([-1.0, -1.0], [1.0, 1.0])
    res, trace = embedded_solve(net, obj, box, start=[0.0, 0.0])
    qp = [p for p in trials[1:] if p[0] != 0.0]
    assert qp and all(p[0] < 0.0 and p[1] == pytest.approx(0.2 * p[0], rel=1e-12) for p in qp)
    # the first trial after the QP's: x - t v, projected onto the box, with
    # t = 1 / |x - P(x - v)|
    v = hull[0]
    assert v == pytest.approx([0.0, 0.1], abs=1e-12)
    x = np.zeros(2)
    dual = float(np.abs(x - box.project(x - v)).max())
    assert_same_bits(trials[1 + len(qp)], box.project(x - spg_initial_step(dual) * v))
    assert res.status is Status.STALLED
    assert res.point == {0: 0.0, 1: -1.0} and res.objective == pytest.approx(-0.1)
    assert trace[0].dual_infeasibility > embedded.DEFAULT_TOL


# member_six_attack(2) raises its penalty and fails a search at a kink;
# seeded_instance(12, [2, 8, 1]) fails a search at a kink with no raise
@pytest.mark.parametrize("instance, stepped_after", [
    (lambda: member_six_attack(2), {"raise", "failed search"}),
    (lambda: seeded_instance(12, [2, 8, 1]), {"failed search"}),
], ids=["member_six_attack-2", "seeded_instance-12"])
def test_step_restarts_at_the_start_after_penalty_raises_and_failed_searches(
        monkeypatch, caplog, instance, stepped_after):
    # every search of a QP step starts from the full step, t = 1; only at a
    # kink may a row's first trial be another search's
    args, kwargs = instance()
    _, rows = qp_rows(monkeypatch, caplog, args, kwargs)
    raises, _ = penalty_updates(caplog)
    seen, failed = set(), False
    for r, row in enumerate(rows):
        if row["trials"]:
            full = qp_trials(row, args[2]) > 0
            assert full or row["kink"], r
            if full and r in raises:
                seen.add("raise")
            if full and failed:
                seen.add("failed search")
        failed = r + 1 < len(rows) and np.array_equal(rows[r + 1]["x"], row["x"])
    assert stepped_after <= seen


# the swish seeded_instance(3, [3, 12, 1]) takes quasi-Newton steps from its
# start on; the ReLU instances step from kink iterates, and member_six_attack(2)
# fails a search at one
@pytest.mark.parametrize("instance, fresh_after", [
    (lambda: member_six_attack(2), {"start", "failed search", "kink"}),
    (lambda: seeded_instance(3, [3, 12, 1], "swish"), {"start"}),
    (lambda: seeded_instance(2, [2, 6, 6, 1]), {"start", "kink"}),
], ids=["member_six_attack-2", "seeded_instance-3-swish", "seeded_instance-2"])
def test_first_step_of_each_inner_solve_and_after_a_kink_is_spg(
        monkeypatch, caplog, instance, fresh_after):
    # the BFGS model starts as the identity, at the start and after a failed
    # search, so that QP's step is the projected gradient step of the
    # linearized problem; after a failed QP search at a kink the first trial
    # is SPG's initial step along -v, v the min-norm hull element
    args, kwargs = instance()
    region = args[2]
    _, rows = qp_rows(monkeypatch, caplog, args, kwargs)
    eye = np.eye(rows[0]["x"].size)
    seen, quasi_newton = set(), 0
    fresh = "start"  # why B is the identity at this row, or None
    for r, row in enumerate(rows):
        x = row["x"]
        if fresh:
            assert np.array_equal(row["B"], eye), (r, fresh)
            seen.add(fresh)
        elif not np.array_equal(row["B"], eye):
            quasi_newton += 1
        k = qp_trials(row, region)
        if row["kink"] and k < len(row["trials"]):
            v = row["v"]
            dual = float(np.abs(x - region.project(x - v)).max())
            assert_same_bits(row["trials"][k], region.project(x - spg_initial_step(dual) * v))
            seen.add("kink")
        failed = r + 1 < len(rows) and np.array_equal(rows[r + 1]["x"], x)
        fresh = "failed search" if failed else None
    assert fresh_after <= seen and quasi_newton > 0


# the seeds of a FOUND note: each ran the whole 3,000-iteration budget to
# Stalled under the augmented-Lagrangian loop, at these objectives
@pytest.mark.parametrize("seed, dims, before", [
    (0, [3, 12, 1], -1.469870778660686),
    (13, [4, 12, 1], -1.4433890370546412),
    (77, [4, 12, 1], -0.4679501808908122),
    (91, [4, 12, 1], -1.1013840215231054),
    (61, [3, 8, 8, 1], -0.9672104345766134),
], ids=["0-3-12-1", "13-4-12-1", "77-4-12-1", "91-4-12-1", "61-3-8-8-1"])
def test_frozen_loop_seeds_end_early(seed, dims, before):
    args, kwargs = seeded_instance(seed, dims)
    res, trace = embedded_solve(*args, **kwargs)
    assert res.iterations <= 300
    assert res.objective <= before + 1e-7
    assert trace[-1].primal_infeasibility <= embedded.DEFAULT_TOL


@pytest.mark.parametrize("seed", [2, 5, 9])
def test_polytope_network_objective_matches_slsqp(seed):
    # min DNN(x) + |x - x0|^2 over {A x <= b} in a box, a swish net: the first
    # row cuts off the unconstrained minimizer z, so the optimum lies on its face
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    net = random_network(rng, [3, 8, 1], "swish")
    x0 = rng.uniform(-1.0, 1.0, 3)
    obj = SmoothObjective(value=lambda y, x: float(y[0] + (x - x0) @ (x - x0)),
                          grad_x=lambda y, x: 2.0 * (x - x0), grad_y=lambda y, x: np.ones(1))

    def f(x):
        return obj.value(forward(net, x), x)

    def grad(x):
        return obj.grad_x(None, x) + jacobian(net, x)[0]

    z = minimize(f, x0, jac=grad, method="BFGS", options=dict(gtol=1e-12)).x
    A = rng.normal(size=(2, 3))
    A[0] *= np.sign(A[0] @ z) or 1.0
    b = np.array([0.5 * A[0] @ z, abs(A[1] @ z) + 1.0])
    lower, upper = -2.0 * np.ones(3), 2.0 * np.ones(3)
    res, trace = embedded_solve(net, obj, PolytopeRegion(A, b, lower, upper), start=np.zeros(3))
    assert res.status is Status.OPTIMAL
    assert trace[-1].dual_infeasibility <= 1e-6
    x = np.array([res.point[j] for j in range(3)])
    assert A[0] @ x - b[0] == pytest.approx(0.0, abs=1e-9)
    ref = minimize(f, np.zeros(3), jac=grad, method="SLSQP", bounds=list(zip(lower, upper)),
                   constraints=[dict(type="ineq", fun=lambda x: b - A @ x, jac=lambda x: -A)],
                   options=dict(ftol=1e-15, maxiter=500))
    assert ref.status == 0
    np.testing.assert_allclose(x, ref.x, rtol=0.0, atol=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_box_least_squares_matches_lsq_linear(n, seed):
    # min 0.5 |A x - b|^2 over a box, the net's output ignored: the optimum
    # sits on some faces, which the QP holds as bounds
    from scipy.optimize import lsq_linear

    rng = np.random.default_rng(seed)
    A = np.vstack([rng.normal(size=(n + 2, n)), np.eye(n)])  # singular values >= 1
    b = A @ rng.normal(0.0, 2.0, n)
    lower, upper = rng.uniform(-1.5, 0.0, n), rng.uniform(0.0, 1.5, n)
    lower[rng.random(n) < 0.2] = -np.inf
    upper[rng.random(n) < 0.2] = np.inf
    obj = SmoothObjective(value=lambda y, x: 0.5 * float((A @ x - b) @ (A @ x - b)),
                          grad_x=lambda y, x: A.T @ (A @ x - b),
                          grad_y=lambda y, x: np.zeros(1))
    net = random_network(rng, [n, 4, 1], "swish")
    res, _ = embedded_solve(net, obj, BoxRegion(lower, upper),
                            start=rng.uniform(-1.0, 1.0, n))
    assert res.status is Status.OPTIMAL
    ref = lsq_linear(A, b, bounds=(lower, upper), method="bvls", tol=1e-12)
    x = np.array([res.point[j] for j in range(n)])
    np.testing.assert_allclose(x, ref.x, rtol=0.0, atol=1e-5)


def exact_qp(M, c, G, h):
    """argmin 0.5 |M x - c|^2 s.t. G x <= h for M of full column rank: the
    first set of faces whose equality-constrained optimum is feasible with
    nonnegative multipliers (the KKT point, unique for a strictly convex
    objective)."""
    Q, q, n = M.T @ M, M.T @ c, M.shape[1]
    for k in range(n + 1):
        for S in map(list, itertools.combinations(range(len(G)), k)):
            K = np.block([[Q, G[S].T], [G[S], np.zeros((k, k))]])
            if np.linalg.matrix_rank(K) < n + k:
                continue
            sol = np.linalg.solve(K, np.concatenate([q, h[S]]))
            if (G @ sol[:n] - h <= 1e-9).all() and (sol[n:] >= -1e-9).all():
                return sol[:n]
    raise AssertionError("no KKT point")


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_polytope_least_squares_matches_the_exact_qp(n, m, boxed, seed):
    # min 0.5 |M x - c|^2 over {A x <= b} or its intersection with a box,
    # with the unconstrained minimizer z cut off by the first row of A: the
    # optimum lies on a face of A x <= b, which the QP carries as a row
    # (scipy's SLSQP and trust-constr miss this optimum by up to 4e-5
    # on such draws, so the reference enumerates the active faces)
    rng = np.random.default_rng(seed)
    M = np.vstack([rng.normal(size=(n + 2, n)), np.eye(n)])  # singular values >= 1
    z = rng.normal(0.0, 2.0, n)
    c = M @ z
    lower, upper = (-3.0 - rng.random(n), 3.0 + rng.random(n)) if boxed else (
        np.full(n, -np.inf), np.full(n, np.inf))
    inside = np.clip(rng.normal(0.0, 0.5, n), lower + 0.5, upper - 0.5)
    A = rng.normal(size=(m, n))
    A[0] *= np.sign(A[0] @ (z - inside)) or 1.0
    b = A @ inside + rng.uniform(0.1, 1.0, m)
    b[0] = A[0] @ inside + rng.uniform(0.1, 0.9) * (A[0] @ (z - inside))
    obj = SmoothObjective(value=lambda y, x: 0.5 * float((M @ x - c) @ (M @ x - c)),
                          grad_x=lambda y, x: M.T @ (M @ x - c),
                          grad_y=lambda y, x: np.zeros(1))
    net = random_network(rng, [n, 4, 1], "swish")
    res, _ = embedded_solve(net, obj, PolytopeRegion(A, b, lower, upper),
                            start=rng.uniform(-1.0, 1.0, n))
    assert res.status is Status.OPTIMAL
    faces = np.isfinite(upper), np.isfinite(lower)
    G = np.vstack([A, np.eye(n)[faces[0]], -np.eye(n)[faces[1]]])
    h = np.concatenate([b, upper[faces[0]], -lower[faces[1]]])
    x = np.array([res.point[j] for j in range(n)])
    np.testing.assert_allclose(x, exact_qp(M, c, G, h), rtol=0.0, atol=1e-5)


def test_member_six_attack_sweep():
    # 300 jittered [16, 16, 4] attacks: a Stalled end would be a kink local
    # minimum near 0.29; many solves pass through a locally infeasible basin
    # near 0.25, which a penalty reset leaves
    status = {s: 0 for s in Status}
    for seed in range(1, 301):
        args, kwargs = member_six_attack(seed)
        res, _ = embedded_solve(*args, **kwargs)
        status[res.status] += 1
        assert res.status is not Status.STALLED or res.objective <= 0.30, seed
    assert status[Status.OPTIMAL] >= 300 and status[Status.LIMIT] <= 0


# --- input validation and the projection kernel ---

# floats with the edge cases drawn often: signed zeros, infinities, NaN
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]), st.floats())
EDGE_BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    *(st.lists(s, min_size=n, max_size=n) for s in (EDGE_FLOATS, EDGE_BOUNDS, EDGE_BOUNDS)))))
@example(([-0.0], [0.0], [1.0]))  # np.clip's +0.0, which the swapped min/max order loses
def test_box_projection_is_np_clip_bit_for_bit(draw):
    p, a, b = (np.array(v) for v in draw)
    lower, upper = np.where(a <= b, a, b), np.where(a <= b, b, a)
    assert_same_bits(BoxRegion(lower, upper).project(p), np.clip(p, lower, upper))


def test_box_region_rejects_bounds_of_different_lengths():
    with pytest.raises(ValueError, match="same length"):
        BoxRegion([0.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("lower, upper", [([0.0, np.nan], [1.0, 1.0]),
                                          ([0.0, 0.0], [np.nan, 1.0])])
def test_box_region_rejects_nan_bounds(lower, upper):
    with pytest.raises(ValueError, match="NaN"):
        BoxRegion(lower, upper)


def test_start_of_the_wrong_length_is_rejected():
    net = random_network(np.random.default_rng(0), [3, 4, 1])
    obj = SmoothObjective(value=lambda y, x: float(y[0]), grad_x=lambda y, x: np.zeros(3),
                          grad_y=lambda y, x: np.ones(1))
    with pytest.raises(ValueError, match="start must hold 3 entries"):
        embedded_solve(net, obj, BoxRegion(-np.ones(3), np.ones(3)), start=[0.5])


@pytest.mark.parametrize("kwargs", [dict(tol=-1.0), dict(tol=0.0), dict(tol=np.nan),
                                    dict(tol=np.inf)])
def test_tolerance_must_be_finite_and_positive(kwargs):
    # tol=-1 or NaN used to run the whole budget and report LimitReached
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        embedded_solve(*swish_descent(1), **kwargs)


@pytest.mark.parametrize("max_iter", [-1, 2.5, "10"])
def test_budget_must_be_an_integer_of_at_least_zero(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
        embedded_solve(*swish_descent(1), max_iter=max_iter)
    res, trace = embedded_solve(*swish_descent(1), max_iter=np.int64(0))
    assert res.status is Status.LIMIT and res.iterations == 0 and not trace


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10),
       st.lists(st.sampled_from(["curved", "damped", "negative", "fresh"]), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_damped_bfgs_carries_the_inverse(n, kinds, seed):
    # pairs of full curvature, damped pairs (0 < s'y < 0.2 s'Bs), pairs with
    # s'y <= 0, and a reset to a fresh identity before a pair
    rng = np.random.default_rng(seed)
    B = H = np.eye(n)
    fresh = True
    for kind in kinds:
        if kind == "fresh":
            B = H = np.eye(n)
            fresh = True
        s = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 1.0)
        Bs = B @ s
        off = rng.normal(size=n)
        off -= (off @ s) / (s @ s) * s  # orthogonal to s: leaves s'y alone
        off *= 0.5 * np.linalg.norm(Bs) / np.linalg.norm(off)
        scale = {"curved": rng.uniform(0.5, 2.0), "fresh": rng.uniform(0.5, 2.0),
                 "damped": rng.uniform(0.01, 0.19), "negative": -rng.choice([0.0, rng.uniform(0.0, 1.0)])}[kind]
        B, H, fresh = _damped_bfgs(B, H, s, scale * Bs + off, fresh)
        assert not fresh
        assert np.array_equal(B, B.T) and np.array_equal(H, H.T)
        assert np.linalg.norm(H @ B - np.eye(n), 2) <= 1e-8 * np.linalg.cond(B)
