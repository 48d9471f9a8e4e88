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


def swish_descent(seed):
    """min y + 0.5 ||x - x0||^2 over [-2, 2]^4 on a swish [4, 12, 1] net: with
    no constraints and no kinks the trace objective is the augmented
    Lagrangian, and the line-search memory spans the whole solve."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, [4, 12, 1], "swish")
    x0 = rng.uniform(-1.0, 1.0, 4)
    obj = SmoothObjective(
        value=lambda y, x: float(y[0] + 0.5 * (x - x0) @ (x - x0)),
        grad_x=lambda y, x: x - x0,
        grad_y=lambda y, x: np.ones(1),
    )
    return net, obj, BoxRegion(-2.0 * np.ones(4), 2.0 * np.ones(4))


@pytest.mark.parametrize("seed", [11, 19, 27, 47])
def test_line_search_is_nonmonotone_within_its_memory(seed):
    res, trace = embedded_solve(*swish_descent(seed))
    assert res.status is Status.OPTIMAL
    values = [t.objective for t in trace]
    assert any(b > a for a, b in zip(values, values[1:]))  # some accepted step climbs
    # a held point repeats its row; the memory holds accepted iterates only
    accepted = [v for i, v in enumerate(values) if i == 0 or v != values[i - 1]]
    m = embedded.NONMONOTONE_MEMORY
    for i in range(1, len(accepted)):
        assert accepted[i] <= max(accepted[max(0, i - m):i])


def test_budget_exit_returns_the_lowest_point_of_the_last_inner_solve():
    # the search climbed on its last steps: the run returns the point it left
    res, trace = embedded_solve(*swish_descent(109), max_iter=6)
    assert res.status is Status.STALLED
    values = [t.objective for t in trace]
    assert res.objective == min(values) < values[-1]


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


def two_loop(g, S, Y):
    """-H g by the textbook two-loop recursion (Nocedal & Wright 2006, alg. 7.4)
    over the pairs (rows of S and Y, oldest first) with s'y > 1e-16."""
    kept = [i for i in range(len(S)) if S[i] @ Y[i] > 1e-16]
    if not kept:
        return None
    q, a = g.copy(), {}
    for i in reversed(kept):
        a[i] = (S[i] @ q) / (S[i] @ Y[i])
        q = q - a[i] * Y[i]
    k = kept[-1]
    r = (S[k] @ Y[k]) / (Y[k] @ Y[k]) * q
    for i in kept:
        b = (Y[i] @ r) / (S[i] @ Y[i])
        r = r + (a[i] - b) * S[i]
    return -r


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, embedded.LBFGS_MEMORY), st.integers(0, 2**32 - 1))
def test_lbfgs_direction_matches_the_two_loop_recursion(n, m, seed):
    # the solver's recursion runs on the pairs' Gram matrix: the same sums in
    # another order; pairs of negative curvature are left out
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(m, n))
    Y = np.where(rng.random((m, 1)) < 0.7, S @ rng.normal(size=(n, n)) * 0.3 + S, -S)
    g = rng.normal(size=n)
    got = embedded._lbfgs_direction(g, np.stack([S, Y], axis=1).reshape(2 * m, n))
    want = two_loop(g, S, Y)
    if want is None:
        assert got is None
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())


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


def test_frozen_augmented_lagrangian_loop_ends_at_once(caplog):
    # the penalty reaches its cap, the multipliers stay and the line search
    # keeps failing at one point: the full budget would end in this state
    args, kwargs = member_six_attack(2)
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        res, trace = embedded_solve(*args, **kwargs)
    assert res.status is Status.LIMIT
    assert res.iterations < 300
    assert res.objective == pytest.approx(0.2511930780633973, rel=1e-9)
    assert trace[-1].primal_infeasibility > embedded.DEFAULT_TOL
    updates = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("AL update")]
    assert "rho=1e+10" in updates[-1] and updates[-1].endswith("lam kept")
    # the last logged update, a failed line search and the same update again,
    # all at one point: the second time the solve ends
    last = int(re.match(r"AL update at iteration (\d+)", updates[-1]).group(1))
    tail = [(t.objective, t.primal_infeasibility, t.dual_infeasibility)
            for t in trace[last:]]
    assert len(tail) == 3 and len(set(tail)) == 1


@pytest.mark.parametrize("seed, value", [(9, 0.2942447509703291),
                                         (10, 0.29429727963382246),
                                         (17, 0.29406762315464985)])
def test_constrained_line_search_is_monotone_until_the_first_update(seed, value):
    # a memory holding the infeasible start's penalty term admits a step into
    # a violated basin the capped penalty cannot leave (LimitReached at about
    # 0.2514); descending from the start finds a feasible kink stall instead
    args, kwargs = member_six_attack(seed)
    res, trace = embedded_solve(*args, **kwargs)
    assert res.status is Status.STALLED
    assert trace[-1].primal_infeasibility <= embedded.DEFAULT_TOL
    assert res.objective == pytest.approx(value, rel=1e-9)


# --- the first step of a line search: SPG's initial step at every restart ---


class RecordingBox(BoxRegion):
    """A box whose projections append ("project", argument) to ``events``."""

    def __init__(self, box, events):
        super().__init__(box.lower, box.upper)
        self.events = events

    def project(self, p):
        self.events.append(("project", np.array(p, dtype=float)))
        return super().project(p)


def spg_initial_step(dual):
    return min(max(1.0 / dual, 1e-12), 1e8) if dual > 0.0 else 1.0


def test_first_step_is_spg_initial_step():
    net, obj, box = swish_descent(1)
    events = []
    _, trace = embedded_solve(net, obj, RecordingBox(box, events))
    args = [p for _, p in events]
    x = box.project(np.zeros(4))
    y = forward(net, x)
    g = obj.grad_x(y, x) + jacobian(net, x).T @ obj.grad_y(y, x)
    dual = float(np.abs(x - box.project(x - g)).max())
    assert trace[0].dual_infeasibility == dual and spg_initial_step(dual) != 1.0
    # the start, the trace's measure of x, then the first trial point
    assert_same_bits(args[1], x - g)
    assert_same_bits(args[2], x - spg_initial_step(dual) * g)


def first_trials(monkeypatch, caplog, args, kwargs):
    """Solve with the projections, the gradient points, the kink tests and the
    trace rows recorded in call order.  Returns the trace, the outer updates
    ({row: "moved" or "kept"}) and per row (x, x - d, x - alpha d): the
    iterate, the point whose projection measures the step direction d, and
    the line search's first trial point (None where the row takes no step)."""
    net, obj, box = args
    events = []

    def grad_x(y, x):
        events.append(("x", x.copy()))
        return obj.grad_x(y, x)

    def tap(name, fn):
        def tapped(*a):
            out = fn(*a)
            events.append((name, out))
            return out
        return tapped

    monkeypatch.setattr(embedded, "_kink_pieces", tap("kink", embedded._kink_pieces))
    monkeypatch.setattr(embedded, "TraceRecord", tap("row", embedded.TraceRecord))
    with caplog.at_level(logging.DEBUG, logger=embedded.__name__):
        _, trace = embedded_solve(net, SmoothObjective(obj.value, grad_x, obj.grad_y),
                                  RecordingBox(box, events), **kwargs)
    updates = {}
    for r in caplog.records:
        m = re.match(r"AL update at iteration (\d+): .* lam (moved|kept)$", r.getMessage())
        if m:
            updates[int(m.group(1))] = m.group(2)
    # each row's measure of g is the projection just before it; at a kink the
    # measure of d comes next; the line search's trials follow
    rows, after, x, kink, last = [], [], None, None, None
    for kind, val in events:
        if kind == "x":
            x = val
        elif kind == "kink":
            kink = val is not None
        elif kind == "row":
            after = []
            rows.append((x, kink, last, after))
        else:
            last = val
            after.append(val)
    steps = []
    for r, (x, kink, g_point, after) in enumerate(rows):
        searched = r not in updates and r < len(rows) - 1  # the last row takes no step
        d_point = after.pop(0) if kink else g_point
        steps.append((x, d_point, after[0] if searched else None))
    return trace, updates, steps


# member_six_attack(2) moves its multipliers once, then raises its penalty to
# the cap, with failed searches at the cap; seeded_instance(12, [2, 8, 1])
# moves its multipliers after a failed search
@pytest.mark.parametrize("instance, stepped_after", [
    (lambda: member_six_attack(2), {"moved", "kept"}),
    (lambda: seeded_instance(12, [2, 8, 1]), {"failed search"}),
], ids=["member_six_attack-2", "seeded_instance-12"])
def test_step_restarts_at_the_start_after_penalty_raises_and_failed_searches(
        monkeypatch, caplog, instance, stepped_after):
    trace, updates, steps = first_trials(monkeypatch, caplog, *instance())
    # a failed search holds x for one row, whose outer update follows it
    failed = {k for k in updates if k > 0 and k - 1 not in updates
              and np.array_equal(steps[k - 1][0], steps[k][0])}
    restarts = {0} | {k + 1 for k, how in updates.items() if how == "kept" or k in failed}
    lam0 = [spg_initial_step(t.dual_infeasibility) for t in trace]
    taken, since = [], None  # restarts whose step a search took; the pending one
    for r, (x, d_point, trial) in enumerate(steps):
        since = r if r in restarts else since
        if trial is None:
            continue
        d = x - d_point
        alpha = float((x - trial) @ d) / float(d @ d)
        if since is None:  # the spectral step carried from the last search
            assert alpha != pytest.approx(lam0[r], rel=1e-6)
        else:
            assert alpha == pytest.approx(lam0[since], rel=1e-12)
            taken.append(since)
        since = None
    assert taken[0] == 0
    # the kinds of update that a line search directly follows
    kinds = {"failed search" if k in failed else how for k, how in updates.items()
             if k + 1 < len(steps) and steps[k + 1][2] is not None}
    assert stepped_after <= kinds


def along(x, trial, d):
    """x - trial = t d for one scalar t > 0, to the rounding of x and trial."""
    u = x - trial
    t = float(u @ d) / float(d @ d)
    scale = 1e-8 * np.abs(u).max() + 1e-14 * np.abs(x).max()
    return t > 0.0 and np.allclose(u, t * d, rtol=0.0, atol=scale)


# the swish seeded_instance(3, [3, 12, 1]) holds pairs at each of its updates;
# seeded_instance(2, [2, 6, 6, 1]) steps on from kink iterates before its stall
@pytest.mark.parametrize("instance, fresh_after", [
    (lambda: member_six_attack(2), {"start", "update"}),
    (lambda: seeded_instance(3, [3, 12, 1], "swish"), {"start", "update"}),
    (lambda: seeded_instance(2, [2, 6, 6, 1]), {"start", "kink"}),
], ids=["member_six_attack-2", "seeded_instance-3-swish", "seeded_instance-2"])
def test_first_step_of_each_inner_solve_and_after_a_kink_is_spg(
        monkeypatch, caplog, instance, fresh_after):
    # the L-BFGS memory is empty there, so the first trial projects
    # x - alpha g; elsewhere a quasi-Newton trial leaves the line through g
    args, kwargs = instance()
    net = args[0]
    kink_pieces = embedded._kink_pieces
    _, updates, steps = first_trials(monkeypatch, caplog, args, kwargs)

    def at_kink(x):
        if not net.is_pure_relu():
            return False
        preacts = forward_with_preactivations(net, x)[1]
        return kink_pieces(net, preacts, np.zeros(x.size), np.zeros(net.output_dim)) is not None

    seen, quasi_newton = set(), 0
    fresh = "start"  # why the memory is empty at this row, or None
    for r, (x, d_point, trial) in enumerate(steps):
        if r in updates:
            fresh = "update"
            continue
        if trial is None:
            continue
        kink = at_kink(x)
        d = x - d_point  # g, or at a kink the min-norm hull element
        if fresh or kink:  # an empty memory, or the hull step of a kink iterate
            assert along(x, trial, d), (r, fresh, kink)
            seen.add(fresh)
        elif not along(x, trial, d):
            quasi_newton += 1
        fresh = "kink" if kink else None
    assert fresh_after <= seen and quasi_newton > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_box_least_squares_matches_lsq_linear(n, seed):
    # min 0.5 |A x - b|^2 over a box, the net's output ignored: the optimum
    # sits on some faces, where the L-BFGS pairs lose those coordinates
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
    # optimum lies on a face of A x <= b, where a projected L-BFGS step can
    # climb (scipy's SLSQP and trust-constr miss this optimum by up to 4e-5
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


@pytest.mark.parametrize("memory", [1, 2, embedded.LBFGS_MEMORY])
def test_lbfgs_memory_holds_at_most_its_length(monkeypatch, memory):
    seen = []
    direction = embedded._lbfgs_direction

    def recording(g, pairs):
        seen.append(pairs.shape[0])
        return direction(g, pairs)

    monkeypatch.setattr(embedded, "LBFGS_MEMORY", memory)
    monkeypatch.setattr(embedded, "_lbfgs_direction", recording)
    res, _ = embedded_solve(*swish_descent(11))
    assert res.status is Status.OPTIMAL
    assert max(seen) == 2 * memory and min(seen) >= 2


def test_member_six_attack_sweep():
    # 300 jittered [16, 16, 4] attacks: Stalled ends are kink local minima
    # near 0.29; LimitReached ones are locally infeasible near 0.25
    status = {s: 0 for s in Status}
    for seed in range(1, 301):
        args, kwargs = member_six_attack(seed)
        res, _ = embedded_solve(*args, **kwargs)
        status[res.status] += 1
        assert res.status is not Status.STALLED or res.objective <= 0.30, seed
    assert status[Status.OPTIMAL] >= 220 and status[Status.LIMIT] <= 31


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
