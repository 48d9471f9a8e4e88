import numpy as np
import pytest

from surropt import stationarity as st
from surropt.encoders import encode_mpcc
from surropt.model import Model
from surropt.nn import NeuronId, forward, jacobian, random_network, sign_partition
from surropt.solvers.pattern import mpcc_local_solve, pattern_enumerate_solve

from conftest import single_neuron_net, zero_bias_counterexample

N = NeuronId


def toy_problem(rng, dims):
    """Free-x embedding with |x_j| <= 1 box rows as explicit constraints."""
    net = random_network(rng, dims)
    m = Model()
    xs = [m.add_variable(f"in[{j}]") for j in range(dims[0])]
    h = encode_mpcc(m, net, xs)
    for xv in xs:
        m.add_constraint({xv: 1.0}, "<=", 1.0)
        m.add_constraint({xv: -1.0}, "<=", 1.0)
    obj = {h.output_vars[0]: 1.0}
    for xv in xs:
        obj[xv] = float(rng.uniform(0.2, 0.8) * rng.choice([-1.0, 1.0]))
    m.set_objective("min", obj)
    return net, m, h, xs


def test_embedded_unconstrained_zero_point():
    # f(y) = |y|^2 at a root of the network, non-degenerate point
    net = single_neuron_net()  # relu(x-1)
    f = st.SmoothObjective(
        value=lambda y, x: float(y @ y),
        grad_x=lambda y, x: np.zeros(1),
        grad_y=lambda y, x: 2.0 * y,
    )
    cert = st.check_embedded_stationarity(net, [0.5], f)
    assert cert.accepted
    assert cert.vertex_count == 1
    np.testing.assert_allclose(cert.theta, [1.0])


def test_embedded_zero_bias_always_stationary():
    net = zero_bias_counterexample()
    f = st.linear_objective([0.0], [1.0])
    for x in (-0.3, 0.0, 0.8):
        cert = st.check_embedded_stationarity(net, [x], f)
        assert cert.accepted
    assert not st.check_embedded_stationarity(net, [0.0], f).hypothesis_ok


def test_embedded_kink_hull():
    net = single_neuron_net()
    f = st.linear_objective([0.0], [1.0])
    cert = st.check_embedded_stationarity(net, [1.0], f)
    assert cert.accepted and cert.vertex_count == 2
    # interior of the active region: gradient 1, not stationary
    assert not st.check_embedded_stationarity(net, [2.0], f).accepted


def test_mu_estimation_is_labeled(rng):
    # the estimator fits mu on the forward-pattern vertex chain, so it can
    # certify solver output at non-degenerate solutions without supplied duals
    for _ in range(20):
        net, m, h, xs = toy_problem(rng, [2, 3, 1])
        oracle = pattern_enumerate_solve(m, h)
        res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
        ex = st.extract_mpcc_multipliers(m, h, res, net)
        x_star = np.array([res.point[v] for v in xs])
        if sign_partition(net, x_star).degenerate:
            continue  # kink solutions need the supplied duals (hull combination)
        cert = st.check_embedded_stationarity(net, x_star, ex.f, ex.c)  # no mu
        assert cert.estimated_mu
        assert cert.accepted
        return
    pytest.skip("every sampled solution landed on a kink")


def test_estimated_mu_solves_the_active_nnls():
    # mu fits -(f_x + J^T f_y) by (C_x^T + J^T C_y^T) mu over the active rows
    # only: inactive rows stay 0, and the active entries meet the NNLS
    # optimality conditions g = M^T (M mu - rhs) >= 0 and mu * g = 0
    bound_at_zero = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = random_network(rng, [3, 5, 2])
        x = rng.uniform(-1.0, 1.0, 3)
        if sign_partition(net, x).degenerate:
            continue
        y = forward(net, x)
        Cx, Cy = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        inactive = np.array([False, False, False, False, True, True])
        d = Cx @ x + Cy @ y + np.where(inactive, 1.0, 0.0)
        fx, fy = rng.normal(size=3), rng.normal(size=2)
        mu = st._estimate_mu(net, x, y, st.linear_objective(fx, fy),
                             st.linear_inequalities(Cx, Cy, d))
        assert mu.shape == (6,)
        assert np.all(mu >= 0.0)
        assert np.all(mu[inactive] == 0.0)
        J = jacobian(net, x)
        M = (Cx.T + J.T @ Cy.T)[:, ~inactive]
        rhs = -(fx + J.T @ fy)
        g = M.T @ (M @ mu[~inactive] - rhs)
        assert np.all(g >= -1e-10)
        np.testing.assert_allclose(mu[~inactive] * g, 0.0, atol=1e-10)
        bound_at_zero += int(np.sum((mu[~inactive] == 0.0) & (g > 1e-8)))
    assert bound_at_zero > 0  # some instance holds an active entry at its bound


def test_strong_stationarity_solver_chain(rng):
    net, m, h, xs = toy_problem(rng, [2, 2, 2, 1])
    oracle = pattern_enumerate_solve(m, h)
    res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
    assert res.kkt_residual <= 1e-6
    ex = st.extract_mpcc_multipliers(m, h, res, net)
    rep = st.check_strong_stationarity(net, ex.point, ex.f, ex.c,
                                       mu=ex.mu, nu1=ex.nu1, nu2=ex.nu2)
    assert rep.accepted
    assert all(v <= 1e-6 for v in rep.residuals.values())


def test_strong_stationarity_sign_conditions(rng):
    net, m, h, xs = toy_problem(rng, [2, 3, 1])
    oracle = pattern_enumerate_solve(m, h)
    res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
    ex = st.extract_mpcc_multipliers(m, h, res, net)
    arr = m.point_array(res.point)
    for li, lay in enumerate(net.hidden_layers):
        for i in range(lay.fan_out):
            y, s, _ = h.neuron_vars[N(li, i)]
            if arr[y] > 1e-7:  # strictly active: nu1 must vanish
                assert abs(ex.nu1[li][i]) <= 1e-9
            if arr[s] > 1e-7:  # strictly inactive: nu2 must vanish
                assert abs(ex.nu2[li][i]) <= 1e-9


def test_perturbed_multipliers_are_rejected(rng):
    net, m, h, xs = toy_problem(rng, [2, 3, 1])
    oracle = pattern_enumerate_solve(m, h)
    res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
    ex = st.extract_mpcc_multipliers(m, h, res, net)
    base = st.check_strong_stationarity(net, ex.point, ex.f, ex.c,
                                        mu=ex.mu, nu1=ex.nu1, nu2=ex.nu2)
    assert base.accepted
    for li in range(len(ex.nu1)):
        for i in range(ex.nu1[li].shape[0]):
            nu1 = [v.copy() for v in ex.nu1]
            nu1[li][i] += 0.1
            rep = st.check_strong_stationarity(net, ex.point, ex.f, ex.c,
                                               mu=ex.mu, nu1=nu1, nu2=ex.nu2)
            assert not rep.accepted


def test_recover_kappa_three_cases():
    # biactive neuron with nu1 = 0 sits at the formula's kappa = 1 endpoint
    net = single_neuron_net()
    f = st.linear_objective([-1.0], [1.0])  # gx = -1, gy = 1
    point = st.hidden_point(net, [1.0])
    # chains: g = 1; choose nu2 = 1, nu1 = 0 -> chain_x0: -1 + 1*1 = 0
    rep = st.check_strong_stationarity(net, point, f, mu=None,
                                       nu1=[np.array([0.0])], nu2=[np.array([1.0])])
    assert rep.accepted
    kappa, res = st.recover_kappa(net, point, f, None, None, rep.nu1, rep.nu2)
    assert kappa[N(0, 0)] == pytest.approx(1.0)
    assert res <= 1e-12


def test_recover_kappa_strict_signs(rng):
    net, m, h, xs = toy_problem(rng, [2, 3, 1])
    oracle = pattern_enumerate_solve(m, h)
    res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
    ex = st.extract_mpcc_multipliers(m, h, res, net)
    kappa, kres = st.recover_kappa(net, ex.point, ex.f, ex.c, ex.mu, ex.nu1, ex.nu2)
    assert kres <= 1e-6
    x0 = ex.point[0]
    part = sign_partition(net, x0)
    for nid in part.active:
        assert kappa[nid] == 1.0
    for nid in part.strictly_inactive:
        assert kappa[nid] == 0.0


def test_recover_kappa_rejects_garbage():
    net = single_neuron_net()
    f = st.linear_objective([-1.0], [1.0])
    point = st.hidden_point(net, [1.0])
    with pytest.raises(ValueError):
        st.recover_kappa(net, point, f, None, None,
                         [np.array([5.0])], [np.array([5.0])])


def test_homogeneous_scaling_keeps_decisions(rng):
    net, m, h, xs = toy_problem(rng, [2, 3, 1])
    oracle = pattern_enumerate_solve(m, h)
    res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
    ex = st.extract_mpcc_multipliers(m, h, res, net)
    x_star = ex.point[0]
    scale = 3.7
    f_scaled = st.linear_objective(
        scale * np.asarray(ex.f.grad_x(None, x_star)),
        scale * np.asarray(ex.f.grad_y(None, x_star)))
    a = st.check_embedded_stationarity(net, x_star, ex.f, ex.c, mu=ex.mu)
    b = st.check_embedded_stationarity(net, x_star, f_scaled, ex.c, mu=scale * ex.mu)
    assert a.accepted == b.accepted


def test_equivalence_roundtrip_examples(rng):
    net = single_neuron_net()
    f = st.linear_objective([0.0], [1.0])
    rt = st.equivalence_roundtrip(net, f, None, [1.0])
    assert rt.agree and rt.embedded.accepted and rt.strong.accepted
    assert rt.kappa_residual <= 1e-6
    rt2 = st.equivalence_roundtrip(net, f, None, [2.0])
    assert rt2.agree and not rt2.embedded.accepted


def test_equivalence_single_hidden_layer_variant(rng):
    # the one-layer case of the equivalence statement on solver output
    net, m, h, xs = toy_problem(rng, [2, 4, 1])
    oracle = pattern_enumerate_solve(m, h)
    res = mpcc_local_solve(m, h, start_pattern=oracle.pattern, net=net)
    ex = st.extract_mpcc_multipliers(m, h, res, net)
    rt = st.equivalence_roundtrip(net, ex.f, ex.c, ex.point[0], mu=ex.mu)
    assert rt.agree and rt.embedded.accepted


def test_vertex_gradients_match_fixed_pattern_chain(rng):
    # composed gradients used by the embedded check equal the per-region
    # chain-rule gradients, exactly
    from surropt.nn import affine_piece
    from surropt.regions import generalized_jacobian

    net = random_network(rng, [2, 3, 1])
    x = rng.uniform(-1, 1, 2)
    f = st.linear_objective(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1))
    hull = generalized_jacobian(net, x)
    y = forward(net, x)
    gx = np.asarray(f.grad_x(y, x))
    gy = np.asarray(f.grad_y(y, x))
    for pattern, J in hull.vertices:
        A, _ = affine_piece(net, pattern)
        np.testing.assert_allclose(gx + J.T @ gy, gx + A.T @ gy, atol=1e-12)


def test_criterion_one_pool_certifies_at_the_global_optimum():
    # the pool's encoders give the input box as variable bounds; its
    # multipliers come from the input reduced costs
    from surropt.solvers.branch_bound import milp_solve
    from test_acceptance import _instance_pool

    for net, build, d in _instance_pool():
        mm, mh, _ = build("mip")
        opt = milp_solve(mm)
        x_star = [opt.point[v] for v in mh.input_vars]
        m, h, _ = build("mpcc")
        res = mpcc_local_solve(m, h, net=net, start_pattern=sign_partition(net, x_star).active)
        assert res.objective == pytest.approx(opt.objective, abs=1e-9)
        ex = st.extract_mpcc_multipliers(m, h, res, net)
        assert ex.mu.shape == (2 * d,) and ex.constraint_rows == [None] * (2 * d)
        report = st.check_strong_stationarity(net, ex.point, ex.f, ex.c,
                                              mu=ex.mu, nu1=ex.nu1, nu2=ex.nu2)
        assert report.accepted and report.max_residual <= 1e-9
        assert res.kkt_residual == report.max_residual
