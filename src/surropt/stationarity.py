"""Stationarity verification for optimization over ReLU networks.

Two views of the same first-order conditions are checked and bridged:

* embedded: 0 must lie in the convex hull of the per-region composed
  gradients ``grad_x L + J^T grad_y L`` at the point;
* complementarity (lifted): the layerwise multiplier chains with sign
  restrictions at biactive neurons.

Orientation convention: constraint Jacobians are stored rows-as-constraints,
so a multiplier step is ``jac.T @ mu``; network Jacobians are
(output_dim, input_dim) and enter the chains transposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GE, LE, MIN, Model
from .nn import (
    DEFAULT_TOL,
    Network,
    NeuronId,
    forward,
    forward_with_preactivations,
    slope_jacobian,
)
from .regions import general_position_check, generalized_jacobian, hull_contains_zero
from .solvers.embedded import SmoothConstraints, SmoothObjective

ACTIVE_TOL = 1e-7


def linear_objective(fx, fy, constant: float = 0.0) -> SmoothObjective:
    """f(y, x) = fx.x + fy.y + constant as callbacks."""
    fx = np.asarray(fx, dtype=float).reshape(-1)
    fy = np.asarray(fy, dtype=float).reshape(-1)
    return SmoothObjective(
        value=lambda y, x: float(fx @ x + fy @ y + constant),
        grad_x=lambda y, x: fx,
        grad_y=lambda y, x: fy,
    )


def linear_inequalities(Cx, Cy, d) -> SmoothConstraints:
    """c(y, x) = Cx x + Cy y - d <= 0 as callbacks (rows = constraints)."""
    Cx = np.atleast_2d(np.asarray(Cx, dtype=float))
    Cy = np.atleast_2d(np.asarray(Cy, dtype=float))
    d = np.asarray(d, dtype=float).reshape(-1)
    return SmoothConstraints(
        value=lambda y, x: Cx @ x + Cy @ y - d,
        jac_x=lambda y, x: Cx,
        jac_y=lambda y, x: Cy,
    )


def _eval_gradients(f, c, x, y, mu):
    gx = np.asarray(f.grad_x(y, x), dtype=float).reshape(-1).copy()
    gy = np.asarray(f.grad_y(y, x), dtype=float).reshape(-1).copy()
    if c is not None and mu.size:
        gx += np.asarray(c.jac_x(y, x), dtype=float).T @ mu
        gy += np.asarray(c.jac_y(y, x), dtype=float).T @ mu
    return gx, gy


def _estimate_mu(net, x, y, f, c, act_tol=ACTIVE_TOL):
    """Nonnegative least squares on the composed chain, inactive rows pinned to 0."""
    # scipy.optimize is imported here, not at module level: it is the only
    # scipy use in the package and costs more than the rest of `import surropt`.
    from scipy.optimize import nnls

    from .nn import affine_piece, sign_partition

    cvals = np.asarray(c.value(y, x), dtype=float).reshape(-1)
    J = affine_piece(net, sign_partition(net, x).active)[0]
    Cx = np.atleast_2d(np.asarray(c.jac_x(y, x), dtype=float))
    Cy = np.atleast_2d(np.asarray(c.jac_y(y, x), dtype=float))
    M = Cx.T + J.T @ Cy.T
    rhs = -(np.asarray(f.grad_x(y, x), float) + J.T @ np.asarray(f.grad_y(y, x), float))
    active = np.flatnonzero(cvals >= -act_tol)
    mu = np.zeros(cvals.shape[0])
    if active.size:
        sol, _ = nnls(M[:, active], rhs)
        mu[active] = sol
    return mu


@dataclass
class StationarityCertificate:
    x_star: np.ndarray
    mu: np.ndarray
    kappa: dict  # NeuronId -> value in [0, 1]
    theta: np.ndarray | None
    residuals: dict  # primal, complementarity, gradient
    accepted: bool
    hypothesis_ok: bool  # general-position check at x_star
    estimated_mu: bool
    vertex_count: int
    kappa_exact: bool

    def to_payload(self) -> dict:
        return {
            "x_star": [float(v) for v in self.x_star],
            "mu": [float(v) for v in self.mu],
            "kappa": {f"{nid.layer}:{nid.index}": float(v)
                      for nid, v in sorted(self.kappa.items())},
            "theta": None if self.theta is None else [float(v) for v in self.theta],
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "accepted": self.accepted,
            "hypothesis_ok": self.hypothesis_ok,
            "estimated_mu": self.estimated_mu,
            "vertex_count": self.vertex_count,
            "kappa_exact": self.kappa_exact,
        }


def check_embedded_stationarity(net: Network, x_star, f, c=None, mu=None,
                                tol: float = 1e-6, comp_tol: float = 1e-7,
                                grad_tol: float = 1e-8,
                                sign_tol: float = DEFAULT_TOL) -> StationarityCertificate:
    """Certify first-order stationarity of min f(DNN(x), x) s.t. c(...) <= 0.

    Feasibility and complementary slackness are checked directly; the gradient
    condition asks for convex weights over the neighboring-region composed
    gradients summing to zero, decided by LP.  A failed general-position check
    only flags the certificate (the hull is still what it is).
    """
    if not net.is_pure_relu():
        raise ValueError("embedded stationarity checks require pure-ReLU nets")
    x = np.asarray(x_star, dtype=float).reshape(-1)
    y = forward(net, x)
    if c is None:
        cvals = np.zeros(0)
        mu_arr = np.zeros(0)
        estimated = False
    else:
        cvals = np.asarray(c.value(y, x), dtype=float).reshape(-1)
        if mu is None:
            mu_arr = _estimate_mu(net, x, y, f, c)
            estimated = True
        else:
            mu_arr = np.asarray(mu, dtype=float).reshape(-1)
            estimated = False
        if mu_arr.shape[0] != cvals.shape[0]:
            raise ValueError("mu must have one entry per constraint")
    primal = float(np.maximum(cvals, 0.0).max(initial=0.0))
    if np.any(mu_arr < -1e-12):
        raise ValueError("mu must be nonnegative")
    comp = float(abs(mu_arr @ cvals)) if cvals.size else 0.0

    gx, gy = _eval_gradients(f, c, x, y, mu_arr)
    hull = generalized_jacobian(net, x, sign_tol=sign_tol)
    targets = [gx + J.T @ gy for _, J in hull.vertices]
    contains, theta, grad_res = hull_contains_zero(hull, targets, tol=grad_tol)

    kappa = {}
    degenerate = hull.base_partition.degenerate
    for nid in hull.base_partition.active:
        kappa[nid] = 1.0
    for nid in hull.base_partition.strictly_inactive:
        kappa[nid] = 0.0
    if theta is not None:
        for nid in degenerate:
            kappa[nid] = float(sum(
                th for th, (pat, _) in zip(theta, hull.vertices) if nid in pat))
    else:
        for nid in degenerate:
            kappa[nid] = 0.0
    layers_with_degenerate = {nid.layer for nid in degenerate}
    kappa_exact = len(layers_with_degenerate) <= 1

    accepted = primal <= tol and comp <= comp_tol and contains
    return StationarityCertificate(
        x_star=x,
        mu=mu_arr,
        kappa=kappa,
        theta=theta,
        residuals={"primal": primal, "complementarity": comp, "gradient": grad_res},
        accepted=accepted,
        hypothesis_ok=general_position_check(net, x, sign_tol=sign_tol),
        estimated_mu=estimated,
        vertex_count=len(hull.vertices),
        kappa_exact=kappa_exact,
    )


# ---------------------------------------------------------------------------
# lifted (complementarity) conditions
# ---------------------------------------------------------------------------


def hidden_point(net: Network, x) -> tuple:
    """(x0, [h^1, ..., h^H]) hidden activations from a forward pass."""
    x = np.asarray(x, dtype=float).reshape(-1)
    _, preacts = forward_with_preactivations(net, x)
    hiddens = [np.maximum(a, 0.0) for a in preacts[:-1]]
    return x, hiddens


def _lifted_gradients(net: Network, point, f, c, mu):
    """Read a layerwise point (x0, [h^1..h^H]) and evaluate at the output of
    its last hidden layer: returns (x0, hiddens, cvals, mu, gx, gy), with the
    gradients of f + mu.c.  A missing mu is zero."""
    x0, hiddens = point
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    hiddens = [np.asarray(h, dtype=float).reshape(-1) for h in hiddens]
    if len(hiddens) != len(net.hidden_layers):
        raise ValueError("point must carry one activation vector per hidden layer")
    out_layer = net.layers[-1]
    yout = out_layer.weights @ (hiddens[-1] if hiddens else x0) + out_layer.bias
    if c is None:
        cvals = mu = np.zeros(0)
    else:
        cvals = np.asarray(c.value(yout, x0), dtype=float).reshape(-1)
        mu = (np.zeros(cvals.shape[0]) if mu is None
              else np.asarray(mu, dtype=float).reshape(-1))
    return (x0, hiddens, cvals, mu, *_eval_gradients(f, c, x0, yout, mu))


def _kappa_slopes(net: Network, kappa) -> list:
    """The kappa map as one array of column scalings per hidden layer."""
    return [np.array([kappa[NeuronId(li, i)] for i in range(lay.fan_out)])
            for li, lay in enumerate(net.hidden_layers)]


def _classify(a, cls_tol):
    return np.where(np.abs(a) <= cls_tol, 0, np.sign(a)).astype(int)


@dataclass
class StrongStationarityReport:
    residuals: dict
    max_residual: float
    accepted: bool
    mu: np.ndarray
    nu1: list
    nu2: list
    estimated_nu: bool

    def to_payload(self) -> dict:
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "max_residual": float(self.max_residual),
            "accepted": self.accepted,
            "mu": [float(v) for v in self.mu],
            "nu1": [[float(v) for v in arr] for arr in self.nu1],
            "nu2": [[float(v) for v in arr] for arr in self.nu2],
            "estimated_nu": self.estimated_nu,
        }


def _layer_preacts(net, x0, hiddens):
    preacts = []
    prev = x0
    for li, lay in enumerate(net.hidden_layers):
        preacts.append(lay.weights @ prev + lay.bias)
        prev = hiddens[li]
    return preacts


def _estimate_nu(net, classes, g_top):
    """Input-level chain residual as an affine function of the biactive nu2 entries.

    Forced components (active: nu2 = g, inactive: nu2 = 0) make the backward
    recursion linear in the remaining biactive entries, so the estimator can
    fit them with one small least-squares solve.
    """
    H = len(net.hidden_layers)
    pos = {}
    k = 0
    for li in range(H - 1, -1, -1):
        for j in np.flatnonzero(classes[li] == 0):
            pos[(li, int(j))] = k
            k += 1
    nbeta = k

    def backward(beta):
        g = g_top.copy()
        for li in range(H - 1, -1, -1):
            v = np.where(classes[li] > 0, g, 0.0)
            for j in np.flatnonzero(classes[li] == 0):
                v[j] = beta[pos[(li, int(j))]]
            g = net.hidden_layers[li].weights.T @ v
        return g  # equals W^1T nu2^1 after the last step

    r0 = backward(np.zeros(max(nbeta, 1)))
    R = None
    if nbeta:
        R = np.empty((r0.shape[0], nbeta))
        for col in range(nbeta):
            e = np.zeros(nbeta)
            e[col] = 1.0
            R[:, col] = backward(e) - r0
    return r0, R, pos


def check_strong_stationarity(net: Network, point, f, c=None, mu=None, nu1=None,
                              nu2=None, tol: float = 1e-6,
                              comp_tol: float = 1e-7,
                              cls_tol: float = DEFAULT_TOL) -> StrongStationarityReport:
    """Residuals of the lifted first-order conditions at a layerwise point.

    ``point`` is (x0, [h^1..h^H]) over the hidden layers; the final affine
    layer is folded into the objective/constraint gradients.  Conditions:
    layer feasibility and complementarity, mu complementarity, the three
    gradient chains (input level, hidden recursions, terminal), and the sign
    restrictions including both biactive multipliers nonnegative.
    """
    if not net.is_pure_relu():
        raise ValueError("strong stationarity checks require pure-ReLU nets")
    x0, hiddens, cvals, mu_arr, gx, gy = _lifted_gradients(net, point, f, c, mu)
    H = len(hiddens)
    preacts = _layer_preacts(net, x0, hiddens)
    classes = [_classify(a, cls_tol) for a in preacts]

    feas = 0.0
    comp_pairs = 0.0
    for li in range(H):
        h, a = hiddens[li], preacts[li]
        feas = max(feas, float(np.maximum(-h, 0.0).max(initial=0.0)))
        feas = max(feas, float(np.maximum(a - h, 0.0).max(initial=0.0)))
        comp_pairs = max(comp_pairs, float(np.abs(h * (h - a)).max(initial=0.0)))
    feas = max(feas, float(np.maximum(cvals, 0.0).max(initial=0.0)))
    mu_comp = float(abs(mu_arr @ cvals)) if cvals.size else 0.0
    mu_sign = float(np.maximum(-mu_arr, 0.0).max(initial=0.0))

    g_top = net.layers[-1].weights.T @ gy  # terminal chain target at the last hidden layer

    estimated = False
    if H and (nu1 is None or nu2 is None):
        estimated = True
        r0, R, pos = _estimate_nu(net, classes, g_top)
        if R is not None:
            target = -(gx + r0)
            beta, *_ = np.linalg.lstsq(R, target, rcond=None)
        else:
            beta = np.zeros(0)
        # clamp biactive entries into [0, g_j] and rebuild numerically
        nu2 = []
        g = g_top.copy()
        gs = []
        for li in range(H - 1, -1, -1):
            gs.insert(0, g)
            v = np.where(classes[li] > 0, g, 0.0)
            for j in np.flatnonzero(classes[li] == 0):
                hi_cap = max(0.0, float(g[j]))
                v[j] = min(max(float(beta[pos[(li, j)]]), 0.0), hi_cap)
            nu2.insert(0, v)
            if li > 0:
                g = net.hidden_layers[li].weights.T @ v
        nu1 = [gs[li] - nu2[li] for li in range(H)]
    else:
        nu1 = [np.asarray(v, dtype=float).reshape(-1) for v in (nu1 or [])]
        nu2 = [np.asarray(v, dtype=float).reshape(-1) for v in (nu2 or [])]
        if len(nu1) != H or len(nu2) != H:
            raise ValueError("nu1/nu2 must carry one vector per hidden layer")

    chain = 0.0
    if H:
        g = g_top
        for li in range(H - 1, -1, -1):
            chain = max(chain, float(np.abs(nu1[li] + nu2[li] - g).max(initial=0.0)))
            g = net.hidden_layers[li].weights.T @ nu2[li]
        chain_x0 = float(np.abs(gx + g).max(initial=0.0))
    else:
        chain_x0 = float(np.abs(gx).max(initial=0.0))

    signs = 0.0
    for li in range(H):
        cl = classes[li]
        act = cl > 0
        inact = cl < 0
        bi = cl == 0
        if act.any():
            signs = max(signs, float(np.abs(nu1[li][act]).max()))
        if inact.any():
            signs = max(signs, float(np.abs(nu2[li][inact]).max()))
        if bi.any():
            signs = max(signs, float(np.maximum(-nu1[li][bi], 0.0).max()))
            signs = max(signs, float(np.maximum(-nu2[li][bi], 0.0).max()))

    residuals = {
        "feasibility": feas,
        "pair_complementarity": comp_pairs,
        "mu_complementarity": mu_comp,
        "mu_sign": mu_sign,
        "chain_layers": chain,
        "chain_x0": chain_x0,
        "signs": signs,
    }
    max_res = max(residuals.values())
    accepted = (feas <= tol and comp_pairs <= tol and mu_comp <= comp_tol
                and mu_sign <= 1e-12 and chain <= tol and chain_x0 <= tol
                and signs <= tol)
    return StrongStationarityReport(residuals, max_res, accepted, mu_arr,
                                    nu1, nu2, estimated)


def recover_kappa(net: Network, point, f, c=None, mu=None, nu1=None, nu2=None,
                  zero_tol: float = 1e-9, cls_tol: float = DEFAULT_TOL,
                  check_tol: float = 1e-3):
    """Column scalings kappa in [0,1] making the single composed chain vanish.

    Strictly signed neurons get 0/1; a biactive neuron gets
    (g_j - nu1_j) / g_j with the downstream composed gradient component g_j,
    or 0 when g_j vanishes (any value works there).  Returns (kappa map,
    identity residual); errors if the supplied multipliers are not close to
    strongly stationary.
    """
    report = check_strong_stationarity(net, point, f, c, mu=mu, nu1=nu1, nu2=nu2,
                                       tol=check_tol, comp_tol=check_tol,
                                       cls_tol=cls_tol)
    chain_res = max(report.residuals["chain_layers"], report.residuals["chain_x0"])
    if chain_res > check_tol:
        raise ValueError(f"multiplier chains residual {chain_res:.2e} too large to interpret")
    nu1 = report.nu1
    nu2 = report.nu2
    x0, hiddens, _, _, gx, gy = _lifted_gradients(net, point, f, c, report.mu)
    preacts = _layer_preacts(net, x0, hiddens)
    kappa = {}
    g = net.layers[-1].weights.T @ gy
    for li in range(len(hiddens) - 1, -1, -1):
        cl = _classify(preacts[li], cls_tol)
        for j in range(cl.shape[0]):
            nid = NeuronId(li, j)
            if cl[j] > 0:
                kappa[nid] = 1.0
            elif cl[j] < 0:
                kappa[nid] = 0.0
            elif abs(g[j]) <= zero_tol:
                kappa[nid] = 0.0
            else:
                kappa[nid] = min(1.0, max(0.0, float((g[j] - nu1[li][j]) / g[j])))
        g = net.hidden_layers[li].weights.T @ nu2[li]
    J = slope_jacobian(net, _kappa_slopes(net, kappa))
    residual = float(np.abs(gx + J.T @ gy).max(initial=0.0))
    return kappa, residual


def nus_from_kappa(net: Network, point, f, c, mu, kappa):
    """Multiplier chains induced by column scalings: nu2 = kappa*g layerwise."""
    *_, gy = _lifted_gradients(net, point, f, c, mu)
    scales = _kappa_slopes(net, kappa)
    H = len(scales)
    nu1 = [None] * H
    nu2 = [None] * H
    g = net.layers[-1].weights.T @ gy
    for li in range(H - 1, -1, -1):
        nu2[li] = scales[li] * g
        nu1[li] = g - nu2[li]
        g = net.hidden_layers[li].weights.T @ nu2[li]
    return nu1, nu2


@dataclass
class RoundtripReport:
    embedded: StationarityCertificate
    strong: StrongStationarityReport
    kappa_residual: float
    agree: bool


def equivalence_roundtrip(net: Network, f, c, x_star, mu=None,
                          tol: float = 1e-6) -> RoundtripReport:
    """Run both stationarity checks at x_star and assert they agree.

    The embedded certificate's convex weights give column scalings, whose
    induced multiplier chains feed the lifted check; acceptance decisions must
    coincide under the general-position hypothesis.
    """
    emb = check_embedded_stationarity(net, x_star, f, c, mu=mu, tol=tol)
    if not emb.hypothesis_ok:
        raise ValueError("equivalence requires the general-position hypothesis")
    point = hidden_point(net, x_star)
    nu1, nu2 = nus_from_kappa(net, point, f, c, emb.mu, emb.kappa)
    strong = check_strong_stationarity(net, point, f, c, mu=emb.mu,
                                       nu1=nu1, nu2=nu2, tol=tol)
    if emb.accepted:
        _, kres = recover_kappa(net, point, f, c, mu=emb.mu,
                                nu1=strong.nu1, nu2=strong.nu2)
    else:
        kres = math.nan
    return RoundtripReport(emb, strong, kres, emb.accepted == strong.accepted)


# ---------------------------------------------------------------------------
# multiplier extraction from pattern-subproblem duals
# ---------------------------------------------------------------------------


@dataclass
class MpccExtraction:
    mu: np.ndarray
    nu1: list
    nu2: list
    f: SmoothObjective
    c: SmoothConstraints | None
    point: tuple
    constraint_rows: list  # model constraint index per mu entry, None for an input-box row


def extract_mpcc_multipliers(model: Model, handles, result, net: Network,
                             prefix: str = "") -> MpccExtraction | None:
    """Map final-subproblem LP duals onto the lifted multipliers.

    Works for plain min-sense embeddings built by the encoders (neuron rows
    tagged ``relu[l][i]``) whose remaining rows touch only the embedding's
    inputs and outputs; returns None when the model is richer than that.
    Finite bounds on the inputs become rows ``x <= ub`` and ``-x <= -lb`` of
    ``c``, after the model's own rows, with the input reduced costs as their
    multipliers.
    """
    if isinstance(handles, (list, tuple)):
        if len(handles) != 1:
            return None
        handles = handles[0]
    if model.objective.sense != MIN or model.objective.quadratic:
        return None
    if not result.duals:
        return None
    inputs = list(handles.input_vars)
    outputs = list(handles.output_vars)
    io_set = set(inputs) | set(outputs)
    if any(vid not in io_set for vid in model.objective.linear.terms):
        return None

    H = len(net.hidden_layers)
    neuron_row = {}
    out_tags = {f"{prefix}out[{i}]" for i in range(len(outputs))}
    embed_rows = set()
    for r, con in enumerate(model.constraints):
        if con.tag.startswith(f"{prefix}relu[") or con.tag.startswith(f"{prefix}on[") \
                or con.tag.startswith(f"{prefix}off[") or con.tag in out_tags:
            embed_rows.add(r)
        if con.tag.startswith(f"{prefix}relu["):
            body = con.tag[len(f"{prefix}relu["):-1]
            l_str, i_str = body.split("]["); l, i = int(l_str), int(i_str)
            neuron_row[NeuronId(l - 1, i)] = r

    if set(neuron_row) != set(handles.neuron_vars):
        return None

    rows_cx, rows_cy, rows_d, mu_vals, row_ids = [], [], [], [], []
    nin, nout = len(inputs), len(outputs)
    for r, con in enumerate(model.constraints):
        if r in embed_rows:
            continue
        if con.sense not in (LE, GE):
            return None
        cx = np.zeros(nin)
        cy = np.zeros(nout)
        for vid, coef in con.expr.terms.items():
            if vid in io_set:
                if vid in inputs:
                    cx[inputs.index(vid)] = coef
                else:
                    cy[outputs.index(vid)] = coef
            else:
                return None
        offs = con.rhs - con.expr.constant
        dual = result.duals.get(r, 0.0)
        if con.sense == LE:
            rows_cx.append(cx); rows_cy.append(cy); rows_d.append(offs)
            mu_vals.append(-dual)
        else:
            rows_cx.append(-cx); rows_cy.append(-cy); rows_d.append(-offs)
            mu_vals.append(dual)
        row_ids.append(r)
    for j, vid in enumerate(inputs):
        var = model.variables[vid]
        rc = result.reduced_costs.get(vid, 0.0)
        for s, bound in ((1.0, var.upper), (-1.0, var.lower)):
            if math.isfinite(bound):
                cx = np.zeros(nin)
                cx[j] = s
                rows_cx.append(cx); rows_cy.append(np.zeros(nout)); rows_d.append(s * bound)
                mu_vals.append(max(0.0, -s * rc))
                row_ids.append(None)

    fx = np.zeros(nin)
    fy = np.zeros(nout)
    for vid, coef in model.objective.linear.terms.items():
        if vid in inputs:
            fx[inputs.index(vid)] = coef
        else:
            fy[outputs.index(vid)] = coef
    f = linear_objective(fx, fy, model.objective.linear.constant)
    c = None
    if rows_cx:
        c = linear_inequalities(np.array(rows_cx), np.array(rows_cy), np.array(rows_d))

    arr = model.point_array(result.point)
    x0 = arr[inputs]
    hiddens = []
    nu1 = []
    nu2 = []
    for li, lay in enumerate(net.hidden_layers):
        hv = np.array([arr[handles.neuron_vars[NeuronId(li, i)][0]]
                       for i in range(lay.fan_out)])
        hiddens.append(hv)
        nu2.append(np.array([result.duals[neuron_row[NeuronId(li, i)]]
                             for i in range(lay.fan_out)]))
        nu1.append(np.array([result.reduced_costs.get(
            handles.neuron_vars[NeuronId(li, i)][0], 0.0)
            for i in range(lay.fan_out)]))
    return MpccExtraction(np.array(mu_vals), nu1, nu2, f, c, (x0, hiddens), row_ids)
