"""Outside references for the benchmark's answer checks.

Nothing here calls a surropt solver: models are handed to HiGHS through
``scipy.optimize``, forward passes and region rows are recomputed with plain
numpy from the layer arrays, and bound sidecars are parsed as plain JSON.
Every check returns a list of error strings; an empty list means the answer
passed.
"""

from __future__ import annotations

import json
import math
from itertools import product

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.special import comb

FEAS_TOL = 1e-6


def opt_tol(opt: float) -> float:
    """Tolerance for comparing optima: 1e-6 relative, absolute below 1."""
    return 1e-6 * max(1.0, abs(opt))


# ---------------------------------------------------------------------------
# Model IR -> HiGHS
# ---------------------------------------------------------------------------


class HighsModel:
    """Dense arrays of a surropt ``Model`` in min space, read from its public fields."""

    def __init__(self, model):
        if model.objective.quadratic:
            raise ValueError("HiGHS milp takes linear objectives only")
        if model.complementarities:
            raise ValueError("complementarity pairs have no MILP form")
        n = model.num_variables
        self.sign = 1.0 if model.objective.sense == "min" else -1.0
        self.c = np.zeros(n)
        for vid, coef in model.objective.linear.terms.items():
            self.c[vid] = self.sign * coef
        self.c0 = self.sign * model.objective.linear.constant
        self.lower = np.array([v.lower for v in model.variables], dtype=float)
        self.upper = np.array([v.upper for v in model.variables], dtype=float)
        self.integrality = np.array([1 if v.kind == "binary" else 0
                                     for v in model.variables])
        m = len(model.constraints)
        self.A = np.zeros((m, n))
        self.row_lo = np.full(m, -np.inf)
        self.row_hi = np.full(m, np.inf)
        for r, con in enumerate(model.constraints):
            for vid, coef in con.expr.terms.items():
                self.A[r, vid] = coef
            rhs = con.rhs - con.expr.constant
            if con.sense in ("<=", "="):
                self.row_hi[r] = rhs
            if con.sense in (">=", "="):
                self.row_lo[r] = rhs

    def solve(self):
        """HiGHS solve to optimality; returns (objective, x, dual_bound) in model space.

        No time limit: a bound cut short would loosen with the machine's speed
        and could make a check vacuous.
        """
        cons = (LinearConstraint(self.A, self.row_lo, self.row_hi),) if len(self.A) else ()
        res = milp(self.c, integrality=self.integrality,
                   bounds=Bounds(self.lower, self.upper), constraints=cons)
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        dual = getattr(res, "mip_dual_bound", None)
        if dual is None or not math.isfinite(dual):
            dual = res.fun
        return self.sign * (res.fun + self.c0), res.x, self.sign * (dual + self.c0)


def model_violation(model, point: dict) -> float:
    """Row, bound and complementarity violation, recomputed from the IR fields."""
    x = np.array([point[v.id] for v in model.variables], dtype=float)
    lo = np.array([v.lower for v in model.variables])
    hi = np.array([v.upper for v in model.variables])
    worst = max(float(np.max(lo - x, initial=0.0)), float(np.max(x - hi, initial=0.0)))
    for con in model.constraints:
        lhs = sum(c * x[v] for v, c in con.expr.terms.items()) + con.expr.constant
        if con.sense == "<=":
            worst = max(worst, lhs - con.rhs)
        elif con.sense == ">=":
            worst = max(worst, con.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - con.rhs))
    for pair in model.complementarities:
        worst = max(worst, abs(x[pair.a] * x[pair.b]))
    return worst


# ---------------------------------------------------------------------------
# numpy forward pass
# ---------------------------------------------------------------------------


def layer_arrays(net):
    """[(W, b, kind, beta)] copied out of a surropt Network."""
    return [(np.array(l.weights, dtype=float), np.array(l.bias, dtype=float),
             l.activation.kind, float(l.activation.beta)) for l in net.layers]


def np_forward(layers, x):
    """Output of a ReLU/swish net with an affine last layer."""
    y = np.asarray(x, dtype=float)
    for W, b, kind, beta in layers:
        a = W @ y + b
        if kind == "relu":
            y = np.maximum(a, 0.0)
        elif kind == "swish":
            y = a / (1.0 + np.exp(-beta * a))
        else:
            y = a
    return y


def np_preactivations(layers, x):
    """Hidden-layer preactivation vectors."""
    y = np.asarray(x, dtype=float)
    out = []
    for W, b, kind, beta in layers[:-1]:
        a = W @ y + b
        out.append(a)
        y = np.maximum(a, 0.0) if kind == "relu" else a / (1.0 + np.exp(-beta * a))
    return out


def check_outputs(layers, x, outputs, what, tol=FEAS_TOL) -> list:
    """Reported network outputs at x must match the numpy forward pass."""
    ref = np_forward(layers, x)
    err = float(np.max(np.abs(ref - np.asarray(outputs, dtype=float)), initial=0.0))
    if err > tol * max(1.0, float(np.max(np.abs(ref), initial=0.0))):
        return [f"{what}: outputs differ from the numpy forward pass by {err:.3e}"]
    return []


def interval_bounds(layers, lo, hi):
    """Per hidden layer (My, Ms) arrays from interval propagation of the box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = []
    for W, b, _, _ in layers[:-1]:
        wp, wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
        pre_lo = wp @ lo + wn @ hi + b
        pre_hi = wp @ hi + wn @ lo + b
        out.append((np.maximum(pre_hi, 0.0), np.maximum(-pre_lo, 0.0)))
        lo, hi = np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
    return out


# ---------------------------------------------------------------------------
# activation regions
# ---------------------------------------------------------------------------


def region_rows(layers, pattern):
    """(normals, offsets, signs) of every hidden neuron under a pattern.

    ``pattern`` holds (layer, index) pairs of the active neurons.
    """
    n = layers[0][0].shape[1]
    M, v = np.eye(n), np.zeros(n)
    normals, offsets, signs = [], [], []
    for li, (W, b, _, _) in enumerate(layers[:-1]):
        P, q = W @ M, W @ v + b
        mask = np.array([1.0 if (li, i) in pattern else 0.0 for i in range(W.shape[0])])
        normals.append(P)
        offsets.append(q)
        signs.append(2.0 * mask - 1.0)
        M, v = P * mask[:, None], q * mask
    return np.vstack(normals), np.concatenate(offsets), np.concatenate(signs)


def region_margin(layers, pattern) -> float:
    """Largest t <= 1 with sign_i (normal_i . x + offset_i) >= t for all i (linprog)."""
    N, o, s = region_rows(layers, pattern)
    n = N.shape[1]
    # variables (x, t): maximize t  s.t.  -s_i N_i x + t <= s_i o_i
    A = np.hstack([-s[:, None] * N, np.ones((len(s), 1))])
    c = np.zeros(n + 1)
    c[n] = -1.0
    res = linprog(c, A_ub=A, b_ub=s * o,
                  bounds=[(None, None)] * n + [(None, 1.0)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"margin LP failed: {res.message}")
    return float(res.x[n])


def sampled_patterns(layers, points) -> set:
    """Activation patterns, as frozensets of (layer, index), at sample points."""
    seen = set()
    for x in points:
        pre = np_preactivations(layers, x)
        seen.add(frozenset((li, i) for li, a in enumerate(pre)
                           for i in np.flatnonzero(a > 0)))
    return seen


def check_regions(layers, patterns, points, slack, what) -> list:
    """Enumerated patterns: each nonempty, every sampled pattern present, and
    on one hidden layer the count equal to sum_{i<=d} C(m, i)."""
    errors = []
    found = {frozenset((p[0], p[1]) for p in pat) for pat in patterns}
    if len(found) != len(patterns):
        errors.append(f"{what}: duplicate patterns")
    for pat in found:
        if region_margin(layers, pat) < 0.5 * slack:
            errors.append(f"{what}: pattern {sorted(pat)} has an empty region")
            break
    missing = sampled_patterns(layers, points) - found
    if missing:
        errors.append(f"{what}: {len(missing)} sampled pattern(s) not enumerated")
    if len(layers) == 2:
        m, d = layers[0][0].shape
        expected = int(sum(comb(m, i, exact=True) for i in range(d + 1)))
        if len(found) != expected:
            errors.append(f"{what}: {len(found)} patterns, binomial sum gives {expected}")
    return errors


# ---------------------------------------------------------------------------
# big-M bound sidecars
# ---------------------------------------------------------------------------


def check_bounds_sidecar(path, layers, lo, hi, rng, samples, what) -> list:
    """Every sampled preactivation a obeys max(a, 0) <= My and max(-a, 0) <= Ms.

    Samples are the box corners plus uniform points. The sidecar is read as
    plain JSON (layer and index 0-based).
    """
    with open(path) as fh:
        doc = json.load(fh)
    my = [np.full(W.shape[0], np.nan) for W, _, _, _ in layers[:-1]]
    ms = [np.full(W.shape[0], np.nan) for W, _, _, _ in layers[:-1]]
    for ent in doc["neurons"]:
        my[ent["layer"]][ent["index"]] = ent["My"]
        ms[ent["layer"]][ent["index"]] = ent["Ms"]
    if any(np.isnan(a).any() for a in my + ms):
        return [f"{what}: sidecar misses neurons"]
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    corners = [np.where(bits, hi, lo) for bits in product((0, 1), repeat=len(lo))]
    pts = np.vstack(corners + [rng.uniform(lo, hi, size=(samples, len(lo)))])
    worst = 0.0
    for x in pts:
        for li, a in enumerate(np_preactivations(layers, x)):
            worst = max(worst, float(np.max(np.maximum(a, 0.0) - my[li])),
                        float(np.max(np.maximum(-a, 0.0) - ms[li])))
    if worst > 1e-9:
        return [f"{what}: a sampled preactivation exceeds its big-M bound by {worst:.3e}"]
    return []
