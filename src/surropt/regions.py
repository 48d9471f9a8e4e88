"""Activation-region geometry: region inequalities, emptiness tests, pattern
enumeration, arrangement counts and generalized Jacobians.

A pattern's region rows are the hidden preactivation maps of its affine piece,
``nn.piece_maps``; hull vertices are the pieces' Jacobians, ``nn.affine_piece``.

Regions are open polyhedra; the LPs here realize strict inequalities as
``>= slack`` with a small positive slack, so a region counts as empty exactly
when the slackened system is infeasible.  Full-dimensional regions survive any
sufficiently small slack.

Pattern enumeration and hull vertices fix each neuron's side on the
complementarity encoding, the kept side ``>= slack`` (``DEFAULT_SLACK`` = 1e-6),
and share the pattern oracle's pruned descent, ``branch_descent``.
``region_nonempty`` keeps the max-margin LP, whose optimum is a centered witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoders import encode_mpcc
from .model import Model
from .nn import (
    DEFAULT_TOL,
    Network,
    NeuronId,
    SignPartition,
    affine_piece,
    piece_maps,
    sign_partition,
    validate_pattern,
)
from .solvers.embedded import min_norm_point
from .solvers.pattern import ENUMERATION_CAP, _apply_branch, _gather_neurons, branch_descent
from .solvers.result import SolverError
from .solvers.simplex import solve_standard_form, standard_form

DEFAULT_SLACK = 1e-6
RANK_TOL = 1e-8
DEGENERATE_CAP = 12


class CapExceededError(ValueError):
    """An enumeration would exceed its configured neuron cap."""


@dataclass(frozen=True)
class RegionRow:
    """One hidden neuron's preactivation as an affine form of the input."""

    neuron: NeuronId
    normal: np.ndarray
    offset: float
    positive: bool  # True: preactivation > 0 on the region, False: < 0


@dataclass(frozen=True)
class RegionInequalities:
    rows: tuple


@dataclass(frozen=True)
class GeneralizedJacobianHull:
    """Vertex Jacobians of the neighboring regions at a point."""

    vertices: tuple  # ((pattern, jacobian), ...)
    base_partition: SignPartition


def region_inequalities(net: Network, pattern) -> RegionInequalities:
    """Affine inequality per hidden neuron describing R(pattern)."""
    pattern = validate_pattern(net, pattern)
    rows = []
    for li, (P, q) in enumerate(piece_maps(net, pattern)[:-1]):
        for i in range(P.shape[0]):
            nid = NeuronId(li, i)
            normal = P[i].copy()
            normal.setflags(write=False)
            rows.append(RegionRow(nid, normal, float(q[i]), nid in pattern))
    return RegionInequalities(tuple(rows))


def _input_model(n, box):
    """A model holding only the inputs x[0..n), free or inside ``box``; returns (model, xs)."""
    model = Model()
    lo, hi = box if box is not None else (np.full(n, -np.inf), np.full(n, np.inf))
    return model, [model.add_variable(f"x[{j}]", lower=float(lo[j]), upper=float(hi[j]))
                   for j in range(n)]


def _strict_system_lp(rows, n, slack, box=None):
    """LP ``max t`` s.t. sign*(normal.x + offset) >= t, slack <= t <= max(1, slack).

    Feasible iff every strict inequality can hold with margin ``slack``; the
    solution is a well-centered witness.  Returns None when infeasible and
    raises ``SolverError`` when the LP ends undecided.
    """
    model, xs = _input_model(n, box)
    t = model.add_variable("t", lower=slack, upper=max(1.0, slack))
    for normal, offset, positive in rows:
        s = 1.0 if positive else -1.0
        terms = {x: s * float(a) for x, a in zip(xs, normal)}
        terms[t] = -1.0
        model.add_constraint(terms, ">=", -s * offset)
    model.set_objective("max", {t: 1.0})  # the margin
    out = solve_standard_form(standard_form(model))
    if out.status == "infeasible":
        return None
    if out.status != "optimal":  # t is capped, so only the iteration limit gets here
        raise SolverError(f"region LP ended with status {out.status!r}")
    return out.x[:n].copy()


def region_nonempty(net: Network, pattern, slack: float = DEFAULT_SLACK):
    """Whether R(pattern) is nonempty at the given slack; returns (bool, witness)."""
    if slack <= 0:
        raise ValueError("slack must be positive")
    ineqs = region_inequalities(net, pattern)
    rows = [(r.normal, r.offset, r.positive) for r in ineqs.rows]
    witness = _strict_system_lp(rows, net.input_dim, slack)
    return (witness is not None), witness


def _nonempty_patterns(net: Network, slack, search, active=frozenset(), box=None):
    """``active`` joined with each subset of the neurons in ``search`` whose
    region admits margin ``slack``, in descent order, with the inputs free or
    inside ``box``.  The other neurons keep their side: active if in ``active``."""
    model, xs = _input_model(net.input_dim, box)
    neurons = _gather_neurons(encode_mpcc(model, net, xs))
    sf = standard_form(model)
    for neuron in neurons:
        if neuron[0][1] not in search:
            _apply_branch(sf.lower, sf.upper, neuron, neuron[0][1] in active, slack)
    neurons = [nr for nr in neurons if nr[0][1] in search]
    found = []

    def leaf(flags, *_):
        found.append(active | {nid for ((_, nid), *_), act in zip(neurons, flags) if act})

    lost, _ = branch_descent(sf, neurons, leaf, margin=slack)
    if lost:  # a zero-cost LP is never unbounded: only the iteration limit gets here
        raise SolverError(f"region LP ended with status {lost.pop()!r}")
    return found


def enumerate_nonempty_patterns(net: Network, slack: float = DEFAULT_SLACK,
                                max_neurons: int = ENUMERATION_CAP, box=None) -> list:
    """All activation patterns with a nonempty region, in deterministic order.

    Covers every one of the 2^n subsets through ``branch_descent``, which prunes
    a prefix of sign choices with no point at margin ``slack``.
    """
    if slack <= 0:
        raise ValueError("slack must be positive")
    ids = net.hidden_relu_ids()
    if len(ids) > max_neurons:
        raise CapExceededError(f"{len(ids)} hidden neurons exceed the cap {max_neurons}")
    found = _nonempty_patterns(net, slack, set(ids), box=box)
    return sorted(found, key=lambda p: sorted(p))


def zaslavsky_count(m: int, d: int) -> int:
    """Number of regions cut out of d-space by m general-position hyperplanes."""
    if m < 0 or d < 0:
        raise ValueError("m and d must be nonnegative")
    return sum(math.comb(m, i) for i in range(d + 1))


def general_position_check(net: Network, x, tol: float = RANK_TOL,
                           sign_tol: float = DEFAULT_TOL) -> bool:
    """Linear independence of the kink hyperplane normals through x.

    The degenerate neurons' hyperplanes form a central arrangement at x, where
    general position reduces to independent normals; rank is judged by the
    singular-value ratio against ``tol``.
    """
    part = sign_partition(net, x, sign_tol)
    k = len(part.degenerate)
    if k == 0:
        return True
    if k > net.input_dim:
        return False
    ineqs = region_inequalities(net, part.active)
    G = np.array([r.normal for r in ineqs.rows if r.neuron in part.degenerate])
    s = np.linalg.svd(G, compute_uv=False)
    if s[0] <= 0:
        return False
    return bool(s[k - 1] / s[0] > tol)


def generalized_jacobian(net: Network, x, sign_tol: float = DEFAULT_TOL,
                         slack: float = DEFAULT_SLACK,
                         cap: int = DEGENERATE_CAP) -> GeneralizedJacobianHull:
    """Vertex Jacobians of all nonempty regions neighboring x.

    Candidate patterns are the active set joined with every subset of the
    degenerate set; only those with a nonempty region contribute a vertex.
    """
    part = sign_partition(net, x, sign_tol)
    degen = part.degenerate
    if len(degen) > cap:
        raise CapExceededError(f"{len(degen)} degenerate neurons exceed the cap {cap}")
    patterns = [frozenset(part.active)]
    if degen:  # vertex order: by subset size, then in the order combinations gives
        patterns = sorted(_nonempty_patterns(net, slack, degen, part.active),
                          key=lambda p: (len(p - part.active), sorted(p - part.active)))
    vertices = [(p, affine_piece(net, p)[0]) for p in patterns]
    return GeneralizedJacobianHull(tuple(vertices), part)


def hull_contains_zero(hull: GeneralizedJacobianHull, target_rows,
                       tol: float = 1e-8):
    """Does 0 lie in the convex hull of the supplied per-vertex vectors?

    Finds the hull's point of least Euclidean norm by Wolfe's algorithm,
    ``min_norm_point``; returns (contained, theta, residual) with theta its
    convex weights and residual its norm.  ``target_rows`` carries one vector
    per hull vertex (e.g. the composed gradient of that vertex).
    """
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in target_rows]
    if not vecs:
        raise ValueError("hull must be nonempty")
    if len(vecs) != len(hull.vertices):
        raise ValueError("one target row per hull vertex expected")
    z, theta = min_norm_point(np.array(vecs))
    residual = float(np.linalg.norm(z))
    contained = residual <= tol
    return contained, theta if contained else None, residual
