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
from .solvers.pattern import ENUMERATION_CAP, _apply_branch, _gather_neurons, branch_descent
from .solvers.result import SolverError
from .solvers.simplex import StandardFormLP, solve_standard_form, standard_form

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


def _strict_system_lp(rows, n, slack, box=None):
    """LP ``max t`` s.t. sign*(normal.x + offset) >= t, slack <= t <= max(1, slack).

    Feasible iff every strict inequality can hold with margin ``slack``; the
    solution is a well-centered witness.  Returns None when infeasible and
    raises ``SolverError`` when the LP ends undecided.
    """
    m = len(rows)
    ntot = n + 1
    A = np.zeros((m, ntot))
    b = np.empty(m)
    for r, (normal, offset, positive) in enumerate(rows):
        s = 1.0 if positive else -1.0
        A[r, :n] = s * np.asarray(normal)
        A[r, n] = -1.0
        b[r] = -s * offset
    lower = np.full(ntot, -np.inf)
    upper = np.full(ntot, np.inf)
    if box is not None:
        lower[:n], upper[:n] = box
    lower[n] = slack
    upper[n] = max(1.0, slack)
    c = np.zeros(ntot)
    c[n] = -1.0  # maximize the margin
    # rows are >=: append one surplus column per row (bounds (-inf, 0])
    m_A = np.hstack([A, np.eye(m)])
    sf = StandardFormLP(
        A=m_A, b=b, c=np.concatenate([c, np.zeros(m)]), c0=0.0,
        lower=np.concatenate([lower, np.full(m, -np.inf)]),
        upper=np.concatenate([upper, np.zeros(m)]),
        slack_col=np.arange(ntot, ntot + m), sign=1.0,
    )
    out = solve_standard_form(sf)
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
    model = Model()
    n = net.input_dim
    lo, hi = box if box is not None else (np.full(n, -np.inf), np.full(n, np.inf))
    xs = [model.add_variable(f"x[{j}]", lower=float(lo[j]), upper=float(hi[j]))
          for j in range(n)]
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

    Solves min sum|residual| over convex weights theta; returns
    (contained, theta, residual).  ``target_rows`` carries one vector per hull
    vertex (e.g. the composed gradient of that vertex).
    """
    vecs = [np.asarray(v, dtype=float).reshape(-1) for v in target_rows]
    if not vecs:
        raise ValueError("hull must be nonempty")
    if len(vecs) != len(hull.vertices):
        raise ValueError("one target row per hull vertex expected")
    nv = len(vecs)
    n = vecs[0].shape[0]
    # columns: theta (nv), e+ (n), e- (n)
    ntot = nv + 2 * n
    A = np.zeros((n + 1, ntot))
    for k, v in enumerate(vecs):
        A[:n, k] = v
    A[:n, nv:nv + n] = np.eye(n)
    A[:n, nv + n:] = -np.eye(n)
    A[n, :nv] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    c = np.zeros(ntot)
    c[nv:] = 1.0
    lower = np.zeros(ntot)
    upper = np.concatenate([np.ones(nv), np.full(2 * n, np.inf)])
    sf = StandardFormLP(A=A, b=b, c=c, c0=0.0, lower=lower, upper=upper,
                        slack_col=np.full(n + 1, -1, dtype=int), sign=1.0)
    out = solve_standard_form(sf)
    if out.status != "optimal":  # pragma: no cover - always feasible by construction
        raise RuntimeError("hull membership LP failed")
    residual = max(0.0, float(out.obj))
    if residual <= tol:
        return True, out.x[:nv].copy(), residual
    return False, None, residual
