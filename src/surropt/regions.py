"""Activation-region geometry: region inequalities, emptiness tests, pattern
enumeration, arrangement counts and generalized Jacobians.

Regions are open polyhedra; the LPs here realize strict inequalities as
``>= slack`` with a small positive slack, so a region counts as empty exactly
when the slackened system is infeasible.  Full-dimensional regions survive any
sufficiently small slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .nn import (
    DEFAULT_TOL,
    RELU,
    Network,
    NeuronId,
    SignPartition,
    affine_piece,
    sign_partition,
    validate_pattern,
)
from .solvers.result import SolverError
from .solvers.simplex import StandardFormLP, solve_standard_form

DEFAULT_SLACK = 1e-6
RANK_TOL = 1e-8
DEGENERATE_CAP = 12
ENUMERATION_CAP = 20


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

    def jacobians(self) -> list:
        return [J for _, J in self.vertices]


def _layer_rows(net: Network, pattern):
    """Yield per-layer (P, q) preactivation maps under the pattern's truncation."""
    n = net.input_dim
    M = np.eye(n)
    v = np.zeros(n)
    for li, lay in enumerate(net.hidden_layers):
        P = lay.weights @ M
        q = lay.weights @ v + lay.bias
        yield li, lay, P, q
        if lay.activation.kind == RELU:
            mask = np.array(
                [1.0 if NeuronId(li, i) in pattern else 0.0 for i in range(lay.fan_out)]
            )
            M = P * mask[:, None]
            v = q * mask
        else:  # pragma: no cover - regions only defined for pure-ReLU nets
            raise ValueError("region geometry requires pure-ReLU hidden layers")


def region_inequalities(net: Network, pattern) -> RegionInequalities:
    """Affine inequality per hidden neuron describing R(pattern)."""
    pattern = validate_pattern(net, pattern)
    rows = []
    for li, lay, P, q in _layer_rows(net, pattern):
        for i in range(lay.fan_out):
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


def enumerate_nonempty_patterns(net: Network, slack: float = DEFAULT_SLACK,
                                max_neurons: int = ENUMERATION_CAP, box=None) -> list:
    """All activation patterns with a nonempty region, in deterministic order.

    Covers every one of the 2^n subsets; provably empty subtrees (a prefix of
    sign choices already infeasible) are pruned without being expanded, which
    cannot drop any nonempty pattern since adding rows only shrinks a region.
    A prefix's witness point is carried down: a choice whose new row it
    satisfies with margin ``slack`` needs no LP.
    """
    if slack <= 0:
        raise ValueError("slack must be positive")
    ids = net.hidden_relu_ids()
    if len(ids) > max_neurons:
        raise CapExceededError(f"{len(ids)} hidden neurons exceed the cap {max_neurons}")
    n = net.input_dim
    found = []

    def descend(li, rows, pattern, M, v, witness):
        if li == len(net.hidden_layers):
            found.append(frozenset(pattern))
            return
        lay = net.hidden_layers[li]
        P = lay.weights @ M
        q = lay.weights @ v + lay.bias

        def choose(i, layer_rows, witness):
            if i == lay.fan_out:
                mask = np.array([1.0 if sgn else 0.0 for _, _, sgn in layer_rows])
                descend(li + 1, rows + layer_rows, pattern, P * mask[:, None], q * mask,
                        witness)
                return
            for sgn in (True, False):
                cand = layer_rows + [(P[i], float(q[i]), sgn)]
                wit = witness
                if wit is None or (1.0 if sgn else -1.0) * (P[i] @ wit + q[i]) < slack:
                    wit = _strict_system_lp(rows + cand, n, slack, box)
                    if wit is None:
                        continue
                if sgn:
                    pattern.add(NeuronId(li, i))
                choose(i + 1, cand, wit)
                if sgn:
                    pattern.discard(NeuronId(li, i))

        choose(0, [], witness)

    descend(0, [], set(), np.eye(n), np.zeros(n), None)
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
    degen = sorted(part.degenerate)
    if len(degen) > cap:
        raise CapExceededError(f"{len(degen)} degenerate neurons exceed the cap {cap}")
    vertices = []
    if not degen:
        pattern = frozenset(part.active)
        vertices.append((pattern, affine_piece(net, pattern)[0]))
    else:
        for k in range(len(degen) + 1):
            for extra in combinations(degen, k):
                pattern = frozenset(part.active | set(extra))
                nonempty, _ = region_nonempty(net, pattern, slack)
                if nonempty:
                    vertices.append((pattern, affine_piece(net, pattern)[0]))
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
