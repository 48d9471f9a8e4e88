"""Activation-pattern solvers for models built by the encoders.

Fixing every neuron's branch (output side or slack side) turns either
encoding into a convex LP/QP; a bound-pruned, exact search over the branch
choices yields a global oracle, and single-neuron branch flips at degenerate
pairs give a verifiable local search for the complementarity formulation.  A
flip changes only bounds, so its LP starts from the current subproblem's
basis; the search's final subproblem is solved cold again when the search
moved.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..model import BINARY, Model
from .frank_wolfe import FW_TOL, relaxation_result, solve_relaxation
from .result import SolveResult, Status
from .simplex import solve_standard_form, standard_form

ENUMERATION_CAP = 20
BOUNDARY_TOL = 1e-7
IMPROVE_TOL = 1e-8


class NoFeasibleStartError(Exception):
    """No feasible starting pattern could be derived for the local search."""


def _gather_neurons(handles):
    """Flatten one or many EmbeddingHandles into [(label, y, s, z), ...]."""
    if not isinstance(handles, (list, tuple)):
        handles = [handles]
    neurons = []
    for hi, h in enumerate(handles):
        for nid in h.hidden_ids():
            y, s, z = h.neuron_vars[nid]
            neurons.append(((hi, nid), y, s, z))
    return neurons


def _check_free_binaries(model, neurons):
    """Binaries outside the embeddings would be silently relaxed; refuse them."""
    handle_zs = {z for _, _, _, z in neurons if z is not None}
    for var in model.variables:
        if var.kind == BINARY and var.lower < var.upper and var.id not in handle_zs:
            raise ValueError(
                f"free binary {var.name!r} outside the embeddings; "
                "fix binaries (or branch over them) before pattern solves")


def _apply_branch(lower, upper, neuron, active, margin=0.0):
    """Fix one neuron's branch in place, its free side >= margin; False on a conflict."""
    _, y, s, z = neuron
    if active:
        fixes, free = ((s, 0.0), (z, 0.0)), y
    else:
        fixes, free = ((y, 0.0), (z, 1.0)), s
    for vid, val in fixes:
        if vid is None:
            continue
        if val < lower[vid] - 1e-12 or val > upper[vid] + 1e-12:
            return False
        lower[vid] = upper[vid] = val
    if margin > upper[free] + 1e-12:
        return False
    lower[free] = max(lower[free], margin)
    return True


def _point_satisfies(x, lower, upper, tol=1e-9):
    return bool((x >= lower - tol).all() and (x <= upper + tol).all())


def _cap_pairs(sf, neurons):
    """Cap each neuron's y and s in place from its own row y - s = a, in order:
    y <= max(0, a_hi) and s <= max(0, -a_lo), with [a_lo, a_hi] the interval
    of a over the bounds of the row's other variables.  Every full branch
    assignment satisfies the caps, so no leaf's feasible set changes."""
    A, lower, upper = sf.A, sf.lower, sf.upper
    for _, y, s, _ in neurons:
        rows = ((A[:, y] != 0.0) & (A[:, s] == -A[:, y]) & (sf.slack_col < 0)).nonzero()[0]
        if not rows.size:
            continue
        row = A[rows[0]]
        others = row.nonzero()[0]
        others = others[(others != y) & (others != s)]
        w = -row[others] / row[y]  # a = b / A[r, y] + w . x_others
        base = sf.b[rows[0]] / row[y]
        a_hi = base + np.where(w > 0, w * upper[others], w * lower[others]).sum()
        a_lo = base + np.where(w > 0, w * lower[others], w * upper[others]).sum()
        upper[y] = min(upper[y], max(0.0, a_hi))
        upper[s] = min(upper[s], max(0.0, -a_lo))


_LOST = {"limit": Status.LIMIT, "unbounded": Status.UNBOUNDED}


def branch_descent(sf, neurons, leaf, margin=0.0, cutoff=None):
    """Depth-first walk over the neurons' branches, active side first.

    An infeasible prefix is pruned as a block, which cannot lose a leaf since
    fixing further neurons only shrinks the feasible set.  Each node carries a
    feasible point: a child whose bounds it satisfies needs no LP; otherwise
    an LP, warm from the parent's basis, decides the child.  Those LPs cost
    nothing unless ``cutoff`` is given.  Then they minimize ``sf.c``, and a
    subtree whose optimum is at least ``cutoff()`` (the incumbent's value)
    minus 1e-12 is skipped; a node whose LP is unbounded keeps its point with
    no bound.  ``leaf(flags, lower, upper, node)`` sees each full assignment
    (``flags[k]``: neuron k active) with its node ``(x, value, basis)``, or
    None at a root leaf; ``value`` is the optimum at these bounds, or None
    when no LP proved one.  It returns its status.  Returns the statuses of
    the LPs, prefix or leaf, that ended neither optimal nor infeasible (an
    unbounded prefix is kept, so "unbounded" is always a leaf's), and the
    number of prefix LPs solved.
    """
    costed = cutoff is not None
    c_min = None if costed else np.zeros(sf.A.shape[1])
    flags: list = []
    lost = set()  # statuses of LPs that ended neither optimal nor infeasible
    solved = [0]

    def beaten(node):
        """Whether the incumbent is at least as good as every leaf under node."""
        return node is not None and node[1] is not None and node[1] >= cutoff() - 1e-12

    def child_node(lower, upper, node):
        """The child's (x, value, basis), or None when it holds no point."""
        if node is not None and _point_satisfies(node[0], lower, upper):
            return node  # an optimum over the parent is one over the child
        out = solve_standard_form(sf, c_min=c_min, lower=lower, upper=upper,
                                  basis=node and node[2])
        solved[0] += 1
        if out.status == "optimal":
            return out.x, out.obj if costed else None, out.basis
        if out.status == "unbounded" and costed:
            return out.x, None, None  # a feasible point, no bound
        if out.status in _LOST:
            lost.add(out.status)  # the subtree is unexplored, not empty
        return None

    def descend(k, lower, upper, node):
        if k == len(neurons):
            status = leaf(flags, lower, upper, node)
            if status in _LOST:
                lost.add(status)
            return
        for active in (True, False):
            if beaten(node):  # the first child's subtree may have moved the incumbent
                return
            lo2, up2 = lower.copy(), upper.copy()
            if not _apply_branch(lo2, up2, neurons[k], active, margin):
                continue
            child = child_node(lo2, up2, node)
            if child is not None and not beaten(child):
                flags.append(active)
                descend(k + 1, lo2, up2, child)
                flags.pop()

    descend(0, sf.lower.copy(), sf.upper.copy(), None)
    return lost, solved[0]


def pattern_enumerate_solve(model: Model, handles, cap: int = ENUMERATION_CAP,
                            fw_tol: float = FW_TOL) -> SolveResult:
    """Global oracle: a bound-pruned, exact search over the branch assignments.

    Each assignment fixes every pair's branch, making the remaining problem a
    convex LP/QP; ``branch_descent`` prunes assignments whose partial fixing
    is already infeasible.  With a linear objective each neuron's ``y`` and
    ``s`` are first capped from its own row (``_cap_pairs``), so prefix
    relaxations are bounded, and the descent prunes prefixes whose relaxation
    cannot beat the incumbent (complementarity branch and bound, Bard & Moore
    1990; Hu, Mitchell, Pang, Bennett & Kunapuli 2008); a leaf takes its
    node's optimum.  A quadratic objective keeps the zero-cost walk and runs
    Frank-Wolfe at each leaf.  ``nodes`` counts the prefix LPs and leaf
    relaxation solves.
    """
    neurons = _gather_neurons(handles)
    if len(neurons) > cap:
        raise ValueError(f"{len(neurons)} neuron pairs exceed the enumeration cap {cap}")
    _check_free_binaries(model, neurons)
    sf = standard_form(model)
    best = [math.inf, None, None]  # min-space value, x, active set
    leaf_solves = [0]

    def leaf(flags, lower, upper, node):
        if node is not None and node[1] is not None:
            status, x, val = "optimal", node[0], node[1]
        else:
            status, x, val, _, _, _ = solve_relaxation(sf, lower, upper, tol=fw_tol,
                                                       basis=node and node[2])
            leaf_solves[0] += 1
        if status == "optimal" and val < best[0] - 1e-12:
            best[0], best[1] = val, x
            best[2] = {lab for (lab, *_), act in zip(neurons, flags) if act}
        return status

    if sf.quad:
        lost, prefix_lps = branch_descent(sf, neurons, leaf)
    else:
        _cap_pairs(sf, neurons)
        lost, prefix_lps = branch_descent(sf, neurons, leaf, cutoff=lambda: best[0])
    lps = prefix_lps + leaf_solves[0]
    if "unbounded" in lost:
        return SolveResult(status=Status.UNBOUNDED, nodes=lps)
    if best[1] is None:
        return SolveResult(status=Status.LIMIT if lost else Status.INFEASIBLE, nodes=lps)
    point = {vid: float(best[1][vid]) for vid in range(model.num_variables)}
    pattern = frozenset(nid for _, nid in best[2])
    obj = sf.sign * best[0]
    if lost:  # the best leaf seen so far; unexplored leaves may beat it
        return SolveResult(status=Status.LIMIT, point=point, objective=obj,
                           pattern=pattern, nodes=lps)
    return SolveResult(status=Status.OPTIMAL, point=point, objective=obj,
                       best_bound=obj, pattern=pattern, nodes=lps)


def _pattern_from_point(model, neurons, point):
    arr = model.point_array(point)
    return {lab for lab, y, _, _ in neurons if arr[y] > BOUNDARY_TOL}


def mpcc_local_solve(model: Model, handles, start=None, start_pattern=None,
                     net=None, max_rounds: int = 1000) -> SolveResult:
    """Pattern local search for complementarity models.

    Solves the convex subproblem of the current branch fixing, then tries
    single flips at the degenerate pairs (y = s = 0 at the subproblem
    optimum, in neuron index order) and accepts the first flip improving by
    more than ``IMPROVE_TOL``; terminates when none does.  A flip only moves
    bounds, so its LP starts from the current subproblem's basis; a search
    that moved re-solves its final pattern cold, so the result does not
    depend on the path.  ``nodes`` counts the patterns evaluated.  The final
    subproblem's duals are the complementarity multipliers.
    """
    neurons = _gather_neurons(handles)
    _check_free_binaries(model, neurons)
    sf = standard_form(model)

    if start_pattern is not None:  # NeuronIds or (handle, NeuronId) labels
        active = {lab for lab, *_ in neurons
                  if lab[1] in start_pattern or lab in start_pattern}
    elif start is not None:
        active = _pattern_from_point(model, neurons, start)
    else:
        raise ValueError("mpcc_local_solve needs a starting point or pattern")

    def pattern_bounds(act):
        lo, up = sf.lower.copy(), sf.upper.copy()
        for neuron in neurons:
            if not _apply_branch(lo, up, neuron, neuron[0] in act):
                return None
        return lo, up

    def solve_pattern(act, basis=None):
        bounds = pattern_bounds(act)
        return None if bounds is None else solve_relaxation(sf, *bounds, tol=FW_TOL,
                                                            basis=basis)

    cur = solve_pattern(active)
    if cur is None or cur.status == "infeasible":
        raise NoFeasibleStartError("starting pattern has an empty subproblem")
    subproblems = 1
    unjudged = False  # a flip of the last round whose LP hit a limit
    moved = False
    for _ in range(max_rounds):
        if cur.status in _LOST:
            return SolveResult(status=_LOST[cur.status], nodes=subproblems,
                               pattern=frozenset(nid for _, nid in active))
        x = cur.x
        boundary = [n for n in neurons
                    if x[n[1]] <= BOUNDARY_TOL and x[n[2]] <= BOUNDARY_TOL]
        improved = unjudged = False
        for neuron in boundary:
            lab = neuron[0]
            flipped = (active - {lab}) if lab in active else (active | {lab})
            out = solve_pattern(flipped, cur.basis)  # a flip keeps cur dual feasible
            subproblems += 1
            if out is None or out.status == "infeasible":
                continue
            if out.status == "limit":
                unjudged = True
            elif out.status == "unbounded" or out.value < cur.value - IMPROVE_TOL:
                active, cur = flipped, out
                improved = moved = True
                break
        if not improved:
            break

    if moved:  # a cold final solve: its vertex and duals do not depend on the path
        cur = solve_pattern(active)
    # the final subproblem's solve holds the duals and reduced costs
    lo, up = pattern_bounds(active)
    res = relaxation_result(model, replace(sf, lower=lo, upper=up), cur, FW_TOL)
    if res.status == Status.OPTIMAL:
        # locally optimal, no global bound claimed; unverified if a flip hit a limit
        res.status = Status.LIMIT if unjudged else Status.FEASIBLE
        res.best_bound = math.nan
    res.nodes = subproblems
    res.pattern = frozenset(nid for _, nid in active)
    if net is not None:
        res.kkt_residual = _stationarity_residual(model, handles, res, net)
    return res


def _stationarity_residual(model, handles, res, net):
    """Strong-stationarity residual from the final subproblem duals; NaN when
    the model is richer than the multiplier extraction maps."""
    from .. import stationarity

    ex = stationarity.extract_mpcc_multipliers(model, handles, res, net)
    if ex is None:
        return math.nan
    report = stationarity.check_strong_stationarity(
        net, ex.point, ex.f, ex.c, mu=ex.mu, nu1=ex.nu1, nu2=ex.nu2)
    return report.max_residual
