"""Branch and bound and the pattern oracle against HiGHS (``scipy.optimize.milp``).

Instances are random ReLU nets of at most six hidden neurons over random input
boxes, with random linear objectives on the output and the inputs.  The B&B
optimum must equal HiGHS's on the big-M model, its bound must not pass the
optimum, and the pattern oracle on the complementarity model must agree.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst
from scipy.optimize import Bounds, LinearConstraint, milp

from surropt.encoders import encode_mip, encode_mpcc, interval_bounds
from surropt.model import Model
from surropt.nn import random_network
from surropt.solvers.branch_bound import milp_solve
from surropt.solvers.pattern import pattern_enumerate_solve
from surropt.solvers.result import Status
from surropt.solvers.simplex import standard_form

TOL = 1e-6
# presolve off: HiGHS's presolve has returned a wrong optimum on a big-M model
HIGHS_OPTIONS = {"presolve": False, "mip_rel_gap": 1e-9}


def build(net, box, sense, coef, formulation):
    lo, hi = box
    m = Model()
    xs = [m.add_variable(f"x{j}", lower=lo[j], upper=hi[j]) for j in range(len(lo))]
    if formulation == "mip":
        h = encode_mip(m, net, xs, interval_bounds(net, box))
    else:
        h = encode_mpcc(m, net, xs)
    terms = {h.output_vars[0]: float(coef[0])}
    terms.update({x: float(c) for x, c in zip(xs, coef[1:])})
    m.set_objective(sense, terms)
    return m, h


def highs_optimum(model):
    sf = standard_form(model)
    integrality = np.zeros(sf.A.shape[1])
    integrality[[v.id for v in model.variables if v.kind == "binary"]] = 1
    res = milp(sf.c, constraints=LinearConstraint(sf.A, sf.b, sf.b),
               bounds=Bounds(sf.lower, sf.upper), integrality=integrality,
               options=HIGHS_OPTIONS)
    assert res.status == 0
    return sf.sign * (res.fun + sf.c0)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=hst.integers(0, 2**32 - 1), d=hst.integers(1, 3),
       hidden=hst.lists(hst.integers(1, 3), min_size=1, max_size=3).filter(
           lambda h: sum(h) <= 6),
       sense=hst.sampled_from(["min", "max"]))
def test_bb_and_oracle_match_highs(seed, d, hidden, sense):
    rng = np.random.default_rng(seed)
    net = random_network(rng, [d, *hidden, 1])
    lo = np.round(rng.uniform(-2.0, 0.0, d), 2)
    box = (lo, lo + np.round(rng.uniform(0.2, 2.5, d), 2))
    coef = rng.uniform(-1.0, 1.0, d + 1)
    m, _ = build(net, box, sense, coef, "mip")
    opt = highs_optimum(m)
    tol = TOL * max(1.0, abs(opt))
    sign = 1.0 if sense == "min" else -1.0

    bb = milp_solve(m)
    assert bb.status is Status.OPTIMAL
    assert abs(bb.objective - opt) <= tol
    assert sign * (bb.best_bound - opt) <= tol

    mc, hc = build(net, box, sense, coef, "mpcc")
    orc = pattern_enumerate_solve(mc, hc)
    assert orc.status is Status.OPTIMAL
    assert abs(orc.objective - bb.objective) <= tol
