"""The benchmark's three workloads: inputs, timed operations and answer checks.

Each workload turns a seed into inputs (``generate``), lists its operations
(``ops``) and checks the first round's answers against the outside
references (``check``). Operations call surropt through module attributes
(``branch_bound.milp_solve``, ``cli.main``, ...) so that the tracer's
wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import references as ref
from surropt import cli, encoders, model, nn, problems, regions, stationarity
from surropt.solvers import branch_bound, embedded, pattern

REGION_SLACK = 1e-6  # regions.DEFAULT_SLACK, the margin enumerated regions must admit
# Hidden neurons per net, split over 1-3 layers: the criterion-1 pool's sizes,
# and for the benchmark's own pool the same list with its six nets of 10-12
# neurons replaced by 4-9, which keeps a round short enough to repeat (see README).
CERT_SIZES = [4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 10, 10,
              11, 11, 12, 12, 5]
POOL_SIZES = [4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 4, 5,
              6, 7, 8, 9, 5]
CERT_POOL_SEED = 916  # the criterion-1 pool, whose certificates fail today
FAMILY_SEED = 20211118  # instance families of all three workloads
JITTER = 0.002  # seed-drawn move of every pool and engine weight, bias, objective,
# start and training row


@dataclass
class Op:
    """One timed operation: ``fn(state)`` returns a ``Result``.

    ``state`` maps the labels of this round's earlier operations to their
    results, so an operation can start from another's answer.
    """

    label: str
    kind: str
    fn: object

    def run(self, state) -> Result:
        try:
            return self.fn(state)
        except Exception as exc:  # an operation that raises counts as failed
            return Result({}, (), failed=True, error=repr(exc))


@dataclass
class Result:
    """What an operation hands back: answer fields, and a fingerprint that
    every later round must reproduce exactly."""

    fields: dict
    fingerprint: tuple
    failed: bool = False
    error: str | None = None  # the exception an operation raised
    keep: dict = field(default_factory=dict)  # round-1 objects for the checks


def _status(res) -> str:
    return res.status.value


# ---------------------------------------------------------------------------
# pool: 25 random ReLU nets, jittered by the seed, plus the criterion-1
# certificate pool
# ---------------------------------------------------------------------------


def pool_nets(rng, sizes):
    """Nets drawn the way acceptance criteria 1 and 2 draw theirs."""
    out = []
    for k, total in enumerate(sizes):
        nlayers = 1 + k % 3
        splits, left = [], total
        for j in range(nlayers - 1):
            take = max(1, left // (nlayers - j) + int(rng.integers(-1, 2)))
            take = min(take, left - (nlayers - j - 1))
            splits.append(take)
            left -= take
        splits.append(left)
        d = 2 + k % 2
        net = nn.random_network(rng, [d] + splits + [1])
        cobj = rng.uniform(-1, 1, d + 1)
        out.append((net, cobj, d))
    return out


def pool_model(net, cobj, d, formulation):
    """min cobj . (output, x) over x in [-1, 1]^d, big-M (interval) or MPCC."""
    m = model.Model()
    xs = [m.add_variable(f"x{j}", lower=-1.0, upper=1.0) for j in range(d)]
    if formulation == "mip":
        box = (np.full(d, -1.0), np.full(d, 1.0))
        h = encoders.encode_mip(m, net, xs, encoders.interval_bounds(net, box))
    else:
        h = encoders.encode_mpcc(m, net, xs)
    terms = {h.output_vars[0]: float(cobj[0])}
    for j, xv in enumerate(xs):
        terms[xv] = float(cobj[1 + j])
    m.set_objective("min", terms)
    return m, h


class Pool:
    name = "pool"

    def generate(self, seed, outdir):
        # a fixed pool; the seed moves every weight, bias, objective and start
        frng = np.random.default_rng(FAMILY_SEED)
        srng = np.random.default_rng([seed, 1])
        nets = [(jittered(net, srng), cobj + srng.uniform(-JITTER, JITTER, cobj.shape), d)
                for net, cobj, d in pool_nets(frng, POOL_SIZES)]
        starts = [np.clip(frng.uniform(-1, 1, size=(3, d))
                          + srng.uniform(-JITTER, JITTER, size=(3, d)), -1.0, 1.0)
                  for _, _, d in nets]
        samples = [srng.uniform(-2, 2, size=(400, d)) for _, _, d in nets]
        cert = pool_nets(np.random.default_rng(CERT_POOL_SEED), CERT_SIZES)
        return {"nets": nets, "starts": starts, "samples": samples, "cert": cert}

    def ops(self, inp):
        ops = []
        for k, (net, cobj, d) in enumerate(inp["nets"]):
            ops += [
                Op(f"bb{k}", "bb", lambda st, a=(net, cobj, d): self._bb(*a)),
                Op(f"oracle{k}", "oracle", lambda st, a=(net, cobj, d): self._oracle(*a)),
                Op(f"mpcc{k}", "mpcc",
                   lambda st, a=(net, cobj, d), k=k: self._mpcc(
                       *a, st[f"oracle{k}"].fields["pattern"], inp["starts"][k])),
                Op(f"regions{k}", "regions", lambda st, net=net: self._regions(net)),
            ]
        for j, (net, cobj, d) in enumerate(inp["cert"]):
            ops.append(Op(f"cert{j}", "certificate",
                          lambda st, a=(net, cobj, d): self._certificate(*a)))
        return ops

    @staticmethod
    def _bb(net, cobj, d):
        m, h = pool_model(net, cobj, d, "mip")
        res = branch_bound.milp_solve(m)
        return Result({"status": _status(res), "objective": res.objective,
                       "best_bound": res.best_bound},
                      (_status(res), res.objective, res.nodes),
                      failed=not res.ok,
                      keep={"model": m, "handles": h, "point": res.point})

    @staticmethod
    def _oracle(net, cobj, d):
        m, h = pool_model(net, cobj, d, "mpcc")
        res = pattern.pattern_enumerate_solve(m, h)
        return Result({"status": _status(res), "objective": res.objective,
                       "pattern": res.pattern},
                      (_status(res), res.objective, res.pattern),
                      failed=not res.ok,
                      keep={"model": m, "handles": h, "point": res.point})

    @staticmethod
    def _mpcc(net, cobj, d, oracle_pattern, starts):
        """Local search from the oracle's pattern, then from 3 random points' patterns."""
        m, h = pool_model(net, cobj, d, "mpcc")
        patterns = [oracle_pattern] + [nn.sign_partition(net, x).active for x in starts]
        runs = [pattern.mpcc_local_solve(m, h, start_pattern=p) for p in patterns]
        return Result({"objectives": [r.objective for r in runs]},
                      tuple((_status(r), r.objective, r.nodes) for r in runs),
                      failed=not all(r.ok for r in runs),
                      keep={"model": m, "handles": h, "points": [r.point for r in runs]})

    @staticmethod
    def _regions(net):
        pats = regions.enumerate_nonempty_patterns(net)
        return Result({"patterns": pats}, (len(pats), tuple(tuple(sorted(p)) for p in pats)))

    @staticmethod
    def _certificate(net, cobj, d):
        """Strong-stationarity certificate at the global optimum found by B&B."""
        mm, mh = pool_model(net, cobj, d, "mip")
        opt = branch_bound.milp_solve(mm)
        x_star = np.array([opt.point[v] for v in mh.input_vars])
        m, h = pool_model(net, cobj, d, "mpcc")
        res = pattern.mpcc_local_solve(m, h, net=net,
                                       start_pattern=nn.sign_partition(net, x_star).active)
        ex = stationarity.extract_mpcc_multipliers(m, h, res, net)
        report = (None if ex is None else stationarity.check_strong_stationarity(
            net, ex.point, ex.f, ex.c, mu=ex.mu, nu1=ex.nu1, nu2=ex.nu2))
        accepted = bool(report is not None and report.accepted)
        return Result({"bb_objective": opt.objective, "objective": res.objective,
                       "accepted": accepted},
                      (opt.objective, res.objective, accepted,
                       None if report is None else report.max_residual),
                      failed=not accepted,
                      keep={"bb_model": mm})

    def check(self, inp, res):
        errors = []
        for k, (net, _, _) in enumerate(inp["nets"]):
            layers = ref.layer_arrays(net)
            what = f"pool net {k}"
            bb = res[f"bb{k}"]
            opt, _, _ = ref.HighsModel(bb.keep["model"]).solve()
            tol = ref.opt_tol(opt)
            if bb.fields["status"] != "Optimal" or abs(bb.fields["objective"] - opt) > tol:
                errors.append(f"{what}: B&B {bb.fields['status']} {bb.fields['objective']!r}"
                              f" against HiGHS {opt!r}")
            if bb.fields["best_bound"] > bb.fields["objective"] + tol:
                errors.append(f"{what}: B&B bound passes its objective")
            errors += check_point(bb.keep["model"], bb.keep["handles"],
                                  bb.keep["point"], layers, f"{what} B&B")
            orc = res[f"oracle{k}"]
            if abs(orc.fields["objective"] - opt) > tol:
                errors.append(f"{what}: oracle {orc.fields['objective']!r} against {opt!r}")
            errors += check_point(orc.keep["model"], orc.keep["handles"],
                                  orc.keep["point"], layers, f"{what} oracle")
            loc = res[f"mpcc{k}"]
            objs = loc.fields["objectives"]
            if abs(objs[0] - opt) > tol:
                errors.append(f"{what}: local search from the oracle pattern gives "
                              f"{objs[0]!r}, not {opt!r}")
            if any(v < opt - tol for v in objs[1:]):
                errors.append(f"{what}: local search beats the global optimum")
            for p in loc.keep["points"]:
                errors += check_point(loc.keep["model"], loc.keep["handles"], p,
                                      layers, f"{what} local search")
            errors += ref.check_regions(layers, res[f"regions{k}"].fields["patterns"],
                                        inp["samples"][k], REGION_SLACK, f"{what} regions")
        for j in range(len(inp["cert"])):
            cert = res[f"cert{j}"]
            opt, _, _ = ref.HighsModel(cert.keep["bb_model"]).solve()
            tol = ref.opt_tol(opt)
            if max(abs(cert.fields["bb_objective"] - opt),
                   abs(cert.fields["objective"] - opt)) > tol:
                errors.append(f"certificate net {j}: optimum {cert.fields['objective']!r} "
                              f"against HiGHS {opt!r}")
        return errors


def check_point(m, handles, point, layers, what) -> list:
    """A returned point satisfies its model and carries the net's true outputs."""
    errors = []
    viol = ref.model_violation(m, point)
    if viol > ref.FEAS_TOL:
        errors.append(f"{what}: point violates the model by {viol:.3e}")
    for v in m.variables:
        if v.kind == "binary" and abs(point[v.id] - round(point[v.id])) > ref.FEAS_TOL:
            errors.append(f"{what}: binary {v.name} is fractional")
            break
    x = [point[v] for v in handles.input_vars]
    outs = [point[v] for v in handles.output_vars]
    return errors + ref.check_outputs(layers, x, outs, what)


# ---------------------------------------------------------------------------
# fixed instance families: pool and engine jitter theirs, embedded does not
# ---------------------------------------------------------------------------


def jittered(net, srng):
    """The net with every weight and bias moved by up to JITTER."""
    return nn.Network(tuple(
        nn.Layer(l.weights + srng.uniform(-JITTER, JITTER, l.weights.shape),
                 l.bias + srng.uniform(-JITTER, JITTER, l.bias.shape), l.activation)
        for l in net.layers))


def family_net(frng, srng, dims):
    """Family ReLU net; with a seed generator, jittered."""
    net = nn.random_network(frng, dims)
    return net if srng is None else jittered(net, srng)


def twin(net, kind):
    """Same weights with another hidden activation."""
    return nn.Network(tuple(
        nn.Layer(l.weights, l.bias, l.activation if i == net.num_layers - 1
                 else nn.Activation(kind)) for i, l in enumerate(net.layers)))


ENGINE_BOX = ((0.0, 1.0), (0.0, 1.0), (0.2, 0.8))  # fuel, rpm, compression
FIXED_COMPRESSION = 0.5


def engine_data(frng, srng, net, horizon, rows=40):
    """Training rows (half at the fixed compression) and a torque profile made of
    quantiles of the surrogate's torque on those fixed-compression rows."""
    data = frng.uniform(0.0, 1.0, size=(rows, 3))
    if srng is not None:
        data = np.clip(data + srng.uniform(-JITTER, JITTER, data.shape), 0.0, 1.0)
    data[:, 2] = 0.2 + 0.6 * data[:, 2]
    data[: rows // 2, 2] = FIXED_COMPRESSION
    levels = frng.uniform(0.1, 0.6, size=horizon)
    layers = ref.layer_arrays(net)
    torque = np.array([ref.np_forward(layers, r)[2] for r in data[: rows // 2]])
    return data, np.quantile(torque, levels)


def engine_spec(net, horizon, profile):
    return problems.EngineSpec(net=net, horizon=horizon, torque_profile=profile,
                               fuel_bounds=ENGINE_BOX[0], rpm_bounds=ENGINE_BOX[1],
                               compression_bounds=ENGINE_BOX[2])


def engine_box():
    return (np.array([b[0] for b in ENGINE_BOX]), np.array([b[1] for b in ENGINE_BOX]))


def _net_payload(net):
    layers = []
    for l in net.layers:
        layers.append({"weights": l.weights.tolist(), "bias": l.bias.tolist(),
                       "activation": l.activation.kind})
    return {"input_dim": net.input_dim, "layers": layers}


def warmstart_objective(layers, data, profile, dt=1.0, co_weight=1.0):
    """Emissions of the training-row warm start: per step, the cheapest
    fixed-compression row whose torque covers the profile."""
    rows = data[np.abs(data[:, 2] - FIXED_COMPRESSION) <= 1e-9]
    outs = np.array([ref.np_forward(layers, r) for r in rows])
    emis = outs[:, 0] + co_weight * outs[:, 1]
    return float(sum(emis[outs[:, 2] >= p].min() * dt for p in profile))


# ---------------------------------------------------------------------------
# engine: the engine-design application through the CLI
# ---------------------------------------------------------------------------

# (solver, family member, surrogate dims, horizon); README explains the choice
ENGINE_INSTANCES = [
    ("milp", 0, [3, 8, 8, 3], 1), ("milp", 1, [3, 8, 8, 3], 1),
    ("milp", 5, [3, 8, 8, 3], 1), ("milp", 8, [3, 8, 8, 3], 1),
] + [("mpcc", member, [3, 6, 6, 3], 4) for member in range(12)]


def run_cli(argv):
    """surropt.cli.main in-process; returns (exit code, parsed --json payload)."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--json"])
    text = buf.getvalue()
    return rc, (json.loads(text) if text.strip() else {})


class Engine:
    name = "engine"

    def generate(self, seed, outdir):
        insts = []
        for i, (solver, member, dims, horizon) in enumerate(ENGINE_INSTANCES):
            frng = np.random.default_rng([FAMILY_SEED, member])
            srng = np.random.default_rng([seed, i])
            net = family_net(frng, srng, dims)
            data, profile = engine_data(frng, srng, net, horizon)
            base = os.path.join(outdir, f"engine{i}")
            with open(base + ".net.json", "w") as fh:
                json.dump(_net_payload(net), fh)
            with open(base + ".train.csv", "w") as fh:
                fh.write("fuel,rpm,compression\n")
                fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in data)
            spec = {"type": "engine", "network": f"engine{i}.net.json", "horizon": horizon,
                    "torque_profile": profile.tolist(),
                    "fuel_bounds": ENGINE_BOX[0], "rpm_bounds": ENGINE_BOX[1],
                    "compression_bounds": ENGINE_BOX[2],
                    "training_data": f"engine{i}.train.csv",
                    "fixed_compression": FIXED_COMPRESSION}
            with open(base + ".json", "w") as fh:
                json.dump(spec, fh)
            insts.append({"solver": solver, "spec": base + ".json", "net": net,
                          "data": data, "profile": profile, "horizon": horizon})
        return {"instances": insts, "outdir": outdir, "check_rng": [seed, 2]}

    def ops(self, inp):
        ops = []
        for i, inst in enumerate(inp["instances"]):
            if inst["solver"] == "milp":
                ops.append(Op(f"milp{i}", "milp", lambda st, i=i, inst=inst: self._milp(
                    inst, os.path.join(inp["outdir"], f"r{st['round']}.milp{i}.lp"))))
            else:
                ops.append(Op(f"mpcc{i}", "mpcc-local",
                              lambda st, inst=inst: self._mpcc(inst)))
        return ops

    @staticmethod
    def _milp(inst, lp_path):
        """encode --tighten lp to a fresh LP file, then solve it with B&B."""
        rc1, _ = run_cli(["encode", "--problem", inst["spec"], "--formulation", "mip",
                          "--tighten", "lp", "-o", lp_path])
        rc2, out = run_cli(["solve", "--model", lp_path, "--solver", "milp"])
        return Result({"rc": (rc1, rc2), "lp": lp_path, **out},
                      (rc1, rc2, out.get("status"), out.get("objective"), out.get("nodes")),
                      failed=(rc1, rc2) != (0, 0))

    @staticmethod
    def _mpcc(inst):
        rc, out = run_cli(["solve", "--problem", inst["spec"], "--solver", "mpcc-local",
                           "--formulation", "mpcc", "--warmstart", "auto"])
        return Result({"rc": rc, **out}, (rc, out.get("status"), out.get("objective"),
                                          out.get("iterations"), out.get("nodes")),
                      failed=rc != 0)

    def check(self, inp, res):
        errors = []
        rng = np.random.default_rng(inp["check_rng"])
        lo, hi = engine_box()
        for i, inst in enumerate(inp["instances"]):
            layers = ref.layer_arrays(inst["net"])
            spec = engine_spec(inst["net"], inst["horizon"], inst["profile"])
            interval_model, _ = problems.build_engine(spec, "mip")
            hm = ref.HighsModel(interval_model)
            if inst["solver"] == "milp":
                what = f"engine milp {i}"
                r = res[f"milp{i}"].fields
                opt, _, _ = hm.solve()
                tol = ref.opt_tol(opt)
                if r.get("status") != "Optimal" or abs(r["objective"] - opt) > tol:
                    errors.append(f"{what}: {r.get('status')} {r.get('objective')!r} "
                                  f"against HiGHS {opt!r} on the interval model")
                elif r["best_bound"] > r["objective"] + tol:
                    errors.append(f"{what}: bound passes the objective")
                errors += ref.check_bounds_sidecar(r["lp"] + ".bounds.json", layers,
                                                   lo, hi, rng, 300, what)
            else:
                what = f"engine mpcc-local {i}"
                r = res[f"mpcc{i}"].fields
                if r.get("status") != "Feasible":
                    errors.append(f"{what}: status {r.get('status')}")
                    continue
                ws = warmstart_objective(layers, inst["data"], inst["profile"])
                _, _, lower = hm.solve()
                tol = ref.opt_tol(ws)
                if r["objective"] > ws + tol:
                    errors.append(f"{what}: {r['objective']!r} is worse than its "
                                  f"warm start {ws!r}")
                if r["objective"] < lower - tol:
                    errors.append(f"{what}: {r['objective']!r} beats the HiGHS "
                                  f"lower bound {lower!r}")
        return errors


# ---------------------------------------------------------------------------
# embedded: augmented Lagrangian on stacked engines and attack classifiers
# ---------------------------------------------------------------------------

# (family member, dims, horizon or None for an attack classifier). Every solve
# ends Optimal except member 5's [32, 16, 4] ReLU attack, which stalls at a kink
# for the full iteration budget; see README
EMB_INSTANCES = [
    (3, [3, 8, 3], 10), (3, [3, 8, 3], 20), (4, [3, 8, 3], 20), (1, [3, 6, 6, 3], 12),
    (8, [3, 8, 3], 10), (8, [3, 8, 3], 20),
    (0, [64, 24, 4], None), (5, [64, 24, 4], None), (8, [64, 24, 4], None),
    (11, [64, 24, 4], None), (10, [32, 16, 4], None), (6, [16, 16, 4], None),
    (7, [16, 16, 4], None), (13, [16, 16, 4], None), (5, [32, 16, 4], None),
]
ATTACK_ALPHA = 1.2


def stacked_engine(net, horizon, profile):
    """One net over all steps: inputs (fuel_0, rpm_0, ..., compression), outputs the
    T output triples; minimize NO + CO subject to torque_t >= profile_t."""
    T = horizon
    layers = []
    for li, lay in enumerate(net.layers):
        n_out, n_in = lay.weights.shape
        if li == 0:
            W = np.zeros((T * n_out, 2 * T + 1))
            for t in range(T):
                W[t * n_out:(t + 1) * n_out, 2 * t:2 * t + 2] = lay.weights[:, :2]
                W[t * n_out:(t + 1) * n_out, 2 * T] = lay.weights[:, 2]
        else:
            W = np.zeros((T * n_out, T * n_in))
            for t in range(T):
                W[t * n_out:(t + 1) * n_out, t * n_in:(t + 1) * n_in] = lay.weights
        layers.append(nn.Layer(W, np.tile(lay.bias, T), lay.activation))
    w = np.array([1.0, 1.0, 0.0] * T)
    Cy = np.zeros((T, 3 * T))
    Cy[np.arange(T), 3 * np.arange(T) + 2] = -1.0
    lo = np.array([ENGINE_BOX[0][0], ENGINE_BOX[1][0]] * T + [ENGINE_BOX[2][0]])
    hi = np.array([ENGINE_BOX[0][1], ENGINE_BOX[1][1]] * T + [ENGINE_BOX[2][1]])
    return {"net": nn.Network(tuple(layers)), "fy": w, "fx": np.zeros(2 * T + 1),
            "Cy": Cy, "Cx": np.zeros((T, 2 * T + 1)), "d": -np.asarray(profile),
            "lo": lo, "hi": hi, "quad_x": None, "start": (lo + hi) / 2.0}


def attack_problem(net, image, label):
    """min ||z - image||^2 s.t. score_label >= score_i + log(alpha), z in [0, 1]^n."""
    k = net.output_dim
    rows = [i for i in range(k) if i != label]
    Cy = np.zeros((len(rows), k))
    for r, i in enumerate(rows):
        Cy[r, i], Cy[r, label] = 1.0, -1.0
    n = net.input_dim
    return {"net": net, "fy": np.zeros(k), "fx": np.zeros(n), "Cy": Cy,
            "Cx": np.zeros((len(rows), n)), "d": np.full(len(rows), -math.log(ATTACK_ALPHA)),
            "lo": np.zeros(n), "hi": np.ones(n), "quad_x": image, "start": image.copy()}


def problem_value(p, y, x):
    """Objective f(y, x) of an embedded problem."""
    val = float(p["fy"] @ y + p["fx"] @ x)
    if p["quad_x"] is not None:
        diff = x - p["quad_x"]
        val += float(diff @ diff)
    return val


def embedded_callbacks(p):
    fy, fx, Cx, Cy, d, img = p["fy"], p["fx"], p["Cx"], p["Cy"], p["d"], p["quad_x"]
    obj = embedded.SmoothObjective(
        value=lambda y, x: problem_value(p, y, x),
        grad_x=(lambda y, x: fx) if img is None else (lambda y, x: fx + 2.0 * (x - img)),
        grad_y=lambda y, x: fy)
    cons = embedded.SmoothConstraints(value=lambda y, x: Cx @ x + Cy @ y - d,
                                      jac_x=lambda y, x: Cx, jac_y=lambda y, x: Cy)
    return obj, cons, embedded.BoxRegion(p["lo"], p["hi"])


class Embedded:
    name = "embedded"

    def generate(self, seed, outdir):
        insts = []
        for member, dims, horizon in EMB_INSTANCES:
            frng = np.random.default_rng([FAMILY_SEED, member])
            net = family_net(frng, None, dims)
            if horizon:
                data, profile = engine_data(frng, None, net, horizon)
            else:
                image = frng.uniform(0.2, 0.8, dims[0])
                label = int(np.argmin(ref.np_forward(ref.layer_arrays(net), image)))
            for kind in ("relu", "swish"):
                if horizon:
                    p = stacked_engine(twin(net, kind), horizon, profile)
                    p.update(family="engine", horizon=horizon, profile=profile)
                else:
                    p = attack_problem(twin(net, kind), image, label)
                    p.update(family="attack", label=label)
                p.update(kind=kind, base=net)
                insts.append(p)
        np.random.default_rng(seed).shuffle(insts)
        for p in insts:
            p["callbacks"] = embedded_callbacks(p)
        return {"instances": insts}

    def ops(self, inp):
        return [Op(f"emb{i}", f"{p['family']}-{p['kind']}",
                   lambda st, p=p: self._solve(p))
                for i, p in enumerate(inp["instances"])]

    @staticmethod
    def _solve(p):
        obj, cons, region = p["callbacks"]
        res, _ = embedded.embedded_solve(p["net"], obj, region, constraints=cons,
                                         start=p["start"])
        x = np.array([res.point[j] for j in range(region.dim)])
        return Result({"status": _status(res), "objective": res.objective, "x": x},
                      (_status(res), res.objective, res.iterations),
                      failed=_status(res) not in ("Optimal", "Stalled"))

    def check(self, inp, res):
        errors = []
        for i, p in enumerate(inp["instances"]):
            what = f"embedded {p['family']} {p['kind']} {i}"
            r = res[f"emb{i}"].fields
            x = r["x"]
            if np.any(x < p["lo"] - 1e-12) or np.any(x > p["hi"] + 1e-12):
                errors.append(f"{what}: point leaves the box")
            y = ref.np_forward(ref.layer_arrays(p["net"]), x)
            val = problem_value(p, y, x)
            if abs(val - r["objective"]) > ref.opt_tol(val):
                errors.append(f"{what}: reported objective {r['objective']!r}, "
                              f"forward pass gives {val!r}")
            if r["status"] not in ("Optimal", "Stalled"):
                continue  # no feasibility claimed; counted as failed
            viol = float(np.max(p["Cx"] @ x + p["Cy"] @ y - p["d"], initial=0.0))
            if viol > ref.FEAS_TOL:
                errors.append(f"{what}: constraints violated by {viol:.3e} "
                              f"under the forward pass")
            if p["kind"] == "relu":
                lower = self._lower_bound(p)
                if val < lower - ref.opt_tol(lower):
                    errors.append(f"{what}: {val!r} beats the HiGHS bound {lower!r}")
        return errors

    @staticmethod
    def _lower_bound(p):
        """Valid lower bound on the ReLU instance's optimum from HiGHS.

        Engine: the big-M engine MIP. Attack: the l-inf attack MIP, since
        ||d||_2^2 >= ||d||_inf^2.
        """
        if p["family"] == "engine":
            m, _ = problems.build_engine(engine_spec(p["base"], p["horizon"],
                                                     p["profile"]), "mip")
            return ref.HighsModel(m).solve()[2]
        spec = problems.AttackSpec(net=p["base"], image=p["quad_x"], target_label=p["label"],
                                   alpha=ATTACK_ALPHA, norm="linf")
        m, _ = problems.build_attack(spec, "mip")
        t = max(0.0, ref.HighsModel(m).solve()[2])
        return t * t


WORKLOADS = {w.name: w for w in (Pool(), Engine(), Embedded())}
