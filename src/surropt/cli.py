"""Command-line surface: encode problems to LP files, run the solvers, and
analyze networks (regions, general position, stationarity, region counts).

Exit code 0 means the requested operation succeeded; every command offers
machine-readable output via --json.  SURROPT_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import io as sio
from . import regions as rg
from . import stationarity as st
from .encoders import EXACT_MIP, INTERVAL, LP_RELAX
from .nn import Network, random_network, sign_partition
from .problems import (
    MIP,
    MPCC,
    AttackSpec,
    EngineSpec,
    build_attack,
    build_engine,
    build_oilwell,
    feasible_point_attack,
    warmstart_engine,
)
from .solvers.branch_bound import milp_solve
from .solvers.embedded import BoxRegion, SmoothObjective, embedded_solve
from .solvers.pattern import mpcc_local_solve, pattern_enumerate_solve
from .solvers.result import Status
from .solvers.simplex import lp_solve

TIGHTEN_MODES = {"interval": INTERVAL, "lp": LP_RELAX, "mip": EXACT_MIP}


def _load_net_arg(args) -> Network:
    if getattr(args, "random_net", None):
        dims = [int(d) for d in args.random_net.split(",")]
        rng = np.random.default_rng(args.seed)
        return random_network(rng, dims)
    if not getattr(args, "net", None):
        raise SystemExit("either --net or --random-net is required")
    return sio.load_network(args.net)


def _build_problem(bundle, formulation, tighten, bounds_path):
    if bundle.kind == "engine":
        bounds = None
        if formulation == MIP:
            bounds = sio.cached_tighten(bundle.spec.net, bundle.spec.input_box(),
                                        TIGHTEN_MODES[tighten], bounds_path)
        return build_engine(bundle.spec, formulation, bounds=bounds)
    if bundle.kind == "attack":
        bounds = None
        if formulation == MIP:
            bounds = sio.cached_tighten(bundle.spec.net, bundle.spec.pixel_box(),
                                        TIGHTEN_MODES[tighten], bounds_path)
        return build_attack(bundle.spec, formulation, bounds=bounds)
    return build_oilwell(bundle.spec, formulation)


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


def cmd_encode(args) -> int:
    bundle = sio.load_problem_spec(args.problem)
    if args.hull is not None:
        if bundle.kind != "engine":
            raise SystemExit("--hull applies to engine problems")
        bundle.spec.hull_points = sio.load_training(args.hull).data[:, :3]
    bounds_path = args.output + ".bounds.json"
    model, _ = _build_problem(bundle, args.formulation, args.tighten, bounds_path)
    sio.export_lp(model, args.output, allow_lossy=args.allow_lossy)
    payload = {
        "model": args.output,
        "variables": model.num_variables,
        "binaries": model.num_binaries(),
        "complementarities": model.num_complementarities(),
        "constraints": len(model.constraints),
    }
    _emit(args, payload, [
        f"wrote {args.output}",
        f"variables: {payload['variables']}  binaries: {payload['binaries']}  "
        f"complementarities: {payload['complementarities']}  "
        f"constraints: {payload['constraints']}",
    ])
    return 0


def _engine_embedded(spec: EngineSpec):
    """Stacked single-network view of the engine problem for the embedded solver.

    Input layout: (fuel_0, rpm_0, ..., fuel_{T-1}, rpm_{T-1}, compression);
    outputs are the T surrogate output triples concatenated.
    """
    from .nn import Layer

    T = spec.horizon
    net = spec.net
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
        layers.append(Layer(W, np.tile(lay.bias, T), lay.activation))
    stacked = Network(tuple(layers))

    w = np.array([spec.dt, spec.co_weight * spec.dt, 0.0] * T)
    objective = st.linear_objective(np.zeros(2 * T + 1), w)
    Cy = np.zeros((T, 3 * T))
    for t in range(T):
        Cy[t, 3 * t + 2] = -1.0  # profile_t - torque_t <= 0
    constraints = st.linear_inequalities(np.zeros((T, 2 * T + 1)), Cy,
                                         -spec.torque_profile)
    lo = np.array([spec.fuel_bounds[0], spec.rpm_bounds[0]] * T
                  + [spec.compression_bounds[0]])
    hi = np.array([spec.fuel_bounds[1], spec.rpm_bounds[1]] * T
                  + [spec.compression_bounds[1]])
    return stacked, objective, constraints, BoxRegion(lo, hi)


def _attack_embedded(spec: AttackSpec):
    if spec.norm != "l2":
        raise SystemExit("embedded attack solves use the l2 norm")
    x = spec.image
    objective = SmoothObjective(
        value=lambda y, z: float((z - x) @ (z - x)),
        grad_x=lambda y, z: 2.0 * (z - x),
        grad_y=lambda y, z: np.zeros(spec.net.output_dim),
    )
    l = spec.target_label
    rows = [i for i in range(spec.net.output_dim) if i != l]
    Cy = np.zeros((len(rows), spec.net.output_dim))
    for r, i in enumerate(rows):
        Cy[r, i] = 1.0
        Cy[r, l] = -1.0
    constraints = st.linear_inequalities(np.zeros((len(rows), spec.net.input_dim)), Cy,
                                         np.full(len(rows), -spec.margin()))
    lo, hi = spec.pixel_box()
    return spec.net, objective, constraints, BoxRegion(lo, hi)


def _auto_warmstart(bundle, model, handles):
    if bundle.kind == "engine":
        if bundle.training_inputs is None or bundle.fixed_compression is None:
            raise SystemExit("auto warmstart needs training_data and "
                             "fixed_compression in the problem spec")
        return warmstart_engine(bundle.spec, model, handles,
                                bundle.training_inputs, bundle.fixed_compression)
    if bundle.kind == "attack":
        if bundle.seeds is None:
            raise SystemExit("auto warmstart needs seeds_csv in the problem spec")
        return feasible_point_attack(bundle.spec, model, handles, bundle.seeds)
    raise SystemExit(f"auto warmstart is not available for {bundle.kind}")


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    trace_records = None
    if args.model:
        model = sio.import_lp(args.model)
        if args.solver not in ("milp", "lp"):
            raise SystemExit("imported LP models support --solver milp (handles "
                             "for pattern solvers come from --problem)")
        res = (milp_solve(model, max_nodes=args.max_nodes, time_limit=args.time_limit)
               if model.num_binaries() else lp_solve(model))
    else:
        if not args.problem:
            raise SystemExit("--model or --problem is required")
        bundle = sio.load_problem_spec(args.problem)
        if args.solver == "embedded":
            if bundle.kind == "engine":
                net, obj, cons, region = _engine_embedded(bundle.spec)
            elif bundle.kind == "attack":
                net, obj, cons, region = _attack_embedded(bundle.spec)
            else:
                raise SystemExit("embedded solves support engine and attack "
                                 "problems (oil-well routing is binary)")
            res, trace_records = embedded_solve(
                net, obj, region, constraints=cons,
                max_iter=args.max_iter, tol=args.tol)
        else:
            formulation = MPCC if args.solver in ("mpcc-local", "oracle") and \
                args.formulation == "auto" else (
                    MIP if args.formulation == "auto" else args.formulation)
            bounds_path = args.problem + ".bounds.json"
            model, handles = _build_problem(bundle, formulation, args.tighten, bounds_path)
            emb = _problem_embeddings(bundle, handles)
            warm = None
            if args.warmstart:
                if args.warmstart == "auto":
                    warm = _auto_warmstart(bundle, model, handles).point
                else:
                    with open(args.warmstart) as fh:
                        raw = json.load(fh)
                    warm = {int(k): float(v) for k, v in raw.items()}
            if args.solver == "milp":
                res = milp_solve(model, warmstart=warm,
                                 max_nodes=args.max_nodes, time_limit=args.time_limit)
            elif args.solver == "oracle":
                res = pattern_enumerate_solve(model, emb)
            elif args.solver == "mpcc-local":
                if formulation != MPCC:
                    raise SystemExit("mpcc-local needs --formulation mpcc")
                if warm is not None:
                    res = mpcc_local_solve(model, emb, start=warm)
                else:
                    start_pat = _default_start_pattern(bundle)
                    res = mpcc_local_solve(model, emb, start_pattern=start_pat)
            else:
                raise SystemExit(f"unknown solver {args.solver!r}")
    elapsed = time.perf_counter() - t0
    if args.trace:
        if trace_records is None:
            raise SystemExit("--trace applies to the embedded solver")
        sio.write_trace(trace_records, args.trace)
    payload = {
        "status": res.status.value,
        "objective": None if math.isnan(res.objective) else res.objective,
        "best_bound": None if math.isnan(res.best_bound) else res.best_bound,
        "iterations": res.iterations,
        "nodes": res.nodes,
        "kkt_residual": None if math.isnan(res.kkt_residual) else res.kkt_residual,
        "seconds": round(elapsed, 6),
    }
    _emit(args, payload, [
        f"status: {payload['status']}",
        f"objective: {payload['objective']}  bound: {payload['best_bound']}",
        f"iterations: {res.iterations}  nodes: {res.nodes}  time: {elapsed:.3f}s",
    ])
    return 0 if res.status in (Status.OPTIMAL, Status.FEASIBLE) else 1


def _problem_embeddings(bundle, handles):
    if bundle.kind == "engine":
        return handles.embeddings
    if bundle.kind == "attack":
        return [handles.embedding]
    return (list(handles.well_embeddings.values())
            + list(handles.riser_embeddings.values()))


def _default_start_pattern(bundle):
    if bundle.kind == "engine":
        spec = bundle.spec
        lo, hi = spec.input_box()
        x = (lo + hi) / 2.0
        # stacked label space: (embedding index, neuron id)
        pats = set()
        part = sign_partition(spec.net, x)
        for t in range(spec.horizon):
            pats |= {(t, nid) for nid in part.active}
        return frozenset(pats)
    if bundle.kind == "attack":
        seeds = bundle.seeds if bundle.seeds is not None else [bundle.spec.image]
        part = sign_partition(bundle.spec.net, np.asarray(seeds)[0])
        return frozenset({(0, nid) for nid in part.active})
    raise SystemExit("mpcc-local needs a warmstart for oil-well problems")


def cmd_analyze(args) -> int:
    if args.zaslavsky:
        m, d = (int(v) for v in args.zaslavsky)
        count = rg.zaslavsky_count(m, d)
        _emit(args, {"zaslavsky": count, "m": m, "d": d},
              [f"zaslavsky({m}, {d}) = {count}"])
        return 0
    net = _load_net_arg(args)
    if args.regions:
        pats = rg.enumerate_nonempty_patterns(net, max_neurons=args.max_neurons)
        payload = {
            "hidden_neurons": net.num_hidden_relu(),
            "nonempty_patterns": len(pats),
        }
        _emit(args, payload, [
            f"hidden ReLU neurons: {payload['hidden_neurons']}",
            f"nonempty activation patterns: {payload['nonempty_patterns']}",
        ])
        return 0
    if args.general_position:
        with open(args.general_position) as fh:
            x = np.asarray(json.load(fh)["x"], dtype=float)
        verdict = rg.general_position_check(net, x)
        part = sign_partition(net, x)
        payload = {"general_position": bool(verdict),
                   "degenerate_neurons": len(part.degenerate)}
        _emit(args, payload, [
            f"degenerate neurons at x: {payload['degenerate_neurons']}",
            f"general position: {verdict}",
        ])
        return 0
    if args.stationarity:
        with open(args.stationarity) as fh:
            doc = json.load(fh)
        x = np.asarray(doc["x"], dtype=float)
        f = st.linear_objective(doc["f_x"], doc["f_y"], doc.get("f_const", 0.0))
        c = None
        if "C_x" in doc:
            c = st.linear_inequalities(doc["C_x"], doc["C_y"], doc["d"])
        mu = np.asarray(doc["mu"], dtype=float) if "mu" in doc else None
        cert = st.check_embedded_stationarity(net, x, f, c, mu=mu)
        point = st.hidden_point(net, x)
        nu1, nu2 = st.nus_from_kappa(net, point, f, c, cert.mu, cert.kappa)
        strong = st.check_strong_stationarity(net, point, f, c, mu=cert.mu,
                                              nu1=nu1, nu2=nu2)
        payload = {"embedded": cert.to_payload(), "strong": strong.to_payload()}
        human = ["embedded check:"]
        human += [f"  {k}: {v:.3e}" for k, v in cert.residuals.items()]
        human.append(f"  accepted: {cert.accepted} (general position: "
                     f"{cert.hypothesis_ok}, vertices: {cert.vertex_count})")
        human.append("lifted (complementarity) check:")
        human += [f"  {k}: {v:.3e}" for k, v in strong.residuals.items()]
        human.append(f"  accepted: {strong.accepted}")
        _emit(args, payload, human)
        return 0
    raise SystemExit("choose one of --regions, --general-position, "
                     "--stationarity, --zaslavsky")


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subparser defaults from clobbering flags given before the
    # subcommand; main() fills the fallbacks after parsing
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for generated networks")
    p = argparse.ArgumentParser(
        prog="surropt", parents=[common],
        description="Optimization over trained ReLU/swish network surrogates.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("encode", parents=[common],
                        help="compile a problem spec to an LP file")
    pe.add_argument("--problem", required=True, help="problem spec JSON")
    pe.add_argument("--formulation", choices=[MIP, MPCC], default=MIP)
    pe.add_argument("--tighten", choices=list(TIGHTEN_MODES), default="lp")
    pe.add_argument("--hull", help="training CSV for convex-hull input rows")
    pe.add_argument("--allow-lossy", action="store_true",
                    help="export complementarities as comments")
    pe.add_argument("-o", "--output", required=True)
    pe.set_defaults(func=cmd_encode)

    ps = sub.add_parser("solve", parents=[common],
                        help="solve a problem or an exported model")
    ps.add_argument("--model", help="LP file from 'encode'")
    ps.add_argument("--problem", help="problem spec JSON")
    ps.add_argument("--formulation", choices=[MIP, MPCC, "auto"], default="auto")
    ps.add_argument("--tighten", choices=list(TIGHTEN_MODES), default="lp")
    ps.add_argument("--solver", required=True,
                    choices=["milp", "mpcc-local", "embedded", "oracle"])
    ps.add_argument("--warmstart", help="'auto' or a JSON point file")
    ps.add_argument("--trace", help="CSV path for embedded-solver traces")
    ps.add_argument("--max-nodes", type=int, default=100000)
    ps.add_argument("--max-iter", type=int, default=3000)
    ps.add_argument("--time-limit", type=float, default=None)
    ps.add_argument("--tol", type=float, default=1e-6)
    ps.set_defaults(func=cmd_solve)

    pa = sub.add_parser("analyze", parents=[common],
                        help="network geometry and stationarity reports")
    pa.add_argument("--net", help="network JSON file")
    pa.add_argument("--random-net", help="comma-separated dims, e.g. 2,5,1")
    pa.add_argument("--regions", action="store_true",
                    help="enumerate nonempty activation patterns")
    pa.add_argument("--max-neurons", type=int, default=20)
    pa.add_argument("--general-position", help="JSON file with {'x': [...]}")
    pa.add_argument("--stationarity", help="JSON file with point and gradients")
    pa.add_argument("--zaslavsky", nargs=2, metavar=("M", "D"),
                    help="region count for M hyperplanes in D dimensions")
    pa.set_defaults(func=cmd_analyze)
    return p


def _log_level() -> int:
    name = os.environ.get("SURROPT_LOG", "WARNING").upper()
    level = logging.getLevelName(name)  # the number for a known name
    if not isinstance(level, int):
        raise ValueError(f"SURROPT_LOG={name!r} is not a logging level name "
                         "such as DEBUG or WARNING")
    return level


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, fallback in (("json", False), ("seed", 0)):
        if not hasattr(args, name):
            setattr(args, name, fallback)
    try:
        logging.basicConfig(level=_log_level())
        return args.func(args)
    except (sio.FormatError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
