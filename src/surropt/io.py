"""File formats: network weights (JSON), training tables and solver traces
(CSV), model export/import (LP text), big-M bound caches (JSON) and problem
specs (JSON).

All numeric serialization uses Python's shortest round-trip float repr, so
save -> load -> save is byte-identical and lossless.  Network weight matrices
are stored row-major as (fan_out, fan_in), row = neuron, matching the
in-memory convention (the transpose-prone alternative is never used).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .encoders import BigMBounds
from .model import BINARY, CONTINUOUS, EQ, GE, LE, MAX, MIN, LinearExpr, Model
from .nn import Activation, Layer, Network, NeuronId

INF = float("inf")


class FormatError(Exception):
    """A file failed to parse or violated its schema."""


# ---------------------------------------------------------------------------
# network JSON
# ---------------------------------------------------------------------------


def network_to_payload(net: Network) -> dict:
    layers = []
    for lay in net.layers:
        entry = {
            "weights": [[float(w) for w in row] for row in lay.weights],
            "bias": [float(b) for b in lay.bias],
            "activation": lay.activation.kind,
        }
        if lay.activation.kind == "swish":
            entry["beta"] = float(lay.activation.beta)
        layers.append(entry)
    return {"input_dim": net.input_dim, "layers": layers}


def network_from_payload(doc: dict, where: str = "<network>") -> Network:
    if not isinstance(doc, dict) or "layers" not in doc:
        raise FormatError(f"{where}: expected an object with a 'layers' list")
    layers = []
    for k, entry in enumerate(doc["layers"]):
        ctx = f"{where}: layer {k}"
        try:
            kind = entry["activation"]
            beta = float(entry.get("beta", 1.0))
            act = Activation(kind, beta)
            lay = Layer(np.array(entry["weights"], dtype=float),
                        np.array(entry["bias"], dtype=float), act)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{ctx}: {exc}") from exc
        layers.append(lay)
    try:
        net = Network(tuple(layers))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    if "input_dim" in doc and doc["input_dim"] != net.input_dim:
        raise FormatError(f"{where}: input_dim {doc['input_dim']} does not match "
                          f"the first layer ({net.input_dim})")
    return net


def save_network(net: Network, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_payload(net), fh, indent=2)
        fh.write("\n")


def load_network(path) -> Network:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return network_from_payload(doc, where=str(path))


# ---------------------------------------------------------------------------
# training tables and traces (CSV)
# ---------------------------------------------------------------------------


@dataclass
class TrainingTable:
    columns: list
    data: np.ndarray  # K x len(columns)

    @property
    def num_rows(self) -> int:
        return self.data.shape[0]


def load_training(path) -> TrainingTable:
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise FormatError(f"{path}: need a header and at least one data row")
    header = [c.strip() for c in rows[0]]
    width = len(header)
    data = []
    for ln, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise FormatError(f"{path}: line {ln}: expected {width} cells, got {len(row)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            raise FormatError(f"{path}: line {ln}: {exc}") from exc
    return TrainingTable(header, np.array(data, dtype=float))


TRACE_HEADER = "iter,objective,primal_inf,dual_inf"


def write_trace(records, path) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.iteration},{rec.objective!r},"
                     f"{rec.primal_infeasibility!r},{rec.dual_infeasibility!r}\n")


def read_trace(path):
    from .solvers.result import TraceRecord

    table = load_training(path)
    if table.columns != TRACE_HEADER.split(","):
        raise FormatError(f"{path}: unexpected trace header {table.columns}")
    return [TraceRecord(int(it), obj, p, d) for it, obj, p, d in table.data]


# ---------------------------------------------------------------------------
# LP text export / import
# ---------------------------------------------------------------------------


class LossyExportError(ValueError):
    """The model holds complementarity pairs the LP text cannot represent."""


def _num(v: float) -> str:
    return repr(float(v))


def _terms_str(pairs) -> str:
    parts = []
    for coef, name in pairs:
        sign = "-" if coef < 0 else "+"
        token = f"{sign} {_num(abs(coef))} {name}"
        parts.append(token)
    if not parts:
        return "0"
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else joined


def export_lp(model: Model, path, allow_lossy: bool = False) -> None:
    """CPLEX-style LP text with deterministic ordering.

    Quadratic objectives use the bracketed ``[ ... ] / 2`` section (stored
    coefficients doubled, exactly recoverable).  Complementarity pairs are not
    LP-representable; with ``allow_lossy`` they are written as comments
    (which this package's importer restores, other tools will drop).
    """
    names = [v.name for v in model.variables]
    if len(set(names)) != len(names):
        raise ValueError("variable names must be unique for LP export")
    for name in names + [c.tag for c in model.constraints]:
        if ":" in name or any(ch.isspace() for ch in name):
            raise ValueError(f"name {name!r} cannot carry ':' or spaces in LP text")
    if model.complementarities and not allow_lossy:
        raise LossyExportError(
            "model has complementarity pairs; pass allow_lossy=True to export "
            "them as comments")
    lines = ["\\ surropt LP export"]
    if model.metadata:
        for key in sorted(model.metadata):
            lines.append(f"\\ meta: {key}={model.metadata[key]}")
    obj = model.objective
    if obj.linear.constant:
        lines.append(f"\\ objective_constant: {_num(obj.linear.constant)}")
    if model.complementarities:
        agg = " + ".join(f"{names[p.a]} * {names[p.b]}" for p in model.complementarities)
        lines.append(f"\\ aggregated_complementarity: {agg} <= 0")
        for pair in model.complementarities:
            lines.append(f"\\ complementarity: {names[pair.a]} {names[pair.b]}")
    lines.append("Minimize" if obj.sense == MIN else "Maximize")
    terms = sorted(obj.linear.terms.items())
    body = _terms_str([(c, names[v]) for v, c in terms])
    if obj.quadratic:
        quad_parts = []
        for i, j, c in obj.quadratic:
            if i == j:
                quad_parts.append((2.0 * c, f"{names[i]} ^ 2"))
            else:
                quad_parts.append((2.0 * c, f"{names[i]} * {names[j]}"))
        quad = _terms_str(quad_parts)
        body = f"{body} + [ {quad} ] / 2" if body != "0" else f"[ {quad} ] / 2"
    lines.append(f" obj: {body}")
    lines.append("Subject To")
    for r, con in enumerate(model.constraints):
        name = con.tag if con.tag else f"c{r}"
        body = _terms_str([(c, names[v]) for v, c in sorted(con.expr.terms.items())])
        rhs = con.rhs - con.expr.constant
        lines.append(f" {name}: {body} {con.sense} {_num(rhs)}")
    lines.append("Bounds")
    for var in model.variables:
        lo, hi = var.lower, var.upper
        if lo == -INF and hi == INF:
            lines.append(f" {var.name} free")
        elif lo == hi:
            lines.append(f" {var.name} = {_num(lo)}")
        else:
            lo_s = "-inf" if lo == -INF else _num(lo)
            hi_s = "+inf" if hi == INF else _num(hi)
            lines.append(f" {lo_s} <= {var.name} <= {hi_s}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_terms(tokens, names_to_id, where):
    """Parse 'coef name' runs with +/- separators into a terms dict."""
    terms = {}
    sign = 1.0
    k = 0
    while k < len(tokens):
        tok = tokens[k]
        if tok == "+":
            sign = 1.0
            k += 1
            continue
        if tok == "-":
            sign = -1.0
            k += 1
            continue
        try:
            coef = float(tok)
        except ValueError as exc:
            raise FormatError(f"{where}: expected a coefficient, got {tok!r}") from exc
        if k + 1 >= len(tokens):
            if coef == 0.0 and not terms:
                return terms  # bare '0' objective
            raise FormatError(f"{where}: dangling coefficient {tok!r}")
        name = tokens[k + 1]
        if name not in names_to_id:
            raise FormatError(f"{where}: unknown variable {name!r}")
        vid = names_to_id[name]
        terms[vid] = terms.get(vid, 0.0) + sign * coef
        sign = 1.0
        k += 2
    return terms


def import_lp(path) -> Model:
    """Rebuild a model from this package's LP text (structural round trip)."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    comments = [ln[1:].strip() for ln in raw if ln.lstrip().startswith("\\")]
    lines = [ln.strip() for ln in raw
             if ln.strip() and not ln.lstrip().startswith("\\")]

    sections = {"objective": [], "rows": [], "bounds": [], "binaries": []}
    sense = MIN
    cur = None
    for ln in lines:
        low = ln.lower()
        if low in ("minimize", "maximize"):
            sense = MIN if low == "minimize" else MAX
            cur = "objective"
        elif low == "subject to":
            cur = "rows"
        elif low == "bounds":
            cur = "bounds"
        elif low in ("binaries", "binary"):
            cur = "binaries"
        elif low == "end":
            cur = None
        else:
            if cur is None:
                raise FormatError(f"{path}: stray line {ln!r}")
            sections[cur].append(ln)

    model = Model()
    names_to_id = {}
    binary_names = {ln.strip() for ln in sections["binaries"]}
    for ln in sections["bounds"]:
        toks = ln.split()
        if len(toks) == 2 and toks[1] == "free":
            name, lo, hi = toks[0], -INF, INF
        elif len(toks) == 3 and toks[1] == "=":
            name, lo, hi = toks[0], float(toks[2]), float(toks[2])
        elif len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            name = toks[2]
            lo = -INF if toks[0] == "-inf" else float(toks[0])
            hi = INF if toks[4] == "+inf" else float(toks[4])
        else:
            raise FormatError(f"{path}: bad bounds line {ln!r}")
        kind = BINARY if name in binary_names else CONTINUOUS
        names_to_id[name] = model.add_variable(name, kind=kind, lower=lo, upper=hi)

    obj_text = " ".join(sections["objective"])
    if ":" in obj_text:
        obj_text = obj_text.split(":", 1)[1]
    quad = []
    toks = obj_text.split()
    if "[" in toks:
        # the quadratic section's brackets are standalone tokens; variable
        # names carry brackets without surrounding spaces
        start, end = toks.index("["), toks.index("]")
        qtoks = toks[start + 1:end]
        tail = toks[end + 1:]
        if tail not in (["/", "2"], []):
            raise FormatError(f"{path}: unexpected quadratic suffix {tail!r}")
        lin_toks = toks[:start]
        if lin_toks and lin_toks[-1] == "+":
            lin_toks.pop()
        obj_text = " ".join(lin_toks)
        sign = 1.0
        k = 0
        while k < len(qtoks):
            tok = qtoks[k]
            if tok in ("+", "-"):
                sign = 1.0 if tok == "+" else -1.0
                k += 1
                continue
            coef = float(tok) * sign / 2.0
            a = qtoks[k + 1]
            if k + 3 < len(qtoks) and qtoks[k + 2] == "^":
                quad.append((names_to_id[a], names_to_id[a], coef))
                k += 4
            elif k + 3 < len(qtoks) and qtoks[k + 2] == "*":
                quad.append((names_to_id[a], names_to_id[qtoks[k + 3]], coef))
                k += 4
            else:
                raise FormatError(f"{path}: bad quadratic term near {a!r}")
            sign = 1.0
    const = 0.0
    for com in comments:
        if com.startswith("objective_constant:"):
            const = float(com.split(":", 1)[1])
    terms = _parse_terms(obj_text.split(), names_to_id, f"{path}: objective")
    model.set_objective(sense, LinearExpr(terms, const), quadratic=quad)

    for ln in sections["rows"]:
        where = f"{path}: row {ln!r}"
        if ":" not in ln:
            raise FormatError(f"{where}: missing name")
        name, body = ln.split(":", 1)
        toks = body.split()
        sense_pos = [k for k, t in enumerate(toks) if t in (LE, GE, EQ)]
        if len(sense_pos) != 1:
            raise FormatError(f"{where}: expected exactly one of <=, =, >=")
        k = sense_pos[0]
        terms = _parse_terms(toks[:k], names_to_id, where)
        rhs = float(toks[k + 1])
        model.add_constraint(terms, toks[k], rhs, tag=name.strip())

    for com in comments:
        if com.startswith("complementarity:"):
            a_name, b_name = com.split(":", 1)[1].split()
            model.add_complementarity(names_to_id[a_name], names_to_id[b_name])
        elif com.startswith("meta: "):
            key, _, val = com[len("meta: "):].partition("=")
            model.metadata[key] = val
    return model


# ---------------------------------------------------------------------------
# big-M bound cache
# ---------------------------------------------------------------------------


def network_box_hash(net: Network, box) -> str:
    lo, hi = box
    payload = {
        "net": network_to_payload(net),
        "box": [[float(v) for v in np.asarray(lo).reshape(-1)],
                [float(v) for v in np.asarray(hi).reshape(-1)]],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_bounds_cache(bounds: BigMBounds, key: str, path) -> None:
    """Cache layout: 0-based hidden-layer indices, matching NeuronId."""
    neurons = [
        {"layer": nid.layer, "index": nid.index,
         "My": float(bounds.my[nid]), "Ms": float(bounds.ms[nid]),
         "method": bounds.method}
        for nid in sorted(bounds.my)
    ]
    doc = {"hash": key, "method": bounds.method, "neurons": neurons}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_bounds_cache(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        my = {NeuronId(n["layer"], n["index"]): float(n["My"]) for n in doc["neurons"]}
        ms = {NeuronId(n["layer"], n["index"]): float(n["Ms"]) for n in doc["neurons"]}
        return BigMBounds(my, ms, doc.get("method", "interval")), doc["hash"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad bounds cache: {exc}") from exc


def cached_tighten(net: Network, box, mode: str, path):
    """Bounds from the sidecar cache when its content hash matches, else compute."""
    from .encoders import INTERVAL, interval_bounds, tighten_bounds

    key = network_box_hash(net, box) + f":{mode}"
    if path and os.path.exists(path):
        try:
            bounds, cached_key = load_bounds_cache(path)
            if cached_key == key:
                return bounds
        except FormatError:
            pass
    if mode == INTERVAL:
        bounds = interval_bounds(net, box)
    else:
        bounds = tighten_bounds(net, box, mode=mode)
    if path:
        save_bounds_cache(bounds, key, path)
    return bounds


# ---------------------------------------------------------------------------
# problem specs
# ---------------------------------------------------------------------------


@dataclass
class ProblemBundle:
    kind: str  # engine | attack | oilwell
    spec: object
    training_inputs: np.ndarray | None = None
    seeds: np.ndarray | None = None
    fixed_compression: float | None = None


def _resolve(base_dir, rel):
    return rel if os.path.isabs(rel) else os.path.join(base_dir, rel)


def load_problem_spec(path) -> ProblemBundle:
    """Problem JSON: {"type": "engine"|"attack"|"oilwell", ...}; relative file
    references resolve against the spec's directory."""
    from .problems import AttackSpec, EngineSpec, OilwellSpec

    with open(path) as fh:
        doc = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    kind = doc.get("type")
    if kind == "engine":
        net = load_network(_resolve(base, doc["network"]))
        if "torque_profile" in doc:
            profile = np.asarray(doc["torque_profile"], dtype=float)
        else:
            profile = load_training(_resolve(base, doc["torque_profile_csv"])).data[:, 0]
        hull = None
        training = None
        if "hull_data" in doc:
            hull = load_training(_resolve(base, doc["hull_data"])).data[:, :3]
        if "training_data" in doc:
            training = load_training(_resolve(base, doc["training_data"])).data[:, :3]
            if hull is None and doc.get("hull_from_training", False):
                hull = training
        spec = EngineSpec(
            net=net, horizon=int(doc["horizon"]), torque_profile=profile,
            fuel_bounds=tuple(doc["fuel_bounds"]), rpm_bounds=tuple(doc["rpm_bounds"]),
            compression_bounds=tuple(doc["compression_bounds"]),
            co_weight=float(doc.get("co_weight", 1.0)), dt=float(doc.get("dt", 1.0)),
            hull_points=hull,
        )
        return ProblemBundle("engine", spec, training_inputs=training,
                             fixed_compression=doc.get("fixed_compression"))
    if kind == "attack":
        net = load_network(_resolve(base, doc["network"]))
        seeds = None
        if "seeds_csv" in doc:
            seeds = load_training(_resolve(base, doc["seeds_csv"])).data
        spec = AttackSpec(
            net=net, image=np.asarray(doc["image"], dtype=float),
            target_label=int(doc["target_label"]),
            alpha=float(doc.get("alpha", 1.2)), norm=doc.get("norm", "l2"),
            pixel_eps=doc.get("pixel_eps"),
            adjacency=[tuple(p) for p in doc["adjacency"]] if "adjacency" in doc else None,
            adjacency_eps=doc.get("adjacency_eps"),
        )
        return ProblemBundle("attack", spec, seeds=seeds)
    if kind == "oilwell":
        def edge(s):
            a, _, b = s.partition("->")
            return (a, b)

        well_nets = {w: load_network(_resolve(base, p))
                     for w, p in doc["well_networks"].items()}
        riser_nets = {edge(k): load_network(_resolve(base, p))
                      for k, p in doc["riser_networks"].items()}
        flow_bounds = {}
        for key, per_cmd in doc["flow_bounds"].items():
            for cmd, pair in per_cmd.items():
                flow_bounds[(edge(key), cmd)] = (float(pair[0]), float(pair[1]))
        spec = OilwellSpec(
            wells=list(doc["wells"]), manifolds=list(doc["manifolds"]),
            separators=list(doc["separators"]),
            discrete_edges=[edge(e) for e in doc["discrete_edges"]],
            riser_edges=[edge(e) for e in doc["riser_edges"]],
            well_nets=well_nets, riser_nets=riser_nets,
            gas_oil_ratio={k: float(v) for k, v in doc["gas_oil_ratio"].items()},
            water_oil_ratio={k: float(v) for k, v in doc["water_oil_ratio"].items()},
            flow_bounds=flow_bounds,
            pressure_bounds={k: (float(v[0]), float(v[1]))
                             for k, v in doc["pressure_bounds"].items()},
            big_m={edge(k): float(v) for k, v in doc["big_m"].items()},
            well_pressure={k: float(v) for k, v in doc["well_pressure"].items()},
        )
        return ProblemBundle("oilwell", spec)
    raise FormatError(f"{path}: unknown problem type {kind!r}")
