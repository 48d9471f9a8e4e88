"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each traced surropt function, under every name a
surropt module bound it to, with a wrapper that records a span (layer, start,
end, parent, operation) and the layer's counts. Calls made inside the package
therefore pass through the wrappers; the program's source is not touched.
A layer's self time is its spans' durations minus the time their child spans
cover. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


import references as ref

# (module, attribute, layer); a layer also owns the LP solves made under it
TRACED = [
    ("surropt.solvers.simplex", "solve_standard_form", "simplex"),
    ("surropt.solvers.simplex", "standard_form", "standard_form"),
    ("surropt.solvers.branch_bound", "milp_solve", "bb"),
    ("surropt.solvers.pattern", "pattern_enumerate_solve", "oracle"),
    ("surropt.solvers.pattern", "mpcc_local_solve", "mpcc"),
    ("surropt.regions", "enumerate_nonempty_patterns", "regions"),
    ("surropt.stationarity", "check_strong_stationarity", "stationarity"),
    ("surropt.stationarity", "extract_mpcc_multipliers", "stationarity"),
    ("surropt.encoders", "encode_mip", "encode"),
    ("surropt.encoders", "encode_mpcc", "encode"),
    ("surropt.encoders", "tighten_bounds", "tighten"),
    ("surropt.problems", "build_engine", "build"),
    ("surropt.problems", "build_attack", "build"),
    ("surropt.problems", "warmstart_engine", "warmstart"),
    ("surropt.io", "export_lp", "export"),
    ("surropt.io", "import_lp", "import"),
    ("surropt.cli", "main", "cli"),
    ("surropt.solvers.embedded", "embedded_solve", "embedded"),
    ("surropt.nn", "forward", "forward"),
    ("surropt.nn", "jacobian", "jacobian"),
    # the embedded solver's Jacobian (ReLU pieces and the swish chain rule)
    ("surropt.solvers.embedded", "_dnn_jacobian", "jacobian"),
]

OWNERS = ("bb", "oracle", "mpcc", "regions", "tighten")


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1, operation]
        self.stack = []  # [span index, layer, owner, child seconds]
        self.op = None  # operation label; spans are kept only while it is set
        self.round = 0
        self.counts = defaultdict(lambda: defaultdict(float))  # round -> name -> value
        self.self_s = defaultdict(lambda: defaultdict(float))  # round -> layer -> s
        self.incl_s = defaultdict(lambda: defaultdict(float))  # round -> layer -> s

    def install(self):
        """Wrap every traced function under each surropt name bound to it."""
        mods = [m for name, m in sys.modules.items()
                if name == "surropt" or name.startswith("surropt.")]
        for modname, attr, layer in TRACED:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, layer)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, layer):
        observe = getattr(self, f"_observe_{layer}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            owner = layer if layer in OWNERS else (parent[2] if parent else None)
            idx = len(self.spans)
            frame = [idx, layer, owner, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                dur = end - start
                self.spans.append([layer, start, end, parent[0] if parent else -1, self.op])
                self.self_s[self.round][layer] += dur - frame[3]
                self.incl_s[self.round][layer] += dur
                if parent is not None:
                    parent[3] += dur
            if observe is not None:
                observe(self.counts[self.round], owner, args, kwargs, out)
            return out

        return wrapper

    # counts taken at the span boundaries -------------------------------------

    @staticmethod
    def _observe_simplex(c, owner, args, kwargs, out):
        c["simplex.lp_solves"] += 1
        c["simplex.pivots"] += out.iterations
        if owner in ("oracle", "regions"):
            c[f"{owner}.lp_solves"] += 1
        if owner == "oracle" and kwargs.get("c_min") is None and len(args) < 2:
            c["oracle.leaf_lps"] += 1
        if owner == "tighten":
            c["encoders.tighten_lps"] += 1

    @staticmethod
    def _observe_standard_form(c, owner, args, kwargs, out):
        c["simplex.standard_form_calls"] += 1
        c["model.rows"] = max(c["model.rows"], len(args[0].constraints))
        c["model.cols"] = max(c["model.cols"], args[0].num_variables)

    @staticmethod
    def _observe_bb(c, owner, args, kwargs, out):
        c["bb.nodes"] += out.nodes

    @staticmethod
    def _observe_mpcc(c, owner, args, kwargs, out):
        c["mpcc.subproblems"] += out.nodes

    @staticmethod
    def _observe_regions(c, owner, args, kwargs, out):
        c["regions.patterns"] += len(out)

    @staticmethod
    def _observe_stationarity(c, owner, args, kwargs, out):
        if hasattr(out, "accepted"):
            c["stationarity.checks"] += 1
            c["stationarity.accepted"] += bool(out.accepted)

    @staticmethod
    def _observe_tighten(c, owner, args, kwargs, out):
        net, (lo, hi) = args[0], args[1]
        for li, (my, ms) in enumerate(ref.interval_bounds(ref.layer_arrays(net), lo, hi)):
            for i in range(len(my)):
                c["tighten.neurons"] += 1
                c["tighten.tightened"] += bool(out.my[(li, i)] < my[i] - 1e-9
                                               or out.ms[(li, i)] < ms[i] - 1e-9)

    @staticmethod
    def _observe_export(c, owner, args, kwargs, out):
        c["io.lp_bytes"] += os.path.getsize(args[1])

    @staticmethod
    def _observe_embedded(c, owner, args, kwargs, out):
        c["embedded.iterations"] += out[0].iterations

    @staticmethod
    def _observe_forward(c, owner, args, kwargs, out):
        c["nn.forward_calls"] += 1

    @staticmethod
    def _observe_jacobian(c, owner, args, kwargs, out):
        c["nn.jacobian_calls"] += 1

    # per-round metrics --------------------------------------------------------

    def metrics(self, r, solve_s) -> dict:
        """Per-layer metric values of round r; ``solve_s`` is that round's summed
        time. Names and units are those of BENCHMARK.json's ``per_layer``."""
        c = defaultdict(float, self.counts[r])  # a copy: lookups must not add keys
        self_s, incl = self.self_s[r], self.incl_s[r]
        s = lambda k: self_s.get(k, 0.0)  # noqa: E731
        t = lambda k: incl.get(k, 0.0)  # noqa: E731

        def per(num, base, scale=1.0):
            return scale * num / base if base else 0.0

        vals = {
            "simplex.lp_solves": c["simplex.lp_solves"],
            "simplex.pivots": c["simplex.pivots"],
            "simplex.self_s": s("simplex"),
            "simplex.us_per_lp": per(s("simplex"), c["simplex.lp_solves"], 1e6),
            "simplex.us_per_pivot": per(s("simplex"), c["simplex.pivots"], 1e6),
            "simplex.standard_form_calls": c["simplex.standard_form_calls"],
            "simplex.standard_form_s": t("standard_form"),
            "bb.nodes": c["bb.nodes"],
            "bb.self_s": s("bb"),
            "bb.ms_per_node": per(t("bb"), c["bb.nodes"], 1e3),
            "oracle.lp_solves": c["oracle.lp_solves"],
            "oracle.leaf_share": per(c["oracle.leaf_lps"], c["oracle.lp_solves"]),
            "oracle.self_s": s("oracle"),
            "mpcc.subproblems": c["mpcc.subproblems"],
            "mpcc.self_s": s("mpcc"),
            "regions.lp_solves": c["regions.lp_solves"],
            "regions.nonempty_share": per(c["regions.patterns"], c["regions.lp_solves"]),
            "regions.self_s": s("regions"),
            "stationarity.checks": c["stationarity.checks"],
            "stationarity.accepted": c["stationarity.accepted"],
            "stationarity.self_s": s("stationarity"),
            "encoders.encode_s": t("encode"),
            "encoders.tighten_s": t("tighten"),
            "encoders.tighten_lps": c["encoders.tighten_lps"],
            "encoders.tightened_share": per(c["tighten.tightened"], c["tighten.neurons"]),
            "model.rows": c["model.rows"],
            "model.cols": c["model.cols"],
            "problems.build_s": t("build"),
            "problems.warmstart_s": t("warmstart"),
            "io.export_s": t("export"),
            "io.import_s": t("import"),
            "io.lp_bytes": c["io.lp_bytes"],
            "cli.self_s": s("cli"),
            "embedded.iterations": c["embedded.iterations"],
            "embedded.self_s": s("embedded"),
            "embedded.us_per_iter": per(t("embedded"), c["embedded.iterations"], 1e6),
            "nn.forward_calls": c["nn.forward_calls"],
            "nn.forward_s": t("forward"),
            "nn.jacobian_calls": c["nn.jacobian_calls"],
            "nn.jacobian_s": t("jacobian"),
            "trace.solve_s": solve_s,  # the traced round's summed operation time
            "trace.self_sum_s": sum(self_s.values()),
        }
        return {k: float(v) for k, v in vals.items()}

    def write(self, path):
        """Spans as JSON lines: [layer, start, end, parent, operation]."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
