"""surropt benchmark: one closed-loop client running one workload's operations.

    python3 perfbench/run.py [--workload pool|engine|embedded|all] \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``. Set-up
(import plus input generation) is timed three times and its median reported.
After an untimed warm-up, whole rounds of the workload's operations run while
the next round is expected to end within ``--seconds`` (default: BENCHMARK.json's
``run_seconds``; at least one round, so a round longer than that runs alone);
``solve_s`` sums, over the operations, each operation's median time across
rounds. Times are wall times brought to the reference speed of the machine:
a speed probe (``speed.py``) runs between the operations, a tenth of their
time, and after every set-up, and each round's times and each set-up are
divided by the slowdown the probe measured next to them. Answers of the first round are then checked against outside
references (HiGHS, numpy), and every later round must reproduce them exactly.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones, named and with units as in BENCHMARK.json). The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, so the figures measure the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("pool", "engine", "embedded")
SETUP_REPEATS = 3
SETUP_PROBE_CHUNKS = 20  # probe chunks right after each set-up

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)  # metric names and units, run length

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import surropt, surropt.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Cold import of surropt, timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def with_units(values: dict, declared: list) -> dict:
    """Metric values in BENCHMARK.json's order, with its units."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} are not "
                           "both measured and declared in BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_all(args) -> int:
    """Each workload in its own process, one after another. The last line
    merges their results, each metric named ``<workload>.<metric>``."""
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        status |= proc.returncode
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 1
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="time budget of the measured rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "surropt", "__init__.py")):
        print(f"error: no surropt sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    run_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return bench(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(args, run_dir) -> int:
    sys.path[:0] = [SRC, HERE]
    import workloads  # noqa: E402  (imports surropt)

    wl = workloads.WORKLOADS[args.workload]
    speed.chunk()  # warm the probe
    # set-up: import (in a fresh interpreter) plus input generation
    setups = []
    for k in range(SETUP_REPEATS):
        gen_dir = os.path.join(run_dir, f"gen{k}")
        os.makedirs(gen_dir)
        wall = import_seconds()
        t0 = time.perf_counter()
        inputs = wl.generate(args.seed, gen_dir)
        wall += time.perf_counter() - t0
        probe = speed.Probe()
        probe.run(SETUP_PROBE_CHUNKS)
        setups.append(wall / probe.slowdown())
    ops = wl.ops(inputs)

    # untimed warm-up: the first operation of each kind
    warm_state = {"round": "warm"}
    errors = []
    for op in ops:
        if not any(o.kind == op.kind for o in ops[:ops.index(op)]):
            warm_state[op.label] = res = op.run(warm_state)
            if res.error:
                errors.append(f"{op.label}: raised in the warm-up: {res.error}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    times = {op.label: [] for op in ops}  # wall seconds per round
    slowdowns = []  # per round, from the probe chunks run between its operations
    first_results = {}
    failed = 0
    rounds = []
    t_start = time.perf_counter()
    # whole rounds while the next one is expected to end within --seconds
    while not rounds or (time.perf_counter() - t_start) * (1 + 1 / len(rounds)) <= args.seconds:
        r = len(rounds)
        rounds.append(r)
        state = {"round": r}
        gc.collect()
        if tracer:
            tracer.round = r
        probe = speed.Probe()
        for op in ops:
            if tracer:
                tracer.op = f"{r}:{op.label}"
            t0 = time.perf_counter()
            res = op.run(state)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.op = None
            probe.after(dt)
            times[op.label].append(dt)
            state[op.label] = res
            failed += res.failed
            if r == 0:
                first_results[op.label] = res
            elif res.fingerprint != first_results[op.label].fingerprint:
                errors.append(f"{op.label}: round {r} differs from round 0")
            if r > 0:
                res.keep.clear()
        slowdowns.append(probe.slowdown())
    # each operation's median over rounds of its time at the reference speed
    solve_s = sum(statistics.median(t / s for t, s in zip(v, slowdowns))
                  for v in times.values())
    wall_s = sum(statistics.median(v) for v in times.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raised = [f"{lab}: {res.error}" for lab, res in first_results.items() if res.error]
    errors += raised or wl.check(inputs, first_results)
    attempted = len(ops) * len(rounds)

    kinds = {}
    for op in ops:
        row = kinds.setdefault(op.kind, [0, 0, 0.0])
        row[0] += 1
        row[1] += first_results[op.label].failed
        row[2] += statistics.median(times[op.label])
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"operations/round {len(ops)}")
    print("  round sums " + " ".join(f"{sum(t[r] for t in times.values()):.3f}"
                                     for r in rounds) + " s wall")
    print("  slowdowns " + " ".join(f"{v:.3f}" for v in slowdowns)
          + f" x reference; solve_s {wall_s:.3f} s wall-time, "
          f"{solve_s:.3f} s at the reference speed")
    for kind, (n, nf, sec) in kinds.items():
        print(f"  {kind:14s} {n:3d} operations  {nf:3d} failed  {sec:8.3f} s")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    if tracer:
        # times of the median round, so its self times add up within its sum
        by_sum = sorted(rounds, key=lambda r: sum(t[r] for t in times.values()))
        mid = by_sum[(len(by_sum) - 1) // 2]
        metrics = with_units(tracer.metrics(mid, sum(t[mid] for t in times.values())),
                             SPEC["per_layer"])
        for r in rounds[1:]:
            if tracer.counts[r] != tracer.counts[rounds[0]]:
                print(f"warning: per-layer counts of round {r} differ from round 0",
                      file=sys.stderr)
        span_path = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}"
                                      ".spans.jsonl")
        tracer.write(span_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_path, ROOT)}")
    else:
        metrics = with_units({"setup_s": statistics.median(setups), "solve_s": solve_s,
                              "peak_rss_mb": peak_rss_mb}, SPEC["end_to_end"])
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}  failed {failed}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
