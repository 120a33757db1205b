"""The cofmap benchmark: one command, four workloads.

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``
of that checkout.  It builds the workload's inputs from the seed, repeats
whole rounds of the workload's operations for ``--seconds``, checks every
output against independent oracles, and prints one JSON object as the
last line of standard output::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run records spans around every call into the library and reports
per-layer metrics instead.  A run whose checks fail reports its counts
but no metrics, and exits 1.  The result, and in a traced run the spans,
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
WORKLOADS = {"desk-mix": "desk", "wide-maps": "wide", "solve-enum": "solve", "cli-session": "session"}

# per-layer metric -> (what the tracer summed, its key, unit); values are per round
PER_LAYER = {
    "core.construct.calls": ("calls", "core.construct", "count"),
    "core.construct.self_s": ("self", "core.construct", "s"),
    "core.construct.gaps": ("count", "core.construct.gaps", "count"),
    "core.compose.calls": ("calls", "core.compose", "count"),
    "core.compose.self_s": ("self", "core.compose", "s"),
    "core.compose.gaps_in": ("count", "core.compose.gaps_in", "count"),
    "core.compose.gaps_out": ("count", "core.compose.gaps_out", "count"),
    "core.invert.self_s": ("self", "core.invert", "s"),
    "core.canonical_leq.calls": ("calls", "core.canonical_leq", "count"),
    "core.canonical_leq.self_s": ("self", "core.canonical_leq", "s"),
    "core.evaluate.calls": ("calls", "core.evaluate", "count"),
    "core.evaluate.self_s": ("self", "core.evaluate", "s"),
    "core.preimage.self_s": ("self", "core.preimage", "s"),
    "core.shift_threshold.self_s": ("self", "core.shift_threshold", "s"),
    "green.solve.calls": ("calls", "green.solve", "count"),
    "green.solve.self_s": ("self", "green.solve", "s"),
    "green.solve.solutions": ("count", "green.solve.solutions", "count"),
    "green.solve.len_s": ("self", "green.solve.len", "s"),
    "green.solve.iter_s": ("self", "green.solve.iter", "s"),
    "green.solve.contains_s": ("self", "green.solve.contains", "s"),
    "green.witness.self_s": ("self", "green.witness", "s"),
    "bicyclic.mul.calls": ("calls", "bicyclic.mul", "count"),
    "bicyclic.mul.self_s": ("self", "bicyclic.mul", "s"),
    "bicyclic.embed.self_s": ("self", "bicyclic.embed", "s"),
    "bicyclic.tail.self_s": ("self", "bicyclic.tail", "s"),
    "extensions.mul.self_s": ("self", "extensions.mul", "s"),
    "extensions.nbhd.self_s": ("self", "extensions.nbhd", "s"),
    "cli.parse.self_s": ("self", "cli.parse", "s"),
    "cli.parse.chars": ("count", "cli.parse.chars", "count"),
    "cli.eval_expr.self_s": ("self", "cli.eval_expr", "s"),
    "cli.render.self_s": ("self", "cli.render", "s"),
    "cli.main.self_s": ("self", "cli.main", "s"),
    "cli.build_parser_s": ("self", "cli.build_parser", "s"),
}


def load_library():
    """Import ``cofmap`` from this checkout's ``src/``, and nothing else."""
    src = ROOT / "src"
    if not (src / "cofmap" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cofmap sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cofmap
    if Path(cofmap.__file__).resolve().parent != (src / "cofmap").resolve():
        sys.exit(f"perfbench: imported cofmap from {cofmap.__file__}, not from {src}")
    return cofmap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("COFMAP_OUTPUT", None)   # the in-process CLI reads it

    lib = load_library()
    workload = importlib.import_module(WORKLOADS[args.workload])  # before any CLI rebinding
    from harness import CAL_REF_S, Clock, measure
    from layers import Layers
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    L = Layers(tracer)
    clock = Clock()
    try:
        setups = []
        for _ in range(SETUPS):
            clock.calibrate(force=True)
            start = perf_counter()
            plan = workload.build(random.Random(args.seed), L, lib)
            setups.append((start, perf_counter()))
        clock.calibrate(force=True)
        setups = [clock.scaled(*t) for t in setups]
        gc.collect()
        res = measure(plan, args.seconds, ROOT, clock, tracer)
    finally:
        L.close()

    metrics = {}
    if tracer is None:
        metrics = {k: v for k, v in res.metrics.items() if k != "cli.import_s"}
        metrics["setup_s"] = (median(setups), "s")
    else:
        scale = {"calls": 1, "self": clock.factor(), "count": 1}
        sums = {"calls": tracer.calls, "self": tracer.self_s, "count": tracer.counts}
        for name, (kind, key, unit) in PER_LAYER.items():
            metrics[name] = (sums[kind].get(key, 0) * scale[kind] / res.rounds, unit)
        metrics["cli.import_s"] = res.metrics.get("cli.import_s", (0.0, "s"))
        metrics["trace.ops_per_s"] = (res.metrics["ops_per_s"][0], "ops/s")
        metrics["trace.spans"] = (len(tracer.spans) + tracer.dropped, "count")
        metrics["bench.calibration_s"] = (CAL_REF_S / clock.factor(), "s")

    correct = not res.problems
    doc = {"correct": correct, "attempted": res.attempted, "failed": res.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if correct else {}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    for problem in res.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
