#!/usr/bin/env python3
"""Benchmark of the tau-Newton Richards solver, one workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload infiltration-sweep --seed 1 --seconds 28 --trace 0

The solver is imported from `src/` next to this directory.  A run repeats
whole rounds of the workload (see workloads.py) for at most `--seconds`:
it stops before a round that would end later, but runs at least one.  It
checks every round's results and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": <runs>, "failed": <runs>, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: `wall_s` (median round
time), `setup_s` (median, over fresh interpreters started between rounds,
of the time from process start until the workload's mesh is built) and
`peak_rss_mb`.  With `--trace 1`, untraced and traced rounds alternate and
the metrics are the per-layer ones of the traced rounds (medians), plus
`trace.overhead_s`; the spans are written to
`bench/out/trace_<workload>.json`.

The seed sets the order in which a round's operations run; the inputs do
not depend on it.  A progress report goes to standard error.
"""

import os

# One BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("infiltration-sweep", "infiltration-fine", "redistribution", "mmatrix-audit")
# set-up probes are spread through the run, at most one per PROBE_GAP seconds,
# because the machine's speed for them changes within seconds
PROBE_GAP = 4.0

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small meshes, for the self-check")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import, build the mesh, print 'ready' and exit")
    return ap.parse_args(argv)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def setup_probe(args):
    from richards import harness
    from workloads import WORKLOADS as table

    harness.build_mesh(table[args.workload](args.scale).first_config())
    print("ready", flush=True)


def measure_setup(args) -> float:
    """Time from starting a fresh interpreter until the workload's mesh is built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--scale", args.scale]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return elapsed


def run_round(ops, tracer=None):
    """Run ops in order; returns (wall seconds, {label: results}, failed ops)."""
    results, failed = {}, []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for op in ops:
            try:
                results[op.label] = op.call()
            except Exception:  # a failed operation is counted, the run goes on
                traceback.print_exc()
                failed.append(op)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, results, failed


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def signature(results) -> dict:
    return {label: [tuple(r.iters_per_step) for r in rs] for label, rs in results.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "richards" / "__init__.py").is_file():
        log(f"richards sources not found under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    from dataclasses import replace

    from richards import harness
    from workloads import WORKLOADS as table

    workload = table[args.workload](args.scale)
    ops = workload.ops()
    # warm-up outside the measurement: one step of the first solve
    first = workload.first_config()
    harness.run(replace(first, t_end=first.dt))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rng = random.Random(args.seed)
    walls = {False: [], True: []}
    setups, last_probe = [], -PROBE_GAP
    layers = []
    counts = dict.fromkeys(("newton.iters", "newton.steps", "newton.steps_failed"), 0)
    attempted = failed = 0
    faults, reference = [], None
    start = time.perf_counter()
    n = 0
    while True:
        if tracer is None and time.perf_counter() - last_probe >= PROBE_GAP:
            last_probe = time.perf_counter()
            setups.append(measure_setup(args))
        traced = tracer is not None and n % 2 == 1
        order = ops[:]
        rng.shuffle(order)
        since = tracer.mark() if traced else None
        wall, results, bad = run_round(order, tracer if traced else None)
        n += 1
        runs = [r for rs in results.values() for r in rs]
        attempted += sum(op.runs for op in ops)
        failed += sum(op.runs for op in bad) + sum(not r.converged for r in runs)
        if bad:
            faults.append(f"round {n}: {', '.join(op.label for op in bad)} raised")
        else:
            faults += [f"round {n}: {f}" for f in workload.check(results)]
            sig = signature(results)
            if reference is None:
                reference = sig
                counts.update({
                    "newton.iters": sum(r.total_iters for r in runs),
                    "newton.steps": sum(len(r.iters_per_step) for r in runs),
                    "newton.steps_failed": sum(not r.converged for r in runs),
                })
            elif sig != reference:
                faults.append(f"round {n}: Newton iteration counts differ from round 1")
        walls[traced].append(wall)
        if traced:
            layers.append(tracer.layer_metrics(since))
        log(f"{args.workload} round {n}{' traced' if traced else ''}: {wall:.3f} s")
        # stop before a round that would end past --seconds, once each kind ran
        if tracer is not None and not walls[True]:
            continue
        if time.perf_counter() - start + wall > args.seconds:
            break

    for f in faults:
        log(f"CHECK FAILED {f}")
    if args.trace:
        metrics = {}
        for k in layers[0]:
            unit = unit_of(k)
            pick = statistics.median if unit == "s" else statistics.median_low
            metrics[k] = (pick(d[k] for d in layers), unit)
        for k, v in counts.items():
            metrics[k] = (v, "count")
        # each traced round against the untraced round just before it
        metrics["trace.overhead_s"] = (
            statistics.median(t - u for t, u in zip(walls[True], walls[False])), "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{args.workload}.json",
                     {"workload": args.workload, "seed": args.seed, "scale": args.scale,
                      "untraced_walls": walls[False], "traced_walls": walls[True]})
        for k in sorted(metrics):
            log(f"  {k:32s} {metrics[k][0]:14.6g} {metrics[k][1]}")
        for name in tracer.absent:
            log(f"  absent: {name}")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
