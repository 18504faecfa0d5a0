#!/usr/bin/env python3
"""Quick self-check of the benchmark, on tiny meshes, in well under a minute.

Usage (from the repository root):

    python3 bench/selfcheck/check.py

For every workload of BENCHMARK.json it runs `bench/run.py --scale tiny`
once untraced and once traced, and checks that each run exits 0, passes
its correctness checks and prints, as its last line, the result object
with exactly the metrics BENCHMARK.json declares, each with its unit.  It
also checks that the traced run wrote its spans, that the share of failed
runs does not depend on the seed, and that the benchmark refuses to run,
without printing a result, where the solver's sources are missing.
Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(msg):
    sys.exit(f"selfcheck FAILED: {msg}")


def bench(workload, trace, seed=1, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc, what):
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(out)}")
    if out["correct"] is not True:
        fail(f"{what}: correctness checks failed:\n{proc.stderr[-2000:]}")
    if not (type(out["attempted"]) is int and out["attempted"] >= 1):
        fail(f"{what}: attempted = {out['attempted']!r}")
    if out["failed"] != 0:
        fail(f"{what}: {out['failed']} runs failed")
    return out


def check_metrics(out, declared, what):
    units = {m["name"]: m["unit"] for m in declared}
    if set(out["metrics"]) != set(units):
        fail(f"{what}: metrics {sorted(set(out['metrics']) ^ set(units))} differ from BENCHMARK.json")
    for name, m in out["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            fail(f"{what}: metric {name} = {m}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            fail(f"{what}: metric {name} is not a number")


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        out = result_of(bench(name, 0), f"{name} untraced")
        check_metrics(out, SPEC["end_to_end"], f"{name} untraced")
        if not all(m["value"] > 0 for m in out["metrics"].values()):
            fail(f"{name}: an end-to-end metric is not positive: {out['metrics']}")

        trace_file = BENCH / "out" / f"trace_{name}.json"
        trace_file.unlink(missing_ok=True)
        out = result_of(bench(name, 1), f"{name} traced")
        check_metrics(out, SPEC["per_layer"], f"{name} traced")
        layer = {k: m["value"] for k, m in out["metrics"].items()}
        if not (layer["newton.iters"] > 0 and layer["newton.linear_solve_calls"] == layer["newton.iters"]):
            fail(f"{name}: traced counts {layer}")
        if (layer["newton.mmatrix_analyze_calls"] > 0) != (name == "mmatrix-audit"):
            fail(f"{name}: mmatrix_analyze_calls = {layer['newton.mmatrix_analyze_calls']}")
        spans = json.loads(trace_file.read_text())
        if not spans["spans"] or spans["absent"]:
            fail(f"{name}: trace file has {len(spans['spans'])} spans, absent {spans['absent']}")
        print(f"ok {name}")

    a = result_of(bench("redistribution", 0, seed=7), "redistribution seed 7")
    b = result_of(bench("redistribution", 0, seed=8), "redistribution seed 8")
    if a["failed"] * b["attempted"] != b["failed"] * a["attempted"]:
        fail("failed share depends on the seed")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("infiltration-fine", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the solver's sources")
    print("ok all")


if __name__ == "__main__":
    main()
