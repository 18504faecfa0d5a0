#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --seeds 10 [--workload NAME ...] [--trace 0|1] [--label L]

For every workload it runs the command of BENCHMARK.json once per seed,
sequentially, and prints per metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread
(q3 - q1) / median next to the metric's bound.  The collected results go
to `bench/out/spread_<label>.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="latest")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in rows[-1]["metrics"].items()), flush=True)
        summary[name] = {"runs": rows, "metrics": {}}
        print(f"{name}: correct {all(r['correct'] for r in rows)}, failed/attempted "
              + ", ".join(f"{r['failed']}/{r['attempted']}" for r in rows))
        for metric in rows[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name]["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            bound = bounds.get(metric)
            print(f"  {metric:30s} median {med:11.6g}  q1 {q1:11.6g}  q3 {q3:11.6g}  "
                  f"spread {spread:6.3f}" + (f"  bound {bound}" if bound else ""))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread_{args.label}.json").write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
