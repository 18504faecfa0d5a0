#!/usr/bin/env python3
"""Gravity-driven infiltration sweep: both formulations, beta x tolerance grid.

Reproduces the iteration-count and accuracy comparison between the
graph-parametrization (tau) and Kirchhoff (u) Newton formulations on the
20x20 desk mesh.  Writes summary.csv / residuals.csv and prints a compact
iteration table with the wall time of each run, so the sweep can be timed
run by run.

Usage: python3 scripts/run_test1_sweep.py [--out results/test1] [--mesh 20x20]
"""

import argparse
from pathlib import Path

from richards.harness import EPS_REF_TEST1, preset_test1, sweep, write_outputs

BETAS = [1.0, 4.0, 16.0]
EPSS = [1e-2, 1e-4, 1e-6]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/test1", type=Path)
    ap.add_argument("--mesh", default="20x20")
    ap.add_argument("--eps-ref", default=EPS_REF_TEST1, type=float)
    args = ap.parse_args(argv)

    base = preset_test1(beta=4.0, eps=1e-6, mesh_size=args.mesh)
    results = sweep(base, BETAS, EPSS, ["tau", "u"], eps_ref=args.eps_ref)
    args.out.mkdir(parents=True, exist_ok=True)
    write_outputs(results, base, args.out)

    print(f"{'form':>4} {'beta':>6} {'eps':>8} {'iters':>7} {'err_s':>10} {'conv':>5} "
          f"{'wall_ms':>9}")
    for r in results:
        c = r.config
        if r.err_s is not None:
            err = f"{r.err_s:.2e}"
        else:
            err = "ref" if c.eps == args.eps_ref else "n/a"
        print(
            f"{c.formulation:>4} {c.beta:>6g} {c.eps:>8.0e} "
            f"{r.mean_iters:>7.2f} {err:>10} {str(r.converged):>5} {r.wall_ms:>9.1f}"
        )
    print(f"\nwrote {args.out}/summary.csv")


if __name__ == "__main__":
    main()
