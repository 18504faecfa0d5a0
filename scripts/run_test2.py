#!/usr/bin/env python3
"""Closed-box redistribution: mass conservation of tau vs u Newton.

Runs the zero-flux quadrant-redistribution case at several tolerances for
both formulations and prints the global mass error and the wall time of
each run.  The tau-formulation conserves mass to rounding at every
tolerance; the Kirchhoff formulation leaks mass at loose tolerances.
--mesh sets the box ("NXxNY", default 20x20), so the closed-box runs can
be timed on finer meshes.

Usage: python3 scripts/run_test2.py [--mesh 20x20] [--out results/test2]
"""

import argparse
from pathlib import Path

from richards.harness import preset_test2, run, write_outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mesh", default="20x20", help='box mesh "NXxNY"')
    ap.add_argument("--out", default="results/test2", type=Path)
    args = ap.parse_args(argv)

    print(f"{'form':>4} {'eps':>8} {'iters':>7} {'mass_err':>10} {'conv':>5} {'wall_ms':>9}")
    results = []
    for form in ("tau", "u"):
        for eps in (1e-2, 1e-4, 1e-6):
            res = run(preset_test2(eps=eps, formulation=form, mesh_size=args.mesh))
            results.append(res)
            mass = f"{res.mass_err:.2e}" if res.mass_err is not None else "n/a"
            print(
                f"{form:>4} {eps:>8.0e} {res.mean_iters:>7.2f} "
                f"{mass:>10} {str(res.converged):>5} {res.wall_ms:>9.1f}"
            )
    args.out.mkdir(parents=True, exist_ok=True)
    write_outputs(results, results[0].config, args.out)
    print(f"\nwrote {args.out}/summary.csv")


if __name__ == "__main__":
    main()
