#!/usr/bin/env python3
"""Bit-level digest of the benchmark workloads' results.

Runs one round of each workload of `bench/workloads.py` and prints, per
workload, its Newton iteration total and the first 16 hex digits of a
SHA-256 over every run's iterations per step, Newton residual histories,
tau levels and (err_s, err_u, mass_err).  On mmatrix-audit it also covers
each audited Jacobian (CSC data, indices, indptr) and each M-matrix
report's `path_lengths` bytes and (is_column_wise, max_path_length,
violations).  Two checkouts that print the same lines computed the same
numbers, bit for bit.  As in `bench/run.py`, BLAS runs on one thread and
the solver is imported from `src/` next to this directory.

Usage (from the repository root):

    python3 scripts/digest.py [--scale tiny]
"""

import os

# One BLAS/OpenMP thread, as the benchmark runs: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def digest(results, audits=()) -> str:
    """SHA-256 (16 hex digits) of the runs' iterations, residuals, tau levels and
    errors, then of the audited (Jacobian, M-matrix report) pairs."""
    h = hashlib.sha256()
    for res in results:
        h.update(np.asarray(res.iters_per_step, dtype=np.int64).tobytes())
        for report in res.trajectory.newton_reports:
            h.update(np.asarray(report.residual_history, dtype=float).tobytes())
        for tau in res.trajectory.taus:
            h.update(np.asarray(tau, dtype=float).tobytes())
        h.update(repr((res.err_s, res.err_u, res.mass_err)).encode())
    for J, rep in audits:
        for a in (J.data, J.indices, J.indptr):
            h.update(a.tobytes())
        h.update(np.asarray(rep.path_lengths, dtype=float).tobytes())
        h.update(repr((rep.is_column_wise, rep.max_path_length, rep.violations)).encode())
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    for name in WORKLOADS:
        workload = WORKLOADS[name](args.scale)
        results = [r for op in workload.ops() for r in op.call()]
        total = sum(r.total_iters for r in results)
        print(f"{name} {total} {digest(results, getattr(workload, 'audits', ()))}", flush=True)


if __name__ == "__main__":
    main()
