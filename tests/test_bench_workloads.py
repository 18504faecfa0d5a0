"""The benchmark's workloads still run on the solver's API.

`bench/workloads.py` reads names of the public API (the presets, `run`,
`sweep`, `RunResult.converged`, `iters_per_step`, `trajectory.taus`, the
Newton callback signature and so on).  Running every operation at the
`tiny` scale and checking each round against the properties of the method
makes a refactor that breaks one of those names fail here.  At the `full`
scale, the one the benchmark measures, each round must also keep its total
of Newton iterations: a solver change that moves them fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


BENCH = _load_workloads()

# Newton iterations of one full-scale round, summed over all its runs
FULL_NEWTON_ITERS = {"infiltration-sweep": 2274, "infiltration-fine": 54,
                     "redistribution": 664, "mmatrix-audit": 96}


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_tiny_round_passes_its_checks(name):
    workload = BENCH.WORKLOADS[name]("tiny")
    ops = workload.ops()
    results = {op.label: op.call() for op in ops}
    assert all(len(results[op.label]) == op.runs for op in ops)
    assert workload.check(results) == []


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_full_round_passes_its_checks_with_its_newton_total(name):
    workload = BENCH.WORKLOADS[name]("full")
    results = {op.label: op.call() for op in workload.ops()}
    assert workload.check(results) == []
    assert sum(r.total_iters for rs in results.values() for r in rs) == FULL_NEWTON_ITERS[name]
