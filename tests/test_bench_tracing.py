"""The benchmark's tracer still finds the solver's layers.

`bench/tracing.py` binds wrappers to names looked up on the solver's modules
and reports a name it cannot find as absent.  A refactor that renames or
moves one of them would silently zero that layer's benchmark metrics.
"""

import importlib.util
from pathlib import Path

from richards import harness, hydromodel, newton

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the target the fused assembly removed; the tracer retarget is still pending
RETIRED = {"richards.harness.StepProblem"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_live_target():
    originals = (hydromodel.Parametrization.eval, harness.build_mesh, newton.linear_solve)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert set(tracer.absent) <= RETIRED
        assert hydromodel.Parametrization.eval is not originals[0]
    finally:
        tracer.uninstall()
    assert (hydromodel.Parametrization.eval, harness.build_mesh, newton.linear_solve) == originals
