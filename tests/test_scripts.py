"""The reproduction scripts still import and define their entry points.

`scripts/run_test1_sweep.py` and `scripts/run_test2.py` import names of the
harness (presets, `run`, `sweep`, `write_outputs`, the reference
tolerances).  Loading each script by path, without calling `main()`, makes
a rename that breaks one of those imports fail here.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["run_test1_sweep.py", "run_test2.py"])
def test_script_loads(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
