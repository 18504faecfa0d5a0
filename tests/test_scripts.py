"""The reproduction scripts still import and define their entry points.

`scripts/run_test1_sweep.py` and `scripts/run_test2.py` import names of the
harness (presets, `run`, `sweep`, `write_outputs`, the reference
tolerances), and `scripts/digest.py` reads `bench/workloads.py`.  Loading
each script by path, without calling `main()`, makes a rename that breaks
one of those imports fail here.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name, monkeypatch):
    """The script as a module; what it changes in os.environ and sys.path
    (digest.py pins BLAS threads as it loads and extends sys.path in main)
    is undone after the test."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", sys.path.copy())
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["run_test1_sweep.py", "run_test2.py", "digest.py"])
def test_script_loads(name, monkeypatch):
    assert callable(load(name, monkeypatch).main)


def test_digest_prints_one_line_per_workload(monkeypatch, capsys):
    # the workload, its Newton total and 16 hex digits of the results' SHA-256;
    # the tiny-scale totals are pinned, and a second run in the same process
    # prints the same lines (the digits themselves depend on the platform's
    # libm and BLAS, so they are not pinned)
    digest = load("digest.py", monkeypatch)
    digest.main(["--scale", "tiny"])
    lines = capsys.readouterr().out.splitlines()
    names = ["infiltration-sweep", "infiltration-fine", "redistribution", "mmatrix-audit"]
    assert [line.split()[0] for line in lines] == names
    for line in lines:
        assert re.fullmatch(r"\S+ [1-9][0-9]* [0-9a-f]{16}", line), line
    assert [int(line.split()[1]) for line in lines] == [1586, 23, 180, 16]
    digest.main(["--scale", "tiny"])
    assert capsys.readouterr().out.splitlines() == lines


def test_run_test2_times_each_run_on_the_given_mesh(monkeypatch, capsys, tmp_path):
    # six runs (two formulations, three tolerances), each with its wall time
    script = load("run_test2.py", monkeypatch)
    script.main(["--mesh", "4x4", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["form", "eps", "iters", "mass_err", "conv", "wall_ms"]
    rows = [line.split() for line in lines[1:7]]
    assert [row[0] for row in rows] == ["tau"] * 3 + ["u"] * 3
    assert all(float(row[5]) > 0 for row in rows)
    assert "4x4" in (tmp_path / "summary.csv").read_text()


def test_run_test1_sweep_times_each_run_on_the_given_mesh(monkeypatch, capsys, tmp_path):
    # the 21 runs of the sweep (the three reference runs, then both
    # formulations at each beta and tolerance), each with its wall time
    script = load("run_test1_sweep.py", monkeypatch)
    script.main(["--mesh", "4x4", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["form", "beta", "eps", "iters", "err_s", "conv", "wall_ms"]
    rows = [line.split() for line in lines[1:22]]
    assert [row[0] for row in rows] == ["tau"] * 6 + ["u"] * 3 + (["tau"] * 3 + ["u"] * 3) * 2
    assert all(float(row[6]) > 0 for row in rows)
    assert "4x4" in (tmp_path / "summary.csv").read_text()
