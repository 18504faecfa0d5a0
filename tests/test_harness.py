"""Presets, time marching, sweeps, file outputs, and the CLI."""

import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from richards.harness import (
    SUMMARY_HEADER,
    ConfigError,
    RunConfig,
    build_mesh,
    preset_test1,
    preset_test2,
    run,
    summary_row,
    sweep,
    write_outputs,
)
from richards.hydromodel import BrooksCoreyModel, Parametrization
from richards.scheme import InitialField, discretize_initial


# -- presets -------------------------------------------------------------------


def test_preset_test1_config():
    cfg = preset_test1(beta=4.0, eps=1e-6)
    assert cfg.n_steps == 70
    assert cfg.gravity == (0.0, -1.0)
    assert cfg.p_b == -1e-2
    assert cfg.s0_default == 1e-6
    assert cfg.p_dirichlet == 1.0
    mesh = build_mesh(cfg)
    assert mesh.dirichlet_edges.size == 6
    # boundary tau value for the tau-formulation
    param = Parametrization(kind="tau", model=BrooksCoreyModel(beta=4.0, p_b=-1e-2))
    assert param.tau_of_pressure(1.0) == pytest.approx(2.01, rel=1e-14)


def test_preset_test2_config():
    cfg = preset_test2(eps=1e-6)
    assert cfg.n_steps == 100
    assert cfg.beta == 4.0
    assert cfg.gravity == (0.0, 0.0)
    assert cfg.dirichlet_box is None
    mesh = build_mesh(cfg)
    param = Parametrization(kind="tau", model=BrooksCoreyModel(beta=4.0, p_b=-1e-2))
    field = InitialField(default=cfg.s0_default, boxes=list(cfg.s0_boxes))
    tau = discretize_initial(field, mesh, param)
    s = np.asarray(param.eval(tau)[0])
    assert int(np.sum(np.isclose(s, 0.5))) == 100
    M = float(np.sum(mesh.cell_volumes * s))
    assert M == pytest.approx(0.25 * 0.5 + 0.75 * 1e-6, rel=1e-12)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(case="custom", formulation="tau", beta=4.0, dt=0.01, t_end=0.705, eps=1e-6)
    with pytest.raises(ConfigError):
        RunConfig(case="custom", formulation="heat", beta=4.0, dt=0.01, t_end=0.7, eps=1e-6)
    with pytest.raises(ConfigError):
        replace(preset_test1(beta=4.0, eps=1e-6), eps=-1.0)


# -- run -----------------------------------------------------------------------


def test_zero_step_run():
    cfg = replace(preset_test2(eps=1e-6), t_end=0.0)
    res = run(cfg)
    assert res.converged
    assert res.iters_per_step == []
    assert res.mean_iters == 0.0
    assert len(res.trajectory.times) == 1
    assert res.mass_err == 0.0


def test_short_test2_run_conserves_mass():
    cfg = replace(preset_test2(eps=1e-6), t_end=5e3)  # 5 steps
    res = run(cfg)
    assert res.converged
    assert len(res.iters_per_step) == 5
    assert res.mass_err <= 1e-12


def test_adaptive_dt_recovers_from_failure(monkeypatch):
    # force failures above a dt threshold to exercise the halving /
    # doubling controller (the degenerate formulation fails at every dt,
    # so it cannot drive this path)
    import richards.harness as H

    real = H.newton_solve

    def flaky(system, dt, s_prev, tau_init, eps, callback=None, start=None):
        if dt > 0.006:
            from richards.newton import MAX_ITER, NewtonReport

            return np.array(tau_init), s_prev, NewtonReport(
                residual_history=[1.0] * (MAX_ITER + 1), converged=False
            )
        return real(system, dt, s_prev, tau_init, eps, callback, start)

    monkeypatch.setattr(H, "newton_solve", flaky)
    cfg = replace(
        preset_test1(beta=4.0, eps=1e-6), t_end=0.1, mesh="5x5", adaptive_dt=True
    )
    assert not run(replace(cfg, adaptive_dt=False)).converged
    res = run(cfg)
    assert res.converged
    assert res.trajectory.times[-1] == pytest.approx(0.1, rel=1e-9)
    steps = np.diff(res.trajectory.times)
    assert steps.max() <= 0.006  # halved below the failure threshold
    assert len(steps) > cfg.n_steps  # more, smaller steps than the fixed grid


def test_adaptive_dt_counts_rejected_iterations():
    # on 40x40 with eps = 1e-10 the step at t = 0.06 fails after 100
    # iterations at dt = 0.01 and converges at dt = 0.005: the 100 count as
    # rejected, next to the 57 of the accepted steps, in the result and in
    # the summary row
    cfg = replace(preset_test1(beta=4.0, eps=1e-10, mesh_size="40x40"), t_end=0.07,
                  adaptive_dt=True)
    jacobians = []
    res = run(cfg, callback=lambda k, tau, r, J: jacobians.append(k))
    assert res.converged
    assert (res.total_iters, res.rejected_iters, len(jacobians)) == (57, 100, 157)
    row = dict(zip(SUMMARY_HEADER.split(","), summary_row(res).split(",")))
    assert (row["total_newton_iters"], row["rejected_newton_iters"]) == ("57", "100")
    assert run(replace(cfg, t_end=0.05)).rejected_iters == 0


def test_newton_failure_reports_partial_trajectory():
    cfg = replace(
        preset_test1(beta=1.0, eps=1e-6, formulation="u"), t_end=0.05, mesh="5x5"
    )
    res = run(cfg)
    assert not res.converged
    assert res.failed_step == len(res.trajectory.times)
    assert res.iters_per_step[-1] == 100  # max_iter recorded for the failed step


# -- sweep ---------------------------------------------------------------------


def test_sweep_shape_and_errors():
    base = replace(preset_test1(beta=4.0, eps=1e-4), t_end=0.05, mesh="5x5")
    results = sweep(base, [4.0], [1e-2, 1e-4], ["tau"], eps_ref=1e-8)
    assert len(results) == 3  # 1 reference + 2 runs
    ref, r1, r2 = results
    assert ref.config.eps == 1e-8 and ref.err_s is None
    assert r1.err_s is not None and r2.err_s is not None
    assert r1.err_s >= r2.err_s  # coarser tolerance, larger error


def _usable_cpus(monkeypatch, n):
    """Make sweep see n usable CPUs: the input its worker count is read from."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_sweep_evaluates_each_run_once_per_error(monkeypatch):
    # one evaluation per Newton iterate, three per run (the first step's
    # tau_init, the boundary value and the initial s), and four per compared
    # run: err_s and err_u each evaluate the run's and its reference's stacked
    # levels once, whatever the number of levels
    calls = [0]
    param_eval = Parametrization.eval

    def counted(self, tau):
        calls[0] += 1
        return param_eval(self, tau)

    monkeypatch.setattr(Parametrization, "eval", counted)
    _usable_cpus(monkeypatch, 1)  # a worker's evaluations would not be counted here
    base = replace(preset_test1(beta=4.0, eps=1e-4), t_end=0.05, mesh="8x8")
    results = sweep(base, [4.0], [1e-4], ["tau", "u"], eps_ref=1e-8)
    compared = [r for r in results if r.err_s is not None]
    assert len(results) == 3 and len(compared) == 2
    assert all(len(r.trajectory.taus) == 6 for r in results)
    iters = sum(r.total_iters for r in results)
    assert calls[0] == iters + 3 * len(results) + 4 * len(compared)

    # with two workers this process only computes the errors
    calls[0] = 0
    _usable_cpus(monkeypatch, 2)
    sweep(base, [4.0], [1e-4], ["tau", "u"], eps_ref=1e-8)
    assert calls[0] == 4 * len(compared)


def test_two_worker_sweep_equals_one_worker_sweep(monkeypatch):
    base = replace(preset_test1(beta=4.0, eps=1e-4), t_end=0.05, mesh="8x8")

    def grid(cpus):
        _usable_cpus(monkeypatch, cpus)
        return sweep(base, [4.0, 16.0], [1e-2, 1e-4], ["tau", "u"], eps_ref=1e-8)

    pooled, serial = grid(2), grid(1)
    assert len(pooled) == 2 + 2 * 2 * 2
    assert [r.config for r in pooled] == [r.config for r in serial]
    for a, b in zip(pooled, serial):
        assert [t.tobytes() for t in a.trajectory.taus] == [t.tobytes() for t in b.trajectory.taus]
        assert (a.err_s, a.err_u) == (b.err_s, b.err_u)
        # summary_row ends with wall_ms, the one column that may differ
        assert summary_row(a).rsplit(",", 1)[0] == summary_row(b).rsplit(",", 1)[0]
    assert sum(r.err_s is not None for r in pooled) == 8
    assert multiprocessing.active_children() == []


def test_sweep_raises_a_worker_error_and_leaves_no_process(monkeypatch):
    # a third gravity component on a 2-D mesh makes every run raise before its first step
    base = replace(preset_test1(beta=4.0, eps=1e-4), t_end=0.02, mesh="4x4",
                   gravity=(0.0, -1.0, 7.0))
    raised = {}
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        with pytest.raises(ConfigError) as exc:
            sweep(base, [4.0, 16.0], [1e-4], ["tau", "u"], eps_ref=1e-8)
        raised[cpus] = str(exc.value)
        assert multiprocessing.active_children() == []
    assert raised[2] == raised[1]
    assert raised[2].startswith("gravity 0 -1 7 does not fit the 2-D mesh")


# -- outputs -------------------------------------------------------------------


def test_summary_header_golden(tmp_path):
    assert SUMMARY_HEADER == (
        "case,formulation,beta,p_b,eta_mode,eps,mesh,dt,steps,mean_newton_iters,"
        "total_newton_iters,err_s,err_u,mass_err,rejected_newton_iters,wall_ms"
    )
    cfg = replace(preset_test2(eps=1e-6), t_end=0.0)
    res = run(cfg)
    write_outputs(res, cfg, tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == SUMMARY_HEADER
    assert len(data) == 2
    assert (tmp_path / "residuals.csv").read_text() == "step,iter,residual\n"
    # the resolved config is echoed as comments
    assert any(ln.startswith("# case = test2") for ln in lines)


def test_summary_row_fields():
    cfg = replace(preset_test2(eps=1e-6), t_end=2e3)
    res = run(cfg)
    row = summary_row(res).split(",")
    assert row[0] == "test2"
    assert row[1] == "tau"
    assert row[8] == "2"  # steps
    assert row[14] == "0"  # rejected_newton_iters
    assert float(row[15]) > 0  # wall_ms


def test_vtk_snapshots(tmp_path):
    cfg = replace(
        preset_test1(beta=4.0, eps=1e-4),
        t_end=0.05,
        mesh="5x5",
        snapshot_times=[0.02, 0.05],
    )
    res = run(cfg)
    paths = write_outputs(res, cfg, tmp_path)
    vtks = [p for p in paths if str(p).endswith(".vtk")]
    assert len(vtks) == 2
    text = open(vtks[0]).read()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "SCALARS saturation double 1" in text
    assert "SCALARS kirchhoff_u double 1" in text
    assert text.count("\n") > 25  # 25 cell values per field


VTK_INTERVAL_2 = """\
# vtk DataFile Version 3.0
fields
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 4 double
0 0 0
0.5 0 0
0.5 0 0
1 0 0
CELLS 2 6
2 0 1
2 2 3
CELL_TYPES 2
3
3
CELL_DATA 2
SCALARS s double 1
LOOKUP_TABLE default
0.25
0.5
"""

VTK_RECT_2X1 = """\
# vtk DataFile Version 3.0
fields
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 8 double
0 0 0
0.5 0 0
0.5 1 0
0 1 0
0.5 0 0
1 0 0
1 1 0
0.5 1 0
CELLS 2 10
4 0 1 2 3
4 4 5 6 7
CELL_TYPES 2
9
9
CELL_DATA 2
SCALARS s double 1
LOOKUP_TABLE default
0.25
0.5
SCALARS u double 1
LOOKUP_TABLE default
1
-3
"""


def test_vtk_golden_1d_and_2d(tmp_path):
    from oracles import build_interval_mesh
    from richards.mesh import build_rect_mesh
    from richards.vtkio import write_vtk

    s = np.array([0.25, 0.5])
    write_vtk(build_interval_mesh(2), {"s": s}, tmp_path / "line.vtk")
    write_vtk(build_rect_mesh(2, 1), {"s": s, "u": np.array([1.0, -3.0])}, tmp_path / "quad.vtk")
    assert (tmp_path / "line.vtk").read_text() == VTK_INTERVAL_2
    assert (tmp_path / "quad.vtk").read_text() == VTK_RECT_2X1


def test_residuals_csv_schema(tmp_path):
    cfg = replace(preset_test2(eps=1e-6), t_end=2e3)
    res = run(cfg)
    write_outputs(res, cfg, tmp_path)
    lines = (tmp_path / "residuals.csv").read_text().splitlines()
    assert lines[0] == "step,iter,residual"
    step, it, r = lines[1].split(",")
    assert (step, it) == ("1", "0")
    float(r)


# -- CLI -----------------------------------------------------------------------


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "richards.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_run_and_exit_codes(tmp_path):
    out = cli(
        "run", "--case", "test2", "--eps", "1e-6", "--tend", "2e3",
        "--out", str(tmp_path),
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "summary.csv").exists()

    bad = cli("run", "--case", "test1", "--dt", "0.3")  # 0.7/0.3 not integral
    assert bad.returncode == 2

    fail = cli(
        "run", "--case", "test1", "--formulation", "u", "--beta", "1",
        "--mesh", "5x5", "--tend", "0.05", "--out", str(tmp_path / "f"),
    )
    assert fail.returncode == 3


# LAPACK's band solvers reporting a failed first pivot (info = 1)
FAILED_PIVOT = {
    "dgbsv": lambda kl, ku, ab, b, **kwargs: (ab, np.zeros(len(b), dtype=np.int32), b, 1),
    "dpbsv": lambda ab, b, **kwargs: (ab, b, 1),
}


@pytest.mark.parametrize("case,lapack,t_end", [("test1", "dgbsv", "0.01"),
                                              ("test2", "dpbsv", "1e3")])
def test_cli_singular_jacobian_exits_newton_failure(tmp_path, monkeypatch, capsys, case,
                                                    lapack, t_end):
    # an exactly zero pivot of the band LU (test1), or a nonpositive one of
    # the band Cholesky that solves the gravity-free test2, ends the solve
    # unconverged instead of raising, so the CLI reports a Newton failure
    import richards.newton
    from richards.cli import main

    monkeypatch.setattr(richards.newton, lapack, FAILED_PIVOT[lapack])
    code = main(["run", "--case", case, "--beta", "4", "--eps", "1e-6", "--tend", t_end,
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "failed to converge at step 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,name", [("--dt", "dt"), ("--eps", "eps"), ("--tend", "t_end")])
def test_cli_refuses_a_non_finite_step_horizon_or_tolerance(tmp_path, capsys, flag, name):
    # dt = inf made no step, eps = inf took no Newton iteration, and
    # t_end = inf overflowed when counting the steps; each is refused up front
    from richards.cli import main

    code = main(["run", "--case", "test1", "--mesh", "4x4", flag, "inf",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {name} must be finite, got inf" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args,message", [
    (["--beta", "inf"], "beta must be finite, got inf"),
    (["--pb=-inf"], "p_b must be finite, got -inf"),
    (["--beta", "nan"], "beta must be finite, got nan"),
])
def test_cli_refuses_non_finite_model_parameters(tmp_path, capsys, args, message):
    # beta = inf ended in a ZeroDivisionError traceback, and p_b = -inf in a
    # Newton failure (exit 3) after 0 iterations
    from richards.cli import main

    code = main(["run", "--case", "test1", "--mesh", "4x4", *args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,message", [
    ("case = test1\np_dirichlet = inf\n", "p_dirichlet must be finite, got inf"),
    ("case = test2\ns0_default = nan\n", "s0_default must be finite, got nan"),
    ("case = test2\ngravity = 0 inf\n", "gravity must be finite, got 0.0 inf"),
    ("case = test1\ngravity = nan -1\n", "gravity must be finite, got nan -1.0"),
])
def test_cli_refuses_non_finite_config_values(tmp_path, capsys, text, message):
    # each was a Newton failure (exit 3): a non-finite residual at tau_init
    from richards.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "mesh = 4x4\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_runs_a_closed_box_with_no_water(tmp_path, capsys):
    # both steps solved, then mass_error refused the zero initial volume and
    # the run exited 2 with no output; the mass error is relative to that
    # volume, so the run reports none: an empty mass_err column
    from richards.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 4\ndt = 0.01\nt_end = 0.02\neps = 1e-6\ns0_default = 0\nmesh = 4x4\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "2 steps" in captured.out and captured.err == ""
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    header, row = rows[-2].split(","), rows[-1].split(",")
    assert row[header.index("steps")] == "2"
    assert row[header.index("mass_err")] == ""


def test_cli_refuses_two_edges_joining_one_pair(tmp_path):
    from test_mesh import split_edge_mesh

    path = tmp_path / "split.mesh"
    split_edge_mesh(path)
    out = cli("validate-mesh", str(path))
    assert out.returncode == 2
    assert "edge 7 repeats cell pair 0|1 of edge 0" in out.stderr
    assert "Traceback" not in out.stderr


def test_import_leaves_out_scipy_integrate():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, richards.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = test2\neps = 1e-4\ntend = 2e3  # short\n")
    out = cli("run", "--config", str(cfg), "--eps", "1e-6", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    text = (tmp_path / "summary.csv").read_text()
    assert "# eps = 9.9999999999999995e-07" in text  # flag overrode the file


def test_cli_validate_mesh(tmp_path):
    from oracles import save_mesh
    from richards.mesh import build_rect_mesh

    path = tmp_path / "m.mesh"
    save_mesh(build_rect_mesh(3, 3), path)
    out = cli("validate-mesh", str(path))
    assert out.returncode == 0
    assert "admissible" in out.stdout

    path.write_text("garbage\n")
    assert cli("validate-mesh", str(path)).returncode == 2

    mesh = build_rect_mesh(3, 3)
    mesh.cell_centers[0, 0] += 0.05  # well formed, but not orthogonal
    save_mesh(mesh, path)
    out = cli("validate-mesh", str(path))
    assert out.returncode == 2
    assert "not admissible" in out.stderr

    save_mesh(build_rect_mesh(2, 2), path)  # 4 cells; edge 0 is 0|1
    path.write_text(path.read_text().replace("interior 0 1 ", "interior 0 9 "))
    out = cli("validate-mesh", str(path))
    assert out.returncode == 2
    assert "outside [0, 4)" in out.stderr and "Traceback" not in out.stderr

    # a record must hold exactly its tokens: 3 + d for a cell, 8 for an
    # interior edge, 7 + d for a boundary edge
    save_mesh(build_rect_mesh(2, 2), path)
    text = path.read_text()
    for record, bad, counts in [
        ("cell 0 0.25 0.25 0.25", "cell 0 0.25 0.25 0.25 7.0 junk", "expected 5 tokens, got 7"),
        ("edge 4 0.5 boundary 0 0.25 0 0.25 noflux",
         "edge 4 0.5 boundary 0 0.25 0 0.25 noflux extra", "expected 9 tokens, got 10"),
    ]:
        assert record + "\n" in text
        path.write_text(text.replace(record + "\n", bad + "\n"))
        out = cli("validate-mesh", str(path))
        assert out.returncode == 2
        assert f"malformed line '{bad}' ({counts})" in out.stderr
        assert "Traceback" not in out.stderr

    save_mesh(build_rect_mesh(2, 2), path)  # edge 5 is a no-flux boundary edge
    path.write_text(path.read_text() + "edge 5 0.5 boundary 1 0.25 1 0.25 dirichlet\n")
    out = cli("validate-mesh", str(path))
    assert out.returncode == 2
    assert "duplicate edge record 5" in out.stderr and "Traceback" not in out.stderr

    # nan geometry fails every comparison; validation must report it
    save_mesh(build_rect_mesh(2, 2), path)
    text = path.read_text()
    for record, bad, message in [
        ("cell 0 0.25 0.25 0.25", "cell 0 0.25 nan 0.25", "edge 0 = 0|1: center distance nan"),
        ("edge 5 0.5 boundary 1 0.25 1 0.25", "edge 5 0.5 boundary 1 0.25 nan 0.25",
         "edge 5 (boundary of 1): |x_K - x_sigma| = nan"),
        ("cell 0 0.25 0.25 0.25", "cell 0 nan 0.25 0.25", "cell 0: non-positive volume nan"),
    ]:
        assert record in text
        path.write_text(text.replace(record, bad))
        out = cli("validate-mesh", str(path))
        assert out.returncode == 2, bad
        assert message in out.stderr and "Traceback" not in out.stderr, out.stderr


def test_cli_oracle_table():
    out = cli("oracle-kirchhoff", "--beta", "4", "--pb", "-0.01")
    assert out.returncode == 0
    assert "eta_mode=derived" in out.stdout
    assert "eta_mode=legacy" in out.stdout


def test_cli_refuses_dirichlet_edges_without_value(tmp_path, monkeypatch, capsys):
    # a mesh file may tag Dirichlet edges itself; test2 sets no p_dirichlet,
    # so the run has no boundary value for them and must stop before any step
    import richards.harness as H
    from richards.cli import main
    from oracles import save_mesh
    from richards.mesh import DIRICHLET, build_rect_mesh

    mesh = build_rect_mesh(4, 4)
    assert mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET) == 4
    path = tmp_path / "m.mesh"
    save_mesh(mesh, path)

    def newton_solve(*args, **kwargs):
        raise AssertionError("a Newton step was started")

    monkeypatch.setattr(H, "newton_solve", newton_solve)
    code = main([
        "run", "--case", "test2", "--eps", "1e-6", "--tend", "2e3",
        "--mesh", f"file:{path}", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"4 Dirichlet edges {mesh.dirichlet_edges.tolist()}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_cli_p_dirichlet_needs_dirichlet_edges(tmp_path, capsys):
    # a mesh file that tags its own Dirichlet edges takes p_dirichlet alone;
    # on a mesh without Dirichlet edges p_dirichlet is refused before any step
    from richards.cli import main
    from oracles import save_mesh
    from richards.mesh import DIRICHLET, build_rect_mesh

    mesh = build_rect_mesh(4, 4)
    assert mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET) == 4
    path = tmp_path / "m.mesh"
    save_mesh(mesh, path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = test2\nmesh = file:{path}\np_dirichlet = 1\ntend = 2e3\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    text = (tmp_path / "a" / "summary.csv").read_text()
    assert "# p_dirichlet = 1\n" in text and "dirichlet_box" not in text

    code = main(["run", "--config", str(cfg), "--mesh", "4x4", "--out", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no Dirichlet edges" in err and "Traceback" not in err
    assert not (tmp_path / "b" / "summary.csv").exists()


def test_s0_boxes_must_fit_the_mesh_dimension(tmp_path, capsys):
    # test2's 2-D quadrant on a 1-D mesh, built (exact cell means) or loaded
    # from a file (centre sampling), is refused before any step instead of
    # being misread; a 1-D box runs
    from richards.cli import main
    from oracles import build_interval_mesh, save_mesh
    from richards.mesh import load_mesh

    msg = "s0_boxes: a box of shape (2, 2) does not fit the 1-D mesh: it needs shape (1, 2)"
    cfg = replace(preset_test2(eps=1e-6), t_end=2e3)
    with pytest.raises(ConfigError) as exc:
        run(cfg, mesh=build_interval_mesh(5))
    assert str(exc.value) == msg
    path = tmp_path / "line.mesh"
    save_mesh(build_interval_mesh(6), path)
    code = main(["run", "--case", "test2", "--tend", "2e3", "--mesh", f"file:{path}",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert msg in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    for mesh in (build_interval_mesh(5), load_mesh(path)):
        res = run(replace(cfg, s0_boxes=[([(0.0, 0.5)], 0.5)]), mesh=mesh)
        assert res.converged and min(res.iters_per_step) > 0
        assert res.trajectory.taus[0].max() > res.trajectory.taus[0].min()


def test_cli_mesh_file_run(tmp_path):
    from oracles import save_mesh
    from richards.mesh import build_rect_mesh

    path = tmp_path / "m.mesh"
    save_mesh(build_rect_mesh(5, 5), path)
    out = cli(
        "run", "--case", "test2", "--eps", "1e-6", "--tend", "2e3",
        "--mesh", f"file:{path}", "--out", str(tmp_path),
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("gravity", ["0 -1 7", "-1"])
def test_cli_refuses_gravity_that_does_not_fit_the_mesh(tmp_path, capsys, gravity):
    # a third component on a 2-D mesh, or a missing second one, is refused
    # before any step instead of being dropped or failing inside numpy
    from richards.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = test1\nmesh = 4x4\ntend = 0.02\ngravity = {gravity}\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"gravity {gravity} does not fit the 2-D mesh: it needs 2 components, "
            "and any beyond them must be 0") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_zero_gravity_components_beyond_the_mesh_dimension_are_allowed(tmp_path):
    # on a 1-D file mesh, gravity (0, 0) runs as (0,): infiltration through
    # a Dirichlet end
    from oracles import build_interval_mesh, save_mesh

    path = tmp_path / "line.mesh"
    save_mesh(build_interval_mesh(8), path)
    cfg = RunConfig(case="custom", formulation="tau", beta=4.0, dt=0.01, t_end=0.03, eps=1e-6,
                    mesh=f"file:{path}", gravity=(0.0, 0.0), dirichlet_box=[(0.0, 0.0)],
                    p_dirichlet=1.0)
    res = run(cfg)
    assert res.converged and min(res.iters_per_step) > 0
    one = run(replace(cfg, gravity=(0.0,)))
    assert res.iters_per_step == one.iters_per_step
    for a, b in zip(res.trajectory.taus, one.trajectory.taus):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("text, message", [
    ("case = test2\nadaptive_dt = maybe\n", ":2: bad value for adaptive_dt: 'maybe'"),
    ("case = test2\n\nbeta = four\n", ":3: bad value for beta: could not convert"),
    ("case = test2\ntend 2e3\n", ":2: expected 'key = value'"),
    ("case = test2\ndirichlet_box = 0 0.3 1\n", ":2: bad value for dirichlet_box"),
    ("s0_boxes = 0 0.5 0.5 1 0.5\n", ":1: config key 's0_boxes' has no text form"),
    ("case = test2\nsteps = 3\n", ":2: config key 'steps' is unknown"),
])
def test_cli_config_errors_name_file_and_line(tmp_path, capsys, text, message):
    from richards.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{cfg}{message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["betas", "epss", "formulations"])
def test_cli_sweep_refuses_an_empty_grid_list(tmp_path, key):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"case = test1\nmesh = 5x5\n{key} =\n")
    out = cli("sweep", "--config", str(cfg))
    assert out.returncode == 2
    assert f"{cfg}:3: bad value for {key}: a sweep grid needs at least one value" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_sweep_reports_a_worker_error(tmp_path, monkeypatch, capfd):
    # the runs raise in worker processes: the file descriptors are captured,
    # so a traceback a worker printed would show here too
    from richards.cli import EXIT_CONFIG, main

    _usable_cpus(monkeypatch, 2)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"case = test1\nmesh = 4x4\ntend = 0.02\ngravity = 0 -1 7\n"
                   f"out = {tmp_path / 'out'}\n")
    code = main(["sweep", "--config", str(cfg)])
    err = capfd.readouterr().err
    assert code == EXIT_CONFIG
    assert "error: gravity 0 -1 7 does not fit the 2-D mesh" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_importing_the_cli_loads_no_process_pool():
    # sweep imports them when it starts a pool, so that a run's start-up
    # (timed by the benchmark's setup_s) does not load them
    code = ("import sys, richards.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_custom_run_from_flags(tmp_path):
    from richards.cli import main

    code = main([
        "run", "--case", "custom", "--beta", "4", "--eps", "1e-6", "--dt", "0.01",
        "--tend", "0.02", "--mesh", "4x4", "--out", str(tmp_path),
    ])
    assert code == 0
    assert "# case = custom\n" in (tmp_path / "summary.csv").read_text()


def _run_and_rerun_echo(tmp_path, argv):
    """Run argv, then rerun the summary.csv echo as a config file."""
    from richards.cli import main

    assert main([*argv, "--out", str(tmp_path / "a")]) == 0
    text = (tmp_path / "a" / "summary.csv").read_text()
    echo = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("\n".join(echo) + "\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    return echo, [(tmp_path / d) for d in ("a", "b")]


@pytest.mark.parametrize("case", ["test1", "test2-file-mesh", "custom"])
def test_summary_echo_reruns_the_run(tmp_path, case):
    from oracles import save_mesh
    from richards.mesh import DIRICHLET, build_rect_mesh

    cfg = tmp_path / "run.cfg"
    if case == "test1":
        argv = ["run", "--case", "test1", "--eps", "1e-4", "--mesh", "5x5", "--tend", "0.05"]
    elif case == "test2-file-mesh":
        mesh = build_rect_mesh(4, 4)
        mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
        save_mesh(mesh, tmp_path / "m.mesh")
        cfg.write_text(f"case = test2\nmesh = file:{tmp_path / 'm.mesh'}\np_dirichlet = 1\n")
        argv = ["run", "--config", str(cfg), "--tend", "3e3"]
    else:
        cfg.write_text(
            "case = custom\nbeta = 2\ndt = 0.01\ntend = 0.03\neps = 1e-6\nmesh = 4x3\n"
            "gravity = 0 -1\ndirichlet_box = 0 0.5 1 1\np_dirichlet = 0.5\npb = -0.02\n"
            "adaptive_dt = yes\neta_mode = legacy\n"
        )
        argv = ["run", "--config", str(cfg)]
    echo, (a, b) = _run_and_rerun_echo(tmp_path, argv)

    # every field with a text form and a value, in field order
    unset = {"dirichlet_box"} if case == "test2-file-mesh" else set()
    keys = [ln.split("=")[0].strip() for ln in echo]
    assert keys == [f.name for f in fields(RunConfig) if f.name not in unset | {"s0_boxes"}]
    assert f"out_dir = {a}" in echo

    def rows(d):
        lines = (d / "summary.csv").read_text().splitlines()
        return [ln.rsplit(",", 1)[0] for ln in lines if not ln.startswith("#")]

    assert rows(a) == rows(b) and len(rows(a)) == 2
    assert (a / "residuals.csv").read_text() == (b / "residuals.csv").read_text()
    assert len((a / "residuals.csv").read_text().splitlines()) > 2


def _refused_before_first_step(tmp_path, monkeypatch, capsys, text):
    """Exit code and stderr of a run of config text that must stop before any step."""
    import richards.harness as H
    from richards.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)

    def newton_solve(*args, **kwargs):
        raise AssertionError("a Newton step was started")

    monkeypatch.setattr(H, "newton_solve", newton_solve)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out" / "summary.csv").exists()
    return code, capsys.readouterr().err


def test_cli_refuses_snapshots_on_mesh_without_cell_boxes(tmp_path, monkeypatch, capsys):
    # loaded meshes have no cell boxes to export; the run must stop before any step
    from oracles import save_mesh
    from richards.mesh import build_rect_mesh

    path = tmp_path / "m.mesh"
    save_mesh(build_rect_mesh(4, 4), path)
    code, err = _refused_before_first_step(
        tmp_path, monkeypatch, capsys,
        f"case = test1\ntend = 0.02\nsnapshot_times = 0.01\nmesh = file:{path}\n")
    assert code == 2
    assert "VTK export requires a structured mesh with cell boxes" in err
    assert "Traceback" not in err


def test_cli_refuses_snapshot_times_outside_the_run(tmp_path, monkeypatch, capsys):
    # a snapshot is named after its requested time, so a time with no state
    # of its own must not borrow the nearest one
    code, err = _refused_before_first_step(
        tmp_path, monkeypatch, capsys,
        "case = test1\nmesh = 5x5\ntend = 0.03\nsnapshot_times = 0 0.03 5 -1\n")
    assert code == 2
    assert "snapshot_times 5 -1 lie outside [0, t_end = 0.03]" in err
    assert "Traceback" not in err


def test_cli_writes_no_snapshot_for_a_time_the_run_never_reached(tmp_path):
    # the run fails at its first step (exit 3), so of t = 0 and t = t_end only
    # t = 0 has a state: no snapshot borrows it for t_end
    from richards.cli import EXIT_NEWTON, main

    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = test1\nmesh = 4x4\nt_end = 0.05\neps = 1e-300\n"
                   "snapshot_times = 0 0.05\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_NEWTON
    assert sorted(p.name for p in out.iterdir()) == ["residuals.csv", "snapshot_t0.vtk",
                                                      "summary.csv"]


def test_sweep_echo_reruns_the_sweep(tmp_path):
    from richards.cli import main

    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"case = test1\nmesh = 5x5\ntend = 0.03\nbetas = 4 16\n"
                   f"epss = 1e-4 1e-6\nout = {tmp_path / 'out'}\n")
    summary = tmp_path / "out" / "summary.csv"

    def echo_and_rows():
        lines = summary.read_text().splitlines()
        return ([ln[2:] for ln in lines if ln.startswith("# ")],
                [ln.rsplit(",", 1)[0] for ln in lines if not ln.startswith("#")])

    assert main(["sweep", "--config", str(cfg)]) == 0
    echo, rows = echo_and_rows()
    assert echo[-4:] == ["betas = 4 16", "epss = 0.0001 9.9999999999999995e-07",
                         "formulations = tau u", "eps_ref = 1e-10"]
    cfg.write_text("\n".join(echo) + "\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert echo_and_rows() == (echo, rows)
    assert len(rows) == 1 + 2 + 2 * 2 * 2  # header, references, grid
