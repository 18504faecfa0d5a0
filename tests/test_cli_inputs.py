"""Drawn command lines and config files for the CLI: every input ends in a
documented exit code (0, 2 for a configuration error, 3 for a Newton
failure), never in an exception, and a run that exits 0 writes finite
numbers.  The draws are bounded so that none makes more than three time
steps on a 4x4 mesh (about 50 ms at most)."""

import math
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from richards.cli import main

SPECIAL = [0.0, -0.0, 1.0, -1.0, 4.0, 0.01, -0.01, 1e-6, 1e300, -1e300, 1e-300, -1e-300,
           math.inf, -math.inf, math.nan]
number = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def accepted_steps(dt: float, t_end: float) -> int:
    """The steps of a run of dt and t_end that RunConfig accepts, 0 for one it refuses."""
    if not (math.isfinite(dt) and math.isfinite(t_end) and dt > 0 and t_end >= 0):
        return 0
    ratio = t_end / dt
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
        return 0
    return round(ratio)


# a step and a horizon: drawn apart, or the horizon as 0 to 3 steps
step_and_horizon = st.one_of(
    st.tuples(number, number),
    st.tuples(number, st.integers(0, 3)).map(lambda p: (p[0], p[0] * p[1])))


def finite_outputs(out: Path) -> bool:
    """Whether every number of the data rows of out/summary.csv is finite."""
    for line in (out / "summary.csv").read_text().splitlines()[1:]:
        if line.startswith("#"):
            continue
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


@given(case=st.sampled_from(["test1", "test2"]), formulation=st.sampled_from(["tau", "u"]),
       beta=number, p_b=number, eps=number, dt_t_end=step_and_horizon)
@settings(max_examples=150, deadline=None)
@example(case="test1", formulation="tau", beta=4.0, p_b=-0.01, eps=1e-6,
         dt_t_end=(1e-300, 1e300))  # t_end/dt overflows
@example(case="test1", formulation="tau", beta=1e300, p_b=-1e-300, eps=1.0,
         dt_t_end=(1.0, 0.0))  # u_b underflows to 0
def test_run_flags_end_in_an_exit_code(case, formulation, beta, p_b, eps, dt_t_end):
    dt, t_end = dt_t_end
    assume(accepted_steps(dt, t_end) <= 3)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main(["run", f"--case={case}", f"--formulation={formulation}", "--mesh=4x4",
                     f"--beta={beta!r}", f"--pb={p_b!r}", f"--eps={eps!r}", f"--dt={dt!r}",
                     f"--tend={t_end!r}", f"--out={out}"])
        assert code in (0, 2, 3)
        if code == 0:
            assert finite_outputs(out)


KEYS = ["case", "formulation", "beta", "pb", "eps", "s0_default", "p_dirichlet", "gravity",
        "eta_mode", "betas", "epss", "formulations", "eps_ref", "dt", "tend", "bogus"]
value = st.one_of(number.map(repr), st.just(""), st.sampled_from(["tau", "u", "test1", "test2",
                                                                  "custom", "derived", "x"]),
                  st.tuples(number, number).map(lambda p: f"{p[0]!r} {p[1]!r}"))


@given(lines=st.lists(st.tuples(st.sampled_from(KEYS), value), max_size=6))
@settings(max_examples=25, deadline=None)
def test_sweep_config_text_ends_in_an_exit_code(lines):
    # unknown, repeated and empty keys and grids of one; the mesh, the step
    # and the horizon come last, so at most three steps on 4x4 are made
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "sweep.cfg"
        text = [f"{key} = {val}" for key, val in lines]
        text += ["mesh = 4x4", "dt = 0.01", "tend = 0.02", f"out = {Path(tmp) / 'out'}"]
        cfg.write_text("\n".join(text) + "\n")
        assert main(["sweep", "--config", str(cfg)]) in (0, 2)


def test_a_horizon_of_more_steps_than_a_float_holds_is_refused(tmp_path, capsys):
    # t_end/dt = 1e600 overflows to inf, which is no whole number of steps
    code = main(["run", "--case=test1", "--mesh=4x4", "--dt=1e-300", "--tend=1e300",
                 f"--out={tmp_path}"])
    assert code == 2
    assert "t_end/dt = inf is not integral" in capsys.readouterr().err


def test_an_entry_kirchhoff_value_that_underflows_is_refused(tmp_path, capsys):
    # u_b = -p_b / (beta eta) = 1e-300 / 3e300 underflows to 0
    code = main(["run", "--case=test1", "--mesh=4x4", "--beta=1e300", "--pb=-1e-300",
                 "--tend=0", f"--out={tmp_path}"])
    assert code == 2
    assert "u_b = -p_b / (beta eta) = 0.0; it must be positive and finite" in (
        capsys.readouterr().err)
