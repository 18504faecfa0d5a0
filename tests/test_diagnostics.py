"""Error metrics, conservation/energy diagnostics, and structural checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richards.diagnostics import (
    Trajectory,
    contraction_check,
    free_energy,
    linf_l1_error,
    mass_error,
    quadratic_tail,
    xi_seminorm,
)
from richards.harness import preset_test1, run
from richards.hydromodel import BrooksCoreyModel, Parametrization
from richards.mesh import DIRICHLET, build_interval_mesh, build_rect_mesh

MODEL = BrooksCoreyModel(beta=4.0, p_b=-0.01)


def make_traj(mesh, param, taus, tau_D=None):
    taus = [np.asarray(t, dtype=float) for t in taus]
    return Trajectory(
        mesh=mesh,
        param=param,
        times=np.arange(len(taus), dtype=float),
        taus=taus,
        water_volumes=[float(np.sum(mesh.cell_volumes * param.eval(t)[0])) for t in taus],
        tau_D=tau_D,
    )


# -- L-infinity(L1) error ------------------------------------------------------


def test_error_of_identical_trajectories_is_zero():
    mesh = build_rect_mesh(3, 3)
    param = Parametrization(kind="tau", model=MODEL)
    taus = [np.linspace(0.1, 0.9, 9), np.linspace(0.2, 0.95, 9)]
    t = make_traj(mesh, param, taus)
    assert linf_l1_error(t, t, "saturation") == 0.0
    assert linf_l1_error(t, t, "kirchhoff") == 0.0


def test_constant_saturation_offset():
    # reference plus offset c on one step: numerator = c * m_Omega,
    # denominator = max_n ||s_ref||_{L1}
    mesh = build_rect_mesh(4, 4)
    param = Parametrization(kind="tau", model=MODEL)
    base = np.full(16, 0.4)  # lower branch: s = tau
    ref = make_traj(mesh, param, [base, base])
    c = 0.05
    run = make_traj(mesh, param, [base, base + c])
    expected = (c * 1.0) / 0.4
    assert linf_l1_error(run, ref, "saturation") == pytest.approx(expected, rel=1e-12)


def test_u_form_fields_follow_its_own_maps():
    # for u-formulation trajectories the Kirchhoff field is tau itself
    mesh = build_rect_mesh(2, 2)
    param = Parametrization(kind="u", model=MODEL)
    base = np.full(4, 0.3)
    ref = make_traj(mesh, param, [base])
    run = make_traj(mesh, param, [base + 0.1])
    assert linf_l1_error(run, ref, "kirchhoff") == pytest.approx(0.1 / 0.3, rel=1e-12)


def test_grid_mismatch_rejected():
    mesh = build_rect_mesh(2, 2)
    param = Parametrization(kind="tau", model=MODEL)
    a = make_traj(mesh, param, [np.zeros(4), np.zeros(4)])
    b = make_traj(mesh, param, [np.zeros(4)])
    with pytest.raises(ValueError):
        linf_l1_error(a, b, "saturation")
    with pytest.raises(ValueError):
        linf_l1_error(a, a, "vorticity")


def test_prefix_restriction():
    mesh = build_rect_mesh(2, 2)
    param = Parametrization(kind="tau", model=MODEL)
    base = np.full(4, 0.5)
    ref = make_traj(mesh, param, [base] * 3)
    run = make_traj(mesh, param, [base, base, base + 0.2])
    assert linf_l1_error(run, ref, "saturation", up_to=1) == 0.0
    assert linf_l1_error(run, ref, "saturation", up_to=2) > 0.0


# -- mass error ----------------------------------------------------------------


def test_mass_error_refused_with_dirichlet_edges():
    mesh = build_rect_mesh(2, 2)
    mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
    t = make_traj(mesh, Parametrization(kind="tau", model=MODEL), [np.full(4, 0.5)])
    with pytest.raises(ValueError):
        mass_error(t)


def test_mass_error_zero_for_mass_preserving_states():
    mesh = build_rect_mesh(2, 2)
    param = Parametrization(kind="tau", model=MODEL)
    a = np.array([0.2, 0.4, 0.4, 0.2])
    b = np.array([0.3, 0.3, 0.3, 0.3])  # same total on equal cells
    t = make_traj(mesh, param, [a, b])
    assert mass_error(t) <= 1e-14


# -- free energy ---------------------------------------------------------------


def test_energy_zero_at_reference():
    mesh = build_rect_mesh(3, 3)
    param = Parametrization(kind="tau", model=MODEL)
    tau = np.linspace(0.0, 2.0, 9)
    assert free_energy(tau, mesh, param, tau) == 0.0


def test_energy_linear_branch_closed_form():
    # single unit cell, s' = 1 on the lower branch:
    # int_0^0.5 a da = 0.125
    mesh = build_rect_mesh(1, 1)
    param = Parametrization(kind="tau", model=MODEL)
    assert free_energy([0.5], mesh, param, 0.0) == pytest.approx(0.125, rel=1e-12)


@given(
    st.lists(st.floats(-0.5, 2.5), min_size=4, max_size=4),
    st.floats(-0.5, 2.5),
    st.sampled_from(["tau", "u"]),
)
@settings(max_examples=100)
def test_energy_nonnegative(taus, ref, kind):
    mesh = build_rect_mesh(2, 2)
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    param = Parametrization(kind=kind, model=m)
    assert free_energy(np.array(taus), mesh, param, ref) >= -1e-13


def test_energy_agrees_with_quadrature():
    from scipy.integrate import quad

    mesh = build_rect_mesh(1, 1)
    param = Parametrization(kind="tau", model=MODEL)
    for tau, ref in [(0.5, 0.0), (1.7, 0.2), (2.4, 1.1), (-0.3, 0.4)]:
        exact = free_energy([tau], mesh, param, ref)
        num, _ = quad(
            lambda a: (a - ref) * float(param.eval(a)[2]), ref, tau, limit=200
        )
        assert exact == pytest.approx(num, rel=1e-8, abs=1e-12)


# -- xi seminorm ---------------------------------------------------------------


def test_xi_constant_field_vanishes():
    mesh = build_rect_mesh(3, 3)
    mesh.retag_boundary(lambda x: x[:, 0] <= 1e-12, DIRICHLET)
    param = Parametrization(kind="tau", model=MODEL)
    tau = np.full(9, 0.8)
    assert xi_seminorm(tau, mesh, param, 0.8) == pytest.approx(0.0, abs=1e-14)


def test_xi_affine_on_upper_branch():
    # on the upper branch u' = 1, so xi is tau plus a constant and the
    # seminorm coincides with the plain discrete H1 seminorm of tau
    from richards.mesh import discrete_h1_inner

    mesh = build_rect_mesh(4, 4)
    param = Parametrization(kind="tau", model=MODEL)
    t_st = param.params.tau_star
    rng = np.random.default_rng(0)
    tau = t_st + rng.uniform(0.1, 1.0, 16)
    assert xi_seminorm(tau, mesh, param) == pytest.approx(
        discrete_h1_inner(mesh, tau, tau), rel=1e-12
    )


@given(st.floats(-0.5, 2.5), st.floats(-0.5, 2.5), st.sampled_from(["tau", "u"]))
@settings(max_examples=100)
def test_xi_cauchy_schwarz_inequality(a, b, kind):
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    param = Parametrization(kind=kind, model=m)
    lhs = (a - b) * (float(param.eval(a)[1]) - float(param.eval(b)[1]))
    rhs = (float(param.xi(a)) - float(param.xi(b))) ** 2
    assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs))


# -- contraction ---------------------------------------------------------------


def test_contraction_identical_runs():
    mesh = build_rect_mesh(2, 2)
    param = Parametrization(kind="tau", model=MODEL)
    taus = [np.full(4, 0.3), np.full(4, 0.4)]
    t = make_traj(mesh, param, taus)
    np.testing.assert_allclose(contraction_check(t, t), 0.0, atol=1e-15)


def test_contraction_config_mismatch():
    mesh = build_rect_mesh(2, 2)
    param = Parametrization(kind="tau", model=MODEL)
    a = make_traj(mesh, param, [np.zeros(4)] * 2)
    b = make_traj(mesh, param, [np.zeros(4)] * 3)
    with pytest.raises(ValueError):
        contraction_check(a, b)
    # same mesh size and times, but another boundary value or Dirichlet edge set
    top, left = build_rect_mesh(2, 2), build_rect_mesh(2, 2)
    top.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
    left.retag_boundary(lambda x: x[:, 0] <= 1e-12, DIRICHLET)
    taus = [np.zeros(4)] * 2
    a = make_traj(top, param, taus, tau_D=2.0)
    assert contraction_check(a, make_traj(top, param, taus, tau_D=2.0)).shape == (1,)
    for b in (make_traj(top, param, taus, tau_D=1.5), make_traj(left, param, taus, tau_D=2.0)):
        with pytest.raises(ValueError, match="boundary data differ"):
            contraction_check(a, b)


# -- whole-array metrics against the per-level formulas ------------------------


def per_level(traj, i):
    """Field i (0: s, 1: u) of each level, evaluated level by level."""
    return [np.asarray(traj.param.eval(t)[i], dtype=float) for t in traj.taus]


def per_level_error(run, ref, i, up_to=None):
    m = run.mesh.cell_volumes
    stop = len(run.times) if up_to is None else up_to + 1
    f_run, f_ref = per_level(run, i)[:stop], per_level(ref, i)[:stop]
    num = max(float(np.sum(m * np.abs(a - b))) for a, b in zip(f_run, f_ref))
    den = max(float(np.sum(m * np.abs(b))) for b in f_ref)
    return num / den


def per_level_contraction(run_a, run_b):
    m = run_a.mesh.cell_volumes
    return np.diff(np.array([float(np.sum(m * np.abs(sa - sb)))
                             for sa, sb in zip(per_level(run_a, 0), per_level(run_b, 0))]))


@pytest.fixture(scope="module")
def infiltration_runs():
    """A tau reference, and tau and u runs, of test1 on 12x12 over 10 steps."""
    base = replace(preset_test1(beta=4.0, eps=1e-4, mesh_size="12x12"), t_end=0.1)
    runs = [run(replace(base, eps=1e-8)), run(base), run(replace(base, formulation="u")),
            run(replace(base, formulation="u", eps=1e-6))]
    assert all(r.converged and len(r.trajectory.taus) == 11 for r in runs)
    return [r.trajectory for r in runs]


def test_whole_array_metrics_match_the_per_level_formulas(infiltration_runs):
    ref, tau_run, u_run, u_fine = infiltration_runs
    for traj in infiltration_runs:
        s, u = traj.fields()
        assert s.shape == u.shape == (11, 144)
        assert np.array_equal(s, np.stack(per_level(traj, 0)))
        assert np.array_equal(u, np.stack(per_level(traj, 1)))
    for traj in (tau_run, u_run):
        for i, which in enumerate(("saturation", "kirchhoff")):
            for up_to in (None, 0, 1, 4, 10):
                err = linf_l1_error(traj, ref, which, up_to=up_to)
                assert err == per_level_error(traj, ref, i, up_to)
    # runs with the same boundary data: tau_D depends on the formulation
    for a, b in ((tau_run, ref), (ref, tau_run), (u_run, u_fine)):
        margins = contraction_check(a, b)
        assert margins.shape == (10,)
        assert np.array_equal(margins, per_level_contraction(a, b))


# -- quadratic tail ------------------------------------------------------------


def test_quadratic_sequence_passes():
    hist = [1.0, 1e-1, 1e-2, 1e-4, 1e-8, 1e-16]
    assert quadratic_tail(hist, floor=1e-14)


def test_linear_sequence_fails():
    hist = [1.0, 1e-2, 1e-4, 1e-6, 1e-8]
    assert not quadratic_tail(hist, floor=1e-14)


def test_short_history_vacuous():
    assert quadratic_tail([1.0, 1e-12], floor=1e-10)
    assert quadratic_tail([5e-13], floor=1e-10)


def test_non_decreasing_tail_fails():
    assert not quadratic_tail([1.0, 1e-4, 1e-3, 1e-5], floor=1e-14)
