"""Constitutive laws, Kirchhoff transform, and the two parametrizations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richards.hydromodel import (
    BrooksCoreyModel,
    Parametrization,
    check_nondegeneracy,
    derive_params,
    kirchhoff_closed_form,
    kirchhoff_quadrature_oracle,
    mobility,
    mobility_derivative,
    sat_of_kirchhoff,
    saturation_of_pressure,
    select_eta_mode,
    _sat_of_kirchhoff_prime,
)

BETAS = [1.0, 2.0, 4.0, 8.0, 16.0]

model_strategy = st.builds(
    BrooksCoreyModel,
    beta=st.floats(0.5, 20.0),
    p_b=st.floats(-1.0, -1e-4),
)


# -- derived constants ---------------------------------------------------------


def test_derive_params_legacy_mode_beta4():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode="legacy")
    p = derive_params(m)
    assert p.eta == pytest.approx(7.25)
    assert p.u_b == pytest.approx(0.01 / 29.0)
    assert p.eta * p.u_b == pytest.approx(2.5e-3)
    assert p.tau_star == 1.0


def test_derive_params_legacy_mode_beta1():
    m = BrooksCoreyModel(beta=1.0, p_b=-0.01, eta_mode="legacy")
    p = derive_params(m)
    assert p.eta == pytest.approx(5.0)
    assert p.u_b == pytest.approx(0.002)
    # (eta*u_b)^(1/(1-eta)) = 0.01^(-1/4) > 1, so tau_star clamps to 1
    assert (p.eta * p.u_b) ** (1.0 / (1.0 - p.eta)) > 1.0
    assert p.tau_star == 1.0


def test_derive_params_derived_mode():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    p = derive_params(m)
    assert p.eta == pytest.approx(3.25)
    assert p.u_b == pytest.approx(0.01 / 13.0)


@given(model_strategy, st.sampled_from(["legacy", "derived"]))
def test_u_continuous_at_branch_switch(m, mode):
    m = BrooksCoreyModel(beta=m.beta, p_b=m.p_b, eta_mode=mode)
    p = derive_params(m)
    param = Parametrization(kind="tau", model=m)
    _, u_left, _, _ = param.eval(p.tau_star * (1.0 - 1e-13))
    _, u_right, _, _ = param.eval(p.tau_star)
    assert abs(float(u_left) - float(u_right)) <= 1e-12 * max(1.0, abs(float(u_right)))
    assert float(u_right) == pytest.approx(p.u_b * p.tau_star**p.eta, rel=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        BrooksCoreyModel(beta=4.0, p_b=0.01)
    with pytest.raises(ValueError):
        BrooksCoreyModel(beta=-1.0, p_b=-0.01)
    with pytest.raises(ValueError):
        BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode="bogus")
    # beta = inf divided by zero at tau_star; p_b = -inf gave u_b = inf
    for beta, p_b in [(np.inf, -0.01), (4.0, -np.inf), (np.nan, -0.01), (4.0, np.nan)]:
        with pytest.raises(ValueError, match="must be finite"):
            BrooksCoreyModel(beta=beta, p_b=p_b)


# -- pointwise laws ------------------------------------------------------------


def test_saturation_of_pressure_values():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    assert saturation_of_pressure(m, m.p_b) == 1.0
    assert saturation_of_pressure(m, 2 * m.p_b) == pytest.approx(2.0**-4)
    assert saturation_of_pressure(m, 1.0) == 1.0


def test_mobility_values():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    assert mobility(m, 0.0) == 0.0
    assert mobility(m, 1.0) == 1.0
    assert mobility(m, 0.5) == pytest.approx(0.5**3.5)
    # clamping outside [0, 1]
    assert mobility(m, -0.5) == 0.0
    assert mobility(m, 1.5) == 1.0
    assert mobility_derivative(m, -0.5) == 0.0
    assert mobility_derivative(m, 1.5) == 0.0


def test_sat_of_kirchhoff_values():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    p = derive_params(m)
    assert sat_of_kirchhoff(m, p.u_b) == 1.0
    assert sat_of_kirchhoff(m, p.u_b / 2.0**p.eta) == pytest.approx(0.5)
    assert sat_of_kirchhoff(m, -0.3) == 0.0


# -- parametrization maps ------------------------------------------------------


def test_tau_form_lower_branch_legacy_values():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode="legacy")
    p = derive_params(m)
    s, u, sp, up = Parametrization(kind="tau", model=m).eval(0.5)
    assert float(s) == 0.5
    assert float(u) == pytest.approx(p.u_b * 0.5**7.25, rel=1e-14)
    assert float(sp) == 1.0
    assert float(up) == pytest.approx(7.25 * p.u_b * 0.5**6.25, rel=1e-14)


@pytest.mark.parametrize("mode", ["legacy", "derived"])
def test_tau_form_upper_branch_dirichlet_value(mode):
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode=mode)
    p = derive_params(m)
    s, u, _, up = Parametrization(kind="tau", model=m).eval(2.01)
    assert float(s) == 1.0
    assert float(u) == pytest.approx(2.01 - 1.0 + p.u_b, rel=1e-14)
    # p(2.01) = p_b + u - u_b = 1 exactly, the Dirichlet pressure of the
    # injection test
    assert m.p_b + float(u) - p.u_b == pytest.approx(1.0, rel=1e-14)
    assert float(up) == 1.0


def test_u_form_singularity_at_zero():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    s, u, sp, up = Parametrization(kind="u", model=m).eval(0.0)
    assert float(s) == 0.0
    assert float(u) == 0.0
    assert math.isinf(float(sp))
    assert float(up) == 1.0


def test_extension_below_zero():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    for param in (Parametrization(kind="tau", model=m), Parametrization(kind="u", model=m)):
        s, u, sp, up = param.eval(-0.7)
        assert float(s) == 0.0
        assert float(sp) == 0.0
        assert float(u) == -0.7
        assert float(up) == 1.0


def test_sat_inverse_examples():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode="legacy")
    p = derive_params(m)
    tau_p = Parametrization(kind="tau", model=m)
    assert tau_p.sat_inverse(0.0) == 0.0
    assert tau_p.sat_inverse(1e-6) == pytest.approx(1e-6, rel=1e-14)
    u_p = Parametrization(kind="u", model=m)
    assert u_p.sat_inverse(1e-6) == pytest.approx(p.u_b * (1e-6) ** p.eta, rel=1e-12)
    with pytest.raises(ValueError):
        tau_p.sat_inverse(1.5)


@pytest.mark.parametrize("mode", ["legacy", "derived"])
def test_tau_of_pressure_examples(mode):
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode=mode)
    p = derive_params(m)
    tau_p = Parametrization(kind="tau", model=m)
    assert tau_p.tau_of_pressure(m.p_b) == pytest.approx(p.tau_sat, rel=1e-14)
    # tau_D for the injection pressure is 2.01 in either eta mode: the u_b
    # dependence cancels on the affine saturated branch
    assert tau_p.tau_of_pressure(1.0) == pytest.approx(2.01, rel=1e-14)
    u_p = Parametrization(kind="u", model=m)
    assert u_p.tau_of_pressure(1.0) == pytest.approx(p.u_b + 1.0 - m.p_b, rel=1e-14)


def whole_array_sat_of_kirchhoff_prime(params, u):
    """d S~/du on any u: +inf at u = 0, 0 for u >= u_b and u < 0."""
    u = np.asarray(u, dtype=float)
    eta, u_b = params.eta, params.u_b
    inner = (u > 0.0) & (u < u_b)
    safe = np.where(u > 0.0, u, 1.0)
    val = (1.0 / (eta * u_b)) * (safe / u_b) ** (1.0 / eta - 1.0)
    return np.where(inner, val, np.where(u == 0.0, np.inf, 0.0))


def whole_array_eval(param, tau):
    """Parametrization.eval as whole-array selections: every branch's formula
    on every cell, then np.where picks each cell's branch."""
    tau = np.asarray(tau, dtype=float)
    p = param.params
    eta, u_b, t_st = p.eta, p.u_b, p.tau_star
    low = (tau >= 0.0) & (tau < t_st)
    up_b = tau >= t_st
    t_low = np.where(low, tau, 0.0)
    u_up = tau - t_st + u_b * t_st**eta
    u = np.where(low, u_b * t_low**eta, np.where(up_b, u_up, tau))
    upr = np.where(low, eta * u_b * t_low ** (eta - 1.0), 1.0)
    s = np.where(low, tau, 0.0)
    s = np.where(up_b, sat_of_kirchhoff(param.model, np.where(up_b, u, 0.0), p), s)
    sp = np.where(low, 1.0, 0.0)
    sp = np.where(up_b, whole_array_sat_of_kirchhoff_prime(p, np.where(up_b, u, -1.0)), sp)
    return s, u, sp, upr


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["tau", "u"]), beta=st.sampled_from([1.0, 4.0, 16.0]),
       mode=st.sampled_from(["derived", "legacy"]), data=st.data())
def test_eval_matches_whole_array_oracle(kind, beta, mode, data):
    # bit for bit, sign bits and NaNs included, on scalars and 1-D and 2-D
    # arrays mixing every branch and its end points
    param = Parametrization(kind=kind, model=BrooksCoreyModel(beta=beta, p_b=-0.01, eta_mode=mode))
    p = param.params
    special = [-np.inf, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-6, p.u_b, p.tau_star,
               np.nextafter(p.tau_star, -np.inf), np.nextafter(p.tau_star, np.inf), p.tau_sat,
               np.nextafter(p.tau_sat, -np.inf), np.nextafter(p.tau_sat, np.inf),
               2.0 * p.tau_sat + 1.0, np.inf, np.nan]
    element = st.one_of(st.sampled_from(special), st.floats(-2.0, 3.0 * p.tau_sat),
                        st.floats(0.0, p.tau_sat))
    shape = data.draw(st.sampled_from([(), (1,), (9,), (3, 4), (1, 5)]))
    values = data.draw(st.lists(element, min_size=max(1, int(np.prod(shape))),
                                max_size=max(1, int(np.prod(shape)))))
    tau = np.array(values, dtype=float).reshape(shape)
    inputs = [tau] + ([float(tau)] if tau.ndim == 0 else []) + ([tau.T] if tau.ndim == 2 else [])
    for x in inputs:
        got, want = param.eval(x), whole_array_eval(param, x)
        assert len(got) == 4
        for a, b in zip(got, want):
            assert isinstance(a, np.ndarray) and a.dtype == np.float64
            assert a.shape == b.shape == np.shape(x)
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["tau", "u"])
@pytest.mark.parametrize("p_b", [-0.01, -10.0])
def test_saturated_branch_has_the_bits_of_the_general_formula(kind, p_b):
    # eval takes s = 1 and s' = 0 with no power wherever u >= u_b.  At
    # p_b = -0.01 (the presets) tau_star = tau_sat = 1 for kind tau, so its
    # whole upper branch is saturated; at p_b = -10, tau_star = 0.66 < tau_sat
    # and part of it is not.  At tau_sat, one ulp either side, the signed
    # zeros and NaN, in an array and as scalars, the bits are those of
    # S~(u) and its right derivative on every cell (whole_array_eval)
    param = Parametrization(kind=kind, model=BrooksCoreyModel(beta=4.0, p_b=p_b))
    p = param.params
    if kind == "tau":
        assert (p.tau_star == p.tau_sat == 1.0) == (p_b == -0.01)
    tau = np.array([p.tau_sat, np.nextafter(p.tau_sat, -np.inf), np.nextafter(p.tau_sat, np.inf),
                    -0.0, 0.0, np.nan, p.tau_star, 0.5 * (p.tau_star + p.tau_sat),
                    2.0 * p.tau_sat, np.inf])
    for x in (tau, *tau.tolist()):
        for a, b in zip(param.eval(x), whole_array_eval(param, x)):
            assert a.tobytes() == b.tobytes()
    s, u, s_p, _ = param.eval(tau)
    saturated = u >= p.u_b
    assert saturated[[0, 2, 8, 9]].all() and not saturated[[3, 4, 5]].any()
    assert (s[saturated] == 1.0).all() and (s_p[saturated] == 0.0).all()


@pytest.mark.parametrize("beta", [1.0, 4.0, 16.0])
def test_preset_tau_kinds_saturate_at_their_switch_point(beta):
    # tau_star = tau_sat = 1 at every beta of the presets (p_b = -0.01), so
    # eval's upper branch of kind tau takes no power there
    p = Parametrization(kind="tau", model=BrooksCoreyModel(beta=beta, p_b=-0.01)).params
    assert p.tau_star == p.tau_sat == 1.0


class UFormOracle:
    """The u-formulation u(tau) = tau in closed form, written out branch by branch."""

    def __init__(self, model):
        self.model = model
        self.p = derive_params(model)

    def eval(self, tau):
        tau = np.asarray(tau, dtype=float)
        s = np.where(tau >= 0.0, sat_of_kirchhoff(self.model, tau, self.p), 0.0)
        sp = np.where(tau >= 0.0, _sat_of_kirchhoff_prime(self.p, np.maximum(tau, 0.0)), 0.0)
        return s, tau.copy(), sp, np.ones_like(tau)

    def sat_inverse(self, s):
        return self.p.u_b * np.asarray(s, dtype=float) ** self.p.eta

    def tau_of_pressure(self, pressure):
        return kirchhoff_closed_form(self.model, pressure)

    def s_antiderivative(self, tau):
        eta, u_b = self.p.eta, self.p.u_b

        def g_int(u):
            return (eta / (eta + 1.0)) * u_b * np.clip(u / u_b, 0.0, None) ** ((eta + 1.0) / eta)

        t = np.clip(np.asarray(tau, dtype=float), 0.0, None)
        return np.where(t < u_b, g_int(np.minimum(t, u_b)), g_int(u_b) + (t - u_b))

    def xi(self, tau):
        return np.asarray(tau, dtype=float)


@pytest.mark.parametrize("mode", ["legacy", "derived"])
@pytest.mark.parametrize("beta", [1.0, 4.0, 16.0])
def test_u_form_is_tau_graph_with_zero_switch_point(mode, beta):
    m = BrooksCoreyModel(beta=beta, p_b=-0.01, eta_mode=mode)
    param, oracle = Parametrization(kind="u", model=m), UFormOracle(m)
    u_b = oracle.p.u_b
    assert param.params.tau_star == 0.0 and param.params.tau_sat == u_b
    taus = np.concatenate([
        [-2.0, -0.3, -1e-12, 0.0, 1e-300, 1e-12, u_b / 3, u_b * (1 - 1e-15), u_b,
         u_b * (1 + 1e-15), 2 * u_b, 0.5, 1.0, 2.01, 50.0],
        np.linspace(-1.0, 3.0, 97), np.logspace(-14, 1, 60) * u_b,
    ])
    sats = np.concatenate([[0.0, 1e-300, 1e-6, 0.5, 1.0 - 1e-16, 1.0], np.linspace(0, 1, 41)])
    pressures = np.concatenate([-np.logspace(3, -6, 40), [m.p_b, 0.0, 1.0, 10.0]])
    # arrays, then scalars
    for tau in (taus, *taus[:15]):
        for got, want in zip(param.eval(tau), oracle.eval(tau)):
            assert np.array_equal(got, want)
        assert np.array_equal(param.s_antiderivative(tau), oracle.s_antiderivative(tau))
        assert np.array_equal(param.xi(tau), oracle.xi(tau))
    for s in (sats, *sats[:6]):
        assert np.array_equal(param.sat_inverse(s), oracle.sat_inverse(s))
    for pr in (pressures, *pressures[-4:], pressures[0]):
        assert np.array_equal(param.tau_of_pressure(pr), oracle.tau_of_pressure(pr))
    assert isinstance(param.sat_inverse(0.5), float)
    assert isinstance(param.tau_of_pressure(1.0), float)
    assert isinstance(param.xi(0.5), float)
    assert isinstance(param.s_antiderivative(0.5), float)


def test_u_form_dirichlet_value_legacy_mode():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode="legacy")
    u_p = Parametrization(kind="u", model=m)
    assert u_p.tau_of_pressure(1.0) == pytest.approx(1.0103448, rel=1e-6)


# -- quadrature oracle and eta resolution -------------------------------------


def test_oracle_dry_limit():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    p = derive_params(m)
    assert kirchhoff_quadrature_oracle(m, -1e6 * abs(m.p_b)) <= 1e-8 * p.u_b


def test_oracle_validates_derived_u_b():
    for beta in BETAS:
        m = BrooksCoreyModel(beta=beta, p_b=-0.01)
        p = derive_params(m)
        u_quad = kirchhoff_quadrature_oracle(m, m.p_b)
        assert u_quad == pytest.approx(p.u_b, rel=1e-10)
        assert p.u_b == pytest.approx(-m.p_b / (3 * beta + 1), rel=1e-14)


def test_oracle_saturated_region_affine():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    p = derive_params(m)
    for pr in (0.0, 0.5, 1.0):
        assert kirchhoff_quadrature_oracle(m, pr) == pytest.approx(
            p.u_b + (pr - m.p_b), rel=1e-10
        )


def test_select_eta_mode_prefers_derived():
    for beta in BETAS:
        assert select_eta_mode(beta, -0.01) == "derived"


def test_closed_form_matches_oracle():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    for pr in np.concatenate([-np.logspace(1, -6, 25), [m.p_b, 0.0, 1.0]]):
        cf = float(kirchhoff_closed_form(m, pr))
        qd = kirchhoff_quadrature_oracle(m, float(pr))
        assert cf == pytest.approx(qd, rel=1e-8)


# -- non-degeneracy ------------------------------------------------------------


def test_tau_form_nondegenerate():
    grid = np.linspace(-1.0, 3.0, 4001)
    for beta in BETAS:
        m = BrooksCoreyModel(beta=beta, p_b=-0.01)
        lo, hi = check_nondegeneracy(Parametrization(kind="tau", model=m), grid)
        assert abs(lo - 1.0) <= 1e-12
        assert abs(hi - 1.0) <= 1e-12


def test_u_form_degenerate_near_zero():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    grid = np.concatenate([[1e-12], np.linspace(1e-6, 2.0, 100)])
    _, hi = check_nondegeneracy(Parametrization(kind="u", model=m), grid)
    assert hi > 1e6


def test_extension_region_slope_is_one():
    m = BrooksCoreyModel(beta=4.0, p_b=-0.01)
    grid = np.linspace(-2.0, -1e-9, 50)
    for param in (Parametrization(kind="tau", model=m), Parametrization(kind="u", model=m)):
        lo, hi = check_nondegeneracy(param, grid)
        assert lo == 1.0 and hi == 1.0


# -- property tests ------------------------------------------------------------


@given(model_strategy, st.sampled_from(["tau", "u"]))
@settings(max_examples=50)
def test_maps_monotone_and_bounded(m, kind):
    param = Parametrization(kind=kind, model=m)
    grid = np.linspace(-0.5, 3.0, 400)
    s, u, _, _ = param.eval(grid)
    assert np.all(np.diff(s) >= -1e-14)
    assert np.all(np.diff(u) >= -1e-14)
    assert np.all((s >= 0.0) & (s <= 1.0))
    s0, u0, _, _ = param.eval(0.0)
    assert float(s0) == 0.0 and float(u0) == 0.0


@given(model_strategy, st.sampled_from(["tau", "u"]), st.floats(0.0, 3.0))
@settings(max_examples=100)
def test_composition_identity(m, kind, tau):
    param = Parametrization(kind=kind, model=m)
    s, u, _, _ = param.eval(tau)
    assert abs(float(s) - float(sat_of_kirchhoff(m, u))) <= 1e-12


@given(
    st.sampled_from(BETAS),
    st.sampled_from(["tau", "u"]),
    st.floats(1e-3, 3.0),
)
@settings(max_examples=100)
def test_derivatives_match_finite_differences(beta, kind, tau):
    m = BrooksCoreyModel(beta=beta, p_b=-0.01)
    param = Parametrization(kind=kind, model=m)
    p = param.params
    # stay away from branch points, where only one-sided slopes exist
    for kink in (0.0, p.tau_star, p.tau_sat, p.u_b):
        if abs(tau - kink) < 1e-3:
            tau += 2e-3
    h = 1e-7 * (1.0 + abs(tau))
    s_p, u_p = param.eval(tau)[2], param.eval(tau)[3]
    s_fd = (param.eval(tau + h)[0] - param.eval(tau - h)[0]) / (2 * h)
    u_fd = (param.eval(tau + h)[1] - param.eval(tau - h)[1]) / (2 * h)
    assert float(s_fd) == pytest.approx(float(s_p), rel=2e-6, abs=1e-12)
    assert float(u_fd) == pytest.approx(float(u_p), rel=2e-6, abs=1e-12)


@given(model_strategy, st.floats(0.0, 1.0))
@settings(max_examples=100)
def test_sat_inverse_roundtrip(m, s):
    for kind in ("tau", "u"):
        param = Parametrization(kind=kind, model=m)
        tau = param.sat_inverse(s)
        assert tau >= 0.0
        assert abs(float(param.eval(tau)[0]) - s) <= 1e-12
