"""Residual/Jacobian assembly and data discretization for one implicit step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import evaluate
from richards.hydromodel import BrooksCoreyModel, Parametrization, mobility
from richards.mesh import DIRICHLET, build_interval_mesh, build_rect_mesh, load_mesh, save_mesh
from richards.scheme import (
    Assembly,
    InitialField,
    discretize_initial,
    jacobian,
    residual,
)

MODEL = BrooksCoreyModel(beta=4.0, p_b=-0.01)
TAU = Parametrization(kind="tau", model=MODEL)
U = Parametrization(kind="u", model=MODEL)


def make_step(mesh, param, gravity=(0.0, 0.0), dt=0.01, tau_prev=None, tau_D=None):
    """tau -> (f, J, s) of one implicit step."""
    if tau_prev is None:
        tau_prev = np.full(mesh.n_cells, 1e-6)
    system = Assembly(mesh, param, np.asarray(gravity, dtype=float), tau_D)
    s_prev = np.asarray(param.eval(tau_prev)[0], dtype=float)
    return lambda tau: evaluate(system, dt, s_prev, tau)


def edge_flux(mesh, param, gravity, tau_K, tau_Ksig, edge_id, from_cell):
    """Flux F_{K,sigma} through one edge, outward w.r.t. from_cell (scalar oracle)."""
    k, l = mesh.edge_cells[edge_id]
    assert from_cell in (k, l)
    n = mesh.edge_normal[edge_id] * (1.0 if from_cell == k else -1.0)
    g = float(n @ np.asarray(gravity, dtype=float))
    m = mesh.edge_measure[edge_id]
    A = mesh.edge_A[edge_id]
    sK, uK, _, _ = param.eval(tau_K)
    sN, uN, _, _ = param.eval(tau_Ksig)
    return float(
        m * (mobility(param.model, sK) * max(g, 0.0) - mobility(param.model, sN) * max(-g, 0.0))
        + A * (uK - uN)
    )


# -- data discretization -------------------------------------------------------


def test_uniform_initial_field():
    mesh = build_rect_mesh(5, 5)
    tau = discretize_initial(1e-6, mesh, TAU)
    np.testing.assert_allclose(TAU.eval(tau)[0], 1e-6, rtol=1e-14)


def test_quadrant_initial_field_cell_count():
    mesh = build_rect_mesh(20, 20)
    field = InitialField(default=1e-6, boxes=[([(0.0, 0.5), (0.5, 1.0)], 0.5)])
    tau = discretize_initial(field, mesh, TAU)
    s = np.asarray(TAU.eval(tau)[0])
    assert int(np.sum(np.isclose(s, 0.5))) == 100
    assert int(np.sum(np.isclose(s, 1e-6))) == 300


def test_straddling_cell_gets_area_weighted_average():
    # on a 5x5 grid the box edge x1 = 0.5 cuts the middle cell column in half
    mesh = build_rect_mesh(5, 5)
    field = InitialField(default=0.0, boxes=[([(0.0, 0.5), (0.0, 1.0)], 1.0)])
    tau = discretize_initial(field, mesh, TAU)
    s = np.asarray(TAU.eval(tau)[0])
    middle = [2 + 5 * j for j in range(5)]
    np.testing.assert_allclose(s[middle], 0.5, rtol=1e-12)


def cell_average(field, mesh, k):
    """Average of field over cell k, one cell at a time (reference)."""
    if mesh.cell_boxes is None:
        # general meshes carry no polygon data; sample at the center
        x = mesh.cell_centers[k]
        for bounds, value in field.boxes:
            b = np.asarray(bounds, dtype=float)
            if np.all(x >= b[:, 0]) and np.all(x < b[:, 1]):
                return value
        return field.default
    cb = mesh.cell_boxes[k]
    vol = mesh.cell_volumes[k]
    acc = field.default * vol
    for bounds, value in field.boxes:
        b = np.asarray(bounds, dtype=float)
        overlap = np.prod(
            np.clip(np.minimum(cb[:, 1], b[:, 1]) - np.maximum(cb[:, 0], b[:, 0]), 0.0, None)
        )
        acc += (value - field.default) * overlap
    return acc / vol


def _loaded(tmp_path, nx, ny):
    save_mesh(build_rect_mesh(nx, ny), tmp_path / "m.mesh")
    return load_mesh(tmp_path / "m.mesh")


@pytest.mark.parametrize("case", ["cut", "two boxes", "interval", "loaded"])
def test_initial_averages_match_cell_loop(case, tmp_path):
    mesh, boxes = {
        "cut": (build_rect_mesh(5, 5), [([(0.0, 0.5), (0.13, 0.77)], 0.5)]),
        "two boxes": (
            build_rect_mesh(7, 6, domain=((-0.3, 1.1), (0.2, 2.0))),
            [([(0.1, 0.45), (0.2, 0.61)], 0.3), ([(0.55, 0.93), (0.7, 1.95)], 0.7)],
        ),
        "interval": (build_interval_mesh(11, domain=(-0.7, 2.3)), [([(0.05, 1.3)], 0.4)]),
        # centers on box bounds, and overlapping boxes: the first one wins
        "loaded": (_loaded(tmp_path, 6, 5),
                   [([(0.25, 0.75), (0.1, 0.5)], 0.3), ([(0.5, 1.0), (0.3, 0.9)], 0.7)]),
    }[case]
    field = InitialField(default=1e-6, boxes=boxes)
    expected = np.array([cell_average(field, mesh, k) for k in range(mesh.n_cells)])
    assert len(np.unique(expected)) > 2
    # tau_star = 1 for this model, so tau0 = s0 on [0, 1)
    assert TAU.params.tau_star == 1.0 and expected.max() < 1.0
    assert np.array_equal(discretize_initial(field, mesh, TAU), expected)


def test_initial_field_out_of_range():
    mesh = build_rect_mesh(2, 2)
    with pytest.raises(ValueError):
        discretize_initial(1.5, mesh, TAU)


@pytest.mark.parametrize(
    "mode,kind,expected",
    [
        ("legacy", "tau", 2.01),
        ("derived", "tau", 2.01),
        ("legacy", "u", 1.0103448),
    ],
)
def test_boundary_discretization_values(mode, kind, expected):
    mesh = build_rect_mesh(20, 20)
    mesh.retag_boundary(lambda x: (x[:, 1] >= 1.0 - 1e-12) & (x[:, 0] <= 0.3 + 1e-12), DIRICHLET)
    model = BrooksCoreyModel(beta=4.0, p_b=-0.01, eta_mode=mode)
    param = Parametrization(kind=kind, model=model)
    tau_D = float(param.tau_of_pressure(1.0))
    assert tau_D == pytest.approx(expected, rel=1e-6)
    system = Assembly(mesh, param, np.zeros(2), tau_D)
    assert system.u_D.shape == (6,)
    assert np.all(system.u_D == float(param.eval(tau_D)[1]))


def test_no_dirichlet_edges_gives_empty_boundary():
    system = Assembly(build_rect_mesh(4, 4), TAU, np.zeros(2))
    assert system.u_D.size == 0 and system.lam_D.size == 0


def test_dirichlet_edges_without_boundary_value_refused():
    mesh = build_rect_mesh(4, 4)
    mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
    with pytest.raises(ValueError, match=r"4 Dirichlet edges \[\d+, \d+, \d+, \d+\]"):
        Assembly(mesh, TAU, np.zeros(2), None)


def test_boundary_value_without_dirichlet_edges_refused():
    with pytest.raises(ValueError, match="no Dirichlet edges"):
        Assembly(build_rect_mesh(4, 4), TAU, np.zeros(2), 2.01)


# -- fluxes --------------------------------------------------------------------


def test_flux_equilibrium_zero():
    mesh = build_rect_mesh(2, 1)
    e = int(mesh.interior_edges[0])
    assert edge_flux(mesh, TAU, (0.0, 0.0), 0.4, 0.4, e, 0) == 0.0


@given(st.floats(-0.2, 2.2), st.floats(-0.2, 2.2))
@settings(max_examples=50)
def test_flux_antisymmetry(tau_k, tau_l):
    mesh = build_rect_mesh(2, 1)
    g = (0.3, -1.0)
    e = int(mesh.interior_edges[0])
    f_kl = edge_flux(mesh, TAU, g, tau_k, tau_l, e, 0)
    f_lk = edge_flux(mesh, TAU, g, tau_l, tau_k, e, 1)
    scale = max(abs(f_kl), abs(f_lk), 1.0)
    assert abs(f_kl + f_lk) <= 1e-14 * scale


def test_gravity_vanishes_on_vertical_edge():
    # vertical edge normal is horizontal, so g = (0,-1) contributes nothing
    mesh = build_rect_mesh(2, 1)
    e = int(mesh.interior_edges[0])
    u_k, u_l = float(TAU.eval(0.9)[1]), float(TAU.eval(0.2)[1])
    expected = mesh.edge_A[e] * (u_k - u_l)
    assert edge_flux(mesh, TAU, (0.0, -1.0), 0.9, 0.2, e, 0) == pytest.approx(expected, rel=1e-14)


# -- residual ------------------------------------------------------------------


def test_uniform_equilibrium_residual_zero():
    mesh = build_rect_mesh(3, 3)
    tau = np.full(9, 0.37)
    step = make_step(mesh, TAU, tau_prev=tau)
    np.testing.assert_allclose(step(tau)[0], 0.0, atol=1e-15)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_mass_identity_telescopes(data):
    mesh = build_rect_mesh(4, 3)
    tau = np.array(
        data.draw(st.lists(st.floats(-0.2, 2.2), min_size=12, max_size=12))
    )
    step = make_step(mesh, TAU, gravity=(0.2, -1.0))
    f = step(tau)[0]
    s_prev = np.asarray(TAU.eval(np.full(12, 1e-6))[0])
    lhs = float(np.sum(mesh.cell_volumes * f))
    rhs = float(
        np.sum(mesh.cell_volumes * (np.asarray(TAU.eval(tau)[0]) - s_prev))
    )
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_residual_matches_edge_flux_oracle():
    # f_K = s_K - s_K^{n-1} + (dt/m_K) sum_sigma F_{K,sigma}, summed edge by
    # edge with the scalar oracle, under oblique gravity and Dirichlet data
    mesh = build_rect_mesh(4, 3)
    mesh.retag_boundary(lambda x: (x[:, 1] >= 1.0 - 1e-12) & (x[:, 0] <= 0.5), DIRICHLET)
    g, dt = (0.2, -1.0), 0.01
    rng = np.random.default_rng(4)
    for param in (TAU, U):
        tau_D = float(param.tau_of_pressure(1.0))
        tau_prev = rng.uniform(0.0, 2.2, 12)
        step = make_step(mesh, param, gravity=g, dt=dt, tau_prev=tau_prev, tau_D=tau_D)
        tau = rng.uniform(-0.2, 2.2, 12)
        flux = np.zeros(12)
        for e in range(mesh.n_edges):
            k, l = mesh.edge_cells[e]
            if l >= 0:
                flux[k] += edge_flux(mesh, param, g, tau[k], tau[l], e, k)
                flux[l] += edge_flux(mesh, param, g, tau[l], tau[k], e, l)
            elif mesh.edge_tag[e] == DIRICHLET:
                flux[k] += edge_flux(mesh, param, g, tau[k], tau_D, e, k)
        expected = (
            np.asarray(param.eval(tau)[0]) - np.asarray(param.eval(tau_prev)[0])
            + dt / mesh.cell_volumes * flux
        )
        np.testing.assert_allclose(step(tau)[0], expected, rtol=1e-12, atol=1e-15)


def test_two_cell_hand_assembly():
    mesh = build_rect_mesh(2, 1)
    tau = np.array([0.8, 0.3])
    tau_prev = np.array([0.5, 0.5])
    dt = 0.01
    step = make_step(mesh, TAU, dt=dt, tau_prev=tau_prev)
    e = int(mesh.interior_edges[0])
    A = mesh.edge_A[e]
    s, u, _, _ = (np.asarray(x) for x in TAU.eval(tau))
    s_prev = np.asarray(TAU.eval(tau_prev)[0])
    flux = A * (u[0] - u[1])
    expected = np.array(
        [
            s[0] - s_prev[0] + dt / 0.5 * flux,
            s[1] - s_prev[1] - dt / 0.5 * flux,
        ]
    )
    np.testing.assert_allclose(step(tau)[0], expected, atol=1e-14)


def test_dirichlet_edge_enters_residual():
    mesh = build_rect_mesh(1, 1)
    mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
    tau_d = TAU.tau_of_pressure(1.0)
    step = make_step(mesh, TAU, dt=0.01, tau_D=tau_d)
    tau = np.array([1e-6])
    f = step(tau)[0]
    e = int(mesh.dirichlet_edges[0])
    expected = 0.01 * mesh.edge_A[e] * (float(TAU.eval(1e-6)[1]) - float(TAU.eval(tau_d)[1]))
    assert f[0] == pytest.approx(expected, rel=1e-12)


# -- Jacobian ------------------------------------------------------------------


def rand_states(rng, n, count):
    for _ in range(count):
        yield rng.uniform(0.05, 2.2, n)


def test_jacobian_matches_directional_finite_differences():
    rect = build_rect_mesh(3, 3)
    rect.retag_boundary(lambda x: (x[:, 1] >= 1.0 - 1e-12) & (x[:, 0] <= 0.3 + 1e-12), DIRICHLET)
    interval_d = build_interval_mesh(7)
    interval_d.retag_boundary(lambda x: x[:, 0] >= 1.0 - 1e-12, DIRICHLET)
    cases = [(rect, (0.0, -1.0)), (build_interval_mesh(7), (-1.0,)), (interval_d, (0.5,))]
    for mesh, gravity in cases:
        n = mesh.n_cells
        tau_D = float(TAU.tau_of_pressure(1.0)) if mesh.dirichlet_edges.size else None
        step = make_step(mesh, TAU, gravity=gravity, tau_D=tau_D)
        rng = np.random.default_rng(7)
        for tau in rand_states(rng, n, 5):
            J = step(tau)[1]
            d = rng.standard_normal(n)
            h = 1e-7
            fd = (step(tau + h * d)[0] - step(tau - h * d)[0]) / (2 * h)
            np.testing.assert_allclose(J @ d, fd, rtol=1e-5, atol=1e-9)


def test_jacobian_symmetric_without_gravity():
    # without gravity m_K * J has the structure D + L * diag(u'); it is
    # symmetric whenever u' is cell-independent (the u-formulation, where
    # u' = 1 identically), and m_K * J * diag(1/u') is symmetric in general
    mesh = build_rect_mesh(3, 2)
    rng = np.random.default_rng(3)
    tau = rng.uniform(0.05, 2.0, 6)

    J = make_step(mesh, U, tau_prev=tau)(tau)[1].toarray()
    scaled = mesh.cell_volumes[:, None] * J
    np.testing.assert_allclose(scaled, scaled.T, rtol=1e-13, atol=1e-16)

    J = make_step(mesh, TAU, tau_prev=tau)(tau)[1].toarray()
    u_p = np.asarray(TAU.eval(tau)[3])
    scaled = mesh.cell_volumes[:, None] * J / u_p[None, :]
    np.testing.assert_allclose(scaled, scaled.T, rtol=1e-12, atol=1e-15)


def test_offdiagonal_signs_and_column_sums():
    mesh = build_rect_mesh(4, 4)
    mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
    step = make_step(mesh, TAU, gravity=(0.0, -1.0), tau_D=float(TAU.tau_of_pressure(1.0)))
    rng = np.random.default_rng(11)
    dirichlet_cells = set(int(mesh.edge_cells[e, 0]) for e in mesh.dirichlet_edges)
    for tau in rand_states(rng, 16, 5):
        J = step(tau)[1].toarray()
        off = J - np.diag(np.diag(J))
        assert np.all(off <= 1e-15)
        colsum = J.sum(axis=0)
        assert np.all(colsum >= -1e-13)
        for k in dirichlet_cells:
            assert colsum[k] > 0.0


def test_u_form_prime_cap_keeps_jacobian_finite():
    mesh = build_rect_mesh(2, 2)
    step = make_step(mesh, U)
    tau = np.array([0.0, 1e-30, 1e-6, 0.5])
    J = step(tau)[1].toarray()
    assert np.all(np.isfinite(J))
    assert J.max() >= 1e15  # the capped singular slope is visible


# -- refreshing an iterate -----------------------------------------------------


def refresh_system(case, param, shape):
    """(system, dt, s_prev) of one step on a box of shape (an interval when
    shape has one entry): test1's gravity and a Dirichlet strip on the top
    (the right end of an interval), or test2's closed box without gravity.
    The system refreshes every iterate, whatever changed."""
    mesh = build_rect_mesh(*shape) if len(shape) == 2 else build_interval_mesh(*shape)
    tau_D = None
    if case == "test1":
        def strip(x):
            top = x[:, -1] > 1.0 - 1e-12
            return top & (x[:, 0] < 0.6) if mesh.dim == 2 else top

        assert mesh.retag_boundary(strip, DIRICHLET) > 0
        tau_D = float(param.tau_of_pressure(1.0))
        gravity = np.zeros(mesh.dim)
        gravity[-1] = -1.0
        dt, s_prev = 0.01, np.full(mesh.n_cells, 1e-6)
    else:
        gravity, dt = np.zeros(mesh.dim), 1e3
        s_prev = np.where(mesh.cell_centers[:, 0] < 0.5, 0.5, 1e-6)
    system = Assembly(mesh, param, gravity, tau_D)
    system.max_changed = mesh.n_cells
    return system, dt, s_prev


def bits(a):
    return None if a is None else np.ascontiguousarray(a).tobytes()


# tau on every branch of both kinds, their switch and saturation points and
# both signs of zero
SPECIAL_TAU = [-0.3, -0.0, 0.0, 1e-300, TAU.params.tau_star, TAU.params.tau_sat,
               U.params.tau_sat, 2.5]


@given(st.sampled_from(["test1", "test2"]), st.sampled_from([TAU, U]),
       st.sampled_from([(6, 5), (1, 7), (9,), (2,)]), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_refresh_gives_the_bits_of_the_full_computation(case, param, shape, seed, share):
    # two Newton-like moves in a row, each on a random subset of the cells:
    # the refreshed evaluation, f, diagonal, couplings and wet mask are bit
    # for bit those computed in full at the same tau
    system, dt, s_prev = refresh_system(case, param, shape)
    n = system.mesh.n_cells
    rng = np.random.default_rng(seed)

    def draw(size):
        return np.where(rng.random(size) < 0.3, rng.choice(SPECIAL_TAU, size),
                        rng.uniform(-0.2, 2.4, size))

    tau = draw(n)
    f, ev = residual(system, dt, s_prev, tau)
    jac = jacobian(system, dt, ev)
    for _ in range(2):
        tau = tau.copy()
        moved = rng.random(n) < share
        tau[moved] = draw(int(moved.sum()))
        old = (ev, jac, [bits(a) for a in ev], [bits(a) for a in jac])
        f, ev = residual(system, dt, s_prev, tau, ev)
        jac = jacobian(system, dt, ev, jac)
        f_full, ev_full = residual(system, dt, s_prev, tau)
        jac_full = jacobian(system, dt, ev_full)
        changed = np.flatnonzero(tau.view(np.int64) != old[0].tau.view(np.int64))
        np.testing.assert_array_equal(ev.changed, changed)
        moved = [(a.view(np.int64) != b.view(np.int64))[changed]
                 for a, b in ((ev.s, old[0].s), (ev.s_p, old[0].s_p), (ev.u_p, old[0].u_p))]
        np.testing.assert_array_equal(ev.moved, changed[np.logical_or.reduce(moved)])
        assert ev_full.changed is None and ev_full.moved is None
        assert bits(f) == bits(f_full)
        for name in ev._fields[:-2]:
            assert bits(getattr(ev, name)) == bits(getattr(ev_full, name)), name
        for name in jac._fields:
            assert bits(getattr(jac, name)) == bits(getattr(jac_full, name)), name
        # no array that an earlier call returned was changed
        assert [bits(a) for a in old[0]] == old[2] and [bits(a) for a in old[1]] == old[3]

