"""Newton iteration, linear solves, and the M-matrix analysis toolkit."""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import richards.harness as H
import richards.newton as N
from conftest import evaluate
from richards.harness import preset_test1, preset_test2, run
from richards.hydromodel import BrooksCoreyModel, Parametrization
from richards.mesh import DIRICHLET, build_interval_mesh, build_rect_mesh
from richards.newton import (
    BAND_MAX,
    NewtonConfig,
    SingularJacobianError,
    inverse_norm_bound,
    jacobian_bounds,
    linear_solve,
    mmatrix_analyze,
    newton_solve,
)
from richards.scheme import Assembly, SolvePlan

MODEL = BrooksCoreyModel(beta=4.0, p_b=-0.01)
TAU = Parametrization(kind="tau", model=MODEL)


def diffusion_problem(tau_prev, dt=0.01):
    """(system, dt, s_prev): the leading arguments of newton_solve."""
    mesh = build_interval_mesh(len(tau_prev))
    s_prev = np.asarray(TAU.eval(np.asarray(tau_prev))[0], dtype=float)
    return Assembly(mesh, TAU, np.zeros(1)), dt, s_prev


# -- newton_solve --------------------------------------------------------------


def test_zero_iterations_when_already_converged():
    prob = diffusion_problem([0.3, 0.3])
    tau, _, report = newton_solve(*prob, np.array([0.3, 0.3]), NewtonConfig(eps=1e-8))
    assert report.iterations == 0
    assert report.converged
    assert len(report.residual_history) == 1


def test_one_iteration_on_affine_branch():
    # a single closed cell: f(tau) = s(tau) - c, affine on the lower branch
    # (s(tau) = tau), so Newton lands exactly in one step
    prob = diffusion_problem([0.25])
    tau, _, report = newton_solve(*prob, np.array([0.6]), NewtonConfig(eps=1e-13))
    assert report.iterations == 1
    assert report.converged
    assert tau[0] == pytest.approx(0.25, abs=1e-15)


def test_quadratic_rate_on_two_cell_diffusion():
    # tau* from a run to residual 1e-14; the last ratios
    # ||tau^{k+1} - tau*|| / ||tau^k - tau*||^2 stay bounded
    prob = diffusion_problem([0.9, 0.1], dt=10.0)
    tau_star, _, ref = newton_solve(*prob, np.array([0.9, 0.1]), NewtonConfig(eps=1e-12))
    assert ref.converged

    errs = []

    def record(k, tau, res, J):
        errs.append(float(np.linalg.norm(tau - tau_star)))

    newton_solve(*prob, np.array([0.9, 0.1]), NewtonConfig(eps=1e-12), callback=record)
    meaningful = [e for e in errs if e > 1e-13]
    ratios = [
        b / a**2 for a, b in zip(meaningful[:-1], meaningful[1:]) if a < 1e-2
    ]
    assert ratios, "no iterates in the quadratic regime"
    assert max(ratios[-3:]) < 1e3


def test_report_invariants():
    prob = diffusion_problem([0.9, 0.1], dt=10.0)
    config = NewtonConfig(eps=1e-10)
    tau, s, report = newton_solve(*prob, np.array([0.1, 0.9]), config)
    assert len(report.residual_history) == report.iterations + 1
    np.testing.assert_array_equal(s, TAU.eval(tau)[0])  # s of the returned tau
    if report.converged:
        assert report.final_residual <= config.eps * 10.0


def test_nonconvergence_is_reported_not_raised():
    prob = diffusion_problem([0.9, 0.1], dt=10.0)
    tau, s, report = newton_solve(
        *prob, np.array([0.1, 0.9]), NewtonConfig(eps=1e-10, max_iter=1)
    )
    assert not report.converged
    assert report.iterations == 1
    np.testing.assert_array_equal(s, TAU.eval(tau)[0])


def test_callback_jacobians_are_independent():
    # every iterate gets its own J: a J kept by the callback still holds its
    # own values after later iterates are assembled on the same pattern, and
    # an in-place change of a used J's pattern reaches no later J
    prob = diffusion_problem([0.9, 0.1, 0.5, 0.2], dt=10.0)
    system = prob[0]
    pattern = (system.indices.copy(), system.indptr.copy())
    tau0, config = np.array([0.1, 0.9, 0.3, 0.6]), NewtonConfig(eps=1e-12)
    kept = []

    def keep(k, tau, res, J):
        if kept:
            kept[-1][0].indices[:] = 0
            kept[-1][0].indptr[:] = 0
        kept.append((J, J.data.copy()))

    tau, _, report = newton_solve(*prob, tau0, config, callback=keep)
    assert report.converged and len(kept) >= 3
    tau_clean, _, report_clean = newton_solve(*prob, tau0, config)
    assert report.residual_history == report_clean.residual_history
    np.testing.assert_array_equal(tau, tau_clean)
    np.testing.assert_array_equal(system.indices, pattern[0])
    np.testing.assert_array_equal(system.indptr, pattern[1])
    arrays = lambda J: (J.data, J.indices, J.indptr)
    for n, (J, values) in enumerate(kept):
        np.testing.assert_array_equal(J.data, values)
        for a, b in zip(arrays(J)[1:], (system.indices, system.indptr)):
            assert not np.shares_memory(a, b)
        for J_other, _ in kept[n + 1:]:
            assert J is not J_other
            for a, b in zip(arrays(J), arrays(J_other)):
                assert not np.shares_memory(a, b)
    assert not np.array_equal(kept[0][1], kept[-1][1])


def test_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(eps=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(eps=1e-6, max_iter=0)


# -- linear_solve --------------------------------------------------------------


def solve(A, b):
    """x = A^{-1} b through a plan of A's own pattern."""
    A = sp.csc_matrix(A)
    return linear_solve(SolvePlan(A.indices, A.indptr), A.data, b)


def test_identity_system():
    b = np.array([1.0, -2.0, 3.0])
    x = solve(sp.eye(3, format="csr"), b)
    np.testing.assert_allclose(x, b, rtol=1e-14)


def test_hand_solved_2x2():
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    x = solve(A, np.array([1.0, 1.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)


def test_matches_dense_reference():
    rng = np.random.default_rng(5)
    n = 40
    offdiag = -rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(offdiag, 0.0)
    A = offdiag + np.diag(1.0 - offdiag.sum(axis=1))  # strictly dominant M-matrix
    b = rng.standard_normal(n)
    x = solve(sp.csr_matrix(A), b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-10)


def count_lu(monkeypatch) -> dict:
    """Count band LU calls and SuperLU factorizations by column ordering.

    SuperLU must be called with its default pivoting, relax and panel size.
    """
    calls = {"band": 0, "MMD_AT_PLUS_A": 0, "NATURAL": 0}
    dgbsv, splu = N.dgbsv, N.spla.splu

    def band(*args, **kwargs):
        calls["band"] += 1
        return dgbsv(*args, **kwargs)

    def superlu(A, **kwargs):
        assert set(kwargs) == {"permc_spec"}
        calls[kwargs["permc_spec"]] += 1
        return splu(A, **kwargs)

    monkeypatch.setattr(N, "dgbsv", band)
    monkeypatch.setattr(N.spla, "splu", superlu)
    return calls


def bandwidth(A) -> int:
    coo = sp.coo_matrix(A)
    return int(np.abs(coo.row - coo.col).max())


def jacobians(config):
    """Every Jacobian a Newton callback receives in a run of config."""
    kept = []
    run(config, callback=lambda k, tau, res, J: kept.append(J))
    return kept


def first_jacobian(config):
    return jacobians(replace(config, t_end=config.dt))[0]


def wet_columns(J):
    """Columns with an off-diagonal entry above DROP times the diagonal, or a
    non-finite entry."""
    coo = sp.coo_matrix(J)
    d = sp.csc_matrix(J).diagonal()
    off = coo.row != coo.col
    big = ~(np.abs(coo.data[off]) <= N.DROP * d[coo.col[off]])
    return (np.bincount(coo.col[off][big], minlength=J.shape[0]) > 0) | ~np.isfinite(d)


def test_both_routes_solve_a_scheme_jacobian(monkeypatch):
    # the seventh Jacobian of a test1 run on 20x20, with 37 of its 400
    # columns wet: bandwidth 20 in natural order; a random symmetric
    # permutation spreads it past BAND_MAX
    J = jacobians(replace(preset_test1(beta=4.0, eps=1e-6), t_end=0.03))[6]
    assert wet_columns(J).sum() == 37
    rng = np.random.default_rng(3)
    b = rng.standard_normal(J.shape[0])
    perm = rng.permutation(J.shape[0])
    Jp = sp.csc_matrix(J[perm][:, perm])
    assert bandwidth(J) <= BAND_MAX < bandwidth(Jp)

    calls = count_lu(monkeypatch)
    for A, rhs, route in [(J, b, "band"), (Jp, b[perm], "superlu")]:
        before = dict(calls)
        plan = SolvePlan(A.indices, A.indptr)
        assert plan.band == (route == "band")
        x = linear_solve(plan, A.data, rhs)
        ref = np.linalg.solve(A.toarray(), rhs)
        assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)
        superlu = route == "superlu"
        assert {k: calls[k] - before[k] for k in calls} == {
            "band": int(not superlu), "MMD_AT_PLUS_A": int(superlu), "NATURAL": int(superlu)}


@pytest.mark.parametrize("mesh_size,t_end,band", [
    ("20x20", 0.03, True), ("34x8", 0.03, False), ("80x80", 0.01, False)])
def test_wet_set_solve_matches_the_full_solve(mesh_size, t_end, band):
    # every Jacobian of a short test1 run, from all dry to a growing wet set;
    # the reference solves the full matrix, couplings below DROP included
    # (dense LAPACK, or at 80x80 SuperLU, as the dense matrix takes 330 MB)
    Js = jacobians(replace(preset_test1(beta=4.0, eps=1e-6, mesh_size=mesh_size), t_end=t_end))
    n = Js[0].shape[0]
    wet = [int(wet_columns(J).sum()) for J in Js]
    assert wet[0] == 0 and 0 < wet[-1] < n
    plan = SolvePlan(Js[0].indices, Js[0].indptr)
    assert plan.band == band
    b = np.random.default_rng(4).standard_normal(n)
    for J in Js:
        x = linear_solve(plan, J.data, b)
        ref = np.linalg.solve(J.toarray(), b) if n < 1000 else spla.spsolve(J, b)
        assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)


@pytest.mark.parametrize("route", ["band", "superlu"])
def test_all_dry_jacobian_is_solved_without_lu(monkeypatch, route):
    # the first Jacobian of test1 on 20x20: every column couples at about
    # 1e-16 of its diagonal, so x = b / diag(J) and no LU runs
    J = first_jacobian(preset_test1(beta=4.0, eps=1e-6))
    assert not wet_columns(J).any()
    if route == "superlu":
        perm = np.random.default_rng(3).permutation(J.shape[0])
        J = sp.csc_matrix(J[perm][:, perm])
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    plan = SolvePlan(J.indices, J.indptr)
    assert plan.band == (route == "band")
    calls = count_lu(monkeypatch)
    x = linear_solve(plan, J.data, b)
    assert calls == {"band": 0, "MMD_AT_PLUS_A": 0, "NATURAL": 0}
    np.testing.assert_array_equal(x, b / J.diagonal())


@pytest.mark.parametrize("route", ["band", "superlu"])
def test_zero_pivot_in_the_wet_set_raises_singular(monkeypatch, route):
    # cells 10 and 11 form a block [[1, 1], [-1, -1]] of two wet columns,
    # uncoupled from the rest: its second pivot is exactly zero in either order
    n = 50
    A = sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tolil()
    if route == "superlu":
        A[0, n - 1] = A[n - 1, 0] = -0.5  # bandwidth n - 1
    A[9, 10] = A[10, 9] = A[11, 12] = A[12, 11] = 0.0
    A[10, 10] = A[10, 11] = 1.0
    A[11, 10] = A[11, 11] = -1.0
    A = sp.csc_matrix(A)
    A.eliminate_zeros()
    assert wet_columns(A)[[10, 11]].all()
    calls = count_lu(monkeypatch)
    with pytest.raises(SingularJacobianError):
        solve(A, np.ones(n))
    superlu = route == "superlu"
    assert calls == {"band": int(not superlu), "MMD_AT_PLUS_A": int(superlu),
                     "NATURAL": int(superlu)}


def full_solve(plan, data, b):
    """Solve of the SuperLU route that factors all n cells."""
    store = np.zeros(plan.size)
    store[plan.pos] = data
    A = sp.csc_matrix((store, plan.indices, plan.indptr), shape=(plan.n, plan.n))
    x = np.empty_like(b)
    x[plan.perm] = spla.splu(A, permc_spec="NATURAL").solve(b[plan.perm])
    return x


def test_all_wet_run_is_byte_identical_to_the_full_solve(monkeypatch):
    # test2 couples every cell (dt = 1e3), so the wet set is all of them
    config = replace(preset_test2(eps=1e-6, mesh_size="40x40"), t_end=1e4)
    wet = []
    res = run(config, callback=lambda k, tau, r, J: wet.append(wet_columns(J).all()))
    assert all(wet) and len(wet) == 64
    monkeypatch.setattr(N, "linear_solve", full_solve)
    ref = run(config)
    assert res.iters_per_step == ref.iters_per_step
    for a, b in zip(res.trajectory.taus, ref.trajectory.taus, strict=True):
        assert a.tobytes() == b.tobytes()


def test_plan_ordering_is_the_jacobians_own():
    # SuperLU's MMD ordering of a real Jacobian, and its fill, equal those
    # the plan read off the pattern alone
    J = first_jacobian(preset_test2(eps=1e-6, mesh_size="34x8"))
    plan = SolvePlan(J.indices, J.indptr)
    assert not plan.band
    lu = spla.splu(J, permc_spec="MMD_AT_PLUS_A")
    np.testing.assert_array_equal(plan.perm, np.argsort(lu.perm_c))
    store = np.zeros(plan.size)
    store[plan.pos] = J.data
    Jp = sp.csc_matrix((store, plan.indices, plan.indptr), shape=J.shape)
    assert (Jp != J[plan.perm][:, plan.perm]).nnz == 0
    assert spla.splu(Jp, permc_spec="NATURAL").nnz == lu.nnz


@pytest.mark.parametrize("route", ["band", "superlu"])
def test_zero_column_raises_singular_on_each_route(monkeypatch, route):
    n = 50
    A = sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tolil()
    if route == "superlu":
        A[0, n - 1] = A[n - 1, 0] = -0.5  # bandwidth n - 1
    A[:, 10] = 0.0
    A = sp.csc_matrix(A)
    A.eliminate_zeros()
    calls = count_lu(monkeypatch)
    with pytest.raises(SingularJacobianError):
        solve(A, np.ones(n))
    superlu = route == "superlu"
    assert calls == {"band": int(not superlu), "MMD_AT_PLUS_A": int(superlu),
                     "NATURAL": int(superlu)}


def test_iteration_counts_pinned_on_both_routes():
    # the same counts as with SuperLU (COLAMD) on every size; 20x20 takes
    # the band route, 40x40 the SuperLU one
    res = run(replace(preset_test1(beta=4.0, eps=1e-6, mesh_size="20x20"), t_end=0.2))
    assert res.iters_per_step == [7, 5, 4, 5, 5, 5, 5, 5, 4, 5, 5, 4, 5, 5, 4, 4, 4, 5, 5, 5]
    res = run(replace(preset_test2(eps=1e-6, mesh_size="40x40"), t_end=1e4))
    assert res.iters_per_step == [18, 7, 6, 6, 5, 5, 4, 4, 4, 5]


def test_iteration_counts_pinned_on_the_fine_run():
    # the benchmark's infiltration-fine run: SuperLU on the wet set at 80x80
    res = run(replace(preset_test1(beta=4.0, eps=1e-6, mesh_size="80x80"), t_end=0.05))
    assert res.iters_per_step == [17, 10, 10, 9, 8]


def test_jacobian_computed_only_where_a_correction_uses_it(monkeypatch):
    calls = {"jacobian": 0, "eval": 0}
    jacobian, param_eval = N.jacobian, Parametrization.eval

    def counted_jacobian(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    def counted_eval(self, tau):
        calls["eval"] += 1
        return param_eval(self, tau)

    monkeypatch.setattr(N, "jacobian", counted_jacobian)
    monkeypatch.setattr(Parametrization, "eval", counted_eval)
    res = run(replace(preset_test2(eps=1e-6, mesh_size="40x40"), t_end=1e4))
    assert res.iters_per_step == [18, 7, 6, 6, 5, 5, 4, 4, 4, 5]
    assert calls["jacobian"] == sum(res.iters_per_step)
    # one per iterate (64 + 10), plus the boundary values, the initial s and
    # the 11 states of the mass error: as many as with a Jacobian per iterate
    assert calls["eval"] == 87

    # per step as many Jacobians as iterations; none where tau_init converged
    per_step = []

    def counted_solve(*args, **kwargs):
        before = calls["jacobian"]
        out = newton_solve(*args, **kwargs)
        per_step.append((calls["jacobian"] - before, out[2].iterations))
        return out

    monkeypatch.setattr(H, "newton_solve", counted_solve)
    res = run(replace(preset_test2(eps=1e-2, mesh_size="40x40"), t_end=3e4))
    assert 0 in res.iters_per_step
    assert per_step == [(n, n) for n in res.iters_per_step]


def test_superlu_route_counts_one_ordering_per_assembly(monkeypatch):
    # 34 cells across: bandwidth 34 > BAND_MAX in natural order
    calls = count_lu(monkeypatch)
    iters = 0
    for form in ("tau", "u"):
        res = run(replace(preset_test2(eps=1e-6, formulation=form, mesh_size="34x8"), t_end=5e3))
        assert res.converged
        iters += sum(res.iters_per_step)
    assert calls == {"band": 0, "MMD_AT_PLUS_A": 2, "NATURAL": iters}


def test_superlu_route_keeps_the_method_properties():
    # the properties the redistribution benchmark checks, on a mesh wider
    # than BAND_MAX: s in [0, 1], tau conserves mass to rounding, u does not
    mass = {}
    for form in ("tau", "u"):
        res = run(replace(preset_test2(eps=1e-6, formulation=form, mesh_size="34x8"), t_end=2e4))
        assert res.converged and len(res.iters_per_step) == 20
        sats = res.trajectory.saturations()
        assert min(float(s.min()) for s in sats) >= 0.0
        assert max(float(s.max()) for s in sats) <= 1.0
        mass[form] = res.mass_err
    assert mass["tau"] <= 1e-10
    assert mass["u"] >= 1e6 * max(mass["tau"], np.finfo(float).eps)


# -- mmatrix_analyze -----------------------------------------------------------


def test_1x1_matrix():
    rep = mmatrix_analyze(sp.csr_matrix(np.array([[2.0]])), delta=1.0, Delta=3.0)
    assert rep.is_column_wise
    assert list(rep.strong_columns) == [0]
    assert rep.max_path_length == 0


def test_path_graph_laplacian_with_anchor():
    # graph Laplacian of a path on N nodes, plus delta on one end's
    # diagonal; every other column reaches the anchored end through a
    # chain whose longest path has length N-1
    n = 6
    delta = 1.5
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i] += 2.0
        L[i + 1, i + 1] += 2.0
        L[i, i + 1] = L[i + 1, i] = -2.0
    L[0, 0] += delta
    rep = mmatrix_analyze(sp.csr_matrix(L), delta=delta, Delta=6.0)
    assert rep.is_column_wise
    assert list(rep.strong_columns) == [0]
    assert rep.max_path_length == n - 1
    assert rep.path_lengths[n - 1] == n - 1


def test_path_nodes_distinct_and_transmissive():
    n = 5
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i] += 2.0
        L[i + 1, i + 1] += 2.0
        L[i, i + 1] = L[i + 1, i] = -2.0
    L[0, 0] += 1.0
    rep = mmatrix_analyze(sp.csr_matrix(L), delta=1.0, Delta=6.0)
    A = L
    for col, path in rep.path_cover.items():
        assert len(set(path)) == len(path)
        for i, j in zip(path[:-1], path[1:]):
            assert A[j, i] < -rep.delta + 1e-9


def test_path_lengths_match_breadth_first_search():
    # grid Laplacian on 4x3 nodes with two anchored (strong) columns, so
    # that the nearest strong column differs from column to column
    nx, ny, delta = 4, 3, 1.0
    n = nx * ny
    L = np.zeros((n, n))
    for a in range(n):
        for b in (a + 1, a + nx):
            if b < n and (b == a + nx or b % nx):
                L[a, a] += 2.0
                L[b, b] += 2.0
                L[a, b] = L[b, a] = -2.0
    strong = [0, 10]
    L[strong, strong] += delta
    rep = mmatrix_analyze(sp.csr_matrix(L), delta=delta, Delta=10.0)
    assert rep.is_column_wise
    assert rep.strong_columns.tolist() == strong

    dist = dict.fromkeys(strong, 0)  # arcs j -> i where L[j, i] < -delta
    queue = deque(strong)
    while queue:
        j = queue.popleft()
        for i in range(n):
            if i != j and L[j, i] < -delta and i not in dist:
                dist[i] = dist[j] + 1
                queue.append(i)
    assert rep.path_lengths == {i: d for i, d in dist.items() if i not in strong}
    assert sorted(set(rep.path_lengths.values())) == [1, 2, 3]
    assert rep.max_path_length == 3


def test_violations_detected():
    A = np.array([[2.0, 0.5], [-1.0, 2.0]])  # positive off-diagonal entry
    rep = mmatrix_analyze(sp.csr_matrix(A), delta=1.0, Delta=3.0)
    assert not rep.is_column_wise
    assert any("off-diagonal" in v for v in rep.violations)

    B = np.array([[0.5]])  # diagonal below delta
    rep = mmatrix_analyze(sp.csr_matrix(B), delta=1.0, Delta=3.0)
    assert not rep.is_column_wise


def test_assembled_jacobian_is_column_wise_mmatrix():
    mesh = build_rect_mesh(5, 5)
    system = Assembly(mesh, TAU, np.array([0.0, -1.0]))
    delta, Delta = jacobian_bounds(mesh, 0.01, 1.0, 1.0, 3.5, gravity=(0.0, -1.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        tau = rng.uniform(-0.1, 2.2, 25)
        rep = mmatrix_analyze(evaluate(system, 0.01, np.full(25, 1e-6), tau)[1], delta, Delta)
        assert rep.is_column_wise, rep.violations


# -- bounds --------------------------------------------------------------------


def cell_edges(mesh):
    """Per cell, its (edge, outward normal) pairs in edge order, by a loop
    over edge_cells."""
    adj = [[] for _ in range(mesh.n_cells)]
    for e, (k, l) in enumerate(mesh.edge_cells):
        adj[k].append((e, mesh.edge_normal[e]))
        if l >= 0:
            adj[l].append((e, -mesh.edge_normal[e]))
    return adj


def jacobian_bounds_loop(mesh, dt, alpha_low, alpha_high, lam_prime_max, gravity=None):
    """Cell-by-cell reference for jacobian_bounds."""
    g = np.zeros(mesh.dim) if gravity is None else np.asarray(gravity, dtype=float)
    min_ratio = np.inf
    max_load = 0.0
    for k, edges in enumerate(cell_edges(mesh)):
        a_min = min(mesh.edge_A[e] for e, _ in edges)
        min_ratio = min(min_ratio, a_min / mesh.cell_volumes[k])
        load = 0.0
        for e, normal in edges:
            gp = max(float(normal @ g), 0.0)
            load += mesh.edge_measure[e] * gp * lam_prime_max + mesh.edge_A[e]
        max_load = max(max_load, 1.0 + dt / mesh.cell_volumes[k] * load)
    return alpha_low * min(1.0, dt * min_ratio), alpha_high * max_load


def test_jacobian_bounds_matches_loop_oracle():
    top = build_rect_mesh(20, 20)
    top.retag_boundary(lambda x: (x[:, 1] >= 1.0 - 1e-12) & (x[:, 0] <= 0.3 + 1e-12), DIRICHLET)
    cases = [
        (top, (0.0, -1.0)),
        (build_rect_mesh(7, 3, domain=((0.0, 2.0), (0.0, 0.3))), (0.3, -1.0)),
        (build_interval_mesh(9), (-1.0,)),
        (build_rect_mesh(4, 4), None),
    ]
    for mesh, gravity in cases:
        for dt in (1e-6, 0.01, 1e3):
            args = (mesh, dt, 0.8, 1.3, 3.5, gravity)
            assert jacobian_bounds(*args) == jacobian_bounds_loop(*args)


def test_jacobian_bounds_single_cell():
    # one unit cell, A_sigma = 2 on each of its edges, no gravity, dt = 1:
    # delta = min(1, 1*2/1) = 1, Delta = 1 + sum A_sigma
    mesh = build_rect_mesh(1, 1)
    delta, Delta = jacobian_bounds(mesh, 1.0, 1.0, 1.0, 3.5)
    assert delta == 1.0
    assert Delta == pytest.approx(1.0 + 4 * 2.0)


def test_jacobian_bounds_small_dt_limits():
    mesh = build_rect_mesh(4, 4)
    dt = 1e-9
    delta, Delta = jacobian_bounds(mesh, dt, 1.0, 1.0, 3.5, gravity=(0.0, -1.0))
    min_ratio = min(
        min(mesh.edge_A[e] for e, _ in edges) / mesh.cell_volumes[k]
        for k, edges in enumerate(cell_edges(mesh))
    )
    assert delta == pytest.approx(dt * min_ratio)
    assert Delta == pytest.approx(1.0, rel=1e-5)


def test_jacobian_bounds_ordering():
    mesh = build_rect_mesh(3, 3)
    for dt in (1e-6, 0.01, 10.0):
        delta, Delta = jacobian_bounds(mesh, dt, 1.0, 1.0, 3.5, gravity=(0.3, -1.0))
        assert 0 < delta <= Delta


def test_inverse_norm_bound_values():
    assert inverse_norm_bound(1.0, 2.0, 1) == pytest.approx(3.0)
    assert inverse_norm_bound(1.0, 2.0, 2) == pytest.approx(7.0)
    # 1x1 matrix [a] with a >= delta: c_1 = 1/delta >= 1/a
    a = 1.7
    assert inverse_norm_bound(1.2, 2.0, 0) >= 1.0 / a
    # degenerate delta == Delta: the limit of c_p is p / Delta
    assert inverse_norm_bound(2.0, 2.0, 2) == pytest.approx(3.0 / 2.0)
    with pytest.raises(ValueError):
        inverse_norm_bound(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        inverse_norm_bound(1.0, 2.0, -1)
