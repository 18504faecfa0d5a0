"""Newton iteration, linear solves, and the M-matrix analysis toolkit."""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import richards.harness as H
import richards.newton as N
from conftest import evaluate
from richards.harness import RunConfig, preset_test1, preset_test2, run
from richards.hydromodel import BrooksCoreyModel, Parametrization
from richards.mesh import (
    DIRICHLET,
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    load_mesh,
    save_mesh,
)
from richards.newton import (
    SingularJacobianError,
    inverse_norm_bound,
    jacobian_bounds,
    linear_solve,
    mmatrix_analyze,
    newton_solve,
)
from richards.scheme import Assembly, SolvePlan, jacobian, residual, step_residual

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
    tau, _, report = newton_solve(*prob, np.array([0.3, 0.3]), 1e-8)
    assert report.iterations == 0
    assert report.converged
    assert len(report.residual_history) == 1


def test_one_iteration_on_affine_branch():
    # a single closed cell: f(tau) = s(tau) - c, affine on the lower branch
    # (s(tau) = tau), so Newton lands exactly in one step
    prob = diffusion_problem([0.25])
    tau, _, report = newton_solve(*prob, np.array([0.6]), 1e-13)
    assert report.iterations == 1
    assert report.converged
    assert tau[0] == pytest.approx(0.25, abs=1e-15)


def test_quadratic_rate_on_two_cell_diffusion():
    # tau* from a run to residual 1e-14; the last ratios
    # ||tau^{k+1} - tau*|| / ||tau^k - tau*||^2 stay bounded
    prob = diffusion_problem([0.9, 0.1], dt=10.0)
    tau_star, _, ref = newton_solve(*prob, np.array([0.9, 0.1]), 1e-12)
    assert ref.converged

    errs = []

    def record(k, tau, res, J):
        errs.append(float(np.linalg.norm(tau - tau_star)))

    newton_solve(*prob, np.array([0.9, 0.1]), 1e-12, callback=record)
    meaningful = [e for e in errs if e > 1e-13]
    ratios = [
        b / a**2 for a, b in zip(meaningful[:-1], meaningful[1:]) if a < 1e-2
    ]
    assert ratios, "no iterates in the quadratic regime"
    assert max(ratios[-3:]) < 1e3


def test_report_invariants():
    prob = diffusion_problem([0.9, 0.1], dt=10.0)
    eps = 1e-10
    tau, ev, report = newton_solve(*prob, np.array([0.1, 0.9]), eps)
    assert len(report.residual_history) == report.iterations + 1
    np.testing.assert_array_equal(ev.s, TAU.eval(tau)[0])  # s of the returned tau
    if report.converged:
        assert report.final_residual <= eps * 10.0


def test_nonconvergence_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(N, "MAX_ITER", 1)
    prob = diffusion_problem([0.9, 0.1], dt=10.0)
    tau, ev, report = newton_solve(*prob, np.array([0.1, 0.9]), 1e-10)
    assert not report.converged
    assert report.iterations == 1
    np.testing.assert_array_equal(ev.s, TAU.eval(tau)[0])


def test_callback_jacobians_are_independent():
    # every iterate gets its own J: a J kept by the callback still holds its
    # own values after later iterates are assembled on the same pattern, and
    # an in-place change of a used J's pattern reaches no later J
    prob = diffusion_problem([0.9, 0.1, 0.5, 0.2], dt=10.0)
    plan = prob[0].plan
    pattern = (plan.rows.copy(), plan.cols.copy())
    tau0, eps = np.array([0.1, 0.9, 0.3, 0.6]), 1e-12
    kept = []

    def keep(k, tau, res, J):
        if kept:
            kept[-1][0].indices[:] = 0
            kept[-1][0].indptr[:] = 0
        kept.append((J, J.data.copy()))

    tau, _, report = newton_solve(*prob, tau0, eps, callback=keep)
    assert report.converged and len(kept) >= 3
    tau_clean, _, report_clean = newton_solve(*prob, tau0, eps)
    assert report.residual_history == report_clean.residual_history
    np.testing.assert_array_equal(tau, tau_clean)
    np.testing.assert_array_equal(plan.rows, pattern[0])
    np.testing.assert_array_equal(plan.cols, pattern[1])
    arrays = lambda J: (J.data, J.indices, J.indptr)
    for n, (J, values) in enumerate(kept):
        np.testing.assert_array_equal(J.data, values)
        for a in arrays(J)[1:]:
            for b in (plan.rows, plan.cols):
                assert not np.shares_memory(a, b)
        for J_other, _ in kept[n + 1:]:
            assert J is not J_other
            for a, b in zip(arrays(J), arrays(J_other)):
                assert not np.shares_memory(a, b)
    assert not np.array_equal(kept[0][1], kept[-1][1])


def test_config_validation():
    with pytest.raises(ValueError):
        newton_solve(*diffusion_problem([0.3, 0.3]), np.array([0.3, 0.3]), 0.0)


# -- linear_solve --------------------------------------------------------------


def split(A):
    """(diagonal, rows, columns, values) of A: its diagonal, and its
    off-diagonal entries in CSC order."""
    A = sp.csc_matrix(A)
    rows = A.indices
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    off = rows != cols
    return A.diagonal(), rows[off], cols[off], A.data[off]


def plan_of(A, symmetric=False):
    """The SolvePlan of A's off-diagonal pattern."""
    _, rows, cols, _ = split(A)
    return SolvePlan(A.shape[0], rows, cols, symmetric=symmetric)


def solve_on(plan, A, b, m=None, u_p=None):
    """linear_solve of A x = b on plan, made from A's pattern or an equal one."""
    diag, rows, cols, off = split(A)
    np.testing.assert_array_equal(rows, plan.rows)
    np.testing.assert_array_equal(cols, plan.cols)
    return linear_solve(plan, diag, off, b, m, u_p)


def solve(A, b, m=None, u_p=None):
    """x = A^{-1} b through a plan of A's own pattern: by band Cholesky of
    diag(m) A diag(u')^-1 when m and u' are given, by band LU otherwise."""
    return solve_on(plan_of(A, symmetric=m is not None), A, b, m, u_p)


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


def graph_system(n, seed, dry_share, symmetric):
    """(diag, rows, cols, off, m, u', J) of a random connected graph of n cells.

    J = diag(s') + diag(dt/m) Lambda diag(u'), with Lambda the Laplacian of
    the edge transmissibilities A plus a Dirichlet term on some diagonal
    entries: the gravity-free Jacobian.  About dry_share of the cells have
    u' near 1e-17, so their columns are dry.  Unless symmetric, m is one
    value for all cells and every edge carries an upwind term
    (dt/m) g u'_K from its upwind cell K, which keeps J diagonally dominant
    by columns.  The couplings are given per edge side, rows [K, L] and
    columns [L, K], as the scheme gives them.
    """
    rng = np.random.default_rng(seed)
    tree = np.stack([np.arange(1, n), rng.integers(0, np.arange(1, n))])  # a spanning tree
    extra = rng.integers(0, n, (2, rng.integers(0, 2 * n + 1)))
    pairs = np.unique(np.sort(np.concatenate([tree, extra], axis=1), axis=0), axis=1)
    K, L = pairs[:, pairs[0] != pairs[1]]
    A = rng.uniform(0.5, 2.0, K.size)
    m = rng.uniform(0.5, 2.0, n) if symmetric else np.full(n, rng.uniform(0.5, 2.0))
    dt = rng.uniform(0.01, 1.0)
    u_p = np.where(rng.random(n) < dry_share, 1e-17 * rng.uniform(0.5, 2.0, n),
                   rng.uniform(0.1, 1.0, n))
    lam = np.diag(np.where(rng.random(n) < 0.2, rng.uniform(0.0, 2.0, n), 0.0))
    np.add.at(lam, (K, L), -A)
    np.add.at(lam, (L, K), -A)
    np.add.at(lam, (K, K), A)
    np.add.at(lam, (L, L), A)
    J = np.diag(rng.uniform(0.2, 1.0, n)) + (dt / m)[:, None] * lam * u_p
    if not symmetric:
        up, down = np.where(rng.random(K.size) < 0.5, [K, L], [L, K])
        c = dt / m[0] * rng.uniform(0.0, 2.0, K.size) * u_p[up]
        np.add.at(J, (up, up), c)
        np.add.at(J, (down, up), -c)
    rows, cols = np.concatenate([K, L]), np.concatenate([L, K])
    return np.diag(J), rows, cols, J[rows, cols], m, u_p, J


@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_graph_solve_matches_dense(n, seed, dry_share, symmetric):
    # band Cholesky (given m and u') of a gravity-free Jacobian, or band LU
    # of one with upwind terms, on any connected pattern: the wet block in
    # the plan's order and the dry pass agree with the dense solve
    diag, rows, cols, off, m, u_p, J = graph_system(n, seed, dry_share, symmetric)
    plan = SolvePlan(n, rows, cols, symmetric=symmetric)
    b = np.random.default_rng(seed).standard_normal(n)
    x = linear_solve(plan, diag, off, b, *((m, u_p) if symmetric else ()))
    ref = np.linalg.solve(J, b)
    assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)


def count_lu(monkeypatch) -> dict:
    """Count the band LU (dgbsv) and band Cholesky (dpbsv) calls of linear_solve."""
    calls = {"dgbsv": 0, "dpbsv": 0}

    def counter(name):
        lapack = getattr(N, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return lapack(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(N, name, counter(name))
    return calls


def bandwidth(A) -> int:
    coo = sp.coo_matrix(A)
    return int(np.abs(coo.row - coo.col).max())


def plan_bandwidths(plan) -> tuple:
    """Bandwidth of the plan's pattern in the cells' own numbering and in
    the plan's order."""
    return (int(np.abs(plan.rows - plan.cols).max()),
            int(np.abs(plan.rank[plan.rows] - plan.rank[plan.cols]).max()))


NUMBERINGS = ["natural", "shuffled"]


def numbering(kind, n, keep=()):
    """perm with cell i of A[perm][:, perm] being cell perm[i] of A: the natural
    numbering, or a random one that leaves the cells in keep where they are."""
    perm = np.arange(n)
    if kind == "shuffled":
        rest = np.delete(perm, keep)
        perm[rest] = np.random.default_rng(3).permutation(rest)
    return perm


def renumber(A, perm):
    return sp.csc_matrix(sp.csc_matrix(A)[perm][:, perm])


def corrections(config):
    """(m, [(J, u'), ...]) of a run of config: the cell volumes, and for
    every Newton correction the Jacobian a callback receives with u'(tau)
    at its iterate."""
    mesh = H.build_mesh(config)
    model = BrooksCoreyModel(beta=config.beta, p_b=config.p_b, eta_mode=config.eta_mode)
    param = Parametrization(kind=config.formulation, model=model)
    kept = []
    run(config, mesh=mesh, callback=lambda k, tau, res, J: kept.append((J, param.eval(tau)[3])))
    return mesh.cell_volumes, kept


def jacobians(config):
    """Every Jacobian a Newton callback receives in a run of config."""
    return [J for J, _ in corrections(config)[1]]


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


@pytest.mark.parametrize("kind", NUMBERINGS)
def test_scheme_jacobian_is_solved_in_either_numbering(monkeypatch, kind):
    # the seventh Jacobian of a test1 run on 20x20, with 37 of its 400
    # columns wet: bandwidth 20 in natural order, far more in a random one,
    # and 20 in the plan's order for both
    J = jacobians(replace(preset_test1(beta=4.0, eps=1e-6), t_end=0.03))[6]
    assert wet_columns(J).sum() == 37
    J = renumber(J, numbering(kind, J.shape[0]))
    b = np.random.default_rng(4).standard_normal(J.shape[0])
    plan = plan_of(J)
    width, planned = plan_bandwidths(plan)
    assert (width == 20) == (kind == "natural") and planned == 20
    calls = count_lu(monkeypatch)
    x = solve_on(plan, J, b)
    ref = np.linalg.solve(J.toarray(), b)
    assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)
    assert calls == {"dgbsv": 1, "dpbsv": 0}


def short_test1(mesh_size, t_end):
    return replace(preset_test1(beta=4.0, eps=1e-6, mesh_size=mesh_size), t_end=t_end)


def short_test2(mesh_size="20x20", dt=1e3, t_end=1e4):
    return replace(preset_test2(eps=1e-6, mesh_size=mesh_size), dt=dt, t_end=t_end)


# gravity-free, with a Dirichlet strip on the top boundary, s0 = 1e-6
DIRICHLET_NO_GRAVITY = RunConfig(case="custom", formulation="tau", beta=4.0, dt=0.01,
                                 t_end=0.03, eps=1e-6, dirichlet_box=[(0.0, 0.3), (1.0, 1.0)],
                                 p_dirichlet=1.0)


@pytest.mark.parametrize("config,kind,wet_set", [
    (short_test1("20x20", 0.03), "natural", "growing"),
    (short_test1("20x20", 0.03), "shuffled", "growing"),
    (short_test1("34x8", 0.03), "natural", "growing"),
    (short_test1("80x80", 0.01), "natural", "growing"),
    (short_test2("40x40"), "natural", "all"),
    (short_test2(dt=0.01, t_end=0.03), "natural", "partial"),
    (short_test2(), "shuffled", "all"),
    (DIRICHLET_NO_GRAVITY, "natural", "growing"),
], ids=["test1-20x20", "test1-20x20-shuffled", "test1-34x8", "test1-80x80", "test2-40x40",
        "test2-20x20-small-dt", "test2-20x20-shuffled", "dirichlet-no-gravity"])
def test_wet_set_solve_matches_the_full_solve(monkeypatch, config, kind, wet_set):
    # every Jacobian of a short run: from all dry to a growing wet set, a
    # part wet throughout, or all wet; the reference solves the full matrix,
    # couplings below DROP included (dense LAPACK, or from 1000 cells on
    # SuperLU, as the dense 80x80 matrix takes 330 MB).  Gravity-free runs
    # take the band Cholesky, the others the band LU
    calls = count_lu(monkeypatch)
    m, kept = corrections(config)
    n = m.size
    perm = numbering(kind, n)
    m = m[perm]
    kept = [(renumber(J, perm), u_p[perm]) for J, u_p in kept]
    wet = [int(wet_columns(J).sum()) for J, _ in kept]
    if wet_set == "all":
        assert min(wet) == n
    elif wet_set == "growing":
        assert wet[0] == 0 and 0 < wet[-1] < n
    else:
        assert 0 < min(wet) and max(wet) < n
    symmetric = not any(config.gravity)
    factored = sum(w > 0 for w in wet)
    route = {"dgbsv": 0, "dpbsv": factored} if symmetric else {"dgbsv": factored, "dpbsv": 0}
    assert calls == route  # the run's own solves
    calls.update(dgbsv=0, dpbsv=0)
    plan = plan_of(kept[0][0], symmetric=symmetric)
    b = np.random.default_rng(4).standard_normal(n)
    for J, u_p in kept:
        x = solve_on(plan, J, b, m, u_p)
        ref = np.linalg.solve(J.toarray(), b) if n < 1000 else spla.spsolve(J, b)
        assert np.linalg.norm(x - ref, np.inf) <= 1e-12 * np.linalg.norm(ref, np.inf)
    assert calls == route


@pytest.mark.parametrize("kind", NUMBERINGS)
def test_all_dry_jacobian_is_solved_without_lu(monkeypatch, kind):
    # the first Jacobian of test1 on 20x20: every column couples at about
    # 1e-16 of its diagonal, so x = b / diag(J) and no LU runs
    J = first_jacobian(preset_test1(beta=4.0, eps=1e-6))
    assert not wet_columns(J).any()
    J = renumber(J, numbering(kind, J.shape[0]))
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    plan = plan_of(J)
    calls = count_lu(monkeypatch)
    x = solve_on(plan, J, b)
    assert calls == {"dgbsv": 0, "dpbsv": 0}
    np.testing.assert_array_equal(x, b / J.diagonal())


def chain(n):
    """tridiag(-1, 3, -1) of order n, every column wet."""
    return sp.diags([-np.ones(n - 1), 3.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tolil()


def singular_input(source):
    """(A, m, u', LAPACK calls of one solve) of a matrix to be made singular:
    chain(50), solved by band LU, or the first Newton correction of test2 on
    20x20, every column wet and diag(m) A diag(u')^-1 symmetric positive
    definite, solved by band Cholesky."""
    if source == "chain":
        return chain(50), None, None, {"dgbsv": 1, "dpbsv": 0}
    m, kept = corrections(short_test2(t_end=1e3))
    J, u_p = kept[0]
    return J.tolil(), m, u_p, {"dgbsv": 0, "dpbsv": 1}


def renumbered(A, m, u_p, kind, keep):
    """A without its explicit zeros, m and u', in numbering(kind, n, keep)."""
    A = sp.csc_matrix(A)
    A.eliminate_zeros()
    perm = numbering(kind, A.shape[0], keep)
    return renumber(A, perm), *(None if v is None else v[perm] for v in (m, u_p))


@pytest.mark.parametrize("source", ["chain", "test2"])
@pytest.mark.parametrize("kind", NUMBERINGS)
def test_zero_pivot_in_the_wet_set_raises_singular(monkeypatch, kind, source):
    # chain: cells 10 and 11 form a block [[1, 1], [-1, -1]] of two wet
    # columns, uncoupled from the rest, so the second LU pivot is exactly
    # zero in either order.  test2: J_10,10 = 0 leaves column 10 wet and
    # makes the Cholesky pivot of cell 10 nonpositive.  The message names
    # the cell, not its position in the plan
    A, m, u_p, route = singular_input(source)
    if source == "chain":
        A[9, 10] = A[10, 9] = A[11, 12] = A[12, 11] = 0.0
        A[10, 10] = A[10, 11] = 1.0
        A[11, 10] = A[11, 11] = -1.0
        message = r"the pivot of cell 1[01] is exactly zero"
    else:
        A[10, 10] = 0.0
        message = r"the pivot of cell 10 is not positive"
    A, m, u_p = renumbered(A, m, u_p, kind, keep=[10, 11])
    assert wet_columns(A)[[10, 11]].all()
    calls = count_lu(monkeypatch)
    with pytest.raises(SingularJacobianError, match=message):
        solve(A, np.ones(A.shape[0]), m, u_p)
    assert calls == route


@pytest.mark.parametrize("source", ["chain", "test2"])
@pytest.mark.parametrize("kind", NUMBERINGS)
def test_zero_column_raises_singular(monkeypatch, kind, source):
    # the zero column 10 is dry; its zero diagonal is refused after the
    # wet set, all the other cells, is factored
    A, m, u_p, route = singular_input(source)
    A[:, 10] = 0.0
    A, m, u_p = renumbered(A, m, u_p, kind, keep=[10])
    calls = count_lu(monkeypatch)
    with pytest.raises(SingularJacobianError, match=r"dry column 10 has a zero diagonal"):
        solve(A, np.ones(A.shape[0]), m, u_p)
    assert calls == route


def test_iteration_counts_pinned(monkeypatch):
    # the same counts as with every earlier LU ordering (SuperLU's COLAMD
    # and MMD, the natural band) at 20x20 and 40x40; test1 is solved by band
    # LU alone, the gravity-free test2 by band Cholesky alone
    calls = count_lu(monkeypatch)
    res = run(short_test1("20x20", 0.2))
    assert res.iters_per_step == [7, 5, 4, 5, 5, 5, 5, 5, 4, 5, 5, 4, 5, 5, 4, 4, 4, 5, 5, 5]
    assert calls == {"dgbsv": 95, "dpbsv": 0}  # all 96 Jacobians but the first, all dry
    calls.update(dgbsv=0, dpbsv=0)
    res = run(short_test2("40x40"))
    assert res.iters_per_step == [18, 7, 6, 6, 5, 5, 4, 4, 4, 5]
    assert calls == {"dgbsv": 0, "dpbsv": 64}


def test_iteration_counts_pinned_on_the_fine_run():
    # the benchmark's infiltration-fine run: band LU of the wet set at 80x80
    res = run(short_test1("80x80", 0.05))
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
    # one per Newton iterate (64), plus the first step's tau_init, the
    # boundary values and the initial s: every later step starts from the
    # evaluation its predecessor ended with, and the mass error reads the
    # water volumes of the s that newton_solve returned
    assert calls["eval"] == 67

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


def test_gravity_free_steps_evaluate_no_mobility(monkeypatch):
    # lam and lam' enter only through gravity terms: a test2 run computes
    # neither in its time loop, a test1 run computes lam once per residual
    # and lam' once per Jacobian
    import richards.scheme as S

    calls = {"mobility": 0, "mobility_derivative": 0}
    in_loop = [False]
    for name in calls:
        def counted(*args, fn=getattr(S, name), name=name):
            calls[name] += in_loop[0]
            return fn(*args)

        monkeypatch.setattr(S, name, counted)
    solve = H.newton_solve

    def in_time_loop(*args, **kwargs):
        in_loop[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            in_loop[0] = False

    monkeypatch.setattr(H, "newton_solve", in_time_loop)
    res = run(replace(preset_test2(eps=1e-6, mesh_size="10x10"), t_end=5e3))
    assert res.total_iters > 0
    assert calls == {"mobility": 0, "mobility_derivative": 0}
    res = run(replace(preset_test1(beta=4.0, eps=1e-6, mesh_size="5x5"), t_end=0.03))
    assert res.total_iters > 0
    assert calls == {"mobility": res.total_iters + 1, "mobility_derivative": res.total_iters}


@pytest.mark.parametrize("cfg", [
    replace(preset_test1(beta=4.0, eps=1e-6, mesh_size="5x5"), t_end=0.05, adaptive_dt=True),
    replace(preset_test2(eps=1e-6, mesh_size="6x6"), t_end=5e3, adaptive_dt=True),
], ids=["test1", "test2"])
def test_carried_step_start_is_the_residual_at_tau_init(monkeypatch, cfg):
    # every step after the first starts from the evaluation its predecessor
    # ended with; its f(tau_init) is bit for bit residual(system, dt, s_prev,
    # tau_init), also at the retry after a rejected attempt halved dt
    solve, calls = H.newton_solve, []

    def bits(a):
        return np.asarray(a, dtype=float).tobytes()

    def checked(system, dt, s_prev, tau_init, eps, callback=None, start=None):
        calls.append((dt, start is not None))
        if start is not None:
            f, ev = residual(system, dt, s_prev, tau_init)
            assert bits(step_residual(system, dt, s_prev, start)) == bits(f)
            assert all(bits(a) == bits(b) for a, b in zip(start, ev))
        out = solve(system, dt, s_prev, tau_init, eps, callback, start)
        if start is not None:
            assert out[2].residual_history[0] == float(np.sum(np.abs(f)))
        if len(calls) == 3:  # reject the third step's first attempt: it is retried at dt/2
            return out[0], out[1], replace(out[2], converged=False)
        return out

    monkeypatch.setattr(H, "newton_solve", checked)
    res = run(cfg)
    assert res.converged and res.rejected_iters > 0
    assert calls[0] == (cfg.dt, False)
    assert calls[1:4] == [(cfg.dt, True), (cfg.dt, True), (cfg.dt / 2, True)]
    assert all(carried for _, carried in calls[1:])


def shuffled_box(nx, ny, seed=7) -> Mesh:
    """build_rect_mesh(nx, ny) with its cells renumbered at random."""
    box = build_rect_mesh(nx, ny)
    perm = np.random.default_rng(seed).permutation(box.n_cells)  # new cell i is old perm[i]
    new = np.argsort(perm)
    return Mesh(cell_volumes=box.cell_volumes[perm], cell_centers=box.cell_centers[perm],
                edge_measure=box.edge_measure,
                edge_cells=np.where(box.edge_cells >= 0, new[box.edge_cells], -1),
                edge_d=box.edge_d, edge_x=box.edge_x, edge_tag=box.edge_tag)


@pytest.fixture(scope="module")
def shuffled_40x40(tmp_path_factory):
    """A mesh file of the 40x40 box with its cells renumbered at random."""
    path = tmp_path_factory.mktemp("mesh") / "shuffled_40x40.mesh"
    save_mesh(shuffled_box(40, 40), path)
    return path


def test_one_ordering_serves_every_numbering(shuffled_40x40):
    # a renumbered file mesh gives the box's own per-step counts; the plan's
    # order takes its bandwidth from 1574 in file order down to 40, and that
    # of a 160x10 box from 160 in natural order to 10
    mesh = load_mesh(shuffled_40x40)
    assert plan_bandwidths(Assembly(mesh, TAU, np.zeros(2)).plan) == (1574, 40)
    assert plan_bandwidths(Assembly(build_rect_mesh(160, 10), TAU, np.zeros(2)).plan) == (160, 10)
    res = run(replace(preset_test2(eps=1e-6, mesh_size=f"file:{shuffled_40x40}"), t_end=1e4))
    assert res.iters_per_step == [18, 7, 6, 6, 5, 5, 4, 4, 4, 5]


def test_shuffled_mesh_keeps_the_method_properties(shuffled_40x40):
    # the properties the redistribution benchmark checks, on a renumbered
    # file mesh: s in [0, 1], tau conserves mass to rounding, u does not
    mass = {}
    for form in ("tau", "u"):
        res = run(replace(preset_test2(eps=1e-6, formulation=form,
                                       mesh_size=f"file:{shuffled_40x40}"), t_end=2e4))
        assert res.converged and len(res.iters_per_step) == 20
        sats, _ = res.trajectory.fields()
        assert sats.min() >= 0.0 and sats.max() <= 1.0
        mass[form] = res.mass_err
    assert mass["tau"] <= 1e-10
    assert mass["u"] >= 1e6 * max(mass["tau"], np.finfo(float).eps)


def test_callback_matrix_is_the_coo_build(shuffled_40x40):
    # Assembly.matrix gathers into a CSC layout worked out once; array for
    # array it is the COO -> CSC build of [diagonal, couplings], on a natural
    # mesh with Dirichlet edges and on a renumbered file mesh
    cfg = preset_test1(beta=4.0, eps=1e-6)
    cases = [(H.build_mesh(cfg), cfg.gravity, float(TAU.tau_of_pressure(cfg.p_dirichlet))),
             (load_mesh(shuffled_40x40), (0.0, 0.0), None)]
    assert cases[0][0].dirichlet_edges.size > 0
    rng = np.random.default_rng(5)
    for mesh, gravity, tau_D in cases:
        system = Assembly(mesh, TAU, np.asarray(gravity), tau_D)
        n, plan = mesh.n_cells, system.plan
        tau = rng.uniform(-0.1, 2.2, n)
        _, ev = residual(system, 0.01, np.full(n, 1e-6), tau)
        diag, off = jacobian(system, 0.01, ev)
        ij = (np.concatenate([np.arange(n), plan.rows]), np.concatenate([np.arange(n), plan.cols]))
        want = sp.coo_matrix((np.concatenate([diag, off]), ij), shape=(n, n)).tocsc()
        J = system.matrix(diag, off)
        for a, b in ((J.data, want.data), (J.indices, want.indices), (J.indptr, want.indptr)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


# -- mmatrix_analyze -----------------------------------------------------------


def bfs_path_lengths(A, strong, delta) -> np.ndarray:
    """Breadth-first distances from the columns strong along the arcs j -> i
    with A[j, i] < -delta (dense A); inf where no such path arrives."""
    n = A.shape[0]
    dist = np.full(n, np.inf)
    dist[strong] = 0
    queue = deque(strong)
    while queue:
        j = queue.popleft()
        for i in range(n):
            if i != j and A[j, i] < -delta and np.isinf(dist[i]):
                dist[i] = dist[j] + 1
                queue.append(i)
    return dist


def test_1x1_matrix():
    rep = mmatrix_analyze(sp.csr_matrix(np.array([[2.0]])), delta=1.0, Delta=3.0)
    assert rep.is_column_wise
    assert np.flatnonzero(rep.path_lengths == 0).tolist() == [0]
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
    assert np.flatnonzero(rep.path_lengths == 0).tolist() == [0]
    assert rep.max_path_length == n - 1
    assert rep.path_lengths[n - 1] == n - 1


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
    assert np.flatnonzero(rep.path_lengths == 0).tolist() == strong
    np.testing.assert_array_equal(rep.path_lengths, bfs_path_lengths(L, strong, delta))
    assert sorted(set(np.delete(rep.path_lengths, strong).tolist())) == [1, 2, 3]
    assert rep.max_path_length == 3


@st.composite
def anchored_graphs(draw):
    """(A, anchors): a column-wise graph Laplacian on n nodes, each coupling
    A[a, b] drawn stronger (2 to 5) or weaker (0.01 to 0.5) than delta = 1,
    and delta added to the diagonal of the anchor columns.  Few edges are
    drawn, so the graph is often disconnected."""
    n = draw(st.integers(1, 30))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1))),
                          max_size=2 * n if n > 1 else 0))
    weight = st.one_of(st.floats(0.01, 0.5), st.floats(2.0, 5.0))
    A = np.zeros((n, n))
    for a, k in edges:
        b = (a + k) % n
        A[a, b], A[b, a] = -draw(weight), -draw(weight)
    anchors = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    A[np.diag_indices(n)] = -A.sum(axis=0)
    A[anchors, anchors] += 1.0
    return A, anchors


@given(anchored_graphs(), st.sampled_from([np.asarray, sp.csr_matrix, sp.csc_matrix]))
@settings(max_examples=80, deadline=None)
def test_random_anchored_graph_path_lengths(graph, form):
    # path lengths are the breadth-first distances from the anchors, I_delta
    # is where they are 0, and each column no path reaches is inf and named
    # by exactly one violation
    A, anchors = graph
    rep = mmatrix_analyze(form(A), delta=1.0, Delta=float(A.diagonal().max()) + 1.0)
    dist = bfs_path_lengths(A, anchors, 1.0)
    np.testing.assert_array_equal(rep.path_lengths, dist)
    assert np.flatnonzero(rep.path_lengths == 0).tolist() == anchors
    no_path = [v for v in rep.violations if "no delta-transmissive path" in v]
    assert no_path == [f"column {i}: no delta-transmissive path to I_delta"
                       for i in np.flatnonzero(np.isinf(dist))]
    assert rep.max_path_length == int(dist[np.isfinite(dist)].max())


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
