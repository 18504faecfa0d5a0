"""Acceptance gate: the ten headline claims, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v``.  The criteria cover the
constitutive-law oracle, non-degeneracy, Jacobian exactness, the M-matrix
structure with its inverse bound, local quadratic convergence, the
structural lemmas (contraction/positivity/energy decay), the desk-scale
trend reproductions of the two benchmark cases, linear-in-time error
accumulation, and bitwise determinism of the sweep outputs.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import evaluate
from richards.diagnostics import (
    contraction_check,
    energy_series,
    linf_l1_error,
    quadratic_tail,
)
from richards.harness import (
    EPS_REF_TEST1,
    EPS_REF_TEST2,
    build_mesh,
    preset_test1,
    preset_test2,
    run,
    summary_row,
    sweep,
)
from richards.hydromodel import (
    BrooksCoreyModel,
    Parametrization,
    check_nondegeneracy,
    derive_params,
    kirchhoff_closed_form,
    kirchhoff_quadrature_oracle,
    select_eta_mode,
)
from richards.mesh import DIRICHLET, build_rect_mesh
from richards.newton import (
    inverse_norm_bound,
    jacobian_bounds,
    mmatrix_analyze,
)
from richards.scheme import (
    Assembly,
    InitialField,
    discretize_initial,
)

BETAS = [1.0, 4.0, 16.0]
EPSS = [1e-2, 1e-4, 1e-6]


def report(num, ok, detail):
    from conftest import CRITERION_LINES

    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- shared expensive runs -----------------------------------------------------


@pytest.fixture(scope="session")
def test1_sweep():
    base = preset_test1(beta=4.0, eps=1e-6)
    return sweep(base, BETAS, EPSS, ["tau", "u"], eps_ref=EPS_REF_TEST1)


@pytest.fixture(scope="session")
def test1_sweep_repeat():
    base = preset_test1(beta=4.0, eps=1e-6)
    return sweep(base, BETAS, EPSS, ["tau", "u"], eps_ref=EPS_REF_TEST1)


@pytest.fixture(scope="session")
def test2_runs():
    out = {"ref": run(preset_test2(eps=EPS_REF_TEST2))}
    for form, eps in [("tau", 1e-2), ("tau", 1e-6), ("u", 1e-2)]:
        out[(form, eps)] = run(preset_test2(eps=eps, formulation=form))
    return out


def pick(results, formulation, beta, eps):
    for r in results:
        c = r.config
        if c.formulation == formulation and c.beta == beta and c.eps == eps:
            return r
    raise KeyError((formulation, beta, eps))


# -- criteria ------------------------------------------------------------------


def test_criterion_1_kirchhoff_oracle():
    t0 = time.perf_counter()
    mode = select_eta_mode(4.0, -1e-2)
    worst = 0.0
    for beta in [1.0, 2.0, 4.0, 8.0, 16.0]:
        m = BrooksCoreyModel(beta=beta, p_b=-1e-2, eta_mode=mode)
        pressures = np.concatenate(
            [-np.logspace(1, -8, 97), [m.p_b, 0.0, 1.0]]
        )
        assert pressures.size == 100
        for p in pressures:
            cf = float(kirchhoff_closed_form(m, p))
            qd = kirchhoff_quadrature_oracle(m, float(p))
            worst = max(worst, abs(cf - qd) / max(abs(qd), 1e-300))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        f"closed-form Kirchhoff vs quadrature, worst rel {worst:.2e} "
        f"(mode={mode}, {elapsed:.2f} s)",
    )


def test_criterion_2_nondegeneracy():
    t0 = time.perf_counter()
    ok = True
    for beta in [1.0, 2.0, 4.0, 8.0, 16.0]:
        m = BrooksCoreyModel(beta=beta, p_b=-1e-2)
        grid = np.linspace(-1.0, 3.0, 10_000)
        lo, hi = check_nondegeneracy(Parametrization(kind="tau", model=m), grid)
        ok &= abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12
    m = BrooksCoreyModel(beta=4.0, p_b=-1e-2)
    u_grid = np.concatenate([[1e-12, 1e-10], np.linspace(1e-8, 2.0, 100)])
    _, hi_u = check_nondegeneracy(Parametrization(kind="u", model=m), u_grid)
    ok &= hi_u > 1e6
    elapsed = time.perf_counter() - t0
    report(
        2,
        ok and elapsed < 1.0,
        f"tau-formulation max(s',u')=1 within 1e-12, u-formulation slope "
        f"{hi_u:.1e} near u=0 ({elapsed:.2f} s)",
    )


def test_criterion_3_jacobian_vs_finite_differences():
    t0 = time.perf_counter()
    mesh = build_rect_mesh(3, 3)
    mesh.retag_boundary(
        lambda x: (x[:, 1] >= 1.0 - 1e-12) & (x[:, 0] <= 0.3 + 1e-12), DIRICHLET
    )
    m = BrooksCoreyModel(beta=4.0, p_b=-1e-2)
    kinks = derive_params(m)
    kink_pts = np.array([0.0, kinks.tau_star, kinks.tau_sat, kinks.u_b])
    worst = 0.0
    for kind in ("tau", "u"):
        param = Parametrization(kind=kind, model=m)
        tau0 = discretize_initial(InitialField(default=1e-6), mesh, param)
        tau_D = float(param.tau_of_pressure(1.0))
        system = Assembly(mesh, param, np.array([0.0, -1.0]), tau_D)
        s_prev = np.asarray(param.eval(tau0)[0], dtype=float)

        def residual(tau):
            return evaluate(system, 0.01, s_prev, tau)[0]

        rng = np.random.default_rng(1)
        for _ in range(20):
            tau = rng.uniform(0.05, 2.2, 9)
            J_dense = None
            fd = np.zeros((9, 9))
            for j in range(9):
                # tau-proportional steps keep the relative truncation error
                # of the power-law branches uniformly small; nudge samples
                # off branch points where only one-sided slopes exist
                h = 1e-3 * max(abs(tau[j]), 0.01)
                if np.abs(tau[j] - kink_pts).min() < 5 * h:
                    tau[j] += 10 * h
                    h = 1e-3 * max(abs(tau[j]), 0.01)
                tp, tm = tau.copy(), tau.copy()
                tp[j] += h
                tm[j] -= h
                fd[:, j] = (residual(tp) - residual(tm)) / (2 * h)
            J_dense = evaluate(system, 0.01, s_prev, tau)[1].toarray()
            scale = np.maximum(np.abs(J_dense), np.abs(fd))
            mask = scale > 1e-9
            worst = max(worst, (np.abs(J_dense - fd)[mask] / scale[mask]).max())
    elapsed = time.perf_counter() - t0
    report(
        3,
        worst <= 1e-5 and elapsed < 10.0,
        f"dense finite-difference Jacobian check, worst rel {worst:.2e} "
        f"({elapsed:.2f} s)",
    )


def test_criterion_4_mmatrix_suite():
    t0 = time.perf_counter()
    lam_prime_max = 3.0 + 2.0 / 4.0
    gravity = np.array([0.0, -1.0])

    cfg = preset_test1(beta=4.0, eps=1e-6)
    mesh = build_mesh(cfg)
    delta, Delta = jacobian_bounds(mesh, cfg.dt, 1.0, 1.0, lam_prime_max, gravity)
    failures = []
    iterates = [0]

    def check(k, tau, res, J):
        iterates[0] += 1
        rep = mmatrix_analyze(J, delta, Delta)
        if not rep.is_column_wise:
            failures.append(rep.violations[0])

    res = run(cfg, mesh=mesh, callback=check)
    ok = res.converged and iterates[0] > 0 and not failures

    # dense inverse positivity and the 1-norm bound on a 5x5 mesh
    mesh5 = build_rect_mesh(5, 5)
    mesh5.retag_boundary(
        lambda x: (x[:, 1] >= 1.0 - 1e-12) & (x[:, 0] <= 0.3 + 1e-12), DIRICHLET
    )
    m = BrooksCoreyModel(beta=4.0, p_b=-1e-2)
    param = Parametrization(kind="tau", model=m)
    tau_D = float(param.tau_of_pressure(1.0))
    system = Assembly(mesh5, param, gravity, tau_D)
    d5, D5 = jacobian_bounds(mesh5, 0.01, 1.0, 1.0, lam_prime_max, gravity)
    rng = np.random.default_rng(0)
    min_entry, worst_ratio = np.inf, 0.0
    for _ in range(10):
        tau = rng.uniform(-0.1, 2.2, 25)
        J = evaluate(system, 0.01, np.full(25, 1e-6), tau)[1].toarray()
        rep = mmatrix_analyze(J, d5, D5)
        ok &= rep.is_column_wise
        J_inv = np.linalg.inv(J)
        min_entry = min(min_entry, float(J_inv.min()))
        bound = inverse_norm_bound(d5, D5, rep.max_path_length)
        worst_ratio = max(worst_ratio, float(np.abs(J_inv).sum(axis=0).max()) / bound)
    ok &= min_entry >= -1e-12 and worst_ratio <= 1.0
    elapsed = time.perf_counter() - t0
    report(
        4,
        ok and elapsed < 60.0,
        f"(delta,Delta)-M-matrix at all {iterates[0]} Newton iterates; dense "
        f"inverse min entry {min_entry:.1e}, norm/bound {worst_ratio:.3f} "
        f"({elapsed:.1f} s)",
    )


def test_criterion_5_quadratic_tail(test1_sweep, test2_runs):
    refs = [pick(test1_sweep, "tau", b, EPS_REF_TEST1) for b in BETAS]
    refs.append(test2_runs["ref"])
    fractions = []
    for res in refs:
        floor = res.config.eps * res.config.dt
        reports = res.trajectory.newton_reports
        good = sum(quadratic_tail(r.residual_history, floor) for r in reports)
        fractions.append(good / len(reports))
    report(
        5,
        min(fractions) >= 0.90,
        "quadratic tail on reference runs, pass fractions "
        + ", ".join(f"{f:.2f}" for f in fractions),
    )


def test_criterion_6_structural_lemmas():
    eps = EPS_REF_TEST2
    cfg_a = preset_test2(eps=eps)
    res_a = run(cfg_a)
    cfg_b = replace(
        cfg_a,
        s0_default=min(1e-6 + 0.1, 1.0),
        s0_boxes=[([(0.0, 0.5), (0.5, 1.0)], 0.6)],
    )
    res_b = run(cfg_b)
    m_omega = 1.0
    slack = 10.0 * eps * cfg_a.dt * m_omega
    margins = contraction_check(res_a.trajectory, res_b.trajectory)
    contraction_ok = bool(np.all(margins <= slack))

    min_tau = min(float(np.min(t)) for t in res_a.trajectory.taus + res_b.trajectory.taus)
    positivity_ok = min_tau >= -10.0 * eps

    energy = energy_series(res_a.trajectory, 0.0)
    tau_max = max(float(np.max(np.abs(t))) for t in res_a.trajectory.taus)
    energy_ok = bool(
        np.all(np.diff(energy) <= 10.0 * eps * cfg_a.dt * tau_max)
    )
    report(
        6,
        contraction_ok and positivity_ok and energy_ok,
        f"contraction margin max {margins.max():.1e} (slack {slack:.1e}), "
        f"min tau {min_tau:.1e}, energy increments max "
        f"{np.diff(energy).max():.1e}",
    )


def test_criterion_7_test1_sweep_trends(test1_sweep):
    # (a) the u-formulation needs strictly more iterations per step at
    # beta in {4, 16} for every tolerance
    a_ok = all(
        pick(test1_sweep, "u", b, e).mean_iters
        > pick(test1_sweep, "tau", b, e).mean_iters
        for b in (4.0, 16.0)
        for e in EPSS
    )
    # (b) tau-formulation iteration counts are flat in beta
    spreads = []
    for e in EPSS:
        means = [pick(test1_sweep, "tau", b, e).mean_iters for b in BETAS]
        spreads.append(max(means) - min(means))
    b_ok = max(spreads) <= 3.0
    # (c) error decreases with the tolerance, linearly up to two decades
    c_ok = True
    ratios = []
    for b in BETAS:
        errs = [pick(test1_sweep, "tau", b, e).err_s for e in EPSS]
        c_ok &= errs[0] >= errs[1] >= errs[2]
        ratio = pick(test1_sweep, "tau", b, 1e-4).err_s / pick(
            test1_sweep, "tau", b, 1e-6
        ).err_s
        ratios.append(ratio)
        c_ok &= 10.0 <= ratio <= 1000.0
    report(
        7,
        a_ok and b_ok and c_ok,
        f"u/tau iteration ordering {a_ok}, tau spread across beta "
        f"{max(spreads):.2f} <= 3, err(1e-4)/err(1e-6) = "
        + ", ".join(f"{r:.0f}" for r in ratios),
    )


def test_criterion_8_test2_mass_conservation(test2_runs):
    ref = test2_runs["ref"]
    tau_masses = [test2_runs[("tau", e)].mass_err for e in (1e-2, 1e-6)]
    u_run = test2_runs[("u", 1e-2)]
    u_mass = u_run.mass_err
    u_err_s = linf_l1_error(u_run.trajectory, ref.trajectory, "saturation")
    ok = (
        max(tau_masses) <= 1e-10
        and u_mass >= 1e6 * max(tau_masses)
        and u_err_s >= 0.5 * u_mass
    )
    report(
        8,
        ok,
        f"tau mass error {max(tau_masses):.1e} <= 1e-10, u mass error "
        f"{u_mass:.1e} ({u_mass / max(tau_masses):.1e}x), u err_s "
        f"{u_err_s:.2f} >= 0.5 * mass",
    )


def test_criterion_9_linear_error_accumulation(test1_sweep):
    res = pick(test1_sweep, "tau", 4.0, 1e-4)
    ref = pick(test1_sweep, "tau", 4.0, EPS_REF_TEST1)
    rates = []
    for n in range(10, 71):
        err = linf_l1_error(res.trajectory, ref.trajectory, "saturation", up_to=n)
        rates.append(err / (n * res.config.dt))
    rates = np.array(rates)
    med = float(np.median(rates))
    ok = bool(np.all(rates <= 5.0 * med) and np.all(rates >= med / 5.0))
    report(
        9,
        ok,
        f"err(up to t)/t within [{rates.min() / med:.2f}, "
        f"{rates.max() / med:.2f}] of its median",
    )


def test_criterion_10_determinism(test1_sweep, test1_sweep_repeat):
    def rows(results):
        return [",".join(summary_row(r).split(",")[:-1]) for r in results]

    same = rows(test1_sweep) == rows(test1_sweep_repeat)
    report(10, same, "two sweep executions produce identical summary rows")
