"""The analysis quantities the tests check the solver against.

None of this runs in a solve, a CLI command, a script or the benchmark:

* the discrete free energy and the xi-seminorm of the well-posedness
  proof, from the closed-form integrals ``s_antiderivative`` and ``xi`` of
  a parametrization's branch functions, and the discrete H1 inner product
  they use;
* the L1 contraction between two runs and the quadratic tail of the
  Newton theorem;
* the non-degeneracy constants (alpha_low, alpha_high) of a
  parametrization and the eta_mode that the quadrature oracle selects;
* the bound c_{L+1} on ||J^-1||_1 of a (delta, Delta)-M-matrix;
* ``build_interval_mesh``, a 1-D box mesh, and ``save_mesh``, the writer
  of the text format that ``richards.mesh.load_mesh`` reads.

Integrals are evaluated in closed form rather than by quadrature, so
invariant tests are noise-free.
"""

from __future__ import annotations

import math

import numpy as np

from richards.diagnostics import Trajectory
from richards.hydromodel import (
    BrooksCoreyModel,
    Parametrization,
    kirchhoff_closed_form,
    kirchhoff_quadrature_oracle,
)
from richards.mesh import DIRICHLET, INTERIOR, NOFLUX, Mesh, _build_box_mesh

# -- closed-form integrals of a parametrization --------------------------------


def s_antiderivative(param: Parametrization, tau):
    """int_0^tau s(a) da, exact per branch."""
    tau = np.asarray(tau, dtype=float)
    p = param.params
    eta, u_b, t_st, t_sat = p.eta, p.u_b, p.tau_star, p.tau_sat

    def g_int(u):
        # int (x/u_b)^(1/eta) dx from 0 to u, for 0 <= u <= u_b
        return (eta / (eta + 1.0)) * u_b * np.clip(u / u_b, 0.0, None) ** ((eta + 1.0) / eta)

    t = np.clip(tau, 0.0, None)
    low = np.minimum(t, t_st)
    out = 0.5 * low**2
    u_at = np.clip(t - t_st, 0.0, None) + u_b * t_st**eta
    mid = t > t_st
    out = out + np.where(mid, g_int(np.minimum(u_at, u_b)) - g_int(u_b * t_st**eta), 0.0)
    out = out + np.clip(t - t_sat, 0.0, None)
    return out if out.ndim else float(out)


def xi(param: Parametrization, tau):
    """xi(tau) = int_0^tau sqrt(u'(a)) da, exact per branch."""
    tau = np.asarray(tau, dtype=float)
    p = param.params
    eta, u_b, t_st = p.eta, p.u_b, p.tau_star
    # lower branch: sqrt(u') = sqrt(eta u_b) a^((eta-1)/2)
    c = math.sqrt(eta * u_b) * 2.0 / (eta + 1.0)
    low = np.clip(tau, 0.0, t_st)
    out = c * low ** ((eta + 1.0) / 2.0)
    out = out + np.clip(tau - t_st, 0.0, None)  # upper branch: u' = 1
    out = out + np.minimum(tau, 0.0)  # extension: u' = 1
    return out if out.ndim else float(out)


# -- constitutive-law checks ---------------------------------------------------


def select_eta_mode(beta: float, p_b: float) -> str:
    """Return the eta_mode whose closed form matches the quadrature oracle on
    20 pressures from p_b to 100 p_b."""
    best_mode, best_dev = None, math.inf
    ps = p_b * np.logspace(0.0, 2.0, 20)
    for mode in ("derived", "legacy"):
        model = BrooksCoreyModel(beta=beta, p_b=p_b, eta_mode=mode)
        dev = 0.0
        for p in ps:
            ref = kirchhoff_quadrature_oracle(model, p)
            dev = max(dev, abs(kirchhoff_closed_form(model, p) - ref) / ref)
        if dev < best_dev:
            best_mode, best_dev = mode, dev
    return best_mode


def check_nondegeneracy(param: Parametrization, tau_grid) -> tuple[float, float]:
    """(alpha_low, alpha_high) estimates: min and max over the grid of max(s', u')."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    _, _, sp, up = param.eval(tau_grid)
    m = np.maximum(sp, up)
    return float(np.min(m)), float(np.max(m))


# -- meshes ----------------------------------------------------------------------


def build_interval_mesh(nx: int, domain=(0.0, 1.0)) -> Mesh:
    """Uniform 1D mesh; edges are points with measure 1."""
    return _build_box_mesh((nx,), (domain,))


_TAG_NAMES = {INTERIOR: "interior", DIRICHLET: "dirichlet", NOFLUX: "noflux"}


def save_mesh(mesh: Mesh, path):
    """Write the line-oriented ASCII format (see load_mesh)."""
    lines = [f"mesh d={mesh.dim} ncells={mesh.n_cells} nedges={mesh.n_edges}"]
    for i in range(mesh.n_cells):
        coords = " ".join(f"{c:.17g}" for c in mesh.cell_centers[i])
        lines.append(f"cell {i} {mesh.cell_volumes[i]:.17g} {coords}")
    for e in range(mesh.n_edges):
        k, l = mesh.edge_cells[e]
        m = mesh.edge_measure[e]
        if l >= 0:
            lines.append(
                f"edge {e} {m:.17g} interior {k} {l} "
                f"{mesh.edge_d[e, 0]:.17g} {mesh.edge_d[e, 1]:.17g}"
            )
        else:
            coords = " ".join(f"{c:.17g}" for c in mesh.edge_x[e])
            tag = _TAG_NAMES[int(mesh.edge_tag[e])]
            lines.append(f"edge {e} {m:.17g} boundary {k} {mesh.edge_d[e, 0]:.17g} {coords} {tag}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def discrete_h1_inner(mesh: Mesh, v, w, v_D=None, w_D=None) -> float:
    """Edge-sum bilinear form of the discrete gradient reconstruction.

    sum over interior sigma=K|L of A_sigma (v_K - v_L)(w_K - w_L), plus
    A_sigma (v_K - v_D)(w_K - w_D) over ``mesh.dirichlet_edges`` when the
    boundary values are given.  v_D and w_D are each a scalar or an array
    in the order of ``mesh.dirichlet_edges``; give both or neither.
    Without them only interior edges contribute; no-flux edges never do.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (mesh.n_cells,) or w.shape != (mesh.n_cells,):
        raise ValueError(
            f"expected cell vectors of length {mesh.n_cells}, got {v.shape} and {w.shape}"
        )
    if (v_D is None) != (w_D is None):
        raise ValueError("give boundary values for both v and w, or for neither")
    ie = mesh.interior_edges
    kk, ll = mesh.edge_cells[ie, 0], mesh.edge_cells[ie, 1]
    total = float(np.sum(mesh.edge_A[ie] * (v[kk] - v[ll]) * (w[kk] - w[ll])))
    if v_D is None:
        return total
    de = mesh.dirichlet_edges
    kk = mesh.edge_cells[de, 0]
    v_D, w_D = (np.broadcast_to(np.asarray(x, dtype=float), de.shape) for x in (v_D, w_D))
    return total + float(np.sum(mesh.edge_A[de] * (v[kk] - v_D) * (w[kk] - w_D)))


# -- energy, contraction and convergence diagnostics -----------------------------


def free_energy(tau, mesh: Mesh, param: Parametrization, reference_tau) -> float:
    """Discrete free energy sum_K m_K int_{ref_K}^{tau_K} (a - ref_K) s'(a) da.

    Integrating by parts, e_K = (tau - ref) s(tau) - (S(tau) - S(ref)) with
    S the closed-form antiderivative of the saturation branch functions;
    each e_K is >= 0 by monotonicity of s.
    """
    tau = np.asarray(tau, dtype=float)
    ref = np.broadcast_to(np.asarray(reference_tau, dtype=float), tau.shape)
    s, _, _, _ = param.eval(tau)
    e = (tau - ref) * s - (s_antiderivative(param, tau) - s_antiderivative(param, ref))
    return float(np.sum(mesh.cell_volumes * e))


def energy_series(trajectory: Trajectory, reference_tau=0.0) -> np.ndarray:
    return np.array(
        [free_energy(t, trajectory.mesh, trajectory.param, reference_tau) for t in trajectory.taus]
    )


def xi_seminorm(tau, mesh: Mesh, param: Parametrization, tau_D=None) -> float:
    """Discrete H1 seminorm of xi(tau), xi(t) = int_0^t sqrt(u'(a)) da.

    With tau_D given, the mesh's Dirichlet edges contribute boundary terms
    with xi(tau_D); without it the interior edge sum alone is returned.
    """
    xi_K = np.asarray(xi(param, np.asarray(tau, dtype=float)), dtype=float)
    xi_D = None if tau_D is None else float(xi(param, tau_D))
    return discrete_h1_inner(mesh, xi_K, xi_K, xi_D, xi_D)


def contraction_check(run_a: Trajectory, run_b: Trajectory) -> np.ndarray:
    """Per-step increments of the weighted L1 distance between two runs.

    Returns the sequence d^n - d^{n-1} with d^n = sum_K m_K |s_a^n - s_b^n|;
    the discrete contraction principle makes every entry nonpositive up to
    solver slack.  The runs must share mesh, time grid, and boundary data.
    """
    if run_a.mesh.n_cells != run_b.mesh.n_cells:
        raise ValueError("mesh mismatch")
    if len(run_a.times) != len(run_b.times) or not np.allclose(
        run_a.times, run_b.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("time grids differ")
    if run_a.tau_D != run_b.tau_D or not np.array_equal(
        run_a.mesh.dirichlet_edges, run_b.mesh.dirichlet_edges
    ):
        raise ValueError("boundary data differ")
    m = run_a.mesh.cell_volumes
    return np.diff(np.sum(m * np.abs(run_a.fields()[0] - run_b.fields()[0]), axis=1))


def quadratic_tail(residual_history, floor: float) -> bool:
    """Check local quadratic convergence on the final residuals of one step.

    floor should be the run's stopping tolerance eps*dt: residuals at or
    below it are post-convergence values saturated at the floating-point
    floor and carry no rate information.  On the last three residuals
    (a, b, c) above the floor, the constant C = max(1, b/a^2) is fitted
    from the earlier pair and the quadratic bound c <= C*b^2 is required
    on the final one.  Steps with fewer than three measurable residuals
    pass vacuously.
    """
    r = [float(x) for x in residual_history if float(x) > floor]
    if len(r) < 3:
        return True
    a, b, c = r[-3], r[-2], r[-1]
    if not (a > b > c):
        return False
    C = max(1.0, b / a**2)
    return c <= C * b * b


# -- M-matrix bound --------------------------------------------------------------


def inverse_norm_bound(delta: float, Delta: float, path_length: int) -> float:
    """c_{L+1} = ((Delta/delta)^(L+1) - 1) / (Delta - delta).

    A valid bound on ||A^{-1}||_inf for row-wise (resp. ||A^{-1}||_1 for
    column-wise) (delta, Delta)-M-matrices whose transmissive paths have
    length at most L.  The degenerate case delta == Delta returns the
    limit (L+1)/Delta of c_{L+1}.
    """
    if not (0 < delta <= Delta):
        raise ValueError(f"need 0 < delta <= Delta, got {delta}, {Delta}")
    if path_length < 0:
        raise ValueError("path length must be >= 0")
    p = path_length + 1
    if delta == Delta:
        return p / Delta
    return ((Delta / delta) ** p - 1.0) / (Delta - delta)
