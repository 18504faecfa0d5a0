"""Error metrics, conservation/energy diagnostics, and structural-lemma checks.

All metrics are pure functions of trajectories; nothing here mutates the
solver state.  A trajectory's saturation and Kirchhoff fields come from
one evaluation of its stacked tau levels (``Trajectory.fields``), and the
error and contraction metrics are whole-array sums over those (levels x
cells) arrays.  Integrals of the parametrization branches (free energy,
xi) are evaluated in closed form rather than by quadrature, so invariant
tests are noise-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hydromodel import Parametrization
from .mesh import Mesh, discrete_h1_inner

__all__ = [
    "Trajectory",
    "linf_l1_error",
    "mass_error",
    "free_energy",
    "energy_series",
    "xi_seminorm",
    "contraction_check",
    "quadratic_tail",
]


@dataclass
class Trajectory:
    """Time-indexed tau vectors from one run with their water volumes, plus
    per-step Newton reports."""

    mesh: Mesh
    param: Parametrization
    times: np.ndarray  # t^0 .. t^N
    taus: list  # N+1 per-cell vectors
    water_volumes: list  # sum_K m_K s(tau_K) of each of the N+1 vectors
    newton_reports: list = field(default_factory=list)  # N reports
    tau_D: float | None = None  # value on the mesh's Dirichlet edges

    def __post_init__(self):
        if not len(self.times) == len(self.taus) == len(self.water_volumes):
            raise ValueError("times, taus and water_volumes lengths differ")
        if self.newton_reports and len(self.newton_reports) != len(self.times) - 1:
            raise ValueError("need one Newton report per time step")

    def fields(self):
        """(s, u): the saturation and the Kirchhoff transform of every level,
        two (levels x cells) arrays from one evaluation of the stacked taus."""
        s, u, _, _ = self.param.eval(np.stack(self.taus))
        return s, u


def linf_l1_error(trajectory: Trajectory, reference: Trajectory, which: str,
                  up_to: int | None = None) -> float:
    """Relative L-infinity-in-time, volume-weighted L1-in-space error.

    max_n sum_K m_K |f(tau_K^n) - f(tau_ref,K^n)|  /  max_n sum_K m_K |f(tau_ref,K^n)|,
    with f the saturation or Kirchhoff map of each trajectory's own
    parametrization.  up_to restricts the max to time levels <= up_to.
    """
    if trajectory.mesh.n_cells != reference.mesh.n_cells:
        raise ValueError("mesh mismatch between trajectory and reference")
    if len(trajectory.times) != len(reference.times) or not np.allclose(
        trajectory.times, reference.times, rtol=0.0, atol=1e-12
    ):
        raise ValueError("time grids differ")
    i = {"saturation": 0, "kirchhoff": 1}.get(which)
    if i is None:
        raise ValueError(f"unknown field {which!r}")
    stop = len(trajectory.times) if up_to is None else up_to + 1
    m = trajectory.mesh.cell_volumes
    f_run = trajectory.fields()[i][:stop]
    f_ref = reference.fields()[i][:stop]
    num = float(np.max(np.sum(m * np.abs(f_run - f_ref), axis=1)))
    den = float(np.max(np.sum(m * np.abs(f_ref), axis=1)))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def mass_error(trajectory: Trajectory) -> float:
    """(1/M) max_n |sum_K m_K s(tau_K^n) - M| with M the initial water volume.

    Reads the trajectory's water volumes; evaluates nothing.  Only
    meaningful on fully no-flux boundaries; refused otherwise.
    """
    if trajectory.mesh.dirichlet_edges.size:
        raise ValueError("mass_error requires an all-no-flux boundary")
    M = trajectory.water_volumes[0]
    if M == 0.0:
        raise ValueError("initial mass is zero")
    return max(abs(v - M) for v in trajectory.water_volumes) / M


def free_energy(tau, mesh: Mesh, param: Parametrization, reference_tau) -> float:
    """Discrete free energy sum_K m_K int_{ref_K}^{tau_K} (a - ref_K) s'(a) da.

    Integrating by parts, e_K = (tau - ref) s(tau) - (S(tau) - S(ref)) with
    S the closed-form antiderivative of the saturation branch functions;
    each e_K is >= 0 by monotonicity of s.
    """
    tau = np.asarray(tau, dtype=float)
    ref = np.broadcast_to(np.asarray(reference_tau, dtype=float), tau.shape)
    s, _, _, _ = param.eval(tau)
    e = (tau - ref) * s - (param.s_antiderivative(tau) - param.s_antiderivative(ref))
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
    xi = np.asarray(param.xi(np.asarray(tau, dtype=float)), dtype=float)
    xi_D = None if tau_D is None else float(param.xi(tau_D))
    return discrete_h1_inner(mesh, xi, xi, xi_D, xi_D)


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
