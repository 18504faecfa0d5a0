"""A run's trajectory, its error against a reference run, and its mass balance.

Both metrics are pure functions of trajectories; nothing here mutates the
solver state.  A trajectory's saturation and Kirchhoff fields come from
one evaluation of its stacked tau levels (``Trajectory.fields``), and the
error is a whole-array sum over those (levels x cells) arrays.  The mass
error reads the water volumes the run recorded and evaluates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hydromodel import Parametrization
from .mesh import Mesh

__all__ = [
    "Trajectory",
    "linf_l1_error",
    "mass_error",
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
