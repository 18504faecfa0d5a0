"""Implicit finite-volume residual and exact Jacobian for one time step.

The per-cell residual is kept in the dimensionless per-cell scaling

    f_K(tau) = (s(tau_K) - s_K^{n-1})
               + (dt / m_K) * sum_{sigma in E_K} F_{K,sigma}(tau),

with the two-point flux

    F_{K,sigma} = m_sigma (lam(s_K) g+ - lam(s_{K,sigma}) g-)
                  + A_sigma (u(tau_K) - u(tau_{K,sigma})),

where g = gravity . n_{K,sigma} and g+/g- are its positive/negative
parts (upwinded mobility).  No-flux boundary edges are simply omitted
from the sum.  On the edges the mesh tags Dirichlet, one constant boundary
value tau_D = p^{-1}(p_D) takes the place of the outer cell.

The Jacobian of this two-point scheme has a fixed shape: its diagonal
plus exactly one coupling per side of each interior edge sigma = K|L, in
row K, column L and in row L, column K (``mesh.validate_admissibility``
refuses two edges joining the same pair of cells).  So the edge list is
the Jacobian's one storage format: ``jacobian`` returns the diagonal and
the couplings in edge order, and a CSC matrix is built only for a Newton
callback (``Assembly.matrix``).  Everything that depends on the mesh, or
on whether gravity enters the fluxes, is worked out once per run by
``Assembly``: the edge arrays, whether any edge carries a gravity term,
and the ``SolvePlan``, the cell order the direct solver factors in and
its factorization.  Per Newton iterate, ``residual`` evaluates the
parametrization once and returns f(tau) with the ``Evaluation`` at tau:
s(tau), s'(tau), u'(tau) and each cell's flux sum.  The mobility lam and
the gravity terms are computed only when some edge carries a gravity
term, so a gravity-free run evaluates neither lam nor lam'.  With gravity
they are computed on every edge: on the infiltration test half the edges
carry a gravity term, and gathering that half costs more than the
products it saves.  ``jacobian`` turns an evaluation into
the Jacobian's values only for an iterate whose correction is solved.
An evaluation depends on neither dt nor s^{n-1}, so ``step_residual``
forms the next step's f(tau_init) from the one the last step ended with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .hydromodel import SPRIME_CAP, Parametrization, mobility, mobility_derivative
from .mesh import Mesh

__all__ = [
    "Assembly",
    "Evaluation",
    "InitialField",
    "SolvePlan",
    "discretize_initial",
    "jacobian",
    "residual",
    "step_residual",
]

@dataclass
class InitialField:
    """Piecewise-constant field: axis-aligned boxes with values plus a default.

    boxes is a list of (bounds, value) with bounds of shape (d, 2); boxes
    are assumed disjoint.
    """

    default: float
    boxes: list = field(default_factory=list)


def _cell_means(s0: InitialField, mesh: Mesh) -> np.ndarray:
    """Exact means of s0 over the cell boxes of structured meshes.

    General meshes carry no polygon data, so there s0 is sampled at the
    cell centers (the first box containing a center gives its value).
    """
    if mesh.cell_boxes is None:
        x = mesh.cell_centers
        s = np.full(mesh.n_cells, s0.default, dtype=float)
        for bounds, value in reversed(s0.boxes):
            b = np.asarray(bounds, dtype=float)
            s[np.all((x >= b[:, 0]) & (x < b[:, 1]), axis=1)] = value
        return s
    cb, vol = mesh.cell_boxes, mesh.cell_volumes
    acc = s0.default * vol
    for bounds, value in s0.boxes:
        b = np.asarray(bounds, dtype=float)
        overlap = np.prod(
            np.clip(np.minimum(cb[..., 1], b[:, 1]) - np.maximum(cb[..., 0], b[:, 0]), 0.0, None),
            axis=-1,
        )
        acc += (value - s0.default) * overlap
    return acc / vol


def discretize_initial(s0: InitialField | float, mesh: Mesh, param: Parametrization) -> np.ndarray:
    """Cell-average s0 exactly over axis-aligned regions, then tau0 = s^{-1}(s0)."""
    if not isinstance(s0, InitialField):
        s0 = InitialField(default=float(s0))
    s_cells = _cell_means(s0, mesh)
    if np.any(s_cells < -1e-12) or np.any(s_cells > 1.0 + 1e-12):
        raise ValueError("initial saturation outside [0, 1]")
    s_cells = np.clip(s_cells, 0.0, 1.0)  # absorb intersection-area roundoff
    return np.asarray(param.sat_inverse(s_cells), dtype=float)


class SolvePlan:
    """The cell order in which n x n matrices with fixed couplings are factored, and how.

    The couplings are given per edge K|L (``K``, ``L``; no pair twice), one
    per side: rows [K, L] and columns [L, K] (``rows``, ``cols``).  The plan
    is worked out once from them and from ``symmetric``: whether the
    matrices solved on it are gravity-free Jacobians, which a diagonal
    scaling makes symmetric positive definite (``newton.linear_solve``).
    ``order`` lists the cells in reverse Cuthill-McKee order (Cuthill &
    McKee 1969; George & Liu, Computer Solution of Large Sparse Positive
    Definite Systems, 1981): level by level of a breadth-first search, so
    each coupling joins cells of one level or of neighbouring ones.  On a
    box mesh, in any numbering, the bandwidth is then about the cell count
    of the narrower side (40 on 40x40, 10 on 160x10).

    ``pair`` holds each edge's two couplings as indices into rows and cols:
    first the one below the diagonal in that order (row the later cell,
    column the earlier one), then the one above.  A block of cells factored
    in that order reads, per edge inside it, both couplings for LU and the
    one below for Cholesky.  ``kd`` and ``band`` are the bandwidth and the
    places of those couplings in the band storage (``positions``) of the
    whole matrix, for a solve in which every cell is factored.
    """

    def __init__(self, n: int, K, L, symmetric: bool = False):
        K, L = np.asarray(K, dtype=np.intp), np.asarray(L, dtype=np.intp)
        self.n, self.symmetric = n, symmetric
        self.rows, self.cols = np.concatenate([K, L]), np.concatenate([L, K])
        pattern = sp.csr_matrix((np.ones(self.rows.size), (self.rows, self.cols)), shape=(n, n))
        self.order = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
        rank = np.argsort(self.order)
        e = np.arange(K.size)
        self.pair = np.where(rank[K] > rank[L], [e, e + K.size], [e + K.size, e])
        p = rank[self.cols[self.pair]]  # each edge's earlier cell, then its later one
        self.kd = int((p[1] - p[0]).max(initial=0))
        self.band = self.positions(p, self.kd)

    def positions(self, p, k: int) -> np.ndarray:
        """The places of the couplings ``pair[:, e]`` of the edges e of a block in
        its column-major band storage, given p = the places in the block of
        each edge's earlier cell (p[0]) and later cell (p[1]), and the block's
        bandwidth k.  LU (``dgbsv``, 3k + 1 rows): A[i, j] in row 2k + i - j, for
        both couplings.  Cholesky (``dpbsv``, lower, k + 1 rows): B[i, j] in
        row i - j, for the coupling below the diagonal alone."""
        if self.symmetric:
            return k * p[0] + p[1]
        return 3 * k * p + p[::-1] + 2 * k


class Assembly:
    """Fixed data of the step residual on one mesh, built once per run.

    Holds the edge arrays of the flux sum (interior edges first, then
    ``mesh.dirichlet_edges``, whose outer cell is tau_D =
    param.tau_of_pressure(p_D)), the boundary values (u, lam) of tau_D, the
    g+ and g- of every edge and whether any edge carries a gravity term,
    and the ``SolvePlan`` of the Jacobian's couplings, rows [K, L] and columns
    [L, K] over the interior edges: band Cholesky when no edge carries a
    gravity term, band LU otherwise.  Nothing here depends on dt, the
    history or the iterate.  tau_D is given exactly when the mesh has
    Dirichlet edges.
    """

    def __init__(self, mesh: Mesh, param: Parametrization, gravity, tau_D: float | None = None):
        self.mesh = mesh
        self.param = param
        gravity = np.asarray(gravity, dtype=float)
        de = mesh.dirichlet_edges
        if de.size and tau_D is None:
            raise ValueError(f"{de.size} Dirichlet edges {de.tolist()} have no boundary value")
        if not de.size and tau_D is not None:
            raise ValueError(f"boundary value tau_D = {tau_D!r} given, but the mesh "
                             "has no Dirichlet edges")
        ie = mesh.interior_edges
        edges = np.concatenate([ie, de])
        self.n_interior = ni = ie.size
        self.K = mesh.edge_cells[edges, 0]
        self.L = mesh.edge_cells[ie, 1]
        self.m = mesh.edge_measure[edges]
        self.A = mesh.edge_A[edges]
        gn = mesh.edge_normal[edges] @ gravity  # g . n_{K,sigma}
        self.gp = np.clip(gn, 0.0, None)
        self.gn = np.clip(-gn, 0.0, None)
        self.mgp = self.m * self.gp
        self.mgn = self.m[:ni] * self.gn[:ni]
        # whether any edge carries a gravity term: residual() and jacobian()
        # compute lam, lam' and the gravity terms only then
        self.gravity = bool(self.mgp.any() or self.mgn.any())
        sD, uD, _, _ = param.eval(np.full(de.size, tau_D, dtype=float))
        self.u_D = np.asarray(uD, dtype=float)
        self.lam_D = np.asarray(mobility(param.model, sD), dtype=float)
        K, L = self.K[:ni], self.L
        self.flux_cells = np.concatenate([K, L, self.K[ni:]])
        # the cells of jacobian()'s diagonal terms: s', then the flux terms
        self.diag_cells = np.concatenate([np.arange(mesh.n_cells), self.flux_cells])
        # with no gravity term on any edge, diag(m) J diag(u')^-1 is symmetric
        self.plan = SolvePlan(mesh.n_cells, K, L, symmetric=not self.gravity)

    @cached_property
    def _csc(self):
        """CSC layout of [diagonal, couplings], made at the first matrix() (runs without
        a callback hold none): the entry order (by column, then row), indices and
        indptr, int32 as scipy's COO -> CSC build gives them at these sizes."""
        n, cells = self.mesh.n_cells, np.arange(self.mesh.n_cells)
        rows = np.concatenate([cells, self.plan.rows])
        cols = np.concatenate([cells, self.plan.cols])
        order = np.lexsort((rows, cols))
        indptr = np.searchsorted(cols[order], np.arange(n + 1))
        return order, rows[order].astype(np.int32), indptr.astype(np.int32)

    def matrix(self, diag, off) -> sp.csc_matrix:
        """The CSC matrix with diagonal diag and the couplings off on the plan's rows and columns.

        One gather into ``_csc``, into new arrays, so an in-place scipy call on a
        kept matrix (such as eliminate_zeros) rewrites nothing that is solved later.
        The layout has sorted rows in each column and no pair twice, and the
        matrix says so (``has_canonical_format``), so no reader pays to check it.
        """
        order, indices, indptr = self._csc
        n = self.mesh.n_cells
        J = sp.csc_matrix((np.concatenate([diag, off])[order], indices.copy(), indptr.copy()),
                          shape=(n, n))
        J.has_canonical_format = True
        return J


class Evaluation(NamedTuple):
    """What one iterate tau gives the step residual and its Jacobian: s(tau),
    the derivatives s'(tau) and u'(tau), and the flux sum
    sum_{sigma in E_K} F_{K,sigma}(tau) of each cell.  None of it depends on
    dt or s^{n-1}, so the evaluation at the last iterate of a step is the one
    at the next step's tau_init."""

    s: np.ndarray
    s_p: np.ndarray
    u_p: np.ndarray
    flux: np.ndarray


def step_residual(system: Assembly, dt: float, s_prev, ev: Evaluation):
    """f = (s - s_prev) + (dt / m_K) * flux of the evaluation ev."""
    return (ev.s - s_prev) + dt / system.mesh.cell_volumes * ev.flux


def residual(system: Assembly, dt: float, s_prev, tau):
    """Residual f(tau) of one implicit step and the Evaluation at tau: (f, ev).

    The parametrization is evaluated once; jacobian() takes s(tau) and the
    derivatives from ev, so an iterate whose correction is solved costs no
    second evaluation, and the next step starts from ev (``newton_solve``).
    The mobility lam(s) and the gravity terms are computed only when an
    edge carries a gravity term (``Assembly.gravity``).  Sums over edges run
    in edge order, so each call with the same inputs gives the same bits.
    """
    param, ni = system.param, system.n_interior
    s, u, s_p, u_p = param.eval(np.asarray(tau, dtype=float))
    K, L = system.K, system.L
    F = system.A * (u[K] - np.concatenate([u[L], system.u_D]))
    if system.gravity:
        lam = mobility(param.model, s)
        lam_out = np.concatenate([lam[L], system.lam_D])
        F += system.m * (lam[K] * system.gp - lam_out * system.gn)
    flux = np.bincount(system.flux_cells, weights=np.concatenate([F[:ni], -F[:ni], F[ni:]]),
                       minlength=system.mesh.n_cells)
    ev = Evaluation(s, s_p, u_p, flux)
    return step_residual(system, dt, s_prev, ev), ev


def jacobian(system: Assembly, dt: float, ev: Evaluation):
    """The exact Jacobian of residual() as (diag, off): its diagonal, and its
    couplings on the rows and columns of system.plan, in edge order.

    ev is what residual() returned at the iterate.  Diagonal of J:
    s'(tau_K) + (dt/m_K) sum_sigma (m_sigma g+ lam'(s_K) s'(tau_K)
    + A_sigma u'(tau_K)); off-diagonal (row L, column K, sigma = K|L):
    -(dt/m_L)(m_sigma g+_{K,sigma} lam'(s_K) s'(tau_K) + A_sigma u'(tau_K)).
    The lam' terms are computed only when an edge carries a gravity term.
    Dirichlet edges contribute only to the diagonal.
    """
    u_p = ev.u_p
    s_p = np.where(np.isfinite(ev.s_p), np.minimum(ev.s_p, SPRIME_CAP), SPRIME_CAP)
    ni, K, L = system.n_interior, system.K, system.L
    r = dt / system.mesh.cell_volumes
    # derivative of F_{K,sigma} w.r.t. tau_K (upwind g+ side) and tau_L
    dFK = system.A * u_p[K]
    dFL = system.A[:ni] * u_p[L]
    if system.gravity:
        w = mobility_derivative(system.param.model, ev.s) * s_p  # d lam(s(tau))/d tau
        dFK += system.mgp * w[K]
        dFL += system.mgn * w[L]
    rK, rL = r[K], r[L]
    diag = np.bincount(system.diag_cells, weights=np.concatenate([
        s_p, rK[:ni] * dFK[:ni], rL * dFL, rK[ni:] * dFK[ni:]]), minlength=s_p.size)
    return diag, np.concatenate([-rK[:ni] * dFL, -rL * dFK[:ni]])
