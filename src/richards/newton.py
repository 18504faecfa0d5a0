"""Newton iteration, sparse direct solves, and the M-matrix analysis toolkit.

The nonlinear step problem is solved by plain Newton (no damping, line
search, or trust region) with the residual-based stopping rule
||F(tau^k)||_1 <= eps * dt.  A step starts from the evaluation at
tau_init that the previous step ended with (``scheme.Evaluation``), so
a step evaluates only its own Newton iterates.  The Jacobian of the
scheme is a column-wise (delta, Delta)-M-matrix for non-degenerate
parametrizations, which yields a uniform bound on ||J^{-1}||_1; the
analysis utilities here verify the conditions and compute the bound on
concrete matrices.  ``mmatrix_analyze`` does so in one whole-array pass
over the matrix's COO entries and one multi-source shortest-path search
from I_delta, and its report keeps each column's delta-transmissive path
length and the violated conditions.

The scheme gives the Jacobian as its diagonal plus one coupling per side
of each interior edge (``scheme.jacobian``).  Each Newton correction is
one band solve in the reverse Cuthill-McKee order of those couplings,
worked out once per run (``scheme.SolvePlan``, held by the ``Assembly``),
so a box mesh in any numbering has a band about as wide as its narrower
side.  Per iteration only numeric work is left: the diagonal and the
couplings are computed for an iterate whose correction is solved, placed
in band storage and factored; a CSC matrix is built only for a callback.
Which factorization runs is a property of the physics, fixed per run by
the ``Assembly``:

* With gravity, LAPACK band LU (``dgbsv``) of J.  A column-wise M-matrix
  with nonnegative column sums is diagonally dominant by columns, so LU
  with partial pivoting makes no row swaps and is stable in any symmetric
  ordering; the ordering decides fill and speed, not accuracy.
* Without a gravity term on any edge, J = diag(s') + diag(dt/m) Lambda
  diag(u'), with Lambda the symmetric transmissibility matrix of the
  A_sigma (Dirichlet edges on its diagonal).  So B = diag(m) J diag(u')^-1
  = diag(m s'/u') + dt Lambda is symmetric, and positive definite where J
  is nonsingular.  LAPACK band Cholesky (``dpbsv``; George & Liu 1981)
  solves B y = m f with y = u' x, in kd + 1 band rows instead of LU's
  2 kl + ku + 1 and with about half the flops.  This needs u' > 0 on the
  factored cells, which the wet set below guarantees.

Only the wet set is factored.  Column K of J holds the couplings
-(dt/m_L)(m_sigma g+ lam'(s_K) s'(tau_K) + A_sigma u'(tau_K)), which depend
on cell K's state alone.  In a dry zone (s near 1e-6 in the infiltration
test) u'(tau_K) is near 1e-16, so the A_sigma terms sit near 1e-16 of the
diagonal, and their fill products in an LU underflow to subnormals.  The
gravity term need not: on the 20x20 infiltration mesh it is
0.2 lam'(s) s'(tau) of a diagonal near 1, about 7e-16 at beta = 4 but
1.1e-13 at beta = 16, above DROP, so there nearly every column is wet.
Column K is dry when every off-diagonal entry is at most DROP = 1e-14
times J_KK, and the other columns form the wet set W.  Taking the dry couplings as zero
makes J block lower triangular in the order [W, dry]: the W x W block is
factored alone, W in the plan's order, and each dry cell then costs one
division.  This is an inexact Newton step (Dembo, Eisenstat & Steihaug,
SIAM J. Numer. Anal. 19, 1982).  A dry column K has one coupling per
edge, as no two edges join the same pair of cells
(``mesh.validate_admissibility`` refuses a mesh where two do), each at
most DROP x J_KK.  So the mass the dropped matrix E takes from it is at
most (number of edges of K) x DROP x J_KK, and the correction s solves
J s = -F up to ||E s||_1 <= (edges per cell) x DROP x ||diag(J) s||_1.
That forcing term, near 1e-13 relative, lies far below any stopping
tolerance, so the local quadratic convergence is kept.  With
every column wet, W is all cells and the whole Jacobian is factored; with
none, nothing is.  A callback's J keeps the undropped values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv, dpbsv
from scipy.sparse.csgraph import dijkstra

from .mesh import Mesh
from .scheme import Assembly, Evaluation, SolvePlan, jacobian, residual, step_residual

__all__ = [
    "ATOL_SCALE",
    "DROP",
    "MAX_ITER",
    "NewtonReport",
    "MMatrixReport",
    "SingularJacobianError",
    "newton_solve",
    "linear_solve",
    "mmatrix_analyze",
    "jacobian_bounds",
    "inverse_norm_bound",
]


# A column whose couplings are all at most DROP times its diagonal is dry:
# the solve takes those couplings as zero (see the module docstring).
DROP = 1e-14

# Newton iterations after which a step that has not converged is given up.
MAX_ITER = 100


class SingularJacobianError(RuntimeError):
    """Raised when the direct factorization fails."""


@dataclass
class NewtonReport:
    residual_history: list  # ||F||_1 at tau_init and after each iteration
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]


def linear_solve(plan: SolvePlan, diag, off, b, m=None, u_p=None) -> np.ndarray:
    """Direct solve of A x = b, A given by its diagonal diag and its couplings
    off on the rows and columns of plan (``plan.rows``, ``plan.cols``).

    Column K of A is dry when every off-diagonal entry is at most DROP
    times the diagonal A_KK, and wet otherwise (a non-finite entry makes it
    wet); the wet set is W.  With the dry columns' couplings taken as zero,
    A is block lower triangular in the order [W, dry].  So only the W x W
    block is factored, W in the plan's order: the wet diagonal and the wet
    couplings go straight into LAPACK band storage of |W| columns with that
    block's own bandwidth.  Then each dry cell gets
    x_K = (b_K - sum_L A_KL x_L) / A_KK, the sum over the wet L.  With every
    column wet the block is A; with none, nothing is factored.

    The plan says how the block is factored.  By default, ``dgbsv`` (band
    LU) factors A's block; partial pivoting makes no row swap, since the
    scheme's Jacobian is diagonally dominant by columns.  When
    ``plan.symmetric``, A is a gravity-free Jacobian
    diag(s') + diag(dt/m) Lambda diag(u'), with Lambda the symmetric
    transmissibility matrix (Dirichlet edges on its diagonal), m the cell
    volumes and u' = u'(tau) at the iterate, which must then be given.  So
    B = diag(m) A diag(u')^-1 = diag(m s'/u') + dt Lambda is symmetric, and
    ``dpbsv`` (band Cholesky) solves B y = m b on W from its lower
    triangle; x_W = y / u'_W.  u' > 0 on W: a wet column K holds a coupling
    (dt/m_L) A_sigma u'_K > DROP A_KK >= 0.  B's block is positive
    semidefinite, as s' >= 0, and nonsingular when A's is, so positive
    definite.  Its factor has kd + 1 band rows where LU's has 2 kl + ku + 1,
    and it takes about half the flops.

    An exactly zero LU pivot or a nonpositive Cholesky pivot in the
    factored block, or an exactly zero diagonal of a dry cell, raises
    SingularJacobianError naming the cell.  diag and off are not modified.
    Deterministic for fixed input.
    """
    b = np.asarray(b, dtype=float)
    n, rows, cols = plan.n, plan.rows, plan.cols
    wet = ~np.isfinite(diag)
    wet[cols[~(np.abs(off) <= (DROP * diag)[cols])]] = True  # nan is wet
    x = np.zeros(n)
    wet_p = wet[plan.order]  # W in the plan's order
    w = plan.order[wet_p]
    if w.size:
        rank = (np.cumsum(wet_p) - 1)[plan.rank]  # position in W of each wet cell
        keep = plan.entries[wet[rows[plan.entries]] & wet[cols[plan.entries]]]
        i, j = rank[rows[keep]], rank[cols[keep]]  # A[i, j] = off[keep] of the W x W block
        if plan.symmetric:  # B y = m b with B = diag(m) A diag(u')^-1, y = u' x
            m_w, u_w = m[w], u_p[w]
            # lower storage: with two OpenBLAS threads, dpbsv of the upper
            # triangle took about 4 times as long as with one; the lower one did not
            kd = int((i - j).max(initial=0))
            ab = np.zeros((kd + 1) * w.size)
            ab[::kd + 1] = diag[w] * m_w / u_w  # B[i, i] in row 0
            ab[i - j + (kd + 1) * j] = off[keep] * m_w[i] / u_w[j]  # B[i, j], i > j
            _, y, info = dpbsv(ab.reshape((kd + 1, w.size), order="F"), m_w * b[w],
                               lower=1, overwrite_ab=True)
            x[w] = y / u_w
            failure = "band Cholesky factorization failed: the pivot of cell {} is not positive"
        else:
            kl, ku = int((i - j).max(initial=0)), int((j - i).max(initial=0))
            ldab = 2 * kl + ku + 1
            ab = np.zeros(ldab * w.size)
            ab[kl + ku::ldab] = diag[w]  # A[i, i] in row kl + ku
            ab[kl + ku + i - j + ldab * j] = off[keep]  # A[i, j] in row kl + ku + i - j
            _, _, x[w], info = dgbsv(kl, ku, ab.reshape((ldab, w.size), order="F"), b[w],
                                     overwrite_ab=True)
            failure = "band LU factorization failed: the pivot of cell {} is exactly zero"
        if info > 0:
            raise SingularJacobianError(failure.format(w[info - 1]))
    dry = np.flatnonzero(~wet)
    if dry.size:  # x_K = (b_K - sum_L A_KL x_L) / A_KK over the wet L
        if np.any(diag[dry] == 0.0):
            raise SingularJacobianError(f"dry column {dry[diag[dry] == 0.0][0]} has a zero "
                                        "diagonal")
        below = np.bincount(rows, weights=off * x[cols], minlength=n)
        x[dry] = (b[dry] - below[dry]) / diag[dry]
    return x


def newton_solve(system: Assembly, dt: float, s_prev, tau_init, eps: float,
                 callback=None, start: Evaluation | None = None):
    """Plain Newton on the step residual, stopped at ||F||_1 <= eps * dt or
    after MAX_ITER iterations; returns (tau, ev, NewtonReport), ev the
    ``scheme.Evaluation`` at tau.

    dt and s_prev = s(tau^{n-1}) are the step's data; tau_init is the
    previous time-step solution.  start is the evaluation at tau_init when
    the caller has it: the ev that the previous step's newton_solve
    returned, so that f(tau_init) = (s - s_prev) + (dt/m) flux needs no
    residual() call, also when a step is retried at a smaller dt.  Without
    it, tau_init is evaluated here.  The returned ev holds s(tau), which the
    next step takes as its s_prev, and is that step's start.  The Jacobian's
    values are computed only at an iterate whose correction is solved, so a
    step that converges at tau_init computes none.  The optional callback is
    invoked as callback(k, tau, res_norm, J) at every such iterate, with J a
    CSC matrix of its own, built from the diagonal and couplings that are
    solved (``Assembly.matrix``).  A non-converged step, a singular Jacobian
    included, is reported, not raised.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    tau = np.array(tau_init, dtype=float)
    tol = eps * dt
    if start is None:
        f, ev = residual(system, dt, s_prev, tau)
    else:
        f, ev = step_residual(system, dt, s_prev, start), start
    res = float(np.sum(np.abs(f)))  # raw 1-norm, no volume weights
    history = [res]
    for k in range(MAX_ITER):
        if res <= tol:
            break
        if not np.isfinite(res):
            break
        jac = jacobian(system, dt, ev)  # (diag, off)
        if callback is not None:
            callback(k, tau, res, system.matrix(*jac))
        try:
            delta = linear_solve(system.plan, *jac, f, system.mesh.cell_volumes, ev.u_p)
        except SingularJacobianError:
            break
        tau -= delta
        f, ev = residual(system, dt, s_prev, tau)
        res = float(np.sum(np.abs(f)))
        history.append(res)
    converged = bool(np.isfinite(res) and res <= tol)
    return tau, ev, NewtonReport(residual_history=history, converged=converged)


# -- M-matrix analysis ---------------------------------------------------------


# Roundoff slack of the M-matrix checks, relative to max(Delta, 1).
ATOL_SCALE = 1e-9


@dataclass
class MMatrixReport:
    """path_lengths[j]: length of a shortest delta-transmissive path from column j
    to I_delta (0 on I_delta, inf where there is none); violations: what fails."""

    path_lengths: np.ndarray
    violations: list

    @property
    def is_column_wise(self) -> bool:
        return not self.violations

    @property
    def max_path_length(self) -> int:
        """script-L: the longest finite path length (0 when I_delta covers all)."""
        return int(self.path_lengths[np.isfinite(self.path_lengths)].max(initial=0))


def mmatrix_analyze(A, delta: float, Delta: float) -> MMatrixReport:
    """Check the column-wise (delta, Delta)-M-matrix conditions on A (dense or sparse).

    Verifies sign pattern, diagonal bounds, nonnegative column sums, a
    nonempty strongly-dominant column set I_delta (column sum >= delta),
    and for every column outside I_delta a delta-transmissive path to
    I_delta: one unweighted multi-source shortest-path search from I_delta
    along the arcs j -> i with A[j, i] < -delta, i.e. paths in A^T.  Every
    test allows the roundoff slack atol = ATOL_SCALE * max(Delta, 1).
    """
    A = sp.coo_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    atol = ATOL_SCALE * max(Delta, 1.0)
    violations = []

    diag = A.diagonal()
    if diag.min() < delta - atol:
        violations.append(f"diagonal entry {float(diag.min())!r} below delta = {delta!r}")
    if diag.max() > Delta + atol:
        violations.append(f"diagonal entry {float(diag.max())!r} above Delta = {Delta!r}")
    off = A.row != A.col
    if np.any(A.data[off] > atol):
        violations.append(f"positive off-diagonal entry {float(A.data[off].max())!r}")
    colsum = np.bincount(A.col, weights=A.data, minlength=n)
    if np.any(colsum < -atol):
        violations.append(f"negative column sum {float(colsum.min())!r}")

    strong = np.flatnonzero(colsum >= delta - atol)
    if strong.size == 0:
        violations.append("I_delta is empty")
        return MMatrixReport(np.full(n, np.inf), violations)
    arc = off & (A.data < -(delta - atol))
    G = sp.csr_matrix((np.ones(arc.sum()), (A.row[arc], A.col[arc])), shape=(n, n))
    path_lengths = dijkstra(G, indices=strong, unweighted=True, min_only=True)
    violations += [f"column {i}: no delta-transmissive path to I_delta"
                   for i in np.flatnonzero(np.isinf(path_lengths)).tolist()]
    return MMatrixReport(path_lengths, violations)


def jacobian_bounds(mesh: Mesh, dt: float, alpha_low: float, alpha_high: float,
                    lam_prime_max: float, gravity=None) -> tuple[float, float]:
    """(delta, Delta) bracketing the scheme Jacobian's diagonal.

    delta = alpha_low * min(1, dt * min_K min_{sigma in E_K} A_sigma / m_K),
    Delta = alpha_high * max_K (1 + (dt/m_K) sum_{sigma in E_K}
            (m_sigma g+ lam_prime_max + A_sigma)).
    """
    if not alpha_low > 0:
        raise ValueError("alpha_low must be positive")
    g = np.zeros(mesh.dim) if gravity is None else np.asarray(gravity, dtype=float)
    cells, e, sign = mesh.incidence()
    gn = (mesh.edge_normal @ g)[e] * sign  # g . n_{K,sigma}
    a_min = np.full(mesh.n_cells, np.inf)
    np.minimum.at(a_min, cells, mesh.edge_A[e])
    load = np.zeros(mesh.n_cells)
    np.add.at(load, cells,
              mesh.edge_measure[e] * np.maximum(gn, 0.0) * lam_prime_max + mesh.edge_A[e])
    delta = alpha_low * min(1.0, dt * float(np.min(a_min / mesh.cell_volumes)))
    Delta = alpha_high * float(np.max(1.0 + dt / mesh.cell_volumes * load))
    return delta, Delta


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
