"""Newton iteration, sparse direct solves, and the M-matrix analysis toolkit.

The nonlinear step problem is solved by plain Newton (no damping, line
search, or trust region) with the residual-based stopping rule
||F(tau^k)||_1 <= eps * dt.  A step starts from the evaluation at
tau_init that the previous step ended with (``scheme.Evaluation``), so
a step evaluates only its own Newton iterates.  The Jacobian of the
scheme is a column-wise (delta, Delta)-M-matrix for non-degenerate
parametrizations, which yields a uniform bound on ||J^{-1}||_1 from the
longest delta-transmissive path.  ``jacobian_bounds`` brackets the
diagonal of the scheme's Jacobian by (delta, Delta), and
``mmatrix_analyze`` checks the conditions on a concrete matrix in one
whole-array pass over its CSC arrays and a level-synchronous
breadth-first search from I_delta, one numpy pass over the
delta-transmissive arcs per level (about 10 us on a 20x20 Jacobian, so a
chain anchored at one end is the worst case), and its report keeps each
column's delta-transmissive path length and the violated conditions.

The scheme gives the Jacobian as its diagonal plus one coupling per side
of each interior edge (``scheme.jacobian``).  Each Newton correction is
one band solve in the reverse Cuthill-McKee order of those couplings,
worked out once per run (``scheme.SolvePlan``, held by the ``Assembly``),
so a box mesh in any numbering has a band about as wide as its narrower
side.  Per iteration only numeric work is left: the diagonal and the
couplings are computed for an iterate whose correction is solved, placed
in band storage and factored; a CSC matrix is built only for a callback.
An iterate recomputes what depends on the cells whose tau changed since
the last one, when few enough did (``scheme.refresh_limit``; test1 at
80x80 and above): ``residual`` evaluates the parametrization on those
cells and re-sums the fluxes around them, and ``jacobian`` recomputes
the columns whose s, s' or u' moved and the solve's wet set from the
Jacobian of the last iterate, which ``newton_solve`` keeps for the step.
Otherwise both compute every cell; either way the bits are the same.
Which factorization runs is fixed per run by the physics:

* With gravity, LAPACK band LU (``dgbsv``) of J.  A column-wise M-matrix
  with nonnegative column sums is diagonally dominant by columns, so LU
  with partial pivoting makes no row swaps and is stable in any symmetric
  ordering; the ordering decides fill and speed, not accuracy.
* Without a gravity term on any edge, J = diag(s') + diag(dt/m) Lambda
  diag(u'), with Lambda the symmetric transmissibility matrix of the
  A_sigma (Dirichlet edges on its diagonal) and m the cell volumes.  So
  B = diag(m) J diag(u')^-1 = diag(m s'/u') + dt Lambda is symmetric, and
  positive semidefinite as s' >= 0, so positive definite where J is
  nonsingular.  LAPACK band Cholesky (``dpbsv``; George & Liu 1981) solves
  B y = m f with y = u' x, in kd + 1 band rows instead of LU's 2 kl + ku + 1
  and with about half the flops.  This needs u' > 0 on the factored cells:
  a wet column K (below) holds a coupling (dt/m_L) A_sigma u'_K > 0.

Only the wet set is factored.  Column K of J holds the couplings
-(dt/m_L)(m_sigma g+ lam'(s_K) s'(tau_K) + A_sigma u'(tau_K)), which depend
on cell K's state alone.  In a dry zone (s near 1e-6 in the infiltration
test) u'(tau_K) is near 1e-16, so the A_sigma terms sit near 1e-16 of the
diagonal, and their fill products in an LU underflow to subnormals.  The
gravity term is larger: on the 20x20 infiltration mesh it is
0.2 lam'(s) s'(tau) of a diagonal near 1, about 7e-16 at beta = 4 and
1.1e-13 at beta = 16.  Column K is dry when every off-diagonal entry is at
most DROP = 1e-12 times J_KK (``scheme.DROP``; a non-finite entry makes it
wet), and the other columns form the wet set W.  As a column depends on
its own cell alone, ``scheme.jacobian`` flags it where it forms the
column, and hands ``linear_solve`` W in the form the solve reads
(``scheme.SolvePlan.wet_split``), brought up to date on a refreshed
iterate from the columns whose flag flipped, so a refreshed iterate's
solve costs what W and the front cost, not what the mesh does.
So the dry soil stays dry at every beta of the paper's sweep: a short
20x20 run at beta = 16 factors about as many columns per correction as at
beta = 4 (47 and 46 on average), where a DROP of 1e-14 left 380 of 400
wet.  Taking the dry couplings as zero makes J block lower triangular in
the order [W, dry]: the W x W block is factored alone, W in the plan's
order, and each dry cell then costs one division.  This is an inexact
Newton step (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).
A dry column K has one coupling per edge, as no two edges join the same
pair of cells (``mesh.validate_admissibility`` refuses a mesh where two
do), each at most DROP x J_KK.  So the mass the dropped matrix E takes
from it is at most (number of edges of K) x DROP x J_KK, and the
correction s solves J s = -F up to
||E s||_1 <= (edges per cell) x DROP x ||diag(J) s||_1.  That forcing
term, 4e-12 relative on a box mesh (four edges per cell), lies far below
any stopping tolerance, so the local quadratic convergence is kept.  A
dry cell's diffusive coupling relative to its diagonal grows like dt/h^2,
so at a fixed dt a fine enough mesh makes every column wet again; the
threshold sets how fine.  A callback's J keeps the undropped values.

When every column is wet (every correction of the closed-box test2), the
whole matrix is not factored where the couplings two-colour.  The
two-point scheme couples neighbours only, so on a box mesh, in any
numbering, no coupling joins two cells of one checkerboard colour.
Eliminating one colour I exactly (red-black elimination; George & Liu
1981; Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 3.3),
with A_II diagonal, leaves the Schur complement
S = A_SS - A_SI A_II^-1 A_IS on the other colour, n/2 cells of a box mesh
with about the same bandwidth, so its band factor takes about half the
flops of the whole one.  S needs no pivoting either: the Schur complement
of a column diagonally dominant M-matrix is again one, and that of the
symmetric positive definite B, diag(m_S) S diag(u'_S)^-1, is again
symmetric positive definite.  The colouring and the places of S's
entries are worked out once per run (``scheme.SolvePlan.schur``), and
kept only where S's band costs less than the whole one.  A mesh with an
odd cycle (a triangulation, or its Voronoi dual) has no two-colouring,
so there the whole band is factored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv, dpbsv

from .mesh import Mesh
from .scheme import Assembly, Evaluation, Jacobian, SolvePlan, jacobian, residual, step_residual

__all__ = [
    "ATOL_SCALE",
    "MAX_ITER",
    "NewtonReport",
    "MMatrixReport",
    "SingularJacobianError",
    "newton_solve",
    "linear_solve",
    "mmatrix_analyze",
    "jacobian_bounds",
]


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


def linear_solve(plan: SolvePlan, jac: Jacobian, b) -> np.ndarray:
    """Direct solve of A x = b, A given as a ``scheme.Jacobian`` jac: its
    diagonal jac.diag, its couplings jac.off on the rows and columns of plan
    (``plan.rows``, ``plan.cols``), and its wet set W (see the module
    docstring): W in the plan's order (jac.wet_cells), the edges whose two
    cells are wet (jac.inside) and the couplings from a wet column into a
    dry row (jac.wet_to_dry), both ascending.

    With every column wet and a Schur layout in the plan (``plan.schur``),
    the Schur complement S is factored and each cell of I then costs one
    division; the result agrees with the band solve of A to rounding, not
    bit for bit.  Otherwise the W x W block is factored: the wet diagonal
    and the couplings of the edges inside W go straight into band storage
    of |W| columns with that block's own bandwidth (``plan.band``).  Then
    each dry row next to W sums its couplings from wet columns, in their
    order in off (as a sum over every coupling would, so it rounds the
    same), and each dry cell takes x_K = (b_K - sum_L A_KL x_L) / A_KK, the
    others x_K = b_K / A_KK from one division over every cell.  When
    ``plan.symmetric``, the band Cholesky of B = diag(m) A diag(u')^-1,
    m = ``plan.m`` and u' = jac.u_p, factors in place of the band LU of A.

    An exactly zero LU pivot or a nonpositive Cholesky pivot, or an exactly
    zero diagonal of a dry cell or of a cell of I, raises
    SingularJacobianError naming the cell.  No array of jac is modified.
    Deterministic for fixed input.
    """
    b = np.asarray(b, dtype=float)
    diag, off, w, u_p = jac.diag, jac.off, jac.wet_cells, jac.u_p
    n, rows, cols, symmetric = plan.n, plan.rows, plan.cols, plan.symmetric
    if w.size == n and plan.schur is not None:
        return _schur_solve(plan, diag, off, b, u_p)
    x = np.empty(n)
    if w.size < n:  # x_K = b_K / A_KK; W and the dry rows next to it are set below
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(b, diag, out=x)
    place = np.empty(n, dtype=np.intp)  # each wet cell's place in W, then slots of dry rows
    if w.size:
        place[w] = np.arange(w.size)
        q = plan.pair.take(jac.inside, axis=1)  # the edges inside W
        p = place.take(cols.take(q))  # the places in W of each edge's earlier and later cell
        k = int((p[1] - p[0]).max(initial=0))
        i, j = p[::-1], p  # each coupling's row and column in W
        if symmetric:  # the coupling below the diagonal alone, of B in place of A
            q, i, j = q[0], i[0], j[0]
            c = off.take(q) * plan.m.take(rows.take(q)) / u_p.take(cols.take(q))
            d, b_w = _scaled(plan, u_p, w, diag.take(w), b.take(w))
        else:
            c, d, b_w = off.take(q), diag.take(w), b.take(w)
        ldab = plan.ldab(k)
        ab = np.zeros(ldab * w.size)
        ab[plan.band(0, 0, k)::ldab] = d
        ab[plan.band(i, j, k)] = c
        y = _band_solve(plan, k, ab, b_w, w)
        x[w] = y / u_p.take(w) if symmetric else y
    if w.size < n:  # x_K = (b_K - sum_L A_KL x_L) / A_KK over the wet L
        if not diag.all():
            zero = np.flatnonzero(diag == 0.0)
            zero = zero[~jac.wet.take(zero)]
            if zero.size:
                raise SingularJacobianError(f"dry column {zero[0]} has a zero diagonal")
        c = jac.wet_to_dry
        if c.size:  # the dry rows next to W, each summed in its couplings' order
            r = rows.take(c)
            place[r] = np.arange(r.size)
            slot = place.take(r)  # one slot per dry row
            below = np.bincount(slot, weights=off.take(c) * x.take(cols.take(c)),
                                minlength=r.size)
            x[r] = (b.take(r) - below.take(slot)) / diag.take(r)
    return x


def _scaled(plan: SolvePlan, u_p, cells, d, b):
    """B's diagonal d m / u' and the right side m b of B y = m b on cells,
    from A's diagonal d and the right side b there; the band Cholesky
    factors B in place of A."""
    m = plan.m.take(cells)
    return d * m / u_p.take(cells), m * b


def _band_solve(plan: SolvePlan, k: int, ab, c, cells) -> np.ndarray:
    """The solution of the block of bandwidth k in band storage ab (flat,
    column-major, ``plan.ldab(k)`` rows) with right side c, by band Cholesky
    when the plan is symmetric and band LU otherwise; cells names the
    block's columns in the message of a failed factorization."""
    ab = ab.reshape((plan.ldab(k), -1), order="F")
    if plan.symmetric:
        # lower storage: with two OpenBLAS threads, dpbsv of the upper
        # triangle took about 4 times as long as with one; the lower one did not
        _, y, info = dpbsv(ab, c, lower=1, overwrite_ab=True)
        failure = "band Cholesky factorization failed: the pivot of cell {} is not positive"
    else:
        _, _, y, info = dgbsv(k, k, ab, c, overwrite_ab=True)
        failure = "band LU factorization failed: the pivot of cell {} is exactly zero"
    if info > 0:
        raise SingularJacobianError(failure.format(cells[info - 1]))
    return y


def _schur_solve(plan: SolvePlan, diag, off, b, u_p) -> np.ndarray:
    """x = A^-1 b by the Schur complement S = A_SS - A_SI A_II^-1 A_IS on the
    cells outside the set I of ``plan.schur`` (see ``linear_solve``)."""
    sc = plan.schur
    d_i = diag.take(sc.I)
    if not d_i.all():
        raise SingularJacobianError(f"eliminated cell {sc.I[np.flatnonzero(d_i == 0.0)[0]]} "
                                    "has a zero diagonal")
    g = off.take(sc.into) / d_i.take(sc.cross_i)  # A_ai / A_ii per cross edge i|a
    h = off.take(sc.out)  # A_ia
    d_s, b_s = diag.take(sc.cells), b.take(sc.cells)
    if plan.symmetric:  # the same for B, y = u' x
        d_s, b_s = _scaled(plan, u_p, sc.cells, d_s, b_s)
        g *= plan.m.take(sc.cross_cell)  # g h = B_ai B_ic / B_ii
        h /= u_p.take(sc.cross_cell)  # h y = A_ia x_a
    terms = np.concatenate([d_s, -(g.take(sc.left) * h.take(sc.right))])
    ab = np.bincount(sc.band, weights=terms, minlength=plan.ldab(sc.kd) * sc.cells.size)
    b_i = b.take(sc.I)  # the right side b_S - A_SI A_II^-1 b_I, scaled as S
    c = b_s - np.bincount(sc.cross_s, weights=g * b_i.take(sc.cross_i), minlength=sc.cells.size)
    y = _band_solve(plan, sc.kd, ab, c, sc.cells)
    x = np.empty(diag.size)
    x[sc.cells] = y / u_p.take(sc.cells) if plan.symmetric else y
    x[sc.I] = (b_i - np.bincount(sc.cross_i, weights=h * y.take(sc.cross_s),
                                 minlength=sc.I.size)) / d_i
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
    step that converges at tau_init computes none.  Each iterate after the
    first is evaluated from the last one's evaluation, and its Jacobian from
    the last one's Jacobian, which lives only in this call: a step's first
    Jacobian is computed in full (``scheme.residual``, ``scheme.jacobian``).
    Each iterate is a new array, so an evaluation keeps its own.  The
    optional callback is invoked as callback(k, tau, res_norm, J) at every
    such iterate, with J a CSC matrix of its own, built from the diagonal and
    couplings that are solved (``Assembly.matrix``).  A non-converged step, a singular Jacobian
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
    jac = None  # the Jacobian of the last iterate, refreshed at the next one
    for k in range(MAX_ITER):
        if res <= tol:
            break
        if not np.isfinite(res):
            break
        jac = jacobian(system, dt, ev, jac)
        if callback is not None:
            callback(k, tau, res, system.matrix(jac.diag, jac.off))
        try:
            delta = linear_solve(system.plan, jac, f)
        except SingularJacobianError:
            break
        tau = tau - delta  # a new array: ev keeps the iterate it was given
        f, ev = residual(system, dt, s_prev, tau, ev)
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
    I_delta.  Every test allows the roundoff slack
    atol = ATOL_SCALE * max(Delta, 1).

    A is read as CSC in one pass over its entries.  A CSC input in canonical
    form (sorted rows in each column, none twice: ``has_canonical_format``,
    which ``Assembly.matrix`` declares) is read as stored, without a copy; a
    CSC or CSR input that is not has its duplicate entries summed on a copy
    first, and ``sp.csc_matrix`` sums those of a COO input.  The pass reads
    the diagonal, the signs, and the column sums by ``np.bincount`` in
    storage order.  The paths come from a
    level-synchronous breadth-first search from I_delta along the arcs
    j -> i with A[j, i] < -delta, i.e. paths in A^T: each level gathers the
    targets of the arcs leaving the current front, and those not reached
    before get the level and form the next front.  A level is one pass over
    the arcs, about 10 us on a 20x20 Jacobian, so the cost grows with the
    longest path L.  A chain anchored at one end (L = n - 1) is the worst
    case: 2.6-4.6 ms at n = 400, where scipy's ``dijkstra`` took 0.3-0.5 ms.
    """
    if sp.issparse(A) and A.format in ("csc", "csr") and not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    A = sp.csc_matrix(A)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    atol = ATOL_SCALE * max(Delta, 1.0)
    violations = []

    row, data = A.indices, A.data
    col = np.repeat(np.arange(n), np.diff(A.indptr))
    diag = A.diagonal()
    if diag.min() < delta - atol:
        violations.append(f"diagonal entry {float(diag.min())!r} below delta = {delta!r}")
    if diag.max() > Delta + atol:
        violations.append(f"diagonal entry {float(diag.max())!r} above Delta = {Delta!r}")
    off = row != col
    if np.any(data[off] > atol):
        violations.append(f"positive off-diagonal entry {float(data[off].max())!r}")
    colsum = np.bincount(col, weights=data, minlength=n)
    if np.any(colsum < -atol):
        violations.append(f"negative column sum {float(colsum.min())!r}")

    strong = np.flatnonzero(colsum >= delta - atol)
    if strong.size == 0:
        violations.append("I_delta is empty")
        return MMatrixReport(np.full(n, np.inf), violations)
    arc = off & (data < -(delta - atol))
    src, dst = row[arc], col[arc]
    path_lengths = np.full(n, np.inf)
    front = np.zeros(n, dtype=bool)
    reached, level = strong, 0
    while reached.size:
        path_lengths[reached] = level
        front[:] = False
        front[reached] = True
        reached = dst[front[src]]
        reached = reached[np.isinf(path_lengths[reached])]
        level += 1
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
    load = np.bincount(cells, weights=mesh.edge_measure[e] * np.maximum(gn, 0.0) * lam_prime_max
                       + mesh.edge_A[e], minlength=mesh.n_cells)
    delta = alpha_low * min(1.0, dt * float(np.min(a_min / mesh.cell_volumes)))
    Delta = alpha_high * float(np.max(1.0 + dt / mesh.cell_volumes * load))
    return delta, Delta
