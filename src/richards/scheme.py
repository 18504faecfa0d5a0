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

On a moving front most cells keep their tau from one Newton iterate to
the next (on test1 80x80 an iterate changes a median 660 of 6400 cells).
So ``residual`` takes the evaluation of the last iterate, and when at
most ``refresh_limit(n)`` cells changed it refreshes that one: the
parametrization on the changed cells, F on their edges, and the flux
sums of both cells of each of those edges.  Column K of the Jacobian
depends on cell K's s, s' and u' and on dt alone, so ``jacobian``
refreshes the last iterate's Jacobian at the same dt in the columns whose
s, s' or u' moved, on test1 80x80 about a quarter of the changed cells (a
saturated cell keeps s = 1, s' = 0 and u' = 1 as its tau moves).  Both go
by one index per ``Assembly``, made at the first refresh: each cell's
positions in the flux and diagonal sums in ascending order, one row of
memory per cell, so a refreshed sum repeats ``np.bincount``'s additions
and every result has the bits of the full computation.  The limit
follows measured costs; on meshes of at most 600 cells no refresh can
pay, and no change set is computed.

``jacobian`` also gives the wet set that the solve needs: a column is dry
when its couplings are all at most ``DROP`` times its diagonal
(``wet_columns``, see ``newton``).  It gives the wet mask and what the
solve reads of it (``SolvePlan.wet_split``): W, the wet cells in the
plan's order, the edges inside W and the couplings from W into dry rows.
A full Jacobian works them out from every cell and edge; a refresh tests
only the columns it recomputes, and when some flipped it merges W in the
plan's order and reads the two lists off W's rows of the cell index
(``_rewet``), so it costs what W costs.  What a refreshed iterate still
does on every cell is the comparison of tau with the last iterate's, the
copies that keep each evaluation and Jacobian its own, and f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components, reverse_cuthill_mckee

from .hydromodel import SPRIME_CAP, Parametrization, mobility, mobility_derivative
from .mesh import Mesh

__all__ = [
    "DROP",
    "Assembly",
    "Evaluation",
    "InitialField",
    "Jacobian",
    "SolvePlan",
    "discretize_initial",
    "jacobian",
    "refresh_limit",
    "residual",
    "step_residual",
    "wet_columns",
]

# A column whose couplings are all at most DROP times its diagonal is dry:
# the solve takes those couplings as zero (see the ``newton`` module
# docstring).  This leaves a forcing term of (edges per cell) x DROP, 4e-12
# relative on a box mesh.  At 1e-14 the dry soil's gravity coupling at
# beta = 16 (1.1e-13 of the diagonal on 20x20) kept nearly every column wet.
DROP = 1e-12

# An iterate is refreshed when at most n / REFRESH_SHARE - REFRESH_BASE of
# its n cells changed (``refresh_limit``).  Measured per iterate (residual
# and jacobian on recorded iterates, min of 5 x 40 calls, one BLAS thread,
# 2-CPU x86): the full path takes about 0.12-0.16 us per cell with gravity
# (1.05 ms on test1 80x80, 1.7 ms on 120x120) and 0.094 us without (150 us
# on test2 40x40); a refresh about 65 us, plus 0.022 us per cell for its
# copies, plus 0.13 us per changed cell (0.33 ms for 660 changed cells at
# 80x80).  They meet near 0.55 n - 490 changed cells without gravity and
# 0.75 n - 490 with it.  The rule stays below both lines from about 1300
# cells on (between 600 and 1300 cells a refresh at the limit costs up to
# about 10% more than the full path), and below 600 cells it is never met,
# so no change set is computed there.
REFRESH_SHARE = 3.0
REFRESH_BASE = 200.0


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
    one below for Cholesky.  ``kd`` is the bandwidth of the whole matrix in
    that order.

    ``schur`` is the Schur layout (``_SchurLayout``), made at the first solve
    in which every cell is factored: an independent set I of cells, the order
    of the others and the places of the entries of the Schur complement S
    on them.  It is kept only where S's band costs less than the whole one,
    n_S kd_S^2 < n kd^2 (n/2 cells and kd_S = kd on a square box); then
    such a solve factors S alone (``newton.linear_solve``).
    """

    def __init__(self, n: int, K, L, symmetric: bool = False):
        K, L = np.asarray(K, dtype=np.intp), np.asarray(L, dtype=np.intp)
        self.n, self.symmetric = n, symmetric
        self.rows, self.cols = np.concatenate([K, L]), np.concatenate([L, K])
        pattern = sp.csr_matrix((np.ones(self.rows.size, dtype=np.int8), (self.rows, self.cols)),
                                shape=(n, n))
        self.order = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
        self.rank = rank = np.empty(n, dtype=np.intp)  # each cell's place in order
        rank[self.order] = np.arange(n)
        e = np.arange(K.size)
        later = rank.take(K) > rank.take(L)
        self.pair = np.stack([np.where(later, e, e + K.size), np.where(later, e + K.size, e)])
        p = rank.take(self.cols.take(self.pair))  # each edge's earlier cell, then its later one
        self.kd = int((p[1] - p[0]).max(initial=0))

    def wet_split(self, wet):
        """What a solve reads of the wet mask wet, one flag per column, worked
        out from every cell and edge: (W, the wet cells in ``order``; the
        edges whose two cells are wet, ascending; the couplings from a wet
        column into a dry row, ascending).  ``jacobian`` refreshes them from
        the last iterate's instead (``_rewet``)."""
        if wet.all():  # the Schur complement reads none of it
            return self.order, np.arange(self.rows.size // 2), np.arange(0)
        w = self.order.take(np.flatnonzero(wet.take(self.order)))
        wet_c = wet.take(self.cols).reshape(2, -1)  # per edge K|L: whether L, then K, is wet
        return (w, np.flatnonzero(wet_c[0] & wet_c[1]),
                np.flatnonzero(wet_c > wet_c[::-1]))

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

    @cached_property
    def schur(self) -> "_SchurLayout | None":
        """The Schur layout, or None where S's band would not cost less than
        the whole one; made at the first solve that factors every cell, so
        runs that never do hold none."""
        if self.kd == 0:
            return None
        layout = _SchurLayout(self)
        return layout if layout.cells.size * layout.kd**2 < self.n * self.kd**2 else None


class _SchurLayout:
    """The red-black split of a ``SolvePlan``'s cells, worked out once from its
    couplings, and the places that turn A's diagonal and couplings into the
    band storage of the Schur complement S = A_SS - A_SI A_II^-1 A_IS.

    ``I`` is an independent set: no coupling joins two of its cells, so A_II is
    diagonal.  Its cells are those at an even breadth-first distance from the
    first cell of their component (one colour of a box mesh's checkerboard,
    n/2 cells); where a coupling still joins two of them (an odd cycle), the
    one the search reached later is left out.  Then each cell with no
    neighbour in I joins it, in cell order, so I is a maximal independent
    set (25 of 100 cells on a grid with one diagonal coupling per square,
    where the parity alone keeps 9; none joins on a box mesh).  ``cells``
    lists the other cells in reverse Cuthill-McKee order of S's pattern,
    ``kd`` is S's bandwidth in that order, and ``ldab`` its number of band
    rows.

    Per cross edge, an edge i|a with i in I and a outside: ``into`` and
    ``out``, the couplings A_ai and A_ia; ``cross_cell``, a; ``cross_i`` and
    ``cross_s``, i's place in I and a's in ``cells``.  The cross edges are
    sorted by i.  S is the sum of terms, each at its place ``band`` in the
    band storage of ``newton.linear_solve`` (below the diagonal alone when
    the plan is symmetric, both sides otherwise): first the diagonal of each
    cell of ``cells``, then each coupling ``direct`` inside S, then, per
    pair of cross edges i|a, i|c of one i, the product -(A_ai / A_ii) A_ic,
    as the cross edges ``left`` and ``right``.  One ``np.bincount`` over
    them gives S in band storage.
    """

    def __init__(self, plan: SolvePlan):
        n, rows, cols = plan.n, plan.rows, plan.cols
        ne = rows.size // 2
        K, L = rows[:ne], cols[:ne]
        graph = sp.csr_matrix((np.ones(ne), (K, L)), shape=(n, n))
        _, label = connected_components(graph, directed=False)
        _, first = np.unique(label, return_index=True)
        # one breadth-first search from a node n joined to each component's first cell
        rooted = sp.csr_matrix((np.ones(ne + first.size),
                                (np.concatenate([K, np.full(first.size, n)]),
                                 np.concatenate([L, first]))), shape=(n + 1, n + 1))
        reached, pred = breadth_first_order(rooted, n, directed=False)
        pred[n] = n
        odd = np.ones(n + 1, dtype=bool)  # the parity of the path to pred
        odd[n] = False
        while (pred != n).any():  # pointer jumping: odd becomes the depth's parity
            odd, pred = odd ^ odd[pred], pred[pred]
        in_i = odd[:n]  # the first cells are at depth 1
        rank = np.empty(n + 1, dtype=np.intp)
        rank[reached] = np.arange(n + 1)
        both = np.flatnonzero(in_i[K] & in_i[L])
        in_i[np.where(rank[K[both]] > rank[L[both]], K[both], L[both])] = False
        # then, in cell order, each cell with no neighbour in I joins it, so I
        # is a maximal independent set (on a box mesh none joins)
        taken = np.zeros(n, dtype=bool)
        taken[rows[in_i[cols]]] = True
        free = np.flatnonzero(~in_i & ~taken)
        if free.size:
            adjacent = sp.csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
            start, neighbour = adjacent.indptr, adjacent.indices
            for c in free.tolist():
                if not taken[c]:
                    in_i[c] = True
                    taken[neighbour[start[c]:start[c + 1]]] = True
        self.I = np.flatnonzero(in_i)
        place = np.empty(n, dtype=np.intp)
        place[self.I] = np.arange(self.I.size)

        e = np.flatnonzero(in_i[K] != in_i[L])
        e = e[np.argsort(np.where(in_i[K[e]], K[e], L[e]), kind="stable")]
        i_is_k = in_i[K[e]]
        self.cross_cell = a = np.where(i_is_k, L[e], K[e])
        self.into = np.where(i_is_k, e + ne, e)  # row a, column i
        self.out = np.where(i_is_k, e, e + ne)  # row i, column a
        self.cross_i = place[np.where(i_is_k, K[e], L[e])]
        # every ordered pair of the cross edges of one i
        size = np.bincount(self.cross_i, minlength=self.I.size)
        start = np.cumsum(size) - size
        count = size[self.cross_i]
        left = np.repeat(np.arange(e.size), count)
        right = start[self.cross_i][left] + np.arange(left.size) - np.repeat(
            np.cumsum(count) - count, count)
        direct = np.flatnonzero(~in_i[rows] & ~in_i[cols])

        s_cells = np.flatnonzero(~in_i)
        n_s = s_cells.size
        place[s_cells] = np.arange(n_s)
        r = np.concatenate([rows[direct], a[left]])
        c = np.concatenate([cols[direct], a[right]])
        coupled = r != c
        pattern = sp.csr_matrix((np.ones(np.count_nonzero(coupled)),
                                 (place[r[coupled]], place[c[coupled]])), shape=(n_s, n_s))
        self.cells = s_cells[reverse_cuthill_mckee(pattern, symmetric_mode=True)]
        place[self.cells] = np.arange(n_s)
        self.cross_s = place[a]
        # each term's place in S, row and column: the diagonal, direct, products
        i = np.concatenate([np.arange(n_s), place[r]])
        j = np.concatenate([np.arange(n_s), place[c]])
        self.kd = k = int((i - j).max(initial=0))
        if plan.symmetric:  # Cholesky reads the diagonal and below it
            lower = i >= j
            i, j = i[lower], j[lower]
            d = n_s + direct.size
            direct, left, right = direct[lower[n_s:d]], left[lower[d:]], right[lower[d:]]
        self.direct, self.left, self.right = direct, left, right
        # LU (dgbsv, 3k + 1 rows): S[i, j] in row 2k + i - j; Cholesky (dpbsv,
        # lower, k + 1 rows): in row i - j
        self.ldab = k + 1 if plan.symmetric else 3 * k + 1
        self.band = self.ldab * j + i - j + (0 if plan.symmetric else 2 * k)


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
        self.K = mesh.edge_cells[:, 0].take(edges)
        self.L = mesh.edge_cells[:, 1].take(ie)
        self.m = mesh.edge_measure.take(edges)
        self.A = mesh.edge_A.take(edges)
        gn = mesh.edge_normal.take(edges, axis=0) @ gravity  # g . n_{K,sigma}
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
        # per edge, the place of its outer value in the cell values followed
        # by the Dirichlet ones (``Evaluation.u``)
        self.outer = np.concatenate([L, mesh.n_cells + np.arange(de.size)])
        self.flux_cells = np.concatenate([K, L, self.K[ni:]])
        # the cells of jacobian()'s diagonal terms: s', then the flux terms
        self.diag_cells = np.concatenate([np.arange(mesh.n_cells), self.flux_cells])
        # with no gravity term on any edge, diag(m) J diag(u')^-1 is symmetric
        self.plan = SolvePlan(mesh.n_cells, K, L, symmetric=not self.gravity)
        # the most changed cells for which an iterate is refreshed (``refresh_limit``)
        self.max_changed = refresh_limit(mesh.n_cells)
        self._rate = (None, None)

    def rate(self, dt) -> np.ndarray:
        """dt / m_K of each cell, read-only.  The iterates of a Newton step pass
        one dt object, so the array of the last one is kept and handed out
        again for it (the same object, not an equal value: 0.0 == -0.0)."""
        if self._rate[0] is not dt:
            rate = dt / self.mesh.cell_volumes
            rate.flags.writeable = False
            self._rate = (dt, rate)
        return self._rate[1]

    @cached_property
    def _cells(self) -> "_CellIndex":
        """The per-cell index of the flux and diagonal sums, made at the first
        refresh (runs that never refresh hold none)."""
        return _CellIndex(self)

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


def refresh_limit(n: int) -> int:
    """The most changed cells for which ``residual`` and ``jacobian`` refresh an
    iterate of an n-cell mesh: n / REFRESH_SHARE - REFRESH_BASE, at most 0
    when no refresh can pay (then no change set is computed)."""
    return int(n / REFRESH_SHARE - REFRESH_BASE)


class _CellIndex:
    """Each cell's positions in the flux sum and the diagonal sum, in
    ascending order, as the rows of (n, width) tables, width the most
    positions of any cell.  A position is one side of one edge, numbered as
    in ``Assembly.flux_cells``: the K side of interior edge e at e, its L side
    at n_interior + e, and the side of Dirichlet edge e at n_interior + e.  A
    row with fewer positions is padded at its end with entries that add 0.

    Per position: ``edge``, the edge (in a pad, the slot after the last
    edge); ``first``, whether the cell is the edge's first cell K (False in
    a pad); ``sign``, the sign of F_e in the cell's flux sum (-1 in a pad,
    which so adds -0.0, changing no sum); ``other``, the cell on the other
    side (the cell itself on a Dirichlet edge and in a pad); ``A`` and ``g``, the coefficients of u'(tau) and of d lam/d tau of
    the cell in the derivative of that side's flux (A_sigma and m_sigma g+
    on a K side, A_sigma and m_sigma g- on an L side, 0 in a pad);
    ``coupling``, the coupling that derivative feeds, row ``other``, column
    the cell (-1 on a Dirichlet edge and in a pad: a refresh writes those
    values to a slot after the last coupling); ``coupled``, whether it
    feeds one.  Summing a row in order repeats ``np.bincount``'s additions,
    so a refreshed sum has the bits of the full one.  A refresh reads the
    rows of a set of cells, by ``take``: each row is one run of memory.
    """

    def __init__(self, system: "Assembly"):
        n, ni, ne = system.mesh.n_cells, system.n_interior, system.K.size
        inner, dirichlet = np.arange(ni), np.arange(ni, ne)
        cell = system.flux_cells
        count = np.bincount(cell, minlength=n)
        width = int(count.max(initial=0))
        order = np.argsort(cell, kind="stable")
        row = cell.take(order)
        col = np.arange(cell.size) - (np.cumsum(count) - count).take(row)
        # each cell's positions, then in its pads the slot after the last one
        place = np.full(n * width, cell.size)
        place[row * width + col] = order
        place = place.reshape(n, width)

        def table(*values):
            """The table of per-position values, given in position order and
            ending with the value of a pad."""
            return np.concatenate(values).take(place)

        self.edge = table(inner, inner, dirichlet, [ne])
        self.first = table(np.ones(ni, dtype=bool), np.zeros(ni, dtype=bool),
                           np.ones(ne - ni, dtype=bool), [False])
        self.sign = np.where(self.first, 1.0, -1.0)
        self.other = table(system.L, system.K, [-1])
        np.copyto(self.other, np.arange(n)[:, None], where=self.other < 0)
        self.A = table(system.A[:ni], system.A, [0.0])
        self.g = table(system.mgp[:ni], system.mgn, system.mgp[ni:], [0.0])
        self.coupling = table(inner + ni, inner, np.full(ne - ni + 1, -1))
        self.coupled = self.coupling >= 0


class Evaluation(NamedTuple):
    """What one iterate tau gives the step residual and its Jacobian: s(tau),
    the derivatives s'(tau) and u'(tau), the flux sum
    sum_{sigma in E_K} F_{K,sigma}(tau) of each cell, and what a refresh from
    it needs: tau itself (the array ``residual`` was given), u(tau) of the
    cells followed by the Dirichlet edges' u(tau_D) (read through
    ``Assembly.outer``), the flux F of each edge (F_{K,sigma} for its first
    cell K) followed by a 0 (the pads of the cell index read it) and, when
    an edge carries a gravity term, the mobility lam(s), laid out as u (None
    otherwise).  changed holds the cells whose tau differs from the
    evaluation this one was refreshed from, and moved those of them whose
    s, s' or u' differ too (a Jacobian column depends on nothing else of
    its cell); both are None when it was computed in full.  None of it
    depends on dt or s^{n-1}, so the evaluation at the last iterate of a
    step is the one at the next step's tau_init."""

    s: np.ndarray
    s_p: np.ndarray
    u_p: np.ndarray
    flux: np.ndarray
    tau: np.ndarray
    u: np.ndarray
    F: np.ndarray
    lam: np.ndarray | None
    changed: np.ndarray | None
    moved: np.ndarray | None


class Jacobian(NamedTuple):
    """The Jacobian at an iterate: its diagonal, its couplings on the rows and
    columns of ``Assembly.plan`` in edge order, the wet mask, one flag per
    column (``wet_columns``), and what the solve reads of it
    (``SolvePlan.wet_split``): W, the wet cells in the plan's order; the
    edges whose two cells are wet, and the couplings from a wet column into
    a dry row, both ascending."""

    diag: np.ndarray
    off: np.ndarray
    wet: np.ndarray
    wet_cells: np.ndarray
    inside: np.ndarray
    wet_to_dry: np.ndarray


def wet_columns(cols, diag, off) -> np.ndarray:
    """Whether each column is wet: some coupling off, in column cols, is not
    at most DROP times the column's diagonal, or the diagonal is not finite
    (a nan coupling makes its column wet)."""
    wet = ~np.isfinite(diag)
    wet[cols[~(np.abs(off) <= (DROP * diag).take(cols))]] = True
    return wet


def step_residual(system: Assembly, dt: float, s_prev, ev: Evaluation):
    """f = (s - s_prev) + (dt / m_K) * flux of the evaluation ev."""
    f = ev.s - s_prev
    f += system.rate(dt) * ev.flux
    return f


def residual(system: Assembly, dt: float, s_prev, tau, prev: Evaluation | None = None):
    """Residual f(tau) of one implicit step and the Evaluation at tau: (f, ev).

    The parametrization is evaluated once; jacobian() takes s(tau) and the
    derivatives from ev, so an iterate whose correction is solved costs no
    second evaluation, and the next step starts from ev (``newton_solve``).
    The mobility lam(s) and the gravity terms are computed only when an
    edge carries a gravity term (``Assembly.gravity``).  Sums over edges run
    in edge order, so each call with the same inputs gives the same bits.

    prev is an evaluation of an earlier iterate, or None.  On a mesh where a
    refresh can pay (``Assembly.max_changed`` > 0), the cells whose tau
    differs from prev.tau in any bit are found, and when there are at most
    max_changed of them, ev is refreshed from prev: the parametrization is
    evaluated on those cells only, F is recomputed on their edges, and the
    flux sums of both cells of each of those edges are summed again.  The
    result has the bits of the full computation.  ev keeps tau as given, so
    the caller must not change it afterwards; no array of prev is changed.
    """
    tau = np.ascontiguousarray(tau, dtype=float)
    if prev is not None and system.max_changed > 0:
        changed = tau.view(np.int64) != prev.tau.view(np.int64)
        if np.count_nonzero(changed) <= system.max_changed:
            ev = _refreshed(system, prev, tau, changed)
            return step_residual(system, dt, s_prev, ev), ev
    param, ni = system.param, system.n_interior
    s, u, s_p, u_p = param.eval(tau)
    K, outer = system.K, system.outer
    u = np.concatenate([u, system.u_D])
    F = np.empty(K.size + 1)
    F[-1] = 0.0
    F_e = np.multiply(system.A, u.take(K) - u.take(outer), out=F[:-1])
    lam = None
    if system.gravity:
        lam = np.concatenate([mobility(param.model, s), system.lam_D])
        F_e += system.m * (lam.take(K) * system.gp - lam.take(outer) * system.gn)
    flux = np.bincount(system.flux_cells, weights=np.concatenate([F_e[:ni], -F_e[:ni], F_e[ni:]]),
                       minlength=system.mesh.n_cells)
    ev = Evaluation(s, s_p, u_p, flux, tau, u, F, lam, None, None)
    return step_residual(system, dt, s_prev, ev), ev


def _refreshed(system: Assembly, prev: Evaluation, tau, mask) -> Evaluation:
    """The evaluation at tau from prev, the one at an iterate that differs from
    tau on the cells where mask holds (see ``residual``)."""
    cells, changed = system._cells, mask.nonzero()[0]
    s_c, u_c, s_p_c, u_p_c = system.param.eval(tau.take(changed))
    # the changed cells whose s, s' or u' moved in some bit (on test1 80x80
    # about a quarter: a saturated cell keeps s = 1, s' = 0 and u' = 1)
    moved = changed[(s_c.view(np.int64) != prev.s.take(changed).view(np.int64))
                    | (s_p_c.view(np.int64) != prev.s_p.take(changed).view(np.int64))
                    | (u_p_c.view(np.int64) != prev.u_p.take(changed).view(np.int64))]
    s, s_p, u_p, u = prev.s.copy(), prev.s_p.copy(), prev.u_p.copy(), prev.u.copy()
    s[changed], s_p[changed], u_p[changed], u[changed] = s_c, s_p_c, u_p_c, u_c
    # the edges of the changed cells, each once: from its first cell when that
    # one changed, from the other one otherwise
    other = cells.other.take(changed, axis=0)
    own = cells.first.take(changed, axis=0) >= mask.take(other)
    e = cells.edge.take(changed, axis=0)[own]
    K, outer = system.K.take(e), system.outer.take(e)
    F_e = system.A.take(e) * (u.take(K) - u.take(outer))
    lam = None
    if system.gravity:
        lam = prev.lam.copy()
        lam[moved] = mobility(system.param.model, s.take(moved))
        F_e += system.m.take(e) * (lam.take(K) * system.gp.take(e)
                                   - lam.take(outer) * system.gn.take(e))
    F = prev.F.copy()
    F[e] = F_e
    # the changed cells and their neighbours sum their flux again, in order
    touched = mask.copy()
    touched[other] = True
    t = touched.nonzero()[0]
    total = np.zeros(t.size)
    for term in (cells.sign.take(t, axis=0) * F.take(cells.edge.take(t, axis=0))).T:
        total += term
    flux = prev.flux.copy()
    flux[t] = total
    return Evaluation(s, s_p, u_p, flux, tau, u, F, lam, changed, moved)


def _capped(s_p):
    """s' with its non-finite values and those above SPRIME_CAP set to the
    cap, or s' itself where it has none: so every s' of the tau kind at the
    presets, which lies in [0, 1] (the u kind's is +inf at u = 0)."""
    if np.maximum.reduce(np.abs(s_p), initial=0.0) <= SPRIME_CAP:  # nan fails
        return s_p
    return np.where(np.isfinite(s_p), np.minimum(s_p, SPRIME_CAP), SPRIME_CAP)


def jacobian(system: Assembly, dt: float, ev: Evaluation, prev: Jacobian | None = None):
    """The exact Jacobian of residual() as a ``Jacobian``: its diagonal, its
    couplings on the rows and columns of system.plan in edge order, the wet
    mask of its columns and what the solve reads of it.

    ev is what residual() returned at the iterate.  Diagonal of J:
    s'(tau_K) + (dt/m_K) sum_sigma (m_sigma g+ lam'(s_K) s'(tau_K)
    + A_sigma u'(tau_K)); off-diagonal (row L, column K, sigma = K|L):
    -(dt/m_L)(m_sigma g+_{K,sigma} lam'(s_K) s'(tau_K) + A_sigma u'(tau_K)).
    The lam' terms are computed only when an edge carries a gravity term.
    Dirichlet edges contribute only to the diagonal.  Column K, its diagonal
    and the couplings below and above it, depends on cell K's state and on
    dt alone.  So when ev was refreshed (ev.changed is not None) and prev is
    the Jacobian at the same dt of the evaluation ev was refreshed from, only
    the columns and wet flags of the cells whose s, s' or u' moved
    (ev.moved) are computed again, and W and the edge lists of the solve are
    brought up to date from the cells whose flag flipped (``_rewet``), all
    with the bits of the full computation; no array of prev is changed.
    """
    if prev is not None and ev.changed is not None:
        return _refreshed_jacobian(system, dt, ev, prev)
    u_p = ev.u_p
    s_p = _capped(ev.s_p)
    ni, K, L = system.n_interior, system.K, system.L
    r = system.rate(dt)
    # derivative of F_{K,sigma} w.r.t. tau_K (upwind g+ side) and tau_L
    dFK = system.A * u_p.take(K)
    dFL = system.A[:ni] * u_p.take(L)
    if system.gravity:
        w = mobility_derivative(system.param.model, ev.s) * s_p  # d lam(s(tau))/d tau
        dFK += system.mgp * w.take(K)
        dFL += system.mgn * w.take(L)
    rK, rL = r.take(K), r.take(L)
    diag = np.bincount(system.diag_cells, weights=np.concatenate([
        s_p, rK[:ni] * dFK[:ni], rL * dFL, rK[ni:] * dFK[ni:]]), minlength=s_p.size)
    off = np.concatenate([-rK[:ni] * dFL, -rL * dFK[:ni]])
    wet = wet_columns(system.plan.cols, diag, off)
    return Jacobian(diag, off, wet, *system.plan.wet_split(wet))


def _refreshed_jacobian(system: Assembly, dt: float, ev: Evaluation, prev: Jacobian) -> Jacobian:
    """The Jacobian at ev from prev, by the columns of the cells ev.moved (see
    ``jacobian``), each from its row of the cell index."""
    cells, moved = system._cells, ev.moved
    rate = system.rate(dt)
    s_p = _capped(ev.s_p.take(moved))
    # the derivative of each side's flux w.r.t. the cell's tau; 0 in a pad
    d = cells.A.take(moved, axis=0) * ev.u_p.take(moved)[:, None]
    if system.gravity:
        w = mobility_derivative(system.param.model, ev.s.take(moved)) * s_p
        d += cells.g.take(moved, axis=0) * w[:, None]
    diag_c = s_p + 0.0  # a sum starts at +0.0
    for term in (rate.take(moved)[:, None] * d).T:
        diag_c += term
    value = -rate.take(cells.other.take(moved, axis=0)) * d
    off = np.empty(prev.off.size + 1)  # the slot after the last coupling, off[-1],
    off[:-1] = prev.off  # takes the values of the Dirichlet sides and the pads
    off[cells.coupling.take(moved, axis=0)] = value
    diag = prev.diag.copy()
    diag[moved] = diag_c
    big = cells.coupled.take(moved, axis=0) & ~(np.abs(value) <= DROP * diag_c[:, None])
    wet_c = ~np.isfinite(diag_c)
    for column in big.T:
        wet_c |= column
    flipped = wet_c != prev.wet.take(moved)
    wet = prev.wet.copy()
    wet[moved] = wet_c
    if not flipped.any():
        return Jacobian(diag, off[:-1], wet, prev.wet_cells, prev.inside, prev.wet_to_dry)
    return Jacobian(diag, off[:-1], wet, *_rewet(system, prev.wet_cells, wet,
                                                 moved[wet_c & flipped]))


def _rewet(system: Assembly, w, wet, new):
    """``SolvePlan.wet_split`` of the mask wet, from W = w of a mask that
    differs from wet on some cells: those of w that are dry now leave W, the
    cells new, wet now, join it.  The edge lists are read off W's rows of
    the cell index, so this costs what W costs, not what the mesh does."""
    plan, cells, ni = system.plan, system._cells, system.n_interior
    w = w[wet.take(w)]
    if new.size:  # merged in the plan's order
        w = plan.order.take(np.sort(np.concatenate([plan.rank.take(w), plan.rank.take(new)])))
    if w.size == plan.n:
        return plan.wet_split(wet)
    # per side of an edge of a cell of W: the coupling into the other cell
    # (row other, column the W cell) and whether that cell is wet
    c = cells.coupling.take(w, axis=0)
    o = wet.take(cells.other.take(w, axis=0))
    inside = c[o & (c >= ni)]  # K sides of interior edges: coupling n_interior + e
    inside.sort()
    wet_to_dry = c[~o]  # the other cell is dry, so the side is interior
    wet_to_dry.sort()
    return w, inside - ni, wet_to_dry
