"""Admissible finite-volume meshes with two-point transmissibilities.

A mesh is admissible when the segment joining neighboring cell centers is
orthogonal to their shared edge, so that the two-point flux approximation
is consistent.  A mesh stores only its primary geometry, which is exactly
what the text format of :func:`load_mesh` holds: cell volumes and centers,
and per edge its measure, cells, distances d_K (d_L), boundary point
x_sigma and tag.  Everything else is derived once, at construction: the
unit normal n_{K,sigma}, collinear with x_K -> x_L (x_K -> x_sigma on the
boundary); the transmissibility A_sigma = m_sigma / (d_K + d_L), or
m_sigma / d_K on the boundary; the bounding box of the centers and
boundary points; and the dimension.

The cell-edge incidence has one representation, the ``edge_cells`` array;
:meth:`Mesh.incidence` unrolls it into one (cell, edge, sign) entry per
side of each edge, in edge order, for per-cell sums over E_K with outward
normals.  Uniform rectangles come from a tensor-product builder of boxes
in any dimension; general orthogonal meshes (e.g. Voronoi) are loaded
from a line-oriented text format, see :func:`load_mesh`.  Set-up and
validation are whole-array code.  Meshes are immutable after
construction apart from boundary retagging, which must happen before any
assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "Mesh",
    "ValidationReport",
    "MeshError",
    "INTERIOR",
    "DIRICHLET",
    "NOFLUX",
    "build_rect_mesh",
    "load_mesh",
    "validate_admissibility",
]

INTERIOR, DIRICHLET, NOFLUX = 0, 1, 2

ORTHO_TOL = 1e-10  # angle tolerance for the orthogonality condition [rad]
TILE_TOL = 1e-12  # relative tolerance for the tiling and closure identities


class MeshError(ValueError):
    """Raised on malformed mesh files or admissibility violations."""


@dataclass
class Mesh:
    """Array-oriented admissible mesh.

    Per-edge arrays are indexed by edge id; ``edge_cells[:, 1]`` is -1 for
    boundary edges and ``edge_x`` holds the projected center x_sigma there.
    ``cell_boxes`` carries the axis-aligned cell bounds for built
    structured meshes (None for loaded meshes).  The constructor takes the
    primary geometry only; ``edge_normal``, ``edge_A`` and ``bbox`` are
    computed from it in ``__post_init__`` and ``dim`` is the width of
    ``cell_centers``.
    """

    cell_volumes: np.ndarray  # (n,)
    cell_centers: np.ndarray  # (n, d)
    edge_measure: np.ndarray  # (m,)
    edge_cells: np.ndarray  # (m, 2) int
    edge_d: np.ndarray  # (m, 2); d_L is nan on boundary edges
    edge_x: np.ndarray  # (m, d); nan on interior edges
    edge_tag: np.ndarray  # (m,) int
    cell_boxes: np.ndarray | None = None  # (n, d, 2) for structured meshes
    edge_normal: np.ndarray = field(init=False)  # (m, d), outward w.r.t. edge_cells[:, 0]
    edge_A: np.ndarray = field(init=False)  # (m,)
    bbox: np.ndarray = field(init=False)  # (d, 2)

    def __post_init__(self):
        k, l = self.edge_cells[:, 0], self.edge_cells[:, 1]
        bnd = l < 0
        # one coordinate at a time: the center segment x_K -> x_L, or x_K ->
        # x_sigma on the boundary, its length as the sum of the squares in
        # axis order (as np.linalg.norm adds them), and its unit normal
        seg = [np.where(bnd, x, c.take(l)) - c.take(k)
               for x, c in zip(self.edge_x.T, self.cell_centers.T)]
        square = seg[0] * seg[0]
        for s in seg[1:]:
            square += s * s
        d0, d1 = self.edge_d.T
        # degenerate geometry gives inf or nan here; validate_admissibility reports it
        with np.errstate(divide="ignore", invalid="ignore"):
            length = np.sqrt(square)
            self.edge_normal = np.stack([s / length for s in seg], axis=-1)
            self.edge_A = self.edge_measure / np.where(bnd, d0, d0 + d1)
        pts = np.concatenate([self.cell_centers.T, self.edge_x[bnd].T], axis=1)
        self.bbox = np.stack([pts.min(axis=1), pts.max(axis=1)], axis=-1)

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.cell_centers.shape[1]

    @property
    def n_cells(self) -> int:
        return len(self.cell_volumes)

    @property
    def n_edges(self) -> int:
        return len(self.edge_measure)

    @property
    def interior_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tag == INTERIOR)

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tag != INTERIOR)

    @property
    def dirichlet_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_tag == DIRICHLET)

    @property
    def domain_measure(self) -> float:
        return float(np.prod(self.bbox[:, 1] - self.bbox[:, 0]))

    def incidence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell, edge, sign): one entry per side of each edge, in edge order.

        Entry i says that edge[i] is in E_K of K = cell[i], with outward
        normal sign[i] * edge_normal[edge[i]] (+1 on the K side, -1 on the
        L side).  Boundary edges have only their K side.  A per-cell sum
        over these entries runs over each cell's edges in edge order.
        """
        cells = self.edge_cells.ravel()
        keep = cells >= 0
        edge = np.repeat(np.arange(self.n_edges), 2)[keep]
        sign = np.tile([1.0, -1.0], self.n_edges)[keep]
        return cells[keep], edge, sign

    def retag_boundary(self, predicate, tag: int) -> int:
        """Tag the boundary edges whose x_sigma satisfy predicate.

        predicate maps the (b, d) array of boundary points x_sigma to a
        length-b boolean mask.  Must be called before any assembly; returns
        the number of retagged edges.
        """
        be = self.boundary_edges
        hit = be[np.asarray(predicate(self.edge_x[be]), dtype=bool)]
        self.edge_tag[hit] = tag
        return hit.size


# -- constructors ------------------------------------------------------------


def build_rect_mesh(nx: int, ny: int, domain=((0.0, 1.0), (0.0, 1.0))) -> Mesh:
    """Uniform rectangular mesh of an axis-aligned box; boundary tagged NoFlux."""
    return _build_box_mesh((nx, ny), domain)


def _build_box_mesh(shape: tuple, domain) -> Mesh:
    """Uniform tensor-product mesh of a box in d = len(shape) dimensions.

    Boxes satisfy the orthogonality condition exactly, with centers at the
    centroids.  Cells are numbered with axis 0 fastest.  Interior edges come
    axis by axis, each axis in the order of its lower cells; boundary edges
    come axis by axis as a (low, high) pair per cell row.  The assembly sums
    in edge order, so this order fixes its results to the last bit.
    """
    if min(shape) < 1:
        raise MeshError(f"cell counts must be >= 1, got {shape}")
    lo, hi = np.asarray(domain, dtype=float).T
    if not np.all(hi > lo):
        raise MeshError(f"degenerate domain {domain}")
    dim = len(shape)
    h = (hi - lo) / shape
    idx = np.indices(shape[::-1]).reshape(dim, -1)[::-1].T  # (n, d), axis 0 fastest
    cell = np.arange(len(idx))
    stride = np.cumprod((1,) + shape[:-1])

    # per edge: cell K, cell L (-1 on the boundary), normal axis; per
    # boundary edge: its wall coordinate on that axis
    ks, ls, axes, walls = [], [], [], []
    for a in range(dim):
        k = cell[idx[:, a] < shape[a] - 1]
        ks.append(k)
        ls.append(k + stride[a])
        axes.append(np.full(len(k), a))
    for a in range(dim):
        k = np.stack([cell[idx[:, a] == 0], cell[idx[:, a] == shape[a] - 1]], axis=-1).ravel()
        ks.append(k)
        ls.append(np.full(len(k), -1))
        axes.append(np.full(len(k), a))
        walls.append(np.tile([lo[a], hi[a]], len(k) // 2))
    k, l, axis = (np.concatenate(v) for v in (ks, ls, axes))

    inner = sum(map(len, ls[:dim]))  # the boundary edges come after the interior ones
    face = np.array([np.prod(np.delete(h, a)) for a in range(dim)])
    half = (h / 2).take(axis)
    centers = lo + (idx + 0.5) * h
    xs = np.full((len(k), dim), np.nan)
    xs[inner:] = centers.take(k[inner:], axis=0)
    xs[np.arange(inner, len(k)), axis[inner:]] = np.concatenate(walls)
    d = np.stack([half, half], axis=-1)
    d[inner:, 1] = np.nan
    tag = np.full(len(k), INTERIOR)
    tag[inner:] = NOFLUX
    return Mesh(
        cell_volumes=np.full(len(idx), np.prod(h)),
        cell_centers=centers,
        edge_measure=face.take(axis),
        edge_cells=np.stack([k, l], axis=-1),
        edge_d=d,
        edge_x=xs,
        edge_tag=tag,
        cell_boxes=np.stack([lo + idx * h, lo + (idx + 1) * h], axis=-1),
    )


# -- validation --------------------------------------------------------------


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        return "admissible" if self.ok else "\n".join(self.violations)


def _rows(mask, *arrays):
    """The entries of arrays where mask holds, as rows of Python scalars."""
    return zip(*(arr[mask].tolist() for arr in arrays))


def validate_admissibility(mesh: Mesh) -> ValidationReport:
    """Check every admissibility invariant, reporting offending entities.

    Orthogonality is verified through the distance identities
    |x_K - x_L| = d_K + d_L and |x_K - x_sigma| = d_K (which fail when the
    center segment is not orthogonal to the edge) together with the
    per-cell closed-surface identity sum_sigma m_sigma n_{K,sigma} = 0.
    An edge whose measure or distances are not positive reports only the
    first of these; the geometric checks skip it.  Every check fails
    closed: nan geometry is reported.
    """
    vol, cells = mesh.cell_volumes, np.arange(mesh.n_cells)
    out = [f"cell {i}: non-positive volume {v}" for i, v in _rows(~(vol > 0), cells, vol)]
    total = float(vol.sum())
    dom = mesh.domain_measure
    if not abs(total - dom) <= TILE_TOL * max(dom, 1.0):
        out.append(f"cells do not tile the domain: sum m_K = {total!r}, box measure = {dom!r}")

    m, k, l = mesh.edge_measure, mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    dk, dl = mesh.edge_d[:, 0], mesh.edge_d[:, 1]
    e = np.arange(mesh.n_edges)
    found = []  # (edge, message); each edge's messages in check order
    ok = np.ones(mesh.n_edges, dtype=bool)
    for bad, what, value in (
        (~(m > 0), "measure", m),
        (~(dk > 0), "distance d_K =", dk),
        ((l >= 0) & ~(dl > 0), "distance d_L =", dl),
    ):
        found += [(j, f"edge {j}: non-positive {what} {v}") for j, v in _rows(ok & bad, e, value)]
        ok &= ~bad

    e, k, l = e[ok], k[ok], l[ok]
    # center segment x_K -> x_L, or x_K -> x_sigma on the boundary
    seg = np.where((l >= 0)[:, None], mesh.cell_centers[l], mesh.edge_x[e]) - mesh.cell_centers[k]
    gap = np.linalg.norm(seg, axis=1)
    d = np.where(l >= 0, dk[e] + dl[e], dk[e])
    off = ~(np.abs(gap - d) <= ORTHO_TOL * np.maximum(gap, 1.0))
    found += [(j, f"edge {j} = {kk}|{ll}: center distance {g!r} != d_K + d_L = {dd!r} "
                  "(non-orthogonal center pair)")
              for j, kk, ll, g, dd in _rows(off & (l >= 0), e, k, l, gap, d)]
    found += [(j, f"edge {j} (boundary of {kk}): |x_K - x_sigma| = {g!r} != d_K = {dd!r}")
              for j, kk, g, dd in _rows(off & (l < 0), e, k, gap, d)]
    # one edge per pair of cells: the Jacobian holds one coupling per edge
    # side (scheme.jacobian), so a second edge's coupling would be lost
    inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    pairs = np.sort(mesh.edge_cells[inner], axis=1)
    _, first, which = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    prior = inner[first[which.ravel()]]  # the first edge joining the same pair
    found += [(j, f"edge {j} repeats cell pair {kk}|{ll} of edge {i}")
              for j, i, kk, ll in _rows(prior != inner, inner, prior, *mesh.edge_cells[prior].T)]
    found.sort(key=lambda t: t[0])  # stable: per edge, in check order
    out += [msg for _, msg in found]

    # per-cell closed-surface identity (implies div-nulle for constant g)
    cell, edge, sign = mesh.incidence()
    w = mesh.edge_measure[edge]
    acc = np.zeros((mesh.n_cells, mesh.dim))
    np.add.at(acc, cell, (w * sign)[:, None] * mesh.edge_normal[edge])
    closure = np.linalg.norm(acc, axis=1)
    scale = np.bincount(cell, weights=w, minlength=mesh.n_cells)
    out += [f"cell {i}: surface closure violated, |sum m_sigma n| = {c!r}"
            for i, c in _rows(~(closure <= TILE_TOL * scale), cells, closure)]
    return ValidationReport(out)


# -- text format -------------------------------------------------------------


def _convert(table, rows, cols, errors, bound=None):
    """A table of tokens (an object array) as floats, or as ids below bound[j] in column j.

    Row r of table is record rows[r] and column j its token cols[j].  A token
    that does not parse, or an id out of range, goes to errors as (record,
    token, message) and reads as 0.
    """
    kind = float if bound is None else int
    try:
        values = table.astype(kind)
    except (ValueError, OverflowError):
        values = np.zeros(table.shape, dtype=kind)
        for (r, j), token in np.ndenumerate(table):
            try:
                values[r, j] = kind(token)
            except (ValueError, OverflowError) as exc:
                errors.append((rows[r], cols[j], str(exc)))
    if bound is not None:
        errors += [(rows[r], cols[j], f"id {values[r, j]} outside [0, {bound[j]})")
                   for r, j in np.argwhere((values < 0) | (values >= bound)).tolist()]
    return values


def load_mesh(path) -> Mesh:
    """Load and validate a mesh from the ASCII text format.

    Header ``mesh d=<1|2> ncells=<n> nedges=<m>``, then one line per cell
    ``cell <id> <volume> <center...>`` and one line per edge, either
    ``edge <id> <measure> interior <K> <L> <dK> <dL>`` or
    ``edge <id> <measure> boundary <K> <dK> <xsigma...> <dirichlet|noflux>``.
    Cell ids lie in [0, ncells) and edge ids in [0, nedges), each id has
    exactly one record, and each record exactly the tokens shown.  The file
    holds the primary geometry only (see :class:`Mesh`); all admissibility
    invariants are validated on load.  The text is tokenized once; the ids
    and the floats of each record kind are converted as one table each.  Of
    the malformed or repeated records, the first in the file is reported as
    ``path:line``.
    """
    with open(path) as f:
        lines = f.read().splitlines()
    tokens = list(map(str.split, lines))
    n_tok = np.fromiter(map(len, tokens), dtype=int, count=len(tokens))
    flat = np.array(list(chain.from_iterable(tokens)), dtype=object)  # in file order
    first = np.cumsum(n_tok) - n_tok  # each line's first token
    used = np.flatnonzero(n_tok)
    if not used.size or flat[0] != "mesh" or n_tok[used[0]] < 2:
        raise MeshError(f"{path}: missing 'mesh' header line")
    try:
        header = dict(tok.split("=") for tok in tokens[used[0]][1:])
        dim, ncells, nedges = int(header["d"]), int(header["ncells"]), int(header["nedges"])
    except (KeyError, ValueError) as exc:
        raise MeshError(f"{path}: malformed header {lines[used[0]].strip()!r}") from exc
    if dim not in (1, 2):
        raise MeshError(f"{path}: unsupported dimension {dim}")
    if ncells < 1:
        raise MeshError(f"{path}: mesh has no cells")
    if nedges < 0:
        raise MeshError(f"{path}: negative edge count {nedges}")

    line = used[1:]  # one record per line
    n, first = n_tok[line], first[line]
    head = flat[first].astype(str)
    edge = (head == "edge") & (n > 3)
    kind = head.astype(object)
    kind[edge] = "edge " + flat[first[edge] + 3]
    # per record kind: its token count, its id tokens with their bounds and
    # its float tokens; the other tokens are keywords and the tag
    records = {
        "cell": (3 + dim, {1: ncells}, [2, *range(3, 3 + dim)]),
        "edge interior": (8, {1: nedges, 4: ncells, 5: ncells}, [2, 6, 7]),
        "edge boundary": (7 + dim, {1: nedges, 4: ncells}, [2, 5, *range(6, 6 + dim)]),
    }
    errors = [(i, -1, f"unknown record kind {kind[i]!r}")
              for i in np.flatnonzero(~np.isin(kind, list(records))).tolist()]
    rows, ids, floats = {}, {}, {}
    for name, (count, bounds, cols) in records.items():
        errors += [(i, -1, f"expected {count} tokens, got {n[i]}")
                   for i in np.flatnonzero((kind == name) & (n != count)).tolist()]
        rows[name] = r = np.flatnonzero((kind == name) & (n == count))
        at = first[r][:, None]
        ids[name] = _convert(flat[at + list(bounds)], r, list(bounds), errors,
                             np.array(list(bounds.values())))
        floats[name] = _convert(flat[at + cols], r, cols, errors)
    r, count = rows["edge boundary"], 7 + dim
    tag = flat[first[r] + count - 1]
    errors += [(r[j], count - 1, f"unknown tag {tag[j]!r}")
               for j in np.flatnonzero(~np.isin(tag, ["dirichlet", "noflux"])).tolist()]
    errors = [(i, col, f"malformed line {lines[line[i]].strip()!r} ({msg})")
              for i, col, msg in errors]

    # each cell and edge id once: a repeat is reported on its own line
    record = np.concatenate(list(rows.values()))
    key = np.concatenate([ids["cell"][:, 0], ncells + ids["edge interior"][:, 0],
                          ncells + ids["edge boundary"][:, 0]])
    order = np.argsort(record)
    record, key = record[order], key[order]
    _, once = np.unique(key, return_index=True)
    repeat = np.ones(key.size, dtype=bool)
    repeat[once] = False
    errors += [(i, np.inf, f"duplicate {head[i]} record {k - ncells if head[i] == 'edge' else k}")
               for i, k in zip(record[repeat].tolist(), key[repeat].tolist())]
    if errors:
        i, _, message = min(errors)
        raise MeshError(f"{path}:{line[i] + 1}: {message}")
    if once.size != ncells + nedges:
        raise MeshError(f"{path}: missing cell or edge records")

    volumes = np.full(ncells, np.nan)
    centers = np.full((ncells, dim), np.nan)
    c, v = ids["cell"][:, 0], floats["cell"]
    volumes[c], centers[c] = v[:, 0], v[:, 1:]
    measure = np.full(nedges, np.nan)
    cells = np.full((nedges, 2), -1, dtype=int)
    dists = np.full((nedges, 2), np.nan)
    xs = np.full((nedges, dim), np.nan)
    tags = np.full(nedges, -1, dtype=int)
    e, v = ids["edge interior"], floats["edge interior"]
    measure[e[:, 0]], cells[e[:, 0]], dists[e[:, 0]] = v[:, 0], e[:, 1:], v[:, 1:]
    tags[e[:, 0]] = INTERIOR
    e, v = ids["edge boundary"], floats["edge boundary"]
    measure[e[:, 0]], cells[e[:, 0], 0], dists[e[:, 0], 0] = v[:, 0], e[:, 1], v[:, 1]
    xs[e[:, 0]] = v[:, 2:]
    tags[e[:, 0]] = np.where(tag == "dirichlet", DIRICHLET, NOFLUX)
    mesh = Mesh(
        cell_volumes=volumes,
        cell_centers=centers,
        edge_measure=measure,
        edge_cells=cells,
        edge_d=dists,
        edge_x=xs,
        edge_tag=tags,
    )
    report = validate_admissibility(mesh)
    if not report.ok:
        raise MeshError(f"{path}: mesh is not admissible:\n{report}")
    return mesh
