"""Admissible finite-volume meshes with two-point transmissibilities.

A mesh is admissible when the segment joining neighboring cell centers is
orthogonal to their shared edge, so that the two-point flux approximation
is consistent.  Transmissibilities are A_sigma = m_sigma / d_sigma for
interior edges and m_sigma / d_{K,sigma} for boundary edges.

Uniform box meshes (rectangles in 2D, intervals in 1D) come from one
tensor-product builder; general orthogonal meshes (e.g. Voronoi) are loaded
from a line-oriented text format, see :func:`load_mesh`.  Meshes are
immutable after construction apart from boundary retagging, which must
happen before any assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "ValidationReport",
    "MeshError",
    "INTERIOR",
    "DIRICHLET",
    "NOFLUX",
    "build_rect_mesh",
    "build_interval_mesh",
    "load_mesh",
    "save_mesh",
    "validate_admissibility",
    "discrete_h1_inner",
]

INTERIOR, DIRICHLET, NOFLUX = 0, 1, 2
_TAG_NAMES = {INTERIOR: "interior", DIRICHLET: "dirichlet", NOFLUX: "noflux"}

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
    structured meshes (None for loaded meshes).
    """

    dim: int
    cell_volumes: np.ndarray  # (n,)
    cell_centers: np.ndarray  # (n, d)
    edge_measure: np.ndarray  # (m,)
    edge_cells: np.ndarray  # (m, 2) int
    edge_d: np.ndarray  # (m, 2); d_L is nan on boundary edges
    edge_A: np.ndarray  # (m,)
    edge_normal: np.ndarray  # (m, d), outward w.r.t. edge_cells[:, 0]
    edge_x: np.ndarray  # (m, d); nan on interior edges
    edge_tag: np.ndarray  # (m,) int
    bbox: np.ndarray  # (d, 2)
    cell_boxes: np.ndarray | None = None  # (n, d, 2) for structured meshes
    cell_edge_ids: list = field(default_factory=list)

    def __post_init__(self):
        if not self.cell_edge_ids:
            n = len(self.cell_volumes)
            adj = [[] for _ in range(n)]
            for e in range(len(self.edge_measure)):
                adj[self.edge_cells[e, 0]].append(e)
                if self.edge_cells[e, 1] >= 0:
                    adj[self.edge_cells[e, 1]].append(e)
            self.cell_edge_ids = adj

    # -- basic queries -------------------------------------------------------

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

    def normal_wrt(self, e: int, k: int) -> np.ndarray:
        """Unit normal of edge e outward w.r.t. cell k."""
        if self.edge_cells[e, 0] == k:
            return self.edge_normal[e]
        if self.edge_cells[e, 1] == k:
            return -self.edge_normal[e]
        raise ValueError(f"edge {e} is not incident to cell {k}")

    def retag_boundary(self, predicate, tag: int) -> int:
        """Tag boundary edges whose x_sigma satisfies predicate.

        Must be called before any assembly; returns the number of retagged
        edges.
        """
        count = 0
        for e in self.boundary_edges:
            if predicate(self.edge_x[e]):
                self.edge_tag[e] = tag
                count += 1
        return count


# -- constructors ------------------------------------------------------------


def build_rect_mesh(nx: int, ny: int, domain=((0.0, 1.0), (0.0, 1.0))) -> Mesh:
    """Uniform rectangular mesh of an axis-aligned box; boundary tagged NoFlux."""
    return _build_box_mesh((nx, ny), domain)


def build_interval_mesh(nx: int, domain=(0.0, 1.0)) -> Mesh:
    """Uniform 1D mesh; edges are points with measure 1."""
    return _build_box_mesh((nx,), (domain,))


def _transmissibility(measure, dists) -> np.ndarray:
    """A_sigma = m_sigma / (d_K + d_L), or m_sigma / d_K where d_L is nan."""
    return measure / np.where(np.isnan(dists[:, 1]), dists[:, 0], dists.sum(axis=1))


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
    bbox = np.asarray(domain, dtype=float)  # (d, 2)
    lo, hi = bbox[:, 0], bbox[:, 1]
    if not np.all(hi > lo):
        raise MeshError(f"degenerate domain {domain}")
    dim = len(shape)
    h = (hi - lo) / shape
    idx = np.indices(shape[::-1]).reshape(dim, -1)[::-1].T  # (n, d), axis 0 fastest
    cell = np.arange(len(idx))
    stride = np.cumprod((1,) + shape[:-1])

    # per edge: cell K, cell L (-1 on the boundary), normal axis, normal sign
    ks, ls, axes, signs = [], [], [], []
    for a in range(dim):
        k = cell[idx[:, a] < shape[a] - 1]
        ks.append(k)
        ls.append(k + stride[a])
        axes.append(np.full(len(k), a))
        signs.append(np.ones(len(k)))
    for a in range(dim):
        k = np.stack([cell[idx[:, a] == 0], cell[idx[:, a] == shape[a] - 1]], axis=-1).ravel()
        ks.append(k)
        ls.append(np.full(len(k), -1))
        axes.append(np.full(len(k), a))
        signs.append(np.tile([-1.0, 1.0], len(k) // 2))
    k, l, axis, sign = (np.concatenate(v) for v in (ks, ls, axes, signs))

    edge = np.arange(len(k))
    bnd = l < 0
    face = np.array([np.prod(np.delete(h, a)) for a in range(dim)])
    measure = face[axis]
    half = h[axis] / 2
    dists = np.stack([half, np.where(bnd, np.nan, half)], axis=-1)
    normals = np.zeros((len(k), dim))
    normals[edge, axis] = sign
    centers = lo + (idx + 0.5) * h
    xs = np.full((len(k), dim), np.nan)
    xs[bnd] = centers[k[bnd]]
    xs[edge[bnd], axis[bnd]] = np.where(sign > 0, hi[axis], lo[axis])[bnd]
    return Mesh(
        dim=dim,
        cell_volumes=np.full(len(idx), np.prod(h)),
        cell_centers=centers,
        edge_measure=measure,
        edge_cells=np.stack([k, l], axis=-1),
        edge_d=dists,
        edge_A=_transmissibility(measure, dists),
        edge_normal=normals,
        edge_x=xs,
        edge_tag=np.where(bnd, NOFLUX, INTERIOR),
        bbox=bbox,
        cell_boxes=np.stack([lo + idx * h, lo + (idx + 1) * h], axis=-1),
    )


# -- validation --------------------------------------------------------------


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str):
        self.violations.append(msg)

    def __str__(self):
        return "admissible" if self.ok else "\n".join(self.violations)


def validate_admissibility(mesh: Mesh) -> ValidationReport:
    """Check every admissibility invariant, reporting offending entities.

    Orthogonality is verified through the distance identities
    |x_K - x_L| = d_K + d_L and |x_K - x_sigma| = d_K (which fail when the
    center segment is not orthogonal to the edge) together with the
    per-cell closed-surface identity sum_sigma m_sigma n_{K,sigma} = 0.
    """
    rep = ValidationReport()
    for i, v in enumerate(mesh.cell_volumes):
        if not v > 0:
            rep.add(f"cell {i}: non-positive volume {v}")
    total = float(mesh.cell_volumes.sum())
    dom = mesh.domain_measure
    if abs(total - dom) > TILE_TOL * max(dom, 1.0):
        rep.add(f"cells do not tile the domain: sum m_K = {total!r}, box measure = {dom!r}")

    for e in range(mesh.n_edges):
        m = mesh.edge_measure[e]
        if not m > 0:
            rep.add(f"edge {e}: non-positive measure {m}")
            continue
        k, l = mesh.edge_cells[e]
        dk = mesh.edge_d[e, 0]
        if not dk > 0:
            rep.add(f"edge {e}: non-positive distance d_K = {dk}")
            continue
        if l >= 0:
            dl = mesh.edge_d[e, 1]
            if not dl > 0:
                rep.add(f"edge {e}: non-positive distance d_L = {dl}")
                continue
            gap = np.linalg.norm(mesh.cell_centers[k] - mesh.cell_centers[l])
            if abs(gap - (dk + dl)) > ORTHO_TOL * max(gap, 1.0):
                rep.add(
                    f"edge {e} = {k}|{l}: center distance {gap!r} != d_K + d_L = "
                    f"{dk + dl!r} (non-orthogonal center pair)"
                )
            a_ref = m / (dk + dl)
        else:
            gap = np.linalg.norm(mesh.cell_centers[k] - mesh.edge_x[e])
            if abs(gap - dk) > ORTHO_TOL * max(gap, 1.0):
                rep.add(
                    f"edge {e} (boundary of {k}): |x_K - x_sigma| = {gap!r} != d_K = {dk!r}"
                )
            a_ref = m / dk
        if abs(mesh.edge_A[e] - a_ref) > 1e-12 * a_ref:
            rep.add(
                f"edge {e}: transmissibility {mesh.edge_A[e]!r} != m_sigma/d = {a_ref!r}"
            )
        nrm = np.linalg.norm(mesh.edge_normal[e])
        if abs(nrm - 1.0) > 1e-12:
            rep.add(f"edge {e}: normal not unit (|n| = {nrm!r})")
        if l >= 0:
            direction = mesh.cell_centers[l] - mesh.cell_centers[k]
        else:
            direction = mesh.edge_x[e] - mesh.cell_centers[k]
        dn = np.linalg.norm(direction)
        if dn > 0:
            cross = np.linalg.norm(
                direction / dn - mesh.edge_normal[e] / max(nrm, 1e-300)
            )
            if cross > ORTHO_TOL:
                rep.add(f"edge {e}: normal not aligned with the center segment")

    # per-cell closed-surface identity (implies div-nulle for constant g)
    for kk in range(mesh.n_cells):
        acc = np.zeros(mesh.dim)
        scale = 0.0
        for e in mesh.cell_edge_ids[kk]:
            acc += mesh.edge_measure[e] * mesh.normal_wrt(e, kk)
            scale += mesh.edge_measure[e]
        if np.linalg.norm(acc) > TILE_TOL * scale:
            rep.add(
                f"cell {kk}: surface closure violated, |sum m_sigma n| = "
                f"{np.linalg.norm(acc)!r}"
            )
    return rep


# -- discrete H1 inner product ----------------------------------------------


def discrete_h1_inner(mesh: Mesh, v, w, v_bnd=None, w_bnd=None) -> float:
    """Edge-sum bilinear form of the discrete gradient reconstruction.

    sum over interior sigma=K|L of A_sigma (v_K - v_L)(w_K - w_L), plus
    A_sigma (v_K - v_sigma)(w_K - w_sigma) over boundary edges that carry a
    boundary value.  v_bnd/w_bnd map edge id -> value; edges absent from
    both contribute nothing (no-flux edges).
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (mesh.n_cells,) or w.shape != (mesh.n_cells,):
        raise ValueError(
            f"expected cell vectors of length {mesh.n_cells}, got {v.shape} and {w.shape}"
        )
    v_bnd = v_bnd or {}
    w_bnd = w_bnd or {}
    if set(v_bnd) != set(w_bnd):
        raise ValueError("v and w must carry boundary values on the same edges")
    ie = mesh.interior_edges
    kk, ll = mesh.edge_cells[ie, 0], mesh.edge_cells[ie, 1]
    total = float(np.sum(mesh.edge_A[ie] * (v[kk] - v[ll]) * (w[kk] - w[ll])))
    for e, vb in v_bnd.items():
        k = mesh.edge_cells[e, 0]
        total += mesh.edge_A[e] * (v[k] - vb) * (w[k] - w_bnd[e])
    return total


# -- text format -------------------------------------------------------------


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


def load_mesh(path) -> Mesh:
    """Load and validate a mesh from the ASCII text format.

    Header ``mesh d=<1|2> ncells=<n> nedges=<m>``, then one line per cell
    ``cell <id> <volume> <center...>`` and one line per edge, either
    ``edge <id> <measure> interior <K> <L> <dK> <dL>`` or
    ``edge <id> <measure> boundary <K> <dK> <xsigma...> <dirichlet|noflux>``.

    Normals are reconstructed from the center geometry (the orthogonality
    condition makes them collinear with the center segments).  The domain
    bounding box is inferred from centers and boundary points; all
    admissibility invariants are validated on load.
    """
    with open(path) as f:
        raw = [ln.strip() for ln in f if ln.strip()]
    if not raw or not raw[0].startswith("mesh "):
        raise MeshError(f"{path}: missing 'mesh' header line")
    try:
        header = dict(tok.split("=") for tok in raw[0].split()[1:])
        dim, ncells, nedges = int(header["d"]), int(header["ncells"]), int(header["nedges"])
    except (KeyError, ValueError) as exc:
        raise MeshError(f"{path}: malformed header {raw[0]!r}") from exc
    if dim not in (1, 2):
        raise MeshError(f"{path}: unsupported dimension {dim}")

    centers = np.full((ncells, dim), np.nan)
    volumes = np.full(ncells, np.nan)
    measure = np.full(nedges, np.nan)
    cells = np.full((nedges, 2), -1, dtype=int)
    dists = np.full((nedges, 2), np.nan)
    xs = np.full((nedges, dim), np.nan)
    tags = np.full(nedges, -1, dtype=int)

    for ln in raw[1:]:
        tok = ln.split()
        try:
            if tok[0] == "cell":
                i = int(tok[1])
                volumes[i] = float(tok[2])
                centers[i] = [float(t) for t in tok[3 : 3 + dim]]
            elif tok[0] == "edge":
                e = int(tok[1])
                measure[e] = float(tok[2])
                if tok[3] == "interior":
                    cells[e] = (int(tok[4]), int(tok[5]))
                    dists[e] = (float(tok[6]), float(tok[7]))
                    tags[e] = INTERIOR
                elif tok[3] == "boundary":
                    cells[e] = (int(tok[4]), -1)
                    dists[e, 0] = float(tok[5])
                    xs[e] = [float(t) for t in tok[6 : 6 + dim]]
                    kind = tok[6 + dim]
                    tags[e] = {"dirichlet": DIRICHLET, "noflux": NOFLUX}[kind]
                else:
                    raise MeshError(f"{path}: unknown edge kind {tok[3]!r} in {ln!r}")
            else:
                raise MeshError(f"{path}: unknown record {tok[0]!r}")
        except MeshError:
            raise
        except (IndexError, ValueError, KeyError) as exc:
            raise MeshError(f"{path}: malformed line {ln!r}") from exc

    if np.any(np.isnan(volumes)) or np.any(tags < 0):
        raise MeshError(f"{path}: missing cell or edge records")

    normals = np.zeros((nedges, dim))
    for e in range(nedges):
        k, l = cells[e]
        vec = (centers[l] if l >= 0 else xs[e]) - centers[k]
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            raise MeshError(f"{path}: edge {e} has coincident center geometry")
        normals[e] = vec / nrm

    pts = np.vstack([centers, xs[tags != INTERIOR]])
    bbox = np.stack([np.nanmin(pts, axis=0), np.nanmax(pts, axis=0)], axis=-1)
    mesh = Mesh(
        dim=dim,
        cell_volumes=volumes,
        cell_centers=centers,
        edge_measure=measure,
        edge_cells=cells,
        edge_d=dists,
        edge_A=_transmissibility(measure, dists),
        edge_normal=normals,
        edge_x=xs,
        edge_tag=tags,
        bbox=bbox,
    )
    report = validate_admissibility(mesh)
    if not report.ok:
        raise MeshError(f"{path}: mesh is not admissible:\n{report}")
    return mesh
