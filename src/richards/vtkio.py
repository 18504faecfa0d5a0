"""Minimal legacy-ASCII VTK writer for structured cell meshes.

Writes DATASET UNSTRUCTURED_GRID files with CELL_DATA scalars, one quad
(or line) cell per finite-volume cell.  Only meshes carrying axis-aligned
cell boxes (the built box meshes, in 1D or 2D) are supported; loaded
general meshes have no polygon data to export.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

__all__ = ["write_vtk"]

# dim -> (VTK cell type, corners as a low (0) / high (1) bound per axis)
_CELL_SHAPES = {1: (3, [(0,), (1,)]), 2: (9, [(0, 0), (1, 0), (1, 1), (0, 1)])}


def write_vtk(mesh: Mesh, cell_data: dict, path):
    """Write per-cell scalar fields; cell_data maps name -> (n_cells,) array."""
    if mesh.cell_boxes is None:
        raise ValueError("VTK export requires a structured mesh with cell boxes")
    vtk_type, corners = _CELL_SHAPES[mesh.dim]
    n, c = mesh.n_cells, len(corners)
    pts = np.zeros((n, c, 3))
    pts[:, :, : mesh.dim] = mesh.cell_boxes[:, np.arange(mesh.dim), np.array(corners)]
    lines = [
        "# vtk DataFile Version 3.0",
        "fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n * c} double",
        *(f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in pts.reshape(-1, 3)),
        f"CELLS {n} {(c + 1) * n}",
        *(" ".join(map(str, [c, *range(c * k, c * k + c)])) for k in range(n)),
        f"CELL_TYPES {n}",
        *[str(vtk_type)] * n,
        f"CELL_DATA {n}",
    ]
    for name, values in cell_data.items():
        v = np.asarray(values, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"field {name!r} has shape {v.shape}, expected ({n},)")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines += [f"{x:.17g}" for x in v]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
