"""Admissible meshes: construction, validation, norms, and the text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richards.mesh import (
    DIRICHLET,
    INTERIOR,
    NOFLUX,
    MeshError,
    build_interval_mesh,
    build_rect_mesh,
    discrete_h1_inner,
    load_mesh,
    save_mesh,
    validate_admissibility,
)


def test_single_cell_geometry():
    mesh = build_rect_mesh(1, 1)
    assert mesh.n_cells == 1
    assert mesh.cell_volumes[0] == 1.0
    assert mesh.interior_edges.size == 0
    assert mesh.boundary_edges.size == 4
    for e in mesh.boundary_edges:
        assert mesh.edge_measure[e] == 1.0
        assert mesh.edge_d[e, 0] == 0.5
        assert mesh.edge_A[e] == 2.0
        assert mesh.edge_tag[e] == NOFLUX


def test_two_cell_interior_edge():
    mesh = build_rect_mesh(2, 1)
    ie = mesh.interior_edges
    assert ie.size == 1
    e = int(ie[0])
    assert mesh.edge_measure[e] == 1.0
    assert mesh.edge_d[e, 0] == 0.25  # half of the 0.5-wide cell
    assert mesh.edge_d[e, 1] == 0.25
    assert mesh.edge_A[e] == 2.0


def test_20x20_counts():
    mesh = build_rect_mesh(20, 20)
    assert mesh.n_cells == 400
    assert mesh.interior_edges.size == 760  # 2*nx*ny - nx - ny
    assert mesh.boundary_edges.size == 80


@given(st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=20, deadline=None)
def test_rect_mesh_admissible(nx, ny):
    report = validate_admissibility(build_rect_mesh(nx, ny))
    assert report.ok, str(report)


def test_interval_mesh():
    mesh = build_interval_mesh(4)
    assert mesh.dim == 1
    assert mesh.n_cells == 4
    assert np.all(mesh.edge_measure == 1.0)
    assert validate_admissibility(mesh).ok
    # point edges: A = 1/d
    assert mesh.edge_A[0] == pytest.approx(1.0 / 0.25)


def _assert_layout(mesh, cells, normals, xs):
    assert mesh.edge_cells.tolist() == cells
    # bytes, so that a -0.0 in a normal counts as a difference
    assert mesh.edge_normal.tobytes() == np.array(normals).tobytes()
    np.testing.assert_array_equal(mesh.edge_x, np.array(xs))


def test_rect_mesh_edge_layout():
    """Cells axis 0 fastest; interior edges axis by axis in cell order; then a
    (low, high) boundary pair per cell row, axis by axis.  The assembly sums in
    this order, so it fixes the results' last bits."""
    nan, x1, x3 = np.nan, 0.16666666666666666, 0.8333333333333333
    _assert_layout(
        build_rect_mesh(3, 2),
        [[0, 1], [1, 2], [3, 4], [4, 5], [0, 3], [1, 4], [2, 5],
         [0, -1], [2, -1], [3, -1], [5, -1], [0, -1], [3, -1], [1, -1], [4, -1], [2, -1], [5, -1]],
        [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0],
         [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 0.0],
         [0.0, -1.0], [0.0, 1.0], [0.0, -1.0], [0.0, 1.0], [0.0, -1.0], [0.0, 1.0]],
        [[nan, nan]] * 7
        + [[0.0, 0.25], [1.0, 0.25], [0.0, 0.75], [1.0, 0.75],
           [x1, 0.0], [x1, 1.0], [0.5, 0.0], [0.5, 1.0], [x3, 0.0], [x3, 1.0]],
    )


def test_interval_mesh_edge_layout():
    _assert_layout(
        build_interval_mesh(3),
        [[0, 1], [1, 2], [0, -1], [2, -1]],
        [[1.0], [1.0], [-1.0], [1.0]],
        [[np.nan], [np.nan], [0.0], [1.0]],
    )


def _axis_normals(shape):
    """Signed axis unit vectors in the edge order of test_rect_mesh_edge_layout."""
    n, eye = int(np.prod(shape)), np.eye(len(shape))
    rows = [np.tile(eye[a], (n // s * (s - 1), 1)) for a, s in enumerate(shape)]
    # 0.0 - e rather than -e, so that the off-axis zeros stay +0.0
    rows += [np.tile([0.0 - eye[a], eye[a]], (n // s, 1)) for a, s in enumerate(shape)]
    return np.concatenate(rows)


_SPANS = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(lambda t: (t[0], t[0] + t[1]))


@given(st.one_of(st.tuples(st.integers(1, 9), st.integers(1, 9)), st.tuples(st.integers(1, 50))),
       st.data())
@settings(max_examples=40, deadline=None)
def test_derived_geometry(tmp_path_factory, shape, data):
    """Normals, transmissibilities and bounding box derived from the primary
    geometry are exact on boxes, and a save/load round trip keeps their bytes."""
    domain = tuple(data.draw(_SPANS) for _ in shape)
    if len(shape) == 2:
        mesh = build_rect_mesh(*shape, domain=domain)
    else:
        mesh = build_interval_mesh(shape[0], domain=domain[0])
    assert mesh.dim == len(shape)
    assert mesh.edge_normal.tobytes() == _axis_normals(shape).tobytes()
    bnd = mesh.edge_cells[:, 1] < 0
    d = np.where(bnd, mesh.edge_d[:, 0], mesh.edge_d[:, 0] + mesh.edge_d[:, 1])
    assert mesh.edge_A.tobytes() == (mesh.edge_measure / d).tobytes()
    assert mesh.bbox.tobytes() == np.array(domain, dtype=float).tobytes()

    path = tmp_path_factory.mktemp("derived") / "m.mesh"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    for name in ("edge_normal", "edge_A", "bbox"):
        assert getattr(loaded, name).tobytes() == getattr(mesh, name).tobytes(), name


def test_incidence_layout():
    """One entry per side of each edge of build_rect_mesh(3, 2) (see
    test_rect_mesh_edge_layout), in edge order: K with sign +1, then L with
    sign -1; boundary edges have only K."""
    cell, edge, sign = build_rect_mesh(3, 2).incidence()
    assert cell.tolist() == [0, 1, 1, 2, 3, 4, 4, 5, 0, 3, 1, 4, 2, 5,
                             0, 2, 3, 5, 0, 3, 1, 4, 2, 5]
    assert edge.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, *range(7, 17)]
    assert sign.tolist() == [1.0, -1.0] * 7 + [1.0] * 10


def test_invalid_dimensions_rejected():
    with pytest.raises(MeshError):
        build_rect_mesh(0, 3)
    with pytest.raises(MeshError):
        build_rect_mesh(2, 2, domain=((0, 0), (0, 1)))
    with pytest.raises(MeshError):
        build_interval_mesh(0)
    with pytest.raises(MeshError):
        build_interval_mesh(3, domain=(1.0, 0.0))


def _corrupt(field, index, op):
    def apply(mesh):
        arr = getattr(mesh, field)
        arr[index] = op(arr[index])
    return apply


# one invariant broken at a time on a 3x3 mesh: (corruption, message prefix,
# message kind).  Edge 1 is 1|2, edge 2 is 3|4, edge 12 is the left boundary
# edge of cell 0.
VIOLATIONS = {
    "volume": (_corrupt("cell_volumes", 4, lambda v: -v), "cell 4:", "non-positive volume"),
    "tiling": (_corrupt("cell_volumes", 4, lambda v: 1.5 * v), "cells do not tile", "sum m_K"),
    "measure": (_corrupt("edge_measure", 1, lambda m: 0.0), "edge 1:", "non-positive measure"),
    "d_K": (_corrupt("edge_d", (1, 0), lambda d: -d), "edge 1:", "non-positive distance d_K"),
    "d_L": (_corrupt("edge_d", (1, 1), lambda d: 0.0), "edge 1:", "non-positive distance d_L"),
    "center gap": (_corrupt("cell_centers", (4, 0), lambda x: x + 0.05),
                   "edge 2 = 3|4:", "non-orthogonal center pair"),
    "boundary gap": (_corrupt("edge_x", (12, 0), lambda x: x - 0.05),
                     "edge 12 (boundary of 0):", "|x_K - x_sigma|"),
    # the distances still hold: only the closure breaks
    "closure": (_corrupt("edge_measure", 1, lambda m: 1.5 * m), "cell 1:",
                "surface closure violated"),
}


@pytest.mark.parametrize("source", ["built", "loaded"])
@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_validation_reports_each_violation(name, source, tmp_path):
    mesh = build_rect_mesh(3, 3)
    if source == "loaded":
        save_mesh(mesh, tmp_path / "m.mesh")
        mesh = load_mesh(tmp_path / "m.mesh")
    assert validate_admissibility(mesh).ok
    corrupt, prefix, kind = VIOLATIONS[name]
    corrupt(mesh)
    report = validate_admissibility(mesh)
    assert any(v.startswith(prefix) and kind in v for v in report.violations), str(report)
    if "non-positive" in kind and prefix.startswith("edge"):
        # the edge's first failure is its only report
        assert sum(v.startswith(prefix) for v in report.violations) == 1, str(report)


def test_closed_surface_identity_constant_gravity():
    mesh = build_rect_mesh(20, 20)
    g = np.array([0.0, -1.0])
    total = np.zeros(mesh.n_cells)  # sum_sigma m_sigma g . n_{K,sigma} per cell
    for e, (k, l) in enumerate(mesh.edge_cells):
        flux = mesh.edge_measure[e] * float(mesh.edge_normal[e] @ g)
        total[k] += flux
        if l >= 0:
            total[l] -= flux
    assert np.all(np.abs(total) <= 1e-12)


# -- discrete H1 bilinear form -------------------------------------------------


def test_h1_constant_field_vanishes():
    mesh = build_rect_mesh(4, 4)
    mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
    v = np.full(mesh.n_cells, 3.7)
    assert discrete_h1_inner(mesh, v, v, 3.7, 3.7) == 0.0


def test_h1_two_cell_single_edge():
    mesh = build_rect_mesh(2, 1)
    assert discrete_h1_inner(mesh, [0.0, 1.0], [0.0, 1.0]) == pytest.approx(2.0)


def test_h1_affine_field_exact():
    # for v = x2 the two-point difference quotient reconstructs the exact
    # unit gradient, so the seminorm equals the domain measure
    mesh = build_rect_mesh(20, 20)
    mesh.retag_boundary(lambda x: np.ones(len(x), dtype=bool), DIRICHLET)
    v = mesh.cell_centers[:, 1]
    v_D = mesh.edge_x[mesh.dirichlet_edges, 1]
    assert discrete_h1_inner(mesh, v, v, v_D, v_D) == pytest.approx(1.0, abs=1e-10)


def test_h1_size_and_key_mismatch():
    mesh = build_rect_mesh(2, 2)
    with pytest.raises(ValueError):
        discrete_h1_inner(mesh, [0.0, 1.0], [0.0, 1.0, 2.0, 3.0])
    mesh.retag_boundary(lambda x: x[:, 0] <= 1e-12, DIRICHLET)
    with pytest.raises(ValueError):
        discrete_h1_inner(mesh, np.zeros(4), np.zeros(4), 1.0, None)
    with pytest.raises(ValueError):  # two Dirichlet edges, three values
        discrete_h1_inner(mesh, np.zeros(4), np.zeros(4), np.ones(3), np.ones(3))


@given(st.integers(2, 6), st.integers(1, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_h1_positive_semidefinite(nx, ny, data):
    mesh = build_rect_mesh(nx, ny)
    v = np.array(
        data.draw(
            st.lists(
                st.floats(-10, 10), min_size=mesh.n_cells, max_size=mesh.n_cells
            )
        )
    )
    assert discrete_h1_inner(mesh, v, v) >= -1e-12


# -- text format ---------------------------------------------------------------


def test_roundtrip_single_cell(tmp_path):
    mesh = build_rect_mesh(1, 1)
    path = tmp_path / "one.mesh"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert loaded.n_cells == 1
    np.testing.assert_allclose(loaded.cell_volumes, mesh.cell_volumes)
    np.testing.assert_allclose(loaded.cell_centers, mesh.cell_centers)
    np.testing.assert_allclose(loaded.edge_A, mesh.edge_A)
    np.testing.assert_array_equal(loaded.edge_tag, mesh.edge_tag)


def test_roundtrip_preserves_dirichlet_tags(tmp_path):
    mesh = build_rect_mesh(3, 3)
    mesh.retag_boundary(lambda x: x[:, 1] >= 1.0 - 1e-12, DIRICHLET)
    path = tmp_path / "tagged.mesh"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    np.testing.assert_array_equal(loaded.edge_tag, mesh.edge_tag)


def test_two_cell_voronoi_pair(tmp_path):
    path = tmp_path / "pair.mesh"
    path.write_text(
        "mesh d=2 ncells=2 nedges=7\n"
        "cell 0 0.5 0.25 0.5\n"
        "cell 1 0.5 0.75 0.5\n"
        "edge 0 1 interior 0 1 0.25 0.25\n"
        "edge 1 1 boundary 0 0.25 0 0.5 noflux\n"
        "edge 2 1 boundary 1 0.25 1 0.5 noflux\n"
        "edge 3 0.5 boundary 0 0.5 0.25 0 noflux\n"
        "edge 4 0.5 boundary 0 0.5 0.25 1 noflux\n"
        "edge 5 0.5 boundary 1 0.5 0.75 0 noflux\n"
        "edge 6 0.5 boundary 1 0.5 0.75 1 noflux\n"
    )
    mesh = load_mesh(path)
    assert mesh.edge_A[0] == pytest.approx(1.0 / 0.5)


def split_edge_mesh(path, pair="0 1"):
    """The 2x1 box mesh with its interior edge 0 = 0|1 split into two
    half-edges, edge 0 and edge 7, the second listing its cells as pair."""
    save_mesh(build_rect_mesh(2, 1), path)
    text = path.read_text().replace("nedges=7", "nedges=8")
    text = text.replace("edge 0 1 interior 0 1 0.25 0.25\n", "edge 0 0.5 interior 0 1 0.25 0.25\n")
    path.write_text(text + f"edge 7 0.5 interior {pair} 0.25 0.25\n")


@pytest.mark.parametrize("pair", ["0 1", "1 0"])
def test_two_edges_joining_one_pair_rejected(tmp_path, pair):
    # each half-edge is admissible on its own and the cell surfaces close,
    # but the Jacobian holds one coupling per edge side: a second edge
    # between the same cells is refused
    path = tmp_path / "split.mesh"
    split_edge_mesh(path, pair)
    with pytest.raises(MeshError) as exc:
        load_mesh(path)
    assert str(exc.value).splitlines() == [f"{path}: mesh is not admissible:",
                                           "edge 7 repeats cell pair 0|1 of edge 0"]


def test_non_orthogonal_pair_rejected(tmp_path):
    # center distance 0.5 but declared d_K + d_L = 0.6: the orthogonal
    # projection property cannot hold
    path = tmp_path / "skew.mesh"
    path.write_text(
        "mesh d=2 ncells=2 nedges=7\n"
        "cell 0 0.5 0.25 0.5\n"
        "cell 1 0.5 0.75 0.5\n"
        "edge 0 1 interior 0 1 0.3 0.3\n"
        "edge 1 1 boundary 0 0.25 0 0.5 noflux\n"
        "edge 2 1 boundary 1 0.25 1 0.5 noflux\n"
        "edge 3 0.5 boundary 0 0.5 0.25 0 noflux\n"
        "edge 4 0.5 boundary 0 0.5 0.25 1 noflux\n"
        "edge 5 0.5 boundary 1 0.5 0.75 0 noflux\n"
        "edge 6 0.5 boundary 1 0.5 0.75 1 noflux\n"
    )
    with pytest.raises(MeshError, match="edge 0"):
        load_mesh(path)


def test_coincident_centers_rejected(tmp_path):
    # the normal of edge 0 = 0|1 is undefined; the distance identity refuses it
    path = tmp_path / "m.mesh"
    save_mesh(build_rect_mesh(2, 1), path)
    text = path.read_text()
    assert "cell 1 0.5 0.75 0.5\n" in text
    path.write_text(text.replace("cell 1 0.5 0.75 0.5\n", "cell 1 0.5 0.25 0.5\n"))
    with pytest.raises(MeshError, match=r"edge 0 = 0\|1: center distance 0\.0 "):
        load_mesh(path)


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("not a mesh\n")
    with pytest.raises(MeshError):
        load_mesh(path)
    path.write_text("mesh d=2 ncells=1 nedges=1\ncell 0 1.0 0.5\n")
    with pytest.raises(MeshError):
        load_mesh(path)


@pytest.mark.parametrize("line,replacement", [
    ("edge 0 0.5 interior 0 1 ", "edge 0 0.5 interior 0 9 "),
    ("edge 0 0.5 interior 0 1 ", "edge 0 0.5 interior -3 1 "),
    ("edge 0 0.5 interior 0 1 ", "edge 0 0.5 interior 0 -1 "),
    ("edge 4 0.5 boundary 0 ", "edge 4 0.5 boundary 4 "),
    ("edge 4 0.5 boundary 0 ", "edge -8 0.5 boundary 0 "),
    ("cell 3 ", "cell -1 "),
])
def test_out_of_range_ids_rejected(tmp_path, line, replacement):
    path = tmp_path / "m.mesh"
    save_mesh(build_rect_mesh(2, 2), path)
    text = path.read_text()
    assert line in text
    path.write_text(text.replace(line, replacement))
    with pytest.raises(MeshError, match="outside"):
        load_mesh(path)


@pytest.mark.parametrize("kind,record", [
    ("edge", "edge 5 0.5 boundary 1 0.25 1 0.25 dirichlet"),  # first given as noflux
    ("cell", "cell 2 0.25 0.25 0.75"),
])
def test_duplicate_records_rejected(tmp_path, kind, record):
    path = tmp_path / "m.mesh"
    save_mesh(build_rect_mesh(2, 2), path)
    text = path.read_text()
    assert record.replace("dirichlet", "noflux") in text
    path.write_text(text + record + "\n")
    with pytest.raises(MeshError, match=f"duplicate {kind} record {record.split()[1]}$"):
        load_mesh(path)


# edits of the saved 2x2 mesh (header on line 1, cells on lines 2-5,
# interior edges on 6-9, boundary edges on 10-17) and the message of the
# first faulty record in the file
MALFORMED = [
    ({"cell 2 0.25 0.25 0.75": "cel 2 0.25 0.25 0.75"}, 4,
     "malformed line 'cel 2 0.25 0.25 0.75' (unknown record kind 'cel')"),
    ({"edge 1 0.5 interior": "edge 1 0.5 inner"}, 7,
     "malformed line 'edge 1 0.5 inner 2 3 0.25 0.25' (unknown record kind 'edge inner')"),
    ({"edge 3 0.5 interior 1 3 0.25 0.25": "edge 3 0.5 interior 1 3 0.25 x"}, 9,
     "malformed line 'edge 3 0.5 interior 1 3 0.25 x' (could not convert string to float: 'x')"),
    ({"edge 3 0.5 interior 1 3": "edge 3 0.5 interior one 3"}, 9,
     "malformed line 'edge 3 0.5 interior one 3 0.25 0.25' "
     "(invalid literal for int() with base 10: 'one')"),
    ({"edge 10 0.5 boundary 1 0.25 0.75 0 noflux": "edge 10 0.5 boundary 1 0.25 0.75 0 wet"}, 16,
     "malformed line 'edge 10 0.5 boundary 1 0.25 0.75 0 wet' (unknown tag 'wet')"),
    # two faults: the earlier line is reported, whatever its kind of fault
    ({"cell 1 0.25 0.75 0.25": "cell 1 0.25 0.75", "edge 0 0.5 interior 0 1": "edge 0 0.5 interior 0 7"},
     3, "malformed line 'cell 1 0.25 0.75' (expected 5 tokens, got 4)"),
    ({"edge 2 0.5 interior 0 2 0.25 0.25": "edge 1 0.5 interior 0 2 0.25 0.25",
      "edge 9 0.5 boundary 2 0.25 0.25 1 noflux": "edge 9 0.5 boundary 2 0.25 0.25 1"}, 8,
     "duplicate edge record 1"),
    # an id that does not parse reads as no id, so it repeats none
    ({"cell 2 0.25 0.25 0.75": "cell two 0.25 0.25 0.75"}, 4,
     "malformed line 'cell two 0.25 0.25 0.75' (invalid literal for int() with base 10: 'two')"),
]


@pytest.mark.parametrize("blank", [0, 2])
@pytest.mark.parametrize("edits,line,message", MALFORMED)
def test_first_faulty_record_named_by_path_and_line(tmp_path, edits, line, message, blank):
    path = tmp_path / "m.mesh"
    save_mesh(build_rect_mesh(2, 2), path)
    text = path.read_text()
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    path.write_text("\n" * blank + text)
    with pytest.raises(MeshError) as exc:
        load_mesh(path)
    assert str(exc.value) == f"{path}:{line + blank}: {message}"


def test_retag_boundary_counts():
    mesh = build_rect_mesh(20, 20)
    n = mesh.retag_boundary(
        lambda x: (x[:, 1] >= 1.0 - 1e-12) & (x[:, 0] <= 0.3 + 1e-12), DIRICHLET
    )
    assert n == 6  # cells with center x1 < 0.3 on the top row
    assert mesh.dirichlet_edges.size == 6


@pytest.mark.parametrize("header, message", [
    ("mesh d=2 ncells=0 nedges=0", "mesh has no cells"),
    ("mesh d=1 ncells=-1 nedges=0", "mesh has no cells"),
    ("mesh d=1 ncells=1 nedges=-2", "negative edge count -2"),
])
def test_empty_mesh_file_rejected(tmp_path, header, message):
    path = tmp_path / "empty.mesh"
    path.write_text(header + "\n")
    with pytest.raises(MeshError, match=f"^{path}: {message}$"):
        load_mesh(path)
