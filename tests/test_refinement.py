"""The infiltration test under mesh refinement: first-order convergence of
tau towards a fine reference, the tau-vs-u Newton comparison on every mesh,
and the growth of plain Newton's first step with the number of cells the
front must cross."""

from dataclasses import replace

import numpy as np
import pytest

from richards.harness import preset_test1, run

REFERENCE = 80
MESHES = (10, 20, 40)


def block_mean(values, fine: int, coarse: int) -> np.ndarray:
    """Means of per-cell values (cells along axis 0, any trailing axes) of a
    fine x fine box over the blocks of its cells that make up each cell of a
    coarse x coarse box, in the coarse box's numbering (axis 0 fastest)."""
    r = fine // coarse
    v = np.asarray(values).reshape(coarse, r, coarse, r, -1)  # [j, ., i, ., rest]
    return v.mean(axis=(1, 3)).reshape(coarse * coarse, *np.shape(values)[1:])


@pytest.mark.parametrize("beta", [1.0, 4.0, 16.0])
def test_error_falls_at_first_order_and_u_needs_more_iterations(beta):
    # test1 tau at eps = 1e-6 to t = 0.1 (10 steps) on 10x10, 20x20 and 40x40,
    # against an 80x80 run whose saturation is averaged onto each coarse cell
    # (the blocks nest exactly).  The error is max over the time levels of the
    # L1 norm.  The scheme is first order in h (Eymard, Gallouet & Herbin,
    # Finite Volume Methods, 2000), so the error against the exact solution
    # halves with h, and against a reference of step h_ref it goes like
    # h - h_ref: each halving divides it by (h - h_ref) / (h/2 - h_ref) >= 2
    # (7/3 and 3 here; measured 2.30 and 2.85 at beta = 4).
    base = replace(preset_test1(beta=beta, eps=1e-6), t_end=0.1)
    ref = run(replace(base, mesh=f"{REFERENCE}x{REFERENCE}"))
    assert ref.converged
    s_ref, _ = ref.trajectory.fields()
    errors = []
    for n in MESHES:
        tau = run(replace(base, mesh=f"{n}x{n}"))
        assert tau.converged and len(tau.iters_per_step) == 10
        mesh = tau.trajectory.mesh
        np.testing.assert_allclose(
            block_mean(ref.trajectory.mesh.cell_centers, REFERENCE, n), mesh.cell_centers,
            rtol=0.0, atol=1e-15)
        s, _ = tau.trajectory.fields()
        averaged = block_mean(s_ref.T, REFERENCE, n).T
        errors.append(float(np.max(np.abs(s - averaged) @ mesh.cell_volumes)))
        # u needs more Newton iterations than tau; at beta = 1 it does not
        # converge at all, and its failed first step alone takes more
        u = run(replace(base, mesh=f"{n}x{n}", formulation="u"))
        assert u.converged == (beta > 1.0)
        assert u.total_iters > tau.total_iters
    assert all(coarse >= 2.0 * fine for coarse, fine in zip(errors, errors[1:])), errors


def test_first_step_iterations_grow_with_the_cells_the_front_crosses():
    # a 1 x N column of test1 (tau, beta = 4, eps = 1e-6) with a Dirichlet top:
    # a dry column's couplings are about 1e-16 of its diagonal, so a Newton
    # correction reaches about one cell past the wet zone, and the front moves
    # about one cell per iterate.  The first step's iterations so grow like N
    # (about N / 6 here), not like log N
    base = replace(preset_test1(beta=4.0, eps=1e-6), t_end=0.01,
                   dirichlet_box=[(0.0, 1.0), (1.0, 1.0)])
    iters = [run(replace(base, mesh=f"1x{n}")).iters_per_step for n in (100, 200, 400)]
    assert iters == [[20], [35], [67]]
