"""Finite-volume Richards solver with a graph-parametrization Newton unknown."""

from .diagnostics import (
    Trajectory,
    contraction_check,
    energy_series,
    free_energy,
    linf_l1_error,
    mass_error,
    quadratic_tail,
    xi_seminorm,
)
from .harness import (
    RunConfig,
    RunResult,
    preset_test1,
    preset_test2,
    run,
    sweep,
    write_outputs,
)
from .hydromodel import (
    BrooksCoreyModel,
    Parametrization,
    derive_params,
    kirchhoff_closed_form,
    kirchhoff_quadrature_oracle,
)
from .mesh import (
    Mesh,
    build_interval_mesh,
    build_rect_mesh,
    discrete_h1_inner,
    load_mesh,
    save_mesh,
    validate_admissibility,
)
from .newton import (
    MMatrixReport,
    NewtonConfig,
    NewtonReport,
    inverse_norm_bound,
    jacobian_bounds,
    linear_solve,
    mmatrix_analyze,
    newton_solve,
)
from .scheme import (
    Assembly,
    InitialField,
    discretize_initial,
    evaluate,
)

__version__ = "0.1.0"
