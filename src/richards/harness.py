"""Experiment configuration, presets, time marching, sweeps, and file output.

The two presets reproduce the benchmark set-ups at desk scale:

* test1 — injection through part of the top boundary of the unit square
  under gravity (Dirichlet p_D = 1 on {x1 in (0, 0.3), x2 = 1}, no-flux
  elsewhere, s0 = 1e-6, T = 0.7, dt = 0.01);
* test2 — redistribution of a saturated quadrant with a fully no-flux
  boundary and no gravity (beta = 4, T = 1e5, dt = 1e3), used for the
  mass-conservation comparison.

Iteration-count comparisons against published figures are ordinal only:
the rectangular desk meshes replace the original Voronoi meshes.

A run's text form is keyed by the :class:`RunConfig` field names (all but
``s0_boxes``), and a sweep adds its grid keys.  Config files,
:func:`resolve_config` and the summary.csv echo follow it, so the echo
without its ``# `` prefixes reruns the run or the sweep.

A sweep's runs are independent, so :func:`sweep` makes them in up to two
forked worker processes (min(2, usable CPUs, runs); one worker means in
process, with no pool).  Its results keep the config order, each run's
``wall_ms`` is its time in its worker, and there is no setting for it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .diagnostics import Trajectory, linf_l1_error, mass_error
from .hydromodel import BrooksCoreyModel, Parametrization
from .mesh import DIRICHLET, Mesh, build_rect_mesh, load_mesh
from .newton import newton_solve
from .scheme import Assembly, InitialField, discretize_initial
from .vtkio import write_vtk

__all__ = [
    "RunConfig",
    "RunResult",
    "ConfigError",
    "EPS_REF_TEST1",
    "EPS_REF_TEST2",
    "SUMMARY_HEADER",
    "preset_test1",
    "preset_test2",
    "parse_config_file",
    "resolve_config",
    "build_mesh",
    "run",
    "sweep",
    "write_outputs",
    "fmt",
]

# Reference tolerances for in-process reference solutions.  The raw
# (unweighted) residual 1-norm on the 20x20 injection case has a
# double-precision floor near 1.3e-14, which eps = 1e-12 (tolerance
# eps*dt = 1e-14) sits below; 1e-10 is the tightest decade that
# converges at every step.
EPS_REF_TEST1 = 1e-10
EPS_REF_TEST2 = 1e-14

SUMMARY_HEADER = (
    "case,formulation,beta,p_b,eta_mode,eps,mesh,dt,steps,mean_newton_iters,"
    "total_newton_iters,err_s,err_u,mass_err,rejected_newton_iters,wall_ms"
)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    case: str  # "test1" | "test2" | "custom"
    formulation: str  # "tau" | "u"
    beta: float
    dt: float
    t_end: float
    eps: float
    p_b: float = -1e-2
    eta_mode: str = "derived"
    mesh: str = "20x20"  # "NXxNY" or "file:PATH"
    gravity: tuple = (0.0, 0.0)
    s0_default: float = 1e-6
    s0_boxes: list = field(default_factory=list)  # [(bounds (d,2), value)]
    dirichlet_box: list | None = None  # bounds (d,2) selecting boundary x_sigma
    p_dirichlet: float | None = None
    adaptive_dt: bool = False
    snapshot_times: list = field(default_factory=list)
    out_dir: str | None = None

    def __post_init__(self):
        if self.formulation not in ("tau", "u"):
            raise ConfigError(f"unknown formulation {self.formulation!r}")
        finite = ["dt", "t_end", "eps", "beta", "p_b", "s0_default"]
        if self.p_dirichlet is not None:
            finite.append("p_dirichlet")
        for name in finite:
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not np.isfinite(np.asarray(self.gravity, dtype=float)).all():
            raise ConfigError(f"gravity must be finite, got {' '.join(map(str, self.gravity))}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if not (self.dt > 0 and self.t_end >= 0):
            raise ConfigError(f"need dt > 0 and t_end >= 0, got {self.dt}, {self.t_end}")
        ratio = self.t_end / self.dt
        if not (np.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
            raise ConfigError(f"t_end/dt = {ratio!r} is not integral")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class RunResult:
    config: RunConfig
    trajectory: Trajectory
    iters_per_step: list
    converged: bool
    failed_step: int | None
    rejected_iters: int  # Newton iterations of the attempts adaptive_dt retried at dt/2
    wall_ms: float
    mass_err: float | None = None
    err_s: float | None = None
    err_u: float | None = None

    @property
    def total_iters(self) -> int:
        return int(sum(self.iters_per_step))

    @property
    def mean_iters(self) -> float:
        return self.total_iters / len(self.iters_per_step) if self.iters_per_step else 0.0


def preset_test1(beta: float, eps: float, formulation: str = "tau",
                 mesh_size: str = "20x20") -> RunConfig:
    """Gravity-driven injection into a dry unit square."""
    return RunConfig(
        case="test1",
        formulation=formulation,
        beta=beta,
        p_b=-1e-2,
        dt=0.01,
        t_end=0.7,
        eps=eps,
        mesh=mesh_size,
        gravity=(0.0, -1.0),
        s0_default=1e-6,
        dirichlet_box=[(0.0, 0.3), (1.0, 1.0)],
        p_dirichlet=1.0,
    )


def preset_test2(eps: float, formulation: str = "tau", mesh_size: str = "20x20") -> RunConfig:
    """Closed-box redistribution of a saturated quadrant, no gravity."""
    return RunConfig(
        case="test2",
        formulation=formulation,
        beta=4.0,
        p_b=-1e-2,
        dt=1e3,
        t_end=1e5,
        eps=eps,
        mesh=mesh_size,
        gravity=(0.0, 0.0),
        s0_default=1e-6,
        s0_boxes=[([(0.0, 0.5), (0.5, 1.0)], 0.5)],
    )


def _floats(text: str) -> list:
    return [float(t) for t in text.split()]


def _grid(text: str, kind=float) -> list:
    """A sweep grid list: one or more values."""
    if not text.split():
        raise ValueError("a sweep grid needs at least one value")
    return [kind(t) for t in text.split()]


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

# config key -> parser: the RunConfig fields but s0_boxes, and the sweep grid keys
_PARSERS = {
    "case": str, "formulation": str, "beta": float, "dt": float, "t_end": float,
    "eps": float, "p_b": float, "eta_mode": str, "mesh": str,
    "gravity": lambda text: tuple(_floats(text)), "s0_default": float,
    "dirichlet_box": lambda text: np.reshape(_floats(text), (-1, 2)).tolist(),
    "p_dirichlet": float, "adaptive_dt": lambda text: _BOOLEANS[text.lower()],
    "snapshot_times": _floats, "out_dir": str,
    "betas": _grid, "epss": _grid, "formulations": lambda text: _grid(text, str),
    "eps_ref": float,
}
_ALIASES = {"pb": "p_b", "tend": "t_end", "out": "out_dir"}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines ('#' comments); errors name ``path:line``."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = _ALIASES.get(key.strip(), key.strip())
            if key not in _PARSERS:
                why = "has no text form; set it from Python" if key == "s0_boxes" else "is unknown"
                raise ConfigError(f"{path}:{lineno}: config key {key!r} {why}")
            try:
                values[key] = _PARSERS[key](val.strip())
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def resolve_config(values: dict) -> RunConfig:
    """The preset of ``case`` (test1, test2), or for custom (the default) the
    config of its required values, with every other value applied on top."""
    unknown = [k for k in values if k not in RunConfig.__dataclass_fields__]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    case = values.get("case", "custom")
    if case == "custom":
        missing = [k for k in ("beta", "dt", "t_end", "eps") if k not in values]
        if missing:
            raise ConfigError(f"custom run missing keys: {', '.join(missing)}")
        return RunConfig(**{"case": case, "formulation": "tau", **values})
    if case == "test1":
        return replace(preset_test1(beta=4.0, eps=1e-6), **values)
    if case == "test2":
        return replace(preset_test2(eps=1e-6), **values)
    raise ConfigError(f"no preset for case {case!r}; presets are test1 and test2")


def build_mesh(config: RunConfig) -> Mesh:
    """Build or load the mesh and apply the Dirichlet boundary tagging."""
    spec = config.mesh
    if spec.startswith("file:"):
        mesh = load_mesh(spec[len("file:"):])
    else:
        try:
            nx, ny = (int(t) for t in spec.lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"bad mesh spec {spec!r}") from exc
        mesh = build_rect_mesh(nx, ny)
    if config.dirichlet_box is not None:
        box = np.asarray(config.dirichlet_box, dtype=float)
        if box.shape != (mesh.dim, 2):
            raise ConfigError(f"dirichlet_box shape {box.shape} does not match dim {mesh.dim}")
        tol = 1e-12

        def inside(x):
            return np.all((x >= box[:, 0] - tol) & (x <= box[:, 1] + tol), axis=1)

        if mesh.retag_boundary(inside, DIRICHLET) == 0:
            raise ConfigError("dirichlet_box selects no boundary edges")
    return mesh


def run(config: RunConfig, mesh: Mesh | None = None, callback=None) -> RunResult:
    """March the implicit scheme over [0, t_end].

    In reproduction mode a non-converged Newton step (a singular Jacobian
    included) aborts with the partial trajectory; with adaptive_dt the
    step is retried at dt/2 (the time step doubles back after 5
    consecutive converged steps, never above the configured dt), and the
    Newton iterations of the rejected attempt count in rejected_iters.  The
    trajectory keeps the water volume of every accepted level, summed from
    the s that newton_solve returned.  Each step after the first, a retry
    at dt/2 included, starts from the evaluation that the last accepted
    step returned, so tau_init is not evaluated again.  The optional
    callback is forwarded to every Newton solve.
    """
    t0 = time.perf_counter()
    if mesh is None:
        mesh = build_mesh(config)
    gravity = np.asarray(config.gravity, dtype=float)
    if gravity.size < mesh.dim or np.any(gravity[mesh.dim:] != 0.0):
        raise ConfigError(f"gravity {' '.join(f'{g:g}' for g in gravity)} does not fit the "
                          f"{mesh.dim}-D mesh: it needs {mesh.dim} components, and any "
                          "beyond them must be 0")
    if config.snapshot_times and mesh.cell_boxes is None:
        raise ConfigError("snapshot_times: VTK export requires a structured mesh with cell boxes")
    for bounds, _ in config.s0_boxes:
        if np.shape(bounds) != (mesh.dim, 2):
            raise ConfigError(f"s0_boxes: a box of shape {np.shape(bounds)} does not fit the "
                              f"{mesh.dim}-D mesh: it needs shape ({mesh.dim}, 2)")
    outside = [t for t in config.snapshot_times if not 0.0 <= t <= config.t_end]
    if outside:
        raise ConfigError(f"snapshot_times {' '.join(f'{t:g}' for t in outside)} lie "
                          f"outside [0, t_end = {config.t_end:g}]")
    model = BrooksCoreyModel(beta=config.beta, p_b=config.p_b, eta_mode=config.eta_mode)
    param = Parametrization(kind=config.formulation, model=model)
    s0 = InitialField(default=config.s0_default, boxes=list(config.s0_boxes))
    tau = discretize_initial(s0, mesh, param)
    p_D = config.p_dirichlet
    tau_D = None if p_D is None else float(param.tau_of_pressure(p_D))
    system = Assembly(mesh, param, gravity[: mesh.dim], tau_D)

    times = [0.0]
    taus = [tau.copy()]
    reports = []
    iters = []
    rejected = 0
    converged, failed_step = True, None

    t = 0.0
    dt = config.dt
    easy_streak = 0
    step = 0
    s_prev = np.asarray(param.eval(tau)[0], dtype=float)
    start = None  # the evaluation at tau, carried from the last accepted step
    water = [float(np.sum(mesh.cell_volumes * s_prev))]
    while t < config.t_end - 1e-9 * config.dt:
        dt = min(dt, config.t_end - t)
        tau_new, last, report = newton_solve(system, dt, s_prev, tau, config.eps,
                                             callback=callback, start=start)
        if not report.converged:
            if config.adaptive_dt and dt > 1e-12 * config.dt:
                rejected += report.iterations
                dt *= 0.5
                easy_streak = 0
                continue
            reports.append(report)
            iters.append(report.iterations)
            converged, failed_step = False, step + 1
            break
        tau, s_prev, start = tau_new, last.s, last
        t += dt
        step += 1
        times.append(t)
        taus.append(tau.copy())
        water.append(float(np.sum(mesh.cell_volumes * s_prev)))
        reports.append(report)
        iters.append(report.iterations)
        if config.adaptive_dt:
            easy_streak += 1
            if easy_streak >= 5 and dt < config.dt:
                dt = min(2.0 * dt, config.dt)
                easy_streak = 0

    # on failure the last report belongs to the aborted step and is not part
    # of the (shorter) trajectory
    traj = Trajectory(
        mesh=mesh, param=param,
        times=np.asarray(times), taus=taus, water_volumes=water,
        newton_reports=reports[: len(taus) - 1],
        tau_D=tau_D,
    )
    m_err = None
    if converged and not mesh.dirichlet_edges.size:
        m_err = mass_error(traj)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return RunResult(
        config=config, trajectory=traj, iters_per_step=iters,
        converged=converged, failed_step=failed_step, rejected_iters=rejected,
        wall_ms=wall_ms, mass_err=m_err,
    )


def _run_config(config: RunConfig) -> RunResult:
    """One run of a sweep on a mesh of its own (module level, so a worker
    process can be sent it by name)."""
    return run(config, mesh=build_mesh(config))


def sweep(base_config: RunConfig, betas, epss, formulations,
          eps_ref: float = EPS_REF_TEST1) -> list:
    """Reference run per beta (tau formulation at eps_ref), then the cross
    product over (beta, eps, formulation); failures are recorded rows, not
    exceptions.  Returns RunResults in deterministic order, references first.

    The runs are independent, so they go to min(2, usable CPUs, runs)
    worker processes, the CPUs counted by ``os.sched_getaffinity`` (or
    ``os.cpu_count`` where it is absent); there is no setting for it.  With
    one worker the runs are made in this process and no pool starts.  The
    workers are forked, not spawned: a spawned worker would import numpy and
    scipy again, about 0.5 s, near the time of a whole 20x20 sweep.  The pool
    forks its workers before it starts its own thread, and OpenBLAS stops
    its threads around a fork.  Results keep the config order, each
    ``wall_ms`` is the run's time in its worker, and the errors against the
    references are computed here once every run is back.  A run that raises
    (a ``ConfigError`` included) raises the same exception here, and no
    worker outlives the call.
    """
    configs = [replace(base_config, beta=beta, eps=eps_ref, formulation="tau")
               for beta in betas]
    configs += [replace(base_config, beta=beta, eps=eps, formulation=formulation)
                for beta in betas for formulation in formulations for eps in epss]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(2, cpus, len(configs))
    if workers == 1:
        results = [_run_config(cfg) for cfg in configs]
    else:
        # imported here, so that a process that makes no pool does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_run_config, configs))
    references = dict(zip(betas, results))
    for res in results[len(betas):]:
        ref = references[res.config.beta]
        if res.converged and ref.converged:
            res.err_s = linf_l1_error(res.trajectory, ref.trajectory, "saturation")
            res.err_u = linf_l1_error(res.trajectory, ref.trajectory, "kirchhoff")
    return results


def fmt(x) -> str:
    """17-significant-digit float formatting used in all CSV output."""
    if x is None:
        return ""
    return f"{x:.17g}"


def _text(value) -> str:
    """A config value in the text form: str as is, bool as true/false, and a
    number or sequence as its items (numbers by fmt) joined by spaces."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    return " ".join(v if isinstance(v, str) else fmt(v) for v in np.ravel(value))


def _config_echo(config: RunConfig, grid: dict) -> list:
    """Every field with a text form and a value, in field order, then the
    grid keys, as '# ' lines."""
    items = [(f.name, getattr(config, f.name)) for f in fields(RunConfig)
             if f.name in _PARSERS and getattr(config, f.name) is not None]
    return [f"# {k} = {_text(v)}".rstrip() for k, v in items + list(grid.items())]


def summary_row(result: RunResult) -> str:
    # the first eight columns of SUMMARY_HEADER are RunConfig fields
    return ",".join([
        *(_text(getattr(result.config, k)) for k in SUMMARY_HEADER.split(",")[:8]),
        str(len(result.iters_per_step)), fmt(result.mean_iters), str(result.total_iters),
        fmt(result.err_s), fmt(result.err_u), fmt(result.mass_err),
        str(result.rejected_iters), fmt(result.wall_ms),
    ])


def write_outputs(results, config: RunConfig, out_dir, grid: dict | None = None) -> list:
    """Write summary.csv, residuals.csv, and optional VTK snapshots.

    results may be a single RunResult or a list (sweep); residuals and
    snapshots are written for the first result only in the sweep case.
    grid holds a sweep's grid keys (betas, epss, formulations, eps_ref),
    which the summary.csv echo lists after the base config.  Returns the
    list of created paths.
    """
    if isinstance(results, RunResult):
        results = [results]
    os.makedirs(out_dir, exist_ok=True)
    created = []

    path = os.path.join(out_dir, "summary.csv")
    with open(path, "w") as f:
        for ln in _config_echo(config, grid or {}):
            f.write(ln + "\n")
        f.write(SUMMARY_HEADER + "\n")
        for res in results:
            f.write(summary_row(res) + "\n")
    created.append(path)

    path = os.path.join(out_dir, "residuals.csv")
    with open(path, "w") as f:
        f.write("step,iter,residual\n")
        if results:
            for n, rep in enumerate(results[0].trajectory.newton_reports, start=1):
                for k, r in enumerate(rep.residual_history):
                    f.write(f"{n},{k},{fmt(r)}\n")
    created.append(path)

    if results and config.snapshot_times:
        traj = results[0].trajectory
        for t_snap in config.snapshot_times:
            idx = int(np.argmin(np.abs(traj.times - t_snap)))
            s, u, _, _ = traj.param.eval(traj.taus[idx])
            name = f"snapshot_t{t_snap:g}.vtk"
            vtk_path = os.path.join(out_dir, name)
            write_vtk(
                traj.mesh,
                {"saturation": np.asarray(s, dtype=float),
                 "kirchhoff_u": np.asarray(u, dtype=float)},
                vtk_path,
            )
            created.append(vtk_path)
    return created
