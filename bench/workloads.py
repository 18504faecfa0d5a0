"""The benchmark's workloads: what each round solves and what it must satisfy.

A round is one complete pass over a workload's time-marching runs.  Each
workload turns into a list of operations (one harness call each, timed
together as the round) and a check that tests the round's results against
properties of the method.  The checks compute everything themselves from
the returned trajectories; none of them compares with a stored output.

Only the public harness API is used on the timed path: the presets, `run`,
`sweep` and `build_mesh` from `richards.harness`, plus `mmatrix_analyze`
and `jacobian_bounds` from `richards.newton`.  Names are looked up on the
modules at call time, so that the traced run sees the same calls.

Two scales exist: `full` is what the benchmark measures; `tiny` runs the
same code paths and checks on small meshes for the self-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from richards import harness, newton

EPSS = (1e-2, 1e-4, 1e-6)

# mesh size and horizon (t_end) per workload and scale
SIZES = {
    "infiltration-sweep": {"full": ("20x20", 0.2), "tiny": ("8x8", 0.2)},
    "infiltration-fine": {"full": ("80x80", 0.05), "tiny": ("16x16", 0.05)},
    "redistribution": {"full": ("40x40", 1e5), "tiny": ("8x8", 2e4)},
    "mmatrix-audit": {"full": ("20x20", 0.2), "tiny": ("8x8", 0.05)},
}


@dataclass
class Op:
    """One harness call of a round; `runs` is how many time-marching runs it makes."""

    label: str
    call: object  # () -> list of RunResult
    runs: int


class Workload:
    name = ""

    def __init__(self, scale: str):
        self.mesh_size, self.t_end = SIZES[self.name][scale]

    def first_config(self):
        """The config whose mesh the first solve needs (for the set-up probe)."""
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, results: dict) -> list:
        """Failures (strings) of one round; results maps op label -> RunResults."""
        raise NotImplementedError


def _run(cfg):
    return [harness.run(cfg, mesh=harness.build_mesh(cfg))]


def _saturations(res):
    traj = res.trajectory
    return [np.asarray(traj.param.eval(t)[0], dtype=float) for t in traj.taus]


def _complete(res, tag) -> list:
    n = res.config.n_steps
    if res.converged and len(res.iters_per_step) == n:
        return []
    return [f"{tag}: stopped at step {res.failed_step} of {n}"]


def _saturation_range(res, tag) -> list:
    sats = _saturations(res)
    lo = min(float(s.min()) for s in sats)
    hi = max(float(s.max()) for s in sats)
    return [] if 0.0 <= lo and hi <= 1.0 else [f"{tag}: saturation range [{lo!r}, {hi!r}]"]


def _infiltration_checks(res, tag) -> list:
    """A tau run of test1 completes, keeps s in [0, 1] and gains water every step."""
    fails = _complete(res, tag) + _saturation_range(res, tag)
    m = res.trajectory.mesh.cell_volumes
    vols = np.array([float(np.sum(m * s)) for s in _saturations(res)])
    if not np.all(np.diff(vols) > 0.0):
        fails.append(f"{tag}: water volume does not increase at every step")
    return fails


def _tag(res) -> str:
    c = res.config
    return f"{c.formulation} beta={c.beta:g} eps={c.eps:g}"


class InfiltrationSweep(Workload):
    """test1 tolerance sweep: tau at every beta, u at beta 4 and 16."""

    name = "infiltration-sweep"

    def _base(self):
        cfg = harness.preset_test1(beta=1.0, eps=EPSS[0], mesh_size=self.mesh_size)
        return replace(cfg, t_end=self.t_end)

    def first_config(self):
        return replace(self._base(), eps=harness.EPS_REF_TEST1)

    def ops(self):
        base = self._base()
        # u at beta = 1 diverges by design, so it has a sweep call of its own
        return [
            Op("beta1", lambda: harness.sweep(
                base, [1.0], EPSS, ["tau"], eps_ref=harness.EPS_REF_TEST1), 1 + 3),
            Op("beta4-16", lambda: harness.sweep(
                base, [4.0, 16.0], EPSS, ["tau", "u"], eps_ref=harness.EPS_REF_TEST1),
               2 + 2 * 2 * 3),
        ]

    def check(self, results):
        runs = results["beta1"] + results["beta4-16"]
        pick = {(r.config.formulation, r.config.beta, r.config.eps): r for r in runs}
        fails = []
        for r in runs:
            if r.config.formulation == "tau":
                fails += _infiltration_checks(r, _tag(r))
            else:
                fails += _complete(r, _tag(r)) + _saturation_range(r, _tag(r))
        if fails:
            return fails
        for beta in (1.0, 4.0, 16.0):
            errs = [pick["tau", beta, e].err_s for e in EPSS]
            if not errs[0] > errs[1] > errs[2]:
                fails.append(f"tau beta={beta:g}: err_s {errs} does not fall with eps")
            elif not 10.0 <= errs[1] / errs[2] <= 1000.0:
                fails.append(f"tau beta={beta:g}: err(1e-4)/err(1e-6) = "
                             f"{errs[1] / errs[2]:.3g} outside [10, 1000]")
        for beta in (4.0, 16.0):
            for e in EPSS:
                it_u, it_tau = pick["u", beta, e].total_iters, pick["tau", beta, e].total_iters
                if not it_u > it_tau:
                    fails.append(f"beta={beta:g} eps={e:g}: u needs {it_u} Newton "
                                 f"iterations, tau {it_tau}")
        return fails


class InfiltrationFine(Workload):
    """test1, tau, beta 4, eps 1e-6 on a fine mesh over a short horizon."""

    name = "infiltration-fine"

    def first_config(self):
        cfg = harness.preset_test1(beta=4.0, eps=1e-6, mesh_size=self.mesh_size)
        return replace(cfg, t_end=self.t_end)

    def ops(self):
        cfg = self.first_config()
        return [Op("tau", lambda: _run(cfg), 1)]

    def check(self, results):
        return _infiltration_checks(results["tau"][0], "tau")


class Redistribution(Workload):
    """test2 closed box: tau and u at three tolerances."""

    name = "redistribution"

    def _config(self, formulation, eps):
        cfg = harness.preset_test2(eps=eps, formulation=formulation, mesh_size=self.mesh_size)
        return replace(cfg, t_end=self.t_end)

    def first_config(self):
        return self._config("tau", EPSS[0])

    def ops(self):
        return [
            Op(f"{form} {eps:g}", lambda cfg=self._config(form, eps): _run(cfg), 1)
            for form in ("tau", "u") for eps in EPSS
        ]

    def check(self, results):
        runs = [r for rs in results.values() for r in rs]
        fails = []
        for r in runs:
            fails += _complete(r, _tag(r)) + _saturation_range(r, _tag(r))
        if fails:
            return fails
        for e in EPSS:
            m = results[f"tau {e:g}"][0].mass_err
            if not m <= 1e-10:
                fails.append(f"tau eps={e:g}: mass error {m!r} above 1e-10")
        tau_m = results[f"tau {EPSS[0]:g}"][0].mass_err
        u_m = results[f"u {EPSS[0]:g}"][0].mass_err
        if not u_m >= 1e6 * max(tau_m, np.finfo(float).eps):
            fails.append(f"eps={EPSS[0]:g}: u mass error {u_m!r} is not 1e6 times "
                         f"that of tau ({tau_m!r})")
        return fails


class MMatrixAudit(Workload):
    """test1 tau with every assembled Jacobian passed to the M-matrix analysis."""

    name = "mmatrix-audit"

    def __init__(self, scale):
        super().__init__(scale)
        self.audits = []

    def first_config(self):
        cfg = harness.preset_test1(beta=4.0, eps=1e-6, mesh_size=self.mesh_size)
        return replace(cfg, t_end=self.t_end)

    def ops(self):
        cfg = self.first_config()
        gravity = np.asarray(cfg.gravity, dtype=float)
        lam_prime_max = 3.0 + 2.0 / cfg.beta
        audits = self.audits

        def call():
            audits.clear()
            mesh = harness.build_mesh(cfg)

            def audit(k, tau, res, J):
                # the tau parametrization has alpha_low = alpha_high = 1
                delta, Delta = newton.jacobian_bounds(mesh, cfg.dt, 1.0, 1.0,
                                                      lam_prime_max, gravity)
                audits.append((J, newton.mmatrix_analyze(J, delta, Delta)))

            return [harness.run(cfg, mesh=mesh, callback=audit)]

        return [Op("tau", call, 1)]

    def check(self, results):
        res = results["tau"][0]
        fails = _infiltration_checks(res, "tau")
        if len(self.audits) != res.total_iters or not self.audits:
            fails.append(f"{len(self.audits)} Jacobians audited for "
                         f"{res.total_iters} Newton iterations")
        for n, (J, rep) in enumerate(self.audits):
            if not rep.is_column_wise:
                fails.append(f"Jacobian {n}: mmatrix_analyze refused it: {rep.violations[:1]}")
            fails += [f"Jacobian {n}: {f}" for f in sign_pattern_faults(J)]
        return fails


def sign_pattern_faults(J) -> list:
    """Positive diagonal, nonpositive off-diagonal, nonnegative column sums."""
    A = sp.coo_matrix(J)
    off = A.row != A.col
    fails = []
    if not np.all(sp.csr_matrix(J).diagonal() > 0.0):
        fails.append("nonpositive diagonal entry")
    if np.any(A.data[off] > 0.0):
        fails.append(f"positive off-diagonal entry {float(A.data[off].max())!r}")
    # the exact column sums are s'(tau_K) plus Dirichlet terms, all >= 0; the
    # computed ones carry rounding of the order of the column's largest entry
    colsum = np.asarray(A.sum(axis=0)).ravel()
    colmax = np.asarray(abs(A).max(axis=0).todense()).ravel()
    if np.any(colsum < -64 * np.finfo(float).eps * colmax):
        fails.append(f"negative column sum {float(colsum.min())!r}")
    return fails


WORKLOADS = {w.name: w for w in (InfiltrationSweep, InfiltrationFine, Redistribution, MMatrixAudit)}
