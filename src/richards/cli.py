"""Command-line entry points.

Subcommands: ``run`` (single case), ``sweep`` (beta/eps/formulation cross
product), ``validate-mesh``, and ``oracle-kirchhoff`` (quadrature vs
closed-form table).  Config files are plain ``key = value`` text; command
line flags override file values.  Exit codes: 0 success, 2 configuration
error, 3 Newton failure in reproduction mode, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .harness import (
    EPS_REF_TEST1,
    EPS_REF_TEST2,
    ConfigError,
    RunConfig,
    preset_test1,
    preset_test2,
    run,
    sweep,
    write_outputs,
)
from .hydromodel import (
    BrooksCoreyModel,
    kirchhoff_closed_form,
    kirchhoff_quadrature_oracle,
)
from .mesh import MeshError, load_mesh

EXIT_OK, EXIT_CONFIG, EXIT_NEWTON, EXIT_IO = 0, 2, 3, 4


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    values = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


_SCALARS = {"beta", "p_b", "eps", "dt", "t_end", "s0_default", "p_dirichlet", "eps_ref"}
_ALIASES = {"pb": "p_b", "tend": "t_end", "out": "out_dir"}


def _coerce(key: str, val: str):
    key = _ALIASES.get(key, key)
    if key in ("adaptive_dt",):
        return key, val.lower() in ("1", "true", "yes", "on")
    if key in _SCALARS:
        return key, float(val)
    if key in ("betas", "epss", "snapshot_times"):
        return key, [float(t) for t in val.split()]
    if key == "formulations":
        return key, val.split()
    if key == "gravity":
        return key, tuple(float(t) for t in val.split())
    if key == "dirichlet_box":
        nums = [float(t) for t in val.split()]
        return key, [tuple(nums[i : i + 2]) for i in range(0, len(nums), 2)]
    return key, val


def _preset(case, beta: float, eps: float) -> RunConfig:
    """The built-in configuration of case test1 or test2."""
    if case == "test1":
        return preset_test1(beta=beta, eps=eps)
    if case == "test2":
        return preset_test2(eps=eps)
    raise ConfigError(f"no preset for case {case!r}; presets are test1 and test2")


def _override(cfg: RunConfig, values: dict) -> RunConfig:
    unknown = [k for k in values if k not in RunConfig.__dataclass_fields__]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return replace(cfg, **values)


def _resolve_run_config(args) -> RunConfig:
    file_vals: dict = {}
    if args.config:
        for k, v in parse_config_file(args.config).items():
            k, v = _coerce(k, v)
            file_vals[k] = v
    case = args.case or file_vals.get("case")
    if case in (None, "custom"):
        required = ("beta", "dt", "t_end", "eps")
        missing = [k for k in required if k not in file_vals]
        if missing:
            raise ConfigError(f"custom run missing keys: {', '.join(missing)}")
        cfg = RunConfig(
            case="custom", formulation=file_vals.get("formulation", "tau"),
            beta=file_vals["beta"], dt=file_vals["dt"],
            t_end=file_vals["t_end"], eps=file_vals["eps"],
        )
    else:
        cfg = _preset(case, file_vals.get("beta", 4.0), file_vals.get("eps", 1e-6))

    overrides = dict(file_vals)
    overrides.pop("case", None)
    for flag in ("formulation", "beta", "eps", "mesh", "dt", "eta_mode", "out"):
        v = getattr(args, flag, None)
        if v is not None:
            overrides[_ALIASES.get(flag, flag)] = v
    if args.pb is not None:
        overrides["p_b"] = args.pb
    if args.tend is not None:
        overrides["t_end"] = args.tend
    if args.adaptive_dt:
        overrides["adaptive_dt"] = True
    return _override(cfg, overrides)


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    result = run(cfg)
    out_dir = cfg.out_dir or "."
    write_outputs(result, cfg, out_dir)
    print(
        f"{cfg.case} {cfg.formulation} beta={cfg.beta:g} eps={cfg.eps:g}: "
        f"{len(result.iters_per_step)} steps, "
        f"mean {result.mean_iters:.2f} Newton iters/step"
    )
    if not result.converged:
        print(f"Newton failed to converge at step {result.failed_step}", file=sys.stderr)
        return EXIT_NEWTON
    return EXIT_OK


def cmd_sweep(args) -> int:
    vals = {k: v for k, v in (_coerce(*kv) for kv in parse_config_file(args.config).items())}
    case = vals.pop("case", "test1")
    betas = vals.pop("betas", [1.0, 4.0, 16.0])
    epss = vals.pop("epss", [1e-2, 1e-4, 1e-6])
    formulations = vals.pop("formulations", ["tau", "u"])
    eps_ref = vals.pop("eps_ref", EPS_REF_TEST1 if case == "test1" else EPS_REF_TEST2)
    out_dir = vals.pop("out_dir", ".")
    base = _override(_preset(case, betas[0], epss[0]), vals)
    results = sweep(base, betas, epss, formulations, eps_ref=eps_ref)
    write_outputs(results, base, out_dir)
    failures = sum(not r.converged for r in results)
    print(f"sweep complete: {len(results)} runs, {failures} Newton failures")
    return EXIT_OK


def cmd_validate_mesh(args) -> int:
    mesh = load_mesh(args.path)  # validates; MeshError (exit 2) on a violation
    print(f"{args.path}: {mesh.n_cells} cells, {mesh.n_edges} edges: admissible")
    return EXIT_OK


def cmd_oracle_kirchhoff(args) -> int:
    for mode in ("derived", "legacy"):
        model = BrooksCoreyModel(beta=args.beta, p_b=args.pb, eta_mode=mode)
        ps = np.concatenate([
            -np.logspace(np.log10(max(-args.pb * 1e3, 1e-6)), -8, 8), [args.pb, 0.0, 1.0],
        ])
        print(f"eta_mode={mode}")
        print(f"{'p':>14} {'closed_form':>22} {'quadrature':>22} {'rel_err':>10}")
        for p in ps:
            cf = float(kirchhoff_closed_form(model, p))
            qd = kirchhoff_quadrature_oracle(model, float(p))
            rel = abs(cf - qd) / max(abs(qd), 1e-300)
            print(f"{p:>14.6g} {cf:>22.15g} {qd:>22.15g} {rel:>10.2e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="richards")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single case")
    p_run.add_argument("--config")
    p_run.add_argument("--case", choices=["test1", "test2", "custom"])
    p_run.add_argument("--formulation", choices=["tau", "u"])
    p_run.add_argument("--beta", type=float)
    p_run.add_argument("--pb", type=float)
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--mesh")
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--tend", type=float)
    p_run.add_argument("--out")
    p_run.add_argument("--adaptive-dt", action="store_true", dest="adaptive_dt")
    p_run.add_argument("--eta-mode", choices=["legacy", "derived"], dest="eta_mode")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a beta/eps/formulation cross product")
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate-mesh", help="validate a mesh file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate_mesh)

    p_orc = sub.add_parser("oracle-kirchhoff", help="quadrature vs closed-form table")
    p_orc.add_argument("--beta", type=float, required=True)
    p_orc.add_argument("--pb", type=float, required=True)
    p_orc.set_defaults(func=cmd_oracle_kirchhoff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
