"""Command-line entry points.

Subcommands: ``run`` (single case), ``sweep`` (beta/eps/formulation cross
product), ``validate-mesh``, and ``oracle-kirchhoff`` (quadrature vs
closed-form table).  Config files are ``key = value`` text keyed by the
RunConfig field names, and each ``run`` flag sets the field of its name, so
flags override file values.  Exit codes: 0 success, 2 configuration error,
3 Newton failure in reproduction mode, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import (
    EPS_REF_TEST1,
    EPS_REF_TEST2,
    ConfigError,
    RunConfig,
    parse_config_file,
    resolve_config,
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


def cmd_run(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items()
                  if k in RunConfig.__dataclass_fields__ and v is not None)
    cfg = resolve_config(values)
    result = run(cfg)
    write_outputs(result, cfg, cfg.out_dir or ".")
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
    values = parse_config_file(args.config)
    case = values.setdefault("case", "test1")
    betas = values.pop("betas", [1.0, 4.0, 16.0])
    epss = values.pop("epss", [1e-2, 1e-4, 1e-6])
    formulations = values.pop("formulations", ["tau", "u"])
    eps_ref = values.pop("eps_ref", EPS_REF_TEST1 if case == "test1" else EPS_REF_TEST2)
    base = resolve_config({"beta": betas[0], "eps": epss[0], **values})
    results = sweep(base, betas, epss, formulations, eps_ref=eps_ref)
    grid = {"betas": betas, "epss": epss, "formulations": formulations, "eps_ref": eps_ref}
    write_outputs(results, base, base.out_dir or ".", grid)
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
    p_run.add_argument("--pb", type=float, dest="p_b")
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--mesh")
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--tend", type=float, dest="t_end")
    p_run.add_argument("--out", dest="out_dir")
    p_run.add_argument("--adaptive-dt", action="store_const", const=True, dest="adaptive_dt")
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
