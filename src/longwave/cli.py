"""Command line entry points.

    longwave simulate   --config cfg.json
    longwave simulate   --scenario step --epsilon 0.2 [--overtime] --out DIR
    longwave convergence --config cfg.json | --epsilon 0.1 [--levels 3] [--out DIR]
    longwave growth     --scenario step|sinusoid --epsilon 0.2 --out DIR

Exit codes: 0 success, 2 invalid input (any other package error), 3 numerical
instability, 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, LongwaveError, SolverError
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    convergence_study,
    run_growth,
    run_scenario,
    write_convergence_outputs,
    write_growth_outputs,
    write_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longwave",
        description="Cross-compare coupled and uncoupled long-wave models over uneven bottoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a comparison scenario and write CSV outputs")
    sim.add_argument("--config", help="JSON scenario configuration")
    sim.add_argument("--scenario", choices=[key[0] for key, record in SCENARIOS.items()
                                            if record.runner == "run_scenario"],
                     help="scenario name (alternative to --config)")
    sim.add_argument("--epsilon", type=float, help="long-wave parameter")
    sim.add_argument("--overtime", action="store_true",
                     help="extend the run to T = epsilon^(-3/2) (demonstration mode)")
    sim.add_argument("--out", help="output directory (overrides config.output_dir)")
    sim.set_defaults(run=_cmd_simulate)

    conv = sub.add_parser("convergence", help="observed-order study under dx = dt halvings")
    conv.add_argument("--config", help="JSON scenario configuration")
    conv.add_argument("--epsilon", type=float, help="long-wave parameter (default 0.1)")
    conv.add_argument("--levels", type=int, help="number of refinement levels (default 3)")
    conv.add_argument("--out", help="output directory for convergence.json")
    conv.set_defaults(run=_cmd_convergence)

    gro = sub.add_parser("growth", help="corrector-norm growth diagnostic")
    gro.add_argument("--scenario", choices=[key[1] for key, record in SCENARIOS.items()
                                            if record.runner == "run_growth"], required=True,
                     help="bottom family for the growth run")
    gro.add_argument("--epsilon", type=float, required=True)
    gro.add_argument("--out", required=True, help="output directory")
    gro.set_defaults(run=_cmd_growth)
    return parser


def _refuse_beside_config(args, *flags: str) -> None:
    """Exit 2 on any of ``flags`` given with --config, which would ignore it."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value is not False:
            raise ConfigurationError(f"--{flag} cannot override a config file; set it there")


def _build_config(path: str | None, defaults: dict, **flags) -> ScenarioConfig:
    """The command's one config: the fields of the config file at ``path``, else
    ``defaults``, with every flag that was given laid over them before validation."""
    given = {name: value for name, value in flags.items() if value is not None}
    if path:
        return ScenarioConfig.from_json(path, **given)
    return ScenarioConfig.from_dict({**defaults, **given})


def _check_output_dir(config: ScenarioConfig) -> None:
    """Raise, before any run, the OSError that making config.output_dir would
    raise: something not a directory at it or above it, or a directory this
    process may not write into.  Nothing is created."""
    if not config.output_dir:
        return
    out = Path(config.output_dir)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
    elif not os.access(existing, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(out))


def _cmd_simulate(args) -> int:
    if args.config:
        _refuse_beside_config(args, "scenario", "epsilon", "overtime")
    elif args.scenario is None:
        raise ConfigurationError("either --config or --scenario/--epsilon is required")
    elif args.epsilon is None:
        raise ConfigurationError("--epsilon is required without --config")
    config = _build_config(args.config, {"scenario": args.scenario, "epsilon": args.epsilon,
                                         "overtime": args.overtime}, output_dir=args.out)
    _check_output_dir(config)
    report = run_scenario(config)
    if config.output_dir:
        paths = write_outputs(report, config)
        print(f"wrote {len(paths)} files to {config.output_dir}")
    print(f"scenario={config.scenario} epsilon={config.epsilon} "
          f"T={report.realized_final_time:g}")
    print(f"  final err(K vs B)      = {report.err_kdv[-1]:.6e}")
    print(f"  final err(K_topo vs B) = {report.err_kdv_topo[-1]:.6e}")
    if report.validation_error is not None:
        print(f"  err vs analytic wave   = {report.validation_error:.6e}")
    print(f"  L2 drift max           = {report.l2_drift.max():.3e}")
    print(f"  H1_eps drift max       = {report.h1eps_drift.max():.3e}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    if args.config:
        _refuse_beside_config(args, "epsilon")
    epsilon = 0.1 if args.epsilon is None else args.epsilon
    config = _build_config(args.config, {"scenario": "convergence", "epsilon": epsilon},
                           output_dir=args.out, refinement_levels=args.levels)
    _check_output_dir(config)
    report = convergence_study(config)
    print(f"deltas: {['%g' % d for d in report.deltas]}")
    print(f"scalar-stepper errors: {['%.3e' % e for e in report.kdv_errors]}")
    print(f"scalar-stepper orders: {['%.2f' % o for o in report.kdv_orders]}")
    print(f"coupled-stepper diffs: {['%.3e' % e for e in report.boussinesq_diffs]}")
    print(f"coupled-stepper orders: {['%.2f' % o for o in report.boussinesq_orders]}")
    if not report.monotone:
        print("warning: errors are not monotone under refinement")
    if config.output_dir:
        write_convergence_outputs(report, config)
        print(f"wrote convergence.json to {config.output_dir}")
    return EXIT_OK


def _cmd_growth(args) -> int:
    config = _build_config(None, {"scenario": "growth", "epsilon": args.epsilon,
                                  "growth_kind": args.scenario}, output_dir=args.out)
    _check_output_dir(config)
    report = run_growth(config)
    write_growth_outputs(report, config)
    diag = report.diagnostic
    print(f"growth[{args.scenario}] epsilon={args.epsilon}: "
          f"slope={diag.slope:.4f} intercept={diag.intercept:.4f} "
          f"R^2={diag.r_squared:.4f}")
    print(f"max corrector norm: {diag.u1_norms.max():.4f}")
    print(f"wrote growth.csv to {config.output_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except LongwaveError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
