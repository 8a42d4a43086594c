"""Command line entry points.

    longwave simulate    --config cfg.json [--out DIR]
    longwave simulate    --scenario step --epsilon 0.2 [--overtime] [--out DIR]
    longwave convergence --config cfg.json | --epsilon 0.1 [--levels 3] [--out DIR]
    longwave growth      --config cfg.json [--out DIR]
    longwave growth      --scenario step|sinusoid --epsilon 0.2 --out DIR

Each command is one row of ``_COMMANDS``, run by one body (``_run``).  Beside
--config, --scenario, --epsilon and --overtime exit 2; --out and --levels are
laid over the file's fields.  ``growth`` needs --out or the config's output_dir.
A config another command runs is refused by ``scenarios._check_runner``,
naming that command; every other refusal comes before the command's first
stepper run too.

Exit codes: 0 success, 2 invalid input (any other package error), 3 numerical
instability, 4 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import typing
from pathlib import Path

from .errors import ConfigurationError, LongwaveError, SolverError
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    _check_runner,
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


class _Command(typing.NamedTuple):
    """One command: the scenarios it takes, and how it runs, writes and reports one."""

    help: str
    runner: str  # the SCENARIOS runner of the scenarios --scenario may name
    scenario_field: str | None  # the config field --scenario sets
    defaults: dict  # the config fields it starts from without --config
    run: typing.Callable  # config -> report
    write: typing.Callable  # report -> the paths written
    summary: typing.Callable  # (report, paths written) -> None, printed to stdout
    needs_out: bool = False  # refuse a config without output_dir before any run


def _simulate_summary(report, paths) -> None:
    config = report.config
    if paths:
        print(f"wrote {len(paths)} files to {config.output_dir}")
    print(f"scenario={config.scenario} epsilon={config.epsilon} "
          f"T={report.realized_final_time:g}")
    print(f"  final err(K vs B)      = {report.err_kdv[-1]:.6e}")
    print(f"  final err(K_topo vs B) = {report.err_kdv_topo[-1]:.6e}")
    if report.validation_error is not None:
        print(f"  err vs analytic wave   = {report.validation_error:.6e}")
    print(f"  L2 drift max           = {report.l2_drift.max():.3e}")
    print(f"  H1_eps drift max       = {report.h1eps_drift.max():.3e}")


def _convergence_summary(report, paths) -> None:
    print(f"deltas: {['%g' % d for d in report.deltas]}")
    print(f"scalar-stepper errors: {['%.3e' % e for e in report.kdv_errors]}")
    print(f"scalar-stepper orders: {['%.2f' % o for o in report.kdv_orders]}")
    print(f"coupled-stepper diffs: {['%.3e' % e for e in report.boussinesq_diffs]}")
    print(f"coupled-stepper orders: {['%.2f' % o for o in report.boussinesq_orders]}")
    if not report.monotone:
        print("warning: errors are not monotone under refinement")
    if paths:
        print(f"wrote convergence.json to {report.config.output_dir}")


def _growth_summary(report, paths) -> None:
    config, diag = report.config, report.diagnostic
    print(f"growth[{config.growth_kind}] epsilon={config.epsilon}: "
          f"slope={diag.slope:.4f} intercept={diag.intercept:.4f} "
          f"R^2={diag.r_squared:.4f}")
    print(f"max corrector norm: {diag.u1_norms.max():.4f}")
    print(f"wrote growth.csv to {config.output_dir}")


# The lambdas read the runners and writers by name when a command runs, so a
# caller that rebinds those names in this module is what the command calls
_COMMANDS = {
    "simulate": _Command("run a comparison scenario and write CSV outputs", "run_scenario",
                         "scenario", {}, lambda config: run_scenario(config),
                         lambda report: write_outputs(report), _simulate_summary),
    "convergence": _Command("observed-order study under dx = dt halvings", "convergence_study",
                            None, {"scenario": "convergence", "epsilon": 0.1},
                            lambda config: convergence_study(config),
                            lambda report: write_convergence_outputs(report),
                            _convergence_summary),
    "growth": _Command("corrector-norm growth diagnostic", "run_growth", "growth_kind",
                       {"scenario": "growth"}, lambda config: run_growth(config),
                       lambda report: write_growth_outputs(report), _growth_summary, True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longwave",
        description="Cross-compare coupled and uncoupled long-wave models over uneven bottoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", help="JSON scenario configuration")
        if command.scenario_field:
            index = ("scenario", "growth_kind").index(command.scenario_field)
            cmd.add_argument("--scenario", choices=[key[index] for key, record in SCENARIOS.items()
                                                    if record.runner == command.runner],
                             help=f"config {command.scenario_field} (alternative to --config)")
        default = command.defaults.get("epsilon")
        cmd.add_argument("--epsilon", type=float, help="long-wave parameter"
                         + (f" (default {default})" if default else ""))
        cmd.add_argument("--out", help="output directory (overrides config.output_dir)")
    sub.choices["simulate"].add_argument(
        "--overtime", action="store_true",
        help="extend the run to T = epsilon^(-3/2) (demonstration mode)")
    sub.choices["convergence"].add_argument("--levels", type=int,
                                            help="number of refinement levels (default 3)")
    return parser


def _config(args, command: _Command) -> ScenarioConfig:
    """The command's one config: the config file's fields, else the command's
    defaults with --scenario, --epsilon and --overtime, and --out and --levels
    laid over either before validation.  Exit 2 on a flag the file would
    override, or on a missing --scenario or --epsilon without a file."""
    # the flags given, in the parser's order
    given = {flag: value for flag, value in vars(args).items()
             if flag not in ("command", "config") and value is not None and value is not False}
    overrides = {field: given.pop(flag) for flag, field in (("out", "output_dir"),
                                                            ("levels", "refinement_levels"))
                 if flag in given}
    if args.config:
        if given:
            raise ConfigurationError(f"--{next(iter(given))} cannot override a config file; "
                                     "set it there")
        return ScenarioConfig.from_json(args.config, **overrides)
    if "scenario" in given:
        given[command.scenario_field] = given.pop("scenario")
    fields = {**command.defaults, **given}
    if command.scenario_field not in (None, *fields):
        raise ConfigurationError("either --config or --scenario/--epsilon is required")
    if "epsilon" not in fields:
        raise ConfigurationError("--epsilon is required without --config")
    return ScenarioConfig.from_dict({**fields, **overrides})


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


def _run(args) -> int:
    """Build the command's config, refuse a scenario another command runs
    (naming that command), check its output directory, run, write when there
    is an output directory, and print the summary."""
    command = _COMMANDS[args.command]
    config = _config(args, command)
    _check_runner(config, command.runner,
                  {row.runner: f"longwave {name}" for name, row in _COMMANDS.items()})
    if command.needs_out and not config.output_dir:
        raise ConfigurationError(f"{args.command} needs --out or output_dir in the config")
    _check_output_dir(config)
    report = command.run(config)
    command.summary(report, command.write(report) if config.output_dir else [])
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
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
