"""One round of one workload, in a fresh interpreter.

    python3 benchmark/worker.py --workload NAME --seed N --work DIR
                                [--trace] [--spans PATH]

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src`` and
the spawn time (CLOCK_MONOTONIC, shared by all processes) in
LONGWAVE_BENCH_SPAWN.  The round's figures and check results go to
DIR/result.json:

* ``setup_s``: spawn to the first call of a stepper run driver
  (``run``/``run_boussinesq``), i.e. interpreter start, ``import longwave``
  and the building of config, grid, coefficients and problem;
* ``wall_s``: time spent in the workload's calls into longwave, import
  excluded;
* ``peak_rss_mb``: peak resident memory, read before the checks run;
* ``node_steps``: sum over stepper runs of grid nodes times time steps.

With ``--trace`` the package is traced (tracing.py) and per-layer metrics
are added.  A failed operation leaves outputs missing; the checks then report
a failing ``outputs_present`` check rather than nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

SPAWN_ENV = "LONGWAVE_BENCH_SPAWN"


class Round:
    """Counts the workload's operations and times its calls into longwave."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.first_run_at: float | None = None
        self.node_steps = 0

    @contextlib.contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start

    def call(self, fn, *args, **kwargs):
        """One operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            with self.timed():
                return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, argv: list[str]) -> bool:
        """One `longwave ...` command through longwave.cli.main; ok when it exits 0."""
        import longwave.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = self.call(longwave.cli.main, argv)
        if code not in (None, 0):
            self.failed += 1
            self.errors.append(f"longwave {' '.join(argv)}: exit code {code}")
        return code == 0

    def skip(self, count: int, why: str) -> None:
        """Operations that could not be attempted because an earlier one failed."""
        self.attempted += count
        self.failed += count
        self.errors.append(why)

    def hook_run_drivers(self) -> None:
        """Note the first stepper run and the node-steps of every run."""
        import longwave.boussinesq
        import longwave.kdv
        from tracing import rebind

        for module, attr in ((longwave.kdv, "run"), (longwave.boussinesq, "run_boussinesq")):
            original = getattr(module, attr)
            rebind(original, self._on_run(original))

    def _on_run(self, fn):
        def hooked(problem, *args, **kwargs):
            if self.first_run_at is None:
                self.first_run_at = time.monotonic()
            self.node_steps += problem.grid.num_points * problem.time_grid.num_steps
            return fn(problem, *args, **kwargs)
        return hooked


# ---------------------------------------------------------------------------
# Workloads.  Each runs its calls into longwave inside round.timed()/call(),
# and returns a function that runs its output checks.
# ---------------------------------------------------------------------------

def simulate_step(round_: Round, seed: int, work: Path) -> Callable[[], list[dict]]:
    out = work / "simulate"
    round_.cli(["simulate", "--scenario", "step", "--epsilon", "0.1", "--overtime",
                "--out", str(out)])

    def verify():
        import checks
        return [checks.outputs_missing()] if round_.failed else checks.simulate_checks(out)
    return verify


def topo_step(round_: Round, seed: int, work: Path) -> Callable[[], list[dict]]:
    import longwave as lw

    with round_.timed():
        config = lw.ScenarioConfig(scenario="step", epsilon=0.05)
        grid, time_grid = config.build_grid(), config.build_time_grid()
        coeffs, bottom = config.build_coefficients(), config.build_bathymetry()
        u0 = lw.soliton_field(config.build_soliton(), grid)
        problem = lw.KdvProblem(config.epsilon, grid, time_grid)
    stride = config.error_stride(time_grid)
    error_steps = list(range(stride, time_grid.num_steps + 1, stride))
    if error_steps[-1] != time_grid.num_steps:
        error_steps.append(time_grid.num_steps)

    u_traj = round_.call(lw.run, problem, u0, stride=1)
    eta_by_step = {}
    if u_traj is None:
        round_.skip(len(error_steps), "no K trajectory to reconstruct from")
    else:
        for m in error_steps:
            surfaces = round_.call(lw.topo_modified_surfaces, u_traj, None, bottom, coeffs,
                                   m * time_grid.dt)
            if surfaces is not None:
                eta_by_step[m] = surfaces.eta.values

    def verify():
        import checks
        if u_traj is None:
            return [checks.outputs_missing()]
        rows = u_traj.data
        sample = checks.oracle_sample(
            np.random.default_rng(seed), error_steps, rows, grid.dx,
            config.alpha, config.epsilon, config.shift, config.bathymetry)
        return checks.topo_checks(rows, grid.dx, config.epsilon, config.bathymetry,
                                  eta_by_step, sample)
    return verify


GROWTH_RUNS = (("step", "0.2"), ("sinusoid", "0.1"), ("sinusoid", "0.05"),
               ("sinusoid", "0.025"))


def growth_sweep(round_: Round, seed: int, work: Path) -> Callable[[], list[dict]]:
    dirs = []
    for kind, eps in GROWTH_RUNS:
        out = work / f"growth_{kind}_{eps}"
        round_.cli(["growth", "--scenario", kind, "--epsilon", eps, "--out", str(out)])
        dirs.append(out)

    def verify():
        import checks
        if round_.failed:
            return [checks.outputs_missing()]
        return checks.growth_checks(dirs[0], dirs[1:])
    return verify


WORKLOADS = {"simulate_step": simulate_step, "topo_step": topo_step,
             "growth_sweep": growth_sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    spawned = float(os.environ[SPAWN_ENV])

    import longwave

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    round_ = Round()
    round_.hook_run_drivers()
    args.work.mkdir(parents=True, exist_ok=True)
    result = {"workload": args.workload, "longwave": str(Path(longwave.__file__).resolve())}
    verify = WORKLOADS[args.workload](round_, args.seed, args.work)
    if round_.first_run_at is None:
        print("worker: the workload never reached a stepper run", file=sys.stderr)
        return 1
    result.update(
        setup_s=round_.first_run_at - spawned,
        wall_s=round_.wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        node_steps=round_.node_steps,
        attempted=round_.attempted,
        failed=round_.failed,
        errors=round_.errors,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans)
    result["checks"] = verify()
    with open(args.work / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
