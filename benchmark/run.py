"""Benchmark of the longwave package: one workload, one seed, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from the
checkout's ``src`` (nothing is built).  A run repeats whole rounds of the
workload, each in a fresh interpreter (worker.py), until ``--seconds`` have
passed, with BLAS/OpenMP threads capped at the number of usable cores.
Untraced (``--trace 0``) it reports the end-to-end metrics as medians over
rounds:

    wall_s            s             time in the workload's calls into longwave
    setup_s           s             interpreter start to the first stepper run
    peak_rss_mb       MB            peak resident memory of a round's process
    node_steps_per_s  node-steps/s  grid nodes x time steps of every stepper
                                    run, per second of wall_s

Traced (``--trace 1``) each round is a pair: an untraced round, then a traced
one (tracing.py).  It reports the per-layer metrics of the traced rounds and
``trace.overhead_s``, the traced minus the untraced median wall_s.

Every round checks the program's outputs (checks.py).  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when that line is printed, 2 when the checkout holds no package, and 1 when a
round could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".benchmark_work"
WORKLOADS = ("simulate_step", "topo_step", "growth_sweep")
ROUND_TIMEOUT_S = 150.0
SPAWN_ENV = "LONGWAVE_BENCH_SPAWN"


class RoundError(RuntimeError):
    """A worker process ended without a result."""


def child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_round(workload: str, seed: int, work: Path, *, trace: bool = False) -> dict:
    """Run worker.py once in a fresh interpreter and return its result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    if trace:
        spans = WORK / "spans" / f"{workload}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--spans", str(spans)]
    env = child_env()
    env[SPAWN_ENV] = repr(time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        raise RoundError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    shutil.rmtree(work)
    expected = ROOT / "src" / "longwave" / "__init__.py"
    if Path(result["longwave"]) != expected.resolve():
        raise RoundError(f"worker imported {result['longwave']}, not {expected}")
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    """Rounds until ``seconds`` have passed, then aggregated metrics."""
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while not plain or time.monotonic() < deadline:
        plain.append(run_round(workload, seed, scratch / f"round{len(plain)}"))
        if trace:
            traced.append(run_round(workload, seed, scratch / f"traced{len(traced)}", trace=True))
    rounds = plain + traced
    correct = all(c["ok"] for r in rounds for c in r["checks"])
    summary = {
        "rounds": len(rounds),
        "errors": sorted({e for r in rounds for e in r["errors"]}),
        "failed_checks": sorted({c["name"] for r in rounds for c in r["checks"] if not c["ok"]}),
        "checks": {c["name"]: [c["value"], c["bound"]] for c in rounds[-1]["checks"]},
    }
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {key: statistics.median(r["layers"][key] for r in traced)
                   for key in traced[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "node_steps_per_s": statistics.median(r["node_steps"] / r["wall_s"] for r in plain),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(declared) != set(metrics):
        raise RoundError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
                         f"{sorted(declared)}")
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
        "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one longwave benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "longwave" / "__init__.py").is_file():
        print(f"no longwave package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    scratch = WORK / f"{args.workload}-{os.getpid()}"
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = outcome.pop("summary")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={summary['rounds']} attempted={outcome['attempted']} "
          f"failed={outcome['failed']} correct={outcome['correct']}")
    for name, (value, bound) in summary["checks"].items():
        print(f"  check {name:<20} {value:.3e}  (bound {bound})")
    for name in summary["failed_checks"]:
        print(f"  FAILED check {name}")
    for error in summary["errors"]:
        print(f"  failed operation: {error}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
