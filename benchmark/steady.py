"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 benchmark/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]

For each workload it runs two sets of ``--runs`` runs of ``run.py``, each run
with its own seed (the second set continues the seeds of the first), untraced,
for BENCHMARK.json's ``run_seconds``.
Per end-to-end metric it reports each set's median and its spread, the
distance between the first and third quartile (statistics.quantiles, n=4) as
a share of the median.  It then says whether the benchmark's bounds hold:

* every spread except that of setup_s is within the metric's bound;
* the second set's median is not worse than the first's by more than the
  bound, for every metric (setup_s too);
* the share of failed operations is the same in both sets.

Every run's result goes to .benchmark_work/steady-<time>.json.  The exit code
is 0 when all of it holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    record, ok = {}, True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                seed += 1
                print(f"{workload} seed={seed - 1} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                      flush=True)
            sets.append(runs)
        record[workload] = sets

        shares = {Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n{workload}: failed share {sorted(map(float, shares))} "
              f"{'same' if len(shares) == 1 else 'DIFFERS'}; all correct: {correct}")
        ok &= len(shares) == 1 and correct
        for name, metric in bounds.items():
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            spread_ok = name == "setup_s" or max(spreads) <= metric["bound"]
            agree = worse <= metric["bound"]
            ok &= spread_ok and agree
            print(f"  {name:<18} medians {' '.join(f'{m:.5g}' for m in medians)} {metric['unit']}"
                  f"  spreads {' '.join(f'{s:.3f}' for s in spreads)}"
                  f"  worse-by {worse:+.3f}  bound {metric['bound']}"
                  f"  {'ok' if spread_ok and agree else 'NOT OK'}"
                  f"{'' if max(spreads) <= metric['bound'] / 3 else '  (spread above bound/3)'}")

    out = ROOT / ".benchmark_work" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))
    print(f"\n{'all bounds hold' if ok else 'SOME BOUNDS DO NOT HOLD'}; runs in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
