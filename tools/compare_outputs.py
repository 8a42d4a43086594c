"""Compare what the gate commands write and print on two source trees.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--allow-key KEY ...]

Each gate command (``GATE_COMMANDS``) runs once per tree as
``python -m longwave.cli ...`` in a fresh process, with the tree's ``src``
first on PYTHONPATH, OPENBLAS_NUM_THREADS pinned to ``THREADS`` and
OPENBLAS_CORETYPE to the core type OpenBLAS picks on the machine, read from
``blas_info()`` in the change tree (outputs move at about 5e-15 with the
core type).  The report's ``env`` records both pins and, as ``blas_threads``
(parent first), the threads each tree's solver runs under them: 1 in a tree
whose solver loads its OpenBLAS with one thread, which ignores the thread
pin, and ``THREADS`` in an older tree, whose B columns then differ at
round-off.  Per command it reports the exit codes, whether stdout is the same
once each run's output directory reads OUT, and per output file:

* a CSV: whether the bytes are the same (``cmp``) and the largest absolute
  and the largest ULP difference of each column;
* a JSON file: every key whose value differs, as a dotted path, leaving out
  ``runtimes_seconds``, ``output_dir`` and ``blas``;
* a file that only one tree wrote.

The report is one JSON object on stdout.  The exit code is 0
when every CSV is byte-identical, stdout and exit codes agree, no file is
missing and no JSON key differs but those given with ``--allow-key``; else 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# ``longwave`` arguments of each gate command; OUT is replaced by its own directory
GATE_COMMANDS = (
    ("simulate", "--scenario", "step", "--epsilon", "0.2", "--out", "OUT"),
    ("simulate", "--scenario", "sinusoid", "--epsilon", "0.1", "--out", "OUT"),
    ("simulate", "--scenario", "validate", "--epsilon", "0.1", "--out", "OUT"),
    ("simulate", "--scenario", "validate", "--epsilon", "0.05", "--out", "OUT"),
    ("simulate", "--scenario", "step", "--epsilon", "0.1", "--overtime", "--out", "OUT"),
    ("simulate", "--scenario", "validate", "--epsilon", "0.2"),
    ("simulate", "--scenario", "step", "--epsilon", "0.05", "--out", "OUT"),
    ("growth", "--scenario", "step", "--epsilon", "0.2", "--out", "OUT"),
    ("growth", "--scenario", "sinusoid", "--epsilon", "0.1", "--out", "OUT"),
    ("growth", "--scenario", "sinusoid", "--epsilon", "0.05", "--out", "OUT"),
    ("growth", "--scenario", "sinusoid", "--epsilon", "0.025", "--out", "OUT"),
    ("convergence", "--epsilon", "0.2", "--out", "OUT"),
    ("convergence", "--epsilon", "0.2"),
)
# OPENBLAS_NUM_THREADS of every run; only trees older than the one-thread solver read it
THREADS = "2"
# JSON keys that differ between any two runs, or name their machine
IGNORED_KEYS = frozenset({"runtimes_seconds", "output_dir", "blas"})


def ulp_distance(x: float, y: float) -> float:
    """How many doubles lie from x up to y, counting y: 0 for equal values
    (and for 0.0 against -0.0, or NaN against NaN), inf against one NaN."""
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf

    def ordinal(v: float) -> int:
        # the bit pattern as an integer, mirrored below zero so that it is monotonic
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return float(abs(ordinal(x) - ordinal(y)))


def compare_csv(a: Path, b: Path) -> dict:
    """Byte identity of two CSV files and, per column, the largest |a - b|
    and the largest distance in units in the last place (``ulp_distance``);
    inf where the headers or row counts differ."""
    same = a.read_bytes() == b.read_bytes()
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(p.open())) for p in (a, b))
    if head_a != head_b or len(rows_a) != len(rows_b):
        return {"cmp": same, "max_abs_diff": {name: math.inf for name in head_a},
                "max_ulp_diff": {name: math.inf for name in head_a}}
    diffs = {name: 0.0 for name in head_a}
    ulps = dict(diffs)
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(head_a, row_a, row_b):
            x, y = float(x), float(y)
            diffs[name] = max(diffs[name], abs(x - y))
            ulps[name] = max(ulps[name], ulp_distance(x, y))
    return {"cmp": same, "max_abs_diff": diffs, "max_ulp_diff": ulps}


def differing_keys(a, b, prefix: str = "") -> list[str]:
    """Dotted paths of the values that differ between two parsed JSON
    documents, leaving out ``IGNORED_KEYS`` at any depth."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        # as JSON text, so that NaN equals NaN
        same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        return [] if same else [prefix.rstrip(".") or "<root>"]
    paths = []
    for key in sorted((a.keys() | b.keys()) - IGNORED_KEYS):
        if key in a and key in b:
            paths += differing_keys(a[key], b[key], f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return paths


def compare_dirs(a: Path, b: Path) -> dict:
    """Per file name, the comparison of two output directories."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    files = {}
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            files[name] = {"missing_in": "parent" if pb.exists() else "change"}
        elif name.endswith(".csv"):
            files[name] = compare_csv(pa, pb)
        elif name.endswith(".json"):
            files[name] = {"differing_keys": differing_keys(json.loads(pa.read_text()),
                                                            json.loads(pb.read_text()))}
        else:
            files[name] = {"cmp": pa.read_bytes() == pb.read_bytes()}
    return files


def verdict(commands: list[dict], allowed: set[str]) -> dict:
    """Counts over a report's commands, and whether they pass the gate."""
    files = [f for command in commands for f in command["files"].values()]
    csvs = [f for f in files if "max_abs_diff" in f]
    keys = sorted({k for f in files for k in f.get("differing_keys", ())})
    ok = (all(c["stdout_same"] and c["exit"][0] == c["exit"][1] for c in commands)
          and all(f.get("cmp", True) and "missing_in" not in f for f in files)
          and set(keys) <= allowed)
    return {"commands": len(commands), "csv_files": len(csvs),
            "csv_identical": sum(f["cmp"] for f in csvs),
            "json_files": sum("differing_keys" in f for f in files),
            "json_differing_keys": keys, "allowed_keys": sorted(allowed), "ok": ok}


def run_command(tree: Path, argv: tuple, out: Path, env: dict) -> tuple[int, str]:
    """One gate command on one tree in a fresh process: exit code and stdout
    with the output directory written as OUT."""
    args = [str(out) if arg == "OUT" else arg for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "longwave.cli", *args], capture_output=True,
                          text=True, env={**env, "PYTHONPATH": str(tree / "src")})
    return proc.returncode, proc.stdout.replace(str(out), "OUT")


def blas_info_field(tree: Path, field: str, env: dict) -> str:
    """``blas_info()[field]`` of the tree's solver, printed by a fresh process
    run in ``env``."""
    return subprocess.run(
        [sys.executable, "-c", "from longwave.findiff import blas_info; "
                               f"print(blas_info()[{field!r}])"],
        capture_output=True, text=True, check=True,
        env={**env, "PYTHONPATH": str(tree / "src")}).stdout.strip()


def detected_coretype(tree: Path) -> str:
    """The OpenBLAS core type named in ``blas_info()``'s build configuration,
    the word before MAX_THREADS=, with neither variable set; exits with the
    configuration when it names none."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}
    config = blas_info_field(tree, "config", env)
    words = config.split()
    coretype = next((words[i - 1] for i, word in enumerate(words)
                     if i and word.startswith("MAX_THREADS=")), None)
    if coretype is None:
        sys.exit(f"no core type before MAX_THREADS= in the OpenBLAS configuration {config!r}")
    return coretype


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree holding src/longwave")
    parser.add_argument("change", type=Path, help="source tree holding src/longwave")
    parser.add_argument("--allow-key", action="append", default=[],
                        help="a JSON key that may differ (dotted path); repeatable")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    pins = {"OPENBLAS_NUM_THREADS": THREADS, "OPENBLAS_CORETYPE": detected_coretype(trees[1])}
    env = {**os.environ, **pins}
    threads = [int(blas_info_field(tree, "threads", env)) for tree in trees]
    commands = []
    with tempfile.TemporaryDirectory() as work:
        for index, argv_ in enumerate(GATE_COMMANDS):
            outs = [Path(work) / side / f"{index:02d}" for side in ("parent", "change")]
            runs = [run_command(tree, argv_, out, env) for tree, out in zip(trees, outs)]
            have = [out.is_dir() for out in outs]
            if all(have):
                files = compare_dirs(*outs)
            elif any(have):
                files = {"<output dir>": {"missing_in": "change" if have[0] else "parent"}}
            else:
                files = {}
            commands.append({"argv": list(argv_), "exit": [code for code, _ in runs],
                             "stdout_same": runs[0][1] == runs[1][1], "files": files})
    report = {"trees": [str(args.parent), str(args.change)],
              "env": {**pins, "blas_threads": threads}, "commands": commands,
              "summary": verdict(commands, set(args.allow_key))}
    print(json.dumps(report, indent=1))
    return 0 if report["summary"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
