"""Golden outputs: four CLI runs compared column by column with stored CSVs.

The files under ``tests/golden/`` were written by commit d73ac8fe54 with

    longwave simulate --scenario step --epsilon 0.2 --out DIR
    longwave simulate --scenario sinusoid --epsilon 0.1 --out DIR
    longwave simulate --scenario validate --epsilon 0.1 --out DIR
    longwave growth --scenario step --epsilon 0.2 --out DIR

keeping ``errors.csv`` and the final snapshot of each simulate run and
``growth.csv`` of the growth run.  Every column must match to an absolute
1e-10; the bound is absolute because the drift columns are ~1e-15, where a
relative bound would compare round-off.  A change that needs more is a
change of behaviour, not a refactor.
"""

from pathlib import Path

import numpy as np
import pytest

from longwave.cli import main

GOLDEN = Path(__file__).parent / "golden"
ATOL = 1e-10

CASES = {
    "simulate_step_0.2": (["simulate", "--scenario", "step", "--epsilon", "0.2"],
                          ["errors.csv", "snapshot_t12.csv"]),
    "simulate_sinusoid_0.1": (["simulate", "--scenario", "sinusoid", "--epsilon", "0.1"],
                              ["errors.csv", "snapshot_t10.csv"]),
    "simulate_validate_0.1": (["simulate", "--scenario", "validate", "--epsilon", "0.1"],
                              ["errors.csv", "snapshot_t10.csv"]),
    "growth_step_0.2": (["growth", "--scenario", "step", "--epsilon", "0.2"],
                        ["growth.csv"]),
}


def _read(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path, capsys):
    argv, files = CASES[case]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in files:
        gold_header, gold = _read(GOLDEN / case / name)
        header, data = _read(tmp_path / name)
        assert header == gold_header, name
        assert data.shape == gold.shape, name
        for j, column in enumerate(header):
            diff = np.max(np.abs(data[:, j] - gold[:, j]))
            assert diff <= ATOL, f"{case}/{name} column {column}: max |diff| {diff:.3e}"
