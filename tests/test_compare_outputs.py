"""The output gate's comparison (tools/compare_outputs.py) on hand-made
output directories, and its report on one gate command that exits at once."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir()
    for name, content in files.items():
        text = json.dumps(content) if name.endswith(".json") else content
        (directory / name).write_text(text)
    return directory


def _meta(stored_bytes, seconds, out, eps=0.2):
    return {"config": {"epsilon": eps, "output_dir": out}, "runtimes_seconds": {"kdv": seconds},
            "blas": {"threads": 2}, "stored_bytes": stored_bytes, "validation_error": math.nan}


@pytest.fixture
def two_dirs(tmp_path):
    same = "t,err\n0,0\n0.5,0.25\n"
    a = _write(tmp_path / "a", {"errors.csv": same,
                                "snapshot_t1.csv": "x,eta\n0,1\n1,0.5\n",
                                "meta.json": _meta(800, 1.0, "a")})
    b = _write(tmp_path / "b", {"errors.csv": same,
                                "snapshot_t1.csv": "x,eta\n0,1\n1,0.50000000000000011\n",
                                "meta.json": _meta(400, 2.0, "b"),
                                "extra.csv": same})
    return a, b


def test_files_are_compared_by_kind(two_dirs):
    files = compare_outputs.compare_dirs(*two_dirs)
    assert files["errors.csv"] == {"cmp": True, "max_abs_diff": {"t": 0.0, "err": 0.0},
                                   "max_ulp_diff": {"t": 0.0, "err": 0.0}}
    snapshot = files["snapshot_t1.csv"]
    assert snapshot["cmp"] is False
    assert snapshot["max_abs_diff"] == {"x": 0.0, "eta": pytest.approx(1.1e-16, rel=0.01)}
    # 0.50000000000000011 parses to the double after 0.5
    assert snapshot["max_ulp_diff"] == {"x": 0.0, "eta": 1.0}
    # runtimes, BLAS and output directory left out; NaN equals NaN
    assert files["meta.json"] == {"differing_keys": ["stored_bytes"]}
    assert files["extra.csv"] == {"missing_in": "parent"}


def test_nested_and_one_sided_keys_are_named():
    a = {"config": {"epsilon": 0.2, "dx": 0.05}, "fit": {"window": [1, 2]}}
    b = {"config": {"epsilon": 0.1}, "fit": {"window": [1, 3]}, "new": 1}
    assert compare_outputs.differing_keys(a, b) == ["config.dx", "config.epsilon",
                                                    "fit.window", "new"]


def test_verdict(two_dirs):
    files = compare_outputs.compare_dirs(*two_dirs)
    identical = {"errors.csv": files["errors.csv"], "meta.json": files["meta.json"]}
    command = {"argv": ["simulate"], "exit": [0, 0], "stdout_same": True, "files": identical}
    summary = compare_outputs.verdict([command], {"stored_bytes"})
    assert summary["ok"] and summary["csv_files"] == summary["csv_identical"] == 1
    assert summary["json_differing_keys"] == ["stored_bytes"]
    assert not compare_outputs.verdict([command], set())["ok"]
    for broken in ({"exit": [0, 2]}, {"stdout_same": False}, {"files": files}):
        assert not compare_outputs.verdict([{**command, **broken}], {"stored_bytes"})["ok"]


def test_a_column_moved_by_one_ulp(tmp_path):
    # each row of "moved" is its neighbour double, on both sides of zero and
    # across a binade edge; "same" differs only in how its values are written
    values = [-2.5, -1.0, 5e-324, 0.5, 1e300]
    moved = [math.nextafter(-2.5, 0.0), math.nextafter(-1.0, -math.inf), 0.0,
             math.nextafter(0.5, 0.0), math.nextafter(1e300, math.inf)]
    rows_a = "".join(f"{v!r},{v!r}\n" for v in values)
    rows_b = "".join(f"{v!r},{w!r}\n" for v, w in zip(values, moved))
    a = _write(tmp_path / "a", {"e.csv": "same,moved\n" + rows_a})
    b = _write(tmp_path / "b", {"e.csv": "same,moved\n" + rows_b.replace("\n0.5,", "\n5e-1,")})
    result = compare_outputs.compare_dirs(a, b)["e.csv"]
    assert result["cmp"] is False
    assert result["max_ulp_diff"] == {"same": 0.0, "moved": 1.0}
    assert result["max_abs_diff"]["same"] == 0.0
    assert result["max_abs_diff"]["moved"] == math.ulp(1e300)


def test_ulp_distance():
    assert compare_outputs.ulp_distance(0.0, -0.0) == 0.0
    assert compare_outputs.ulp_distance(-5e-324, 5e-324) == 2.0
    assert compare_outputs.ulp_distance(1.0, 1.0 + 2.0**-52) == 1.0
    assert compare_outputs.ulp_distance(1.0, 1.0 - 2.0**-53) == 1.0
    assert compare_outputs.ulp_distance(math.nan, math.nan) == 0.0
    assert compare_outputs.ulp_distance(1.0, math.nan) == math.inf


def test_env_names_each_trees_blas_threads(tmp_path, monkeypatch, capsys):
    # a stand-in for a tree older than the one-thread solver: its blas_info
    # reports the OPENBLAS_NUM_THREADS it runs under, and it has no CLI
    old = tmp_path / "old" / "src" / "longwave"
    old.mkdir(parents=True)
    (old / "__init__.py").write_text("")
    (old / "findiff.py").write_text(
        "import os\n\ndef blas_info():\n"
        "    return {'threads': int(os.environ['OPENBLAS_NUM_THREADS'])}\n")
    monkeypatch.setattr(compare_outputs, "GATE_COMMANDS",
                        (("simulate", "--scenario", "step", "--epsilon", "-1"),))
    assert compare_outputs.main([str(old.parents[1]), str(_ROOT)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["env"]["OPENBLAS_NUM_THREADS"] == compare_outputs.THREADS
    assert report["env"]["blas_threads"] == [int(compare_outputs.THREADS), 1]
    # the stand-in has no longwave.cli, so only the change exits 2
    assert report["commands"][0]["exit"][1] == 2 != report["commands"][0]["exit"][0]
