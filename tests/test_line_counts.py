"""The line-kind split of tools/line_counts.py, on the package and on
hand-made sources."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "line_counts.py"
_SPEC = importlib.util.spec_from_file_location("line_counts", _PATH)
line_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_counts)

PACKAGE = _ROOT / "src" / "longwave"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_kinds_sum_to_wc_l(path):
    counts = line_counts.count_lines(path.read_text())
    wc_l = int(subprocess.run(["wc", "-l", str(path)], capture_output=True, text=True,
                              check=True).stdout.split()[0])
    assert counts["wc_l"] == wc_l
    assert sum(counts[kind] for kind in line_counts.KINDS) == wc_l


def test_one_more_docstring_line_moves_only_the_docstring_count():
    source = (PACKAGE / "findiff.py").read_text()
    first_line = source.index("\n") + 1
    longer = source[:first_line] + "One more line of the module docstring.\n" + source[first_line:]
    before, after = line_counts.count_lines(source), line_counts.count_lines(longer)
    assert after == {**before, "docstring": before["docstring"] + 1, "wc_l": before["wc_l"] + 1}


def test_each_kind_on_a_hand_made_source():
    source = ('"""Module.\n\nStill the docstring."""\n'
              "\n"
              "# a comment\n"
              "X = (1,  # trailing comment: code\n"
              "     2)\n"
              "\n"
              "\n"
              "class A:\n"
              "    '''Class.'''\n"
              "\n"
              "    def f(self):\n"
              '        """Function."""\n'
              "        # inside\n"
              "        return '''not a docstring\n"
              "\n"
              "'''\n")
    assert line_counts.count_lines(source) == {"code": 6, "docstring": 5, "comment": 2,
                                               "blank": 5, "wc_l": 18}


def test_the_script_prints_each_file_and_the_total():
    proc = subprocess.run([sys.executable, str(_PATH)], capture_output=True, text=True,
                          check=True)
    counts = json.loads(proc.stdout)
    assert set(counts) == {path.name for path in PACKAGE.glob("*.py")} | {"total"}
    for key in (*line_counts.KINDS, "wc_l"):
        assert counts["total"][key] == sum(c[key] for name, c in counts.items()
                                           if name != "total")
