"""Every name a ``longwave`` module imports is read in that module or listed
in its ``__all__``.  An ``ast`` check, since no linter is installed with the
test dependencies.  The package ``__init__`` imports only to re-export, so
it is left out."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "longwave"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing in it reads
    and its ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in read | exported)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_a_stray_import_is_caught():
    source = (PACKAGE / "reconstruct.py").read_text()
    stray = source.replace("import numpy as np\n", "import numpy as np\nfrom .findiff import make_d2\n")
    assert stray != source
    assert unused_imports(stray) == ["make_d2"]


def test_a_name_listed_in_all_counts_as_used():
    assert unused_imports("from .grid import Field\n__all__ = ['Field']\n") == []
    assert unused_imports("import os.path\nfrom .grid import Field as F\n") == ["F", "os"]
