"""Every name a ``longwave`` module imports is read in that module or listed
in its ``__all__``, and every private name a module defines at its top level
is read somewhere in the package, not only in the tests.  ``ast`` checks,
since no linter is installed with the test dependencies.  The package
``__init__`` imports only to re-export, so the import check leaves it out;
what it publishes must be exactly its modules' ``__all__`` and the error
classes."""

import ast
import importlib
from pathlib import Path

import pytest

import longwave
from longwave import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "longwave"
SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
MODULES = [name for name in SOURCES if name != "__init__.py"]


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
    assert unused_imports(SOURCES[module]) == []


def test_a_stray_import_is_caught():
    source = SOURCES["reconstruct.py"]
    stray = source.replace("import numpy as np\n", "import numpy as np\nfrom .findiff import make_d2\n")
    assert stray != source
    assert unused_imports(stray) == ["make_d2"]


def test_a_name_listed_in_all_counts_as_used():
    assert unused_imports("from .grid import Field\n__all__ = ['Field']\n") == []
    assert unused_imports("import os.path\nfrom .grid import Field as F\n") == ["F", "os"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private name that a module of ``sources``
    binds at its top level (function, class or assignment) and that no module
    reads: loads it, takes it as an attribute or imports it by name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            orphans += [f"{module}:{name}" for name in bound
                        if name.startswith("_") and not name.startswith("__")
                        and name not in read]
    return orphans


def test_every_private_name_is_read_in_the_package():
    assert orphaned_private_names(SOURCES) == []


def test_an_orphan_helper_is_caught():
    planted = {**SOURCES, "grid.py": SOURCES["grid.py"] + "\n\ndef _orphan(values):\n"
                                                         "    return values\n"}
    assert orphaned_private_names(planted) == ["grid.py:_orphan"]
    assert orphaned_private_names({"a.py": "_X, _Y = 1, 2\n", "b.py": "from .a import _X\n"}) \
        == ["a.py:_Y"]


def test_package_publishes_exactly_every_modules_all():
    # a name missing from its module's __all__ would silently leave the package
    published = {name for name, value in vars(errors).items() if isinstance(value, type)}
    for module in MODULES:
        published.update(getattr(importlib.import_module(f"longwave.{module[:-3]}"),
                                 "__all__", ()))
    modules = {module[:-3] for module in MODULES}
    public = {name for name in dir(longwave) if not name.startswith("_")} - modules
    assert public == published
    assert len(public) == 59
