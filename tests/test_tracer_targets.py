"""The benchmark tracer's named targets (benchmark/tracing.py) exist in the
package with the parameters its extras bind, so a rename or a new signature
in ``longwave`` fails here instead of reading 0 under ``--trace 1``.  The
tracer is imported from its file and not changed."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def _resolve(dotted: str):
    """The package object at ``module.name[.attr]``."""
    module, *names = dotted.split(".")
    target = importlib.import_module(f"longwave.{module}")
    for name in names:
        target = getattr(target, name)
    return target


def _bound_names(extra) -> set[str]:
    """The arguments an extra reads from the call it measures, as
    ``bound["name"]``."""
    return set(re.findall(r'bound\["(\w+)"\]', inspect.getsource(extra)))


@pytest.mark.parametrize("name", sorted(tracing._EXTRAS))
def test_every_extra_names_a_function_with_the_parameters_it_binds(name):
    function = _resolve(name)
    assert callable(function)
    parameters = inspect.signature(function).parameters
    assert _bound_names(tracing._EXTRAS[name]) <= parameters.keys()


@pytest.mark.parametrize("module,name", [(module, name)
                                         for module, names in tracing._PRIVATE_TARGETS.items()
                                         for name in names])
def test_every_private_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"longwave.{module}"), name))


def test_the_quadrature_extra_binds_counter_and_m():
    # the parse above is not vacuous: the one extra that binds reads both
    extra = tracing._EXTRAS["reconstruct._cross_integral_nodes"]
    assert _bound_names(extra) == {"counter", "m"}
    assert list(inspect.signature(_resolve("reconstruct._cross_integral_nodes")).parameters) \
        == ["b", "counter", "m"]
