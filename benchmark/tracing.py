"""Span tracing of the longwave package from outside it.

``Tracer.install`` wraps every public function of the package's layer
modules and every public method (and ``__init__``) of their public classes.
A function is replaced where it is defined and wherever another longwave
module holds it by name (``scenarios.run`` is ``kdv.run``), so calls made
through either name are recorded; classes are patched in place.  The
program's files are never changed.

Each call becomes one span (name, start, end, parent, extra), kept in memory
and written out by ``Tracer.dump`` when the run ends.  ``extra`` is a number
read off the call for a few functions: stored trajectory bytes of the two
run drivers, bytes of the files the writers return, and (m+1)*n node terms
of each characteristic quadrature ``reconstruct._cross_integral_nodes``.
A function the package no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("grid", "findiff", "kdv", "boussinesq", "reconstruct", "scenarios")


def _trajectory_bytes(fn, args, kwargs, result) -> float:
    arrays = [getattr(result, name, None) for name in ("data", "v_data", "eta_data")]
    return float(sum(a.nbytes for a in arrays if a is not None))


def _written_bytes(fn, args, kwargs, result) -> float:
    return float(sum(os.path.getsize(p) for p in result))


def _quadrature_terms(fn, args, kwargs, result) -> float:
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    m = bound["m"]
    return float((m + 1) * bound["counter"].grid.num_points) if m > 0 else 0.0


# Span name -> function computing the span's extra value from the call.
_EXTRAS = {
    "kdv.run": _trajectory_bytes,
    "boussinesq.run_boussinesq": _trajectory_bytes,
    "scenarios.write_outputs": _written_bytes,
    "scenarios.write_growth_outputs": _written_bytes,
    "scenarios.write_convergence_outputs": _written_bytes,
    "reconstruct._cross_integral_nodes": _quadrature_terms,
}
# Private functions traced for the work they count.
_PRIVATE_TARGETS = {"reconstruct": ("_cross_integral_nodes",)}


def rebind(original, replacement) -> None:
    """Replace ``original`` in every longwave module that holds it by name."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "longwave" or module_name.startswith("longwave."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []       # (name_index, start, end, parent, extra)
        self._stack: list[int] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_index = len(self.names)
        self.names.append(name)
        extra_of = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result, start = None, clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = 0.0 if extra_of is None or result is None else \
                    extra_of(fn, args, kwargs, result)
                spans[index] = (name_index, start, end, parent, extra)
        return traced

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(self._wrap(name, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(name, value))

    def install(self) -> None:
        import longwave  # noqa: F401  (loads every layer module)

        for layer in LAYERS:
            module = sys.modules[f"longwave.{layer}"]
            names = list(getattr(module, "__all__", ())) + list(_PRIVATE_TARGETS.get(layer, ()))
            for attr in names:
                obj = getattr(module, attr, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    rebind(obj, self._wrap(f"{layer}.{attr}", obj))

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Call once no traced call is in progress, so every span is closed."""
        return layer_metrics(self.names, self.spans)


def layer_metrics(names: list[str], spans: list) -> dict[str, float]:
    """Per-layer counts, seconds and self seconds from a list of spans."""
    named = [names[s[0]] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    parent = [s[3] for s in spans]

    def select(*wanted):
        return [i for i, name in enumerate(named) if name in wanted]

    def total(indices):
        return float(sum(duration[i] for i in indices))

    steps = {"kdv.step": "kdv", "boussinesq.step_boussinesq": "boussinesq"}
    solves = select("findiff.CyclicBandedMatrix.solve")
    solve_in_step = {"kdv": 0.0, "boussinesq": 0.0}
    for i in solves:
        p = parent[i]
        while p >= 0 and named[p] not in steps:
            p = parent[p]
        if p >= 0:
            solve_in_step[steps[named[p]]] += duration[i]

    # Driver self time: run_scenario/run_growth minus the outermost stepper,
    # reconstruction and solver spans inside them.  Spans are stored in call
    # order, so a parent's context is known before its children are seen.
    drivers = {"scenarios.run_scenario", "scenarios.run_growth"}
    owned = {"kdv", "boussinesq", "reconstruct", "findiff"}
    context = [-1] * len(spans)
    driver_self = {}
    for i, name in enumerate(named):
        up = context[parent[i]] if parent[i] >= 0 else -1
        if name in drivers:
            context[i] = i
            driver_self[i] = duration[i]
        elif name.split(".", 1)[0] in owned:
            if up >= 0:
                driver_self[up] -= duration[i]
            context[i] = -1
        else:
            context[i] = up

    metrics = {
        "findiff.solve_calls": float(len(solves)),
        "findiff.solve_s": total(solves),
        "findiff.solve_us_per_call": 1e6 * total(solves) / len(solves) if solves else 0.0,
        "scenarios.driver_self_s": float(sum(driver_self.values())),
        "scenarios.write_s": total(select("scenarios.write_outputs", "scenarios.write_growth_outputs",
                                          "scenarios.write_convergence_outputs")),
        "scenarios.bytes_written": float(sum(spans[i][4] for i in select(
            "scenarios.write_outputs", "scenarios.write_growth_outputs",
            "scenarios.write_convergence_outputs"))),
        "grid.field_inits": float(len(select("grid.Field.__init__"))),
        "grid.norm_s": total(select("grid.discrete_l2", "grid.discrete_h1_eps",
                                    "grid.discrete_sobolev")),
        "reconstruct.topo_calls": float(len(select("reconstruct.topo_modified_surfaces"))),
        "reconstruct.topo_s": total(select("reconstruct.topo_modified_surfaces")),
        "reconstruct.quad_node_terms": float(sum(
            spans[i][4] for i in select("reconstruct._cross_integral_nodes"))),
        "reconstruct.growth_s": total(select("reconstruct.growth_diagnostic")),
        "reconstruct.corrector_calls": float(len(select("reconstruct.corrector_fields"))),
        "trace.spans": float(len(spans)),
    }
    for step_name, layer in steps.items():
        run_name = "kdv.run" if layer == "kdv" else "boussinesq.run_boussinesq"
        step_spans = select(step_name)
        metrics[f"{layer}.step_calls"] = float(len(step_spans))
        metrics[f"{layer}.step_s"] = total(step_spans)
        metrics[f"{layer}.step_self_s"] = total(step_spans) - solve_in_step[layer]
        metrics[f"{layer}.traj_mb"] = max((spans[i][4] for i in select(run_name)), default=0.0) / 1e6
    return metrics

