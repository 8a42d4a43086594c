"""Every config either runs or is refused with a LongwaveError.

One hypothesis property draws whole config dicts: every scenario key, zero,
subnormal, huge and ordinary floats in each numeric field, and bathymetry
dicts of each kind with any subset of their parameters.  Each draw goes
through ``ScenarioConfig.from_dict`` and then its scenario's runner, with
``kdv._start`` and ``boussinesq._start`` (the first step of either stepper)
replaced by a sentinel, so no time step is taken.  A draw must raise a
``LongwaveError`` or reach the sentinel; any other exception (a
``ZeroDivisionError``, an ``OverflowError``, a ``MemoryError``) fails it, and
so does a runner that returns, as it would past a sentinel that no longer
stops the steppers.

The runner call is skipped for configs above 3e5 nodes, to bound the memory
a drawn grid may take; the node-step and storage guards' own tests cover
large configs.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from longwave import boussinesq, kdv, scenarios
from longwave.errors import LongwaveError
from longwave.scenarios import SCENARIOS, ScenarioConfig

_MAX_NODES = 3e5


class _Reached(Exception):
    """Raised in place of a stepper's first step: the config ran."""


def _sentinel(*args, **kwargs):
    raise _Reached


_SPECIAL = [0.0, -0.0, 5e-324, 2.2e-308, -1e-310, 1e300, 1.7976931348623157e308, -1e300]
reals = st.one_of(st.sampled_from(_SPECIAL),
                  st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
                  st.floats(min_value=1e-3, max_value=1.0))

_FLOAT_FIELDS = ("final_time", "domain_length", "dx", "alpha", "shift", "theta", "lambda1",
                 "lambda2", "error_interval", "refl_width_multiplier")
_BOTTOM_PARAMETERS = {
    "flat": (),
    "step": ("beta0", "center", "ramp_half_width"),
    "sinusoid": ("b0", "wavelength", "phase"),
    "slow_sinusoid": ("amplitude", "frequency"),
    "sampled": ("nodes", "values"),
}


@st.composite
def bathymetries(draw):
    kind = draw(st.sampled_from(sorted(_BOTTOM_PARAMETERS)))
    params = _BOTTOM_PARAMETERS[kind]
    names = draw(st.sets(st.sampled_from(params))) if params else ()
    value = st.lists(reals, max_size=4) if kind == "sampled" else reals
    return {"kind": kind, **{name: draw(value) for name in names}}


@st.composite
def configs(draw):
    scenario, growth_kind = draw(st.sampled_from(sorted(SCENARIOS, key=str)))
    data = {"scenario": scenario, "epsilon": draw(reals)}
    if growth_kind is not None:
        data["growth_kind"] = growth_kind
    for name in draw(st.sets(st.sampled_from(_FLOAT_FIELDS))):
        data[name] = draw(reals)
    optional = {
        "bathymetry": bathymetries(),
        "overtime": st.booleans(),
        "snapshot_times": st.lists(reals, min_size=1, max_size=3),
        "refinement_levels": st.integers(-1, 6),
        "sobolev_order": st.integers(-1, 4),
    }
    for name in draw(st.sets(st.sampled_from(sorted(optional)))):
        data[name] = draw(optional[name])
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=configs())
@example(data={"scenario": "step", "epsilon": 0.1, "dx": 0.0})
@example(data={"scenario": "growth", "growth_kind": "sinusoid", "epsilon": 0.1, "dx": 0.0})
@example(data={"scenario": "step", "epsilon": 0.1})  # reaches the sentinel
def test_every_config_runs_or_is_refused(data):
    try:
        config = ScenarioConfig.from_dict(data)
    except LongwaveError:
        return
    if config.domain_length / config.dx > _MAX_NODES:
        return
    runner = getattr(scenarios, SCENARIOS[config.scenario, config.growth_kind].runner)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kdv, "_start", _sentinel)
        patch.setattr(boussinesq, "_start", _sentinel)
        try:
            runner(config)
        except (LongwaveError, _Reached):
            return
    pytest.fail(f"{data}: the runner returned without calling a stepper's _start")

