"""Grids, fields, bottom profiles, model coefficients, and discrete norms.

Everything downstream (the two time steppers, the surface reconstructions and
the experiment driver) is built on the types defined here:

* ``Grid1D`` / ``TimeGrid``  -- periodic spatial grid and uniform time axis.
  The corrector quadratures require ``dt == dx`` so that characteristic
  shifts ``x - t + s`` land exactly on grid nodes.
* ``Field``                  -- one real value per node, finite by construction.
* ``BathymetryProfile``      -- bottom shapes b(x) defined on all of R
  (constant continuation outside their active region) with exact derivatives.
* ``ModelCoefficients``      -- the admissible parameter triples
  (theta, lambda1, lambda2) and the derived dispersion/smoothing
  coefficients a1..a4.
* ``SolitonSpec``            -- the sech^2 solitary wave used as initial data
  and as the analytic reference in validation runs.

Discrete norms use the forward scaling sqrt(dx * sum(.)), the Riemann-sum
discretization of the continuum L2 norm.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridMismatchError

__all__ = [
    "Grid1D",
    "TimeGrid",
    "Field",
    "BathymetryProfile",
    "FlatBottom",
    "StepBottom",
    "SinusoidBottom",
    "SlowSinusoidBottom",
    "SampledBottom",
    "bathymetry_from_config",
    "ModelCoefficients",
    "SolitonSpec",
    "soliton_field",
    "discrete_l2",
    "discrete_h1_eps",
    "discrete_sobolev",
]


class Grid1D:
    """Uniform periodic grid with nodes x_i = i*dx, i in [0, N).

    The domain length is always derived as N*dx (never the reverse), so
    ``dx * num_points == length`` holds exactly in floating point.
    """

    def __init__(self, num_points: int, dx: float):
        if num_points < 8:
            raise ConfigurationError(f"grid needs at least 8 points, got {num_points}")
        if dx <= 0.0:
            raise ConfigurationError(f"dx must be positive, got {dx}")
        self.num_points = int(num_points)
        self.dx = float(dx)
        self.length = self.num_points * self.dx
        self.nodes = np.arange(self.num_points) * self.dx

    @classmethod
    def from_length(cls, length: float, dx: float) -> "Grid1D":
        """Grid with N = round(length/dx) nodes; the realized length is N*dx."""
        return cls(int(round(length / dx)), dx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid1D)
            and self.num_points == other.num_points
            and self.dx == other.dx
        )

    def __hash__(self):
        return hash((self.num_points, self.dx))

    def __repr__(self):
        return f"Grid1D(num_points={self.num_points}, dx={self.dx})"


class TimeGrid:
    """Uniform time axis t_n = n*dt, n in [0, num_steps]."""

    def __init__(self, num_steps: int, dt: float):
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        self.num_steps = int(num_steps)
        self.dt = float(dt)
        self.final_time = self.num_steps * self.dt

    @classmethod
    def from_final_time(cls, final_time: float, dt: float) -> "TimeGrid":
        """Time grid with num_steps = round(final_time/dt).

        The realized final time is num_steps*dt, which may differ from the
        requested one by up to dt/2 when final_time is not a step multiple.
        """
        return cls(max(1, int(round(final_time / dt))), dt)

    def __repr__(self):
        return f"TimeGrid(num_steps={self.num_steps}, dt={self.dt})"


class Field:
    """Real values on the nodes of a Grid1D.  Non-finite entries are a hard error."""

    def __init__(self, values, grid: Grid1D):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.num_points,):
            raise GridMismatchError(
                f"field has shape {values.shape}, grid has {grid.num_points} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("field contains non-finite values")
        self.values = values
        self.grid = grid

    def __repr__(self):
        return f"Field(n={self.grid.num_points}, dx={self.grid.dx})"


# ---------------------------------------------------------------------------
# Bottom profiles
# ---------------------------------------------------------------------------

class BathymetryProfile:
    """Bottom elevation b(x), evaluable (with derivative) at any real x.

    All profiles extend to the whole real line: analytic formulas where they
    have one, constant continuation elsewhere.  This matters because the
    corrector quadratures sample b outside the computational window [0, L).
    """

    def value(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def sample(self, grid: Grid1D) -> np.ndarray:
        """b at the grid nodes (the diagonal of the bottom matrix)."""
        return np.asarray(self.value(grid.nodes), dtype=float)

    def is_flat(self) -> bool:
        return False


class FlatBottom(BathymetryProfile):
    """b(x) = 0 everywhere."""

    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def is_flat(self) -> bool:
        return True


class StepBottom(BathymetryProfile):
    """Smooth step of height beta0: flat at 0 on the left, flat at beta0 on
    the right, joined by a half-period sine ramp of half-width w around
    ``center``:

        b(x) = beta0/2 * (1 + sin(pi/(2w) * (x - center)))   for |x - center| <= w.

    Both b and b' are continuous at the ramp ends.
    """

    def __init__(self, beta0: float, center: float, ramp_half_width: float = 1.5):
        if ramp_half_width <= 0.0:
            raise ConfigurationError("ramp_half_width must be positive")
        self.beta0 = float(beta0)
        self.center = float(center)
        self.ramp_half_width = float(ramp_half_width)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        w = self.ramp_half_width
        xi = np.clip(x - self.center, -w, w)
        return self.beta0 / 2.0 * (1.0 + np.sin(np.pi / (2.0 * w) * xi))

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        w = self.ramp_half_width
        xi = x - self.center
        inside = np.abs(xi) < w
        out = np.zeros_like(xi)
        out[inside] = (
            self.beta0 / 2.0 * np.pi / (2.0 * w)
            * np.cos(np.pi / (2.0 * w) * xi[inside])
        )
        return out


class SinusoidBottom(BathymetryProfile):
    """b(x) = b0 * sin(phase + 2*pi*x / wavelength), defined on all of R."""

    def __init__(self, b0: float, wavelength: float, phase: float = math.pi / 2.0):
        if wavelength <= 0.0:
            raise ConfigurationError("wavelength must be positive")
        self.b0 = float(b0)
        self.wavelength = float(wavelength)
        self.phase = float(phase)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.b0 * np.sin(self.phase + 2.0 * np.pi * x / self.wavelength)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        k = 2.0 * np.pi / self.wavelength
        return self.b0 * k * np.cos(self.phase + k * x)


class SlowSinusoidBottom(BathymetryProfile):
    """b(x) = amplitude * sin(frequency * x): slow modulation when frequency
    equals the small parameter epsilon."""

    def __init__(self, amplitude: float, frequency: float):
        if frequency <= 0.0:
            raise ConfigurationError("frequency must be positive")
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * np.sin(self.frequency * x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return self.amplitude * self.frequency * np.cos(self.frequency * x)


class SampledBottom(BathymetryProfile):
    """Piecewise-linear interpolation of sampled (node, value) pairs.

    Outside the sampled range both b and b' continue constantly (b' = 0).
    Derivative samples are centered differences of the values, interpolated
    linearly like the values themselves; nodes so close that a difference is
    not finite are refused, with no numpy warning.
    """

    def __init__(self, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.size == 0:
            raise ConfigurationError("sampled bathymetry needs at least one node")
        if nodes.shape != values.shape or nodes.ndim != 1:
            raise ConfigurationError("sampled bathymetry nodes/values shape mismatch")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise ConfigurationError("sampled bathymetry nodes must be increasing")
        self.nodes = nodes
        self.values_at_nodes = values
        if nodes.size == 1:
            self.derivative_values = np.zeros(1)
        else:
            with np.errstate(all="ignore"):
                self.derivative_values = np.gradient(values, nodes)
            bad = np.flatnonzero(~np.isfinite(self.derivative_values))
            if bad.size:
                raise ConfigurationError(
                    f"sampled bathymetry slope is not finite at nodes {bad.tolist()} "
                    f"(x = {nodes[bad].tolist()}); spread those nodes apart")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.nodes, self.values_at_nodes)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.nodes, self.derivative_values)
        outside = (x < self.nodes[0]) | (x > self.nodes[-1])
        return np.where(outside, 0.0, out)


def bathymetry_from_config(cfg: dict) -> BathymetryProfile:
    """Build a profile from a JSON-style dict with a ``kind`` discriminator."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigurationError("bathymetry config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    params = {k: v for k, v in cfg.items() if k != "kind"}
    profiles = {
        "flat": FlatBottom,
        "step": StepBottom,
        "sinusoid": SinusoidBottom,
        "slow_sinusoid": SlowSinusoidBottom,
        "sampled": SampledBottom,
    }
    if kind not in profiles:
        raise ConfigurationError(f"unknown bathymetry kind {kind!r}")
    # every parameter is a real number, or for ``sampled`` a list of them;
    # a bool or a string is refused, not converted by float()
    # (an unknown name is left to the profile class's TypeError below)
    accepted, sampled = inspect.signature(profiles[kind]).parameters, kind == "sampled"
    for name, value in params.items():
        entries = value if sampled and isinstance(value, (list, tuple, np.ndarray)) else [value]
        if name in accepted and not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                        for v in entries):
            raise ConfigurationError(f"bathymetry {kind!r} parameter {name!r} must be "
                                     f"{'real numbers' if sampled else 'a real number'}, "
                                     f"got {value!r}")
    try:
        return profiles[kind](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameters for bathymetry {kind!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Model coefficients
# ---------------------------------------------------------------------------

_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class ModelCoefficients:
    """Parameters (theta, lambda1, lambda2, epsilon) of the symmetric system
    and the derived coefficients

        a1 = -lambda1 (theta^2 - 1)/2      a2 = (lambda1 - 1)(theta^2 - 1)/2
        a3 =  lambda2 (theta^2/2 - 1/6)    a4 = (1 - lambda2)(theta^2/2 - 1/6)

    Admissibility (a1 == a3, a2 >= 0, a4 >= 0) is enforced at construction;
    it implies a1 + (a2 + a4)/2 = 1/6, the dispersion coefficient of the
    uncoupled wave equations.  a1..a4 are derived only, never passed.
    """

    theta: float
    lambda1: float
    lambda2: float
    epsilon: float
    a1: float = field(init=False)
    a2: float = field(init=False)
    a3: float = field(init=False)
    a4: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in [0, 1], got {self.theta}")
        if self.epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        t2 = self.theta**2
        a1 = -self.lambda1 * (t2 - 1.0) / 2.0
        a2 = (self.lambda1 - 1.0) * (t2 - 1.0) / 2.0
        a3 = self.lambda2 * (t2 / 2.0 - 1.0 / 6.0)
        a4 = (1.0 - self.lambda2) * (t2 / 2.0 - 1.0 / 6.0)
        if abs(a1 - a3) > _COEFF_TOL * max(1.0, abs(a1)):
            raise ConfigurationError(
                f"inadmissible triple: a1={a1} != a3={a3} "
                f"(theta={self.theta}, lambda1={self.lambda1}, lambda2={self.lambda2})"
            )
        if a2 < -_COEFF_TOL or a4 < -_COEFF_TOL:
            raise ConfigurationError(f"inadmissible triple: a2={a2}, a4={a4} must be >= 0")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", max(a2, 0.0))
        object.__setattr__(self, "a3", a3)
        object.__setattr__(self, "a4", max(a4, 0.0))

    @classmethod
    def balanced(cls, epsilon: float) -> "ModelCoefficients":
        """theta = sqrt(2/3), lambda1 = lambda2 = 1/2: a1 = a2 = a3 = a4 = 1/12."""
        return cls(math.sqrt(2.0 / 3.0), 0.5, 0.5, epsilon)

    @classmethod
    def zero_smoothing(cls, epsilon: float) -> "ModelCoefficients":
        """theta = sqrt(2/3), lambda1 = lambda2 = 1: a1 = a3 = 1/6, a2 = a4 = 0.

        Drops the smoothing terms; used for the corrector growth analyses.
        """
        return cls(math.sqrt(2.0 / 3.0), 1.0, 1.0, epsilon)


# ---------------------------------------------------------------------------
# Solitary wave
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolitonSpec:
    """Right-going solitary wave alpha / cosh^2(k (x - c t + shift)) with

        c = 1 + epsilon*alpha/4,    k = sqrt(3*alpha/8).

    At t = 0 the crest sits at x = -shift.
    """

    alpha: float
    shift: float
    epsilon: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ConfigurationError(f"soliton amplitude must be positive, got {self.alpha}")
        if self.epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def speed(self) -> float:
        return 1.0 + self.epsilon * self.alpha / 4.0

    @property
    def width_param(self) -> float:
        return math.sqrt(3.0 * self.alpha / 8.0)

    def evaluate(self, x, t: float = 0.0):
        x = np.asarray(x, dtype=float)
        arg = self.width_param * (x - self.speed * t + self.shift)
        with np.errstate(over="ignore"):  # far tails: cosh^2 is inf, alpha / inf is 0
            return self.alpha / np.cosh(arg) ** 2


def soliton_field(spec: SolitonSpec, grid: Grid1D, t: float = 0.0) -> Field:
    """Sample the solitary wave at the grid nodes at time t (no periodic wrap:
    scenarios are sized so the crest stays inside the window)."""
    return Field(spec.evaluate(grid.nodes, t), grid)


# ---------------------------------------------------------------------------
# Discrete norms
# ---------------------------------------------------------------------------

def _padded(values: np.ndarray, width: int) -> np.ndarray:
    """values with ``width`` periodic neighbours on each side: entry j + width
    is values[j mod n] for -width <= j < n + width (width <= n)."""
    return np.concatenate((values[-width:], values, values[:width]))


def discrete_l2(f: Field) -> float:
    """sqrt(dx * sum f_i^2)."""
    return math.sqrt(f.grid.dx * float(np.dot(f.values, f.values)))


def discrete_h1_eps(v: Field, eta: Field, coeffs: ModelCoefficients) -> float:
    """Square root of |v|^2 + |eta|^2 + eps*a2*|D+ v|^2 + eps*a4*|D+ eta|^2.

    This is the epsilon-weighted energy the symmetric system conserves:
    derivatives use the forward difference D+, because the centered second
    difference factors as D2 = -D+^T D+, so <w, (I - eps a D2) w> is exactly
    |w|^2 + eps a |D+ w|^2.
    """
    if v.grid != eta.grid:
        raise GridMismatchError("fields live on different grids")
    dx = v.grid.dx
    total = float(np.dot(v.values, v.values) + np.dot(eta.values, eta.values))
    dv = (_padded(v.values, 1)[2:] - v.values) / dx
    de = (_padded(eta.values, 1)[2:] - eta.values) / dx
    total += coeffs.epsilon * coeffs.a2 * float(np.dot(dv, dv))
    total += coeffs.epsilon * coeffs.a4 * float(np.dot(de, de))
    return math.sqrt(dx * total)


def discrete_sobolev(f: Field, s: int) -> float:
    """sqrt(sum_{m=0..s} |D1^m f|^2) with the discrete L2 norm, 0 <= s <= 5,
    D1 the steppers' own (``findiff.make_d1``)."""
    from .findiff import make_d1  # findiff imports this module

    if not 0 <= s <= 5:
        raise ConfigurationError(f"Sobolev order must lie in [0, 5], got {s}")
    d1 = make_d1(f.grid)
    values = f.values
    total = float(np.dot(values, values))
    for _ in range(s):
        values = d1.apply_values(values)
        total += float(np.dot(values, values))
    return math.sqrt(f.grid.dx * total)
