"""Surface reconstructions from the uncoupled wave solutions, with correctors.

A right-going solver snapshot u(t, x) and a left-going one n(t, x) determine
the slow-scale profiles via u(t, x) = U0(eps*t, x - t) and
n(t, x) = N0(eps*t, x + t).  The classical reconstruction combines them as

    v = (U0 + N0)/2,    eta = (U0 - N0)/2,

evaluated at the shifted arguments, which on a grid with dt = dx is pure
index arithmetic: all characteristic shifts land exactly on nodes.

The first-order corrector of the right-going component is

    U1 = - 1/16 (N0(x+t)^2 - N0(x-t)^2)
         + (a2-a4)/4 (N0''(x+t) - N0''(x-t))
         - 1/8 U0(x-t) (N0(x+t) - N0(x-t))
         + 1/4 U0(x-t) (b(x) - b(x-t))
         - 1/4 U0'(x-t) Int_0^t N0(x-t+2s) ds
         + 1/2 U0'(x-t) Int_0^t b(x-t+s) ds
         + 1/4 Int_0^t b'(x-t+s) N0(x-t+2s) ds

N1 is its mirror: U0 and N0 swap places, the signs of t and s flip in every
argument (x - t + 2s becomes x + t - 2s), and the dispersive and the three
bottom terms change sign.  The integrals can grow secularly for bottoms
without decay; the topography-modified reconstruction adds the bottom terms
X_b = bottom_jump + bottom_integral + bottom_derivative_integral of both
correctors to the classical surfaces,

    v += eps/2 (U1_b + N1_b),    eta += eps/2 (U1_b -+ N1_b),

with - for the ``sign_split`` eta bracket (eta = (U_app - N_app)/2) and +
for ``identical``.  The periodic variant also adds the counter-propagation
terms X_cp: v += eps/2 (U1_cp + N1_cp) and eta += eps/2 (U1_cp - N1_cp).

All time integrals use the composite trapezoid rule with step dt = dx, the
bottom profile sampled on the whole real line (no wrap) and the wave
snapshots with periodic wrap.  Quadrature abscissae of the form x - t + 2s
are read from the counter-propagating snapshot at the matching time, which
requires that trajectory to be stored at every step, or the sum to have been
fed during its run (below).

Each characteristic quadrature is a running sum.  Along the characteristic
with foot c the integrand at step j sits at lattice point y = c + j ('right')
or y = c - j ('left'), so the sum over steps 0..m obeys

    A_m(c) = A_{m-1}(c) + F_m(c +- m),

kept on the extended lattice of n + M feet (M the last stored step) and fed
one snapshot at a time; the trapezoid end weights -F_0/2 and -F_m/2 are
applied when the sum is read out.  The counter trajectory owns its sums:
``Trajectory.sums`` holds one accumulator per (direction, weighted), so they
go when the trajectory goes.  A call at step m' >= m feeds only the snapshots
m+1..m', at cost O((m' - m) (n + M)); a call at an earlier step, or with a
bottom whose b' differs on the extended lattice, starts again from step 0.
An accumulator can also be fed by ``kdv.run``'s per-step hook (``record``)
and keep its read-outs at the stored steps, so a run stored at a coarser
stride serves K_topo once the sum is attached to it.  A trajectory's data is
frozen at construction and cannot be replaced, so a sum cannot go stale.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DiagnosticError
from .findiff import make_d1, make_d2
from .grid import (
    BathymetryProfile,
    Field,
    Grid1D,
    ModelCoefficients,
    _shifted,
    discrete_sobolev,
)
from .kdv import Trajectory

__all__ = [
    "CorrectorBreakdown",
    "SurfaceReconstruction",
    "GrowthDiagnostic",
    "classical_surfaces",
    "bottom_shift_integral",
    "characteristic_cross_integral",
    "corrector_fields",
    "topo_modified_surfaces",
    "growth_diagnostic",
]

ETA_BRACKETS = ("sign_split", "identical")

TERM_NAMES = (
    "quadratic_difference",
    "dispersive_difference",
    "cross_product",
    "bottom_jump",
    "counterprop_integral",
    "bottom_integral",
    "bottom_derivative_integral",
)
_BOTTOM_TERMS = ("bottom_jump", "bottom_integral", "bottom_derivative_integral")


@dataclass
class CorrectorBreakdown:
    """Per-node values of each named corrector term at one time, plus their sum."""

    quadratic_difference: np.ndarray
    dispersive_difference: np.ndarray
    cross_product: np.ndarray
    bottom_jump: np.ndarray
    counterprop_integral: np.ndarray
    bottom_integral: np.ndarray
    bottom_derivative_integral: np.ndarray
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        self.total = sum(getattr(self, name) for name in TERM_NAMES)

    def terms(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TERM_NAMES}


@dataclass
class SurfaceReconstruction:
    """(v, eta) surfaces built from the uncoupled trajectories at one time."""

    v: Field
    eta: Field


def _check_alignment(traj: Trajectory) -> None:
    if traj.dt != traj.grid.dx:
        raise ConfigurationError(
            f"reconstruction requires dt == dx, got dt={traj.dt}, dx={traj.grid.dx}"
        )


def _counter_values(n_traj: Trajectory | None, u_traj: Trajectory, m: int) -> np.ndarray | None:
    """The left-going snapshot at step m, or None for an identically zero one."""
    if n_traj is None:
        return None
    if n_traj.grid != u_traj.grid:
        raise ConfigurationError("trajectories live on different grids")
    if n_traj.dt != u_traj.dt:
        raise ConfigurationError(
            f"trajectories have different time steps, dt={u_traj.dt} and dt={n_traj.dt}"
        )
    return n_traj.at_step(m)


def _require_full_history(traj: Trajectory, m: int, role: str) -> None:
    if not traj.has_every_step_upto(m):
        raise ConfigurationError(
            f"{role} trajectory must be stored at every step up to {m} "
            "(stride 1) to resolve the characteristic quadrature"
        )


def _trapezoid_weights(m: int, dt: float) -> np.ndarray:
    w = np.full(m + 1, dt)
    w[0] = w[-1] = dt / 2.0
    return w if m > 0 else np.zeros(1)


def _bottom_integral_nodes(b: BathymetryProfile, grid: Grid1D, m: int,
                           direction: str) -> np.ndarray:
    """Trapezoid of b along the shifted window for every node.

    direction 'right': Int_0^t b(x_i - t + s) ds over lattice [i-m .. i];
    direction 'left' : Int_0^t b(x_i + t - s) ds over lattice [i .. i+m].
    The profile is evaluated on the real line (no periodic wrap).
    """
    n = grid.num_points
    dt = grid.dx
    if m == 0:
        return np.zeros(n)
    lattice = np.arange(-m, n) * dt if direction == "right" else np.arange(0, n + m) * dt
    first = np.arange(0, n)  # extended index of i - m ('right') or i ('left')
    ext = np.asarray(b.value(lattice), dtype=float)
    csum = np.concatenate(([0.0], np.cumsum(ext)))
    last = first + m
    sums = csum[last + 1] - csum[first]
    return dt * (sums - 0.5 * ext[first] - 0.5 * ext[last])


class _RunningSum:
    """Trapezoid sums along the characteristics of one counter field.

    ``acc[q]`` holds sum_{j <= step} F_j over the characteristic with foot
    q - M ('right') or q ('left'), where F_j is the counter snapshot j on the
    extended lattice of n + M points, times b' there when the weight is a
    bottom profile.  ``feed`` adds the next snapshot, ``read`` sums up to the
    last one fed.  ``attach`` gives the sum to a trajectory, whose snapshots
    ``advance(m)`` then feeds up to m; ``record``, a ``kdv.run`` hook, feeds a
    run as it goes and keeps the read-outs at the steps in ``keep``.
    """

    def __init__(self, weight: BathymetryProfile | None, grid: Grid1D, big_m: int,
                 direction: str, keep=()):
        n, self.dx = grid.num_points, grid.dx
        lattice = np.arange(-big_m, n) if direction == "right" else np.arange(0, n + big_m)
        self.key = (direction, weight is not None)
        self.w_ext = (None if weight is None
                      else np.asarray(weight.derivative(lattice * grid.dx), dtype=float))
        self.direction, self.big_m, self.data = direction, big_m, None
        self.wrap = lattice % n
        self.acc = np.zeros(len(lattice))
        self.step = -1
        self.keep = frozenset(keep)
        self.readouts = {}

    def _integrand(self, values: np.ndarray, lattice: slice) -> np.ndarray:
        vals = values[self.wrap[lattice]]
        return vals if self.w_ext is None else vals * self.w_ext[lattice]

    def feed(self, values: np.ndarray) -> None:
        j, length = self.step + 1, len(self.acc)
        if self.direction == "right":
            self.acc[:length - j] += self._integrand(values, slice(j, None))
        else:
            self.acc[j:] += self._integrand(values, slice(0, length - j))
        if j == 0:
            self.first = values.copy()
        self.step, self.last = j, values

    def advance(self, m: int) -> None:
        for j in range(self.step + 1, m + 1):
            self.feed(self.data[j])

    def read(self) -> np.ndarray:
        m, n = self.step, len(self.last)
        if self.direction == "right":
            feet = slice(self.big_m - m, self.big_m - m + n)
            here = slice(self.big_m, self.big_m + n)
        else:
            feet = slice(m, m + n)
            here = slice(0, n)
        first = self._integrand(self.first, feet)
        last = self.last if self.w_ext is None else self.last * self.w_ext[here]
        return self.dx * (self.acc[feet] - 0.5 * first - 0.5 * last)

    def record(self, m: int, values: np.ndarray) -> None:
        self.feed(values)
        if m in self.keep:
            self.readouts[m] = self.read()
            self.readouts[m].flags.writeable = False

    def attach(self, traj: Trajectory) -> None:
        """Keep this sum in ``traj.sums``, where quadratures over ``traj`` find it."""
        self.data = traj.data
        with _SUMS_LOCK:
            traj.sums[self.key] = self


# Guards every trajectory's ``sums``; reentrant, as a quadrature attaches a
# fresh sum while it holds the lock.
_SUMS_LOCK = threading.RLock()


def _cross_integral_nodes(weight, counter: Trajectory, m: int, direction: str) -> np.ndarray:
    """Trapezoid of weight(y) * field(s, y) along the characteristic for all nodes.

    direction 'right': y = x_i - t + s, field read from the counter snapshot at s
    (abscissa x_i - t + 2s collapses to y once the snapshot time matches s);
    direction 'left':  y = x_i + t - s.  The weight is a bottom profile, whose
    derivative is evaluated unwrapped, or None for weight one; the counter
    snapshots always wrap periodically.  The sum is the counter trajectory's
    own, recorded during its run or advanced over its snapshots (module
    docstring).
    """
    grid = counter.grid
    if m == 0:
        return np.zeros(grid.num_points)
    # M, the last stored step, bounds every m the trajectory can resolve.
    fresh = _RunningSum(weight, grid, int(counter.step_indices[-1]), direction)
    with _SUMS_LOCK:
        state = counter.sums.get(fresh.key)
        valid = state is not None and (fresh.w_ext is None
                                       or np.array_equal(fresh.w_ext, state.w_ext))
        if valid and m in state.readouts:
            return state.readouts[m]
        _require_full_history(counter, m, "counter-propagating")
        if not valid or state.step > m:
            state = fresh
            state.attach(counter)
        state.advance(m)
        return state.read()


def bottom_shift_integral(b: BathymetryProfile, t: float, x: float,
                          direction: str, dt: float) -> float:
    """Int_0^t b(x - t + s) ds ('right') or Int_0^t b(x + t - s) ds ('left'),
    composite trapezoid with step dt; works for any real x."""
    m = int(round(t / dt))
    if abs(m * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigurationError(f"t={t} is not a multiple of the quadrature step {dt}")
    if m == 0:
        return 0.0
    s = np.arange(m + 1) * dt
    if direction == "right":
        pts = x - t + s
    elif direction == "left":
        pts = x + t - s
    else:
        raise ConfigurationError(f"direction must be 'right' or 'left', got {direction!r}")
    vals = np.asarray(b.value(pts), dtype=float)
    return float(np.dot(_trapezoid_weights(m, dt), vals))


def characteristic_cross_integral(weight, counter: Trajectory, t: float, x: float,
                                  direction: str) -> float:
    """Single-point value of the characteristic quadrature used by the correctors.

    direction 'right': Int_0^t weight(x-t+s) * N0(eps s, x-t+2s) ds with the
    counter-propagating profile read from the snapshot at time s; 'left' is
    the mirror with x+t-s and x+t-2s.  ``weight`` may be a bottom profile
    (its derivative is used), a per-node array, or None for weight one.
    ``x`` must be a grid node and the counter trajectory must be stored at
    every step (dt = dx).  A direct O(m) sum over the m+1 snapshots, kept as
    the reference for the running sums of the per-node quadrature.
    """
    _check_alignment(counter)
    grid = counter.grid
    n, dt = grid.num_points, grid.dx
    i = int(round(x / dt))
    if abs(i * dt - x) > 1e-9 * max(1.0, abs(x)) or not 0 <= i < n:
        raise ConfigurationError(f"x={x} is not a node of the counter trajectory grid")
    m = counter.step_of_time(t)
    if m == 0:
        return 0.0
    _require_full_history(counter, m, "counter-propagating")
    steps = np.arange(m + 1)
    if direction == "right":
        y = i - m + steps
    elif direction == "left":
        y = i + m - steps
    else:
        raise ConfigurationError(f"direction must be 'right' or 'left', got {direction!r}")
    vals = counter.data[steps, y % n]
    if isinstance(weight, BathymetryProfile):
        vals = vals * np.asarray(weight.derivative(y * dt), dtype=float)
    elif weight is not None:
        w = weight.values if isinstance(weight, Field) else np.asarray(weight, dtype=float)
        vals = vals * w[y % n]
    return float(np.dot(_trapezoid_weights(m, dt), vals))


def classical_surfaces(u_traj: Trajectory, n_traj: Trajectory | None,
                       t: float) -> SurfaceReconstruction:
    """v = (U0 + N0)/2, eta = (U0 - N0)/2 read directly from the two snapshots.

    ``n_traj=None`` stands for the identically zero left-going component."""
    m = u_traj.step_of_time(t)
    u = u_traj.at_step(m)
    n = _counter_values(n_traj, u_traj, m)
    n = 0.0 if n is None else n
    grid = u_traj.grid
    return SurfaceReconstruction(
        v=Field((u + n) / 2.0, grid),
        eta=Field((u - n) / 2.0, grid),
    )


def _correctors(u_traj: Trajectory, n_traj: Trajectory | None, b: BathymetryProfile,
                coeffs: ModelCoefficients, t: float, names=TERM_NAMES,
                right_only: bool = False) -> tuple[dict, dict | None]:
    """The terms ``names`` of U1 and of N1 (None when ``right_only``) at time t.

    One formula per term serves both correctors: s = +1 gives U1 from its own
    field u and the counter field n, s = -1 gives N1 from own n and counter u.
    A term that multiplies an identically zero field (n for n_traj=None) is
    returned as zeros without being evaluated.
    """
    _check_alignment(u_traj)
    grid = u_traj.grid
    m = u_traj.step_of_time(t)
    u = u_traj.at_step(m)
    n = _counter_values(n_traj, u_traj, m)
    b_here = np.asarray(b.value(grid.nodes), dtype=float)

    def corrector(s, own, counter, counter_traj):
        direction = "right" if s > 0 else "left"

        def across(f):  # f(x) - f(x - 2st) for a function f of the counter field
            return f - _shifted(f, -2 * s * m)

        terms = {name: np.zeros(grid.num_points) for name in names}
        if counter is not None:
            if "quadratic_difference" in terms:
                terms["quadratic_difference"] = -across(counter**2) / 16.0
            if "dispersive_difference" in terms:
                terms["dispersive_difference"] = (s * (coeffs.a2 - coeffs.a4) / 4.0
                                                  * across(make_d2(grid).apply_values(counter)))
            if "bottom_derivative_integral" in terms:
                terms["bottom_derivative_integral"] = (
                    s * _cross_integral_nodes(b, counter_traj, m, direction) / 4.0)
        if own is None:
            return terms
        d_own = make_d1(grid).apply_values(own)
        if "bottom_jump" in terms:
            b_back = np.asarray(b.value(grid.nodes - s * m * grid.dx), dtype=float)
            terms["bottom_jump"] = s * own * (b_here - b_back) / 4.0
        if "bottom_integral" in terms:
            terms["bottom_integral"] = (
                s * d_own * _bottom_integral_nodes(b, grid, m, direction) / 2.0)
        if counter is not None and "cross_product" in terms:
            terms["cross_product"] = -own * across(counter) / 8.0
        if counter is not None and "counterprop_integral" in terms:
            terms["counterprop_integral"] = (
                -d_own * _cross_integral_nodes(None, counter_traj, m, direction) / 4.0)
        return terms

    return corrector(1, u, n, n_traj), None if right_only else corrector(-1, n, u, u_traj)


def corrector_fields(u_traj: Trajectory, n_traj: Trajectory | None,
                     b: BathymetryProfile, coeffs: ModelCoefficients,
                     t: float, components: str = "both"
                     ) -> tuple[CorrectorBreakdown, CorrectorBreakdown | None]:
    """Evaluate every term of the two correctors at time t, per node.

    ``components="right_only"`` skips the left-going corrector (and with it
    the characteristic integrals over the right-going history, which would
    otherwise require stride-1 storage of ``u_traj``)."""
    if components not in ("both", "right_only"):
        raise ConfigurationError("components must be 'both' or 'right_only'")
    u1, n1 = _correctors(u_traj, n_traj, b, coeffs, t, right_only=components == "right_only")
    return CorrectorBreakdown(**u1), None if n1 is None else CorrectorBreakdown(**n1)


def topo_modified_surfaces(u_traj: Trajectory, n_traj: Trajectory | None,
                           b: BathymetryProfile, coeffs: ModelCoefficients,
                           t: float, periodic_variant: bool = False,
                           eta_bracket: str = "sign_split") -> SurfaceReconstruction:
    """Classical surfaces plus eps/2 times the bottom terms of U1 and N1 (and,
    in the periodic variant, their counter-propagation terms).

    ``eta_bracket`` is the sign of N1's bottom terms in eta: ``sign_split``
    (default, -) is what eta = (U_app - N_app)/2 yields and gives the
    reflected wave the same polarity as the coupled model; ``identical`` (+)
    adds the v-bracket to eta unchanged and is kept for sensitivity studies.
    """
    if eta_bracket not in ETA_BRACKETS:
        raise ConfigurationError(
            f"eta_bracket must be one of {ETA_BRACKETS}, got {eta_bracket!r}"
        )
    names = _BOTTOM_TERMS + (("counterprop_integral",) if periodic_variant else ())
    u1, n1 = _correctors(u_traj, n_traj, b, coeffs, t, names)
    classical = classical_surfaces(u_traj, n_traj, t)
    half_eps = coeffs.epsilon / 2.0
    u1_b, n1_b = (sum(terms[name] for name in _BOTTOM_TERMS) for terms in (u1, n1))
    eta_sign = 1.0 if eta_bracket == "identical" else -1.0
    v_vals = classical.v.values + half_eps * (u1_b + n1_b)
    eta_vals = classical.eta.values + half_eps * (u1_b + eta_sign * n1_b)
    if periodic_variant:
        v_vals += half_eps * (u1["counterprop_integral"] + n1["counterprop_integral"])
        eta_vals += half_eps * (u1["counterprop_integral"] - n1["counterprop_integral"])
    return SurfaceReconstruction(
        v=Field(v_vals, u_traj.grid), eta=Field(eta_vals, u_traj.grid),
    )


@dataclass
class GrowthDiagnostic:
    """Corrector norm time series with a least-squares line through them."""

    times: np.ndarray
    u1_norms: np.ndarray
    term_norms: dict[str, np.ndarray]
    sobolev_order: int
    slope: float
    intercept: float
    r_squared: float
    fit_window: tuple[float, float]


def _linear_fit(times: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(times, values, 1)
    predicted = slope * times + intercept
    ss_res = float(np.sum((values - predicted) ** 2))
    ss_tot = float(np.sum((values - np.mean(values)) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def growth_diagnostic(u_traj: Trajectory, n_traj: Trajectory | None,
                      b: BathymetryProfile, coeffs: ModelCoefficients,
                      s: int, fit_window: tuple[float, float] | None = None
                      ) -> GrowthDiagnostic:
    """Sobolev-norm time series of the right-going corrector over all stored
    snapshots, with per-term norms and a linear fit over ``fit_window``."""
    if s > 3:
        raise ConfigurationError(f"growth diagnostics use Sobolev order <= 3, got {s}")
    times = u_traj.times
    if len(times) < 4:
        raise DiagnosticError(f"growth diagnostic needs >= 4 snapshots, got {len(times)}")
    grid = u_traj.grid
    norms = np.empty(len(times))
    term_norms = {name: np.empty(len(times)) for name in TERM_NAMES}
    for k, t in enumerate(times):
        u1, _ = corrector_fields(u_traj, n_traj, b, coeffs, float(t), components="right_only")
        norms[k] = discrete_sobolev(Field(u1.total, grid), s)
        for name, vals in u1.terms().items():
            term_norms[name][k] = discrete_sobolev(Field(vals, grid), s)
    if fit_window is None:
        fit_window = (float(times[0]), float(times[-1]))
    mask = (times >= fit_window[0] - 1e-12) & (times <= fit_window[1] + 1e-12)
    if np.count_nonzero(mask) < 4:
        raise DiagnosticError("fit window contains fewer than 4 snapshots")
    slope, intercept, r_squared = _linear_fit(times[mask], norms[mask])
    return GrowthDiagnostic(
        times=times,
        u1_norms=norms,
        term_norms=term_norms,
        sobolev_order=s,
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        fit_window=fit_window,
    )
