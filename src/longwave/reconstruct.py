"""Surface reconstructions from the right-going solution, with correctors.

Every run starts from v0 = eta0 = u0/2, so the left-going profile N0 is
identically zero and one right-going solver snapshot u(t, x) = U0(eps*t, x - t)
determines the classical surfaces v = eta = U0/2.  With N0 = 0 the
first-order corrector of the right-going component keeps two terms,

    U1 = 1/4 U0(x-t) (b(x) - b(x-t))              (bottom_jump)
       + 1/2 U0'(x-t) Int_0^t b(x-t+s) ds         (bottom_integral),

and of the left-going corrector N1 K_topo takes the bottom terms, of which
one survives, the b'-weighted sum of U0 along the left characteristic,

    N1_b = -1/4 Int_0^t b'(x+t-s) U0(x+t-2s) ds   (bottom_derivative_integral).

U1's other five terms and N1's other bottom terms multiply N0 and vanish, so
``corrector_fields`` holds only the two bottom terms; ``growth_diagnostic``
keeps a column for each of the seven and writes 0.0 for the five.
The integrals can grow secularly for bottoms without decay; the
topography-modified reconstruction K_topo adds them to the classical surfaces,

    v = u/2 + eps/2 (U1 + N1_b),    eta = u/2 + eps/2 (U1 -+ N1_b),

with - for the ``sign_split`` eta bracket (eta = (U_app - N_app)/2) and +
for ``identical``.  Over a flat bottom b = b' = 0, every term is zero and
K_topo is u/2, the flat-bottom KdV approximation K.

All time integrals use the composite trapezoid rule with step dt = dx, which
puts every characteristic shift on a node; the bottom profile is sampled on
the whole real line (no wrap) and the snapshots with periodic wrap.  One
``_Characteristics`` object per run samples the bottom once on the run's
lattice x_j = j dx, for M the last step the run reaches: b on j in [-M, n),
whose prefix sums give U1's integral at any step m <= M as a difference, and
b' on j in [0, n + M), for N1.  The abscissa x + t - 2s of N1's integrand is
read from the snapshot at time s, where it sits at y = x + t - s, so that sum
needs u at every step: stored (stride 1), or fed during the run (below).

N1's quadrature is a running sum.  Along the characteristic with foot c the
integrand at step j sits at lattice point y = c - j, so the sum over steps
0..m obeys

    A_m(c) = A_{m-1}(c) + F_m(c - m),

kept on the extended lattice of n + M feet and fed one snapshot at a time;
the trapezoid end weights -F_0/2 and -F_m/2 are applied when the sum is read
out.  Each runner holds its own object:

* ``scenarios.run_scenario`` builds one (M = N) before K runs; K's per-step
  hook feeds it, and at each error step builds K_topo from the snapshot in
  hand (``_Characteristics.surfaces``), with no trajectory stored at stride 1;
* ``_CorrectorSeries`` (``growth_diagnostic`` and ``run_growth``) and
  ``corrector_fields`` build one over the last stored step for U1 alone; it
  never feeds N1, so b' is not evaluated;
* over a stored trajectory, ``topo_modified_surfaces`` uses the
  trajectory's own object (M its last stored step), which this module keeps
  in a weak-keyed table under ``_SUMS_LOCK``, so it goes when the trajectory
  goes.  A call at step m' >= m feeds only the snapshots m+1..m', at cost
  O((m' - m) (n + M)); a call at an earlier step starts N1's sum again from
  step 0, and a bottom whose b or b' differs on the lattice (both are
  evaluated and compared) gets a new object.  A bottom with b' = 0 takes the
  same path, and its sum reads out zeros.  A trajectory's data is frozen at
  construction and cannot be replaced, so a sum cannot go stale.

U1 at step m therefore depends on M only through the rounding of the prefix
sums, and every runner over the same trajectory uses the same M:
``corrector_fields`` and ``growth_diagnostic`` agree bit for bit, as do the
streamed K_topo of ``run_scenario`` and ``topo_modified_surfaces`` over a
stride-1 trajectory of the same run.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DiagnosticError
from .findiff import make_d1
from .grid import (
    BathymetryProfile,
    Field,
    Grid1D,
    ModelCoefficients,
    discrete_sobolev,
)
from .kdv import Trajectory

__all__ = [
    "CorrectorBreakdown",
    "SurfaceReconstruction",
    "GrowthDiagnostic",
    "corrector_fields",
    "topo_modified_surfaces",
    "growth_diagnostic",
]

ETA_BRACKETS = ("sign_split", "identical")

# The terms of the two-wave corrector U1, the term columns of growth.csv.  All
# but ``bottom_jump`` and ``bottom_integral`` multiply N0 and are zero here.
TERM_NAMES = (
    "quadratic_difference",
    "dispersive_difference",
    "cross_product",
    "bottom_jump",
    "counterprop_integral",
    "bottom_integral",
    "bottom_derivative_integral",
)


@dataclass
class CorrectorBreakdown:
    """Per-node values of U1's two bottom terms at one time, plus their sum
    (U1 itself, since its other terms multiply N0 = 0)."""

    bottom_jump: np.ndarray
    bottom_integral: np.ndarray
    total: np.ndarray = field(init=False)

    def __post_init__(self):
        self.total = self.bottom_jump + self.bottom_integral

    def terms(self) -> dict[str, np.ndarray]:
        return {"bottom_jump": self.bottom_jump, "bottom_integral": self.bottom_integral}


@dataclass
class SurfaceReconstruction:
    """(v, eta) surfaces built from the right-going trajectory at one time."""

    v: Field
    eta: Field


def _refuse_counter(n_traj) -> None:
    """Refuse a left-going trajectory: only None, the zero N0, is supported."""
    if n_traj is not None:
        raise ConfigurationError(
            "n_traj must be None: every run starts from v0 = eta0 = u0/2, so the "
            "left-going component is identically zero"
        )


def _check_alignment(traj: Trajectory) -> None:
    if traj.dt != traj.grid.dx:
        raise ConfigurationError(
            f"reconstruction requires dt == dx, got dt={traj.dt}, dx={traj.grid.dx}"
        )


class _Characteristics:
    """The bottom on one run's lattice x_j = j dx, sampled once, and the
    grid's D1 (module docstring): b on [-M, n) with its prefix sums, for U1's
    two terms at any step m <= M, and, unless ``with_n1`` is False, b' on
    [0, n + M) for N1's running sum, fed one snapshot at a time (``feed``,
    ``read``).  ``surfaces`` combines them into K_topo at step m."""

    def __init__(self, b: BathymetryProfile, grid: Grid1D, big_m: int, with_n1: bool = True):
        self.grid, self.big_m, self.with_n1 = grid, big_m, with_n1
        self.values, self.slopes = self._sample(b)
        self.sums = np.concatenate(([0.0], np.cumsum(self.values)))
        self.d1 = make_d1(grid)
        self.step = -1  # the last snapshot fed to N1's sum

    def _sample(self, b: BathymetryProfile) -> tuple[np.ndarray, np.ndarray | None]:
        """b on [-M, n) and, for N1 only, b' on [0, n + M)."""
        n, big_m, dx = self.grid.num_points, self.big_m, self.grid.dx
        slopes = (np.asarray(b.derivative(np.arange(0, n + big_m) * dx), dtype=float)
                  if self.with_n1 else None)
        return np.asarray(b.value(np.arange(-big_m, n) * dx), dtype=float), slopes

    def matches(self, b: BathymetryProfile) -> bool:
        """Whether b and b' on this object's lattice are the ones it holds."""
        values, slopes = self._sample(b)
        return np.array_equal(values, self.values) and np.array_equal(slopes, self.slopes)

    def u1_terms(self, u: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """U1's ``bottom_jump`` and ``bottom_integral`` at step m from the
        snapshot u there: b(x_i) and b(x_i - t) are lattice values, and the
        trapezoid of Int_0^t b(x_i - t + s) ds over lattice [i-m .. i] a
        difference of prefix sums."""
        n, big_m = self.grid.num_points, self.big_m
        here, back = self.values[big_m:], self.values[big_m - m:big_m - m + n]
        sums = self.sums[big_m + 1:] - self.sums[big_m - m:big_m - m + n]
        integral = self.grid.dx * (sums - 0.5 * back - 0.5 * here) if m else np.zeros(n)
        return u * (here - back) / 4.0, self.d1.apply_values(u) * integral / 2.0

    def feed(self, values: np.ndarray) -> None:
        """Add the next snapshot to N1's sum; after ``step = -1`` it starts
        again from step 0.  ``acc[q]`` holds sum_{j <= step} F_j over the
        characteristic with foot q, F_j being b' times snapshot j, which
        wraps periodically over the lattice (``np.resize`` repeats it)."""
        j = self.step + 1
        if j == 0:
            self.acc = np.zeros(len(self.slopes))
            self.first = values.copy()
        size = len(self.acc) - j
        self.acc[j:] += np.resize(values, size) * self.slopes[:size]
        self.last = values
        self.step = j

    def read(self) -> np.ndarray:
        """N1's trapezoid sum up to the last snapshot fed, at the nodes."""
        m, n = self.step, self.grid.num_points
        first = np.roll(self.first, -m) * self.slopes[m:m + n]  # F_0 at lattice m..m+n-1
        last = self.last * self.slopes[:n]
        return self.grid.dx * (self.acc[m:m + n] - 0.5 * first - 0.5 * last)

    def surfaces(self, u: np.ndarray, m: int, n1: np.ndarray, coeffs: ModelCoefficients,
                 bracket: str) -> tuple[np.ndarray, np.ndarray]:
        """K_topo's (v, eta) values at step m from the snapshot u there: U1's
        bottom terms, N1_b from ``n1``, the characteristic sum
        Int_0^t b'(x+t-s) u(s, x+t-2s) ds at the nodes, and the eta bracket's
        sign (``topo_modified_surfaces``)."""
        jump, integral = self.u1_terms(u, m)
        n1_b = -n1 / 4.0
        half = u / 2.0
        half_eps = coeffs.epsilon / 2.0
        u1 = jump + integral
        eta_sign = 1.0 if bracket == "identical" else -1.0
        return half + half_eps * (u1 + n1_b), half + half_eps * (u1 + eta_sign * n1_b)


# Each stored trajectory's own ``_Characteristics``, held no longer than the
# trajectory.  The lock makes finding, feeding and reading one step; it is
# reentrant, as ``topo_modified_surfaces`` holds it across the quadrature.
_OF_TRAJECTORY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SUMS_LOCK = threading.RLock()


def _cross_integral_nodes(b: BathymetryProfile, counter: Trajectory, m: int) -> np.ndarray:
    """Trapezoid of b'(y) u(s, y) along y = x_i + t - s for all nodes, u the
    right-going trajectory ``counter`` (N1's counter-propagating field).

    N1's integrand b'(x+t-s) U0(x+t-2s) collapses to y once the snapshot
    time matches s.  b' is evaluated unwrapped, the snapshots wrap
    periodically.  The sum is the trajectory's own, fed over its snapshots
    (module docstring); at m = 0 its end weights cancel it to zero.
    """
    with _SUMS_LOCK:
        chars = _OF_TRAJECTORY.get(counter)
        if chars is None or not chars.matches(b):
            # M, the last stored step, bounds every m the trajectory can resolve
            chars = _OF_TRAJECTORY[counter] = _Characteristics(b, counter.grid,
                                                               int(counter.step_indices[-1]))
        if not counter.has_every_step_upto(m):
            raise ConfigurationError(
                f"the right-going trajectory must be stored at every step up to {m} "
                "(stride 1) to resolve the characteristic quadrature")
        if chars.step > m:
            chars.step = -1
        for j in range(chars.step + 1, m + 1):
            chars.feed(counter.data[j])
        return chars.read()


def corrector_fields(u_traj: Trajectory, n_traj: None, b: BathymetryProfile,
                     t: float) -> CorrectorBreakdown:
    """U1's two bottom terms at time t, per node (``_Characteristics.u1_terms``
    over the trajectory's last stored step, as ``growth_diagnostic``).

    ``n_traj`` must be None (N0 = 0).  U1 needs only the snapshot at t, so
    ``u_traj`` may be stored at any stride."""
    _refuse_counter(n_traj)
    _check_alignment(u_traj)
    m = u_traj.step_of_time(t)
    chars = _Characteristics(b, u_traj.grid, int(u_traj.step_indices[-1]), with_n1=False)
    return CorrectorBreakdown(*chars.u1_terms(u_traj.at_step(m), m))


def topo_modified_surfaces(u_traj: Trajectory, n_traj: None, b: BathymetryProfile,
                           coeffs: ModelCoefficients, t: float,
                           eta_bracket: str = "sign_split") -> SurfaceReconstruction:
    """The classical surfaces u/2 plus eps/2 times U1 and N1_b (module docstring).

    ``n_traj`` must be None (N0 = 0).  ``eta_bracket`` is the sign of N1_b in
    eta: ``sign_split`` (default, -) is what eta = (U_app - N_app)/2 yields
    and gives the reflected wave the same polarity as the coupled model;
    ``identical`` (+) adds the v-bracket to eta unchanged and is kept for
    sensitivity studies.
    """
    _refuse_counter(n_traj)
    if eta_bracket not in ETA_BRACKETS:
        raise ConfigurationError(
            f"eta_bracket must be one of {ETA_BRACKETS}, got {eta_bracket!r}"
        )
    _check_alignment(u_traj)
    m = u_traj.step_of_time(t)
    u = u_traj.at_step(m)
    with _SUMS_LOCK:
        n1 = _cross_integral_nodes(b, u_traj, m)
        chars = _OF_TRAJECTORY[u_traj]  # the object the quadrature matched to b
    v, eta = chars.surfaces(u, m, n1, coeffs, eta_bracket)
    return SurfaceReconstruction(v=Field(v, u_traj.grid), eta=Field(eta, u_traj.grid))


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


class _CorrectorSeries:
    """U1's H^s norms at the given steps: ``record(m, u)``, a ``kdv.run`` hook,
    fills step m's row, ``diagnostic`` fits the line.  Too few steps, in all or
    in the fit window, are refused here, before any snapshot is fed."""

    def __init__(self, b: BathymetryProfile, grid: Grid1D, s: int, steps: np.ndarray,
                 fit_window: tuple[float, float] | None = None):
        if s > 3:
            raise ConfigurationError(f"growth diagnostics use Sobolev order <= 3, got {s}")
        times = self.times = steps * grid.dx
        if len(times) < 4:
            raise DiagnosticError(f"growth diagnostic needs >= 4 snapshots, got {len(times)}")
        if fit_window is None:
            fit_window = (float(times[0]), float(times[-1]))
        self.mask = (times >= fit_window[0] - 1e-12) & (times <= fit_window[1] + 1e-12)
        if np.count_nonzero(self.mask) < 4:
            raise DiagnosticError("fit window contains fewer than 4 snapshots")
        self.grid, self.s, self.fit_window = grid, s, fit_window
        self.characteristics = _Characteristics(b, grid, int(steps[-1]), with_n1=False)
        self.row_of = {m: k for k, m in enumerate(steps.tolist())}
        self.norms = np.empty(len(times))
        # the terms that multiply N0 keep their columns at an exact 0.0
        self.term_norms = {name: np.zeros(len(times)) for name in TERM_NAMES}

    def record(self, m: int, u: np.ndarray) -> None:
        k = self.row_of.get(m)
        if k is not None:
            u1 = CorrectorBreakdown(*self.characteristics.u1_terms(u, m))
            self.norms[k] = discrete_sobolev(Field(u1.total, self.grid), self.s)
            for name, vals in u1.terms().items():
                self.term_norms[name][k] = discrete_sobolev(Field(vals, self.grid), self.s)

    def diagnostic(self) -> GrowthDiagnostic:
        fit = _linear_fit(self.times[self.mask], self.norms[self.mask])
        return GrowthDiagnostic(self.times, self.norms, self.term_norms, self.s, *fit,
                                self.fit_window)


def growth_diagnostic(u_traj: Trajectory, n_traj: None,
                      b: BathymetryProfile, coeffs: ModelCoefficients,
                      s: int, fit_window: tuple[float, float] | None = None
                      ) -> GrowthDiagnostic:
    """Sobolev-norm time series of the right-going corrector over all stored
    snapshots (fed to a ``_CorrectorSeries``), with per-term norms and a
    linear fit over ``fit_window``.

    ``n_traj`` must be None (N0 = 0).  U1 does not depend on ``coeffs``
    once N0 = 0; the argument keeps its place for positional callers."""
    _refuse_counter(n_traj)
    _check_alignment(u_traj)
    series = _CorrectorSeries(b, u_traj.grid, s, u_traj.step_indices, fit_window)
    for m, u in zip(u_traj.step_indices.tolist(), u_traj.data):
        series.record(m, u)
    return series.diagnostic()
