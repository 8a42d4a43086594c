"""Output checks for the benchmark workloads.

Each check recomputes a quantity from the program's written files or returned
arrays with formulas written out here from the model's definitions (the
solitary wave, the step bottom, the conserved energy, the K_topo bracket), or
tests a property the scheme must have.  None compares against a stored copy
of earlier output.

A check is a dict ``{"name", "value", "bound", "ok"}``; ``value`` is the
measured quantity and ``bound`` the limit it must respect.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ENERGY_DRIFT_MAX = 1e-10
TOPO_TO_K_ERROR_MAX = 0.5
K_LEFT_OF_CREST_MAX = 1e-6      # times the wave amplitude alpha
ORACLE_MAX = 1e-10              # absolute, on eta
K_L2_DRIFT_MAX = 1e-6
GROWTH_R2_MIN = 0.95
HALVING_RATIO = (1.4, 2.8)

# Nodes closer than this many widths 1/k behind the K crest still carry the
# solitary wave's own tail (alpha * 4 e^{-20} ~ 4e-9 at ten widths).
CREST_CLEARANCE_WIDTHS = 10.0


def check(name: str, value: float, bound, ok: bool) -> dict:
    return {"name": name, "value": float(value), "bound": bound, "ok": bool(ok)}


def outputs_missing() -> dict:
    """The failing check of a round whose operation failed before its outputs
    could be checked."""
    return check("outputs_present", 0, ">=1", False)


# ---------------------------------------------------------------------------
# Model definitions, written out independently of the package
# ---------------------------------------------------------------------------

def wave_speed(alpha: float, eps: float) -> float:
    return 1.0 + eps * alpha / 4.0


def width_param(alpha: float) -> float:
    return math.sqrt(3.0 * alpha / 8.0)


def soliton(x: np.ndarray, alpha: float, shift: float, eps: float, t: float = 0.0) -> np.ndarray:
    """alpha / cosh^2(k (x - c t + shift)), crest at x = -shift when t = 0."""
    arg = width_param(alpha) * (x - wave_speed(alpha, eps) * t + shift)
    return alpha / np.cosh(arg) ** 2


def smoothing_coefficients(theta: float, lambda1: float, lambda2: float) -> tuple[float, float]:
    """(a2, a4) of the symmetric system for an admissible (theta, lambda1, lambda2)."""
    a2 = (lambda1 - 1.0) * (theta**2 - 1.0) / 2.0
    a4 = (1.0 - lambda2) * (theta**2 / 2.0 - 1.0 / 6.0)
    return a2, a4


def step_bottom(x, beta0: float, center: float, half_width: float) -> np.ndarray:
    """Sine ramp of height beta0 over |x - center| <= half_width, flat outside."""
    xi = np.clip(np.asarray(x, dtype=float) - center, -half_width, half_width)
    return beta0 / 2.0 * (1.0 + np.sin(np.pi / (2.0 * half_width) * xi))


def step_bottom_slope(x, beta0: float, center: float, half_width: float) -> np.ndarray:
    xi = np.asarray(x, dtype=float) - center
    k = np.pi / (2.0 * half_width)
    return np.where(np.abs(xi) < half_width, beta0 / 2.0 * k * np.cos(k * xi), 0.0)


def energy(v: np.ndarray, eta: np.ndarray, dx: float, eps: float, a2: float, a4: float) -> float:
    """dx * sum(v^2 + eta^2 + eps a2 (D+ v)^2 + eps a4 (D+ eta)^2), periodic.

    Forward differences: the scheme's mass operator I - eps a D2 factors as
    I + eps a D+^T D+, so this is the quantity it conserves exactly."""
    dv = (np.roll(v, -1) - v) / dx
    de = (np.roll(eta, -1) - eta) / dx
    return dx * float(np.sum(v * v + eta * eta + eps * a2 * dv * dv + eps * a4 * de * de))


# ---------------------------------------------------------------------------
# Reading the program's files
# ---------------------------------------------------------------------------

def read_config(out_dir: Path) -> dict:
    with open(Path(out_dir) / "meta.json") as fh:
        return json.load(fh)["config"]


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, j] for j, name in enumerate(header)}


def read_snapshots(out_dir: Path) -> list[tuple[float, dict[str, np.ndarray]]]:
    """(t, columns) of every snapshot_t<t>.csv, in time order."""
    snaps = []
    for path in Path(out_dir).glob("snapshot_t*.csv"):
        snaps.append((float(path.stem[len("snapshot_t"):]), read_csv_columns(path)))
    return sorted(snaps, key=lambda s: s[0])


# ---------------------------------------------------------------------------
# simulate_step
# ---------------------------------------------------------------------------

def simulate_checks(out_dir: Path) -> list[dict]:
    """Energy conservation of B, K_topo beating K after the crossing, and no
    spurious wave behind the K crest, all recomputed from the snapshot CSVs."""
    cfg = read_config(out_dir)
    snaps = read_snapshots(out_dir)
    if not snaps:
        return [check("snapshots_present", 0, ">=1", False)]
    eps, alpha, shift = cfg["epsilon"], cfg["alpha"], cfg["shift"]
    a2, a4 = smoothing_coefficients(cfg["theta"], cfg["lambda1"], cfg["lambda2"])

    x = snaps[0][1]["x"]
    dx = cfg["dx"]
    u0 = soliton(x, alpha, shift, eps)
    e0 = energy(u0 / 2.0, u0 / 2.0, dx, eps, a2, a4)
    drift = max(abs(energy(c["v_boussinesq"], c["eta_boussinesq"], dx, eps, a2, a4) - e0) / e0
                for _, c in snaps)

    crossing = (cfg["bathymetry"]["center"] + shift) / wave_speed(alpha, eps)
    ratios = []
    for t, c in snaps:
        if t <= crossing:
            continue
        scale = np.max(np.abs(c["eta_boussinesq"]))
        err_k = np.max(np.abs(c["eta_kdv"] - c["eta_boussinesq"])) / scale
        err_topo = np.max(np.abs(c["eta_kdv_topo"] - c["eta_boussinesq"])) / scale
        ratios.append(err_topo / err_k)

    length = len(x) * dx
    clearance = CREST_CLEARANCE_WIDTHS / width_param(alpha)
    behind = 0.0
    for _, c in snaps:
        eta_k = c["eta_kdv"]
        distance = (x[np.argmax(eta_k)] - x) % length
        region = (distance >= clearance) & (distance <= length / 2.0)
        behind = max(behind, float(np.max(np.abs(eta_k[region]))) / alpha)

    return [
        check("energy_drift", drift, ENERGY_DRIFT_MAX, drift <= ENERGY_DRIFT_MAX),
        check("topo_to_k_error", max(ratios, default=math.inf), TOPO_TO_K_ERROR_MAX,
              bool(ratios) and max(ratios) <= TOPO_TO_K_ERROR_MAX),
        check("k_behind_crest", behind, K_LEFT_OF_CREST_MAX, behind <= K_LEFT_OF_CREST_MAX),
    ]


# ---------------------------------------------------------------------------
# topo_step
# ---------------------------------------------------------------------------

def topo_eta_oracle(rows: np.ndarray, i: int, m: int, dx: float, eps: float,
                    bottom: dict) -> float:
    """K_topo surface eta at node i, step m, by direct summation.

    With only a right-going solution u and no left-going one, the bracket of
    the topography-modified reconstruction reduces to

        eta = U0/2 + eps/4 [ U0'(x-t) Int_0^t b(x-t+s) ds
                             + 1/2 U0(x-t) (b(x) - b(x-t))
                             + 1/2 Int_0^t b'(x+t-s) U0(eps s, x+t-2s) ds ],

    the last (left-characteristic) term entering eta with its sign flipped
    relative to v.  The solver works in the fast frame, so the slow profile
    is read as U0(eps s, y) = u(s, y + s); U0(x - t) at time t is u(t, x) and
    U0' is its centered difference.  Integrals are composite trapezoids with
    ds = dt = dx, b on the real line, u periodic.
    """
    n = rows.shape[1]
    t = m * dx
    x = i * dx
    beta0, center, w = bottom["beta0"], bottom["center"], bottom["ramp_half_width"]

    def profile(j, y_index):  # U0(eps s_j, y) with y = y_index * dx
        return rows[j, (y_index + j) % n]

    u = rows[m]
    u_here = profile(m, i - m)
    du = (u[(i + 1) % n] - u[(i - 1) % n]) / (2.0 * dx)
    s = np.arange(m + 1)
    weights = np.full(m + 1, dx)
    weights[0] = weights[-1] = dx / 2.0
    if m == 0:
        weights[:] = 0.0
    ib = float(np.dot(weights, step_bottom(x - t + s * dx, beta0, center, w)))
    jb = float(np.dot(weights, step_bottom_slope(x + t - s * dx, beta0, center, w)
                      * profile(s, i + m - 2 * s)))
    jump = step_bottom(x, beta0, center, w) - step_bottom(x - t, beta0, center, w)
    return u_here / 2.0 + eps / 4.0 * (du * ib + 0.5 * u_here * jump + 0.5 * jb)


def oracle_sample(rng: np.random.Generator, error_steps: list[int], rows: np.ndarray,
                  dx: float, alpha: float, eps: float, shift: float, bottom: dict,
                  *, num_times: int = 8, per_group: int = 16) -> dict[int, np.ndarray]:
    """Seeded sample of (step, nodes) for the oracle.

    Times are drawn mostly from after the crest has crossed the step, so the
    left-characteristic term is nonzero somewhere.  Nodes come in three
    groups per time: uniform over the grid, near the K crest, and near the
    reflected wave, whose position center - (t - t_cross) is predicted from
    the geometry alone."""
    n = rows.shape[1]
    length = n * dx
    crossing = (bottom["center"] + shift) / wave_speed(alpha, eps)
    halfband = 6.0 / width_param(alpha)
    late = [m for m in error_steps if m * dx > crossing]
    picked = set(rng.choice(late, size=min(num_times - 2, len(late)), replace=False).tolist())
    rest = [m for m in error_steps if m not in picked]
    picked |= set(rng.choice(rest, size=min(2, len(rest)), replace=False).tolist())

    sample = {}
    for m in sorted(picked):
        t = m * dx
        crest = float(np.argmax(rows[m])) * dx
        reflected = bottom["center"] - (t - crossing)
        groups = [rng.uniform(0.0, length, per_group)]
        for mid in (crest, reflected):
            groups.append(mid + rng.uniform(-halfband, halfband, per_group))
        nodes = np.round(np.concatenate(groups) / dx).astype(int) % n
        sample[int(m)] = np.unique(nodes)
    return sample


def topo_checks(rows: np.ndarray, dx: float, eps: float, bottom: dict,
                eta_by_step: dict[int, np.ndarray], sample: dict[int, np.ndarray]) -> list[dict]:
    """The program's K_topo eta against the direct-sum oracle at the sampled
    nodes, and conservation of K's discrete L2 norm over the whole run.  An
    empty sample, or a sampled step with no eta, fails the oracle check."""
    if not sample or any(m not in eta_by_step for m in sample):
        worst = math.inf
    else:
        worst = max(abs(topo_eta_oracle(rows, int(i), m, dx, eps, bottom) - eta_by_step[m][i])
                    for m, nodes in sample.items() for i in nodes)
    norms = np.sqrt(dx * np.einsum("ij,ij->i", rows, rows))
    l2_drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    return [
        check("topo_oracle", worst, ORACLE_MAX, worst <= ORACLE_MAX),
        check("k_l2_drift", l2_drift, K_L2_DRIFT_MAX, l2_drift <= K_L2_DRIFT_MAX),
    ]


# ---------------------------------------------------------------------------
# growth_sweep
# ---------------------------------------------------------------------------

def r_squared(t: np.ndarray, y: np.ndarray) -> float:
    """Coefficient of determination of the least-squares line through (t, y)."""
    tc, yc = t - t.mean(), y - y.mean()
    slope = float(np.dot(tc, yc) / np.dot(tc, tc))
    residual = yc - slope * tc
    return 1.0 - float(np.dot(residual, residual) / np.dot(yc, yc))


def growth_checks(step_dir: Path, sinusoid_dirs: list[Path]) -> list[dict]:
    """Linear corrector growth after a step crossing; 1/eps amplitude scaling
    over a slow sinusoid (``sinusoid_dirs`` in order of halving eps)."""
    cfg = read_config(step_dir)
    series = read_csv_columns(Path(step_dir) / "growth.csv")
    crossing = (cfg["bathymetry"]["center"] + cfg["shift"]) / wave_speed(cfg["alpha"], cfg["epsilon"])
    window = series["t"] >= crossing + 1.0
    r2 = r_squared(series["t"][window], series["u1_norm"][window])

    peaks = [float(np.max(read_csv_columns(Path(d) / "growth.csv")["u1_norm"]))
             for d in sinusoid_dirs]
    ratios = [b / a for a, b in zip(peaks, peaks[1:])]
    lo, hi = HALVING_RATIO
    return [
        check("step_growth_r2", r2, GROWTH_R2_MIN, r2 >= GROWTH_R2_MIN),
        check("halving_ratio_min", min(ratios), lo, min(ratios) >= lo),
        check("halving_ratio_max", max(ratios), hi, max(ratios) <= hi),
    ]
