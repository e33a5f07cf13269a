"""Reference computations the benchmark checks the simulator against.

Nothing here imports ``noonsim``: the Sellmeier file is parsed and
evaluated again, poling periods come from the closed form
``2*pi/|dk_material|``, the overlap kernel is a direct cosine sum, and CSV
and summary files are parsed with plain string handling.  Units follow the
simulator: wavelengths nm, crystal lengths mm, delays mm, rates Hz.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

C_M_PER_S = 299_792_458.0

SPDC_AXES = {"pump": "ny", "signal": "ny", "idler": "nz"}
SFG_AXES = {"sfg": "nz", "pump": "nz", "signal": "nz"}


# ---------------------------------------------------------------------------
# Dispersion and phase matching
# ---------------------------------------------------------------------------


def read_sellmeier(path: Path) -> dict[str, dict[str, float]]:
    """Numeric coefficients of each ``[axis]`` section of a coefficient file."""
    axes: dict[str, dict[str, float]] = {}
    current: dict[str, float] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = axes.setdefault(line.strip("[]").strip(), {})
        else:
            key, _, value = line.partition("=")
            if key.strip() != "source":
                current[key.strip()] = float(value)
    return axes


def index(coeffs: dict[str, float], wavelength_nm):
    """n(lambda) from n^2 = a + b1/(1 - c1/l^2) + b2/(1 - c2/l^2) - d*l^2, l in um."""
    lam2 = (np.asarray(wavelength_nm, dtype=float) * 1e-3) ** 2
    n2 = coeffs["a"] + coeffs["b1"] * lam2 / (lam2 - coeffs["c1"]) - coeffs["d"] * lam2
    if coeffs["b2"] != 0.0:
        n2 = n2 + coeffs["b2"] * lam2 / (lam2 - coeffs["c2"])
    return np.sqrt(n2)


def _k(disp, axis: str, wavelength_nm):
    lam = np.asarray(wavelength_nm, dtype=float)
    return 2.0 * math.pi * index(disp[axis], lam) / (lam * 1e-9)


def material_mismatch(disp, axes, roles, lam_a, lam_b, lam_c):
    """k_a - k_b - k_c in rad/m for the waves named by ``roles``."""
    a, b, c = roles
    return _k(disp, axes[a], lam_a) - _k(disp, axes[b], lam_b) - _k(disp, axes[c], lam_c)


def spdc_mismatch(disp, pump_nm, signal_nm):
    idler = 1.0 / (1.0 / pump_nm - 1.0 / np.asarray(signal_nm, dtype=float))
    return material_mismatch(disp, SPDC_AXES, ("pump", "signal", "idler"), pump_nm, signal_nm, idler)


def sfg_mismatch(disp, pump_nm, signal_nm):
    sfg = 1.0 / (1.0 / pump_nm + 1.0 / np.asarray(signal_nm, dtype=float))
    return material_mismatch(disp, SFG_AXES, ("sfg", "pump", "signal"), sfg, pump_nm, signal_nm)


def poling_period_um(material_rad_per_m: float) -> float:
    """Closed-form period whose grating vector cancels the material mismatch."""
    return 2.0 * math.pi / abs(material_rad_per_m) * 1e6


def sinc2_density(material, target_material: float, length_mm: float) -> np.ndarray:
    """Peak-normalised sinc^2(dk L/2), with dk the mismatch left after poling."""
    x = (np.asarray(material) - target_material) * length_mm * 1e-3 / 2.0
    safe = np.where(x == 0.0, 1.0, x)
    dens = np.where(x == 0.0, 1.0, (np.sin(safe) / safe) ** 2)
    return dens / dens.max()


def spdc_density(disp, pump_nm, signal_nm, grid_nm, length_mm):
    material = spdc_mismatch(disp, pump_nm, grid_nm)
    return sinc2_density(material, float(spdc_mismatch(disp, pump_nm, signal_nm)), length_mm)


def sfg_density(disp, pump_nm, signal_nm, grid_nm, length_mm):
    material = sfg_mismatch(disp, pump_nm, grid_nm)
    return sinc2_density(material, float(sfg_mismatch(disp, pump_nm, signal_nm)), length_mm)


def half_max_width(lam: np.ndarray, dens: np.ndarray) -> float:
    """FWHM by linear interpolation between the samples around each crossing."""
    half = dens.max() / 2.0
    above = np.nonzero(dens >= half)[0]
    i, j = above[0], above[-1]
    left = lam[i - 1] + (half - dens[i - 1]) / (dens[i] - dens[i - 1]) * (lam[i] - lam[i - 1])
    right = lam[j] + (dens[j] - half) / (dens[j] - dens[j + 1]) * (lam[j + 1] - lam[j])
    return float(right - left)


# ---------------------------------------------------------------------------
# Dip kernels, fringes, Fock pipeline
# ---------------------------------------------------------------------------


def direct_kernel(lam_nm: np.ndarray, density: np.ndarray, delays_mm) -> np.ndarray:
    """sum_j cos(w_j tau) sym_j / sum_j sym_j, one delay at a time.

    ``w`` is the detuning from the grid centre linearised as
    2 pi c (lam0 - lam)/lam0^2 and ``sym`` the density symmetrised in it.
    """
    lam0 = 0.5 * (lam_nm[0] + lam_nm[-1])
    omega = 2.0 * math.pi * C_M_PER_S * 1e9 * (lam0 - lam_nm) / lam0**2
    sym = 0.5 * (density + density[::-1])
    norm = math.fsum(sym)
    tau = np.asarray(delays_mm, dtype=float) / (C_M_PER_S * 1e3)
    return np.array([math.fsum(np.cos(omega * t) * sym) / norm for t in tau])


def fringe_expected(n: int, visibility: float, phases, rate_hz: float, t_bin_s: float) -> np.ndarray:
    return rate_hz * t_bin_s * (1.0 + visibility * np.cos(n * np.asarray(phases) + math.pi)) / 2.0


def noon_probability(n: int, phases) -> np.ndarray:
    """(N / 2^(N-1)) (1 + cos(N phi + pi)) / 2 for the (N-1, 1) output pattern."""
    return (n / 2 ** (n - 1)) * (1.0 + np.cos(n * np.asarray(phases) + math.pi)) / 2.0


def plate_phase(tilt_rad: float, thickness_m: float, plate_index: float, wavelength_m: float) -> float:
    """Phase of a tilted plate relative to normal incidence (Snell refraction)."""
    refracted = math.asin(math.sin(tilt_rad) / plate_index)
    path_in_glass = plate_index * thickness_m / math.cos(refracted)
    path_in_air = thickness_m * math.cos(tilt_rad - refracted) / math.cos(refracted)
    return 2.0 * math.pi / wavelength_m * (path_in_glass - path_in_air - (plate_index - 1.0) * thickness_m)


def edge_baseline(data: np.ndarray) -> float:
    """Mean of the outer 5 % of points on each side (at least one each)."""
    k = max(1, int(len(data) * 0.05))
    return float((data[:k].sum() + data[-k:].sum()) / (2 * k))


# ---------------------------------------------------------------------------
# Statistics and text formats
# ---------------------------------------------------------------------------


def poisson_total_ok(counts, means, n_sigma: float = 6.0) -> bool:
    """Sum of counts within n_sigma Poisson standard deviations of sum of means."""
    total_mean = float(np.sum(means))
    return abs(float(np.sum(counts)) - total_mean) <= n_sigma * math.sqrt(max(total_mean, 1.0))


def within_sigma(value: float, truth: float, sigma: float, n_sigma: float = 6.0) -> bool:
    return math.isfinite(value) and sigma > 0 and abs(value - truth) <= n_sigma * sigma


def close(a, b, rel: float, abs_tol: float = 0.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.abs(b) + abs_tol))


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Header names and a float array of the rows."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def parse_summary(text: str) -> dict[str, str]:
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def same_digits(a, b, digits: int = 12) -> bool:
    """Equal to ``digits`` significant digits, element by element."""
    return close(a, b, rel=10.0 ** (1 - digits), abs_tol=1e-300)
