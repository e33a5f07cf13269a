"""Crystal dispersion, quasi-phase-matching spectra, and dip profiles.

Wavelengths cross module boundaries in nanometers; the dispersion fits work
in micrometers internally, phase mismatches are rad/m, crystal lengths mm,
poling periods um, and interferometer delays mm of path-length difference.

The refractive-index data itself ships as a plain-text coefficient file
(see ``load_sellmeier``); nothing in this module hard-codes a crystal fit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping, Sequence, Union

import numpy as np

_C_M_PER_S = 299792458.0  # exact by the SI definition of the metre
_C_NM_PER_S = _C_M_PER_S * 1e9
_C_MM_PER_S = _C_M_PER_S * 1e3

#: Half-maximum argument of (sin x / x)^2, used by closed-form width checks.
SINC2_HALF_MAX_ARG = 1.39155737825151

#: Wave roles per process, ordered high-energy wave first.
WAVE_ORDER = {
    "spdc": ("pump", "signal", "idler"),
    "sfg": ("sfg", "pump", "signal"),
}

ArrayLike = Union[float, np.ndarray]


class SpectralError(Exception):
    """Base class for dispersion/spectrum errors."""


class WavelengthRangeError(SpectralError):
    """Wavelength outside a dispersion fit's validity window."""


class GridError(SpectralError):
    """Malformed wavelength grid."""


class NoSolutionError(SpectralError):
    """No positive poling period cancels the mismatch."""


class PeakError(SpectralError):
    """A spectrum has no unambiguous single peak."""


# ---------------------------------------------------------------------------
# Dispersion data
# ---------------------------------------------------------------------------

_SELLMEIER_FIELDS = ("a", "b1", "c1", "b2", "c2", "d", "lambda_min_um", "lambda_max_um")

_SELLMEIER_HEADER = """\
# Refractive-index dispersion coefficient sets.
# Model: n^2 = a + b1/(1 - c1/lam^2) + b2/(1 - c2/lam^2) - d*lam^2, lam in um.
# Each section is one crystal axis; `source` names the published fit the
# values were transcribed from.
"""


@dataclass(frozen=True)
class SellmeierCoefficients:
    """One axis' dispersion fit n^2(lambda) with its validity window."""

    name: str
    a: float
    b1: float
    c1: float
    b2: float
    c2: float
    d: float
    lambda_min_um: float
    lambda_max_um: float
    source: str

    def __post_init__(self):
        if not 0 < self.lambda_min_um < self.lambda_max_um:
            raise ValueError("validity window must satisfy 0 < min < max")


def refractive_index(coeffs: SellmeierCoefficients, wavelength_nm: ArrayLike) -> ArrayLike:
    """Refractive index at the given wavelength(s) in nanometers."""
    lam_um = np.asarray(wavelength_nm, dtype=float) / 1000.0
    if not np.all((coeffs.lambda_min_um <= lam_um) & (lam_um <= coeffs.lambda_max_um)):
        raise WavelengthRangeError(
            f"wavelength outside validity window "
            f"[{coeffs.lambda_min_um * 1000:g}, {coeffs.lambda_max_um * 1000:g}] nm of {coeffs.name!r}"
        )
    lam2 = lam_um**2
    n2 = (
        coeffs.a
        + coeffs.b1 / (1.0 - coeffs.c1 / lam2)
        + (coeffs.b2 / (1.0 - coeffs.c2 / lam2) if coeffs.b2 else 0.0)
        - coeffs.d * lam2
    )
    n = np.sqrt(n2)
    return float(n) if np.isscalar(wavelength_nm) else n


def parse_sellmeier(text: str) -> dict[str, SellmeierCoefficients]:
    """Parse the coefficient file format (sections of ``key = value`` lines)."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ValueError(f"duplicate section {name!r} at line {lineno}")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value' at line {lineno}: {raw!r}")
        if current is None:
            raise ValueError(f"key/value outside any section at line {lineno}")
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()

    out: dict[str, SellmeierCoefficients] = {}
    for name, fields in sections.items():
        missing = [k for k in (*_SELLMEIER_FIELDS, "source") if k not in fields]
        if missing:
            raise ValueError(f"section {name!r} missing keys: {missing}")
        numbers = {k: float(fields[k]) for k in _SELLMEIER_FIELDS}
        out[name] = SellmeierCoefficients(name=name, source=fields["source"], **numbers)
    return out


def serialize_sellmeier(coeffs: Mapping[str, SellmeierCoefficients]) -> str:
    """Canonical text form; floats use shortest round-trip representation."""
    buf = io.StringIO()
    buf.write(_SELLMEIER_HEADER)
    for name in coeffs:
        cs = coeffs[name]
        buf.write(f"\n[{name}]\n")
        for key in _SELLMEIER_FIELDS:
            buf.write(f"{key} = {getattr(cs, key)!r}\n")
        buf.write(f"source = {cs.source}\n")
    return buf.getvalue()


def load_sellmeier(path: str | None = None) -> dict[str, SellmeierCoefficients]:
    """Load a coefficient file; ``None`` loads the packaged KTP data."""
    if path is None:
        text = resources.files("noonsim").joinpath("data/ktp_sellmeier.txt").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_sellmeier(text)


# ---------------------------------------------------------------------------
# Quasi-phase matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrystalSpec:
    """A periodically poled crystal and the axis each wave propagates on.

    ``axes`` maps wave roles to dispersion-set names: for an SPDC crystal
    the roles are pump/signal/idler, for an SFG crystal sfg/pump/signal.
    The grating vector of the poling enters the phase mismatch with the
    sign that lets a positive period cancel the material mismatch of its
    process (+2pi/period for SPDC, -2pi/period for SFG).
    """

    length_mm: float
    poling_period_um: float
    process: str
    crystal_type: str
    axes: Mapping[str, str]
    dispersion: Mapping[str, SellmeierCoefficients]

    def __post_init__(self):
        if self.process not in WAVE_ORDER:
            raise ValueError(f"process must be one of {sorted(WAVE_ORDER)}, got {self.process!r}")
        if not (self.length_mm > 0 and math.isfinite(self.length_mm)):
            raise ValueError("crystal length must be positive and finite")
        if not (self.poling_period_um > 0 and math.isfinite(self.poling_period_um)):
            raise ValueError("poling period must be positive and finite")
        roles = WAVE_ORDER[self.process]
        if set(self.axes) != set(roles):
            raise ValueError(f"axes must map exactly the roles {roles}, got {sorted(self.axes)}")
        unknown = set(self.axes.values()) - set(self.dispersion)
        if unknown:
            raise ValueError(f"axes reference unknown dispersion sets: {sorted(unknown)}")

    def index(self, role: str, wavelength_nm: ArrayLike) -> ArrayLike:
        return refractive_index(self.dispersion[self.axes[role]], wavelength_nm)


def _wavevector(crystal: CrystalSpec, role: str, wavelength_nm: ArrayLike) -> ArrayLike:
    return 2.0 * np.pi * crystal.index(role, wavelength_nm) / (np.asarray(wavelength_nm, float) * 1e-9)


def _material_mismatch(
    crystal: CrystalSpec,
    lambda_a_nm: ArrayLike,
    lambda_b_nm: ArrayLike,
    lambda_c_nm: ArrayLike,
) -> tuple[ArrayLike, float]:
    """Material mismatch k_a - k_b - k_c in rad/m, and the grating's sign.

    The grating term 2pi/period enters the full mismatch with the returned
    sign: +1 for SPDC, -1 for SFG.
    """
    inv_a = 1.0 / np.asarray(lambda_a_nm, float)
    inv_bc = 1.0 / np.asarray(lambda_b_nm, float) + 1.0 / np.asarray(lambda_c_nm, float)
    if np.any(np.abs(inv_a - inv_bc) > 1e-6 * inv_a):
        raise ValueError("wavelengths violate energy conservation (1/a = 1/b + 1/c)")
    role_a, role_b, role_c = WAVE_ORDER[crystal.process]
    material = (
        _wavevector(crystal, role_a, lambda_a_nm)
        - _wavevector(crystal, role_b, lambda_b_nm)
        - _wavevector(crystal, role_c, lambda_c_nm)
    )
    return material, (1.0 if crystal.process == "spdc" else -1.0)


def phase_mismatch(
    crystal: CrystalSpec,
    lambda_a_nm: ArrayLike,
    lambda_b_nm: ArrayLike,
    lambda_c_nm: ArrayLike,
) -> ArrayLike:
    """Phase mismatch in rad/m, grating term included.

    ``lambda_a`` is the high-energy wave (pump for SPDC, sum-frequency wave
    for SFG); the arguments must conserve energy, 1/a = 1/b + 1/c, to 1e-6
    relative.
    """
    material, sign = _material_mismatch(crystal, lambda_a_nm, lambda_b_nm, lambda_c_nm)
    grating = 2.0 * np.pi / (crystal.poling_period_um * 1e-6)
    dk = material + sign * grating
    return float(dk) if np.isscalar(lambda_a_nm) and np.isscalar(lambda_b_nm) else dk


def solve_poling_period(crystal: CrystalSpec, target_wavelengths_nm: Sequence[float]) -> float:
    """Poling period (um) that zeroes the phase mismatch at the target point.

    The mismatch is material + sign * 2pi/period, so the period is
    2pi / (-sign * material) in closed form; it exists only when that is
    positive.
    """
    material, sign = _material_mismatch(crystal, *target_wavelengths_nm)
    grating = -sign * float(material)
    if not grating > 0:
        raise NoSolutionError(
            f"no positive poling period cancels the {crystal.process} material mismatch "
            f"{material:.6g} rad/m"
        )
    return 2.0 * np.pi / grating * 1e6


def with_solved_poling(crystal: CrystalSpec, target_wavelengths_nm: Sequence[float]) -> CrystalSpec:
    """Copy of the crystal with its poling period solved for the target point."""
    return replace(crystal, poling_period_um=solve_poling_period(crystal, target_wavelengths_nm))


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


@dataclass
class Spectrum:
    """Nonnegative spectral density sampled on a uniform wavelength grid.

    ``clipped`` flags a grid that failed to contain the density's FWHM.
    """

    wavelength_nm: np.ndarray
    density: np.ndarray
    clipped: bool = False

    def __post_init__(self):
        self.wavelength_nm = np.asarray(self.wavelength_nm, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.wavelength_nm.ndim != 1 or self.wavelength_nm.shape != self.density.shape:
            raise GridError("grid and density must be 1-D arrays of equal length")
        if self.wavelength_nm.size < 3:
            raise GridError("grid needs at least 3 points")
        if not (np.all(np.isfinite(self.wavelength_nm)) and np.all(np.isfinite(self.density))):
            raise GridError("grid and density must be finite")
        steps = np.diff(self.wavelength_nm)
        if np.any(steps <= 0):
            raise GridError("grid must be strictly increasing")
        mean_step = float(steps.mean())
        if np.max(np.abs(steps - mean_step)) > 1e-4 * mean_step:
            raise GridError("grid must be uniform")
        if np.any(self.density < 0):
            raise GridError("density values must be nonnegative")

    def normalized(self) -> "Spectrum":
        peak = float(self.density.max())
        if peak == 0.0:
            raise ValueError("cannot normalize an all-zero density")
        return Spectrum(self.wavelength_nm, self.density / peak, self.clipped)

    def to_csv(self) -> str:
        rows = map("{:.12g},{:.12g}".format, self.wavelength_nm.tolist(), self.density.tolist())
        return "\n".join(["wavelength_nm,density", *rows]) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Spectrum":
        """Parse ``to_csv`` output.  The CSV has no ``clipped`` column, so it reads back False."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].split(",")[:2] != ["wavelength_nm", "density"]:
            raise ValueError("expected a 'wavelength_nm,density' header")
        rows = [ln.split(",") for ln in lines[1:]]
        lam = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        return cls(lam, dens)


def _shape_spectrum(grid_nm: np.ndarray, dk: np.ndarray, length_mm: float) -> Spectrum:
    arg = dk * (length_mm * 1e-3) / 2.0
    density = np.sinc(arg / np.pi) ** 2
    density = density / density.max()
    clipped = bool(density[0] > 0.5 or density[-1] > 0.5)
    return Spectrum(np.asarray(grid_nm, float), density, clipped=clipped)


def emission_spectrum(crystal: CrystalSpec, pump_nm: float, grid_nm: np.ndarray) -> Spectrum:
    """Degenerate pair-emission density sinc^2(dk L / 2) over signal wavelength.

    The idler wavelength is slaved to the signal by energy conservation.
    Peak-normalized to 1; ``clipped`` is set if the grid misses the FWHM.
    """
    if crystal.process != "spdc":
        raise ValueError("emission spectrum requires an SPDC crystal")
    grid = np.asarray(grid_nm, dtype=float)
    if np.any(grid <= pump_nm):
        raise ValueError("signal wavelengths must exceed the pump wavelength")
    idler = 1.0 / (1.0 / pump_nm - 1.0 / grid)
    dk = phase_mismatch(crystal, np.full_like(grid, pump_nm), grid, idler)
    return _shape_spectrum(grid, dk, crystal.length_mm)


def acceptance_spectrum(crystal: CrystalSpec, pump_nm: float, grid_nm: np.ndarray) -> Spectrum:
    """Upconversion acceptance density sinc^2(dk L / 2) over signal wavelength.

    The sum-frequency wavelength follows from energy conservation with the
    fixed pump.  Same normalization and clipping flag as the emission form.
    """
    if crystal.process != "sfg":
        raise ValueError("acceptance spectrum requires an SFG crystal")
    grid = np.asarray(grid_nm, dtype=float)
    sfg = 1.0 / (1.0 / pump_nm + 1.0 / grid)
    dk = phase_mismatch(crystal, sfg, np.full_like(grid, pump_nm), grid)
    return _shape_spectrum(grid, dk, crystal.length_mm)


def filtered_spectrum(emission: Spectrum, acceptance: Spectrum) -> Spectrum:
    """Effective pair density F * G^2 after upconverting both photons."""
    if emission.wavelength_nm.shape != acceptance.wavelength_nm.shape or np.max(
        np.abs(emission.wavelength_nm - acceptance.wavelength_nm)
    ) > 1e-9:
        raise GridError("emission and acceptance spectra must share one grid")
    density = emission.density * acceptance.density**2
    density = density / density.max()
    clipped = bool(density[0] > 0.5 or density[-1] > 0.5)
    return Spectrum(emission.wavelength_nm, density, clipped=clipped)


def fwhm(spectrum: Spectrum) -> float:
    """Full width at half maximum in nm, by linear interpolation.

    Requires a single dominant peak whose half-height is crossed on both
    sides within the grid.
    """
    dens = spectrum.density
    lam = spectrum.wavelength_nm
    peak = float(dens.max())
    if peak <= 0:
        raise PeakError("density has no positive peak")
    at_peak = np.flatnonzero(dens >= peak * (1.0 - 1e-12))
    if np.any(np.diff(at_peak) > 1):
        raise PeakError("density has multiple separated maxima; FWHM is ambiguous")
    left_peak, right_peak = int(at_peak[0]), int(at_peak[-1])
    half = peak / 2.0

    below_left = np.flatnonzero(dens[:left_peak] < half)
    if below_left.size == 0:
        raise PeakError("half height not crossed on the left side of the grid")
    j = int(below_left[-1])
    lam_left = lam[j] + (half - dens[j]) * (lam[j + 1] - lam[j]) / (dens[j + 1] - dens[j])

    below_right = np.flatnonzero(dens[right_peak + 1 :] < half)
    if below_right.size == 0:
        raise PeakError("half height not crossed on the right side of the grid")
    j = right_peak + 1 + int(below_right[0])
    lam_right = lam[j - 1] + (half - dens[j - 1]) * (lam[j] - lam[j - 1]) / (dens[j] - dens[j - 1])
    return float(lam_right - lam_left)


# ---------------------------------------------------------------------------
# Dip profiles
# ---------------------------------------------------------------------------


def overlap_kernel(spectrum: Spectrum, delays_mm: ArrayLike) -> np.ndarray:
    """Real unit-peak Fourier transform of the symmetrized density.

    The density is read as a function of the frequency detuning from the
    grid center, linearized as omega = 2*pi*c*(lam0 - lam)/lam0^2, and
    symmetrized in the detuning as the degenerate-pair construction
    implies; delays are path-length differences converted at tau = delay/c.
    The kernel equals exactly 1 at zero delay.
    """
    lam = spectrum.wavelength_nm
    lam0 = 0.5 * (lam[0] + lam[-1])
    omega = 2.0 * np.pi * _C_NM_PER_S * (lam0 - lam) / lam0**2
    sym = 0.5 * (spectrum.density + spectrum.density[::-1])
    tau = np.atleast_1d(np.asarray(delays_mm, dtype=float)) / _C_MM_PER_S
    # Normalize by a zero-delay row evaluated through the same matmul path,
    # so g(0) is exactly 1 regardless of summation order.
    rows = np.cos(np.outer(np.concatenate(([0.0], tau)), omega)) @ sym
    return rows[1:] / rows[0]


def hom_profile(spectrum: Spectrum, delays_mm: ArrayLike, visibility: float) -> np.ndarray:
    """Coincidence probability 0.5 * (1 - V * g(delay)) along a delay scan.

    ``g`` is :func:`overlap_kernel`; at zero delay the profile reaches
    (1 - V)/2 and it tends to 1/2 far outside the coherence envelope.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    return 0.5 * (1.0 - visibility * overlap_kernel(spectrum, delays_mm))


def coherence_length(center_nm: float, bandwidth_nm: float) -> float:
    """Two-photon coherence length in mm for a Gaussian envelope.

    Uses the half-width-at-half-maximum pairing L_c = (2 ln2 / pi)
    * lam^2 / dlam between a Gaussian spectral FWHM and its transform.
    """
    if bandwidth_nm <= 0:
        raise ValueError("bandwidth must be positive")
    return (2.0 * math.log(2.0) / math.pi) * center_nm**2 / bandwidth_nm * 1e-6
