"""Crystal dispersion, quasi-phase-matching spectra, and dip profiles.

Wavelengths cross module boundaries in nanometers; the dispersion fits work
in micrometers internally, phase mismatches are rad/m, crystal lengths mm,
poling periods um, and interferometer delays mm of path-length difference.

The refractive-index data itself ships as a plain-text coefficient file
(see ``load_sellmeier``); nothing in this module hard-codes a crystal fit.
"""

from __future__ import annotations

import configparser
import io
import itertools
import math
import sys
import warnings
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


class SpectralError(ValueError):
    """A dispersion fit, poling solve, grid or peak that cannot be used."""


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
        nonfinite = [key for key in _SELLMEIER_FIELDS if not np.isfinite(_floats(getattr(self, key)))]
        if nonfinite:
            raise ValueError(f"section {self.name!r} has non-finite values for {nonfinite}")
        if not 0 < self.lambda_min_um < self.lambda_max_um:
            raise ValueError("validity window must satisfy 0 < min < max")


def refractive_index(coeffs: SellmeierCoefficients, wavelength_nm: ArrayLike) -> ArrayLike:
    """Refractive index at the given wavelength(s) in nanometers.

    Raises SpectralError where the fit's n^2 is not positive and finite, as
    it can be near a pole or for coefficients that are not physical.
    """
    lam_nm = _floats(wavelength_nm)
    lam_um = lam_nm / 1000.0
    if not np.all((coeffs.lambda_min_um <= lam_um) & (lam_um <= coeffs.lambda_max_um)):
        raise SpectralError(
            f"wavelength outside validity window "
            f"[{coeffs.lambda_min_um * 1000:g}, {coeffs.lambda_max_um * 1000:g}] nm of {coeffs.name!r}"
        )
    lam2 = lam_um**2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        n2 = (
            coeffs.a
            + coeffs.b1 / (1.0 - coeffs.c1 / lam2)
            + (coeffs.b2 / (1.0 - coeffs.c2 / lam2) if coeffs.b2 else 0.0)
            - coeffs.d * lam2
        )
    unphysical = ~(np.isfinite(n2) & (n2 > 0.0))
    if unphysical.any():
        raise SpectralError(
            f"n^2 of {coeffs.name!r} is not positive and finite at {lam_nm[unphysical][0]:g} nm"
        )
    return np.sqrt(n2)


def parse_sellmeier(text: str) -> dict[str, SellmeierCoefficients]:
    """Parse the coefficient file format: INI sections of ``key = value`` lines, read by configparser."""
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",), interpolation=None, default_section=""
    )
    parser.optionxform = str
    try:
        parser.read_string(text, source="Sellmeier data")
    except configparser.DuplicateOptionError as exc:
        raise ValueError(f"duplicate key {exc.option!r} in section {exc.section!r} at line {exc.lineno}") from exc
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from exc

    out: dict[str, SellmeierCoefficients] = {}
    for name in parser.sections():
        fields = parser[name]
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
        if not 0 < _floats(self.length_mm) < math.inf:
            raise ValueError("crystal length must be positive and finite")
        if not 0 < _floats(self.poling_period_um) < math.inf:
            raise ValueError("poling period must be positive and finite")
        roles = WAVE_ORDER[self.process]
        if set(self.axes) != set(roles):
            raise ValueError(f"axes must map exactly the roles {roles}, got {sorted(self.axes)}")
        unknown = set(self.axes.values()) - set(self.dispersion)
        if unknown:
            raise ValueError(f"axes reference unknown dispersion sets: {sorted(unknown)}")

    def waves(self, pump_nm: ArrayLike, signal_nm: ArrayLike) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
        """The ``WAVE_ORDER[process]`` wavelengths, the third by energy conservation; pump or signal may be a grid."""
        # [()] keeps a scalar input a scalar; a zero or degenerate input gives an inf or nan the check rejects.
        pump, signal = _floats(pump_nm)[()], _floats(signal_nm)[()]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            third = 1.0 / (1.0 / pump - 1.0 / signal if self.process == "spdc" else 1.0 / pump + 1.0 / signal)
        waves = (pump, signal, third) if self.process == "spdc" else (third, pump, signal)
        if not all(np.all(np.isfinite(wave) & (wave > 0.0)) for wave in waves):
            a, b, c = WAVE_ORDER[self.process]
            raise ValueError(f"{a}, {b} and {c} wavelengths must be positive and finite, with 1/{a} = 1/{b} + 1/{c}")
        return waves


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
    waves = [_floats(wave) for wave in (lambda_a_nm, lambda_b_nm, lambda_c_nm)]
    # The indices come first: their validity windows reject a wavelength that is not positive and finite.
    k_a, k_b, k_c = (
        2.0 * np.pi * refractive_index(crystal.dispersion[crystal.axes[role]], wave) / (wave * 1e-9)
        for role, wave in zip(WAVE_ORDER[crystal.process], waves)
    )
    inv_a, inv_b, inv_c = (1.0 / wave for wave in waves)
    if np.any(np.abs(inv_a - (inv_b + inv_c)) > 1e-6 * inv_a):
        raise ValueError("wavelengths violate energy conservation (1/a = 1/b + 1/c)")
    return k_a - k_b - k_c, (1.0 if crystal.process == "spdc" else -1.0)


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
    return material + sign * grating


def solve_poling_period(crystal: CrystalSpec, target_wavelengths_nm: Sequence[float]) -> float:
    """Poling period (um) that zeroes the phase mismatch at the target point.

    The mismatch is material + sign * 2pi/period, so the period is
    2pi / (-sign * material) in closed form; it exists only when that is
    positive.  The target is three wavelengths in the ``WAVE_ORDER`` roles.
    """
    if len(target_wavelengths_nm) != 3 or any(np.ndim(wave) for wave in target_wavelengths_nm):
        raise SpectralError("a poling target must be three wavelengths")
    material, sign = _material_mismatch(crystal, *target_wavelengths_nm)
    grating = -sign * material
    if not grating > 0:
        raise SpectralError(
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
        self.wavelength_nm = _floats(self.wavelength_nm)
        self.density = _floats(self.density)
        if self.wavelength_nm.ndim != 1 or self.wavelength_nm.shape != self.density.shape:
            raise SpectralError("grid and density must be 1-D arrays of equal length")
        if self.wavelength_nm.size < 3:
            raise SpectralError("grid needs at least 3 points")
        if not (np.all(np.isfinite(self.wavelength_nm)) and np.all(np.isfinite(self.density))):
            raise SpectralError("grid and density must be finite")
        steps = np.diff(self.wavelength_nm)
        if np.any(steps <= 0):
            raise SpectralError("grid must be strictly increasing")
        mean_step = float(steps.mean())
        if np.max(np.abs(steps - mean_step)) > 1e-4 * mean_step:
            raise SpectralError("grid must be uniform")
        if np.any(self.density < 0):
            raise SpectralError("density values must be nonnegative")

    def to_csv(self) -> str:
        return _write_csv("wavelength_nm,density", self.wavelength_nm, self.density)

    @classmethod
    def from_csv(cls, text: str) -> "Spectrum":
        """Parse ``to_csv`` output.  The CSV has no ``clipped`` column, so it reads back False."""
        return cls(*_read_csv(text, "wavelength_nm,density", (float, float)))


def _floats(values, dtype: type = float) -> np.ndarray:
    """``np.asarray(values, dtype)`` of a caller's numbers, each one that no float holds made nan.

    A call site's nan check then rejects such a number (``10**400``) with its own message.
    A string is not parsed as a number: it raises ``TypeError``.
    """
    cells = np.asarray(values)
    if cells.dtype.kind in "SU":
        raise TypeError(f"expected numbers, got {values!r}")
    try:
        return cells.astype(dtype, copy=False)
    except OverflowError:
        return np.where(np.abs(cells) > sys.float_info.max, math.nan, cells).astype(dtype)


def _write_csv(header: str, *columns: np.ndarray) -> str:
    """``header`` plus one line per row of ``columns``, integer columns as ``%d``, the others as ``%.12g``.

    A table shorter than ``_ARRAY_CSV_ROWS`` rows, or holding an integer of
    magnitude 10**12 or more (``%.12g`` of 10**12 is ``1e+12``), is written
    by one ``%`` operation over all its values.  A longer one is formatted
    into the same bytes (integers as floats) by one ``_g12_cells`` call per
    block of about ``_CSV_BLOCK_CELLS`` cells over all columns; a transposed
    copy lays out the rows, and deleting the zero bytes joins them.
    """
    rows = len(columns[0])
    integer = [np.issubdtype(column.dtype, np.integer) for column in columns]
    huge = (np.any((column >= 10**12) | (column <= -(10**12))) for column, i in zip(columns, integer) if i)
    if rows < _ARRAY_CSV_ROWS or any(huge):
        row_format = ",".join("%d" if i else "%.12g" for i in integer) + "\n"
        cells = tuple(itertools.chain.from_iterable(zip(*(column.tolist() for column in columns))))
        return f"{header}\n" + (row_format * rows) % cells
    text = [f"{header}\n"]
    width = len(columns)
    step = -(-_CSV_BLOCK_CELLS // width)
    for start in range(0, rows, step):
        cells = _g12_cells(np.concatenate([column[start : start + step] for column in columns], dtype=float))
        table = np.empty((cells.shape[1] // width, width, len(cells) + 1), np.uint8)  # row, column, position
        table[..., :-1] = cells.reshape(len(cells), width, -1).T
        table[..., -1] = [ord(",")] * (width - 1) + [ord("\n")]  # the separator after each cell
        del cells  # before the join makes its two copies of the table
        text.append(table.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


#: Shortest table ``_write_csv`` formats with array arithmetic.  Both paths
#: break even at about 192 rows; from 256 the array path takes 0.8-0.9x the
#: time of the per-value ``%`` and from 1024 about 0.5x (``BENCH_20.json``).
_ARRAY_CSV_ROWS = 256
#: Cells formatted at once, which bounds the scratch beyond the output (0.34
#: MiB at most; 0.69 MiB at 8192 cells, no faster from 4096 rows on).
_CSV_BLOCK_CELLS = 4096
#: 10 ** (11 - X) for the decimal exponents X = _EXP_MIN ... _EXP_MAX, each
#: correctly rounded (parsed from its decimal string) and a normal float.
_EXP_MIN, _EXP_MAX = -296, 308
_SCALE = np.array([float(f"1e{11 - x}") for x in range(_EXP_MIN, _EXP_MAX + 1)])
#: Smallest distance of a scaled value's fraction from one half that proves
#: its rounding; see ``_g12_mantissas``.
_TIE_MARGIN = 1e-3
#: The four ASCII digits of 0 ... 9999 in one uint32 each, built from "00" ...
#: "99" to keep import-time scratch small, and how many are trailing zeros.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
_DIGITS4 = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()
_TRAILING4 = np.zeros(10**4, np.uint8)
for _power in (10, 100, 1000, 10**4):
    _TRAILING4[::_power] += 1  # a multiple of 10**k ends in at least k zeros
#: Masks keeping the first k of twelve packed digits, k = 0 ... 12.
_KEEP = np.frombuffer(b"".join(b"\xff" * k + bytes(12 - k) for k in range(13)), np.uint32).reshape(13, 3)
#: What a cell has between its sign and digits, and after its digits, per
#: exponent X = _EXP_MIN ... _EXP_MAX + 1: "0." and -X - 1 zeros for
#: -4 <= X < 0; "e±XX" outside -4 <= X < 12.  Five zero-padded bytes each,
#: stored one row per byte so that a gather gives position-major rows.
_AFFIXES = np.array(
    [
        ("0." + "0" * (-x - 1) if -4 <= x < 0 else "", "" if -4 <= x < 12 else f"e{x:+03d}")
        for x in range(_EXP_MIN, _EXP_MAX + 2)
    ],
    "S5",
).view(np.uint8).reshape(-1, 10).T.copy()
#: Rows of a cell: sign, five bytes before the digits, twelve digits each followed by a possible point, five after.
_G12_ROWS = 34


def _digits(mantissa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The twelve ASCII digits of each mantissa as (len(mantissa), 3) uint32, and how many are trailing zeros."""
    upper = mantissa // 10**4
    low = mantissa - upper * 10**4
    high = upper // 10**4
    middle = upper - high * 10**4
    packed = np.stack((_DIGITS4[high], _DIGITS4[middle], _DIGITS4[low]), axis=1)
    trailing = _TRAILING4[low] + (low == 0) * (_TRAILING4[middle] + (middle == 0) * _TRAILING4[high])
    return packed, trailing


def _g12_mantissas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponent X, mantissa M and whether both are proven, per value of ``x``, for ``%.12g``.

    ``%.12g`` writes the twelve digits of M = round(|x| * 10**(11 - X)), M in
    [1e11, 1e12), X = floor(log10|x|) after rounding; zero has X = M = 0.
    The scaled value s = |x| * _SCALE[X] is computed with two roundings of
    relative error 2**-53 each (the table entry and the product), so for
    s < 1.01e12 it lies within 2.3e-4 of the exact |x| * 10**(11 - X).  Where
    its fraction is more than _TIE_MARGIN from one half, s therefore rounds
    to the exact M.  A log10 one off near a power of ten is caught by
    requiring s >= 1e11 and M <= 1e12, and M = 1e12 carries into the next
    exponent.  Not proven: non-finite values, |x| < 1e-296 (subnormals
    included), near-ties and anything else those checks reject.
    """
    magnitude = np.abs(x)
    zero = magnitude == 0
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(magnitude))
    proven = (exponent >= _EXP_MIN) & (exponent <= _EXP_MAX) | zero
    exponent = np.where(proven & ~zero, exponent, 0.0).astype(np.int16)
    scaled = np.where(proven, magnitude, 0.0) * _SCALE[exponent - _EXP_MIN]
    mantissa = np.rint(scaled)
    proven &= (np.abs(scaled - np.floor(scaled) - 0.5) > _TIE_MARGIN) & ((scaled >= 1e11) & (mantissa <= 1e12) | zero)
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    return exponent + carry, mantissa.astype(np.int64), proven


def _g12_cells(x: np.ndarray) -> np.ndarray:
    """``'%.12g' % v`` for each value ``v`` of ``x``: row i holds character position i of every cell.

    A zero byte marks a position a cell does not use, and only the rows some
    cell uses are returned.  Fixed notation for exponents -4 <= X < 12, else
    ``e±XX``; trailing zeros of the fraction and a bare point are dropped, as
    ``%g`` does.  Values ``_g12_mantissas`` does not prove are written by ``%``.
    """
    exponent, mantissa, proven = _g12_mantissas(np.asarray(x, dtype=float))
    digits, trailing = _digits(mantissa)
    point = np.where((exponent >= -4) & (exponent < 12), exponent, 0)  # the digit the point follows, if >= 0
    kept = np.maximum(12 - trailing, point + 1)
    digits &= np.take(_KEEP, kept, axis=0)
    cells = np.empty((_G12_ROWS, len(x)), np.uint8)
    cells[0] = np.signbit(x) * ord("-")
    cells[1:6], cells[29:] = np.take(_AFFIXES, exponent - _EXP_MIN, axis=1).reshape(2, 5, -1)
    cells[6:29:2] = digits.view(np.uint8).T
    cells[7:29:2] = 0
    fraction = np.flatnonzero((point >= 0) & (kept > point + 1))
    cells[7 + 2 * point[fraction], fraction] = ord(".")
    redo = np.flatnonzero(~proven)
    if redo.size:
        text = ("%.12g\n" * redo.size) % tuple(x[redo].tolist())
        cells[:, redo] = np.array(text.split(), dtype=f"S{_G12_ROWS}").view(np.uint8).reshape(-1, _G12_ROWS).T
    return cells[cells.any(axis=1)]


def _read_csv(text: str, header: str, types: Sequence[type]) -> list[np.ndarray]:
    """The first ``len(types)`` columns of a CSV whose header starts like ``header``.

    Blank lines are skipped and extra trailing columns ignored.  Cells are
    plain ASCII numbers as ``float`` and ``int`` spell them, without ``_``.
    One ``np.loadtxt`` call parses them; only a failed parse is redone line by
    line, to name the first bad line by its 1-based number in a ValueError.
    """
    names = header.split(",")[: len(types)]
    nonblank = list(filter(str.strip, text.splitlines()))
    if not nonblank or nonblank[0].split(",")[: len(types)] != names:
        raise ValueError(f"expected a {header!r} header")
    dtype = list(zip(names, types))
    table = _load_rows(nonblank[1:], dtype)
    if table is None:
        numbered = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
        number, line = next((number, line) for number, line in numbered[1:] if _load_rows([line], dtype) is None)
        raise ValueError(f"line {number}: cannot read {len(types)} values from {line!r}")
    return [table[name] for name in names]


def _load_rows(lines: list[str], dtype: list[tuple[str, type]]) -> np.ndarray | None:
    """``lines`` as a structured array of ``dtype``, one field per leading cell, or None if one is rejected."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy < 2 reads an integer through a float such as "3.0" with only this warning.
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=",", usecols=range(len(dtype)), comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _peak_normalized(grid_nm: np.ndarray, density: np.ndarray) -> Spectrum:
    """``density`` scaled to a unit peak (an underflowed sinc^2 has none), ``clipped`` if the grid misses its FWHM."""
    spectrum = Spectrum(grid_nm, density)
    spectrum.density = _unit_peak(spectrum.density)
    spectrum.clipped = bool(spectrum.density[0] > 0.5 or spectrum.density[-1] > 0.5)
    return spectrum


def _unit_peak(density: np.ndarray) -> np.ndarray:
    """``density`` over its peak, so a sum or product of it cannot overflow; one with no positive value is rejected."""
    peak = density.max()
    if not peak > 0.0:
        raise SpectralError("density has no positive peak")
    return density / peak


def _qpm_spectrum(crystal: CrystalSpec, pump_nm: float, grid_nm: np.ndarray) -> Spectrum:
    dk = phase_mismatch(crystal, *crystal.waves(pump_nm, grid_nm))
    # A crystal so long that dk * L overflows gives a NaN density, which
    # Spectrum rejects as not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        arg = dk * (crystal.length_mm * 1e-3) / 2.0
        density = np.sinc(arg / np.pi) ** 2
    return _peak_normalized(grid_nm, density)


def emission_spectrum(crystal: CrystalSpec, pump_nm: float, grid_nm: np.ndarray) -> Spectrum:
    """Degenerate pair-emission density sinc^2(dk L / 2) over signal wavelength.

    The idler wavelength is slaved to the signal by energy conservation.
    Peak-normalized to 1; ``clipped`` is set if the grid misses the FWHM.
    """
    if crystal.process != "spdc":
        raise ValueError("emission spectrum requires an SPDC crystal")
    return _qpm_spectrum(crystal, pump_nm, grid_nm)


def acceptance_spectrum(crystal: CrystalSpec, pump_nm: float, grid_nm: np.ndarray) -> Spectrum:
    """Upconversion acceptance density sinc^2(dk L / 2) over signal wavelength.

    The sum-frequency wavelength follows from energy conservation with the
    fixed pump.  Same normalization and clipping flag as the emission form.
    """
    if crystal.process != "sfg":
        raise ValueError("acceptance spectrum requires an SFG crystal")
    return _qpm_spectrum(crystal, pump_nm, grid_nm)


def filtered_spectrum(emission: Spectrum, acceptance: Spectrum) -> Spectrum:
    """Effective pair density F * G^2 after upconverting both photons."""
    if emission.wavelength_nm.shape != acceptance.wavelength_nm.shape or np.max(
        np.abs(emission.wavelength_nm - acceptance.wavelength_nm)
    ) > 1e-9:
        raise SpectralError("emission and acceptance spectra must share one grid")
    return _peak_normalized(emission.wavelength_nm, _unit_peak(emission.density) * _unit_peak(acceptance.density) ** 2)


def fwhm(spectrum: Spectrum) -> float:
    """Full width at half maximum in nm, by linear interpolation.

    Requires a single dominant peak whose half-height is crossed on both
    sides within the grid.
    """
    lam, dens = spectrum.wavelength_nm, _unit_peak(spectrum.density)
    at_peak = np.flatnonzero(dens >= 1.0 - 1e-12)
    if np.any(np.diff(at_peak) > 1):
        raise SpectralError("density has multiple separated maxima; FWHM is ambiguous")
    left_peak, right_peak = int(at_peak[0]), int(at_peak[-1])
    half = 0.5

    below_left = np.flatnonzero(dens[:left_peak] < half)
    if below_left.size == 0:
        raise SpectralError("half height not crossed on the left side of the grid")
    j = int(below_left[-1])
    lam_left = lam[j] + (half - dens[j]) * (lam[j + 1] - lam[j]) / (dens[j + 1] - dens[j])

    below_right = np.flatnonzero(dens[right_peak + 1 :] < half)
    if below_right.size == 0:
        raise SpectralError("half height not crossed on the right side of the grid")
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
    A density with no positive value raises ``SpectralError``.

    The symmetrized density is even about the grid center and omega is odd
    there, so cos(tau*omega) pairs point i with point N-1-i and the sum runs
    over the left H = ceil(N/2) points only, weighted by density[i] +
    density[N-1-i] (the middle point of an odd grid once).  The transform
    is even in the delay, so one row is computed per distinct |delay|, zero
    included: a mirrored pair shares its row (g(-tau) == g(tau) bitwise) and
    a symmetric scan costs half the work.  Every delay divides by the zero
    row, so the kernel is exactly 1 at zero delay.

    The grid is uniform, so omega_j = omega_0 + j*step + eps_j with eps_j
    the grid's rounding.  Splitting j = B*b + m with B = ceil(sqrt(H)),
    cos(tau*omega_j) = C_b (c_m - tau eps_j s_m) - S_b (s_m + tau eps_j c_m)
    to first order in eps, with C, S the cosine and sine of
    tau*(omega_0 + B*b*step) (rows x H/B) and c, s those of tau*m*step
    (rows x B).  The sums over m are one matrix product of the small tables
    with the weights and the eps-weighted weights laid out B x H/B; the sum
    over b is elementwise.  The terms dropped are at most (tau eps)^2/2 in
    each cosine and sine, so while max|eps| * max|tau| <= 3e-7 the kernel
    stays within 1e-13 of the direct sum: a grid read back from CSV
    (%.12g wavelengths, max|eps| about 5e3 rad/s) keeps the factored sum
    out to about 17 mm of delay, an np.linspace grid to hundreds of metres.
    A grid farther from uniform (one uniform only to Spectrum's 1e-4
    tolerance), or longer delays, takes the direct sum of one cosine per
    (row, point) instead.
    """
    lam, dens = spectrum.wavelength_nm, _unit_peak(spectrum.density)
    half = (lam.size + 1) // 2
    lam0 = 0.5 * (lam[0] + lam[-1])
    omega = 2.0 * np.pi * _C_NM_PER_S * (lam0 - lam[:half]) / lam0**2
    weight = dens[:half] + dens[::-1][:half]
    if lam.size % 2:
        weight[-1] = dens[half - 1]
    tau = np.atleast_1d(_floats(delays_mm)) / _C_MM_PER_S
    distinct, back = np.unique(np.concatenate(([0.0], np.abs(tau))), return_inverse=True)
    # distinct[-1] is the largest |delay| (np.unique sorts a NaN last) and omega[0] the largest detuning;
    # they are multiplied as Python floats because a numpy product that overflows warns first.
    if not math.isfinite(float(distinct[-1]) * float(omega[0])):
        raise ValueError("every delay, and its product with the grid's largest detuning, must be finite")

    size = math.ceil(math.sqrt(half))
    blocks = (half + size - 1) // size
    step = (omega[-1] - omega[0]) / (half - 1)
    starts = omega[0] + np.arange(0, size * blocks, size) * step
    offsets = np.arange(size) * step
    eps = omega - (starts[:, None] + offsets).ravel()[:half]
    if np.max(np.abs(eps)) * distinct[-1] > 3e-7:
        phase = np.outer(distinct, omega)
        rows = np.cos(phase, out=phase) @ weight
    else:
        # Weights over eps-weighted weights, each laid out (m, b), zero padded.
        padded = np.zeros((2, blocks * size))
        padded[0, :half] = weight
        padded[1, :half] = eps * weight
        laid = padded.reshape(2, blocks, size).transpose(0, 2, 1).reshape(2 * size, blocks)
        inner = np.outer(distinct, offsets)
        cos_in, sin_in = np.cos(inner), np.sin(inner)
        t = distinct[:, None]
        tables = np.stack((np.hstack((cos_in, -t * sin_in)), np.hstack((sin_in, t * cos_in))))
        part_cos, part_sin = tables @ laid
        outer = np.outer(distinct, starts)
        rows = (np.cos(outer) * part_cos - np.sin(outer) * part_sin).sum(axis=1)
    return rows[back[1:]] / rows[0]


def hom_profile(spectrum: Spectrum, delays_mm: ArrayLike, overlap: float) -> np.ndarray:
    """Coincidence probability 0.5 * (1 - overlap * g(delay)) along a delay scan.

    ``g`` is :func:`overlap_kernel`; at zero delay the profile reaches
    (1 - overlap)/2 and it tends to 1/2 far outside the coherence envelope.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    return 0.5 * (1.0 - overlap * overlap_kernel(spectrum, delays_mm))


def coherence_length(center_nm: float, bandwidth_nm: float) -> float:
    """Two-photon coherence length in mm for a Gaussian envelope.

    Uses the half-width-at-half-maximum pairing L_c = (2 ln2 / pi)
    * lam^2 / dlam between a Gaussian spectral FWHM and its transform.
    """
    if not 0.0 < _floats(center_nm) < math.inf:
        raise ValueError(f"center wavelength must be positive and finite, got {center_nm}")
    if not 0.0 < _floats(bandwidth_nm) < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth_nm}")
    length_mm = (2.0 * math.log(2.0) / math.pi) * center_nm * center_nm / bandwidth_nm * 1e-6
    if not math.isfinite(length_mm):
        raise ValueError(f"coherence length of {center_nm} nm over {bandwidth_nm} nm overflows")
    return length_mm
