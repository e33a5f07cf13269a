"""Command-line front end wiring crystals, spectra, circuits, and scans.

Subcommands: ``spectra``, ``hom``, ``bunching``, ``fringe``, ``budget``.
Each returns its output files as a name -> text mapping, and ``main``
writes them only after the command has returned, so a failed run writes
nothing.  All outputs are plain CSV / ``key = value`` text and are
byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import typing
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import experiments as xp
from . import spectral as sp

_DEFAULT_STAGES = (
    ("collection", 0.24),
    ("filter_transmission", 0.80),
    ("optics_transmission", 0.86),
    ("fiber_coupling_525nm", 0.60),
    ("conversion_and_overlap", 0.064),
    ("detector_efficiency", 0.50),
    ("air_gap", 0.8),
    ("interferometer", 0.51),
)

# Same chain with the conversion stage (index 4) split into its
# internal-conversion and spectral-overlap factors, for sensitivity studies.
_DECOMPOSED_STAGES = (
    _DEFAULT_STAGES[:4] + (("internal_conversion", 0.16), ("spectral_overlap", 0.39)) + _DEFAULT_STAGES[5:]
)


@dataclass
class RunConfig:
    """Typed run configuration; defaults reproduce the reference experiment."""

    seed: int = 12345
    noiseless: bool = False

    sellmeier_file: str | None = None

    spdc_length_mm: float = 20.0
    spdc_pump_nm: float = 773.5
    spdc_signal_nm: float = 1547.0
    spdc_poling_um: float | None = None
    spdc_pump_axis: str = "ny"
    spdc_signal_axis: str = "ny"
    spdc_idler_axis: str = "nz"

    sfg_length_mm: float = 20.0
    sfg_pump_nm: float = 795.0
    sfg_signal_nm: float = 1547.0
    sfg_poling_um: float | None = None
    sfg_sfg_axis: str = "nz"
    sfg_pump_axis: str = "nz"
    sfg_signal_axis: str = "nz"

    grid_points: int = 4096
    grid_span_nm: float = 16.0
    grid_unit_acceptance: bool = False

    hom_gamma: float = 0.979
    hom_gamma_upconverted: float = 0.9672
    hom_delay_min_mm: float = -6.0
    hom_delay_max_mm: float = 6.0
    hom_delay_points: int = 121
    hom_up_delay_min_mm: float = -12.0
    hom_up_delay_max_mm: float = 12.0
    hom_up_delay_points: int = 121
    hom_rate_hz: float = 600.0
    hom_t_bin_s: float = 1.0

    bunching_gamma: float = 1.0
    bunching_delay_min_mm: float = -6.0
    bunching_delay_max_mm: float = 6.0
    bunching_delay_points: int = 121
    bunching_rate_hz: float = 2400.0
    bunching_t_bin_s: float = 1.0

    fringe_visibility_n1: float = 0.9751
    fringe_visibility_n2: float = 0.8493
    fringe_phase_min_rad: float = 0.0
    fringe_phase_max_rad: float = 2.0 * math.pi
    fringe_points: int = 96
    fringe_rate_hz: float = 600.0
    fringe_t_bin_s: float = 1.0
    fringe_axis: str = "phase"
    fringe_wavelength_nm: float = 525.1345
    fringe_plate_thickness_mm: float = 0.2
    fringe_plate_index: float = 1.5
    fringe_plate_tilt_min_rad: float = 0.02
    fringe_plate_tilt_max_rad: float = 0.25

    budget_stages: tuple[tuple[str, float], ...] = _DEFAULT_STAGES
    budget_quoted_overall: float | None = 2.0e-6
    budget_decompose_conversion: bool = False


# INI section -> prefix of its RunConfig fields.  A key is its field's name
# without the prefix; a field with no listed prefix belongs to [run].
_SECTIONS = {
    "run": "",
    "sellmeier": "sellmeier_",
    "source_crystal": "spdc_",
    "converter_crystal": "sfg_",
    "grid": "grid_",
    "hom": "hom_",
    "bunching": "bunching_",
    "fringe": "fringe_",
    "budget": "budget_",
}


def _schema() -> dict[tuple[str, str], tuple[str, object]]:
    """(section, key) -> (RunConfig field name, resolved type)."""
    schema = {}
    for name, hint in typing.get_type_hints(RunConfig).items():
        if name == "budget_stages":
            continue  # every [budget] key that is not a field is a chain stage
        section = next((s for s, prefix in _SECTIONS.items() if prefix and name.startswith(prefix)), "run")
        schema[section, name.removeprefix(_SECTIONS[section])] = (name, hint)
    return schema


_SCHEMA = _schema()

#: Largest accepted point count per key, checked before anything is built.
#: The overlap kernel's largest array is (delays + 1) x 2 sqrt(2 * points)
#: float64, about 12 MB at the grid and delay caps (28 MB in all).  Only a
#: delay scan reaching metres sends the kernel to its direct sum,
#: whose (delays + 1) x points/2 matrix the caps bound at about 0.5 GiB.
_MAX_POINTS = {
    "grid_points": 65536,
    "hom_delay_points": 2048,
    "hom_up_delay_points": 2048,
    "bunching_delay_points": 2048,
    "fringe_points": 1_000_000,
}


class ConfigError(Exception):
    """A config file problem the user can act on."""


def load_config(path: str | None) -> RunConfig:
    """Build a RunConfig from defaults plus an optional INI-style file."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.optionxform = str
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    stages = []
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            name, hint = _SCHEMA.get((section, key), (None, float))
            if name is None and section != "budget":
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                value = _coerce(raw, hint)
                if name in _MAX_POINTS and value > _MAX_POINTS[name]:
                    raise ValueError(f"expected at most {_MAX_POINTS[name]} points, got {raw!r}")
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
            if name is None:
                stages.append((key, value))
            else:
                setattr(cfg, name, value)
    if stages:
        cfg.budget_stages = tuple(stages)
    if cfg.budget_decompose_conversion and cfg.budget_stages == _DEFAULT_STAGES:
        cfg.budget_stages = _DECOMPOSED_STAGES
    return cfg


def _coerce(raw: str, hint: object) -> object:
    """Parse one INI value as ``hint``: bool, nonnegative int, finite float, str, or ``X | None``."""
    if type(None) in typing.get_args(hint):
        if raw.lower() in ("", "none"):
            return None
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if hint is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if hint is int:
        value = int(raw)
        if value < 0:
            raise ValueError(f"expected a nonnegative integer, got {raw!r}")
        return value
    if hint is float:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    return raw


# ---------------------------------------------------------------------------
# Shared assembly
# ---------------------------------------------------------------------------


#: Config section, process and crystal type of each crystal, the source first.
_CRYSTALS = (("source_crystal", "spdc", "type-II"), ("converter_crystal", "sfg", "type-I"))


def _build_crystals(cfg: RunConfig) -> tuple[sp.CrystalSpec, sp.CrystalSpec]:
    """SPDC and SFG crystals with poling solved unless pinned in config."""
    dispersion = sp.load_sellmeier(cfg.sellmeier_file)
    crystals = []
    for section, process, crystal_type in _CRYSTALS:
        prefix = _SECTIONS[section]
        pump_nm, signal_nm, poling_um = (getattr(cfg, prefix + key) for key in ("pump_nm", "signal_nm", "poling_um"))
        got = f"got pump_nm = {pump_nm}, signal_nm = {signal_nm}"
        if process == "spdc":
            if not 0.0 < pump_nm < signal_nm:
                raise ConfigError(f"[{section}] needs 0 < pump_nm < signal_nm, {got}")
            targets = (pump_nm, signal_nm, 1.0 / (1.0 / pump_nm - 1.0 / signal_nm))
        else:
            if not (pump_nm > 0.0 and signal_nm > 0.0):
                raise ConfigError(f"[{section}] pump_nm and signal_nm must be positive, {got}")
            targets = (1.0 / (1.0 / pump_nm + 1.0 / signal_nm), pump_nm, signal_nm)
        crystal = sp.CrystalSpec(
            length_mm=getattr(cfg, prefix + "length_mm"),
            poling_period_um=1.0 if poling_um is None else poling_um,
            process=process,
            crystal_type=crystal_type,
            axes={role: getattr(cfg, f"{prefix}{role}_axis") for role in sp.WAVE_ORDER[process]},
            dispersion=dispersion,
        )
        if poling_um is None:
            with _naming(f"[{section}] pump_nm = {pump_nm:g}, signal_nm = {signal_nm:g}"):
                crystal = sp.with_solved_poling(crystal, targets)
        crystals.append(crystal)
    return tuple(crystals)


def _grid(cfg: RunConfig) -> np.ndarray:
    if cfg.grid_points < 3:
        raise ConfigError(f"[grid] points must be at least 3, got {cfg.grid_points}")
    if not 0.0 < cfg.grid_span_nm < math.inf:
        raise ConfigError(f"[grid] span_nm must be positive and finite, got {cfg.grid_span_nm}")
    half = cfg.grid_span_nm / 2.0
    shortest = cfg.spdc_signal_nm - half
    if not shortest > cfg.spdc_pump_nm:
        raise ConfigError(
            f"[grid] span_nm = {cfg.grid_span_nm:g} puts the shortest wavelength at {shortest:g} nm, "
            f"which must exceed [source_crystal] pump_nm = {cfg.spdc_pump_nm:g}"
        )
    grid = np.linspace(shortest, cfg.spdc_signal_nm + half, cfg.grid_points)
    # A span too narrow for float64 to resolve gives a grid that no Spectrum accepts.
    with _naming(f"[grid] points = {cfg.grid_points}, span_nm = {cfg.grid_span_nm:g}"):
        sp.Spectrum(grid, np.zeros_like(grid))
    return grid


@contextmanager
def _naming(prefix: str, errors: tuple[type[Exception], ...] = (sp.SpectralError, ValueError)):
    """Prefix an error of a type in ``errors`` raised in the block with ``prefix``, which names the config key at fault.

    The spectral code's messages do not say which crystal or grid key they came from.
    """
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def _spectra(cfg: RunConfig) -> tuple[sp.Spectrum, sp.Spectrum, sp.Spectrum, sp.CrystalSpec, sp.CrystalSpec]:
    spdc, sfg = _build_crystals(cfg)
    grid = _grid(cfg)
    # A failed spectrum names its crystal's length and any pinned poling period.
    spdc_pinned, sfg_pinned = (
        "" if um is None else f", poling_um = {um:g}" for um in (cfg.spdc_poling_um, cfg.sfg_poling_um)
    )
    with _naming(f"[source_crystal] spectrum with length_mm = {spdc.length_mm:g}{spdc_pinned}"):
        emission = sp.emission_spectrum(spdc, cfg.spdc_pump_nm, grid)
    if cfg.grid_unit_acceptance:
        acceptance = sp.Spectrum(grid, np.ones_like(grid))
    else:
        with _naming(f"[converter_crystal] spectrum with length_mm = {sfg.length_mm:g}{sfg_pinned}"):
            acceptance = sp.acceptance_spectrum(sfg, cfg.sfg_pump_nm, grid)
    filtered = sp.filtered_spectrum(emission, acceptance)
    return emission, acceptance, filtered, spdc, sfg


def _summary(pairs: list[tuple[str, object]]) -> str:
    lines = []
    for key, value in pairs:
        if isinstance(value, float):
            lines.append(f"{key} = {value:.12g}")
        elif isinstance(value, bool):
            lines.append(f"{key} = {str(value).lower()}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def read_summary(text: str) -> dict[str, str]:
    """Parse a ``key = value`` summary block back into a dict."""
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a 'key = value' line: {line!r}")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spectra(cfg: RunConfig) -> dict[str, str]:
    emission, acceptance, filtered, spdc, sfg = _spectra(cfg)

    def fwhm(name: str, spectrum: sp.Spectrum) -> float:
        with _naming(f"[grid] span_nm = {cfg.grid_span_nm:g}, FWHM of the {name} spectrum"):
            return sp.fwhm(spectrum)

    summary = _summary(
        [
            ("emission_fwhm_nm", fwhm("emission", emission)),
            ("acceptance_fwhm_nm", fwhm("acceptance", acceptance) if not cfg.grid_unit_acceptance else float("nan")),
            ("filtered_fwhm_nm", fwhm("filtered", filtered)),
            ("emission_clipped", emission.clipped),
            ("acceptance_clipped", acceptance.clipped),
            ("filtered_clipped", filtered.clipped),
            ("spdc_poling_period_um", spdc.poling_period_um),
            ("sfg_poling_period_um", sfg.poling_period_um),
        ]
    )
    return {
        "emission.csv": emission.to_csv(),
        "acceptance.csv": acceptance.to_csv(),
        "filtered.csv": filtered.to_csv(),
        "spectra_summary.txt": summary,
    }


def cmd_hom(cfg: RunConfig) -> dict[str, str]:
    emission, _, filtered, _, _ = _spectra(cfg)
    rate = f"rate_hz = {cfg.hom_rate_hz:g}, t_bin_s = {cfg.hom_t_bin_s:g}"
    delays = np.linspace(cfg.hom_delay_min_mm, cfg.hom_delay_max_mm, cfg.hom_delay_points)
    with _naming(f"[hom] gamma = {cfg.hom_gamma:g}, delay_points = {cfg.hom_delay_points}, {rate}"):
        source = xp.hom_scan(
            emission, cfg.hom_gamma, delays, cfg.hom_rate_hz, cfg.hom_t_bin_s, cfg.seed, cfg.noiseless
        )
    up_delays = np.linspace(cfg.hom_up_delay_min_mm, cfg.hom_up_delay_max_mm, cfg.hom_up_delay_points)
    up = f"gamma_upconverted = {cfg.hom_gamma_upconverted:g}, up_delay_points = {cfg.hom_up_delay_points}"
    with _naming(f"[hom] {up}, {rate}"):
        upconverted = xp.hom_scan(
            filtered,
            cfg.hom_gamma_upconverted,
            up_delays,
            cfg.hom_rate_hz,
            cfg.hom_t_bin_s,
            cfg.seed + 1,
            cfg.noiseless,
        )
    with _naming(f"[hom] {rate}"):
        vis_source, vis_upconverted = xp.dip_visibility(source), xp.dip_visibility(upconverted)
    summary = _summary(
        [
            ("gamma_source", cfg.hom_gamma),
            ("gamma_upconverted", cfg.hom_gamma_upconverted),
            ("visibility_source", vis_source),
            ("visibility_upconverted", vis_upconverted),
        ]
    )
    return {"hom_source.csv": source.to_csv(), "hom_upconverted.csv": upconverted.to_csv(), "hom_summary.txt": summary}


def cmd_bunching(cfg: RunConfig) -> dict[str, str]:
    emission, _, _, _, _ = _spectra(cfg)
    delays = np.linspace(cfg.bunching_delay_min_mm, cfg.bunching_delay_max_mm, cfg.bunching_delay_points)
    rate = f"rate_hz = {cfg.bunching_rate_hz:g}, t_bin_s = {cfg.bunching_t_bin_s:g}"
    with _naming(f"[bunching] gamma = {cfg.bunching_gamma:g}, delay_points = {cfg.bunching_delay_points}, {rate}"):
        scan = xp.bunching_scan(
            cfg.bunching_gamma,
            delays,
            cfg.bunching_rate_hz,
            cfg.bunching_t_bin_s,
            cfg.seed,
            spectrum=emission,
            noiseless=cfg.noiseless,
        )
    with _naming(f"[bunching] {rate}"):
        ratio = xp.peak_to_baseline_ratio(scan)
    summary = _summary([("gamma", cfg.bunching_gamma), ("peak_to_baseline_ratio", ratio)])
    return {"bunching.csv": scan.to_csv(), "bunching_summary.txt": summary}


def cmd_fringe(cfg: RunConfig) -> dict[str, str]:
    prefix = {"phase": "phase", "plate": "plate_tilt"}.get(cfg.fringe_axis)
    if prefix is None:
        raise ConfigError(f"fringe axis must be 'phase' or 'plate', got {cfg.fringe_axis!r}")
    low, high = getattr(cfg, f"fringe_{prefix}_min_rad"), getattr(cfg, f"fringe_{prefix}_max_rad")
    axis = np.linspace(low, high, cfg.fringe_points)
    span = f"{prefix}_min_rad = {low:g}, {prefix}_max_rad = {high:g}"
    phases = axis
    if cfg.fringe_axis == "plate":
        plate = (
            f"plate_thickness_mm = {cfg.fringe_plate_thickness_mm:g}, plate_index = {cfg.fringe_plate_index:g}, "
            f"wavelength_nm = {cfg.fringe_wavelength_nm:g}"
        )
        with _naming(f"[fringe] {span}, {plate}", (ValueError,)):
            phases = xp.plate_phase(
                axis, cfg.fringe_plate_thickness_mm * 1e-3, cfg.fringe_plate_index, cfg.fringe_wavelength_nm * 1e-9
            )

    files = {}
    reports = {}
    rate = f"rate_hz = {cfg.fringe_rate_hz:g}, t_bin_s = {cfg.fringe_t_bin_s:g}"
    for n, vis, seed_shift in ((1, cfg.fringe_visibility_n1, 0), (2, cfg.fringe_visibility_n2, 1)):
        with _naming(f"[fringe] visibility_n{n} = {vis:g}, points = {cfg.fringe_points}, {rate}"):
            scan = xp.noon_fringe(
                n, vis, phases, cfg.fringe_rate_hz, cfg.fringe_t_bin_s, cfg.seed + seed_shift, cfg.noiseless
            )
        # A scan too short or too narrow to fit raises ValueError; a fit that fails on the data, FitError.
        with _naming(f"[fringe] visibility_n{n} = {vis:g}, {rate}, {span}", (xp.FitError,)):
            with _naming(f"[fringe] points = {cfg.fringe_points}, {span}", (ValueError,)):
                reports[n] = xp.fit_visibility(scan, n)
        files[f"fringe_n{n}.csv"] = replace(scan, param=axis).to_csv()

    ratio = reports[2].frequency / reports[1].frequency
    verdict = xp.sql_verdict(reports[2].visibility, reports[2].visibility_sigma, 2)
    pairs: list[tuple[str, object]] = []
    for n in (1, 2):
        rep = reports[n]
        pairs.extend(
            [
                (f"n{n}_visibility", rep.visibility),
                (f"n{n}_visibility_sigma", rep.visibility_sigma),
                (f"n{n}_frequency", rep.frequency),
                (f"n{n}_frequency_sigma", rep.frequency_sigma),
                (f"n{n}_phase_offset_rad", rep.phase_offset),
                (f"n{n}_amplitude", rep.amplitude),
                (f"n{n}_residual_norm", rep.residual_norm),
                (f"n{n}_clamped", rep.clamped),
            ]
        )
    pairs.append(("period_ratio_n2_over_n1", ratio))
    pairs.append(("sql_threshold", verdict.threshold))
    pairs.append(("beats_sql", verdict.beats_sql))
    pairs.append(("sql_margin_sigma", verdict.margin_sigma))
    pairs.append(("sql_verdict", verdict.verdict_line()))
    return files | {"fringe_summary.txt": _summary(pairs)}


def cmd_budget(cfg: RunConfig) -> dict[str, str]:
    chain = xp.EfficiencyChain(cfg.budget_stages)
    report = xp.efficiency_budget(chain, cfg.budget_quoted_overall)
    return {"budget.txt": "\n".join(report.report_lines()) + "\n"}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "spectra": cmd_spectra,
    "hom": cmd_hom,
    "bunching": cmd_bunching,
    "fringe": cmd_fringe,
    "budget": cmd_budget,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noonsim",
        description="Few-photon interferometry and frequency-conversion simulator",
    )
    parser.add_argument("--config", help="INI-style run configuration file")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", default="noonsim-out", help="output directory")
    parser.add_argument(
        "--noiseless", action="store_true", help="disable Poisson sampling for exact regression output"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="what to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            try:
                cfg.seed = _coerce(str(args.seed), int)
            except ValueError as exc:
                raise ConfigError(f"bad value for --seed: {exc}") from exc
        if args.noiseless:
            cfg.noiseless = True
        files = _COMMANDS[args.command](cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
        return 0
    except (ConfigError, sp.SpectralError, xp.FitError, ValueError, OSError, MemoryError) as exc:
        print(f"noonsim: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
