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
import gc
import math
import sys
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
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
#: delay scan reaching hundreds of metres sends the kernel to its direct sum,
#: whose (delays + 1) x points/2 matrix the caps bound at about 0.5 GiB.
_MAX_POINTS = {
    "grid_points": 65536,
    "hom_delay_points": 2048,
    "hom_up_delay_points": 2048,
    "bunching_delay_points": 2048,
    "fringe_points": 1_000_000,
}


class ConfigError(ValueError):
    """A config file problem the user can act on."""


def load_config(path: str | None) -> RunConfig:
    """Build a RunConfig from defaults plus an optional INI-style file."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",), default_section="")
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
    if stages and cfg.budget_decompose_conversion:
        raise ConfigError("bad value for [budget] decompose_conversion: it splits the default chain, not listed stages")
    if stages or cfg.budget_decompose_conversion:
        cfg.budget_stages = tuple(stages) or _DECOMPOSED_STAGES
    return cfg


def _coerce(raw: str, hint: object) -> object:
    """Parse one INI value as ``hint``: bool, nonnegative int, finite float, str, or ``X | None``."""
    if type(None) in typing.get_args(hint):
        if raw.lower() in ("", "none"):
            return None
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if hint is bool:
        if raw.lower() in configparser.ConfigParser.BOOLEAN_STATES:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
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


#: Config section -> process and crystal type of its crystal, the source first.
_CRYSTALS = {"source_crystal": ("spdc", "type-II"), "converter_crystal": ("sfg", "type-I")}
#: RunConfig field name -> (section, key).
_KEYS = {name: section_key for section_key, (name, _) in _SCHEMA.items()}


@contextmanager
def _naming(cfg: RunConfig, *fields: str):
    """Prefix a library error raised in the block with the config keys ``fields`` (RunConfig field names).

    The prefix is one ``[section] key = value, ...`` group per section, in the order the fields are
    given: a stage names the keys whose values reach it.
    """
    try:
        yield
    except ValueError as exc:
        groups: dict[str, list[str]] = {}
        for field in fields:
            section, key = _KEYS[field]
            value = getattr(cfg, field)
            text = "none" if value is None else f"{value:g}" if isinstance(value, float) else value
            groups.setdefault(section, []).append(f"{key} = {text}")
        prefix = ", ".join(f"[{section}] " + ", ".join(pairs) for section, pairs in groups.items())
        raise ConfigError(f"{prefix}: {exc}") from exc


def _crystal(cfg: RunConfig, section: str, dispersion: dict[str, sp.SellmeierCoefficients]) -> sp.CrystalSpec:
    """The crystal of config ``section``, its poling solved unless pinned in config."""
    (process, crystal_type), prefix = _CRYSTALS[section], _SECTIONS[section]
    pump_nm, signal_nm, poling_um = (getattr(cfg, prefix + key) for key in ("pump_nm", "signal_nm", "poling_um"))
    axes = {role: f"{prefix}{role}_axis" for role in sp.WAVE_ORDER[process]}
    with _naming(cfg, prefix + "length_mm", prefix + "poling_um", *axes.values()):
        crystal = sp.CrystalSpec(
            length_mm=getattr(cfg, prefix + "length_mm"),
            poling_period_um=1.0 if poling_um is None else poling_um,
            process=process,
            crystal_type=crystal_type,
            axes={role: getattr(cfg, field) for role, field in axes.items()},
            dispersion=dispersion,
        )
    with _naming(cfg, prefix + "pump_nm", prefix + "signal_nm"):
        targets = crystal.waves(pump_nm, signal_nm)
        if poling_um is None:
            crystal = sp.with_solved_poling(crystal, targets)
    return crystal


def _grid(cfg: RunConfig) -> np.ndarray:
    """The wavelength grid centred on the source's signal; it must stay above the source's pump."""
    with _naming(cfg, "grid_points", "grid_span_nm", "spdc_pump_nm", "spdc_signal_nm"):
        if not cfg.grid_span_nm > 0.0:
            raise ValueError("span_nm must be positive")
        half = cfg.grid_span_nm / 2.0
        shortest = cfg.spdc_signal_nm - half
        if not shortest > cfg.spdc_pump_nm:
            raise ValueError(f"span_nm puts the shortest wavelength at {shortest:g} nm, which must exceed pump_nm")
        grid = np.linspace(shortest, cfg.spdc_signal_nm + half, cfg.grid_points)
        # Spectrum rejects a grid of under 3 points, or a span too narrow for float64 to resolve.
        sp.Spectrum(grid, np.zeros_like(grid))
    return grid


def _axis(cfg: RunConfig, low: str, high: str, points: str) -> np.ndarray:
    """A scan axis over the config fields ``low`` to ``high`` in ``points`` steps, its width finite."""
    with _naming(cfg, low, high, points):
        if not math.isfinite(getattr(cfg, high) - getattr(cfg, low)):
            raise ValueError("the scan range's width must be finite")
    return np.linspace(getattr(cfg, low), getattr(cfg, high), getattr(cfg, points))


def _spectrum(cfg: RunConfig, crystal: sp.CrystalSpec, grid: np.ndarray) -> sp.Spectrum:
    """The source's emission or the converter's acceptance spectrum on ``grid``; an error names its crystal's keys."""
    prefix = crystal.process + "_"  # the crystal's _SECTIONS prefix
    build = sp.emission_spectrum if crystal.process == "spdc" else sp.acceptance_spectrum
    with _naming(cfg, prefix + "length_mm", prefix + "poling_um"):
        return build(crystal, getattr(cfg, prefix + "pump_nm"), grid)


def _spectra(cfg: RunConfig) -> tuple[sp.Spectrum, sp.Spectrum, sp.Spectrum, sp.CrystalSpec, sp.CrystalSpec]:
    dispersion = sp.load_sellmeier(cfg.sellmeier_file)
    spdc, sfg = (_crystal(cfg, section, dispersion) for section in _CRYSTALS)
    grid = _grid(cfg)
    emission = _spectrum(cfg, spdc, grid)
    acceptance = sp.Spectrum(grid, np.ones_like(grid)) if cfg.grid_unit_acceptance else _spectrum(cfg, sfg, grid)
    return emission, acceptance, sp.filtered_spectrum(emission, acceptance), spdc, sfg


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

    def fwhm(spectrum: sp.Spectrum, *prefixes: str) -> float:
        keys = (prefix + key for prefix in prefixes for key in ("length_mm", "poling_um"))
        with _naming(cfg, "grid_points", "grid_span_nm", *keys):
            return sp.fwhm(spectrum)

    summary = _summary(
        [
            ("emission_fwhm_nm", fwhm(emission, "spdc_")),
            ("acceptance_fwhm_nm", fwhm(acceptance, "sfg_") if not cfg.grid_unit_acceptance else math.nan),
            ("filtered_fwhm_nm", fwhm(filtered, "spdc_", "sfg_")),
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
    files, visibilities = {}, []
    for name, spectrum, gamma, stem, shift in (
        ("source", emission, "hom_gamma", "hom_delay", 0),
        ("upconverted", filtered, "hom_gamma_upconverted", "hom_up_delay", 1),
    ):
        axis = (f"{stem}_min_mm", f"{stem}_max_mm", f"{stem}_points")
        delays = _axis(cfg, *axis)
        with _naming(cfg, gamma, *axis, "hom_rate_hz", "hom_t_bin_s"):
            scan = xp.hom_scan(
                spectrum, getattr(cfg, gamma), delays, cfg.hom_rate_hz, cfg.hom_t_bin_s, cfg.seed + shift, cfg.noiseless
            )
            visibilities.append((f"visibility_{name}", xp.dip_visibility(scan)))
        files[f"hom_{name}.csv"] = scan.to_csv()
    gammas = [("gamma_source", cfg.hom_gamma), ("gamma_upconverted", cfg.hom_gamma_upconverted)]
    return files | {"hom_summary.txt": _summary(gammas + visibilities)}


def cmd_bunching(cfg: RunConfig) -> dict[str, str]:
    emission = _spectrum(cfg, _crystal(cfg, "source_crystal", sp.load_sellmeier(cfg.sellmeier_file)), _grid(cfg))
    axis = ("bunching_delay_min_mm", "bunching_delay_max_mm", "bunching_delay_points")
    delays = _axis(cfg, *axis)
    with _naming(cfg, "bunching_gamma", *axis, "bunching_rate_hz", "bunching_t_bin_s"):
        scan = xp.bunching_scan(
            cfg.bunching_gamma,
            delays,
            cfg.bunching_rate_hz,
            cfg.bunching_t_bin_s,
            cfg.seed,
            spectrum=emission,
            noiseless=cfg.noiseless,
        )
        ratio = xp.peak_to_baseline_ratio(scan)
    summary = _summary([("gamma", cfg.bunching_gamma), ("peak_to_baseline_ratio", ratio)])
    return {"bunching.csv": scan.to_csv(), "bunching_summary.txt": summary}


def cmd_fringe(cfg: RunConfig) -> dict[str, str]:
    with _naming(cfg, "fringe_axis"):
        stem = {"phase": "fringe_phase", "plate": "fringe_plate_tilt"}.get(cfg.fringe_axis)
        if stem is None:
            raise ValueError("axis must be 'phase' or 'plate'")
    axis = (f"{stem}_min_rad", f"{stem}_max_rad", "fringe_points")
    params = phases = _axis(cfg, *axis)
    if cfg.fringe_axis == "plate":
        axis += ("fringe_plate_thickness_mm", "fringe_plate_index", "fringe_wavelength_nm")
        with _naming(cfg, *axis):
            phases = xp.plate_phase(
                params, cfg.fringe_plate_thickness_mm * 1e-3, cfg.fringe_plate_index, cfg.fringe_wavelength_nm * 1e-9
            )

    files = {}
    reports = {}
    for n, shift in ((1, 0), (2, 1)):
        vis = f"fringe_visibility_n{n}"
        # A scan or fit names every key its data depends on: the plate keys too on the plate axis.
        with _naming(cfg, vis, *axis, "fringe_rate_hz", "fringe_t_bin_s"):
            scan = xp.noon_fringe(
                n, getattr(cfg, vis), phases, cfg.fringe_rate_hz, cfg.fringe_t_bin_s, cfg.seed + shift, cfg.noiseless
            )
            reports[n] = xp.fit_visibility(scan, n)
        files[f"fringe_n{n}.csv"] = replace(scan, param=params).to_csv()

    ratio = reports[2].frequency / reports[1].frequency
    verdict = xp.sql_verdict(reports[2].visibility, reports[2].visibility_sigma, 2)
    # Every FitReport field, in declaration order; the phase offset carries its unit.
    pairs: list[tuple[str, object]] = [
        (f"n{n}_{key}" + ("_rad" if key == "phase_offset" else ""), value)
        for n in (1, 2)
        for key, value in asdict(reports[n]).items()
    ]
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"noonsim: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry (``noonsim``, ``python -m noonsim.cli``): ``main``, then ``gc.freeze()`` however it ends.

    Interpreter shutdown then skips collecting every object still alive; atexit handlers still run."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
