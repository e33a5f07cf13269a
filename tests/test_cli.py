import configparser
import gc
import itertools
import re
import subprocess
import sys
import textwrap
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import noonsim as ns
from noonsim.cli import (
    _COMMANDS,
    _DEFAULT_STAGES,
    _MAX_POINTS,
    _SCHEMA,
    ConfigError,
    RunConfig,
    load_config,
    main,
    read_summary,
    run,
)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CONFIGS = sorted(GOLDEN.glob("*.cfg"))


def run_cli(*args):
    return main(list(args))


def summary(path):
    return read_summary(path.read_text())


#: The commands that read each section.  The edge sweep runs a key under these and under budget.
READERS = {
    "run": tuple(_COMMANDS),
    "source_crystal": ("spectra", "hom", "bunching"),
    "converter_crystal": ("spectra", "hom"),
    "grid": ("spectra", "hom", "bunching"),
    "hom": ("hom",),
    "bunching": ("bunching",),
    "fringe": ("fringe",),
    "budget": (),
}
#: (section, min key, max key) of every scan range.
RANGES = (
    ("hom", "delay_min_mm", "delay_max_mm"),
    ("hom", "up_delay_min_mm", "up_delay_max_mm"),
    ("bunching", "delay_min_mm", "delay_max_mm"),
    ("fringe", "phase_min_rad", "phase_max_rad"),
    ("fringe", "plate_tilt_min_rad", "plate_tilt_max_rad"),
)

#: Edge values of a float key.
FLOAT_EDGES = ["0", "-1", "1e-300", "1e300", "1e308", "-1e308"]


def edge_cases():
    """(section, key, config lines) per schema key and per default budget stage, its type's edge values, then both
    ends of each range at +-1e308.

    A seed is any nonnegative integer and the Sellmeier file has its own tests, so neither is swept.  A point
    count's edges are 0-8 and its cap, except that a fringe at its 10**6-point cap takes about 2 s and 0.5 GB.
    """
    for (section, key), (name, hint) in _SCHEMA.items():
        if name in ("seed", "sellmeier_file"):
            continue
        if hint is int:
            values = [str(n) for n in range(9)] + ([] if name == "fringe_points" else [str(_MAX_POINTS[name])])
        elif hint is bool:
            values = ["true", "false"]
        elif hint is str:
            values = ["junk", "plate"] if key == "axis" else ["junk"]
        else:
            values = FLOAT_EDGES + (["none"] if type(None) in typing.get_args(hint) else [])
        yield pytest.param(section, key, [f"{key} = {value}" for value in values], id=f"{section}-{key}")
    for key, _ in _DEFAULT_STAGES:
        yield pytest.param("budget", key, [f"{key} = {value}" for value in FLOAT_EDGES], id=f"budget-{key}")
    for section, low, high in RANGES:
        lines = [f"{low} = -1e308\n{high} = 1e308", f"{low} = 1e308\n{high} = -1e308"]
        yield pytest.param(section, low, lines, id=f"{section}-{low}-{high}")


def names_key(line, section, key):
    """Whether an error line names ``key`` in its ``[section] key = value, ...`` group, or is a bad-value error."""
    group = rf"\[{section}\] (\w+ = [^,:\[]*, )*{key} = "
    return bool(re.search(group, line)) or f"bad value for [{section}] {key}:" in line


def assert_noiseless_sigmas_finite(values, case=None):
    """A noiseless fringe summary's sigmas are those of a measurement: finite and positive, the margin finite."""
    for n in (1, 2):
        assert 0.0 < float(values[f"n{n}_visibility_sigma"]) < np.inf, case
    assert np.isfinite(float(values["sql_margin_sigma"])), case


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.seed == 12345
        assert cfg.spdc_pump_nm == 773.5
        assert cfg.sfg_pump_nm == 795.0

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            textwrap.dedent(
                """
                [run]
                seed = 777
                noiseless = true

                [grid]
                points = 1024
                span_nm = 12.0

                [hom]
                gamma = 0.9
                """
            )
        )
        cfg = load_config(str(path))
        assert cfg.seed == 777
        assert cfg.noiseless is True
        assert cfg.grid_points == 1024
        assert cfg.hom_gamma == 0.9

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[hom]\nwavelength = 3\n")
        code = run_cli("--config", str(path), "--out", str(tmp_path / "o"), "hom")
        assert code == 1
        assert "wavelength" in capsys.readouterr().err

    def test_missing_config_rejected(self, tmp_path, capsys):
        code = run_cli("--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o"), "budget")
        assert code == 1
        assert "absent.cfg" in capsys.readouterr().err

    def test_budget_section_defines_stages(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[budget]\nfirst = 0.5\nsecond = 0.25\nquoted_overall = none\n")
        cfg = load_config(str(path))
        assert cfg.budget_stages == (("first", 0.5), ("second", 0.25))
        assert cfg.budget_quoted_overall is None

    def test_decomposed_budget_chain(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[budget]\ndecompose_conversion = true\n")
        cfg = load_config(str(path))
        names = [name for name, _ in cfg.budget_stages]
        assert "internal_conversion" in names and "spectral_overlap" in names

    def test_readme_config_block_is_the_schema(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.cfg"
        path.write_text(block)
        assert replace(load_config(str(path)), sellmeier_file=None) == RunConfig()
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
        parser.optionxform = str
        parser.read_string(block)
        pairs = {(section, key) for section in parser.sections() for key in parser[section]}
        assert pairs == set(_SCHEMA) | {("budget", name) for name, _ in _DEFAULT_STAGES}

    def test_read_summary_rejects_garbage(self):
        with pytest.raises(ValueError):
            read_summary("no separator here\n")

    def test_read_summary_skips_blank_lines(self):
        assert read_summary("a = 1\n\n  \nb = x\n") == {"a": "1", "b": "x"}

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            ("[nosuch]\nkey = 1\n", "unknown config section [nosuch]"),
            ("[DEFAULT]\nseed = 5\n", "unknown config section [DEFAULT]"),
            ("[DEFAULT]\nrate_hz = 1\n[hom]\ngamma = 0.9\n", "unknown config section [DEFAULT]"),
            (
                "[budget]\ncollection = 0.5\nconversion_and_overlap = 0.064\ndecompose_conversion = true\n",
                "bad value for [budget] decompose_conversion: ",
            ),
            (
                "[budget]\n" + "".join(f"{key} = {value}\n" for key, value in _DEFAULT_STAGES)
                + "decompose_conversion = true\n",
                "bad value for [budget] decompose_conversion: ",
            ),
        ],
        ids=[
            "unknown-section",
            "default-section",
            "default-section-beside-hom",
            "decompose-with-listed-stages",
            "decompose-with-the-default-chain-listed",
        ],
    )
    def test_config_error_is_one_line_and_writes_nothing(self, tmp_path, capsys, config, message):
        path = tmp_path / "run.cfg"
        path.write_text(config)
        out = tmp_path / "o"
        assert run_cli("--config", str(path), "--out", str(out), "budget") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"noonsim: error: {message}"), err
        assert not out.exists()


class TestReadme:
    def test_library_example_runs_without_warnings(self):
        # A fresh interpreter, so the example needs nothing this session set up.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        result = subprocess.run([sys.executable, "-W", "error", "-c", block], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestSpectraCommand:
    def test_writes_spectra_and_summary(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "spectra") == 0
        emission = ns.Spectrum.from_csv((out / "emission.csv").read_text())
        acceptance = ns.Spectrum.from_csv((out / "acceptance.csv").read_text())
        filtered = ns.Spectrum.from_csv((out / "filtered.csv").read_text())
        assert emission.wavelength_nm.size == 4096
        assert acceptance.density.max() == pytest.approx(1.0)
        assert filtered.density.max() == pytest.approx(1.0)
        values = summary(out / "spectra_summary.txt")
        assert float(values["emission_fwhm_nm"]) == pytest.approx(1.3, rel=0.15)
        assert float(values["acceptance_fwhm_nm"]) == pytest.approx(0.5, rel=0.15)
        assert float(values["filtered_fwhm_nm"]) < float(values["acceptance_fwhm_nm"])

    def test_unit_acceptance_copies_emission(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nunit_acceptance = true\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg), "--out", str(out), "spectra") == 0
        assert (out / "filtered.csv").read_bytes() == (out / "emission.csv").read_bytes()

    def test_missing_sellmeier_file_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[sellmeier]\nfile = /nowhere/ktp.txt\n")
        code = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "spectra")
        assert code == 1
        assert "/nowhere/ktp.txt" in capsys.readouterr().err


class TestHomCommand:
    def test_noiseless_visibilities_match_config(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "--noiseless", "hom") == 0
        values = summary(out / "hom_summary.txt")
        assert float(values["visibility_source"]) == pytest.approx(0.979, abs=1e-3)
        assert float(values["visibility_upconverted"]) == pytest.approx(0.9672, abs=1e-3)
        scan = ns.ScanResult.from_csv((out / "hom_source.csv").read_text())
        assert scan.param.size == 121


class TestBunchingCommand:
    def test_perfect_overlap_doubles(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "--noiseless", "bunching") == 0
        values = summary(out / "bunching_summary.txt")
        assert float(values["peak_to_baseline_ratio"]) == pytest.approx(2.0, abs=1e-3)


class TestFringeCommand:
    def test_noiseless_fringe_and_verdict(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "--noiseless", "fringe") == 0
        values = summary(out / "fringe_summary.txt")
        assert float(values["period_ratio_n2_over_n1"]) == pytest.approx(2.0, abs=0.02)
        assert values["beats_sql"] == "true"
        assert "beats" in values["sql_verdict"]
        assert float(values["n2_visibility"]) == pytest.approx(0.8493, abs=1e-4)

    def test_low_visibility_does_not_beat(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[fringe]\nvisibility_n2 = 0.5\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg), "--out", str(out), "--noiseless", "fringe") == 0
        values = summary(out / "fringe_summary.txt")
        assert values["beats_sql"] == "false"
        assert "does not beat" in values["sql_verdict"]

    def test_plate_axis(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[fringe]\naxis = plate\npoints = 128\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg), "--out", str(out), "--noiseless", "fringe") == 0
        scan = ns.ScanResult.from_csv((out / "fringe_n2.csv").read_text())
        assert scan.param.max() <= 0.25 + 1e-9  # plate tilt axis, not phase
        values = summary(out / "fringe_summary.txt")
        assert float(values["period_ratio_n2_over_n1"]) == pytest.approx(2.0, abs=0.02)

    @pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=[c.stem for c in GOLDEN_CONFIGS])
    def test_noiseless_sigmas_and_margin_are_finite(self, tmp_path, config):
        out = tmp_path / "out"
        assert run_cli("--config", str(config), "--out", str(out), "--noiseless", "fringe") == 0
        assert_noiseless_sigmas_finite(summary(out / "fringe_summary.txt"))

    @pytest.mark.parametrize("name", ["default", "plate_axis"])
    def test_noiseless_verdict_survives_a_one_ulp_move_of_the_axis(self, tmp_path, name):
        # Exact data fit to rounding residue; the sigmas and margin must not
        # depend on it.  The ends move outward: the default phase span is
        # exactly one N = 1 period.
        stable = [f"n{n}_{key}" for n in (1, 2) for key in ("visibility", "visibility_sigma", "frequency_sigma")]
        stable += ["beats_sql", "sql_margin_sigma", "sql_verdict"]
        parser = configparser.ConfigParser()
        parser.read(GOLDEN / f"{name}.cfg")
        if not parser.has_section("fringe"):
            parser.add_section("fringe")
        stem = "plate_tilt" if parser.get("fringe", "axis", fallback="phase") == "plate" else "phase"
        moved = []
        for end, toward in (("min", -np.inf), ("max", np.inf)):
            key = f"{stem}_{end}_rad"
            value = getattr(RunConfig(), f"fringe_{key}")
            parser.set("fringe", key, repr(float(np.nextafter(value, toward))))
            cfg = tmp_path / f"{key}.cfg"
            with cfg.open("w") as f:
                parser.write(f)
            parser.remove_option("fringe", key)
            moved.append(cfg)
        base = None
        for cfg in [GOLDEN / f"{name}.cfg", *moved]:
            out = tmp_path / cfg.stem
            assert run_cli("--config", str(cfg), "--out", str(out), "--noiseless", "fringe") == 0
            values = summary(out / "fringe_summary.txt")
            base = base or values
            assert {k: values[k] for k in stable} == {k: base[k] for k in stable}, cfg.name

    @pytest.mark.parametrize("rate", ["1e-20", "1e-300"])
    def test_noiseless_scan_below_one_count_names_the_rate(self, tmp_path, capsys, rate):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[fringe]\nrate_hz = {rate}\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg), "--out", str(out), "--noiseless", "fringe") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and not out.exists()
        assert names_key(err[0], "fringe", "rate_hz") and err[0].endswith("counts in all; a fit needs at least one")


class TestBudgetCommand:
    def test_reference_chain_report(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "budget") == 0
        values = read_summary((out / "budget.txt").read_text())
        assert float(values["collection"]) == 0.24
        assert float(values["single_arm_product"]) == pytest.approx(1.29e-3, abs=1e-5)
        assert float(values["pair_product"]) == pytest.approx(1.67e-6, abs=0.01e-6)
        assert "note" in values
        assert float(values["quoted_over_pair_ratio"]) == pytest.approx(1.2, abs=0.05)


class TestInvalidInput:
    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize(
        ("config", "command"),
        [
            ("[hom]\nrate_hz = nan\n", "hom"),
            ("[source_crystal]\nlength_mm = nan\n", "spectra"),
            ("[grid]\nspan_nm = nan\n", "spectra"),
            ("[grid]\nspan_nm = inf\n", "spectra"),
            ("[source_crystal]\npump_nm = nan\n", "spectra"),
            ("[budget]\nquoted_overall = nan\n", "budget"),
            ("[hom]\ngamma = 0.9\ngamma = 0.8\n", "hom"),
            ("[hom]\ngamma = 0.9\n[hom]\nrate_hz = 10.0\n", "hom"),
            ("seed = 1\n[hom]\ngamma = 0.9\n", "hom"),
            ("[fringe]\nphase_max_rad = inf\n", "fringe"),
            ("[fringe]\naxis = plate\nplate_tilt_max_rad = inf\n", "fringe"),
            ("[budget]\ndecompose_conversion = maybe\n", "budget"),
            ("[hom]\ndelay_points = 0\n", "hom"),
            ("[hom]\nup_delay_points = 0\n", "hom"),
            ("[bunching]\ndelay_points = 0\n", "bunching"),
            ("[fringe]\nrate_hz = 1e-300\n", "fringe"),
            ("[source_crystal]\nsignal_nm = 773.5\n", "spectra"),
            ("[source_crystal]\npump_nm = 0\n", "spectra"),
            ("[converter_crystal]\npump_nm = 0\n", "spectra"),
            ("[fringe]\naxis = plate\nwavelength_nm = 0\n", "fringe"),
            ("[fringe]\naxis = plate\nwavelength_nm = -500\n", "fringe"),
            ("[fringe]\naxis = plate\nplate_thickness_mm = -0.2\n", "fringe"),
            ("[fringe]\npoints = -3\n", "fringe"),
            ("[grid]\npoints = -5\n", "spectra"),
            ("[hom]\ndelay_points = -2\n", "hom"),
            ("[run]\nseed = -1\n", "hom"),
            ("[run]\nnoiseless = true\n[fringe]\nvisibility_n1 = 0.0\n", "fringe"),
            ("", "--seed -1 hom"),
            ("[grid]\npoints = 65537\n", "spectra"),
            ("[grid]\npoints = 1000000000000000000000\n", "spectra"),
            ("[hom]\ndelay_points = 2049\n", "hom"),
            ("[hom]\nup_delay_points = 2049\n", "hom"),
            ("[bunching]\ndelay_points = 2049\n", "bunching"),
            ("[fringe]\npoints = 1000001\n", "fringe"),
            ("[source_crystal]\nlength_mm = 1e200\n", "spectra"),
            ("[converter_crystal]\nlength_mm = 1e300\n", "spectra"),
            ("[source_crystal]\nlength_mm = 1e308\n", "spectra"),
        ],
    )
    def test_one_error_line_and_no_warning(self, tmp_path, capsys, config, command, noiseless):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")] + (["--noiseless"] if noiseless else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*args, *command.split()) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("noonsim: error:")

    @pytest.mark.parametrize(("section", "key", "lines"), list(edge_cases()))
    def test_edge_value_ends_in_a_run_or_one_error_naming_its_key(self, tmp_path, capsys, section, key, lines):
        plate = section == "fringe" and key.startswith(("plate", "wavelength"))
        cfg = tmp_path / "run.cfg"
        for (i, line), mode in itertools.product(enumerate(lines), ((), ("--noiseless",))):
            cfg.write_text(f"[{section}]\n" + ("axis = plate\n" if plate else "") + f"{line}\n")
            for command in dict.fromkeys(READERS[section] + ("budget",)):
                out = tmp_path / f"o{i}-{command}{'-'.join(mode)}"
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    status = run_cli("--config", str(cfg), "--out", str(out), *mode, command)
                err = capsys.readouterr().err.splitlines()
                case = (command, line, mode, err)
                assert status in (0, 1), case
                if status == 0:
                    assert not err, case
                    if command == "fringe" and mode:
                        assert_noiseless_sigmas_finite(summary(out / "fringe_summary.txt"), case)
                    continue
                assert len(err) == 1 and err[0].startswith("noonsim: error: ") and not out.exists(), case
                assert section in ("run", "budget") or names_key(err[0], section, key), case

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize(
        ("section", "line"),
        [
            ("source_crystal", "signal_nm = 5000"),
            ("converter_crystal", "pump_nm = 300"),
            ("converter_crystal", "length_mm = 1e300"),
            ("grid", "span_nm = 0"),
            ("hom", "rate_hz = -1"),
            ("bunching", "rate_hz = -1"),
            ("fringe", "axis = junk"),
        ],
    )
    def test_a_command_checks_only_the_sections_it_reads(self, tmp_path, capsys, section, line, command):
        # A bad value fails the commands that read its section, naming it, and no other: they write the
        # bytes of a run without the config.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{line}\n")
        status = run_cli("--config", str(cfg), "--out", str(tmp_path / "bad"), command)
        err = capsys.readouterr().err.splitlines()
        if command in READERS[section]:
            assert status == 1 and len(err) == 1 and err[0].startswith(f"noonsim: error: [{section}] "), err
            return
        assert status == 0 and not err
        assert run_cli("--out", str(tmp_path / "default"), command) == 0
        written = [{path.name: path.read_bytes() for path in (tmp_path / out).iterdir()} for out in ("bad", "default")]
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        ("section", "length"), [("source_crystal", "1e200"), ("converter_crystal", "1e300"), ("source_crystal", "1e308")]
    )
    def test_over_long_crystal_error_names_its_section(self, tmp_path, capsys, section, length):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\nlength_mm = {length}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), "spectra") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"noonsim: error: [{section}] length_mm = {float(length):g}, poling_um = none: ")

    @pytest.mark.parametrize("command", ["spectra", "hom", "bunching"])
    @pytest.mark.parametrize(
        ("grid", "message"),
        [
            (
                "span_nm = 2000",
                "[grid] points = 4096, span_nm = 2000, [source_crystal] pump_nm = 773.5, signal_nm = 1547: "
                "span_nm puts the shortest wavelength at 547 nm, which must exceed pump_nm",
            ),
            (
                "span_nm = 1547",
                "[grid] points = 4096, span_nm = 1547, [source_crystal] pump_nm = 773.5, signal_nm = 1547: "
                "span_nm puts the shortest wavelength at 773.5 nm, which must exceed pump_nm",
            ),
            (
                "points = 2",
                "[grid] points = 2, span_nm = 16, [source_crystal] pump_nm = 773.5, signal_nm = 1547: "
                "grid needs at least 3 points",
            ),
            (
                "points = 0\nunit_acceptance = true",
                "[grid] points = 0, span_nm = 16, [source_crystal] pump_nm = 773.5, signal_nm = 1547: "
                "grid needs at least 3 points",
            ),
            # Only spectra reports FWHMs; hom and bunching run on the clipped spectra.
            (
                "span_nm = 0.5",
                "[grid] points = 4096, span_nm = 0.5, [source_crystal] length_mm = 20, poling_um = none: "
                "half height not crossed on the left side of the grid",
            ),
            # Spans too narrow for float64 to resolve around 1547 nm.
            (
                "span_nm = 1e-9",
                "[grid] points = 4096, span_nm = 1e-09, [source_crystal] pump_nm = 773.5, signal_nm = 1547: "
                "grid must be uniform",
            ),
            (
                "span_nm = 1e-300",
                "[grid] points = 4096, span_nm = 1e-300, [source_crystal] pump_nm = 773.5, signal_nm = 1547: "
                "grid must be strictly increasing",
            ),
        ],
    )
    def test_grid_error_names_its_key(self, tmp_path, capsys, command, grid, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[grid]\n{grid}\n")
        status = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), command)
        err = capsys.readouterr().err.splitlines()
        if "half height" in message and command != "spectra":
            assert status == 0 and not err
            return
        assert status == 1
        assert err == [f"noonsim: error: {message}"]

    @pytest.mark.parametrize("command", ["spectra", "hom", "bunching"])
    @pytest.mark.parametrize(
        ("config", "message"),
        [
            (
                "[source_crystal]\nsignal_nm = 5000",
                "[source_crystal] pump_nm = 773.5, signal_nm = 5000: "
                "wavelength outside validity window [400, 3400] nm of 'ny'",
            ),
            (
                "[converter_crystal]\npump_nm = 300",
                "[converter_crystal] pump_nm = 300, signal_nm = 1547: "
                "wavelength outside validity window [350, 4500] nm of 'nz'",
            ),
        ],
    )
    def test_poling_solve_error_names_its_section(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{config}\n")
        status = run_cli("--config", str(cfg), "--out", str(tmp_path / "o"), command)
        if command not in READERS[config[1 : config.index("]")]]:
            assert status == 0 and not capsys.readouterr().err  # bunching builds no converter crystal
            return
        assert status == 1
        assert capsys.readouterr().err == f"noonsim: error: {message}\n"

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            (
                "points = 4",
                "[fringe] visibility_n1 = 0.9751, phase_min_rad = 0, phase_max_rad = 6.28319, points = 4, "
                "rate_hz = 600, t_bin_s = 1: need at least 8 scan points",
            ),
            (
                "phase_max_rad = 1",
                "[fringe] visibility_n1 = 0.9751, phase_min_rad = 0, phase_max_rad = 1, points = 96, "
                "rate_hz = 600, t_bin_s = 1: scan must span",
            ),
            (
                "axis = plate\nplate_tilt_max_rad = 0.03",
                "[fringe] visibility_n1 = 0.9751, plate_tilt_min_rad = 0.02, plate_tilt_max_rad = 0.03, points = 96, "
                "plate_thickness_mm = 0.2, plate_index = 1.5, wavelength_nm = 525.135, rate_hz = 600, t_bin_s = 1: "
                "scan must span",
            ),
            (
                "axis = plate\nplate_index = 0.9",
                "[fringe] plate_tilt_min_rad = 0.02, plate_tilt_max_rad = 0.25, points = 96, "
                "plate_thickness_mm = 0.2, plate_index = 0.9, wavelength_nm = 525.135: "
                "plate index must exceed 1",
            ),
            (
                "axis = plate\nplate_tilt_max_rad = 1.2",
                "[fringe] plate_tilt_min_rad = 0.02, plate_tilt_max_rad = 1.2, points = 96, plate_thickness_mm = 0.2, "
                "plate_index = 1.5, wavelength_nm = 525.135: plate tilt must satisfy |tilt| < pi/3",
            ),
            (
                "axis = plate\nwavelength_nm = 0",
                "[fringe] plate_tilt_min_rad = 0.02, plate_tilt_max_rad = 0.25, points = 96, "
                "plate_thickness_mm = 0.2, plate_index = 1.5, wavelength_nm = 0: "
                "plate thickness and wavelength must be positive",
            ),
            (
                "axis = plate\nplate_thickness_mm = 0",
                "[fringe] plate_tilt_min_rad = 0.02, plate_tilt_max_rad = 0.25, points = 96, "
                "plate_thickness_mm = 0, plate_index = 1.5, wavelength_nm = 525.135: "
                "plate thickness and wavelength must be positive",
            ),
        ],
        ids=["points", "phase_max_rad", "plate", "plate_index", "plate_tilt", "wavelength", "plate_thickness"],
    )
    def test_fringe_scan_error_names_the_scan_keys(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[fringe]\n{config}\n")
        out = tmp_path / "o"
        assert run_cli("--config", str(cfg), "--out", str(out), "fringe") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"noonsim: error: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize(
        ("pattern", "line", "message"),
        [
            (r"\[ny\]\n", "[ny]\na = 9.0\n", "duplicate key 'a' in section 'ny' at line 8"),
            (r"(?m)^a = .*$", "a = nan", "section 'ny' has non-finite values for ['a']"),
            (
                r"(?m)^lambda_max_um = .*$",
                "lambda_max_um = inf",
                "section 'ny' has non-finite values for ['lambda_max_um']",
            ),
            # The poling solve is the first to evaluate n^2; its error names the crystal.
            (
                r"(?m)^a = .*$",
                "a = -50",
                "[source_crystal] pump_nm = 773.5, signal_nm = 1547: n^2 of 'ny' is not positive and finite at 773.5 nm",
            ),
            # A pole of the c1 term exactly at the signal wavelength.
            (
                r"(?m)^c1 = .*$",
                "c1 = 2.393209",
                "[source_crystal] pump_nm = 773.5, signal_nm = 1547: n^2 of 'ny' is not positive and finite at 1547 nm",
            ),
        ],
    )
    def test_bad_sellmeier_file_is_one_error_line(self, tmp_path, capsys, pattern, line, message, noiseless):
        data = tmp_path / "sellmeier.txt"
        data.write_text(re.sub(pattern, line, ns.serialize_sellmeier(ns.load_sellmeier()), count=1))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[sellmeier]\nfile = {data}\n")
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")] + (["--noiseless"] if noiseless else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*args, "hom") == 1
        assert capsys.readouterr().err == f"noonsim: error: {message}\n"

    def test_negative_seed_flag_is_named(self, tmp_path, capsys):
        assert run_cli("--out", str(tmp_path / "o"), "--seed", "-1", "hom") == 1
        err = capsys.readouterr().err
        assert err == "noonsim: error: bad value for --seed: expected a nonnegative integer, got '-1'\n"

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (["--seed", "abc", "budget"], "argument --seed: invalid int value: 'abc'"),
            ([], "the following arguments are required: command"),
            (["nope"], "argument command: invalid choice: 'nope'"),
        ],
        ids=["bad-seed", "no-command", "unknown-command"],
    )
    def test_usage_error_exits_2_and_writes_nothing(self, tmp_path, capsys, args, message):
        # argparse rejects the command line itself: a usage block, then one error line, and exit 2.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", str(out), *args)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: noonsim") and err[-1].startswith(f"noonsim: error: {message}"), err
        assert not out.exists()

    def test_point_caps_are_inclusive(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[grid]\npoints = 65536\n[hom]\ndelay_points = 2048\nup_delay_points = 2048\n"
            "[bunching]\ndelay_points = 2048\n[fringe]\npoints = 1000000\n"
        )
        cfg = load_config(str(path))
        assert (cfg.grid_points, cfg.hom_delay_points, cfg.hom_up_delay_points) == (65536, 2048, 2048)
        assert (cfg.bunching_delay_points, cfg.fringe_points) == (2048, 1000000)
        path.write_text("[grid]\npoints = 65537\n")
        with pytest.raises(ConfigError, match=r"^bad value for \[grid\] points: expected at most 65536 points"):
            load_config(str(path))

    @pytest.mark.parametrize(
        ("exc", "message"),
        [(MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"), (MemoryError(), "out of memory")],
    )
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, exc, message):
        def cmd(cfg):
            raise exc

        monkeypatch.setitem(_COMMANDS, "spectra", cmd)
        assert run_cli("--out", str(tmp_path / "o"), "spectra") == 1
        assert capsys.readouterr().err == f"noonsim: error: {message}\n"

    @pytest.mark.parametrize(
        ("config", "args", "message"),
        [
            (
                "[grid]\nspan_nm = 0.5",
                ["spectra"],
                "[grid] points = 4096, span_nm = 0.5, [source_crystal] length_mm = 20, poling_um = none: ",
            ),
            (
                "[hom]\nrate_hz = 1e-9",
                ["hom"],
                "[hom] gamma = 0.979, delay_min_mm = -6, delay_max_mm = 6, delay_points = 121, rate_hz = 1e-09, "
                "t_bin_s = 1: baseline is not positive",
            ),
            (
                "[bunching]\nrate_hz = 1e-9",
                ["bunching"],
                "[bunching] gamma = 1, delay_min_mm = -6, delay_max_mm = 6, delay_points = 121, rate_hz = 1e-09, "
                "t_bin_s = 1: baseline is not positive",
            ),
            (
                "[fringe]\nvisibility_n2 = 0.0",
                ["--noiseless", "fringe"],
                "[fringe] visibility_n2 = 0, phase_min_rad = 0, phase_max_rad = 6.28319, points = 96, rate_hz = 600, "
                "t_bin_s = 1: scan shows no fringe",
            ),
            # A failed fit names every key its data depends on, not only the visibility.
            (
                "[fringe]\nphase_max_rad = 1e300",
                ["fringe"],
                "[fringe] visibility_n1 = 0.9751, phase_min_rad = 0, phase_max_rad = 1e+300, points = 96, "
                "rate_hz = 600, t_bin_s = 1: fringe fit failed",
            ),
            (
                "[fringe]\nrate_hz = 1e-300",
                ["fringe"],
                "[fringe] visibility_n1 = 0.9751, phase_min_rad = 0, phase_max_rad = 6.28319, points = 96, "
                "rate_hz = 1e-300, t_bin_s = 1: scan shows no fringe",
            ),
            # A pinned poling period is named with the crystal whose spectrum fails.
            (
                "[source_crystal]\npoling_um = 1e-300",
                ["spectra"],
                "[source_crystal] length_mm = 20, poling_um = 1e-300: "
                "density has no positive peak",
            ),
            (
                "[converter_crystal]\npoling_um = 1e-300",
                ["spectra"],
                "[converter_crystal] length_mm = 20, poling_um = 1e-300: "
                "density has no positive peak",
            ),
            # Building a scan fails: the prefix names the scan's section and keys.
            (
                "[hom]\ngamma = 2",
                ["hom"],
                "[hom] gamma = 2, delay_min_mm = -6, delay_max_mm = 6, delay_points = 121, rate_hz = 600, "
                "t_bin_s = 1: overlap must lie in [0, 1]",
            ),
            (
                "[hom]\ngamma_upconverted = 1.5",
                ["hom"],
                "[hom] gamma_upconverted = 1.5, up_delay_min_mm = -12, up_delay_max_mm = 12, up_delay_points = 121, "
                "rate_hz = 600, t_bin_s = 1: "
                "overlap must lie in [0, 1]",
            ),
            (
                "[bunching]\ngamma = 2",
                ["bunching"],
                "[bunching] gamma = 2, delay_min_mm = -6, delay_max_mm = 6, delay_points = 121, rate_hz = 2400, "
                "t_bin_s = 1: overlap must lie in [0, 1]",
            ),
            (
                "[fringe]\nvisibility_n2 = 1.5",
                ["fringe"],
                "[fringe] visibility_n2 = 1.5, phase_min_rad = 0, phase_max_rad = 6.28319, points = 96, rate_hz = 600, "
                "t_bin_s = 1: visibility must lie in [0, 1]",
            ),
            (
                "[hom]\nrate_hz = 0",
                ["hom"],
                "[hom] gamma = 0.979, delay_min_mm = -6, delay_max_mm = 6, delay_points = 121, rate_hz = 0, "
                "t_bin_s = 1: "
                "rate and integration time must be positive and finite",
            ),
            (
                "[bunching]\nt_bin_s = 0",
                ["bunching"],
                "[bunching] gamma = 1, delay_min_mm = -6, delay_max_mm = 6, delay_points = 121, rate_hz = 2400, "
                "t_bin_s = 0: "
                "rate and integration time must be positive and finite",
            ),
            (
                "[fringe]\nrate_hz = 0",
                ["fringe"],
                "[fringe] visibility_n1 = 0.9751, phase_min_rad = 0, phase_max_rad = 6.28319, points = 96, "
                "rate_hz = 0, t_bin_s = 1: "
                "rate and integration time must be positive and finite",
            ),
            (
                "[hom]\nrate_hz = 1e300",
                ["hom"],
                "[hom] gamma = 0.979, delay_min_mm = -6, delay_max_mm = 6, delay_points = 121, rate_hz = 1e+300, "
                "t_bin_s = 1: "
                "Poisson means must not exceed 9.22337e+18",
            ),
            (
                "[hom]\ndelay_points = 0",
                ["hom"],
                "[hom] gamma = 0.979, delay_min_mm = -6, delay_max_mm = 6, delay_points = 0, rate_hz = 600, "
                "t_bin_s = 1: a scan needs at least one point",
            ),
            (
                "[hom]\nup_delay_points = 0",
                ["hom"],
                "[hom] gamma_upconverted = 0.9672, up_delay_min_mm = -12, up_delay_max_mm = 12, up_delay_points = 0, "
                "rate_hz = 600, t_bin_s = 1: "
                "a scan needs at least one point",
            ),
            (
                "[bunching]\ndelay_points = 0",
                ["bunching"],
                "[bunching] gamma = 1, delay_min_mm = -6, delay_max_mm = 6, delay_points = 0, rate_hz = 2400, "
                "t_bin_s = 1: a scan needs at least one point",
            ),
            (
                "[fringe]\npoints = 0",
                ["fringe"],
                "[fringe] visibility_n1 = 0.9751, phase_min_rad = 0, phase_max_rad = 6.28319, points = 0, "
                "rate_hz = 600, t_bin_s = 1: "
                "a scan needs at least one point",
            ),
            # A crystal names its length, poling period and axes; a FWHM, the grid and its spectrum's crystal.
            (
                "[source_crystal]\npoling_um = 0",
                ["spectra"],
                "[source_crystal] length_mm = 20, poling_um = 0, pump_axis = ny, signal_axis = ny, idler_axis = nz: "
                "poling period must be positive and finite",
            ),
            (
                "[converter_crystal]\npoling_um = 1e300",
                ["spectra"],
                "[grid] points = 4096, span_nm = 16, [converter_crystal] length_mm = 20, poling_um = 1e+300: "
                "half height not crossed on the right side of the grid",
            ),
            (
                "[hom]\ndelay_min_mm = -1e308\ndelay_max_mm = 1e308",
                ["hom"],
                "[hom] delay_min_mm = -1e+308, delay_max_mm = 1e+308, delay_points = 121: "
                "the scan range's width must be finite",
            ),
            (
                "[fringe]\naxis = plate\nplate_index = 1e300",
                ["fringe"],
                "[fringe] plate_tilt_min_rad = 0.02, plate_tilt_max_rad = 0.25, points = 96, plate_thickness_mm = 0.2, "
                "plate_index = 1e+300, wavelength_nm = 525.135: plate index squared must be finite",
            ),
        ],
        ids=[
            "spectra",
            "hom",
            "bunching",
            "fringe",
            "fringe-phase_max_rad-fit",
            "fringe-rate_hz-fit",
            "source_crystal-poling_um",
            "converter_crystal-poling_um",
            "hom-gamma",
            "hom-gamma_upconverted",
            "bunching-gamma",
            "fringe-visibility_n2",
            "hom-rate_hz",
            "bunching-t_bin_s",
            "fringe-rate_hz",
            "hom-rate_hz-poisson-cap",
            "hom-delay_points",
            "hom-up_delay_points",
            "bunching-delay_points",
            "fringe-points",
            "source_crystal-poling_um-zero",
            "converter_crystal-poling_um-fwhm",
            "hom-delay-range-overflow",
            "fringe-plate_index-overflow",
        ],
    )
    def test_failed_run_writes_nothing(self, tmp_path, capsys, config, args, message):
        # Each run fails in its command, after the config has loaded.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{config}\n")
        out = tmp_path / "o"
        assert run_cli("--config", str(cfg), "--out", str(out), *args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"noonsim: error: {message}"), err
        assert not out.exists()

    def test_zero_stage_budget_reports_infinite_ratio(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[budget]\ncollection = 0.0\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg), "--out", str(out), "budget") == 0
        values = read_summary((out / "budget.txt").read_text())
        assert float(values["pair_product"]) == 0.0
        assert values["quoted_over_pair_ratio"] == "inf"


class TestDeterminism:
    @pytest.mark.parametrize("command", ["spectra", "hom", "bunching", "fringe", "budget"])
    def test_reruns_are_byte_identical(self, tmp_path, command):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("--out", str(out1), "--seed", "2024", command) == 0
        assert run_cli("--out", str(out2), "--seed", "2024", command) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_sampled_counts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("--out", str(out1), "--seed", "1", "hom")
        run_cli("--out", str(out2), "--seed", "2", "hom")
        assert (out1 / "hom_source.csv").read_bytes() != (out2 / "hom_source.csv").read_bytes()

    def test_no_command_loads_scipy(self, tmp_path):
        # A fresh interpreter: this test session has imported scipy already.
        script = textwrap.dedent(
            f"""
            import sys
            from noonsim.cli import main
            commands = (
                ["spectra"], ["--noiseless", "hom"], ["bunching"], ["budget"], ["fringe"], ["--noiseless", "fringe"]
            )
            for args in commands:
                assert main(["--out", {str(tmp_path)!r}] + args) == 0, args
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
            """
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_console_entry_point(self, tmp_path):
        # A `python -m noonsim.cli` process writes the bytes `main` writes in process, and `main` freezes nothing.
        frozen = gc.get_freeze_count()
        for command in _COMMANDS:
            assert run_cli("--out", str(tmp_path / "main"), "--seed", "7", command) == 0
            result = subprocess.run(
                [sys.executable, "-m", "noonsim.cli", "--out", str(tmp_path / "process"), "--seed", "7", command],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, result.stderr
        assert gc.get_freeze_count() == frozen
        written = {side: {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()} for side in ("main", "process")}
        assert written["process"] == written["main"] and len(written["main"]) == 13


class TestProcessEntry:
    @pytest.mark.parametrize(
        ("config", "args", "code"),
        [("", ["budget"], 0), ("[source_crystal]\nlength_mm = nan\n", ["spectra"], 1), ("", ["--seed", "abc"], 2)],
        ids=["budget", "nan-length", "usage"],
    )
    def test_run_freezes_the_heap_once_main_has_ended(self, tmp_path, monkeypatch, config, args, code):
        events = []

        def recorded_main():
            try:
                return main()
            finally:
                events.append("main ended")

        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        monkeypatch.setattr("noonsim.cli.main", recorded_main)
        monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
        monkeypatch.setattr(sys, "argv", ["noonsim", "--config", str(cfg), "--out", str(tmp_path / "o"), *args])
        try:
            result = run()
        except SystemExit as exc:  # argparse's usage exit
            result = exc.code
        assert result == code
        assert events == ["main ended", "freeze"]

    def test_main_guard_freezes_the_heap(self, tmp_path):
        # The guard, run as `python -m noonsim.cli` runs it, ends through `run`: atexit handlers see a frozen heap.
        script = textwrap.dedent(
            f"""
            import atexit, gc, runpy, sys
            atexit.register(lambda: print("freeze count", gc.get_freeze_count()))
            sys.argv = ["noonsim", "--out", {str(tmp_path / "o")!r}, "budget"]
            runpy.run_module("noonsim.cli", run_name="__main__")
            """
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        label, count = result.stdout.strip().rsplit(" ", 1)
        assert label == "freeze count" and int(count) > 0
        assert (tmp_path / "o" / "budget.txt").exists()

    def test_console_script_is_run(self):
        # A text match: Python 3.10 has no tomllib.
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert '\nnoonsim = "noonsim.cli:run"\n' in pyproject
