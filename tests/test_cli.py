import configparser
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import noonsim as ns
from noonsim.cli import _DEFAULT_STAGES, _SCHEMA, RunConfig, load_config, main, read_summary


def run_cli(*args):
    return main(list(args))


def summary(path):
    return read_summary(path.read_text())


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
        ],
    )
    def test_one_error_line_and_no_warning(self, tmp_path, capsys, config, command, noiseless):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")] + (["--noiseless"] if noiseless else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*args, command) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("noonsim: error:")

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

    def test_scipy_loaded_only_by_the_fringe_fit(self, tmp_path):
        # A fresh interpreter: this test session has imported scipy already.
        script = textwrap.dedent(
            f"""
            import sys
            from noonsim.cli import main
            for args in (["spectra"], ["--noiseless", "hom"], ["bunching"], ["budget"]):
                assert main(["--out", {str(tmp_path)!r}] + args) == 0, args
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
            """
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "noonsim.cli", "--out", str(tmp_path / "o"), "budget"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "o" / "budget.txt").exists()
