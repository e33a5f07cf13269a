import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import noonsim as ns
from noonsim.spectral import SINC2_HALF_MAX_ARG

from conftest import PUMP_SFG_NM, PUMP_SPDC_NM, SFG_NM, SIGNAL_NM

C_NM_PER_S = 2.99792458e17
C_MM_PER_S = 2.99792458e11


class TestSellmeierData:
    def test_packaged_file_round_trips_byte_exactly(self):
        text = resources.files("noonsim").joinpath("data/ktp_sellmeier.txt").read_text()
        assert ns.serialize_sellmeier(ns.parse_sellmeier(text)) == text

    def test_values_round_trip_bit_exactly(self, dispersion):
        again = ns.parse_sellmeier(ns.serialize_sellmeier(dispersion))
        assert again == dispersion

    def test_z_axis_index_matches_direct_formula(self, dispersion):
        # Independent oracle: evaluate the published fit inline.
        lam2 = 1.547**2
        n2 = (
            2.12725
            + 1.18431 / (1 - 0.0514852 / lam2)
            + 0.6603 / (1 - 100.00507 / lam2)
            - 0.00968956 * lam2
        )
        n = ns.refractive_index(dispersion["nz"], 1547.0)
        assert n == pytest.approx(math.sqrt(n2), abs=1e-12)
        assert 1.7 < n < 1.9

    def test_normal_dispersion_in_telecom_window(self, dispersion):
        lams = np.linspace(900.0, 1600.0, 200)
        for axis in ("ny", "nz"):
            n = ns.refractive_index(dispersion[axis], lams)
            assert np.all(np.diff(n) < 0)

    def test_out_of_window_wavelengths_rejected(self, dispersion):
        with pytest.raises(ns.WavelengthRangeError):
            ns.refractive_index(dispersion["ny"], 300.0)
        with pytest.raises(ns.WavelengthRangeError):
            ns.refractive_index(dispersion["ny"], 3500.0)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            ns.parse_sellmeier("a = 1\n")  # key before any section
        with pytest.raises(ValueError):
            ns.parse_sellmeier("[x]\nnot a pair\n")
        with pytest.raises(ValueError):
            ns.parse_sellmeier("[x]\na = 1\n")  # missing keys
        with pytest.raises(ValueError):
            ns.parse_sellmeier("[x]\n[x]\n")


class TestPhaseMismatch:
    def test_zero_at_solved_period_and_degeneracy(self, spdc_crystal, sfg_crystal):
        dk = ns.phase_mismatch(spdc_crystal, PUMP_SPDC_NM, SIGNAL_NM, SIGNAL_NM)
        assert abs(dk) < 1e-6
        dk = ns.phase_mismatch(sfg_crystal, SFG_NM, PUMP_SFG_NM, SIGNAL_NM)
        assert abs(dk) < 1e-6

    def test_continuous_sign_change_through_degeneracy(self, spdc_crystal):
        lam_s = np.linspace(SIGNAL_NM - 2.0, SIGNAL_NM + 2.0, 401)
        lam_i = 1.0 / (1.0 / PUMP_SPDC_NM - 1.0 / lam_s)
        dk = ns.phase_mismatch(spdc_crystal, np.full_like(lam_s, PUMP_SPDC_NM), lam_s, lam_i)
        assert dk[0] * dk[-1] < 0
        assert np.max(np.abs(np.diff(dk))) < 5 * np.median(np.abs(np.diff(dk)))

    def test_grating_term_linearity(self, spdc_crystal, sfg_crystal):
        for crystal, lams in (
            (spdc_crystal, (PUMP_SPDC_NM, SIGNAL_NM, SIGNAL_NM)),
            (sfg_crystal, (SFG_NM, PUMP_SFG_NM, SIGNAL_NM)),
        ):
            halved = replace(crystal, poling_period_um=crystal.poling_period_um / 2)
            shift = ns.phase_mismatch(halved, *lams) - ns.phase_mismatch(crystal, *lams)
            expected = 2 * math.pi / (crystal.poling_period_um * 1e-6)
            if crystal.process == "sfg":
                expected = -expected
            assert shift == pytest.approx(expected, rel=1e-12)

    def test_energy_conservation_enforced(self, spdc_crystal):
        with pytest.raises(ValueError):
            ns.phase_mismatch(spdc_crystal, PUMP_SPDC_NM, SIGNAL_NM, 1500.0)


class TestSolvePolingPeriod:
    def test_type_two_downconversion_period(self, spdc_crystal):
        assert spdc_crystal.poling_period_um == pytest.approx(46.0, abs=2.0)

    def test_solution_within_dense_scan_bracket(self, spdc_crystal):
        # Oracle: locate the sign change on a dense period grid.
        periods = np.linspace(40.0, 52.0, 2401)
        dk = np.array(
            [
                ns.phase_mismatch(
                    replace(spdc_crystal, poling_period_um=p), PUMP_SPDC_NM, SIGNAL_NM, SIGNAL_NM
                )
                for p in periods
            ]
        )
        flips = np.flatnonzero(np.sign(dk[:-1]) != np.sign(dk[1:]))
        assert len(flips) == 1
        lo, hi = periods[flips[0]], periods[flips[0] + 1]
        assert lo <= spdc_crystal.poling_period_um <= hi

    def test_upconversion_solution_verified(self, sfg_crystal):
        dk = ns.phase_mismatch(sfg_crystal, SFG_NM, PUMP_SFG_NM, SIGNAL_NM)
        assert abs(dk * sfg_crystal.length_mm * 1e-3) <= 1e-9

    def test_perturbed_period_detunes(self, spdc_crystal):
        nudged = replace(spdc_crystal, poling_period_um=spdc_crystal.poling_period_um * 1.01)
        dk = ns.phase_mismatch(nudged, PUMP_SPDC_NM, SIGNAL_NM, SIGNAL_NM)
        assert abs(dk) > 1.0

    def test_no_solution_raises(self, dispersion):
        # An all-z "downconversion" toward 525 nm has a positive material
        # mismatch, which the +grating convention cannot cancel.
        crystal = ns.CrystalSpec(
            20.0, 1.0, "spdc", "type-II",
            {"pump": "nz", "signal": "nz", "idler": "nz"}, dispersion,
        )
        with pytest.raises(ns.NoSolutionError):
            ns.solve_poling_period(crystal, (SFG_NM, PUMP_SFG_NM, SIGNAL_NM))


class TestCrystalSpec:
    @pytest.mark.parametrize("field", ["length_mm", "poling_period_um"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_dimensions_rejected(self, spdc_crystal, field, bad):
        with pytest.raises(ValueError):
            replace(spdc_crystal, **{field: bad})


class TestSpectra:
    def test_emission_peaks_at_degeneracy(self, spdc_crystal):
        grid = np.linspace(SIGNAL_NM - 8.0, SIGNAL_NM + 8.0, 4097)
        spec = ns.emission_spectrum(spdc_crystal, PUMP_SPDC_NM, grid)
        center = 2048
        assert spec.density[center] == spec.density.max() == pytest.approx(1.0, abs=1e-9)
        assert not spec.clipped

    def test_emission_bandwidth(self, emission):
        assert ns.fwhm(emission) == pytest.approx(1.3, rel=0.15)

    def test_bandwidth_halves_when_length_doubles(self, spdc_crystal, default_grid):
        short = replace(spdc_crystal, length_mm=10.0)
        w_short = ns.fwhm(ns.emission_spectrum(short, PUMP_SPDC_NM, default_grid))
        w_long = ns.fwhm(ns.emission_spectrum(spdc_crystal, PUMP_SPDC_NM, default_grid))
        assert w_short / w_long == pytest.approx(2.0, rel=0.02)

    def test_bandwidth_length_product_constant(self, spdc_crystal, default_grid):
        products = []
        for length in (10.0, 20.0, 40.0):
            spec = ns.emission_spectrum(replace(spdc_crystal, length_mm=length), PUMP_SPDC_NM, default_grid)
            products.append(ns.fwhm(spec) * length)
        assert max(products) / min(products) < 1.02

    def test_acceptance_bandwidth(self, acceptance):
        assert ns.fwhm(acceptance) == pytest.approx(0.5, rel=0.15)
        assert acceptance.density.max() == pytest.approx(1.0)

    def test_acceptance_narrower_than_emission(self, emission, acceptance):
        assert ns.fwhm(acceptance) < ns.fwhm(emission)

    def test_narrow_grid_sets_clipped_flag(self, spdc_crystal):
        grid = np.linspace(SIGNAL_NM - 0.5, SIGNAL_NM + 0.5, 256)
        spec = ns.emission_spectrum(spdc_crystal, PUMP_SPDC_NM, grid)
        assert spec.clipped

    def test_wrong_process_rejected(self, spdc_crystal, sfg_crystal, default_grid):
        with pytest.raises(ValueError):
            ns.emission_spectrum(sfg_crystal, PUMP_SPDC_NM, default_grid)
        with pytest.raises(ValueError):
            ns.acceptance_spectrum(spdc_crystal, PUMP_SFG_NM, default_grid)


class TestFilteredSpectrum:
    def test_unit_acceptance_passes_emission_through(self, emission):
        ones = ns.Spectrum(emission.wavelength_nm, np.ones_like(emission.density))
        filtered = ns.filtered_spectrum(emission, ones)
        assert np.allclose(filtered.density, emission.density, atol=1e-15)

    def test_filtered_narrower_than_both(self, emission, acceptance, filtered):
        w = ns.fwhm(filtered)
        assert w < ns.fwhm(acceptance) < ns.fwhm(emission)

    def test_gaussian_fits_filtered_better_than_sinc2(self, filtered):
        from scipy.optimize import curve_fit

        x = filtered.wavelength_nm - SIGNAL_NM
        y = filtered.density

        def gauss(x, a, s):
            return a * np.exp(-(x**2) / (2 * s**2))

        def sinc2(x, a, w):
            return a * np.sinc(x / w / np.pi) ** 2

        (pg, _), (ps, _) = curve_fit(gauss, x, y, p0=[1, 0.2]), curve_fit(sinc2, x, y, p0=[1, 0.2])
        res_gauss = np.sum((gauss(x, *pg) - y) ** 2)
        res_sinc = np.sum((sinc2(x, *ps) - y) ** 2)
        assert res_gauss < res_sinc

    def test_grid_mismatch_rejected(self, emission):
        other = ns.Spectrum(emission.wavelength_nm + 0.5, emission.density)
        with pytest.raises(ns.GridError):
            ns.filtered_spectrum(emission, other)


class TestFwhm:
    def test_matches_sinc2_closed_form(self):
        lam0, width = 1547.0, 0.8
        b = 2 * SINC2_HALF_MAX_ARG / width
        grid = np.linspace(lam0 - 6, lam0 + 6, 4096)
        spec = ns.Spectrum(grid, np.sinc(b * (grid - lam0) / np.pi) ** 2)
        assert ns.fwhm(spec) == pytest.approx(width, rel=0.01)

    def test_rectangle_width(self):
        grid = np.linspace(0.0, 10.0, 101)  # step 0.1
        dens = np.zeros_like(grid)
        dens[40:60] = 1.0  # 20 points -> width 2.0 with half-step overhang
        spec = ns.Spectrum(grid, dens)
        assert ns.fwhm(spec) == pytest.approx(2.0, abs=1e-12)

    def test_two_equal_peaks_rejected(self):
        spec = ns.Spectrum(np.linspace(0, 4, 5), np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ns.PeakError):
            ns.fwhm(spec)

    def test_uncrossed_half_height_rejected(self):
        spec = ns.Spectrum(np.linspace(0, 3, 4), np.array([0.9, 0.95, 1.0, 0.99]))
        with pytest.raises(ns.PeakError):
            ns.fwhm(spec)


class TestHomProfile:
    def test_sinc2_spectrum_gives_triangle_dip(self):
        # Frequency-domain sinc^2 transforms to a compact triangle.
        lam0, width = 1547.0, 0.5
        b = 2 * SINC2_HALF_MAX_ARG / width
        grid = np.linspace(lam0 - 150.0, lam0 + 150.0, 4096)
        spec = ns.Spectrum(grid, np.sinc(b * (grid - lam0) / np.pi) ** 2)
        beta = b * lam0**2 / (2 * np.pi * C_NM_PER_S)
        base_mm = 2 * beta * C_MM_PER_S
        delays = np.linspace(-2.5 * base_mm, 2.5 * base_mm, 401)
        profile = ns.hom_profile(spec, delays, 1.0)
        triangle = 0.5 * (1 - np.clip(1 - np.abs(delays) / base_mm, 0.0, None))
        assert np.max(np.abs(profile - triangle)) < 1e-3

    def test_filtered_dip_is_quasi_gaussian(self, filtered):
        from scipy.optimize import curve_fit

        delays = np.linspace(-10.0, 10.0, 201)
        profile = ns.hom_profile(filtered, delays, 1.0)

        def dip_gauss(d, v, s):
            return 0.5 * (1 - v * np.exp(-(d**2) / (2 * s**2)))

        def dip_triangle(d, v, w):
            return 0.5 * (1 - v * np.clip(1 - np.abs(d) / w, 0.0, None))

        pg, _ = curve_fit(dip_gauss, delays, profile, p0=[1.0, 2.0])
        pt, _ = curve_fit(dip_triangle, delays, profile, p0=[1.0, 4.0])
        res_gauss = np.sum((dip_gauss(delays, *pg) - profile) ** 2)
        res_tri = np.sum((dip_triangle(delays, *pt) - profile) ** 2)
        assert res_gauss < res_tri

    def test_perfect_dip_reaches_zero(self, emission):
        assert ns.hom_profile(emission, [0.0], 1.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_delay_kernel_is_exactly_one(self, emission, filtered):
        for spec in (emission, filtered):
            assert ns.overlap_kernel(spec, [0.0])[0] == 1.0

    def test_profile_bounds_and_far_baseline(self, emission):
        vis = 0.9
        delays = np.linspace(-30.0, 30.0, 501)
        profile = ns.hom_profile(emission, delays, vis)
        assert profile.min() >= (1 - vis) / 2 - 1e-9
        assert profile.max() <= 0.5 * (1 + vis)
        assert profile[0] == pytest.approx(0.5, abs=1e-3)
        assert profile[-1] == pytest.approx(0.5, abs=1e-3)

    def test_visibility_range_checked(self, emission):
        with pytest.raises(ValueError):
            ns.hom_profile(emission, [0.0], 1.2)

    def test_nonuniform_grid_rejected(self):
        grid = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(ns.GridError):
            ns.Spectrum(grid, np.ones_like(grid))


class TestCoherenceLength:
    def test_reference_pairing(self):
        assert ns.coherence_length(1547.0, 1.28) == pytest.approx(0.83, rel=0.05)

    def test_inverse_proportionality(self):
        assert ns.coherence_length(1547.0, 2.56) == pytest.approx(
            ns.coherence_length(1547.0, 1.28) / 2
        )

    def test_against_numeric_transform_oracle(self):
        # Independent oracle: trapezoid cosine transform of a Gaussian
        # density, half-crossing found by bisection.
        lam0, width = 1547.0, 1.28
        lam = np.linspace(lam0 - 12, lam0 + 12, 20001)
        dens = np.exp(-4 * math.log(2) * (lam - lam0) ** 2 / width**2)
        omega = 2 * np.pi * C_NM_PER_S * (lam0 - lam) / lam0**2

        def g(delay_mm):
            return np.trapezoid(dens * np.cos(omega * delay_mm / C_MM_PER_S), omega) / np.trapezoid(
                dens, omega
            )

        lo, hi = 0.0, 3.0
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) > 0.5 else (lo, mid)
        assert ns.coherence_length(lam0, width) == pytest.approx(lo, rel=0.02)

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            ns.coherence_length(1547.0, 0.0)


class TestSpectrumType:
    def test_csv_round_trip(self, emission):
        again = ns.Spectrum.from_csv(emission.to_csv())
        assert np.allclose(again.wavelength_nm, emission.wavelength_nm, rtol=1e-11)
        assert np.allclose(again.density, emission.density, rtol=1e-11, atol=1e-300)

    def test_csv_header_checked(self):
        with pytest.raises(ValueError):
            ns.Spectrum.from_csv("lambda,value\n1,2\n")

    def test_normalization_idempotent(self, filtered):
        once = filtered.normalized()
        twice = once.normalized()
        assert np.array_equal(once.density, twice.density)

    def test_negative_density_rejected(self):
        with pytest.raises(ns.GridError):
            ns.Spectrum(np.linspace(0, 1, 5), np.array([0.0, 1.0, -0.1, 1.0, 0.0]))

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ns.GridError):
            ns.Spectrum(np.array([3.0, 2.0, 1.0]), np.ones(3))
