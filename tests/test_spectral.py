import math
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import noonsim as ns
from noonsim.spectral import SINC2_HALF_MAX_ARG, SpectralError

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
        with pytest.raises(SpectralError):
            ns.refractive_index(dispersion["ny"], 300.0)
        with pytest.raises(SpectralError):
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
        packaged = ns.serialize_sellmeier(ns.load_sellmeier())
        with pytest.raises(ValueError, match=r"^duplicate key 'a' in section 'ny' at line 8$"):
            ns.parse_sellmeier(packaged.replace("[ny]\n", "[ny]\na = 9.0\n", 1))
        for key, value in (("a", "nan"), ("c1", "-inf"), ("d", "inf"), ("lambda_max_um", "inf")):
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", packaged, count=1)
            with pytest.raises(ValueError, match=rf"^section 'ny' has non-finite values for \['{key}'\]$"):
                ns.parse_sellmeier(text)

    @pytest.mark.parametrize(
        ("old", "new", "message"),
        [
            # configparser's syntax, as in run configs: an indented line continues the value above it ...
            ("\nc1 = ", "\n  c1 = ", r"^section 'ny' missing keys: \['c1'\]$"),
            # ... and a key must not be empty.
            ("[ny]\n", "[ny]\n= 3\n", r"\[line 7\]: '= 3\\n'$"),
            # No section supplies defaults to the others: [DEFAULT] is an ordinary axis.
            ("[ny]", "[DEFAULT]", None),
        ],
        ids=["indented-key", "empty-key", "default-section"],
    )
    def test_configparser_syntax(self, old, new, message):
        packaged = ns.serialize_sellmeier(ns.load_sellmeier())
        text = packaged.replace(old, new, 1)
        if message is not None:
            with pytest.raises(ValueError, match=message):
                ns.parse_sellmeier(text)
            return
        parsed = ns.parse_sellmeier(text)
        assert list(parsed) == ["DEFAULT", "nz"]
        assert parsed["DEFAULT"] == replace(ns.load_sellmeier()["ny"], name="DEFAULT")


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

    def test_array_after_two_scalars_gives_an_array(self, spdc_crystal):
        # The result was cast to float whenever the first two wavelengths were scalars: a TypeError here.
        dk = ns.phase_mismatch(spdc_crystal, PUMP_SPDC_NM, SIGNAL_NM, np.array([SIGNAL_NM, SIGNAL_NM]))
        assert dk.shape == (2,) and np.all(np.abs(dk) < 1e-6)

    @pytest.mark.parametrize(
        "waves", [(0.0, SIGNAL_NM, SIGNAL_NM), (PUMP_SPDC_NM, -0.0, SIGNAL_NM), (PUMP_SPDC_NM, SIGNAL_NM, math.inf)]
    )
    def test_wavelength_rejected_before_it_is_divided_by(self, spdc_crystal, waves):
        # A zero wavelength used to warn of a division by zero before the energy check raised.
        for call in (ns.phase_mismatch, lambda crystal, *lams: ns.solve_poling_period(crystal, lams)):
            with pytest.raises(SpectralError, match="wavelength outside validity window"):
                call(spdc_crystal, *waves)


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

    def test_upconversion_solution_verified(self, spdc_crystal, sfg_crystal):
        for crystal, lams in (
            (spdc_crystal, (PUMP_SPDC_NM, SIGNAL_NM, SIGNAL_NM)),
            (sfg_crystal, (SFG_NM, PUMP_SFG_NM, SIGNAL_NM)),
        ):
            dk = ns.phase_mismatch(crystal, *lams)
            assert abs(dk * crystal.length_mm * 1e-3) <= 1e-12

    def test_perturbed_period_detunes(self, spdc_crystal):
        nudged = replace(spdc_crystal, poling_period_um=spdc_crystal.poling_period_um * 1.01)
        dk = ns.phase_mismatch(nudged, PUMP_SPDC_NM, SIGNAL_NM, SIGNAL_NM)
        assert abs(dk) > 1.0

    @pytest.mark.parametrize(
        "target",
        [(PUMP_SPDC_NM, SIGNAL_NM, np.array([SIGNAL_NM])), (PUMP_SPDC_NM, SIGNAL_NM), np.full((3, 1), SIGNAL_NM)],
        ids=["array-wave", "two-waves", "column"],
    )
    def test_target_not_three_numbers_rejected(self, spdc_crystal, target):
        # An array wavelength in the target used to end in a TypeError from float().
        with pytest.raises(SpectralError, match="^a poling target must be three wavelengths$"):
            ns.solve_poling_period(spdc_crystal, target)

    def test_no_solution_raises(self, dispersion):
        # An all-z "downconversion" toward 525 nm has a positive material
        # mismatch, which the +grating convention cannot cancel.
        crystal = ns.CrystalSpec(
            20.0, 1.0, "spdc", "type-II",
            {"pump": "nz", "signal": "nz", "idler": "nz"}, dispersion,
        )
        with pytest.raises(SpectralError):
            ns.solve_poling_period(crystal, (SFG_NM, PUMP_SFG_NM, SIGNAL_NM))
        # An SFG wave on the low y index with its inputs on z has a negative
        # material mismatch, which the -grating convention cannot cancel.
        crystal = ns.CrystalSpec(
            20.0, 1.0, "sfg", "type-I",
            {"sfg": "ny", "pump": "nz", "signal": "nz"}, dispersion,
        )
        with pytest.raises(SpectralError):
            ns.solve_poling_period(crystal, (SFG_NM, PUMP_SFG_NM, SIGNAL_NM))


class TestCrystalSpec:
    @pytest.mark.parametrize("field", ["length_mm", "poling_period_um"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_dimensions_rejected(self, spdc_crystal, field, bad):
        with pytest.raises(ValueError):
            replace(spdc_crystal, **{field: bad})

    def test_waves_follow_energy_conservation(self, spdc_crystal, sfg_crystal, default_grid):
        assert spdc_crystal.waves(PUMP_SPDC_NM, SIGNAL_NM) == pytest.approx((PUMP_SPDC_NM, SIGNAL_NM, SIGNAL_NM))
        assert sfg_crystal.waves(PUMP_SFG_NM, SIGNAL_NM) == (SFG_NM, PUMP_SFG_NM, SIGNAL_NM)
        for crystal, pump in ((spdc_crystal, PUMP_SPDC_NM), (sfg_crystal, PUMP_SFG_NM)):
            a, b, c = crystal.waves(pump, default_grid)
            assert np.allclose(1.0 / a, 1.0 / b + 1.0 / c, rtol=1e-12, atol=0.0)


class TestGuards:
    @pytest.mark.parametrize(
        ("call", "error", "message"),
        [
            (
                lambda spdc, sfg: replace(spdc.dispersion["nz"], lambda_min_um=spdc.dispersion["nz"].lambda_max_um),
                ValueError,
                "validity window must satisfy 0 < min < max",
            ),
            (lambda spdc, sfg: replace(spdc, process="shg"), ValueError, "process must be one of"),
            (
                lambda spdc, sfg: replace(spdc, axes={"pump": "ny", "signal": "ny"}),
                ValueError,
                "axes must map exactly the roles",
            ),
            (
                lambda spdc, sfg: ns.Spectrum(np.ones((3, 3)), np.ones((3, 3))),
                SpectralError,
                "grid and density must be 1-D",
            ),
            (
                lambda spdc, sfg: ns.fwhm(ns.Spectrum(np.arange(3.0), np.zeros(3))),
                SpectralError,
                "density has no positive peak",
            ),
            (
                lambda spdc, sfg: ns.emission_spectrum(spdc, PUMP_SPDC_NM, np.linspace(700.0, 1600.0, 64)),
                ValueError,
                "pump, signal and idler wavelengths must be positive and finite",
            ),
            (
                lambda spdc, sfg: spdc.waves(PUMP_SPDC_NM, math.nan),
                ValueError,
                "pump, signal and idler wavelengths must be positive and finite",
            ),
            (
                lambda spdc, sfg: sfg.waves(0.0, SIGNAL_NM),
                ValueError,
                "sfg, pump and signal wavelengths must be positive and finite",
            ),
            (
                lambda spdc, sfg: sfg.waves(PUMP_SFG_NM, -SIGNAL_NM),
                ValueError,
                "sfg, pump and signal wavelengths must be positive and finite",
            ),
        ],
        ids=[
            "window-min-at-max",
            "unknown-process",
            "axes-miss-a-role",
            "two-dimensional-grid",
            "fwhm-of-zero-density",
            "emission-grid-below-pump",
            "nan-signal",
            "zero-converter-pump",
            "negative-converter-signal",
        ],
    )
    def test_invalid_argument_is_named(self, spdc_crystal, sfg_crystal, call, error, message):
        with pytest.raises(error) as info:
            call(spdc_crystal, sfg_crystal)
        assert info.type is error and str(info.value).startswith(message)


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

    @pytest.mark.parametrize(
        "grid",
        [np.linspace(SIGNAL_NM - 0.5, SIGNAL_NM + 0.5, 256), np.linspace(1541.0, 1547.3, 2048)],
        ids=["both-edges", "right-edge"],
    )
    def test_narrow_grid_sets_clipped_flag(self, spdc_crystal, grid):
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
        with pytest.raises(SpectralError):
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
        with pytest.raises(SpectralError):
            ns.fwhm(spec)

    def test_uncrossed_half_height_rejected(self):
        spec = ns.Spectrum(np.linspace(0, 3, 4), np.array([0.9, 0.95, 1.0, 0.99]))
        with pytest.raises(SpectralError):
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

    @pytest.mark.parametrize(
        ("points", "bow", "reach"),
        [pytest.param(n, 0.0, 8.0, id=str(n)) for n in (3, 4, 1001, 1024, 4095, 4096)]
        + [
            # A grid bowed by a cubic of 2e-4 nm is uniform to 5e-5 of its
            # step, as Spectrum accepts, but too far from uniform for the
            # fast sum's first-order term: it takes the direct cosine sum.
            pytest.param(101, 2e-4, 8.0, id="101-bowed"),
            # A bow of 3e-11 nm keeps the fast sum, whose first-order term
            # it needs; the delays reach the coherence envelope's far tail.
            pytest.param(16384, 3e-11, 12.0, id="16384-reach12"),
        ],
    )
    def test_half_grid_kernel_matches_full_grid_sum(self, points, bow, reach):
        # Independent oracle: the cosine sum over every grid point of the
        # symmetrized density, for an asymmetric density on odd and even grids.
        # The bow is odd about the grid center, as the half-grid sum assumes.
        rng = np.random.default_rng(points)
        grid = np.linspace(1539.0, 1555.0, points)
        grid += bow * ((grid - 1547.0) / 8.0) ** 3
        dens = np.exp(-(((grid - 1545.5) / 2.0) ** 2)) * (1.0 + 0.5 * rng.random(points))
        spec = ns.Spectrum(grid, dens)
        delays = np.concatenate(([0.0], np.linspace(-reach, reach, 161), rng.uniform(-3.0, 3.0, 20)))
        # Exact +- pairs, duplicates, both signed zeros, in no order; then
        # the same without a zero, and a lone zero.
        pairs = rng.uniform(0.0, reach, 30)
        mixed = rng.permutation(np.concatenate((pairs, -pairs, pairs[:5], -pairs[5:8], [-0.0, 0.0, -0.0])))
        lam0 = 0.5 * (grid[0] + grid[-1])
        omega = 2 * np.pi * C_NM_PER_S * (lam0 - grid) / lam0**2
        sym = 0.5 * (dens + dens[::-1])
        for scan in (delays, mixed, mixed[mixed != 0.0], np.array([0.0])):
            want = np.cos(np.outer(scan / C_MM_PER_S, omega)) @ sym / sym.sum()
            got = ns.overlap_kernel(spec, scan)
            assert np.max(np.abs(got - want)) < 1e-12
            assert np.all(got[scan == 0.0] == 1.0)
            bits = got.view(np.int64)
            mirrored = np.abs(scan)[:, None] == np.abs(scan)[None, :]
            assert np.all((bits[:, None] == bits[None, :])[mirrored])
            if scan is delays:
                assert got[0] == 1.0 and got[81] == 1.0  # both zero delays

    @pytest.mark.parametrize("points", [4096, 16384])
    def test_read_back_kernel_matches_direct_sum(self, spdc_crystal, points):
        # %.12g rounds the wavelengths by up to 5e-9 nm, so the read-back grid is uniform
        # only to about 5e3 rad/s; at 6 mm the fast sum's dropped terms are still below 1e-13.
        grid = np.linspace(SIGNAL_NM - 8.0, SIGNAL_NM + 8.0, points)
        spec = ns.Spectrum.from_csv(ns.emission_spectrum(spdc_crystal, PUMP_SPDC_NM, grid).to_csv())
        delays = np.linspace(-6.0, 6.0, 121)
        lam = spec.wavelength_nm
        lam0 = 0.5 * (lam[0] + lam[-1])
        omega = 2 * np.pi * C_NM_PER_S * (lam0 - lam) / lam0**2
        sym = 0.5 * (spec.density + spec.density[::-1])
        want = np.cos(np.outer(delays / C_MM_PER_S, omega)) @ sym / sym.sum()
        assert np.max(np.abs(ns.overlap_kernel(spec, delays) - want)) < 1e-12

    @pytest.mark.parametrize("delay", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    def test_delay_whose_phase_is_not_finite_rejected(self, emission, delay):
        with pytest.raises(ValueError, match="must be finite"):
            ns.overlap_kernel(emission, [0.0, 1.0, delay])

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
        with pytest.raises(SpectralError):
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

        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz  # numpy < 2.0

        def g(delay_mm):
            return trapezoid(dens * np.cos(omega * delay_mm / C_MM_PER_S), omega) / trapezoid(dens, omega)

        lo, hi = 0.0, 3.0
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) > 0.5 else (lo, mid)
        assert ns.coherence_length(lam0, width) == pytest.approx(lo, rel=0.02)

    def test_positive_bandwidth_required(self):
        with pytest.raises(ValueError):
            ns.coherence_length(1547.0, 0.0)

    @pytest.mark.parametrize(
        ("center_nm", "bandwidth_nm", "message"),
        [
            (1550.0, math.inf, "bandwidth"),
            (1550.0, math.nan, "bandwidth"),
            (-1550.0, 1.0, "center wavelength"),
            (0.0, 1.0, "center wavelength"),
            (math.nan, 1.0, "center wavelength"),
            (math.inf, 1.0, "center wavelength"),
        ],
    )
    def test_non_finite_or_nonpositive_argument_rejected(self, center_nm, bandwidth_nm, message):
        with pytest.raises(ValueError, match=f"^{message} must be positive and finite"):
            ns.coherence_length(center_nm, bandwidth_nm)

    @pytest.mark.parametrize(("center_nm", "bandwidth_nm"), [(1e300, 1.5), (1e200, 1e-300), (1547.0, 1e-310)])
    def test_overflowing_length_rejected(self, center_nm, bandwidth_nm):
        # The first two raised OverflowError, the third returned inf.
        with pytest.raises(ValueError, match="overflows$"):
            ns.coherence_length(center_nm, bandwidth_nm)


class TestSpectrumType:
    def test_csv_round_trip(self, emission):
        again = ns.Spectrum.from_csv(emission.to_csv())
        assert np.allclose(again.wavelength_nm, emission.wavelength_nm, rtol=1e-11)
        assert np.allclose(again.density, emission.density, rtol=1e-11, atol=1e-300)

    def test_csv_header_checked(self):
        with pytest.raises(ValueError):
            ns.Spectrum.from_csv("lambda,value\n1,2\n")

    def test_csv_matches_per_row_formatter(self):
        rng = np.random.default_rng(5)
        special = [-0.0, 0.0, 5e-324, 1e-300, 1e300, 1.0, 0.1]
        dens = np.concatenate((special, rng.random(50), rng.random(50) * 10.0 ** rng.integers(-300, 300, 50)))
        spec = ns.Spectrum(np.linspace(1500.0, 1600.0, dens.size), dens)
        rows = map("{:.12g},{:.12g}".format, spec.wavelength_nm.tolist(), spec.density.tolist())
        assert spec.to_csv() == "\n".join(["wavelength_nm,density", *rows]) + "\n"

    def test_csv_read_matches_per_value_float(self):
        rng = np.random.default_rng(6)
        lam = np.linspace(1500.0, 1600.0, 300)
        dens = np.concatenate(([0.0, 5e-324, 1e-300, 1e300], rng.random(296) * 10.0 ** rng.integers(-300, 300, 296)))
        cells = [(repr(a), repr(b)) for a, b in zip(lam.tolist(), dens.tolist())]
        cells[:3] = [(cells[0][0], "-0"), (cells[1][0], " 1e-400"), (cells[2][0], "4.94065645841e-324 ")]
        text = "wavelength_nm,density\n" + "".join(f"{a},{b}\n" for a, b in cells)
        for variant in (text, text.replace("\n", "\n\n"), text.replace(",-0\n", ",-0,extra\n")):
            back = ns.Spectrum.from_csv(variant)
            for column, got in zip(zip(*cells), (back.wavelength_nm, back.density)):
                want = np.array([float(cell) for cell in column])
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        ("text", "line"),
        [
            ("wavelength_nm,density\n1547.0\n1548,0.5\n1549,0.2\n", 2),
            ("wavelength_nm,density\n\n1547,1\n1548,0.5\n\n1549\n", 6),
            ("wavelength_nm,density\n1547,1\n1548,abc\n1549,0.2\n", 3),
            ("wavelength_nm,density,note\n1547,1,a\n1548,,b\n1549,0.2,c\n", 3),
        ],
    )
    def test_csv_bad_row_names_its_line(self, text, line):
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            ns.Spectrum.from_csv(text)

    def test_negative_density_rejected(self):
        with pytest.raises(SpectralError):
            ns.Spectrum(np.linspace(0, 1, 5), np.array([0.0, 1.0, -0.1, 1.0, 0.0]))

    def test_decreasing_grid_rejected(self):
        with pytest.raises(SpectralError):
            ns.Spectrum(np.array([3.0, 2.0, 1.0]), np.ones(3))
