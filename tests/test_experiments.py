import math
import tracemalloc
import warnings

import numpy as np
import pytest

import noonsim as ns
from noonsim import experiments
from noonsim.elements import Circuit, CircuitElement
from noonsim.experiments import EfficiencyChain, FRINGE_PHASE_OFFSET
from noonsim.fock import FockError, FockState
from noonsim.spectral import SINC2_HALF_MAX_ARG


def sinc2_spectrum(width_nm=0.5, half_span_nm=40.0, points=1024, lam0=1547.0):
    b = 2 * SINC2_HALF_MAX_ARG / width_nm
    grid = np.linspace(lam0 - half_span_nm, lam0 + half_span_nm, points)
    return ns.Spectrum(grid, np.sinc(b * (grid - lam0) / np.pi) ** 2)


class TestPoissonSampling:
    def test_zero_mean_always_zero(self):
        assert all(ns.poisson_counts([0.0], seed)[0] == 0 for seed in range(20))

    def test_deterministic_given_seed(self):
        assert ns.poisson_counts([37.5], 99)[0] == ns.poisson_counts([37.5], 99)[0]
        a = ns.poisson_counts(np.full(100, 12.0), 4321)
        b = ns.poisson_counts(np.full(100, 12.0), 4321)
        assert np.array_equal(a, b)

    def test_substreams_differ_between_points(self):
        counts = ns.poisson_counts(np.full(200, 50.0), 1)
        assert len(np.unique(counts)) > 1

    def test_mean_and_variance(self):
        counts = ns.poisson_counts(np.full(20000, 50.0), 7)
        assert counts.mean() == pytest.approx(50.0, rel=0.02)
        assert counts.var(ddof=1) == pytest.approx(50.0, rel=0.05)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            ns.poisson_counts([-1.0], 0)[0]
        with pytest.raises(ValueError):
            ns.poisson_counts([1.0, -2.0], 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e19])
    def test_nonfinite_or_oversized_mean_rejected(self, bad):
        with pytest.raises(ValueError):
            ns.poisson_counts([1.0, bad, 50.0], 0)
        with pytest.raises(ValueError):
            ns.poisson_counts([bad], 0)[0]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ns.poisson_counts([1.0, 50.0], -1)

    def test_count_depends_only_on_its_own_point(self):
        # Means on both sides of the inversion/PTRS split at 10.
        means = np.random.default_rng(3).uniform(0.0, 40.0, 500)
        counts = ns.poisson_counts(means, 77)
        assert np.array_equal(ns.poisson_counts(means[:123], 77), counts[:123])
        changed = means.copy()
        changed[::2] = np.random.default_rng(4).uniform(0.0, 40.0, changed[::2].size)
        assert np.array_equal(ns.poisson_counts(changed, 77)[1::2], counts[1::2])

    def test_scan_across_block_boundaries(self, monkeypatch):
        # Two blocks and three points, means on both sides of the split at 10.
        n = 2 * experiments._POISSON_BLOCK + 3
        means = np.random.default_rng(8).uniform(0.0, 40.0, n)
        counts = ns.poisson_counts(means, 21)
        for k in (experiments._POISSON_BLOCK - 1, experiments._POISSON_BLOCK + 1, n - 2):
            assert np.array_equal(ns.poisson_counts(means[:k], 21), counts[:k])
        changed = means.copy()
        changed[::2] = np.random.default_rng(9).uniform(0.0, 40.0, changed[::2].size)
        assert np.array_equal(ns.poisson_counts(changed, 21)[1::2], counts[1::2])
        monkeypatch.setattr(experiments, "_POISSON_BLOCK", n)
        assert np.array_equal(ns.poisson_counts(means, 21), counts)

    def test_scratch_memory_is_bounded_by_a_block(self):
        # Sampled in one block, these points would hold about 98 MiB of scratch.
        means = np.random.default_rng(10).uniform(0.0, 40.0, 300_000)
        tracemalloc.start()
        try:
            counts = ns.poisson_counts(means, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - counts.nbytes <= 40 * 2**20, peak

    def test_zero_means_among_others_give_zero(self):
        means = np.tile([0.0, 3.0, 0.0, 500.0], 100)
        for seed in range(5):
            assert not ns.poisson_counts(means, seed)[means == 0.0].any()

    @pytest.mark.parametrize("mean", [0.5, 9.99, 10.0, 700.0, 1e6])
    def test_poisson_mean_and_variance(self, mean):
        n = 40_000
        counts = ns.poisson_counts(np.full(n, mean), 2024).astype(float)
        z_mean = (counts.mean() - mean) / math.sqrt(mean / n)
        z_var = (counts.var(ddof=1) - mean) / (mean * math.sqrt(2.0 / n + 1.0 / (mean * n)))
        assert abs(z_mean) < 5.0 and abs(z_var) < 5.0

    @pytest.mark.parametrize("mean", [0.5, 9.99, 10.0, 30.0])
    def test_pmf_matches_poisson(self, mean):
        n = 100_000
        counts = ns.poisson_counts(np.full(n, mean), 31)
        for k in range(int(3 * mean) + 3):
            p = math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))
            observed = np.count_nonzero(counts == k) / n
            assert abs(observed - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n) + 1e-5

    def test_log_factorial_across_table_edge(self):
        from noonsim.experiments import _log_factorial

        k = np.array([0.0, 1.0, 2.0, 30.0, 31.0, 32.0, 33.0, 100.0, 1e4, 1e9])
        want = np.array([math.lgamma(x + 1.0) for x in k])
        assert np.allclose(_log_factorial(k), want, rtol=1e-15, atol=1e-13)


class TestHomScan:
    def test_perfect_overlap_nulls_the_dip(self):
        spec = sinc2_spectrum()
        scan = ns.hom_scan(spec, 1.0, [0.0], 600.0, 1.0, 5, noiseless=True)
        assert scan.expected[0] == pytest.approx(0.0, abs=1e-9)

    def test_far_baseline_equals_rate_times_bin(self):
        # 2048 points keep the discrete transform's alias replica (at
        # lam0^2/step ~ 61 mm) beyond the probed delay.
        spec = sinc2_spectrum(points=2048)
        scan = ns.hom_scan(spec, 0.97, [30.0, -30.0], 600.0, 1.0, 5, noiseless=True)
        assert np.allclose(scan.expected, 600.0, rtol=1e-3)

    def test_dip_visibility_recovers_overlap(self):
        spec = sinc2_spectrum()
        delays = np.linspace(-8.0, 8.0, 161)
        scan = ns.hom_scan(spec, 0.979, delays, 600.0, 1.0, 5, noiseless=True)
        assert ns.dip_visibility(scan) == pytest.approx(0.979, abs=1e-3)

    def test_sampled_mean_tracks_expectation(self):
        # 1000 independent substreams at one fixed delay.
        spec = sinc2_spectrum(points=128)
        delays = np.full(1000, 1.0)
        scan = ns.hom_scan(spec, 0.9, delays, 600.0, 1.0, 31)
        mu = scan.expected[0]
        assert scan.counts.mean() == pytest.approx(mu, abs=3 * math.sqrt(mu / 1000))

    def test_argument_validation(self):
        spec = sinc2_spectrum(points=64)
        with pytest.raises(ValueError):
            ns.hom_scan(spec, 1.5, [0.0], 600.0, 1.0, 0)
        with pytest.raises(ValueError):
            ns.hom_scan(spec, 0.5, [0.0], 0.0, 1.0, 0)
        for rate, t_bin in ((math.nan, 1.0), (math.inf, 1.0), (600.0, math.nan), (600.0, math.inf)):
            for noiseless in (False, True):
                with pytest.raises(ValueError):
                    ns.hom_scan(spec, 0.5, [0.0], rate, t_bin, 0, noiseless)
                with pytest.raises(ValueError):
                    ns.bunching_scan(0.5, [0.0], rate, t_bin, 0, spectrum=spec, noiseless=noiseless)
                with pytest.raises(ValueError):
                    ns.noon_fringe(2, 0.5, [0.0], rate, t_bin, 0, noiseless)

    @pytest.mark.parametrize("gamma", [0.979, 1.0])
    def test_noiseless_scans_equal_the_profile_and_the_kernel_bitwise(self, emission, gamma):
        # hom_scan is twice hom_profile, and bunching_scan (1 + gamma g) / 8, scaled by rate * t_bin.
        delays = np.linspace(-6.0, 6.0, 121)
        rate, t_bin = 600.0, 1.0
        dip = ns.hom_scan(emission, gamma, delays, rate, t_bin, 7, noiseless=True)
        profile = ns.hom_profile(emission, delays, gamma)
        assert np.array_equal(dip.expected, np.clip(rate * t_bin * (2.0 * profile), 0.0, None))
        peak = ns.bunching_scan(gamma, delays, rate, t_bin, 7, spectrum=emission, noiseless=True)
        shape = (1.0 + gamma * ns.overlap_kernel(emission, delays)) / 8.0
        assert np.array_equal(peak.expected, np.clip(rate * t_bin * shape, 0.0, None))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_expected_counts_beyond_int64_rejected(self):
        spec = sinc2_spectrum(points=64)
        for noiseless in (False, True):
            with pytest.raises(ValueError):
                ns.hom_scan(spec, 0.5, [0.0], 1e300, 1.0, 0, noiseless)


def fock_bunching_probability(distinguishable: bool) -> float:
    """Oracle: dip-splitter cascade evaluated in the Fock simulator."""
    modes = ("m1", "m2", "m3")
    first = CircuitElement.splitter(np.pi / 4, "m1", "m2")
    second = CircuitElement.splitter(np.pi / 4, "m1", "m3")
    pattern = ns.DetectorPattern.coincidence("m1", "m3")
    if not distinguishable:
        psi = ns.basis_state(modes, {"m1": 1, "m2": 1})
        out = ns.apply_circuit(psi, Circuit((first, second)))
        return ns.detect(out, pattern)
    # Distinguishable photons never interfere: propagate each alone and
    # combine the single-photon routing probabilities.
    def routing(start):
        psi = ns.basis_state(modes, {start: 1})
        out = ns.apply_circuit(psi, Circuit((first, second)))
        return {m: out.probability(FockState.from_counts({m: 1})) for m in modes}

    px, py = routing("m1"), routing("m2")
    return px["m1"] * py["m3"] + px["m3"] * py["m1"]


class TestBunchingScan:
    def test_fock_oracle_dip_and_baseline(self):
        assert fock_bunching_probability(False) == pytest.approx(0.25, abs=1e-12)
        assert fock_bunching_probability(True) == pytest.approx(0.125, abs=1e-12)

    def test_peak_doubles_for_perfect_overlap(self):
        spec = sinc2_spectrum()
        scan = ns.bunching_scan(1.0, [0.0], 800.0, 1.0, 3, spectrum=spec, noiseless=True)
        baseline = 800.0 / 8.0
        assert scan.expected[0] / baseline == pytest.approx(2.0, abs=1e-9)

    def test_flat_for_distinguishable_photons(self):
        spec = sinc2_spectrum()
        delays = np.linspace(-6.0, 6.0, 41)
        scan = ns.bunching_scan(0.0, delays, 800.0, 1.0, 3, spectrum=spec, noiseless=True)
        assert np.allclose(scan.expected, 100.0)
        assert ns.peak_to_baseline_ratio(scan) == pytest.approx(1.0)

    def test_partial_overlap_matches_fock_mixture(self):
        # The simulated rate at zero delay must equal the gamma-weighted mix
        # of the two Fock-oracle outcomes, for every overlap on a 0.1 grid.
        spec = sinc2_spectrum()
        p_bunched = fock_bunching_probability(False)
        p_classical = fock_bunching_probability(True)
        for gamma in np.linspace(0.0, 1.0, 11):
            scan = ns.bunching_scan(gamma, [0.0], 1.0, 1.0, 3, spectrum=spec, noiseless=True)
            mixed = gamma * p_bunched + (1 - gamma) * p_classical
            assert scan.expected[0] == pytest.approx(mixed, abs=1e-9)
            # dip-to-baseline ratio is 1 + gamma
            assert scan.expected[0] / (1.0 / 8.0) == pytest.approx(1 + gamma, abs=1e-9)


def per_phase_fringe(n, phases):
    """The cross-check as a circuit per phase: the phase on arm b, then a 50:50 splitter, projected on (N-1, 1)."""
    noon = ns.noon_state(n, "arm-a", "arm-b")
    pattern = FockState.from_counts({"arm-a": n - 1, "arm-b": 1})
    return np.array(
        [
            ns.apply_circuit(
                noon,
                Circuit((CircuitElement.phase(phi, "arm-b"), CircuitElement.splitter(math.pi / 4, "arm-a", "arm-b"))),
            ).probability(pattern)
            for phi in phases
        ]
    )


class TestNoonFringe:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12, 20])
    def test_matches_a_circuit_per_phase(self, n):
        phases = np.concatenate([np.linspace(0.0, 2 * np.pi, 37), [1e300, -1e300]])
        # 8 ulp of 1.0: the two forms round the same products in a different order.
        assert np.max(np.abs(ns.noon_fringe_probabilities(n, phases) - per_phase_fringe(n, phases))) <= 1.8e-15

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="^phases must be finite$"):
            ns.noon_fringe_probabilities(2, [0.0, phase])

    def test_more_photons_than_the_mixer_takes_rejected(self):
        with pytest.raises(FockError, match="^171 photons in the mixed modes exceed the limit of 170$"):
            ns.noon_fringe_probabilities(171, [0.0, 1.0])

    def test_closed_form_matches_fock_pipeline(self):
        phases = np.linspace(0.0, 2 * np.pi, 37)
        for n in (1, 2, 3, 4):
            pipeline = ns.noon_fringe_probabilities(n, phases)
            scale = n / 2 ** (n - 1)
            closed = (1 + np.cos(n * phases + FRINGE_PHASE_OFFSET)) / 2
            assert np.max(np.abs(pipeline / scale - closed)) < 1e-10

    @pytest.mark.parametrize("n", [8, 12, 20, 85, 86, 120, 170])
    def test_closed_form_matches_fock_pipeline_above_six_photons(self, n):
        phases = np.linspace(0.0, 2 * np.pi, 37)
        pipeline = ns.noon_fringe_probabilities(n, phases)
        closed = (1 + np.cos(n * phases + FRINGE_PHASE_OFFSET)) / 2
        assert np.max(np.abs(pipeline / (n / 2 ** (n - 1)) - closed)) < 1e-10

    def test_expected_counts_follow_closed_form(self):
        phases = np.linspace(0.0, 2 * np.pi, 25)
        scan = ns.noon_fringe(2, 0.8, phases, 1000.0, 1.0, 8, noiseless=True)
        model = 1000.0 * (1 + 0.8 * np.cos(2 * phases + np.pi)) / 2
        assert np.allclose(scan.expected, model)

    def test_period_scales_inversely_with_photon_number(self):
        phases = np.linspace(0.0, 2 * np.pi, 96)
        f = {}
        for n, vis in ((1, 0.9751), (2, 0.8493)):
            scan = ns.noon_fringe(n, vis, phases, 600.0, 1.0, 11, noiseless=True)
            f[n] = ns.fit_visibility(scan, n).frequency
        assert f[2] / f[1] == pytest.approx(2.0, abs=0.02)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, 1e308])
    def test_phase_not_finite_times_n_rejected(self, phase):
        # cos of such a phase used to warn before the scan was rejected.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="phases times the photon number must be finite"):
                ns.noon_fringe(2, 0.5, [0.0, phase], 1.0, 1.0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ns.noon_fringe(0, 0.5, [0.0], 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            ns.noon_fringe(2, 1.5, [0.0], 1.0, 1.0, 0)


class TestPlatePhase:
    def test_zero_tilt_gives_zero_phase(self):
        assert ns.plate_phase(0.0, 2e-4, 1.5, 525e-9) == 0.0

    def test_even_in_tilt(self):
        assert ns.plate_phase(0.2, 2e-4, 1.5, 525e-9) == pytest.approx(
            ns.plate_phase(-0.2, 2e-4, 1.5, 525e-9)
        )

    def test_monotone_on_positive_tilts(self):
        tilts = np.linspace(0.0, np.pi / 3 - 1e-6, 200)
        phases = [ns.plate_phase(t, 2e-4, 1.5, 525e-9) for t in tilts]
        assert np.all(np.diff(phases) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ns.plate_phase(np.pi / 2, 2e-4, 1.5, 525e-9)
        with pytest.raises(ValueError):
            ns.plate_phase(0.1, 2e-4, 0.9, 525e-9)
        for thickness_m, wavelength_m in ((0.0, 525e-9), (-2e-4, 525e-9), (2e-4, 0.0), (2e-4, -5e-7)):
            with pytest.raises(ValueError):
                ns.plate_phase(0.1, thickness_m, 1.5, wavelength_m)

    @pytest.mark.parametrize(
        ("thickness_m", "index", "wavelength_m"), [(2e-4, 1.5, 525e-9), (1e-3, 1.45, 1547e-9), (5e-5, 2.2, 775e-9)]
    )
    def test_array_matches_snell_law(self, thickness_m, index, wavelength_m):
        # Path difference through the refracted ray, against the untilted plate.
        tilts = np.linspace(-np.pi / 3, np.pi / 3, 2001)[1:-1]
        refracted = np.arcsin(np.sin(tilts) / index)
        path = (
            index * thickness_m / np.cos(refracted)
            - thickness_m * np.cos(tilts - refracted) / np.cos(refracted)
            - (index - 1.0) * thickness_m
        )
        scale = 2 * np.pi * thickness_m / wavelength_m
        phases = ns.plate_phase(tilts, thickness_m, index, wavelength_m)
        assert phases.shape == tilts.shape
        np.testing.assert_allclose(phases, 2 * np.pi / wavelength_m * path, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize(
        ("thickness_m", "index", "wavelength_m", "message"),
        [
            (2e-4, 1e300, 525e-9, "plate index squared must be finite"),
            (2e-4, 1e155, 525e-9, "plate index squared must be finite"),
            (2e-4, math.nan, 525e-9, "plate index squared must be finite"),
            (1e305, 1.5, 525e-9, "plate phase must be finite"),
            (2e-4, 1.5, 5e-324, "plate phase must be finite"),
        ],
    )
    def test_non_finite_index_square_or_phase_raises(self, thickness_m, index, wavelength_m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ns.plate_phase(np.linspace(0.0, 0.25, 5), thickness_m, index, wavelength_m)

    @pytest.mark.parametrize("edge", [np.pi / 3, -np.pi / 3, 2.0])
    def test_array_with_one_tilt_out_of_range_raises(self, edge):
        tilts = np.linspace(-0.5, 0.5, 11)
        tilts[4] = edge
        with pytest.raises(ValueError, match="plate tilt"):
            ns.plate_phase(tilts, 2e-4, 1.5, 525e-9)


class TestFitVisibility:
    @pytest.mark.parametrize("rate", [500.0, 5.0])
    def test_noiseless_recovery_is_exact(self, rate):
        phases = np.linspace(0.0, 2 * np.pi, 64)
        scan = ns.noon_fringe(2, 0.800, phases, rate, 1.0, 1, noiseless=True)
        report = ns.fit_visibility(scan, 2)
        assert report.visibility == pytest.approx(0.800, abs=1e-6)
        assert report.frequency == pytest.approx(2.0, abs=1e-6)
        # The sigma of a measurement at this rate: the Fisher information of
        # (C0, V, f, phi0) at the truth, each bin weighted by 1 / max(mu, 1).
        # At 500 Hz every mu exceeds 1; at 5 Hz the dark bins hold 0.5 counts.
        c0, vis, theta = rate / 2.0, 0.8, 2.0 * phases + FRINGE_PHASE_OFFSET
        mu = c0 * (1.0 + vis * np.cos(theta))
        slope = -c0 * vis * np.sin(theta)
        jac = np.array([1.0 + vis * np.cos(theta), c0 * np.cos(theta), slope * phases, slope])
        fisher_sigma = math.sqrt(np.linalg.inv((jac / np.maximum(mu, 1.0)) @ jac.T)[1, 1])
        assert report.visibility_sigma == pytest.approx(fisher_sigma, rel=1e-9)

    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize("rate", [1e-300, 1e-20, 1e-6])
    def test_less_than_one_count_in_all_is_no_fit(self, rate, noiseless):
        # A sampled scan that low reads 0 everywhere; a noiseless one still
        # has a fringe, but no measurement could fit it.
        phases = np.linspace(0.0, 2 * np.pi, 96)
        scan = ns.noon_fringe(2, 0.8493, phases, rate, 1.0, 11, noiseless=noiseless)
        message = "counts in all; a fit needs at least one" if noiseless else "every point reads 0$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ns.FitError, match=message):
                ns.fit_visibility(scan, 2)

    @pytest.mark.parametrize("rate", [0.03, 1.0, 600.0, 1e12])
    @pytest.mark.parametrize(("n", "vis"), [(1, 0.9751), (2, 0.8493), (2, 0.2)])
    def test_noiseless_fit_from_one_count_up_lands_on_the_truth(self, rate, n, vis):
        # 96 points at rate 0.03 hold about 1.4 counts in all.
        phases = np.linspace(0.0, 2 * np.pi, 96)
        report = ns.fit_visibility(ns.noon_fringe(n, vis, phases, rate, 1.0, 0, noiseless=True), n)
        assert report.visibility == pytest.approx(vis, abs=1e-9)
        assert report.frequency == pytest.approx(n, abs=1e-9)
        assert report.amplitude == pytest.approx(rate / 2.0, rel=1e-9)
        assert 0.0 < report.visibility_sigma < math.inf

    def test_poisson_recovery_within_three_sigma(self):
        phases = np.linspace(0.0, 2 * np.pi, 96)
        scan = ns.noon_fringe(2, 0.8493, phases, 600.0, 1.0, 424242)
        report = ns.fit_visibility(scan, 2)
        assert abs(report.visibility - 0.8493) < 3 * report.visibility_sigma

    def test_repeated_seed_coverage(self):
        # Repeated-seed Monte Carlo: nearly every fit must recover the true
        # visibility within its own 3-sigma band.  (The ensemble mean is
        # checked by test_visibility_pull_is_calibrated on a longer scan.)
        phases = np.linspace(0.0, 2 * np.pi, 48)
        covered = 0
        for seed in range(60):
            scan = ns.noon_fringe(2, 0.8493, phases, 600.0, 1.0, 1000 + seed)
            report = ns.fit_visibility(scan, 2)
            covered += abs(report.visibility - 0.8493) < 3 * report.visibility_sigma
        assert covered >= 57  # >= 95% of 60

    def test_visibility_pull_is_calibrated(self):
        # Long low-count scans, where weighting by the observed counts would
        # put the N = 1 visibility about 8.5 sigma high: the pull
        # z = (fit - truth) / sigma must have mean 0 and unit spread.
        phases = np.linspace(0.0, 4 * np.pi, 2000)
        pulls = []
        for seed in range(200):
            scan = ns.noon_fringe(1, 0.9751, phases, 120.0, 1.0, seed)
            report = ns.fit_visibility(scan, 1)
            pulls.append((report.visibility - 0.9751) / report.visibility_sigma)
        assert abs(np.mean(pulls)) < 0.3
        assert 0.85 < np.std(pulls, ddof=1) < 1.15

    def test_random_scans_fit_or_fail_cleanly(self):
        # Every fit returns a report or raises FitError, never warns, and a
        # resolved fringe (at least 24 points, V >= 0.5, a mean of at least
        # 3 counts per bin) always returns a report.
        rng = np.random.default_rng(2024)
        reports = 0
        for i in range(200):
            points = int(np.exp(rng.uniform(np.log(8), np.log(500))))
            rate = 10.0 ** rng.uniform(-1.0, 6.0)
            vis = float(rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]))
            n = int(rng.integers(1, 3))
            phases = np.linspace(0.0, 2 * np.pi * rng.uniform(1.0, 2.0), points)
            scan = ns.noon_fringe(n, vis, phases, rate, 1.0, i, noiseless=bool(i % 2))
            resolved = points >= 24 and vis >= 0.5 and rate / 2 >= 3.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    report = ns.fit_visibility(scan, n)
                except ns.FitError:
                    assert not resolved, (points, rate, vis, n, scan.noiseless)
                    continue
            assert isinstance(report, ns.FitReport)
            reports += 1
        assert reports > 150

    @pytest.mark.parametrize("seed", [11, 29, 45])
    def test_negative_frequency_is_reported_as_its_mirror(self, monkeypatch, seed):
        # With no fringe the free frequency can converge below zero.  cos is
        # even, so the report takes f -> -f and phi0 -> -phi0: the same curve.
        optima = []
        score = experiments._score_fringe
        monkeypatch.setattr(experiments, "_score_fringe", lambda *args: optima.append(score(*args)) or optima[-1])
        phases = np.linspace(0.0, 2 * np.pi, 96)
        report = ns.fit_visibility(ns.noon_fringe(1, 0.0, phases, 600.0, 1.0, seed), 1)
        (c0, vis, freq, phi0), _, _ = optima[-1]
        assert freq < 0.0 < report.frequency
        assert abs(report.phase_offset) <= math.pi
        curve = report.amplitude * (1.0 + report.visibility * np.cos(report.frequency * phases + report.phase_offset))
        np.testing.assert_allclose(curve, c0 * (1.0 + vis * np.cos(freq * phases + phi0)), rtol=1e-9)

    @pytest.mark.parametrize("seed", [28, 87])
    def test_negative_visibility_is_reported_as_its_mirror(self, monkeypatch, seed):
        # A weak, sparse fringe can converge to V < 0.  The report takes
        # V -> -V and phi0 -> phi0 + pi: the same curve.
        optima = []
        score = experiments._score_fringe
        monkeypatch.setattr(experiments, "_score_fringe", lambda *args: optima.append(score(*args)) or optima[-1])
        phases = np.linspace(0.0, 2 * np.pi, 8)
        report = ns.fit_visibility(ns.noon_fringe(2, 0.1, phases, 5.0, 1.0, seed), 2)
        (c0, vis, freq, phi0), _, _ = optima[-1]
        assert vis < 0.0 < report.visibility
        assert abs(report.phase_offset) <= math.pi
        curve = report.amplitude * (1.0 + report.visibility * np.cos(report.frequency * phases + report.phase_offset))
        np.testing.assert_allclose(curve, c0 * (1.0 + vis * np.cos(freq * phases + phi0)), rtol=1e-9)

    def test_flat_data_has_no_fringe(self):
        phases = np.linspace(0.0, 2 * np.pi, 32)
        flat = ns.noon_fringe(1, 0.0, phases, 600.0, 1.0, 5, noiseless=True)
        dark = ns.ScanResult(phases, np.zeros(32), np.zeros(32))
        for scan in (flat, dark):
            with pytest.raises(ns.FitError, match="no fringe"):
                ns.fit_visibility(scan, 1)

    def test_scale_invariance(self):
        phases = np.linspace(0.0, 2 * np.pi, 64)
        scan = ns.noon_fringe(2, 0.6, phases, 100.0, 1.0, 2, noiseless=True)
        scaled = ns.ScanResult(scan.param, scan.expected * 7.5, scan.counts, noiseless=True)
        v1 = ns.fit_visibility(scan, 2).visibility
        v2 = ns.fit_visibility(scaled, 2).visibility
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_too_few_points_rejected(self):
        phases = np.linspace(0.0, 2 * np.pi, 5)
        scan = ns.noon_fringe(1, 0.9, phases, 100.0, 1.0, 3, noiseless=True)
        with pytest.raises(ValueError):
            ns.fit_visibility(scan, 1)

    def test_short_span_rejected(self):
        phases = np.linspace(0.0, 1.0, 16)
        scan = ns.noon_fringe(1, 0.9, phases, 100.0, 1.0, 3, noiseless=True)
        with pytest.raises(ValueError):
            ns.fit_visibility(scan, 1)


class TestSqlVerdict:
    def test_reference_two_photon_case(self):
        verdict = ns.sql_verdict(0.8493, 0.0318, 2)
        assert verdict.beats_sql
        assert verdict.threshold == pytest.approx(1 / math.sqrt(2))
        assert verdict.margin_sigma == pytest.approx(4.47, abs=0.05)
        assert "beats" in verdict.verdict_line()

    def test_threshold_is_strict(self):
        verdict = ns.sql_verdict(0.7071, 0.0, 2)
        assert not verdict.beats_sql

    def test_visibility_at_the_threshold_does_not_beat_it(self):
        verdict = ns.sql_verdict(1 / math.sqrt(2), 0.01, 2)
        assert not verdict.beats_sql
        assert verdict.margin_sigma == 0.0

    def test_four_photon_threshold(self):
        verdict = ns.sql_verdict(0.97, 0.01, 4)
        assert verdict.threshold == pytest.approx(0.5)
        assert verdict.beats_sql

    def test_threshold_machine_precision(self):
        assert ns.sql_verdict(0.9, 0.1, 2).threshold == 1 / math.sqrt(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ns.sql_verdict(0.9, 0.1, 1)

    @pytest.mark.parametrize(
        ("visibility", "sigma", "message"),
        [
            (0.9, math.nan, "visibility sigma"),
            (0.9, math.inf, "visibility sigma"),
            (math.nan, 0.1, "visibility must"),
            (math.inf, 0.1, "visibility must"),
            (-math.inf, 0.0, "visibility must"),
        ],
    )
    def test_non_finite_visibility_or_sigma_rejected(self, visibility, sigma, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            ns.sql_verdict(visibility, sigma, 2)


REFERENCE_STAGES = (
    ("collection", 0.24),
    ("filter_transmission", 0.80),
    ("optics_transmission", 0.86),
    ("fiber_coupling_525nm", 0.60),
    ("conversion_and_overlap", 0.064),
    ("detector_efficiency", 0.50),
    ("air_gap", 0.8),
    ("interferometer", 0.51),
)


class TestEfficiencyBudget:
    def test_single_arm_product(self):
        report = ns.efficiency_budget(EfficiencyChain(REFERENCE_STAGES))
        assert report.single_arm == pytest.approx(1.29e-3, abs=1e-5)

    def test_pair_product_near_quoted_overall(self):
        report = ns.efficiency_budget(EfficiencyChain(REFERENCE_STAGES), quoted_overall=2.0e-6)
        assert report.pair == pytest.approx(1.67e-6, abs=0.01e-6)
        assert 1.0 / 1.25 < report.pair_vs_quoted < 1.25
        assert any("note" in line for line in report.report_lines())

    def test_order_invariance(self):
        report = ns.efficiency_budget(EfficiencyChain(REFERENCE_STAGES))
        flipped = ns.efficiency_budget(EfficiencyChain(tuple(reversed(REFERENCE_STAGES))))
        assert report.single_arm == pytest.approx(flipped.single_arm, rel=1e-12)

    def test_zero_pair_product_ratio_is_infinite(self):
        report = ns.efficiency_budget(EfficiencyChain((("dead", 0.0), ("b", 0.5))), quoted_overall=2.0e-6)
        assert report.pair == 0.0
        assert report.pair_vs_quoted == math.inf
        assert "quoted_over_pair_ratio = inf" in report.report_lines()

    @pytest.mark.parametrize(
        ("stages", "quoted", "noted"),
        [
            (REFERENCE_STAGES, 2.0e-6, True),  # ratio 1.195: matches the pair product only
            ((("collection", 0.5), ("conversion_and_overlap", 0.064)), 2.0e-6, False),  # ratio 0.00195
            ((("collection", 0.0),), 2.0e-6, False),  # ratio inf
            ((("a", 0.9),), 0.85, False),  # within a factor of 2 of both products
            ((("a", 0.5),), 0.1, False),  # ratio 0.4: just outside a factor of 2
        ],
        ids=["pair-only", "far-below", "zero-stage", "both", "factor-2.5"],
    )
    def test_note_only_when_quoted_matches_pair_not_single_arm(self, stages, quoted, noted):
        lines = ns.efficiency_budget(EfficiencyChain(stages), quoted_overall=quoted).report_lines()
        assert any(line.startswith("note = ") for line in lines) == noted, lines

    def test_no_quoted_value_gives_no_ratio(self):
        report = ns.efficiency_budget(EfficiencyChain((("a", 0.5),)))
        assert report.pair_vs_quoted is None
        assert not any(line.startswith(("quoted", "note")) for line in report.report_lines())

    def test_unit_chain(self):
        report = ns.efficiency_budget(EfficiencyChain((("a", 1.0), ("b", 1.0))))
        assert report.single_arm == 1.0
        assert report.pair == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyChain(())
        with pytest.raises(ValueError):
            EfficiencyChain((("bad", 1.2),))


class TestScanResult:
    def test_csv_round_trip(self):
        spec = sinc2_spectrum(points=64)
        scan = ns.hom_scan(spec, 0.9, np.linspace(-4, 4, 17), 600.0, 1.0, 6)
        again = ns.ScanResult.from_csv(scan.to_csv())
        assert np.allclose(again.param, scan.param, rtol=1e-11)
        assert np.allclose(again.expected, scan.expected, rtol=1e-11)
        assert np.array_equal(again.counts, scan.counts)

    def test_header_checked(self):
        with pytest.raises(ValueError):
            ns.ScanResult.from_csv("x,y\n1,2\n")

    def test_csv_matches_per_row_formatter_and_parses_back_exactly(self):
        rng = np.random.default_rng(7)
        special = [-0.0, 0.0, 5e-324, 1e-300, 1e300]
        param = np.concatenate((special, [-1e300, -5e-324], rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)))
        expected = np.abs(param)
        counts = rng.integers(0, 2**63 - 1, param.size, dtype=np.int64)
        counts[:3] = [0, 1, 2**63 - 1]
        scan = ns.ScanResult(param, expected, counts)
        sigma = np.sqrt(np.maximum(counts, 1.0))
        columns = (param.tolist(), expected.tolist(), counts.tolist(), sigma.tolist())
        rows = map("{:.12g},{:.12g},{:d},{:.12g}".format, *columns)
        text = scan.to_csv()
        assert text == "\n".join(["param,expected,counts,sigma", *rows]) + "\n"
        cells = [line.split(",") for line in text.splitlines()[1:]]
        again = ns.ScanResult.from_csv(text)
        for j, got in enumerate((again.param, again.expected)):
            want = np.array([float(row[j]) for row in cells])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert again.counts.dtype == np.int64
        assert again.counts.tolist() == [int(row[2]) for row in cells] == counts.tolist()

    @pytest.mark.parametrize(
        ("text", "line"),
        [
            ("param,expected,counts\n0,1\n", 2),
            ("param,expected,counts\n0,1,2\n\n1,2\n", 4),
            ("param,expected,counts\n0,1,2\n1,2,3.0\n", 3),
            ("param,expected,counts,sigma\n0,1,2,1.4\nx,2,3,1.7\n", 3),
            ("param,expected,counts\n0,1,2\n1,2,9223372036854775808\n", 3),
        ],
    )
    def test_csv_bad_row_names_its_line(self, text, line):
        with pytest.raises(ValueError, match=rf"^line {line}: "):
            ns.ScanResult.from_csv(text)

    def test_csv_extra_columns_accepted(self):
        scan = ns.ScanResult.from_csv("param,expected,counts\n0,1,2,x\n1,2,3\n2,3,4,y,z\n")
        assert scan.param.tolist() == [0.0, 1.0, 2.0] and scan.counts.tolist() == [2, 3, 4]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1], ids=["param", "expected"])
    def test_non_finite_param_or_expected_rejected(self, column, bad):
        name = ("param", "expected")[column]
        values = [np.array([0.0, 1.0]), np.array([1.0, 2.0])]
        values[column][1] = bad
        with pytest.raises(ValueError, match=f"^{name} values must be finite$"):
            ns.ScanResult(*values, np.array([1, 2]))
        cells = ["1", "2", "2", "1.4"]
        cells[column] = str(bad)
        with pytest.raises(ValueError, match=f"^{name} values must be finite$"):
            ns.ScanResult.from_csv("param,expected,counts,sigma\n0,1,1,1\n" + ",".join(cells) + "\n")

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: ns.ScanResult([0.0], [1.0], [-1]), "counts must be nonnegative"),
            (
                lambda: ns.fit_visibility(ns.noon_fringe(1, 0.9, np.linspace(0, 6, 16), 600.0, 1.0, 1), 0),
                "expected fringe order must be at least 1",
            ),
        ],
        ids=["negative-count", "fringe-order-zero"],
    )
    def test_invalid_argument_is_named(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert info.type is ValueError and str(info.value).startswith(message)

    @pytest.mark.parametrize("count", [1.5, -0.5, math.nan, math.inf, 1e30, 2**63])
    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_count_not_a_whole_number_below_2_63_rejected(self, count, as_array):
        counts = np.array([count]) if as_array else [count]
        with pytest.raises(ValueError, match=r"^counts must be nonnegative whole numbers below 2\^63$"):
            ns.ScanResult([0.0], [1.0], counts)

    NOT_1D = "a scan's param, expected, and counts must be 1-D arrays"

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: ns.noon_fringe(2, 0.9, 0.5, 600.0, 1.0, 1), NOT_1D),
            (lambda: ns.noon_fringe(2, 0.9, np.linspace(0.0, 2 * np.pi, 24).reshape(2, 12), 600.0, 1.0, 1), NOT_1D),
            (lambda: ns.hom_scan(sinc2_spectrum(points=64), 0.9, 0.5, 600.0, 1.0, 1), NOT_1D),
            (lambda: ns.noon_fringe_probabilities(2, 0.5), "phases must be a 1-D array"),
        ],
        ids=["fringe-one-phase", "fringe-2x12-phases", "hom-one-delay", "probabilities-one-phase"],
    )
    def test_scan_axis_that_is_not_one_dimensional_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_whole_float_count_stored_as_integer(self):
        scan = ns.ScanResult([0.0], [1.0], [300.0])
        assert scan.counts.dtype == np.int64 and scan.counts.tolist() == [300]

    def test_invariants(self):
        with pytest.raises(ValueError):
            ns.ScanResult(np.array([0.0]), np.array([-1.0]), np.array([0]))
        with pytest.raises(ValueError):
            ns.ScanResult(np.array([0.0]), np.array([1.0]), np.array([0, 1]))
