import math

import numpy as np
import pytest

import noonsim as ns
from noonsim.elements import Circuit, CircuitElement
from noonsim.fock import FockState


class TestBeamsplitter:
    def test_balanced_splitter_kills_coincidences(self):
        psi = ns.basis_state(("a", "b"), {"a": 1, "b": 1})
        out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
        p = ns.detect(out, ns.DetectorPattern.coincidence("a", "b"))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_zero_angle_transmits(self):
        psi = ns.basis_state(("a", "b"), {"a": 1})
        out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(0.0), "a", "b")
        assert out.probability(FockState.from_counts({"a": 1})) == pytest.approx(1.0)

    def test_balanced_single_photon_probabilities(self):
        psi = ns.basis_state(("a", "b"), {"a": 1})
        out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
        assert out.probability(FockState.from_counts({"a": 1})) == pytest.approx(0.5)
        assert out.probability(FockState.from_counts({"b": 1})) == pytest.approx(0.5)

    def test_unitary(self):
        u = ns.beamsplitter(0.3)
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-15)


class TestFrequencyConverter:
    def test_full_conversion_at_half_pi(self):
        psi = ns.basis_state(("s@1547", "u@525"), {"s@1547": 1})
        out = ns.apply_two_mode_mixer(psi, ns.frequency_converter(np.pi / 2), "s@1547", "u@525")
        assert out.probability(FockState.from_counts({"u@525": 1})) == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_is_identity(self):
        assert np.allclose(ns.frequency_converter(0.0), np.eye(2))

    def test_half_conversion(self):
        psi = ns.basis_state(("s", "u"), {"s": 1})
        out = ns.apply_two_mode_mixer(psi, ns.frequency_converter(np.pi / 4), "s", "u")
        assert out.probability(FockState.from_counts({"u": 1})) == pytest.approx(0.5)

    def test_inverse_and_additivity(self):
        a, b = 0.31, 1.1
        assert np.allclose(
            ns.frequency_converter(a) @ ns.frequency_converter(-a), np.eye(2), atol=1e-15
        )
        assert np.allclose(
            ns.frequency_converter(a) @ ns.frequency_converter(b),
            ns.frequency_converter(a + b),
            atol=1e-12,
        )


class TestConversionEfficiency:
    def test_zero_power(self):
        assert ns.internal_conversion_efficiency(0.0, 0.8) == 0.0

    def test_calibrated_point(self):
        a = ns.conversion_constant(0.660, 0.37)
        assert a == pytest.approx(0.805, abs=1e-3)
        assert ns.internal_conversion_efficiency(0.660, a) == pytest.approx(0.37, abs=1e-6)

    def test_full_conversion_power(self):
        a = ns.conversion_constant(0.660, 0.37)
        p_full = (math.pi / (2 * a)) ** 2
        assert ns.internal_conversion_efficiency(p_full, a) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_up_to_full_conversion(self):
        a = 0.805
        p_full = (math.pi / (2 * a)) ** 2
        powers = np.linspace(0.0, p_full, 200)
        effs = [ns.internal_conversion_efficiency(p, a) for p in powers]
        assert np.all(np.diff(effs) > 0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ns.internal_conversion_efficiency(-0.1, 0.8)

    def test_calibration_argument_checks(self):
        with pytest.raises(ValueError):
            ns.conversion_constant(0.0, 0.5)
        with pytest.raises(ValueError):
            ns.conversion_constant(1.0, 1.5)

    @pytest.mark.parametrize(
        ("power", "a", "message"),
        [
            (math.nan, 1.0, "circulating power"),
            (math.inf, 1.0, "circulating power"),
            (1.0, math.nan, "conversion constant"),
            (1.0, -math.inf, "conversion constant"),
        ],
    )
    def test_non_finite_efficiency_argument_rejected(self, power, a, message):
        with pytest.raises(ValueError, match=f"^{message} must be"):
            ns.internal_conversion_efficiency(power, a)

    @pytest.mark.parametrize("p_ref_w", [math.inf, math.nan])
    def test_non_finite_reference_power_rejected(self, p_ref_w):
        with pytest.raises(ValueError, match="^reference power must be positive and finite"):
            ns.conversion_constant(p_ref_w, 0.3)


class TestCircuit:
    def test_empty_circuit_is_identity(self):
        psi = ns.noon_state(2, "a", "b")
        out = ns.apply_circuit(psi, Circuit())
        assert abs(ns.inner_product(psi, out)) == pytest.approx(1.0, abs=1e-12)

    def test_double_splitter_restores_pair(self):
        # The real splitter convention is involutive, so two in a row undo.
        psi = ns.basis_state(("a", "b"), {"a": 1, "b": 1})
        circuit = Circuit(
            (
                CircuitElement.splitter(np.pi / 4, "a", "b"),
                CircuitElement.splitter(np.pi / 4, "a", "b"),
            )
        )
        out = ns.apply_circuit(psi, circuit)
        p_coinc = ns.detect(out, ns.DetectorPattern.coincidence("a", "b"))
        assert p_coinc == pytest.approx(1.0, abs=1e-10)

    def test_phase_element_doubles_on_noon_pair(self):
        phi = 0.7
        psi = ns.noon_state(2, "a", "b")
        out = ns.apply_circuit(psi, Circuit((CircuitElement.phase(phi, "b"),)))
        ratio = out.amplitude(FockState.from_counts({"b": 2})) / out.amplitude(
            FockState.from_counts({"a": 2})
        )
        assert ratio == pytest.approx(np.exp(2j * phi))

    def test_converter_element_upconverts_both_arms(self):
        # Each telecom arm feeds its own conversion stage; at xi*t = pi/2 the
        # pair state transfers cleanly onto the upconverted mode labels.
        modes = ("a@1547", "b@1547", "a@525", "b@525")
        psi = ns.basis_state(modes, {"a@1547": 1, "b@1547": 1})
        circuit = Circuit(
            (
                CircuitElement.converter(np.pi / 2, "a@1547", "a@525"),
                CircuitElement.converter(np.pi / 2, "b@1547", "b@525"),
            )
        )
        out = ns.apply_circuit(psi, circuit)
        converted = FockState.from_counts({"a@525": 1, "b@525": 1})
        assert out.probability(converted) == pytest.approx(1.0, abs=1e-12)

    def test_partial_conversion_in_circuit_matches_sine_squared(self):
        xi_t = 0.6
        psi = ns.basis_state(("in", "up"), {"in": 1})
        out = ns.apply_circuit(psi, Circuit((CircuitElement.converter(xi_t, "in", "up"),)))
        assert out.probability(FockState.from_counts({"up": 1})) == pytest.approx(
            math.sin(xi_t) ** 2
        )

    def test_element_validation(self):
        with pytest.raises(ValueError):
            CircuitElement("twist", ("a", "b"), 0.1)
        with pytest.raises(ValueError):
            CircuitElement.splitter(float("nan"), "a", "b")
        with pytest.raises(ValueError):
            CircuitElement.splitter(0.1, "a", "a")
        with pytest.raises(ValueError):
            CircuitElement("relabel", ("a", "b"), 1.0)

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda: ns.beamsplitter(math.nan), "splitter angle must be finite"),
            (lambda: ns.frequency_converter(math.inf), "conversion angle must be finite"),
            (lambda: CircuitElement("phase", ("a", "b"), 0.1), "phase element needs 1 mode(s)"),
        ],
        ids=["splitter-nan", "converter-inf", "phase-on-two-modes"],
    )
    def test_invalid_argument_is_named(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert info.type is ValueError and str(info.value).startswith(message)

    def test_unknown_mode_propagates(self):
        psi = ns.basis_state(("a", "b"), {"a": 1})
        with pytest.raises(ns.ModeMismatchError):
            ns.apply_circuit(psi, Circuit((CircuitElement.phase(0.1, "z"),)))


class TestDetect:
    def test_bunched_pair_has_no_coincidences(self):
        psi = ns.StateVector(
            ("a", "b"),
            {
                FockState.from_counts({"a": 2}): 1 / math.sqrt(2),
                FockState.from_counts({"b": 2}): -1 / math.sqrt(2),
            },
        )
        assert ns.detect(psi, ns.DetectorPattern.coincidence("a", "b")) == 0.0

    def test_lossy_coincidence_on_pair(self):
        psi = ns.basis_state(("a", "b"), {"a": 1, "b": 1})
        pattern = ns.DetectorPattern.coincidence("a", "b", efficiency=0.5)
        assert ns.detect(psi, pattern) == pytest.approx(0.25)

    def test_threshold_click_on_two_photons(self):
        psi = ns.basis_state(("a",), {"a": 2})
        pattern = ns.DetectorPattern.of({"a": True}, 0.5)
        assert ns.detect(psi, pattern) == pytest.approx(0.75)

    def test_no_click_requirement(self):
        psi = ns.basis_state(("a", "b"), {"a": 2})
        pattern = ns.DetectorPattern.of({"a": False}, 0.5)
        assert ns.detect(psi, pattern) == pytest.approx(0.25)

    def test_probabilities_within_unit_interval(self):
        rng = np.random.default_rng(11)
        basis = ns.enumerate_basis(3, ("a", "b", "c"))
        for _ in range(50):
            amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            psi = ns.StateVector(("a", "b", "c"), dict(zip(basis, amps))).normalized()
            req = {m: bool(rng.integers(2)) for m in "abc"}
            eta = {m: float(rng.uniform()) for m in "abc"}
            p = ns.detect(psi, ns.DetectorPattern.of(req, eta))
            assert 0.0 <= p <= 1.0 + 1e-12

    def test_click_probability_monotone_in_efficiency(self):
        psi = ns.noon_state(2, "a", "b")
        probs = [
            ns.detect(psi, ns.DetectorPattern.of({"a": True}, eta))
            for eta in np.linspace(0.0, 1.0, 11)
        ]
        assert np.all(np.diff(probs) >= 0)

    @pytest.mark.parametrize(
        ("efficiency", "eta"),
        [(1.0, {"a": 1.0, "b": 1.0, "c": 1.0}), ({"a": 0.3, "b": 0.8}, {"a": 0.3, "b": 0.8, "c": 1.0})],
        ids=["perfect", "map-without-c"],
    )
    def test_perfect_detection_matches_born_rule(self, efficiency, eta):
        # Brute-force oracle: sum over terms of |amp|^2 * prod_m (1 - (1 - eta_m)^n_m).  At
        # eta = 1 a factor is 1 if the mode holds a photon and 0 if not: the Born rule.  A mode
        # the efficiency map leaves out ("c") detects at efficiency 1.
        rng = np.random.default_rng(12)
        modes = ("a", "b", "c")
        basis = ns.enumerate_basis(3, modes)
        amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        psi = ns.StateVector(modes, dict(zip(basis, amps))).normalized()
        pattern = ns.DetectorPattern.coincidence(*modes, efficiency=efficiency)
        oracle = sum(
            abs(amp) ** 2 * math.prod(1.0 - (1.0 - eta[m]) ** fock.count(m) for m in modes)
            for fock, amp in psi.amplitudes.items()
        )
        assert oracle > 0.0
        assert ns.detect(psi, pattern) == pytest.approx(oracle, abs=1e-12)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            ns.DetectorPattern.of({"a": True}, 1.2)

    def test_missing_mode_rejected(self):
        psi = ns.basis_state(("a",), {"a": 1})
        with pytest.raises(ValueError):
            ns.detect(psi, ns.DetectorPattern.coincidence("a", "zz"))
