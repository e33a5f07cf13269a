import cmath
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noonsim as ns
from noonsim.fock import FockError, FockState

#: A photon pair on two modes, the input of a HOM dip.
PAIR = ns.basis_state(("a", "b"), {"a": 1, "b": 1})


def random_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def exact_reflection(n_a, n_b):
    """Amplitudes of |n_a, n_b> after the real 50:50 reflection, keyed by the photons p left in mode a.

    Expanding (a+ + b+)^n_a (a+ - b+)^n_b / 2^(n/2) gives an exact integer sum for each p.
    """
    n = n_a + n_b
    amplitudes = {}
    for p in range(n + 1):
        splits = range(max(0, p - n_b), min(n_a, p) + 1)
        total = sum(math.comb(n_a, j) * math.comb(n_b, p - j) * (-1) ** (n_b - p + j) for j in splits)
        ratio = math.factorial(p) * math.factorial(n - p) / (math.factorial(n_a) * math.factorial(n_b))
        amplitudes[p] = 2 ** (-n / 2) * math.sqrt(ratio) * total
    return amplitudes


#: The basis states with up to three photons in each of two modes.
BOUNDED_BASIS = [FockState.from_counts({"a": i, "b": j}) for i in range(4) for j in range(4)]


def two_terms(amp):
    """One photon in mode a or in mode b, each with amplitude ``amp``."""
    return ns.StateVector(("a", "b"), {FockState.from_counts({"a": 1}): amp, FockState.from_counts({"b": 1}): amp})


def random_state(rng, modes=("a", "b", "c"), n_photons=3):
    basis = ns.enumerate_basis(n_photons, modes)
    amps = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    state = ns.StateVector(modes, dict(zip(basis, amps)))
    return state.normalized()


class TestEnumerateBasis:
    def test_two_photons_two_modes(self):
        basis = ns.enumerate_basis(2, ["a", "b"])
        assert len(basis) == 3
        assert set(basis) == {
            FockState.from_counts({"a": 2}),
            FockState.from_counts({"a": 1, "b": 1}),
            FockState.from_counts({"b": 2}),
        }

    def test_vacuum(self):
        basis = ns.enumerate_basis(0, ["a", "b", "c"])
        assert basis == [FockState.from_counts({})]

    def test_three_photons_three_modes_against_enumeration_oracle(self):
        # Oracle: filter the full occupancy cube by total photon number.
        oracle = {
            occ
            for occ in itertools.product(range(4), repeat=3)
            if sum(occ) == 3
        }
        basis = ns.enumerate_basis(3, ["a", "b", "c"])
        assert len(basis) == len(oracle) == 10
        got = {tuple(f.count(m) for m in "abc") for f in basis}
        assert got == oracle

    def test_counts_match_binomial_formula(self):
        for n in range(7):
            for m in range(1, 5):
                modes = [f"m{i}" for i in range(m)]
                assert len(ns.enumerate_basis(n, modes)) == math.comb(n + m - 1, n)

    @pytest.mark.parametrize("n_photons", range(5))
    @pytest.mark.parametrize(
        "modes", [["a"], ["a", "b"], ["b", "a"], ["b", "a", "c"], ["c", "a", "b"], ["d", "b", "c", "a"]]
    )
    def test_deterministic_lexicographic_order(self, n_photons, modes):
        # Oracle: the occupancy cube, taken in the given mode order, filtered by
        # total photon number; itertools.product yields it lexicographically.
        oracle = [
            occ for occ in itertools.product(range(n_photons + 1), repeat=len(modes)) if sum(occ) == n_photons
        ]
        basis = ns.enumerate_basis(n_photons, modes)
        assert [tuple(f.count(m) for m in modes) for f in basis] == oracle

    def test_capacity_error(self):
        # C(31, 20) = 84 672 315 states: refused before any is enumerated.
        with pytest.raises(FockError, match="^basis of 84672315 states exceeds the limit of 200000$"):
            ns.enumerate_basis(20, [f"m{i}" for i in range(12)])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ns.enumerate_basis(-1, ["a"])
        with pytest.raises(ValueError):
            ns.enumerate_basis(2, [])

    @pytest.mark.parametrize("modes", [("a", "a"), ["a", "b", "a"]])
    def test_repeated_mode_label_rejected(self, modes):
        # A repeated label would merge in a pattern's counts and drop photons from the basis.
        with pytest.raises(ValueError, match=f"^{re.escape(f'duplicate mode labels in {tuple(modes)!r}')}$"):
            ns.enumerate_basis(2, modes)

    @pytest.mark.parametrize("n_photons", [2.5, math.inf, math.nan])
    def test_photon_number_that_is_not_a_whole_number_rejected(self, n_photons):
        with pytest.raises(ValueError, match=r"^photon number must be a whole number in \[0, 2\^63\)$"):
            ns.enumerate_basis(n_photons, ("a", "b"))

    def test_photon_number_beyond_float_range_is_outside_the_photon_number_range(self):
        with pytest.raises(ValueError, match=r"^photon number must be a whole number in \[0, 2\^63\)$"):
            ns.enumerate_basis(10**400, ("a", "b"))

    def test_whole_float_photon_number_counts_as_its_integer(self):
        assert ns.enumerate_basis(2.0, ("a", "b")) == ns.enumerate_basis(2, ("a", "b"))


class TestNoonState:
    def test_two_photon_amplitudes(self):
        state = ns.noon_state(2, "a", "b")
        assert state.amplitude(FockState.from_counts({"a": 2})) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude(FockState.from_counts({"b": 2})) == pytest.approx(1 / math.sqrt(2))
        assert len(state.amplitudes) == 2

    def test_single_photon_superposition(self):
        state = ns.noon_state(1, "a", "b")
        assert state.probability(FockState.from_counts({"a": 1})) == pytest.approx(0.5)
        assert state.probability(FockState.from_counts({"b": 1})) == pytest.approx(0.5)

    def test_four_photon_norm_by_direct_sum(self):
        state = ns.noon_state(4, "a", "b")
        total = sum(abs(a) ** 2 for a in state.amplitudes.values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_no_photon_cap(self):
        assert ns.noon_state(7, "a", "b").norm() == pytest.approx(1.0)
        assert ns.basis_state(("a",), {"a": 7}).norm() == 1.0

    def test_mixer_photon_limit(self):
        mixed = ns.apply_two_mode_mixer(ns.noon_state(170, "a", "b"), ns.beamsplitter(np.pi / 4), "a", "b")
        assert mixed.norm() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(FockError, match="^171 photons in the mixed modes exceed the limit of 170$"):
            ns.apply_two_mode_mixer(ns.noon_state(171, "a", "b"), ns.beamsplitter(np.pi / 4), "a", "b")

    def test_mixer_limit_counts_one_mode_alone(self):
        state = ns.StateVector(("a", "b"), {FockState.from_counts({"a": 171}): 1.0})
        with pytest.raises(FockError, match="^171 photons in the mixed modes exceed the limit of 170$"):
            ns.apply_two_mode_mixer(state, ns.beamsplitter(np.pi / 4), "a", "b")

    def test_requires_at_least_one_photon(self):
        with pytest.raises(ValueError):
            ns.noon_state(0, "a", "b")

    @pytest.mark.parametrize("n_photons", [math.inf, math.nan, 10**400])
    def test_photon_number_that_no_float_holds_rejected(self, n_photons):
        with pytest.raises(ValueError, match=r"^photon number must be a whole number in \[1, 2\^63\)$"):
            ns.noon_state(n_photons, "a", "b")


#: Every place a photon number enters the library: name -> (call, the error's subject, least accepted number).
PHOTON_NUMBER_SITES = {
    "FockState.from_counts": (lambda n: FockState.from_counts({"a": n}), "photon count for mode 'a'", 0),
    "enumerate_basis": (lambda n: ns.enumerate_basis(n, ("a", "b")), "photon number", 0),
    "noon_state": (lambda n: ns.noon_state(n, "a", "b"), "photon number", 1),
    "noon_fringe": (lambda n: ns.noon_fringe(n, 0.85, [0.0, 1.0], 600.0, 1.0, 1), "photon number", 1),
    "sql_verdict": (lambda n: ns.sql_verdict(0.9, 0.1, n), "photon number", 2),
}


class TestPhotonNumberRule:
    @pytest.mark.parametrize(
        "n", [math.inf, math.nan, 10**400, 2**63, 1.5, -1], ids=["inf", "nan", "10**400", "2**63", "1.5", "-1"]
    )
    @pytest.mark.parametrize("site", sorted(PHOTON_NUMBER_SITES))
    def test_number_outside_the_rule_rejected_with_its_message(self, site, n):
        call, what, least = PHOTON_NUMBER_SITES[site]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{re.escape(what)} must be a whole number in \[{least}, 2\^63\)$"):
                call(n)

    def test_largest_count_and_whole_floats_accepted(self):
        top = 2**63 - 1
        assert FockState.from_counts({"a": top, "b": 2.0}).occupations == (("a", top), ("b", 2))
        assert ns.enumerate_basis(top, ("a",)) == [FockState.from_counts({"a": top})]
        assert ns.noon_state(2.0, "a", "b") == ns.noon_state(2, "a", "b")
        assert ns.sql_verdict(0.9, 0.1, 2.0) == ns.sql_verdict(0.9, 0.1, 2)
        assert np.array_equal(
            ns.noon_fringe(2.0, 0.85, [0.0, 1.0], 600.0, 1.0, 1).counts,
            ns.noon_fringe(2, 0.85, [0.0, 1.0], 600.0, 1.0, 1).counts,
        )
        state = ns.basis_state(("a", "b"), {"a": top})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phased = ns.apply_phase(state, "a", 0.3).amplitude(FockState.from_counts({"a": top}))
            clicks = ns.detect(state, ns.DetectorPattern((("a", True, 0.5), ("b", False, 0.5))))
        assert cmath.isfinite(phased) and abs(phased) == pytest.approx(1.0)
        assert clicks == 1.0


class TestInnerProduct:
    def test_self_overlap_of_normalized_state(self):
        rng = np.random.default_rng(7)
        psi = random_state(rng)
        assert ns.inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        a = ns.basis_state(("a", "b"), {"a": 2})
        b = ns.basis_state(("a", "b"), {"b": 2})
        assert ns.inner_product(a, b) == 0

    def test_noon_component(self):
        noon = ns.noon_state(2, "a", "b")
        comp = ns.basis_state(("a", "b"), {"a": 2})
        assert ns.inner_product(noon, comp) == pytest.approx(1 / math.sqrt(2))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = random_state(rng), random_state(rng)
        assert ns.inner_product(a, b) == pytest.approx(np.conj(ns.inner_product(b, a)))

    def test_mode_set_mismatch(self):
        a = ns.basis_state(("a", "b"), {"a": 1})
        c = ns.basis_state(("a", "c"), {"a": 1})
        with pytest.raises(FockError):
            ns.inner_product(a, c)


class TestTwoModeMixer:
    def test_identity_leaves_state_unchanged(self):
        rng = np.random.default_rng(9)
        psi = random_state(rng)
        out = ns.apply_two_mode_mixer(psi, np.eye(2), "a", "b")
        assert abs(ns.inner_product(psi, out)) == pytest.approx(1.0, abs=1e-12)

    def test_hom_null_is_exact(self):
        # (a+ + b+)(a+ - b+)/2 has no a+b+ term: |1,1| keeps only the matrix's own rounding, c^2 - s^2 (about 1.8e-16).
        psi = ns.basis_state(("a", "b"), {"a": 1, "b": 1})
        out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
        assert abs(out.amplitude(FockState.from_counts({"a": 1, "b": 1}))) <= 1e-12

    def test_balanced_splitter_on_pair_matches_symbolic_expansion(self):
        psi = ns.basis_state(("a", "b"), {"a": 1, "b": 1})
        out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
        p20 = out.probability(FockState.from_counts({"a": 2}))
        p02 = out.probability(FockState.from_counts({"b": 2}))
        assert p20 == pytest.approx(0.5, abs=1e-12)
        assert p02 == pytest.approx(0.5, abs=1e-12)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_single_photon_split(self):
        psi = ns.basis_state(("a", "b"), {"a": 1})
        out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
        assert out.probability(FockState.from_counts({"a": 1})) == pytest.approx(0.5)
        assert out.probability(FockState.from_counts({"b": 1})) == pytest.approx(0.5)

    def test_spectator_modes_untouched(self):
        psi = ns.basis_state(("a", "b", "c"), {"a": 1, "c": 2})
        out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
        for fock in out.amplitudes:
            assert fock.count("c") == 2

    def test_one_output_state_per_photon_split(self, monkeypatch):
        psi = ns.basis_state(("a", "b"), {"a": 5, "b": 5})
        built = []
        from_counts = FockState.from_counts
        monkeypatch.setattr(FockState, "from_counts", lambda counts: built.append(counts) or from_counts(counts))
        ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
        assert len(built) == 11

    def test_balanced_splitter_matches_exact_integer_sum(self):
        for n_a, n_b in [*itertools.product(range(15), repeat=2), (170, 0), (169, 1), (100, 3)]:
            psi = ns.basis_state(("a", "b"), {"a": n_a, "b": n_b})
            out = ns.apply_two_mode_mixer(psi, ns.beamsplitter(np.pi / 4), "a", "b")
            for p, amplitude in exact_reflection(n_a, n_b).items():
                got = out.amplitude(FockState.from_counts({"a": p, "b": n_a + n_b - p}))
                assert abs(got - amplitude) <= 1e-12, (n_a, n_b, p)

    @pytest.mark.parametrize(
        "matrix", [ns.beamsplitter(np.pi / 4), ns.frequency_converter(np.pi / 4)], ids=["splitter", "converter"]
    )
    def test_term_that_rounds_past_the_tolerance_rejected(self, matrix):
        # |60,60> is inside the 170-photon limit, but its alternating sums cancel to a norm of 12.6 in float64.
        with pytest.raises(FockError, match=r"^mixing \|60,60> may round an amplitude by .* over 1e-12$"):
            ns.apply_two_mode_mixer(ns.basis_state(("a", "b"), {"a": 60, "b": 60}), matrix, "a", "b")
        with pytest.raises(FockError, match=r"^mixing \|15,15> "):
            ns.apply_two_mode_mixer(ns.basis_state(("a", "b"), {"a": 15, "b": 15}), matrix, "a", "b")

    def test_rejects_non_unitary(self):
        psi = ns.basis_state(("a", "b"), {"a": 1})
        with pytest.raises(ValueError):
            ns.apply_two_mode_mixer(psi, np.array([[1, 0], [0, 2.0]]), "a", "b")

    def test_rejects_unknown_modes(self):
        psi = ns.basis_state(("a", "b"), {"a": 1})
        with pytest.raises(FockError):
            ns.apply_two_mode_mixer(psi, np.eye(2), "a", "z")


class TestMixerProperties:
    """Unitarity, composition, and inversion on random circuits."""

    def test_random_circuit_properties(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            u1 = random_unitary(rng)
            u2 = random_unitary(rng)
            psi = random_state(rng, n_photons=int(rng.integers(1, 4)))
            modes = list(rng.permutation(psi.modes)[:2])

            once = ns.apply_two_mode_mixer(psi, u1, *modes)
            assert once.norm() == pytest.approx(1.0, abs=1e-10)

            twice = ns.apply_two_mode_mixer(once, u2, *modes)
            fused = ns.apply_two_mode_mixer(psi, u2 @ u1, *modes)
            assert abs(ns.inner_product(twice, fused)) == pytest.approx(1.0, abs=1e-10)

            undone = ns.apply_two_mode_mixer(once, u1.conj().T, *modes)
            assert abs(ns.inner_product(psi, undone)) == pytest.approx(1.0, abs=1e-10)


class TestPhase:
    def test_phase_multiplies_by_photon_number(self):
        noon = ns.noon_state(2, "a", "b")
        phi = 0.37
        out = ns.apply_phase(noon, "b", phi)
        a20 = out.amplitude(FockState.from_counts({"a": 2}))
        a02 = out.amplitude(FockState.from_counts({"b": 2}))
        assert a02 / a20 == pytest.approx(np.exp(2j * phi))


class TestStateVectorValidation:
    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError):
            ns.StateVector(("a", "a"), {})

    def test_undeclared_modes_rejected(self):
        with pytest.raises(FockError):
            ns.StateVector(("a",), {FockState.from_counts({"b": 1}): 1.0})

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            FockState.from_counts({"a": -1})

    @pytest.mark.parametrize(
        ("call", "error", "message"),
        [
            (lambda: ns.StateVector(("a",), {}).normalized(), ValueError, "cannot normalize the zero vector"),
            (
                lambda: ns.apply_two_mode_mixer(ns.basis_state(("a", "b"), {"a": 100, "b": 71}), np.eye(2), "a", "b"),
                FockError,
                "171 photons in the mixed modes exceed the limit of 170",
            ),
            (
                lambda: ns.apply_two_mode_mixer(ns.basis_state(("a", "b"), {"a": 1}), np.eye(3), "a", "b"),
                ValueError,
                "expected a 2x2 matrix",
            ),
            (
                lambda: ns.apply_two_mode_mixer(ns.basis_state(("a", "b"), {"a": 1}), np.eye(2), "a", "a"),
                ValueError,
                "mixer modes must be distinct",
            ),
            (
                lambda: ns.StateVector(("a",), {FockState.from_counts({"a": 1}): complex(1.5e308, 1.5e308)}),
                ValueError,
                "squared norm reaches 2^1023, half the float range, at FockState(occupations=(('a', 1),)), "
                "got (1.5e+308+1.5e+308j)",
            ),
            (
                lambda: ns.StateVector(("a",), {FockState.from_counts({"a": 1}): 1e200}),
                ValueError,
                "squared norm reaches 2^1023, half the float range, at FockState(occupations=(('a', 1),)), "
                "got (1e+200+0j)",
            ),
        ],
        ids=[
            "normalize-zero",
            "mixer-over-limit",
            "mixer-3x3",
            "mixer-same-mode",
            "amplitude-modulus-overflows",
            "amplitude-square-overflows",
        ],
    )
    def test_invalid_argument_is_named(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert info.type is error and str(info.value).startswith(message)

    @pytest.mark.parametrize("amp", [1e-300, 1e-160, 1e150])
    def test_norm_holds_at_any_scale(self, amp):
        # A square below about 1e-308 is subnormal or zero, so a norm summed from squares loses digits or reads 0.
        assert abs(two_terms(amp).norm() / (math.sqrt(2.0) * amp) - 1.0) <= 1e-15

    @pytest.mark.parametrize("amp", [1e-300, 1e-160, 5e-324, 1e150])
    def test_normalized_has_unit_norm_at_any_scale(self, amp):
        # The norm of two 5e-324 amplitudes is itself a one-digit subnormal, so it is taken after scaling.
        assert abs(two_terms(amp).normalized().norm() - 1.0) <= 1e-15

    def test_squared_norm_past_half_the_float_range_names_the_amplitude_that_crosses(self):
        # Each square, 4.9e307, is below 2^1023 = 9.0e307; their sum is not.
        with pytest.raises(ValueError) as info:
            two_terms(7e153)
        assert str(info.value) == (
            "squared norm reaches 2^1023, half the float range, at FockState(occupations=(('b', 1),)), "
            "got (7e+153+0j)"
        )

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.dictionaries(
            st.sampled_from(BOUNDED_BASIS),
            st.complex_numbers(max_magnitude=2.0**512, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_a_state_within_the_bound_never_overflows(self, amplitudes):
        square = sum(Fraction(a.real) ** 2 + Fraction(a.imag) ** 2 for a in amplitudes.values())
        try:
            state = ns.StateVector(("a", "b"), amplitudes)
        except ValueError as error:
            assert "squared norm reaches 2^1023" in str(error)
            assert square >= 2**1023 * (1 - Fraction(1, 2**40))
            return
        assert square < 2**1023 * (1 + Fraction(1, 2**40))
        assert math.isfinite(state.norm())
        assert cmath.isfinite(ns.inner_product(state, state))
        if state.amplitudes:
            unit = state.normalized()
            assert abs(unit.norm() - 1.0) <= 1e-14
            assert cmath.isfinite(ns.inner_product(state, unit))
        for fock in BOUNDED_BASIS:
            assert math.isfinite(state.probability(fock))
        for pattern in (ns.DetectorPattern.coincidence("a", "b"), ns.DetectorPattern.of({"a": True, "b": False}, 0.5)):
            assert math.isfinite(ns.detect(state, pattern))
        try:
            mixed = ns.apply_two_mode_mixer(state, ns.beamsplitter(math.pi / 4), "a", "b")
        except ValueError as error:  # an OverflowError fails the test
            assert "squared norm reaches 2^1023" in str(error)
            return
        assert all(cmath.isfinite(a) for a in mixed.amplitudes.values())
        assert math.isfinite(mixed.norm())

    def test_huge_entry_is_not_unitary(self):
        # U†U of a 1e300 entry used to overflow with a warning before the unitarity check.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^matrix is not unitary \(max \|U†U - I\| = inf\)$"):
                ns.apply_two_mode_mixer(PAIR, np.diag([1e300, 1.0]), "a", "b")

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (
                lambda: ns.apply_two_mode_mixer(PAIR, np.full((2, 2), np.nan), "a", "b"),
                "matrix entries must be finite, got [[(nan+0j)",
            ),
            (
                lambda: ns.apply_two_mode_mixer(PAIR, np.diag([np.inf, 1.0]), "a", "b"),
                "matrix entries must be finite, got [[(inf+0j)",
            ),
            (lambda: ns.apply_phase(PAIR, "a", math.nan), "phase must be finite, got nan"),
            (lambda: ns.apply_phase(PAIR, "a", -math.inf), "phase must be finite, got -inf"),
            (
                lambda: ns.StateVector(("a",), {FockState.from_counts({"a": 1}): math.nan}),
                "amplitude of FockState(occupations=(('a', 1),)) must be finite, got (nan+0j)",
            ),
            (
                lambda: ns.StateVector(("a",), {FockState.from_counts({"a": 1}): complex(0.0, math.inf)}),
                "amplitude of FockState(occupations=(('a', 1),)) must be finite, got infj",
            ),
        ],
        ids=["mixer-nan", "mixer-inf", "phase-nan", "phase-inf", "amplitude-nan", "amplitude-inf"],
    )
    def test_non_finite_value_is_named(self, call, message):
        # NaN used to pass every check and leave an empty state that detects as a perfect null.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                call()
        assert str(info.value).startswith(message), str(info.value)
