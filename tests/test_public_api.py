"""Every exported function and constructor that takes floats, called at float edge values.

Each float argument is drawn from nan, +-inf, 0, -0.0, 1e-300, 1e300, -1 and a valid value; an array argument
gets the drawn value in one cell.  A call returns a finite result or raises ``ValueError``, which every library
error (``SpectralError``, ``FitError``, ``FockError``) subclasses, and warns nothing.  ``FitReport``, ``SqlVerdict`` and ``BudgetReport`` record what
the functions computed and are not drawn.  The functions that check their scalar arguments are also called with an
integer beyond float range in each of them, one at a time, with the same requirement.  Every function that converts
a caller's numbers also gets such an integer in one cell of each array or sequence argument, or in place of a number:
it must raise the ``ValueError`` that nan in the same place raises.  The functions that weight or multiply a whole
density are also given a density that is zero everywhere, which must raise, and one of 1e308 everywhere, which must give
their result on a density of ones.
"""

import dataclasses
import math
import sys
import warnings
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noonsim as ns
from noonsim.fock import FockError
from noonsim.spectral import SpectralError

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300, -1.0)
ERRORS = (ValueError,)

DISPERSION = ns.load_sellmeier()
SPDC_AXES = {"pump": "ny", "signal": "ny", "idler": "nz"}
SPDC = ns.with_solved_poling(
    ns.CrystalSpec(20.0, 1.0, "spdc", "type-II", SPDC_AXES, DISPERSION), (773.5, 1547.0, 1547.0)
)
SFG_AXES = {"sfg": "nz", "pump": "nz", "signal": "nz"}
SFG_NM = 1.0 / (1.0 / 795.0 + 1.0 / 1547.0)
SFG = ns.with_solved_poling(ns.CrystalSpec(20.0, 1.0, "sfg", "type-I", SFG_AXES, DISPERSION), (SFG_NM, 795.0, 1547.0))
GRID = np.linspace(1539.0, 1555.0, 512)
EMISSION = ns.emission_spectrum(SPDC, 773.5, GRID)
STATE = ns.noon_state(2, "a", "b")
PHASES = np.linspace(0.0, 2.0 * np.pi, 24)
DELAYS = np.linspace(-3.0, 3.0, 24)
FRINGE = ns.noon_fringe(2, 0.85, PHASES, 600.0, 1.0, 1, noiseless=True)
DIP = ns.hom_scan(EMISSION, 0.9, DELAYS, 600.0, 1.0, 1, noiseless=True)
PEAK = ns.bunching_scan(1.0, DELAYS, 2400.0, 1.0, 1, spectrum=EMISSION, noiseless=True)
CHAIN = ns.EfficiencyChain((("collection", 0.24), ("detector", 0.5)))
SELLMEIER_FIELDS = ("a", "b1", "c1", "b2", "c2", "d", "lambda_min_um", "lambda_max_um")


def cell(values, value, index=-1):
    """A float copy of ``values`` with ``value`` at ``index``."""
    out = np.array(values, dtype=float)
    out[index] = value
    return out


def noiseless_with(scan, value):
    return ns.ScanResult(scan.param, cell(scan.expected, value, len(scan.param) // 2), scan.counts, noiseless=True)


def sql_verdict(visibility, sigma):
    """The verdict, its documented infinite margin (a zero sigma, or one so small the margin overflows) made 0."""
    verdict = ns.sql_verdict(visibility, sigma, 2)
    if math.isinf(verdict.margin_sigma) and abs(visibility - verdict.threshold) >= sigma * sys.float_info.max:
        return dataclasses.replace(verdict, margin_sigma=0.0)
    return verdict


def state_vector_read(amp):
    """A one-photon state of amplitude ``amp``, read by every call that squares its amplitudes, then normalized."""
    one = ns.FockState.from_counts({"a": 1})
    state = ns.StateVector(("a",), {one: amp})
    detected = ns.detect(state, ns.DetectorPattern.of({"a": True}))
    return state.norm(), state.probability(one), detected, state.normalized()


#: name -> (call taking the drawn floats, a valid value of each).
CASES = {
    "apply_phase": (lambda phi: ns.apply_phase(STATE, "a", phi), (0.3,)),
    "apply_two_mode_mixer": (lambda c: ns.apply_two_mode_mixer(STATE, [[c, -0.6], [0.6, 0.8]], "a", "b"), (0.8,)),
    "StateVector": (state_vector_read, (1.0,)),
    "CircuitElement": (lambda phi: ns.CircuitElement("phase", ("a",), phi), (0.3,)),
    "beamsplitter": (ns.beamsplitter, (math.pi / 4,)),
    "frequency_converter": (ns.frequency_converter, (0.3,)),
    "conversion_constant": (ns.conversion_constant, (0.2, 0.5)),
    "internal_conversion_efficiency": (ns.internal_conversion_efficiency, (0.2, 1.0)),
    "DetectorPattern": (lambda eta: ns.DetectorPattern((("a", True, eta),)), (0.5,)),
    "SellmeierCoefficients": (
        lambda *values: dataclasses.replace(DISPERSION["ny"], **dict(zip(SELLMEIER_FIELDS, values))),
        tuple(getattr(DISPERSION["ny"], name) for name in SELLMEIER_FIELDS),
    ),
    "refractive_index": (lambda wavelength: ns.refractive_index(DISPERSION["ny"], wavelength), (1547.0,)),
    "CrystalSpec": (
        lambda length, period: ns.CrystalSpec(length, period, "spdc", "type-II", SPDC_AXES, DISPERSION),
        (20.0, 9.0),
    ),
    "phase_mismatch": (lambda *waves: ns.phase_mismatch(SPDC, *waves), (773.5, 1547.0, 1547.0)),
    "solve_poling_period": (lambda *waves: ns.solve_poling_period(SPDC, waves), (773.5, 1547.0, 1547.0)),
    "with_solved_poling": (lambda *waves: ns.with_solved_poling(SFG, waves), (SFG_NM, 795.0, 1547.0)),
    "Spectrum": (
        lambda wavelength, density: ns.Spectrum(cell(GRID, wavelength), cell(EMISSION.density, density)),
        (GRID[-1], 0.5),
    ),
    "emission_spectrum": (lambda pump, end: ns.emission_spectrum(SPDC, pump, cell(GRID, end)), (773.5, GRID[-1])),
    "acceptance_spectrum": (lambda pump, end: ns.acceptance_spectrum(SFG, pump, cell(GRID, end)), (795.0, GRID[-1])),
    "coherence_length": (ns.coherence_length, (1547.0, 1.28)),
    "overlap_kernel": (lambda delay: ns.overlap_kernel(EMISSION, [0.0, delay]), (0.5,)),
    "hom_profile": (lambda delay, visibility: ns.hom_profile(EMISSION, [0.0, delay], visibility), (0.5, 0.9)),
    "ScanResult": (
        lambda param, expected, count: ns.ScanResult(
            cell(PHASES, param), cell(FRINGE.expected, expected), cell(FRINGE.counts, count)
        ),
        (7.0, 1.0, 300.0),
    ),
    "hom_scan": (
        lambda overlap, delay, rate, t_bin: ns.hom_scan(EMISSION, overlap, cell(DELAYS, delay), rate, t_bin, 1),
        (0.9, 4.0, 600.0, 1.0),
    ),
    "bunching_scan": (
        lambda overlap, delay, rate, t_bin: ns.bunching_scan(
            overlap, cell(DELAYS, delay), rate, t_bin, 1, spectrum=EMISSION
        ),
        (1.0, 4.0, 2400.0, 1.0),
    ),
    "noon_fringe": (
        lambda visibility, phase, rate, t_bin: ns.noon_fringe(2, visibility, cell(PHASES, phase), rate, t_bin, 1),
        (0.85, 7.0, 600.0, 1.0),
    ),
    "noon_fringe_probabilities": (lambda phase: ns.noon_fringe_probabilities(2, [0.0, phase]), (1.0,)),
    "plate_phase": (ns.plate_phase, (0.1, 2e-4, 1.5, 525e-9)),
    "poisson_counts": (lambda mean: ns.poisson_counts([1.0, mean], 1), (5.0,)),
    "fit_visibility": (lambda expected: ns.fit_visibility(noiseless_with(FRINGE, expected), 2), (300.0,)),
    "dip_visibility": (lambda expected: ns.dip_visibility(noiseless_with(DIP, expected)), (30.0,)),
    "peak_to_baseline_ratio": (lambda expected: ns.peak_to_baseline_ratio(noiseless_with(PEAK, expected)), (600.0,)),
    "sql_verdict": (sql_verdict, (0.85, 0.01)),
    "EfficiencyChain": (lambda a, b: ns.EfficiencyChain((("a", a), ("b", b))), (0.5, 0.2)),
    "efficiency_budget": (lambda quoted: ns.efficiency_budget(CHAIN, quoted), (2e-6,)),
}


#: An integer that no float holds: ``float()`` and ``math`` functions raise ``OverflowError`` on it.
HUGE = 10**400

#: name -> (call taking scalar arguments, a valid value of each), for every function that bounds them as finite.
INTEGER_CASES = {
    "noon_fringe": (
        lambda n, visibility, rate, t_bin, seed: ns.noon_fringe(n, visibility, PHASES, rate, t_bin, seed),
        (2, 0.85, 600.0, 1.0, 1),
    ),
    "hom_scan": (lambda overlap, *args: ns.hom_scan(EMISSION, overlap, DELAYS, *args), (0.9, 600.0, 1.0, 1)),
    "bunching_scan": (
        lambda overlap, *args: ns.bunching_scan(overlap, DELAYS, *args, spectrum=EMISSION), (1.0, 2400.0, 1.0, 1)
    ),
    "fit_visibility": (lambda n: ns.fit_visibility(FRINGE, n), (2,)),
    "sql_verdict": (ns.sql_verdict, (0.85, 0.01, 2)),
    "efficiency_budget": (lambda quoted: ns.efficiency_budget(CHAIN, quoted).report_lines(), (2e-6,)),
    "apply_phase": (lambda phi: ns.apply_phase(STATE, "a", phi), (0.3,)),
    "CircuitElement": (lambda phi: ns.CircuitElement("phase", ("a",), phi), (0.3,)),
    "beamsplitter": (ns.beamsplitter, (math.pi / 4,)),
    "frequency_converter": (ns.frequency_converter, (0.3,)),
    "conversion_constant": (ns.conversion_constant, (0.2, 0.5)),
    "internal_conversion_efficiency": (ns.internal_conversion_efficiency, (0.2, 1.0)),
    "CrystalSpec": (
        lambda length, period: ns.CrystalSpec(length, period, "spdc", "type-II", SPDC_AXES, DISPERSION),
        (20.0, 9.0),
    ),
    "coherence_length": (ns.coherence_length, (1547.0, 1.28)),
}

#: name -> (call, a valid value of each argument): ``HUGE`` goes into the last cell of a list argument (a numpy array
#: cannot hold it) or in place of a number, one argument at a time.
SEQUENCE_CASES = {
    "refractive_index": (lambda waves: ns.refractive_index(DISPERSION["ny"], waves), ([1547.0, 1548.0],)),
    "CrystalSpec.waves": (SPDC.waves, (773.5, [1547.0, 1548.0])),
    "phase_mismatch": (lambda *waves: ns.phase_mismatch(SPDC, *waves), (773.5, 1547.0, 1547.0)),
    "solve_poling_period": (lambda *waves: ns.solve_poling_period(SPDC, waves), (773.5, 1547.0, 1547.0)),
    "emission_spectrum": (lambda pump, grid: ns.emission_spectrum(SPDC, pump, grid), (773.5, GRID.tolist())),
    "acceptance_spectrum": (lambda pump, grid: ns.acceptance_spectrum(SFG, pump, grid), (795.0, GRID.tolist())),
    "Spectrum": (ns.Spectrum, (GRID.tolist(), EMISSION.density.tolist())),
    "overlap_kernel": (lambda delays: ns.overlap_kernel(EMISSION, delays), ([0.0, 0.5],)),
    "poisson_counts": (lambda means: ns.poisson_counts(means, 1), ([1.0, 5.0],)),
    "ScanResult": (ns.ScanResult, (PHASES.tolist(), FRINGE.expected.tolist(), FRINGE.counts.tolist())),
    "hom_scan": (lambda delays: ns.hom_scan(EMISSION, 0.9, delays, 600.0, 1.0, 1), (DELAYS.tolist(),)),
    "bunching_scan": (
        lambda delays: ns.bunching_scan(1.0, delays, 2400.0, 1.0, 1, spectrum=EMISSION),
        (DELAYS.tolist(),),
    ),
    "noon_fringe": (lambda phases: ns.noon_fringe(2, 0.85, phases, 600.0, 1.0, 1), (PHASES.tolist(),)),
    "noon_fringe_probabilities": (ns.noon_fringe_probabilities, (2, [0.0, 1.0])),
    "plate_phase": (ns.plate_phase, ([0.1, 0.2], 2e-4, 1.5, 525e-9)),
    "SellmeierCoefficients": CASES["SellmeierCoefficients"],
    "StateVector": CASES["StateVector"],
    "apply_two_mode_mixer": (
        lambda *u: ns.apply_two_mode_mixer(STATE, [u[:2], u[2:]], "a", "b"),
        (0.8, -0.6, 0.6, 0.8),
    ),
    "DetectorPattern.of": (lambda eta: ns.DetectorPattern.of({"a": True, "b": False}, eta), (0.5,)),
}


def finite(value):
    """Whether every float in ``value``, through dataclass fields, mappings, sequences and arrays, is finite."""
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, Mapping):
        return all(finite(key) and finite(item) for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    if isinstance(value, (float, complex, np.ndarray, np.number)):
        return bool(np.all(np.isfinite(value)))
    return True


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_float_edges_give_a_finite_result_or_a_library_error(name, data):
    call, valid = CASES[name]
    args = [data.draw(st.sampled_from(EDGES + (value,)), label=f"argument {i}") for i, value in enumerate(valid)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(*args)
        except ERRORS:
            return
    assert finite(result), (name, args, result)


@pytest.mark.parametrize("name", sorted(INTEGER_CASES))
def test_integer_beyond_float_range_gives_a_finite_result_or_a_library_error(name):
    # Such an integer compares below math.inf, so a check written against inf let it through to an OverflowError.
    call, valid = INTEGER_CASES[name]
    for i in range(len(valid)):
        args = [*valid[:i], HUGE, *valid[i + 1 :]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(*args)
            except ERRORS:
                continue
        assert finite(result), (name, i, result)


@pytest.mark.parametrize("name", sorted(SEQUENCE_CASES))
def test_integer_beyond_float_range_in_a_cell_raises_what_nan_raises(name):
    call, valid = SEQUENCE_CASES[name]
    for i, value in enumerate(valid):
        messages = []
        for bad in (HUGE, math.nan):
            args = [*valid[:i], [*value[:-1], bad] if isinstance(value, list) else bad, *valid[i + 1 :]]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info:
                    call(*args)
            messages.append(str(info.value))
        assert messages[0] == messages[1], (name, i)


#: name -> call taking a spectrum, for every function that weights or multiplies a whole density.
WHOLE_DENSITY_CASES = {
    "overlap_kernel": lambda spectrum: ns.overlap_kernel(spectrum, DELAYS),
    "hom_profile": lambda spectrum: ns.hom_profile(spectrum, DELAYS, 0.9),
    "hom_scan": lambda spectrum: ns.hom_scan(spectrum, 0.9, DELAYS, 600.0, 1.0, 1),
    "bunching_scan": lambda spectrum: ns.bunching_scan(1.0, DELAYS, 2400.0, 1.0, 1, spectrum=spectrum),
    "filtered_spectrum-emission": lambda spectrum: ns.filtered_spectrum(spectrum, ns.Spectrum(GRID, np.ones(512))),
    "filtered_spectrum-acceptance": lambda spectrum: ns.filtered_spectrum(ns.Spectrum(GRID, np.ones(512)), spectrum),
}


def same(a, b):
    """Whether two results hold the same values, through dataclass fields."""
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, field.name), getattr(b, field.name)) for field in dataclasses.fields(a))
    return np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(WHOLE_DENSITY_CASES))
def test_density_with_no_positive_value_rejected(name):
    # One drawn cell leaves the rest of the density positive; a density that is zero everywhere gave 0/0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^density has no positive peak$"):
            WHOLE_DENSITY_CASES[name](ns.Spectrum(GRID, np.zeros(512)))


@pytest.mark.parametrize("name", sorted(WHOLE_DENSITY_CASES))
def test_density_of_huge_floats_counts_as_its_unit_peak_shape(name):
    # A sum or square of 1e308 overflows, so each function scales the density to a unit peak first.
    call = WHOLE_DENSITY_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = call(ns.Spectrum(GRID, np.full(512, 1e308)))
    assert finite(huge) and same(huge, call(ns.Spectrum(GRID, np.ones(512))))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ns.noon_fringe(2, 0.85, PHASES, "600", 1.0, 1),
        lambda: dataclasses.replace(SPDC, length_mm="10"),
        lambda: ns.refractive_index(DISPERSION["ny"], "1547"),
        lambda: ns.Spectrum(GRID, [str(d) for d in EMISSION.density]),
    ],
    ids=["scalar", "field", "array-site-scalar", "sequence"],
)
def test_string_is_not_read_as_a_number(call):
    with pytest.raises(TypeError, match="^expected numbers, got "):
        call()


def test_library_errors_are_value_errors_in_one_class_per_module():
    assert all(issubclass(error, ValueError) for error in (SpectralError, ns.FitError, FockError))
    folded = ("WavelengthRangeError", "GridError", "NoSolutionError", "PeakError", "CapacityError", "ModeMismatchError")
    assert [name for name in folded if hasattr(ns, name) or hasattr(ns.spectral, name) or hasattr(ns.fock, name)] == []
    assert [name for name in ("DEFAULT_MAX_PHOTONS", "ModeId") if hasattr(ns, name)] == []
