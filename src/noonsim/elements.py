"""Optical elements: splitters, phase shifters, frequency converters, detection.

Element unitaries follow real conventions throughout: a splitter of mixing
angle theta is the reflection [[cos, sin], [sin, -cos]] (50:50 at pi/4) and a
frequency converter of interaction angle xi*t is the rotation
[[cos, -sin], [sin, cos]] between the input-wavelength mode and the
sum-frequency mode.  Loss never enters the unitaries; it is folded into
threshold detection via per-mode efficiencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .fock import ModeId, StateVector, apply_phase, apply_two_mode_mixer

TwoModeUnitary = np.ndarray

_ELEMENT_KINDS = ("splitter", "phase", "converter")


def beamsplitter(theta: float) -> TwoModeUnitary:
    """Mixing matrix of a lossless beamsplitter; theta = pi/4 is 50:50.

    The convention is the real involutive form [[cos, sin], [sin, -cos]],
    so two identical splitters in a row undo each other.
    """
    if not math.isfinite(theta):
        raise ValueError("splitter angle must be finite")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def frequency_converter(xi_t: float) -> TwoModeUnitary:
    """Rotation mixing the input mode with the sum-frequency mode.

    A single photon in the input mode converts with probability
    sin^2(xi_t); xi_t = pi/2 converts completely.
    """
    if not math.isfinite(xi_t):
        raise ValueError("conversion angle must be finite")
    c, s = math.cos(xi_t), math.sin(xi_t)
    return np.array([[c, -s], [s, c]], dtype=complex)


def internal_conversion_efficiency(p_circ_w: float, a: float) -> float:
    """Single-photon conversion efficiency sin^2(a * sqrt(P)).

    ``a`` is the calibration constant in W^-1/2; the efficiency rises
    monotonically up to full conversion at P = (pi / 2a)^2.
    """
    if p_circ_w < 0:
        raise ValueError("circulating power must be nonnegative")
    return math.sin(a * math.sqrt(p_circ_w)) ** 2


def conversion_constant(p_ref_w: float, efficiency: float) -> float:
    """Calibrate the sin^2(a*sqrt(P)) model from one measured point."""
    if p_ref_w <= 0:
        raise ValueError("reference power must be positive")
    if not 0 <= efficiency <= 1:
        raise ValueError("efficiency must lie in [0, 1]")
    return math.asin(math.sqrt(efficiency)) / math.sqrt(p_ref_w)


@dataclass(frozen=True)
class CircuitElement:
    """One element of an optical circuit, stored as data."""

    kind: str
    modes: tuple[ModeId, ...]
    param: float

    def __post_init__(self):
        if self.kind not in _ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        object.__setattr__(self, "modes", tuple(self.modes))
        expected_arity = 1 if self.kind == "phase" else 2
        if len(self.modes) != expected_arity:
            raise ValueError(f"{self.kind} element needs {expected_arity} mode(s), got {self.modes!r}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("element modes must be distinct")
        if self.param is None or not math.isfinite(self.param):
            raise ValueError(f"{self.kind} element needs a finite parameter")

    @classmethod
    def splitter(cls, theta: float, mode_a: ModeId, mode_b: ModeId) -> "CircuitElement":
        return cls("splitter", (mode_a, mode_b), theta)

    @classmethod
    def phase(cls, phi: float, mode: ModeId) -> "CircuitElement":
        return cls("phase", (mode,), phi)

    @classmethod
    def converter(cls, xi_t: float, mode_in: ModeId, mode_out: ModeId) -> "CircuitElement":
        return cls("converter", (mode_in, mode_out), xi_t)


@dataclass(frozen=True)
class Circuit:
    """An ordered list of circuit elements."""

    elements: tuple[CircuitElement, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply circuit elements to a state in order."""
    for el in circuit.elements:
        if el.kind == "splitter":
            state = apply_two_mode_mixer(state, beamsplitter(el.param), *el.modes)
        elif el.kind == "converter":
            state = apply_two_mode_mixer(state, frequency_converter(el.param), *el.modes)
        else:
            state = apply_phase(state, el.modes[0], el.param)
    return state


@dataclass(frozen=True)
class DetectorPattern:
    """Required click/no-click outcomes on threshold detectors.

    Each detector is a (mode, must click, efficiency) triple.  Detectors
    are non-number-resolving: a mode with n photons clicks with
    probability 1 - (1 - eta)^n at efficiency eta.
    """

    detectors: tuple[tuple[ModeId, bool, float], ...]

    @classmethod
    def of(
        cls,
        requirements: Mapping[ModeId, bool],
        efficiency: Union[float, Mapping[ModeId, float]] = 1.0,
    ) -> "DetectorPattern":
        if not isinstance(efficiency, Mapping):
            efficiency = dict.fromkeys(requirements, efficiency)
        return cls(tuple((m, click, float(efficiency.get(m, 1.0))) for m, click in requirements.items()))

    @classmethod
    def coincidence(
        cls,
        *modes: ModeId,
        efficiency: Union[float, Mapping[ModeId, float]] = 1.0,
    ) -> "DetectorPattern":
        return cls.of({m: True for m in modes}, efficiency)

    def __post_init__(self):
        for mode, _, eta in self.detectors:
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"efficiency for mode {mode!r} must lie in [0, 1], got {eta}")


def detect(state: StateVector, pattern: DetectorPattern) -> float:
    """Probability that every detector in the pattern reports its required outcome."""
    missing = {m for m, _, _ in pattern.detectors} - set(state.modes)
    if missing:
        raise ValueError(f"pattern references modes absent from the state: {sorted(missing)}")
    total = 0.0
    for fock, amp in state.amplitudes.items():
        weight = abs(amp) ** 2
        for mode, wants_click, eta in pattern.detectors:
            p_dark = (1.0 - eta) ** fock.count(mode)
            weight *= (1.0 - p_dark) if wants_click else p_dark
        total += weight
    return total
