"""Fock-space states over labeled optical modes.

States are sparse maps from occupation-number basis states to complex
amplitudes.  Modes are identified by opaque string labels; two photons can
only interfere if some element maps them onto the same label.  All values
are immutable and all operations are pure functions, so independent states
may be evaluated concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .spectral import _floats

ModeId = str

#: Cap on the number of basis states ``enumerate_basis`` may return.
_MAX_BASIS_STATES = 200_000

#: Cap on the photons in the two modes a mixer acts on: its weights use (n_a + n_b)!, and 171! overflows a float.
_MAX_MIXER_PHOTONS = 170

#: Largest rounding error the mixer may leave on an output amplitude, per unit of input amplitude.
_MIXER_ERROR = 1e-12

#: Allowed deviation of U†U from the identity.
UNITARY_ATOL = 1e-12


class FockError(ValueError):
    """A state or basis over its size limit, or modes a state does not declare."""


def _photon_number(n, least: int, mode: ModeId | None = None) -> int:
    if least <= n < 2**63 and n == int(n):
        return int(n)
    what = "photon number" if mode is None else f"photon count for mode {mode!r}"
    raise ValueError(f"{what} must be a whole number in [{least}, 2^63)")


def _distinct(modes: Iterable[ModeId]) -> tuple[ModeId, ...]:
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate mode labels in {modes!r}")
    return modes


@dataclass(frozen=True)
class FockState:
    """One occupation-number basis state.

    ``occupations`` holds (mode, count) pairs sorted by mode label; modes
    with zero photons are dropped, so equality and hashing do not depend on
    which vacuum modes happen to be mentioned.
    """

    occupations: tuple[tuple[ModeId, int], ...]

    @classmethod
    def from_counts(cls, counts: Mapping[ModeId, int]) -> "FockState":
        cleaned = []
        for mode, n in counts.items():
            if n := _photon_number(n, 0, mode):
                cleaned.append((mode, n))
        return cls(tuple(sorted(cleaned)))

    def count(self, mode: ModeId) -> int:
        for m, n in self.occupations:
            if m == mode:
                return n
        return 0

    def modes(self) -> tuple[ModeId, ...]:
        return tuple(m for m, _ in self.occupations)


@dataclass
class StateVector:
    """Sparse superposition of :class:`FockState` terms over a fixed mode set.

    Treat instances as immutable: operations return new vectors.
    """

    modes: tuple[ModeId, ...]
    amplitudes: dict[FockState, complex]

    def __post_init__(self):
        self.modes = _distinct(self.modes)
        mode_set = set(self.modes)
        cleaned: dict[FockState, complex] = {}
        for fock, amp in self.amplitudes.items():
            unknown = set(fock.modes()) - mode_set
            if unknown:
                raise FockError(f"basis state {fock} uses undeclared modes {sorted(unknown)}")
            amp = _floats(amp, complex).item()
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude of {fock} must be finite, got {amp!r}")
            if not math.isfinite(amp.real * amp.real + amp.imag * amp.imag):
                raise ValueError(f"amplitude of {fock} squares past the float range, got {amp!r}")
            if amp:
                cleaned[fock] = amp
        self.amplitudes = cleaned

    def amplitude(self, fock: FockState) -> complex:
        return self.amplitudes.get(fock, 0j)

    def probability(self, fock: FockState) -> float:
        return abs(self.amplitude(fock)) ** 2

    def norm(self) -> float:
        return math.hypot(*map(abs, self.amplitudes.values()))

    def normalized(self) -> "StateVector":
        # Scaled to a largest modulus of 1 first: the norm of subnormal amplitudes has too few digits to divide by.
        scale = max(map(abs, self.amplitudes.values()), default=0.0)
        if scale == 0.0:
            raise ValueError("cannot normalize the zero vector")
        unit = StateVector(self.modes, {f: a / scale for f, a in self.amplitudes.items()})
        n = unit.norm()
        return StateVector(self.modes, {f: a / n for f, a in unit.amplitudes.items()})


def enumerate_basis(n_photons: int, modes: Iterable[ModeId]) -> list[FockState]:
    """All occupation patterns of ``n_photons`` over ``modes``.

    The result is ordered lexicographically on the occupation tuple taken in
    the given mode order, and has C(n + m - 1, n) entries.
    """
    modes = _distinct(modes)
    n_photons = _photon_number(n_photons, 0)
    if not modes:
        raise ValueError("mode list must be nonempty")
    size = math.comb(n_photons + len(modes) - 1, n_photons)
    if size > _MAX_BASIS_STATES:
        raise FockError(f"basis of {size} states exceeds the limit of {_MAX_BASIS_STATES}")

    # Fill the modes in order: each partial pattern takes every count its photons left allow, smallest first.
    patterns = [((), n_photons)]
    for _ in modes[1:]:
        patterns = [(occ + (k,), left - k) for occ, left in patterns for k in range(left + 1)]
    return [FockState.from_counts(dict(zip(modes, occ + (left,)))) for occ, left in patterns]


def basis_state(modes: Iterable[ModeId], counts: Mapping[ModeId, int]) -> StateVector:
    """A single occupation-number state as a normalized vector."""
    return StateVector(tuple(modes), {FockState.from_counts(counts): 1.0 + 0j})


def noon_state(n_photons: int, mode_a: ModeId, mode_b: ModeId) -> StateVector:
    """The path-entangled state (|N,0> + |0,N>)/sqrt(2) on two modes."""
    n_photons = _photon_number(n_photons, 1)
    amp = 1.0 / math.sqrt(2.0)
    return StateVector(
        (mode_a, mode_b),
        {
            FockState.from_counts({mode_a: n_photons}): amp,
            FockState.from_counts({mode_b: n_photons}): amp,
        },
    )


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> over a shared mode set."""
    if set(a.modes) != set(b.modes):
        raise FockError(f"mode sets differ: {sorted(a.modes)} vs {sorted(b.modes)}")
    shared = a.amplitudes.keys() & b.amplitudes.keys()
    return sum((a.amplitudes[f].conjugate() * b.amplitudes[f] for f in shared), 0j)


def _check_unitary(matrix: np.ndarray) -> np.ndarray:
    u = _floats(matrix, complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError(f"matrix entries must be finite, got {u.tolist()}")
    with np.errstate(over="ignore", invalid="ignore"):  # U†U of a huge entry overflows: not unitary either
        dev = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if not dev <= UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (max |U†U - I| = {dev:.3e})")
    return u


def apply_two_mode_mixer(
    state: StateVector,
    matrix: np.ndarray,
    mode_a: ModeId,
    mode_b: ModeId,
) -> StateVector:
    """Apply a two-mode unitary by creation-operator substitution.

    The matrix acts as a+ -> U00 a+ + U10 b+ and b+ -> U01 a+ + U11 b+, so |p, n-p> takes term p of the
    convolution of the two binomial expansions, with the bosonic sqrt(n!) weights.  Photon number is
    conserved; a term whose cancelling sums may round an amplitude by over 1e-12 of its own raises ``FockError``.
    """
    u = _check_unitary(matrix)
    for m in (mode_a, mode_b):
        if m not in state.modes:
            raise FockError(f"mode {m!r} not in state modes {state.modes!r}")
    if mode_a == mode_b:
        raise ValueError("mixer modes must be distinct")

    out: dict[FockState, complex] = {}
    for fock, amp in state.amplitudes.items():
        n_a, n_b = fock.count(mode_a), fock.count(mode_b)
        if (n := n_a + n_b) > _MAX_MIXER_PHOTONS:
            raise FockError(f"{n} photons in the mixed modes exceed the limit of {_MAX_MIXER_PHOTONS}")
        a = np.array([math.comb(n_a, j) * u[0, 0] ** j * u[1, 0] ** (n_a - j) for j in range(n_a + 1)])
        b = np.array([math.comb(n_b, k) * u[0, 1] ** k * u[1, 1] ** (n_b - k) for k in range(n_b + 1)])
        norm = math.sqrt(math.factorial(n_a) * math.factorial(n_b))
        weights = [math.sqrt(math.factorial(p) * math.factorial(n - p)) for p in range(n + 1)]
        # Rounding moves a sum over j + k = p by at most ulp(1) times the sum of its terms' moduli.
        error = math.ulp(1.0) * np.max(np.convolve(np.abs(a), np.abs(b)) * weights) / norm
        if error > _MIXER_ERROR:
            raise FockError(f"mixing |{n_a},{n_b}> may round an amplitude by {error:.1e}, over {_MIXER_ERROR:g}")
        spectators, prefactor = dict(fock.occupations), amp / norm
        for p, c in enumerate(np.convolve(a, b)):
            target = FockState.from_counts({**spectators, mode_a: p, mode_b: n - p})
            out[target] = out.get(target, 0j) + prefactor * c * weights[p]
    return StateVector(state.modes, out)


def apply_phase(state: StateVector, mode: ModeId, phi: float) -> StateVector:
    """Multiply each basis amplitude by exp(i * n * phi) for the photon count n in ``mode``."""
    if mode not in state.modes:
        raise FockError(f"mode {mode!r} not in state modes {state.modes!r}")
    if not abs(_floats(phi)) < math.inf:
        raise ValueError(f"phase must be finite, got {phi}")
    factor = complex(np.exp(1j * phi))
    return StateVector(
        state.modes,
        {f: a * factor ** f.count(mode) for f, a in state.amplitudes.items()},
    )
