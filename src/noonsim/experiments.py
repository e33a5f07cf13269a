"""Scan drivers, Monte Carlo counting, visibility fits, and metrology verdicts.

Every sampled scan draws the count of point i from its own random substream,
so count i depends only on (seed, i, mean i): the counts are reproducible,
a prefix of a scan samples the same counts as the whole scan, and changing
one point's mean leaves the other counts alone.  The substreams are blocks
of a counter-based generator (Philox, keyed once per call from
``SeedSequence(seed)``) addressed by (point, attempt), so no generator is
built per point and all points are drawn in a few vectorized rounds.  One
``rng.poisson(means)`` call would be faster still, but a draw consumes a
varying number of random words, so each count would depend on every mean
before it; the per-point property is kept on purpose.  A ``noiseless`` flag
replaces sampling with rounded expectations for exact regression runs; fits
then take the expected rates as their data (an "Asimov" data set) with the
weights of sampled counts, so their sigmas are those of a measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .elements import beamsplitter
from .spectral import Spectrum, _floats, _read_csv, _write_csv, hom_profile, overlap_kernel


class FitError(ValueError):
    """Raised when a scan shows no fringe or its fit cannot converge."""


# ---------------------------------------------------------------------------
# Counting statistics
# ---------------------------------------------------------------------------


#: Means at or above this are drawn by PTRS, below it by inversion; numpy
#: makes the same split, and PTRS is exact only from a mean of 10 up.
_PTRS_MIN_MEAN = 10.0
#: numpy's bound on a Poisson mean: every accepted draw then fits in int64.
_MAX_MEAN = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))
#: log(k!) is read from this table below its size and from a Stirling series
#: above it, where the first omitted term is below 2e-14.
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(32)])
#: Points ``poisson_counts`` draws at a time; about 2 MiB of Philox words each round.
_POISSON_BLOCK = 65536


def _philox_blocks(key: np.ndarray, attempt: int, start: int, stop: int) -> np.ndarray:
    """The four 64-bit words at Philox counter (i, attempt) for start <= i < stop.

    Philox increments its 256-bit counter before it computes a block, so the
    generator starts one below (start, attempt).
    """
    bitgen = np.random.Philox(key=key, counter=((attempt << 64) + start - 1) % 2**256)
    return bitgen.random_raw(4 * (stop - start)).reshape(stop - start, 4)


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word, as numpy makes them."""
    return (words >> np.uint64(11)) * 2.0**-53


def _log_factorial(k: np.ndarray) -> np.ndarray:
    size = _LOG_FACTORIAL.size
    x = np.maximum(k, size) + 1.0
    r = 1.0 / (x * x)
    series = (1.0 / 12.0 - r * (1.0 / 360.0 - r / 1260.0)) / x
    stirling = (x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series
    return np.where(k < size, _LOG_FACTORIAL[np.minimum(k, size - 1).astype(np.intp)], stirling)


def _poisson_inversion(means: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Smallest k whose Poisson CDF reaches u, summing the pmf recurrence.

    A u in the rounding gap above the CDF's last representable value takes
    the k at which the sum stopped growing.
    """
    counts = np.zeros(means.size, dtype=np.int64)
    pmf = np.exp(-means)
    cdf = pmf.copy()
    active = np.flatnonzero(u > cdf)
    k = 0
    while active.size:
        k += 1
        counts[active] = k
        pmf[active] *= means[active] / k
        grown = cdf[active] + pmf[active]
        keep = (u[active] > grown) & (grown > cdf[active])
        cdf[active] = grown
        active = active[keep]
    return counts


def _ptrs_round(means: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round of Hormann's PTRS with numpy's constants, two attempts a point.

    Words 0-1 of a point's block are the first attempt's (U, V), words 2-3
    the second's.  Returns each point's draw (float, valid where accepted)
    and whether either attempt was accepted.
    """
    u = _unit(words)
    big_u, v = u[:, 0::2] - 0.5, u[:, 1::2]
    lam = means[:, None]
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    us = 0.5 - np.abs(big_u)
    # us = 0 (U = -0.5 exactly) and V = 0 divide by zero; the infinities
    # they give reject or accept as they do in numpy's scalar loop.
    with np.errstate(divide="ignore"):
        k = np.floor((2.0 * a / us + b) * big_u + lam + 0.43)
        quick = (us >= 0.07) & (v <= v_r)
        tested = ~quick & (k >= 0) & ((us >= 0.013) | (v <= us))
        k_tested = np.where(tested, k, 0.0)
        lhs = np.log(v) + np.log(inv_alpha) - np.log(a / (us * us) + b)
        rhs = -lam + k_tested * np.log(lam) - _log_factorial(k_tested)
    accepted = quick | (tested & (lhs <= rhs))
    first = np.argmax(accepted, axis=1)
    rows = np.arange(len(means))
    return k[rows, first], accepted[rows, first]


def _checked_means(means: Sequence[float]) -> np.ndarray:
    """Means as a float array, rejecting any that no int64 count can follow."""
    means = _floats(means)
    if np.any(means < 0):
        raise ValueError("Poisson means must be nonnegative")
    if not np.all(np.isfinite(means)):
        raise ValueError("Poisson means must be finite")
    if np.any(means > _MAX_MEAN):
        raise ValueError(f"Poisson means must not exceed {_MAX_MEAN:.6g}")
    return means


def _poisson_block(key: np.ndarray, means: np.ndarray, start: int) -> np.ndarray:
    """Counts of points start, start + 1, ... drawn at the given means.

    Means below 10 are drawn by inversion from round 0, larger ones by PTRS,
    repeating rounds for the points whose attempts were all rejected.
    """
    stop = start + means.size
    out = np.zeros(means.size, dtype=np.int64)
    words = _philox_blocks(key, 0, start, stop)
    small = np.flatnonzero(means < _PTRS_MIN_MEAN)
    out[small] = _poisson_inversion(means[small], _unit(words[small, 0]))
    pending = np.flatnonzero(means >= _PTRS_MIN_MEAN)
    attempt = 0
    while pending.size:
        if attempt:
            words = _philox_blocks(key, attempt, start, stop)
        k, accepted = _ptrs_round(means[pending], words[pending])
        out[pending[accepted]] = k[accepted]
        pending = pending[~accepted]
        attempt += 1
    return out


def poisson_counts(means: Sequence[float], seed: int) -> np.ndarray:
    """Poisson draws with one independent substream per point.

    Count i depends only on (seed, i, means[i]).  ``SeedSequence(seed)``
    gives one 128-bit Philox key per call; attempt round j of point i reads
    the block at Philox counter (i, j).  Points are drawn ``_POISSON_BLOCK``
    at a time, which bounds the scratch arrays and leaves every count as it is.
    """
    means = _checked_means(means)
    flat = means.ravel()
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    out = np.empty(flat.size, dtype=np.int64)
    for start in range(0, flat.size, _POISSON_BLOCK):
        block = flat[start : start + _POISSON_BLOCK]
        out[start : start + block.size] = _poisson_block(key, block, start)
    return out.reshape(means.shape)


@dataclass
class ScanResult:
    """Parallel arrays of scan parameter, expected rate, and sampled counts."""

    param: np.ndarray
    expected: np.ndarray
    counts: np.ndarray
    noiseless: bool = False

    def __post_init__(self):
        self.param = _floats(self.param)
        self.expected = _floats(self.expected)
        self.counts = np.asarray(self.counts)
        if self.param.ndim != 1:
            raise ValueError("a scan's param, expected, and counts must be 1-D arrays")
        if not (self.param.shape == self.expected.shape == self.counts.shape):
            raise ValueError("param, expected, and counts must have equal shapes")
        if self.param.size == 0:
            raise ValueError("a scan needs at least one point")
        for name in ("param", "expected"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} values must be finite")
        if np.any(self.expected < 0):
            raise ValueError("expected rates must be nonnegative")
        if self.counts.dtype.kind == "i":
            whole = self.counts >= 0
        else:  # checked as floats, which the integer cast would truncate, wrap or warn on
            values = _floats(self.counts)
            whole = (values >= 0) & (values < 2.0**63) & (np.floor(values) == values)
        if not np.all(whole):
            raise ValueError("counts must be nonnegative whole numbers below 2^63")
        self.counts = self.counts.astype(np.int64, copy=False)

    def data(self) -> np.ndarray:
        """What downstream analysis should treat as the measurement."""
        return self.expected if self.noiseless else self.counts.astype(float)

    def to_csv(self) -> str:
        sigma = np.sqrt(np.maximum(self.counts, 1.0))
        return _write_csv("param,expected,counts,sigma", self.param, self.expected, self.counts, sigma)

    @classmethod
    def from_csv(cls, text: str) -> "ScanResult":
        """Parse ``to_csv`` output.  The CSV has no ``noiseless`` column, so it reads back False."""
        return cls(*_read_csv(text, "param,expected,counts,sigma", (float, float, int)))


def _finish_scan(
    param: np.ndarray, rate_hz: float, t_bin_s: float, shape: np.ndarray, seed: int, noiseless: bool
) -> ScanResult:
    """Expected counts rate * t_bin * shape, clipped at 0, then sampled (or rounded if ``noiseless``)."""
    if not (0.0 < _floats(rate_hz) < math.inf and 0.0 < _floats(t_bin_s) < math.inf):
        raise ValueError("rate and integration time must be positive and finite")
    expected = np.clip(float(rate_hz) * t_bin_s * shape, 0.0, None)
    if noiseless:
        counts = np.rint(_checked_means(expected)).astype(np.int64)
    else:
        counts = poisson_counts(expected, seed)
    return ScanResult(param, expected, counts, noiseless)


# ---------------------------------------------------------------------------
# Scan drivers
# ---------------------------------------------------------------------------


def hom_scan(
    spectrum: Spectrum,
    overlap: float,
    delays_mm: Sequence[float],
    rate_hz: float,
    t_bin_s: float,
    seed: int,
    noiseless: bool = False,
) -> ScanResult:
    """Two-detector coincidence scan across a dip.

    Expected coincidences per bin are rate * t_bin * 2 * ``hom_profile``, or
    rate * t_bin * (1 - overlap * g(delay)): the far-from-dip baseline is
    rate * t_bin and the dip visibility equals ``overlap``.
    """
    delays = _floats(delays_mm)
    return _finish_scan(delays, rate_hz, t_bin_s, 2.0 * hom_profile(spectrum, delays, overlap), seed, noiseless)


def bunching_scan(
    overlap: float,
    delays_mm: Sequence[float],
    rate_hz: float,
    t_bin_s: float,
    seed: int,
    *,
    spectrum: Spectrum,
    noiseless: bool = False,
) -> ScanResult:
    """Coincidence scan behind a second 50:50 splitter fed by one dip port.

    Expected coincidences per bin are rate * t_bin * (1 + overlap * g) / 8:
    bunched pairs double the splitter's pair flux at zero delay, so the
    peak-to-baseline ratio is 1 + overlap.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    delays = _floats(delays_mm)
    shape = (1.0 + overlap * overlap_kernel(spectrum, delays)) / 8.0
    return _finish_scan(delays, rate_hz, t_bin_s, shape, seed, noiseless)


#: Phase offset at which the reference detection pattern sits in its fringe;
#: matches the (N-1, 1) output pattern of `noon_fringe_probabilities`.
FRINGE_PHASE_OFFSET = math.pi


def noon_fringe(
    n_photons: int,
    visibility: float,
    phases_rad: Sequence[float],
    rate_hz: float,
    t_bin_s: float,
    seed: int,
    noiseless: bool = False,
) -> ScanResult:
    """Interference fringe of an N-photon path-entangled input.

    Expected counts per bin are rate * t_bin * (1 + V cos(N phi + phi0)) / 2;
    phi0 = ``FRINGE_PHASE_OFFSET`` = pi places the zero of the pattern at
    phi = 0, matching the Fock-space pipeline's reference detection pattern.
    """
    n_photons = fock._photon_number(n_photons, 1)
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    phases = _floats(phases_rad)
    with np.errstate(over="ignore"):
        theta = n_photons * phases + FRINGE_PHASE_OFFSET
    if not np.all(np.isfinite(theta)):
        raise ValueError("phases times the photon number must be finite")
    shape = (1.0 + visibility * np.cos(theta)) / 2.0
    return _finish_scan(phases, rate_hz, t_bin_s, shape, seed, noiseless)


def noon_fringe_probabilities(n_photons: int, phases_rad: Sequence[float]) -> np.ndarray:
    """Exact fringe from the full Fock pipeline, for checking the closed form.

    The N-photon path-entangled state takes the phase on one arm and meets a
    50:50 splitter; its fringe on the pattern with N-1 photons in one port and
    1 in the other is the superposition of its two components, each mixed
    once, with |0,N> weighted by exp(i phi)^N: (N / 2^(N-1)) (1 + cos(N phi + pi)) / 2.
    """
    phases = _floats(phases_rad)
    if phases.ndim != 1:
        raise ValueError("phases must be a 1-D array")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    noon = fock.noon_state(n_photons, "arm-a", "arm-b")
    pattern = fock.FockState.from_counts({"arm-a": n_photons - 1, "arm-b": 1})
    splitter, factor = beamsplitter(math.pi / 4.0), np.exp(1j * phases)
    amplitude = np.zeros(len(phases), dtype=complex)
    for term, amp in noon.amplitudes.items():
        mixed = fock.apply_two_mode_mixer(fock.StateVector(noon.modes, {term: amp}), splitter, "arm-a", "arm-b")
        amplitude += mixed.amplitude(pattern) * factor ** term.count("arm-b")
    return np.abs(amplitude) ** 2


def plate_phase(
    tilt_rad: float | np.ndarray, thickness_m: float, index: float, wavelength_m: float
) -> float | np.ndarray:
    """Optical phase a tilted plate adds to one interferometer arm, for a tilt or an array of tilts.

    Even in the tilt and zero at normal incidence.
    """
    tilt_rad = _floats(tilt_rad)
    # Checked in Python floats, here and below: a numpy product that overflows warns before it can be rejected.
    thickness_m, index, wavelength_m = (_floats(value).item() for value in (thickness_m, index, wavelength_m))
    if np.any(np.abs(tilt_rad) >= math.pi / 3.0):
        raise ValueError("plate tilt must satisfy |tilt| < pi/3")
    if index <= 1.0:
        raise ValueError("plate index must exceed 1")
    if not math.isfinite(index * index):
        raise ValueError("plate index squared must be finite")
    if not (thickness_m > 0.0 and wavelength_m > 0.0):
        raise ValueError("plate thickness and wavelength must be positive")
    geometry = np.sqrt(index**2 - np.sin(tilt_rad) ** 2) - np.cos(tilt_rad) - (index - 1.0)
    scale = 2.0 * math.pi * thickness_m / wavelength_m
    if not math.isfinite(scale * float(np.max(np.abs(geometry), initial=0.0))):
        raise ValueError("plate phase must be finite")
    return scale * geometry


# ---------------------------------------------------------------------------
# Scan analysis
# ---------------------------------------------------------------------------


#: Share of a scan's points, split between its two ends, that gives its baseline.
_BASELINE_FRACTION = 0.1


def _edge_baseline(data: np.ndarray) -> float:
    """Mean of the outer ``_BASELINE_FRACTION`` of a scan, split between its ends."""
    k = max(1, int(len(data) * _BASELINE_FRACTION / 2))
    baseline = float(np.mean(np.concatenate([data[:k], data[-k:]])))
    if baseline <= 0:
        raise ValueError("baseline is not positive: the scan's edge bins have no counts")
    return baseline


def dip_visibility(scan: ScanResult) -> float:
    """(baseline - dip) / baseline, with the baseline read from the scan edges."""
    data = scan.data()
    baseline = _edge_baseline(data)
    return (baseline - float(data.min())) / baseline


def peak_to_baseline_ratio(scan: ScanResult) -> float:
    """max / edge-baseline of a scan, for bunching-style peaks."""
    data = scan.data()
    return float(data.max()) / _edge_baseline(data)


@dataclass
class FitReport:
    """Result of a fringe fit C0 * (1 + V cos(f * phi + phi0))."""

    visibility: float
    visibility_sigma: float
    frequency: float
    frequency_sigma: float
    phase_offset: float
    amplitude: float
    residual_norm: float
    clamped: bool = False


#: Scoring steps a fringe fit may take before it gives up.
_FIT_MAX_STEPS = 100
#: A fit has converged once a step moves C0 by less than this fraction of
#: |C0| and each of (V, f, phi0) by less than this fraction of their largest.
_FIT_STEP_TOL = 1e-10


def _quasi_loglik(data: np.ndarray, mu: np.ndarray) -> float:
    """The fit's objective: the log quasi-likelihood of variance max(mu, 1).

    That is the Poisson d log mu - mu for mu >= 1, continued below one
    count by the quadratic with the same value and slope.
    """
    hi = np.maximum(mu, 1.0)
    below = mu - hi  # mu - 1 where mu < 1, else 0
    return float(data @ np.log(hi) - hi.sum() + below @ (data - 1.0 - 0.5 * below))


def _fringe_point(phi: np.ndarray, data: np.ndarray, p: np.ndarray):
    """(theta, cos theta, mu, quasi-likelihood) of C0 (1 + V cos theta), theta = f phi + phi0."""
    c0, vis, freq, phi0 = p
    theta = freq * phi + phi0
    cos = np.cos(theta)
    mu = c0 * (1.0 + vis * cos)
    return theta, cos, mu, _quasi_loglik(data, mu)


def _score_fringe(phi: np.ndarray, data: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Fisher scoring from ``p``: the optimum, its covariance, and its Pearson chi^2."""
    theta, cos, mu, q = _fringe_point(phi, data, p)
    for _ in range(_FIT_MAX_STEPS):
        c0, vis = p[0], p[1]
        weights = 1.0 / np.maximum(mu, 1.0)
        slope = -c0 * vis * np.sin(theta)  # d mu / d phi0
        jac = np.array([1.0 + vis * cos, c0 * cos, slope * phi, slope])
        weighted = jac * weights
        score = weighted @ (data - mu)
        cov = np.linalg.inv(weighted @ jac.T)
        step = cov @ score
        scale = np.abs(p)
        scale[1:] = scale[1:].max()
        # Halve the step until it raises the quasi-likelihood.  ``gain`` is
        # the rise the step promises, and halving quarters it; once it is
        # below n units in the last place, the rounding bound of an n-term
        # sum, the objective cannot tell the step from none: converged.
        gain = 0.5 * float(score @ step)
        while (np.abs(step) > _FIT_STEP_TOL * scale).any() and gain > len(data) * math.ulp(q):
            trial = _fringe_point(phi, data, p + step)
            if trial[3] > q:
                break
            step *= 0.5
            gain *= 0.25
        else:
            # The last step is taken untested: it lands fits of exact data
            # on the rates they were computed from.
            p = p + step
            mu = _fringe_point(phi, data, p)[2]
            return p, cov, float(np.sum(weights * (data - mu) ** 2))
        p = p + step
        theta, cos, mu, q = trial
    raise FitError(f"fringe fit did not converge in {_FIT_MAX_STEPS} steps")


def fit_visibility(scan: ScanResult, n_expected: int) -> FitReport:
    """Quasi-likelihood fringe fit of C0 (1 + V cos(f phi + phi0)), f free.

    Each point is weighted by 1 / max(mu, 1), mu the model's count: the
    Poisson maximum-likelihood fit above one count per bin, with a floor
    that keeps dark-fringe bins from pulling the fit onto mu = 0.  Sampled
    and noiseless scans are fitted alike, so a noiseless scan, whose data
    are the expected counts, gets the covariance a measurement at its rate
    would have.  Fisher scoring starts from a linear pre-fit at
    f = n_expected; each step is halved until it raises the log
    quasi-likelihood (``_quasi_loglik``), and the fit stops once a step is
    within 1e-10 of the parameters or below what that objective resolves.
    The covariance is the inverse Fisher matrix at the optimum;
    ``residual_norm`` is sqrt(chi^2), the Pearson chi^2 at the model
    weights.  Data with no fringe or less than one count in all, or a fit
    that does not converge, raises ``FitError``.
    """
    if not 1 <= _floats(n_expected) < math.inf:
        raise ValueError("expected fringe order must be at least 1 and finite")
    phi = scan.param
    data = scan.data()
    if len(phi) < 8:
        raise ValueError("need at least 8 scan points to fit")
    if phi.max() - phi.min() < 2.0 * math.pi / n_expected:
        raise ValueError("scan must span at least one full fringe period")
    if data.min() == data.max():
        raise FitError(f"scan shows no fringe: every point reads {data[0]:.6g}")
    total = float(data.sum())
    if total < 1.0:
        raise FitError(f"scan holds {total:.3g} counts in all; a fit needs at least one")

    # Linear pre-fit at the expected frequency for amplitude and phase seeds.
    design = np.column_stack(
        [np.ones_like(phi), np.cos(n_expected * phi), np.sin(n_expected * phi)]
    )
    c0_seed, ca, cb = np.linalg.lstsq(design, data, rcond=None)[0]
    c0_seed = max(c0_seed, 1e-12)
    v_seed = min(math.hypot(ca, cb) / c0_seed, 1.0)
    phi0_seed = math.atan2(-cb, ca)
    p0 = np.array([c0_seed, max(v_seed, 1e-3), float(n_expected), phi0_seed])

    try:
        # Data with (almost) no counts overflows or makes the Fisher matrix
        # singular; that is reported as a failed fit, not as a warning.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            popt, pcov, chi2 = _score_fringe(phi, data, p0)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise FitError(f"fringe fit failed: {exc}") from exc

    c0, vis, freq, phi0 = popt
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    if c0 <= 0:
        raise FitError(f"fit converged to a nonpositive baseline ({c0:.3g})")
    # Canonicalize the exact sign/phase degeneracies of the cosine model.
    if vis < 0:
        vis = -vis
        phi0 += math.pi
    if freq < 0:
        freq = -freq
        phi0 = -phi0
    phi0 = math.remainder(phi0, 2.0 * math.pi)
    clamped = bool(vis > 1.0)
    vis = min(vis, 1.0)
    return FitReport(
        visibility=float(vis),
        visibility_sigma=float(perr[1]),
        frequency=float(freq),
        frequency_sigma=float(perr[2]),
        phase_offset=float(phi0),
        amplitude=float(c0),
        residual_norm=math.sqrt(chi2),
        clamped=clamped,
    )


# ---------------------------------------------------------------------------
# Metrology verdicts and the efficiency budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqlVerdict:
    """Comparison of a fringe visibility against the N-photon SQL threshold."""

    n_photons: int
    visibility: float
    visibility_sigma: float
    threshold: float
    beats_sql: bool
    margin_sigma: float

    def verdict_line(self) -> str:
        word = "beats" if self.beats_sql else "does not beat"
        return (
            f"visibility {self.visibility:.4f} {word} the standard quantum limit "
            f"(threshold {self.threshold:.4f}, margin {self.margin_sigma:.2f} sigma)"
        )


def sql_verdict(visibility: float, visibility_sigma: float, n_photons: int) -> SqlVerdict:
    """Strict comparison against the 1/sqrt(N) visibility threshold."""
    n_photons = fock._photon_number(n_photons, 2)
    if not abs(_floats(visibility)) < math.inf:
        raise ValueError(f"visibility must be finite, got {visibility}")
    if not 0.0 <= _floats(visibility_sigma) < math.inf:
        raise ValueError(f"visibility sigma must be nonnegative and finite, got {visibility_sigma}")
    threshold = 1.0 / math.sqrt(n_photons)
    beats = visibility > threshold
    if visibility_sigma > 0:
        margin = (visibility - threshold) / visibility_sigma
    else:
        margin = 0.0 if visibility == threshold else math.copysign(math.inf, visibility - threshold)
    return SqlVerdict(n_photons, visibility, visibility_sigma, threshold, beats, margin)


@dataclass(frozen=True)
class EfficiencyChain:
    """Ordered sequence of (stage name, efficiency) factors."""

    stages: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("efficiency chain must be nonempty")
        for name, eta in self.stages:
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"stage {name!r} efficiency must lie in [0, 1], got {eta}")


@dataclass(frozen=True)
class BudgetReport:
    """Per-stage table plus single-arm and pair products."""

    stages: tuple[tuple[str, float], ...]
    single_arm: float
    pair: float
    quoted_overall: float | None = None

    @property
    def pair_vs_quoted(self) -> float | None:
        if self.quoted_overall is None:
            return None
        if self.pair == 0.0:
            return math.inf
        return self.quoted_overall / self.pair

    def report_lines(self) -> list[str]:
        lines = [f"{name} = {eta:.6g}" for name, eta in self.stages]
        lines.append(f"single_arm_product = {self.single_arm:.6g}")
        lines.append(f"pair_product = {self.pair:.6g}")
        if self.quoted_overall is not None:
            lines.append(f"quoted_overall = {self.quoted_overall:.6g}")
            lines.append(f"quoted_over_pair_ratio = {self.pair_vs_quoted:.6g}")
            # "Matches" means within a factor of 2; pair > 0 once the first test passes.
            if 0.5 <= self.pair_vs_quoted <= 2.0 and not 0.5 <= self.quoted_overall / self.single_arm <= 2.0:
                lines.append(
                    "note = quoted overall is described per signal photon but matches "
                    "the pair product, not the single-arm product; both are reported"
                )
        return lines


def efficiency_budget(chain: EfficiencyChain, quoted_overall: float | None = None) -> BudgetReport:
    """Multiply out a detection chain; the pair product squares the arm."""
    if quoted_overall is not None and not 0.0 <= _floats(quoted_overall) < math.inf:
        raise ValueError(f"quoted overall efficiency must be nonnegative and finite, got {quoted_overall}")
    single = math.prod(eta for _, eta in chain.stages)
    return BudgetReport(
        stages=chain.stages,
        single_arm=single,
        pair=single**2,
        quoted_overall=quoted_overall,
    )
