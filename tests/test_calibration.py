"""Calibration of the fit uncertainties, checked over many seeds.

For each estimate the pull z = (estimate - truth) / sigma is collected over
``SEEDS`` sampled scans, at the CLI's default fringe settings and on the
README's long scan (N = 1, 2000 points over 0-4 pi, 120 counts a point); a
calibrated, unbiased fit gives pulls of mean 0 and sd 1.  Each check bounds
the mean by ``MEAN_BOUND`` and the sd to ``SD_RANGE``.

False alarms: for K = 400 pulls of a standard normal the mean has sd 0.05,
so |mean| >= 0.25 is a 5-sigma event (p = 5.7e-7), and (K - 1) sd^2 is
chi^2 with 399 degrees of freedom, so the sd leaves [0.85, 1.15] with
p = 2.3e-5.  Over the module's 10 pull series that is 2.4e-4.  For the fits
as they are (pulls of mean up to +0.08 and sd 0.97-1.03 over seeds
400-4399), sets of 400 seeds drawn from those pulls fail some check 0.13 %
of the time.  A sigma off by a factor of 2 moves the sd to 0.5 or 2.

The checks are the ones the fits pass today.  Visibilities near 0, where
the free frequency can alias, are left out.

The same fits give each cell's median sigma, which the sigma of a noiseless
fit must match within ``NOISELESS_SIGMA_RTOL``: it measured 1.0001-1.0079
times the median for the visibility and 1.0003-1.0040 for the frequency.
"""

import functools

import numpy as np
import pytest

import noonsim as ns
from noonsim.cli import RunConfig

SEEDS = range(400)
MEAN_BOUND = 0.25
SD_RANGE = (0.85, 1.15)

DEFAULTS = RunConfig()
PHASES = np.linspace(DEFAULTS.fringe_phase_min_rad, DEFAULTS.fringe_phase_max_rad, DEFAULTS.fringe_points)
LONG_PHASES = np.linspace(0.0, 4 * np.pi, 2000)


#: id -> (N, visibility, phases, rate) of each calibration cell.
CELLS = {
    "n1-default": (1, DEFAULTS.fringe_visibility_n1, PHASES, DEFAULTS.fringe_rate_hz),
    "n1-0.5": (1, 0.5, PHASES, DEFAULTS.fringe_rate_hz),
    "n2-default": (2, DEFAULTS.fringe_visibility_n2, PHASES, DEFAULTS.fringe_rate_hz),
    "n2-0.2": (2, 0.2, PHASES, DEFAULTS.fringe_rate_hz),
    "n1-long": (1, DEFAULTS.fringe_visibility_n1, LONG_PHASES, 120.0),
}
#: Largest relative distance of a noiseless fit's sigma from the median sampled sigma.
NOISELESS_SIGMA_RTOL = 0.02


@functools.cache
def sampled_fits(cell):
    """One fit report per seed of ``cell``'s sampled scans."""
    n_photons, visibility, phases, rate_hz = CELLS[cell]
    return [
        ns.fit_visibility(ns.noon_fringe(n_photons, visibility, phases, rate_hz, DEFAULTS.fringe_t_bin_s, seed), n_photons)
        for seed in SEEDS
    ]


@pytest.mark.parametrize("cell", CELLS)
def test_fringe_pulls_are_calibrated(cell):
    n_photons, visibility = CELLS[cell][:2]
    for estimate, truth in (("visibility", visibility), ("frequency", n_photons)):
        pulls = [(getattr(r, estimate) - truth) / getattr(r, f"{estimate}_sigma") for r in sampled_fits(cell)]
        mean, sd = np.mean(pulls), np.std(pulls, ddof=1)
        assert abs(mean) < MEAN_BOUND, f"{estimate} pull mean {mean:+.3f}"
        assert SD_RANGE[0] < sd < SD_RANGE[1], f"{estimate} pull sd {sd:.3f}"


@pytest.mark.parametrize("cell", CELLS)
def test_noiseless_sigmas_predict_the_sampled_ones(cell):
    # A noiseless fit sees the expected counts and weights them as a sampled
    # fit would, so its sigmas are the ones a measurement at this rate has.
    n_photons, visibility, phases, rate_hz = CELLS[cell]
    scan = ns.noon_fringe(n_photons, visibility, phases, rate_hz, DEFAULTS.fringe_t_bin_s, 0, noiseless=True)
    report = ns.fit_visibility(scan, n_photons)
    for estimate in ("visibility_sigma", "frequency_sigma"):
        median = np.median([getattr(r, estimate) for r in sampled_fits(cell)])
        assert getattr(report, estimate) == pytest.approx(median, rel=NOISELESS_SIGMA_RTOL), estimate
