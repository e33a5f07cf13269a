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
"""

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


def fringe_pulls(n_photons, visibility, phases, rate_hz):
    """Pulls of the fitted visibility and frequency, one per seed."""
    pulls = {"visibility": [], "frequency": []}
    for seed in SEEDS:
        scan = ns.noon_fringe(n_photons, visibility, phases, rate_hz, DEFAULTS.fringe_t_bin_s, seed)
        report = ns.fit_visibility(scan, n_photons)
        pulls["visibility"].append((report.visibility - visibility) / report.visibility_sigma)
        pulls["frequency"].append((report.frequency - n_photons) / report.frequency_sigma)
    return pulls


@pytest.mark.parametrize(
    "n_photons, visibility, phases, rate_hz",
    [
        (1, DEFAULTS.fringe_visibility_n1, PHASES, DEFAULTS.fringe_rate_hz),
        (1, 0.5, PHASES, DEFAULTS.fringe_rate_hz),
        (2, DEFAULTS.fringe_visibility_n2, PHASES, DEFAULTS.fringe_rate_hz),
        (2, 0.2, PHASES, DEFAULTS.fringe_rate_hz),
        (1, DEFAULTS.fringe_visibility_n1, LONG_PHASES, 120.0),
    ],
    ids=["n1-default", "n1-0.5", "n2-default", "n2-0.2", "n1-long"],
)
def test_fringe_pulls_are_calibrated(n_photons, visibility, phases, rate_hz):
    for estimate, pulls in fringe_pulls(n_photons, visibility, phases, rate_hz).items():
        mean, sd = np.mean(pulls), np.std(pulls, ddof=1)
        assert abs(mean) < MEAN_BOUND, f"{estimate} pull mean {mean:+.3f}"
        assert SD_RANGE[0] < sd < SD_RANGE[1], f"{estimate} pull sd {sd:.3f}"
