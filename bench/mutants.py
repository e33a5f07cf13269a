"""Mutation survey: which deliberate one-line faults the tier-1 suite catches.

Run from the root of a checkout:

    python bench/mutants.py

For each mutant in ``MUTANTS`` the checkout (without ``.git``, caches and
``tests/test_mutants.py``, which requires every listed text unmutated and so
would kill every mutant) is copied to a temporary directory, one textual
replacement is made in the copy, and the tier-1 suite runs there with ``-x``:
a failing run kills the mutant.
Every mutant runs twice.  In ``exact`` mode the golden gate compares output
bytes, as on the build that recorded them.  In ``fallback`` mode the copy's
recorded ``# probe =`` line is overwritten, so the gate takes its numeric
``--noiseless`` path, as on any other numpy build.  Nothing is written into
the checkout.  A killed mutant stops at its first failing test; a survivor
costs one full suite run, so all of them take several minutes.

The unmutated copy must pass in both modes first.  Each result is then
compared with its expectation: every mutant is killed in exact mode, and in
fallback mode too unless ``MUTANTS`` gives a reason it survives there.  The
script prints one line per mutant and mode and exits 1 if any result differs
from its expectation, or if a replacement no longer matches the source
exactly once.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_tmp", "test_mutants.py"
)
HASHES = Path("tests/golden/sha256.txt")
MODES = ("exact", "fallback")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    #: Why the fallback gate cannot kill it, or None if it must.
    fallback_survives: str | None = None


SHARED_SEED = "noiseless outputs do not depend on the seed; a correlation test of two scans (ROADMAP item 7) kills it"
MUTANTS = (
    Mutant("baseline-fraction", "src/noonsim/experiments.py", "_BASELINE_FRACTION = 0.1", "_BASELINE_FRACTION = 0.2"),
    Mutant(
        "odd-grid-middle-weight",
        "src/noonsim/spectral.py",
        "weight[-1] = dens[half - 1]",
        "weight[-1] = 2.0 * dens[half - 1]",
    ),
    Mutant(
        "bunching-flux",
        "src/noonsim/experiments.py",
        "overlap_kernel(spectrum, delays)) / 8.0",
        "overlap_kernel(spectrum, delays)) / 4.0",
    ),
    Mutant("tie-margin", "src/noonsim/spectral.py", "_TIE_MARGIN = 1e-3", "_TIE_MARGIN = 1e-7"),
    Mutant(
        "quasi-loglik-quadratic-sign",
        "src/noonsim/experiments.py",
        "below @ (data - 1.0 - 0.5 * below)",
        "below @ (data - 1.0 + 0.5 * below)",
    ),
    Mutant(
        "phase-offset-fmod",
        "src/noonsim/experiments.py",
        "math.remainder(phi0, 2.0 * math.pi)",
        "math.fmod(phi0, 2.0 * math.pi)",
    ),
    Mutant(
        "hom-scans-share-a-seed",
        "src/noonsim/cli.py",
        '"hom_up_delay", 1),',
        '"hom_up_delay", 0),',
        SHARED_SEED,
    ),
    Mutant(
        "fringe-scans-share-a-seed",
        "src/noonsim/cli.py",
        "for n, shift in ((1, 0), (2, 1)):",
        "for n, shift in ((1, 0), (2, 0)):",
        SHARED_SEED,
    ),
    Mutant(
        "ptrs-min-mean",
        "src/noonsim/experiments.py",
        "_PTRS_MIN_MEAN = 10.0",
        "_PTRS_MIN_MEAN = 12.0",
        "equivalent outside byte identity: the inversion is exact at every mean, so only the sampled bytes move",
    ),
    Mutant(
        "fit-weight-floor",
        "src/noonsim/experiments.py",
        "weights = 1.0 / np.maximum(mu, 1.0)",
        "weights = 1.0 / np.maximum(mu, 2.0)",
    ),
    Mutant(
        "clipped-left-edge-only",
        "src/noonsim/spectral.py",
        "bool(spectrum.density[0] > 0.5 or spectrum.density[-1] > 0.5)",
        "bool(spectrum.density[0] > 0.5)",
    ),
    Mutant(
        "sql-verdict-at-threshold",
        "src/noonsim/experiments.py",
        "beats = visibility > threshold",
        "beats = visibility >= threshold",
    ),
    Mutant(
        "negative-visibility-flip-deleted",
        "src/noonsim/experiments.py",
        "    if vis < 0:\n        vis = -vis\n        phi0 += math.pi\n",
        "",
    ),
    Mutant(
        "mixer-limit-inclusive",
        "src/noonsim/fock.py",
        "if (n := n_a + n_b) > _MAX_MIXER_PHOTONS:",
        "if (n := n_a + n_b) >= _MAX_MIXER_PHOTONS:",
    ),
    Mutant(
        "mixer-rounding-check-deleted",
        "src/noonsim/fock.py",
        "        if error > _MIXER_ERROR:\n"
        '            raise FockError(f"mixing |{n_a},{n_b}> may round an amplitude by {error:.1e}, over {_MIXER_ERROR:g}")\n',
        "",
    ),
    Mutant("hom-scan-factor", "src/noonsim/experiments.py", "2.0 * hom_profile(", "1.0 * hom_profile("),
    Mutant(
        "floats-overflow-branch-deleted",
        "src/noonsim/spectral.py",
        "    try:\n        return cells.astype(dtype, copy=False)\n    except OverflowError:\n"
        "        return np.where(np.abs(cells) > sys.float_info.max, math.nan, cells).astype(dtype)\n",
        "    return cells.astype(dtype, copy=False)\n",
    ),
    Mutant("photon-number-bound-inclusive", "src/noonsim/fock.py", "least <= n < 2**63", "least <= n <= 2**63"),
    Mutant(
        "no-positive-peak-guard-deleted",
        "src/noonsim/spectral.py",
        '    if not peak > 0.0:\n        raise SpectralError("density has no positive peak")\n',
        "",
    ),
    Mutant(
        "kernel-unit-peak-deleted",
        "src/noonsim/spectral.py",
        "lam, dens = spectrum.wavelength_nm, _unit_peak(spectrum.density)\n    half",
        "lam, dens = spectrum.wavelength_nm, spectrum.density\n    half",
    ),
    Mutant(
        "noon-cross-check-phase-first-power",
        "src/noonsim/experiments.py",
        'factor ** term.count("arm-b")',
        "factor ** 1",
    ),
    Mutant(
        "repeated-mode-labels-accepted",
        "src/noonsim/fock.py",
        "    modes = _distinct(modes)\n",
        "    modes = tuple(modes)\n",
    ),
    Mutant("run-freeze-deleted", "src/noonsim/cli.py", "    finally:\n        gc.freeze()\n", "    finally:\n        pass\n"),
    Mutant("main-guard-skips-run", "src/noonsim/cli.py", "sys.exit(run())", "sys.exit(main())"),
)


def mutate(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.path
    source = path.read_text()
    if source.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {source.count(mutant.old)} times in {mutant.path}")
    path.write_text(source.replace(mutant.old, mutant.new))


def force_fallback(copy: Path) -> None:
    """Overwrite the recorded probe hash, so the golden gate compares numbers instead of bytes.

    The new value matches no host's probe, nor the zeros that
    ``test_outputs_match_golden_numbers_on_another_build`` gives as another build's.
    """
    path = copy / HASHES
    text, count = re.subn(r"(?m)^# probe = \w+$", "# probe = " + "f" * 64, path.read_text())
    if count != 1:
        raise SystemExit(f"no '# probe =' line in {HASHES}")
    path.write_text(text)


def fails(mutant: Mutant | None, mode: str) -> bool:
    """Whether the tier-1 suite fails on a copy of the checkout with ``mutant``, if any, applied."""
    with tempfile.TemporaryDirectory(prefix="noonsim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            mutate(copy, mutant)
        if mode == "fallback":
            force_fallback(copy)
        path = os.pathsep.join(filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        run = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode != 0


def main() -> int:
    for mode in MODES:
        if fails(None, mode):
            raise SystemExit(f"the suite fails on the unmutated checkout in {mode} mode")
    unexpected = 0
    for mutant in MUTANTS:
        for mode in MODES:
            result = "killed" if fails(mutant, mode) else "survived"
            expected = "survived" if mode == "fallback" and mutant.fallback_survives else "killed"
            note = "" if result == expected else "  UNEXPECTED"
            if result == expected == "survived":
                note = f"  (expected: {mutant.fallback_survives})"
            unexpected += result != expected
            print(f"{mutant.name:34s} {mode:8s} {result}{note}", flush=True)
    print(f"{unexpected} unexpected result(s)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
