"""Side-by-side benchmark of ``overlap_kernel`` on spectra read back from CSV: a base revision against the working tree.

Run from the root of a checkout, naming the revision to compare against
(the parent commit of the change in the working tree):

    python3 bench/kernel_readback.py --base HEAD --out BENCH_34.json

The base revision is extracted with ``git archive`` into a temporary
directory and its ``src/noonsim/spectral.py`` is loaded next to the working
tree's, so both kernels run in one process.  Each row builds the default
config's emission spectrum on a grid of ``points`` wavelengths, writes it
with ``Spectrum.to_csv`` and reads it back with ``Spectrum.from_csv``:
``%.12g`` rounds the wavelengths, so the read-back grid is uniform only to
about 5e3 rad/s.  Each round times the base and the working tree's kernel on
the read-back spectrum, alternating which goes first, and the working
tree's kernel on the in-memory spectrum.  The JSON records per row the best
and the median time in ms per call, the read-back over in-memory ratio, and
each kernel's largest deviation from the direct cosine sum over the
read-back grid, the reference the kernel tests use.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from noonsim import cli  # noqa: E402
from noonsim import spectral as change  # noqa: E402

#: (grid points, delay points, largest |delay| in mm): the four rows of the read-back cliff.
ROWS = ((4096, 121, 1.0), (4096, 401, 6.0), (16384, 121, 6.0), (16384, 401, 6.0))


def load_base(rev: str):
    """The base revision's spectral module, extracted with ``git archive`` and loaded under its own name."""
    archive = subprocess.run(["git", "archive", rev, "src/noonsim/spectral.py"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="noonsim-base-") as base_tree:
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        spec = importlib.util.spec_from_file_location("base_spectral", Path(base_tree) / "src/noonsim/spectral.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module.__name__] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def direct_sum(spectrum, delays_mm: np.ndarray) -> np.ndarray:
    """The unit-peak cosine sum over every grid point of the symmetrized density, one cosine per (delay, point)."""
    lam = spectrum.wavelength_nm
    lam0 = 0.5 * (lam[0] + lam[-1])
    omega = 2.0 * np.pi * change._C_NM_PER_S * (lam0 - lam) / lam0**2
    sym = 0.5 * (spectrum.density + spectrum.density[::-1])
    return np.cos(np.outer(delays_mm / change._C_MM_PER_S, omega)) @ sym / sym.sum()


def per_call_ms(kernel, spectrum, delays_mm: np.ndarray) -> float:
    start = time.perf_counter()
    kernel(spectrum, delays_mm)
    return (time.perf_counter() - start) * 1e3


def row(base, points: int, delay_points: int, reach_mm: float, rounds: int) -> dict:
    emission = cli._spectra(dataclasses.replace(cli.RunConfig(), grid_points=points))[0]
    text = emission.to_csv()
    spectra = {"base": base.Spectrum.from_csv(text), "change": change.Spectrum.from_csv(text)}
    kernels = {"base": base.overlap_kernel, "change": change.overlap_kernel}
    delays = np.linspace(-reach_mm, reach_mm, delay_points)
    times = {"base read back": [], "change read back": [], "change in memory": []}
    for r in range(rounds):
        for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
            times[f"{side} read back"].append(per_call_ms(kernels[side], spectra[side], delays))
        times["change in memory"].append(per_call_ms(change.overlap_kernel, emission, delays))
    reference = direct_sum(spectra["change"], delays)
    entry = {
        name: {"best_ms": round(min(values), 3), "median_ms": round(statistics.median(values), 3)}
        for name, values in times.items()
    }
    for side in ("base", "change"):
        deviation = np.max(np.abs(kernels[side](spectra[side], delays) - reference))
        entry[f"{side} read back"]["max_abs_from_direct_sum"] = float(f"{deviation:.3g}")
    for side in ("base", "change"):
        best = entry[f"{side} read back"]["best_ms"] / entry["change in memory"]["best_ms"]
        entry[f"{side} read back"]["best_over_in_memory"] = round(best, 2)
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--rounds", type=int, default=15, help="timed calls per kernel and row")
    parser.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    args = parser.parse_args()

    revision = subprocess.run(
        ["git", "rev-parse", "--short", args.base], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    base = load_base(args.base)
    result = {
        "what": f"overlap_kernel on spectra read back from CSV at {args.base} = {revision} ('base') and in the "
        "working tree ('change'), with the working tree's kernel on the in-memory spectrum",
        "hardware": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}",
        "how": f"{args.rounds} calls per kernel and row, alternating which tree's read-back call goes first; "
        "best and median ms per call",
        "rows": {
            f"{points} x {delay_points}, +-{reach:g} mm": row(base, points, delay_points, reach, args.rounds)
            for points, delay_points, reach in ROWS
        },
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
