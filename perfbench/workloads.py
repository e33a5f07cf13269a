"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload builds its inputs from the benchmark seed, then exposes one
*round*: a fixed list of operations that the timed loop repeats until the
run's time is up.  Every round runs the same operations on the same inputs,
so the share of failed operations is the same in every run, and rounds
after the first double as byte-identical rerun checks.  Each output of the
first round is checked against :mod:`refs` right after its timed call, and
only the verdict is kept.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import noonsim as ns
import refs

HERE = Path(__file__).resolve().parent

PUMP_NM = 773.5
SIGNAL_NM = 1547.0
IDLER_NM = 1.0 / (1.0 / PUMP_NM - 1.0 / SIGNAL_NM)
CONVERTER_PUMP_NM = 795.0
T_BIN_S = 1.0


@dataclass
class Op:
    """One timed operation of a round."""

    label: str
    run: Callable[[], object]


@dataclass
class Verdict:
    failed: bool = False
    problems: list[str] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed = True
            self.problems.append(message)

    def known_fault(self, ok: bool) -> None:
        """A check that fails today because of a named program fault.

        Its failure counts the operation as failed without making the run
        incorrect; once the fault is mended the check passes.
        """
        if not ok:
            self.failed = True


def fingerprint(obj, h=None) -> bytes:
    """Digest of an op's outputs, used to compare reruns byte for byte."""
    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (str, bytes)):
        h.update(obj.encode() if isinstance(obj, str) else obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            fingerprint(item, h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            fingerprint(obj[key], h)
    elif is_dataclass(obj):
        for f in fields(obj):
            fingerprint(getattr(obj, f.name), h)
    else:
        h.update(repr(obj).encode())
    return h.digest() if top else b""


def _symmetric_delays(half_range_mm: float, points: int) -> np.ndarray:
    """Odd-length delay grid holding an exact 0 and exact +/- pairs."""
    half = (points - 1) // 2
    return (half_range_mm / half) * np.arange(-half, half + 1, dtype=float)


def _check_csv_round_trip(v: Verdict, label: str, pairs) -> None:
    for name, got, want in pairs:
        v.require(refs.same_digits(got, want), f"{label}: {name} does not survive the CSV round trip")


class Workload:
    """Common interface; subclasses fill ``ops`` in ``__init__``."""

    ops: list[Op]

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.out_dir = out_dir
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.disp_ref = refs.read_sellmeier(Path(ns.__file__).parent / "data" / "ktp_sellmeier.txt")
        self.tracer = None

    def warm_up(self) -> None:
        """Work done before the ready signal, counted in ``setup_s``."""

    def collect(self, raw):
        """Turn a timed op's raw result into its outputs, outside the timing."""
        return raw

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, i: int, out) -> Verdict:
        """Verdict on the outputs of op ``i``; called once per phase, untimed."""
        v = Verdict()
        if isinstance(out, Exception):
            v.require(False, f"{self.ops[i].label}: raised {type(out).__name__}: {out}")
        else:
            self.check_op(i, out, v)
        return v

    def check_op(self, i: int, out, v: Verdict) -> None:
        raise NotImplementedError

    def check_round(self, verdicts: list[Verdict]) -> None:
        """Checks across the ops of a round, after each op was checked."""


# ---------------------------------------------------------------------------
# design-sweep
# ---------------------------------------------------------------------------

#: (grid points, delay points) of the designs in one round.  The sizes are
#: fixed so every seed does the same kernel and CSV work, and weighted so the
#: median op falls inside the 4096-point group and the 90th percentile inside
#: the 16384-point group, not on a step between two sizes.
DESIGN_SIZES = (
    ((1024, 61), (1024, 401), (2048, 201), (2048, 401))
    + ((4096, 121),) * 4
    + ((8192, 61), (8192, 121))
    + ((16384, 61),) * 3
)
#: L * FWHM of the emission and acceptance spectra, nm * mm, rounded up; the
#: grid span is a seeded multiple of the wider of the two.
EMISSION_WIDTH_NM_MM = 24.0
ACCEPTANCE_WIDTH_NM_MM = 10.0


@dataclass
class Design:
    points: int
    delays: np.ndarray
    up_delays: np.ndarray
    spdc_length_mm: float
    sfg_length_mm: float
    converter_pump_nm: float
    span_nm: float
    gamma: float
    gamma_up: float
    gamma_bunching: float
    rate_hz: float
    bunching_rate_hz: float
    seed: int

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(SIGNAL_NM - self.span_nm / 2, SIGNAL_NM + self.span_nm / 2, self.points)

    @property
    def sfg_nm(self) -> float:
        return 1.0 / (1.0 / self.converter_pump_nm + 1.0 / SIGNAL_NM)


class DesignSweep(Workload):
    name = "design-sweep"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.dispersion = ns.load_sellmeier()
        sizes = list(DESIGN_SIZES)
        self.rng.shuffle(sizes)
        self.designs = [self._design(points, n_delays) for points, n_delays in sizes]
        self.fwhm_products: dict[int, float] = {}
        self.ops = [Op(f"design {i} {d.points}x{len(d.delays)}", self._runner(d)) for i, d in enumerate(self.designs)]

    def _design(self, points: int, n_delays: int) -> Design:
        r = self.rng
        l1, l2 = r.uniform(5.0, 40.0), r.uniform(5.0, 40.0)
        width = max(EMISSION_WIDTH_NM_MM / l1, ACCEPTANCE_WIDTH_NM_MM / l2)
        scale = r.uniform(0.8, 1.2)
        return Design(
            points=points,
            delays=_symmetric_delays(6.0 * l1 / 20.0 * scale, n_delays),
            up_delays=_symmetric_delays(12.0 * max(l1, l2) / 20.0 * scale, n_delays),
            spdc_length_mm=l1,
            sfg_length_mm=l2,
            converter_pump_nm=r.uniform(790.0, 800.0),
            span_nm=r.uniform(6.0, 10.0) * width,
            gamma=r.uniform(0.9, 1.0),
            gamma_up=r.uniform(0.85, 1.0),
            gamma_bunching=r.uniform(0.8, 1.0),
            rate_hz=r.uniform(300.0, 3000.0),
            bunching_rate_hz=r.uniform(1000.0, 5000.0),
            seed=r.randrange(2**31),
        )

    def warm_up(self) -> None:
        self._run(max(self.designs, key=lambda d: d.points))

    def _runner(self, d: Design):
        return lambda: self._run(d)

    def _run(self, d: Design) -> dict:
        spdc = ns.CrystalSpec(d.spdc_length_mm, 1.0, "spdc", "type-II", refs.SPDC_AXES, self.dispersion)
        spdc = ns.with_solved_poling(spdc, (PUMP_NM, SIGNAL_NM, IDLER_NM))
        sfg = ns.CrystalSpec(d.sfg_length_mm, 1.0, "sfg", "type-I", refs.SFG_AXES, self.dispersion)
        sfg = ns.with_solved_poling(sfg, (d.sfg_nm, d.converter_pump_nm, SIGNAL_NM))
        grid = d.grid
        emission = ns.emission_spectrum(spdc, PUMP_NM, grid)
        acceptance = ns.acceptance_spectrum(sfg, d.converter_pump_nm, grid)
        filtered = ns.filtered_spectrum(emission, acceptance)
        spectra = (emission, acceptance, filtered)
        widths = [ns.fwhm(s) for s in spectra]
        hom_source = ns.hom_scan(emission, d.gamma, d.delays, d.rate_hz, T_BIN_S, d.seed, noiseless=True)
        hom_up = ns.hom_scan(filtered, d.gamma_up, d.up_delays, d.rate_hz, T_BIN_S, d.seed + 1, noiseless=True)
        bunching = ns.bunching_scan(
            d.gamma_bunching, d.delays, d.bunching_rate_hz, T_BIN_S, d.seed, spectrum=emission, noiseless=True
        )
        texts, read_back = [], []
        for name, spectrum in zip(("emission", "acceptance", "filtered"), spectra):
            path = self.out_dir / f"{name}.csv"
            path.write_text(spectrum.to_csv(), encoding="utf-8")
            text = path.read_text(encoding="utf-8")
            texts.append(text)
            read_back.append(ns.Spectrum.from_csv(text))
        return {
            "periods": (spdc.poling_period_um, sfg.poling_period_um),
            "spectra": spectra,
            "widths": widths,
            "scans": (hom_source, hom_up, bunching),
            "texts": texts,
            "read_back": read_back,
        }

    def check_round(self, verdicts: list[Verdict]) -> None:
        # L * FWHM of the emission spectrum is the same for every design: the
        # pump is fixed, and the sinc^2 width in dk scales as 1/L.
        products = self.fwhm_products
        if products:
            mid = float(np.median(list(products.values())))
            for i, value in products.items():
                verdicts[i].require(
                    abs(value / mid - 1.0) <= 1e-3,
                    f"{self.ops[i].label}: L*FWHM {value:.6g} nm*mm differs from the sweep median {mid:.6g}",
                )
        products.clear()

    def check_op(self, i: int, out: dict, v: Verdict) -> None:
        d = self.designs[i]
        label = self.ops[i].label
        self.fwhm_products[i] = d.spdc_length_mm * out["widths"][0]
        grid = d.grid
        step = grid[1] - grid[0]
        disp = self.disp_ref

        spdc_period = refs.poling_period_um(float(refs.spdc_mismatch(disp, PUMP_NM, SIGNAL_NM)))
        sfg_period = refs.poling_period_um(float(refs.sfg_mismatch(disp, d.converter_pump_nm, SIGNAL_NM)))
        for got, want, name in zip(out["periods"], (spdc_period, sfg_period), ("SPDC", "SFG")):
            v.require(refs.close(got, want, 1e-9), f"{label}: {name} poling {got!r} um vs closed form {want!r}")

        em_ref = refs.spdc_density(disp, PUMP_NM, SIGNAL_NM, grid, d.spdc_length_mm)
        ac_ref = refs.sfg_density(disp, d.converter_pump_nm, SIGNAL_NM, grid, d.sfg_length_mm)
        fi_ref = em_ref * ac_ref**2
        fi_ref = fi_ref / fi_ref.max()
        for name, spectrum, ref, width in zip(
            ("emission", "acceptance", "filtered"), out["spectra"], (em_ref, ac_ref, fi_ref), out["widths"]
        ):
            dens = spectrum.density
            v.require(refs.close(dens, ref, 0.0, 1e-9), f"{label}: {name} density differs from sinc^2 reference")
            peak = int(np.argmax(dens))
            v.require(
                dens[peak] == 1.0 and abs(grid[peak] - SIGNAL_NM) <= step,
                f"{label}: {name} peak {dens[peak]!r} at {grid[peak]:.6f} nm, target {SIGNAL_NM} nm",
            )
            v.require(not spectrum.clipped, f"{label}: {name} spectrum clipped")
            v.require(
                refs.close(width, refs.half_max_width(grid, ref), 1e-6),
                f"{label}: {name} FWHM {width!r} vs reference {refs.half_max_width(grid, ref)!r}",
            )

        emission, _, filtered = out["spectra"]
        hom_source, hom_up, bunching = out["scans"]
        g_refs = []
        for spectrum, delays, name in ((emission, d.delays, "source"), (filtered, d.up_delays, "upconverted")):
            g = ns.overlap_kernel(spectrum, delays)
            mid = len(delays) // 2
            v.require(delays[mid] == 0.0 and g[mid] == 1.0, f"{label}: {name} kernel g(0) = {g[mid]!r}")
            v.require(refs.close(g, g[::-1], 0.0, 1e-12), f"{label}: {name} kernel is not even")
            g_refs.append(refs.direct_kernel(grid, spectrum.density, delays))
            v.require(refs.close(g, g_refs[-1], 0.0, 1e-9), f"{label}: {name} kernel differs from the direct sum")

        g_em, g_fi = g_refs
        scale = d.rate_hz * T_BIN_S
        b_scale = d.bunching_rate_hz * T_BIN_S
        expectations = (
            ("HOM source", hom_source, scale, np.clip(1.0 - d.gamma * g_em, 0, None), 1.0 - d.gamma),
            ("HOM upconverted", hom_up, scale, np.clip(1.0 - d.gamma_up * g_fi, 0, None), 1.0 - d.gamma_up),
            ("bunching", bunching, b_scale / 8.0, 1.0 + d.gamma_bunching * g_em, 1.0 + d.gamma_bunching),
        )
        for name, scan, factor, shape, at_zero in expectations:
            mid = len(scan.param) // 2
            want, at_zero = factor * shape, factor * at_zero
            v.require(refs.close(scan.expected, want, 0.0, 1e-9 * factor), f"{label}: {name} expected counts")
            v.require(refs.close(scan.expected[mid], at_zero, 1e-12, 1e-12), f"{label}: {name} zero-delay value")
            v.require(np.array_equal(scan.counts, np.rint(scan.expected)), f"{label}: {name} noiseless counts")

        for name, original, back in zip(("emission", "acceptance", "filtered"), out["spectra"], out["read_back"]):
            _check_csv_round_trip(
                v,
                f"{label} {name}",
                (("wavelength", back.wavelength_nm, original.wavelength_nm), ("density", back.density, original.density)),
            )


# ---------------------------------------------------------------------------
# mc-scan
# ---------------------------------------------------------------------------

#: Points of the seeded fringe scans in one round; each op is an N=1 and N=2
#: pair.  With the fault pairs and the three other ops the round has 20,
#: weighted so the median op falls inside the 192-point group and the 90th
#: percentile inside the 2000-point one.
FRINGE_POINTS = (24, 48, 96) + (192,) * 6 + (500,) * 4
FRINGE_RATE_HZ = (500.0, 700.0)
#: Long low-count fringe pairs on fixed inputs: the CLI's visibilities, 2000
#: points over two turns, 120 Hz.  ``fit_visibility``'s observed-count weights
#: bias the visibility upward by more than six reported sigmas here (N=1 by
#: 8-10 sigma), so these pairs fail today; they count as failed, not incorrect.
FAULT_FRINGES = tuple(
    {"points": 2000, "span": 4.0 * math.pi, "v1": 0.9751, "v2": 0.8493, "rate": 120.0, "seed": seed, "fault": True}
    for seed in (1, 2, 3, 4)
)
COARSE_GRID_POINTS = 512
HOM_DELAYS = 121
BUNCHING_DELAYS = 201
PROBABILITY_PHASES = 16


class McScan(Workload):
    name = "mc-scan"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        r = self.rng
        self.grid = np.linspace(SIGNAL_NM - 8.0, SIGNAL_NM + 8.0, COARSE_GRID_POINTS)
        self.fringes = [
            {
                "points": points,
                "span": 2.0 * math.pi * r.uniform(1.0, 2.0),
                "v1": r.uniform(0.80, 0.90),
                "v2": r.uniform(0.75, 0.90),
                "rate": r.uniform(*FRINGE_RATE_HZ),
                "seed": r.randrange(2**31),
                "fault": False,
            }
            for points in FRINGE_POINTS
        ]
        self.fringes += FAULT_FRINGES
        self.hom = {"gamma": r.uniform(0.9, 1.0), "rate": r.uniform(300.0, 3000.0), "seed": r.randrange(2**31)}
        self.bunching = {"gamma": r.uniform(0.8, 1.0), "rate": r.uniform(1000.0, 5000.0), "seed": r.randrange(2**31)}
        self.prob_phases = np.array(sorted(r.uniform(0.0, 2.0 * math.pi) for _ in range(PROBABILITY_PHASES)))
        self.sampled: dict[int, list[float]] = {}
        self.hom_delays = _symmetric_delays(6.0, HOM_DELAYS)
        self.bunching_delays = _symmetric_delays(6.0, BUNCHING_DELAYS)
        spdc = ns.CrystalSpec(20.0, 1.0, "spdc", "type-II", refs.SPDC_AXES, ns.load_sellmeier())
        spdc = ns.with_solved_poling(spdc, (PUMP_NM, SIGNAL_NM, IDLER_NM))
        self.emission = ns.emission_spectrum(spdc, PUMP_NM, self.grid)
        ops = [
            Op(f"fringe pair {i} ({f['points']} points{', known fault' if f['fault'] else ''})", self._fringe_runner(f))
            for i, f in enumerate(self.fringes)
        ]
        ops += [
            Op("HOM scan", self._run_hom),
            Op("bunching scan", self._run_bunching),
            Op("NOON Fock cross-check", self._run_probabilities),
        ]
        r.shuffle(ops)
        self.ops = ops

    def warm_up(self) -> None:
        """One op of each kind, the fringe pair at its smallest size."""
        self._run_fringe(self.fringes[0])
        self._run_hom()
        self._run_bunching()
        self._run_probabilities()

    def _fringe_runner(self, f: dict):
        return lambda: self._run_fringe(f)

    def _write(self, name: str, scan) -> str:
        text = scan.to_csv()
        (self.out_dir / name).write_text(text, encoding="utf-8")
        return text

    def _run_fringe(self, f: dict) -> dict:
        phases = np.linspace(0.0, f["span"], f["points"])
        scans, fits, texts = [], [], []
        for n, vis in ((1, f["v1"]), (2, f["v2"])):
            scan = ns.noon_fringe(n, vis, phases, f["rate"], T_BIN_S, f["seed"] + n)
            fits.append(ns.fit_visibility(scan, n))
            texts.append(self._write(f"fringe_n{n}.csv", scan))
            scans.append(scan)
        verdict = ns.sql_verdict(fits[1].visibility, fits[1].visibility_sigma, 2)
        return {"kind": "fringe", "scans": scans, "fits": fits, "verdict": verdict, "texts": texts, "spec": f}

    def _run_hom(self) -> dict:
        h = self.hom
        scan = ns.hom_scan(self.emission, h["gamma"], self.hom_delays, h["rate"], T_BIN_S, h["seed"])
        text = self._write("hom.csv", scan)
        return {"kind": "hom", "scan": scan, "value": ns.dip_visibility(scan), "text": text}

    def _run_bunching(self) -> dict:
        b = self.bunching
        scan = ns.bunching_scan(
            b["gamma"], self.bunching_delays, b["rate"], T_BIN_S, b["seed"], spectrum=self.emission
        )
        text = self._write("bunching.csv", scan)
        return {"kind": "bunching", "scan": scan, "value": ns.peak_to_baseline_ratio(scan), "text": text}

    def _run_probabilities(self) -> dict:
        return {
            "kind": "probabilities",
            "probs": {n: ns.noon_fringe_probabilities(n, self.prob_phases) for n in (2, 3)},
        }

    def _check_scan_csv(self, v: Verdict, label: str, scan, text: str) -> None:
        back = ns.ScanResult.from_csv(text)
        header, rows = refs.parse_csv(text)
        v.require(header == ["param", "expected", "counts", "sigma"], f"{label}: CSV header {header}")
        _check_csv_round_trip(
            v,
            label,
            (
                ("param", back.param, scan.param),
                ("expected", back.expected, scan.expected),
                ("counts", back.counts, scan.counts),
                ("sigma", rows[:, 3], np.sqrt(np.maximum(scan.counts, 1.0))),
            ),
        )

    def _count_totals(self, i: int, scan) -> None:
        totals = self.sampled.setdefault(i, [0.0, 0.0])
        totals[0] += float(np.sum(scan.counts))
        totals[1] += float(np.sum(scan.expected))

    def check_round(self, verdicts: list[Verdict]) -> None:
        # One scan holds too few counts for its 6-sigma total to see a 1 %
        # error in the Poisson means; the round's ~3e6 counts do.
        counts, means = (sum(t[k] for t in self.sampled.values()) for k in (0, 1))
        if self.sampled and not refs.poisson_total_ok(counts, means):
            for i in self.sampled:
                verdicts[i].require(False, f"{self.ops[i].label}: round Poisson total {counts:.0f} vs means {means:.1f}")
        self.sampled.clear()

    def check_op(self, i: int, out: dict, v: Verdict) -> None:
        label = self.ops[i].label
        if out["kind"] == "fringe":
            f = out["spec"]
            for n, vis, scan, fit, text in zip((1, 2), (f["v1"], f["v2"]), out["scans"], out["fits"], out["texts"]):
                want = refs.fringe_expected(n, vis, scan.param, f["rate"], T_BIN_S)
                v.require(refs.close(scan.expected, want, 1e-12, 1e-9), f"{label}: N={n} expected counts")
                v.require(refs.poisson_total_ok(scan.counts, scan.expected), f"{label}: N={n} Poisson total")
                self._count_totals(i, scan)
                vis_ok = refs.within_sigma(fit.visibility, vis, fit.visibility_sigma)
                if f["fault"]:
                    v.known_fault(vis_ok)
                else:
                    v.require(
                        vis_ok,
                        f"{label}: N={n} visibility {fit.visibility:.5f} +/- {fit.visibility_sigma:.2g}, truth {vis:.5f}",
                    )
                v.require(
                    refs.within_sigma(fit.frequency, n, fit.frequency_sigma),
                    f"{label}: N={n} frequency {fit.frequency:.5f} +/- {fit.frequency_sigma:.2g}",
                )
                self._check_scan_csv(v, f"{label} N={n}", scan, text)
            f1, f2 = out["fits"]
            ratio = f2.frequency / f1.frequency
            ratio_sigma = ratio * math.hypot(f2.frequency_sigma / f2.frequency, f1.frequency_sigma / f1.frequency)
            v.require(refs.within_sigma(ratio, 2.0, ratio_sigma), f"{label}: period ratio {ratio:.5f}")
            verdict = out["verdict"]
            threshold = 1.0 / math.sqrt(2.0)
            v.require(
                refs.close(verdict.threshold, threshold, 1e-15)
                and verdict.beats_sql == (f2.visibility > threshold)
                and refs.close(verdict.margin_sigma, (f2.visibility - threshold) / f2.visibility_sigma, 1e-12),
                f"{label}: SQL verdict {verdict}",
            )
        elif out["kind"] in ("hom", "bunching"):
            scan = out["scan"]
            g = refs.direct_kernel(self.grid, self.emission.density, scan.param)
            if out["kind"] == "hom":
                h = self.hom
                scale = h["rate"] * T_BIN_S
                want = scale * np.clip(1.0 - h["gamma"] * g, 0.0, None)
                at_zero = scale * (1.0 - h["gamma"])
                data = scan.counts.astype(float)
                base = refs.edge_baseline(data)
                value = (base - data.min()) / base
            else:
                b = self.bunching
                scale = b["rate"] * T_BIN_S
                want = scale * (1.0 + b["gamma"] * g) / 8.0
                at_zero = scale * (1.0 + b["gamma"]) / 8.0
                data = scan.counts.astype(float)
                value = data.max() / refs.edge_baseline(data)
            mid = len(scan.param) // 2
            v.require(refs.close(scan.expected, want, 0.0, 1e-9 * scale), f"{label}: expected counts")
            v.require(refs.close(scan.expected[mid], at_zero, 1e-12, 1e-12), f"{label}: zero-delay value")
            v.require(refs.poisson_total_ok(scan.counts, scan.expected), f"{label}: Poisson total")
            self._count_totals(i, scan)
            v.require(refs.close(out["value"], value, 1e-12), f"{label}: summary value {out['value']!r} vs {value!r}")
            self._check_scan_csv(v, label, scan, out["text"])
        else:
            for n, probs in out["probs"].items():
                want = refs.noon_probability(n, self.prob_phases)
                v.require(refs.close(probs, want, 0.0, 1e-12), f"{label}: N={n} Fock fringe vs closed form")


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

#: Reference values of the default configuration, as documented.
REF = {
    "grid_points": 4096,
    "grid_span_nm": 16.0,
    "length_mm": 20.0,
    "hom_gamma": 0.979,
    "hom_gamma_up": 0.9672,
    "hom_rate": 600.0,
    "bunching_gamma": 1.0,
    "bunching_rate": 2400.0,
    "fringe_vis": {1: 0.9751, 2: 0.8493},
    "fringe_rate": 600.0,
    "fringe_points": 96,
    "plate": {"thickness_m": 0.2e-3, "index": 1.5, "wavelength_m": 525.1345e-9, "tilt": (0.02, 0.25)},
    "quoted_overall": 2.0e-6,
}
DEFAULT_STAGES = (
    ("collection", 0.24),
    ("filter_transmission", 0.80),
    ("optics_transmission", 0.86),
    ("fiber_coupling_525nm", 0.60),
    ("conversion_and_overlap", 0.064),
    ("detector_efficiency", 0.50),
    ("air_gap", 0.8),
    ("interferometer", 0.51),
)
DECOMPOSED_STAGES = (
    DEFAULT_STAGES[:4] + (("internal_conversion", 0.16), ("spectral_overlap", 0.39)) + DEFAULT_STAGES[5:]
)

#: Config files the round uses, by name; None is the built-in default.
CONFIGS = {
    "plate": "[fringe]\naxis = plate\n",
    "decomposed": "[budget]\ndecompose_conversion = true\n",
    "unit": "[grid]\nunit_acceptance = true\n",
    "zero-stage": "[budget]\ncollection = 0.0\n",
    "nan-length": "[source_crystal]\nlength_mm = nan\n",
}

#: (command, config, noiseless, expect_fault) of one round.  An invocation
#: marked expect_fault fails today because of a known program fault: its
#: failure is counted, but does not make the run incorrect.
CLI_ROUND = (
    ("spectra", None, False, False),
    ("budget", None, False, False),
    ("hom", None, False, False),
    ("hom", None, True, False),
    ("bunching", None, False, False),
    ("bunching", None, True, False),
    ("fringe", None, False, False),
    ("fringe", None, True, False),
    ("fringe", "plate", False, False),
    ("budget", "decomposed", False, False),
    ("spectra", "unit", False, False),
    ("budget", "zero-stage", False, True),
    ("spectra", "nan-length", False, True),
)


@dataclass
class CliRun:
    returncode: int
    stderr: str
    files: dict


class CliCold(Workload):
    name = "cli-cold"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.config_paths = {}
        for name, text in CONFIGS.items():
            path = out_dir / f"{name}.cfg"
            path.write_text(text, encoding="utf-8")
            self.config_paths[name] = path
        round_ = list(CLI_ROUND)
        self.rng.shuffle(round_)
        self.specs = round_
        self.ops = [
            Op(f"{cmd}{' --noiseless' if quiet else ''}{f' [{cfg}]' if cfg else ''}", self._runner(i))
            for i, (cmd, cfg, quiet, _) in enumerate(round_)
        ]
        self.max_child_rss_mb = 0.0
        half = REF["grid_span_nm"] / 2.0
        self.grid = np.linspace(SIGNAL_NM - half, SIGNAL_NM + half, REF["grid_points"])
        self._densities = None

    def _runner(self, i: int):
        return lambda: self._invoke(i)

    def _invoke(self, i: int):
        command, config, noiseless, _ = self.specs[i]
        out = self.out_dir / f"op{i}"
        # No --seed: every invocation samples with the CLI's default seed, as a
        # user's does.  A seed drawn per run would make the default N=1 fringe
        # fail its 6-sigma visibility check on about 0.15 % of seeds (the
        # fit_visibility fault in CHANGES.md), so the failed share would vary.
        args = ["--out", str(out)]
        if config is not None:
            args = ["--config", str(self.config_paths[config])] + args
        if noiseless:
            args.append("--noiseless")
        args.append(command)
        if self.tracer is None:
            argv = [sys.executable, "-m", "noonsim.cli", *args]
            trace_file = None
        else:
            trace_file = self.out_dir / f"op{i}.trace.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *args]
        err_path = self.out_dir / f"op{i}.stderr"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, err_path, out, usage.ru_maxrss / 1024.0, trace_file

    def collect(self, raw):
        returncode, err_path, out, rss_mb, trace_file = raw
        self.max_child_rss_mb = max(self.max_child_rss_mb, rss_mb)
        files = {}
        if out.is_dir():
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}
            shutil.rmtree(out)
        if trace_file is not None:
            self.tracer.merge(json.loads(trace_file.read_text(encoding="utf-8")))
            trace_file.unlink()
        return CliRun(returncode, err_path.read_text(encoding="utf-8"), files)

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_mb

    # -- checks ------------------------------------------------------------

    def densities(self):
        if self._densities is None:
            disp = self.disp_ref
            em = refs.spdc_density(disp, PUMP_NM, SIGNAL_NM, self.grid, REF["length_mm"])
            ac = refs.sfg_density(disp, CONVERTER_PUMP_NM, SIGNAL_NM, self.grid, REF["length_mm"])
            fi = em * ac**2
            self._densities = (em, ac, fi / fi.max())
        return self._densities

    def check_op(self, i: int, out: CliRun, v: Verdict) -> None:
        command, config, noiseless, fault = self.specs[i]
        label = self.ops[i].label
        err_lines = out.stderr.strip().split("\n") if out.stderr.strip() else []
        clean_error = (
            out.returncode == 1
            and len(err_lines) == 1
            and err_lines[0].startswith("noonsim: error:")
            and "Traceback" not in out.stderr
        )
        if fault and clean_error:
            return
        if out.returncode != 0:
            if fault:
                v.known_fault(False)
            else:
                v.require(False, f"{label}: exit {out.returncode}: {err_lines[-1:] or ''}")
            return
        v.require(not err_lines, f"{label}: unexpected stderr {err_lines[:1]}")
        try:
            getattr(self, f"_check_{command}")(v, label, config, noiseless, out.files)
        except (KeyError, ValueError, IndexError) as exc:
            v.require(False, f"{label}: unreadable output ({type(exc).__name__}: {exc})")

    def _scan(self, v: Verdict, label: str, text: str, want: np.ndarray, noiseless: bool, scale: float):
        header, rows = refs.parse_csv(text)
        v.require(header == ["param", "expected", "counts", "sigma"], f"{label}: CSV header {header}")
        expected, counts = rows[:, 1], rows[:, 2]
        v.require(refs.close(expected, want, 1e-9, 1e-9 * scale), f"{label}: expected counts")
        if noiseless:
            v.require(np.array_equal(counts, np.rint(expected)), f"{label}: noiseless counts")
        else:
            v.require(refs.poisson_total_ok(counts, expected), f"{label}: Poisson total")
        v.require(refs.same_digits(rows[:, 3], np.sqrt(np.maximum(counts, 1.0))), f"{label}: sigma column")
        return rows[:, 0], expected, expected if noiseless else counts

    def _check_spectra(self, v, label, config, noiseless, files):
        if config == "nan-length":
            v.require(False, f"{label}: NaN crystal length accepted")
            return
        unit = config == "unit"
        em, ac, fi = self.densities()
        if unit:
            ac, fi = np.ones_like(em), em
        grid = self.grid
        step = grid[1] - grid[0]
        summary = refs.parse_summary(files["spectra_summary.txt"])
        for name, ref in (("emission", em), ("acceptance", ac), ("filtered", fi)):
            header, rows = refs.parse_csv(files[f"{name}.csv"])
            v.require(header == ["wavelength_nm", "density"], f"{label}: {name} CSV header {header}")
            v.require(refs.same_digits(rows[:, 0], grid), f"{label}: {name} grid")
            v.require(refs.close(rows[:, 1], ref, 0.0, 1e-9), f"{label}: {name} density vs sinc^2 reference")
            v.require(summary[f"{name}_clipped"] == "false", f"{label}: {name} clipped")
            width = float(summary[f"{name}_fwhm_nm"])
            if unit and name == "acceptance":
                v.require(math.isnan(width), f"{label}: unit acceptance FWHM {width}")
                continue
            peak = int(np.argmax(rows[:, 1]))
            v.require(
                rows[peak, 1] == 1.0 and abs(grid[peak] - SIGNAL_NM) <= step, f"{label}: {name} peak position"
            )
            v.require(refs.close(width, refs.half_max_width(grid, ref), 1e-6), f"{label}: {name} FWHM {width}")
        disp = self.disp_ref
        periods = (
            ("spdc_poling_period_um", refs.spdc_mismatch(disp, PUMP_NM, SIGNAL_NM)),
            ("sfg_poling_period_um", refs.sfg_mismatch(disp, CONVERTER_PUMP_NM, SIGNAL_NM)),
        )
        for key, material in periods:
            want = refs.poling_period_um(float(material))
            v.require(refs.close(float(summary[key]), want, 1e-9), f"{label}: {key} {summary[key]} vs {want!r}")

    def _check_hom(self, v, label, config, noiseless, files):
        em, _, fi = self.densities()
        scale = REF["hom_rate"] * T_BIN_S
        summary = refs.parse_summary(files["hom_summary.txt"])
        runs = (
            ("source", em, np.linspace(-6.0, 6.0, 121), REF["hom_gamma"]),
            ("upconverted", fi, np.linspace(-12.0, 12.0, 121), REF["hom_gamma_up"]),
        )
        for name, density, delays, gamma in runs:
            g = refs.direct_kernel(self.grid, density, delays)
            want = scale * np.clip(1.0 - gamma * g, 0.0, None)
            _, expected, data = self._scan(v, f"{label} {name}", files[f"hom_{name}.csv"], want, noiseless, scale)
            zero = np.abs(delays) < 1e-12
            v.require(
                np.count_nonzero(zero) == 1 and refs.close(expected[zero][0], scale * (1.0 - gamma), 1e-11),
                f"{label}: {name} zero-delay value",
            )
            base = refs.edge_baseline(data)
            value = float(summary[f"visibility_{name}"])
            v.require(refs.close(value, (base - data.min()) / base, 1e-9), f"{label}: {name} visibility {value}")

    def _check_bunching(self, v, label, config, noiseless, files):
        em, _, _ = self.densities()
        scale = REF["bunching_rate"] * T_BIN_S
        delays = np.linspace(-6.0, 6.0, 121)
        g = refs.direct_kernel(self.grid, em, delays)
        want = scale * (1.0 + REF["bunching_gamma"] * g) / 8.0
        _, expected, data = self._scan(v, label, files["bunching.csv"], want, noiseless, scale)
        zero = np.abs(delays) < 1e-12
        v.require(
            np.count_nonzero(zero) == 1
            and refs.close(expected[zero][0], scale * (1.0 + REF["bunching_gamma"]) / 8.0, 1e-11),
            f"{label}: zero-delay value",
        )
        value = float(refs.parse_summary(files["bunching_summary.txt"])["peak_to_baseline_ratio"])
        v.require(refs.close(value, data.max() / refs.edge_baseline(data), 1e-9), f"{label}: peak/baseline {value}")

    def _check_fringe(self, v, label, config, noiseless, files):
        n_points = REF["fringe_points"]
        if config == "plate":
            p = REF["plate"]
            params = np.linspace(*p["tilt"], n_points)
            phases = np.array([refs.plate_phase(t, p["thickness_m"], p["index"], p["wavelength_m"]) for t in params])
        else:
            params = phases = np.linspace(0.0, 2.0 * math.pi, n_points)
        scale = REF["fringe_rate"] * T_BIN_S
        summary = refs.parse_summary(files["fringe_summary.txt"])
        fit = {}
        for n in (1, 2):
            vis = REF["fringe_vis"][n]
            want = refs.fringe_expected(n, vis, phases, REF["fringe_rate"], T_BIN_S)
            got_params, _, _ = self._scan(v, f"{label} N={n}", files[f"fringe_n{n}.csv"], want, noiseless, scale)
            v.require(refs.same_digits(got_params, params), f"{label} N={n}: scan parameter column")
            fit[n] = {key: float(summary[f"n{n}_{key}"]) for key in ("visibility", "visibility_sigma", "frequency", "frequency_sigma")}
            # A noiseless fit sees exact data; its sigma is a residual-scaled
            # rounding level, so allow 1e-6 on top of six of them.
            slack = 1e-6 if noiseless else 0.0
            for key, truth in (("visibility", vis), ("frequency", float(n))):
                got, sigma = fit[n][key], fit[n][f"{key}_sigma"]
                v.require(abs(got - truth) <= 6.0 * sigma + slack, f"{label}: N={n} {key} {got} +/- {sigma}, truth {truth}")
        ratio = float(summary["period_ratio_n2_over_n1"])
        f1, f2 = fit[1], fit[2]
        v.require(refs.close(ratio, f2["frequency"] / f1["frequency"], 1e-5), f"{label}: period ratio {ratio}")
        ratio_sigma = ratio * math.hypot(f2["frequency_sigma"] / f2["frequency"], f1["frequency_sigma"] / f1["frequency"])
        v.require(abs(ratio - 2.0) <= 6.0 * ratio_sigma + (1e-6 if noiseless else 0.0), f"{label}: ratio {ratio}")
        threshold = 1.0 / math.sqrt(2.0)
        v.require(refs.close(float(summary["sql_threshold"]), threshold, 1e-11), f"{label}: SQL threshold")
        v.require(summary["beats_sql"] == str(f2["visibility"] > threshold).lower(), f"{label}: SQL verdict")

    def _check_budget(self, v, label, config, noiseless, files):
        stages = {None: DEFAULT_STAGES, "decomposed": DECOMPOSED_STAGES, "zero-stage": (("collection", 0.0),)}[config]
        lines = refs.parse_summary(files["budget.txt"])
        for name, eta in stages:
            v.require(refs.close(float(lines[name]), eta, 5e-6), f"{label}: stage {name} = {lines[name]}")
        single = math.prod(eta for _, eta in stages)
        pair = single**2
        quoted = REF["quoted_overall"]
        six = 5e-6  # half a unit in the sixth printed digit
        v.require(refs.close(float(lines["single_arm_product"]), single, six), f"{label}: single-arm product")
        v.require(refs.close(float(lines["pair_product"]), pair, six), f"{label}: pair product")
        v.require(refs.close(float(lines["quoted_overall"]), quoted, six), f"{label}: quoted overall")
        ratio = float(lines["quoted_over_pair_ratio"])
        if pair == 0.0:
            v.require(math.isinf(ratio) or math.isnan(ratio), f"{label}: ratio over a zero pair product {ratio}")
        else:
            v.require(refs.close(ratio, quoted / pair, six), f"{label}: quoted/pair ratio {ratio}")


WORKLOADS = {cls.name: cls for cls in (CliCold, DesignSweep, McScan)}
