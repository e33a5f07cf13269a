"""Layer timing for the traced benchmark mode.

A :class:`Tracer` replaces public functions of the simulator with timing
wrappers in every namespace that holds them (the package, each module that
imports the name, and class attributes for methods), so a call is timed
whatever name its caller uses.  Spans nest: a span's self time is its
duration minus the spans that ran inside it, and each layer's self time is
summed so the layers' shares of an operation add up without double counting.

Only the standard library is imported here, so that the traced CLI child
pays no import cost before it imports ``noonsim``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# (module, qualified name, layer, metric or None).  The metric collects the
# inclusive time of the call, or its self time for a ``*_self_s`` metric;
# None still books self time to the layer.
TARGETS = (
    ("spectral", "solve_poling_period", "spectral", "spectral.poling_solve_s"),
    ("spectral", "emission_spectrum", "spectral", "spectral.spectrum_s"),
    ("spectral", "acceptance_spectrum", "spectral", "spectral.spectrum_s"),
    ("spectral", "filtered_spectrum", "spectral", "spectral.spectrum_s"),
    ("spectral", "fwhm", "spectral", "spectral.fwhm_s"),
    ("spectral", "overlap_kernel", "spectral", "spectral.kernel_s"),
    ("spectral", "Spectrum.to_csv", "spectral", "spectral.csv_write_s"),
    ("spectral", "Spectrum.from_csv", "spectral", "spectral.csv_read_s"),
    ("spectral", "load_sellmeier", "spectral", None),
    ("experiments", "poisson_counts", "experiments", "experiments.poisson_s"),
    ("experiments", "fit_visibility", "experiments", "experiments.fit_s"),
    ("experiments", "ScanResult.to_csv", "experiments", "experiments.scan_csv_s"),
    ("experiments", "ScanResult.from_csv", "experiments", None),
    ("experiments", "hom_scan", "experiments", None),
    ("experiments", "bunching_scan", "experiments", None),
    ("experiments", "noon_fringe", "experiments", None),
    ("experiments", "noon_fringe_probabilities", "experiments", None),
    ("experiments", "dip_visibility", "experiments", None),
    ("experiments", "peak_to_baseline_ratio", "experiments", None),
    ("experiments", "sql_verdict", "experiments", None),
    ("experiments", "efficiency_budget", "experiments", None),
    ("elements", "apply_circuit", "fock_elements", "elements.apply_circuit_s"),
    ("cli", "load_config", "cli", "cli.load_config_s"),
    ("cli", "main", "cli", "cli.main_self_s"),
)

LAYERS = ("import", "cli", "spectral", "experiments", "fock_elements")

#: Per-op metrics the traced mode reports: the timed ones named in TARGETS,
#: and counts with their units.
PER_OP_TIMES = sorted({metric for *_, metric in TARGETS if metric})
PER_OP_COUNTS = (
    ("spectral.poling_solves", "count"),
    ("spectral.kernel_cells", "count"),
    ("spectral.kernel_bytes_computed", "B"),
    ("spectral.csv_bytes", "B"),
    ("experiments.poisson_points", "count"),
    ("experiments.fits", "count"),
    ("fock.mixer_calls", "count"),
)


class Tracer:
    """Span stack plus per-metric and per-layer accumulators."""

    def __init__(self):
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.layer_self: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._solving = 0
        self._paused = False

    # -- spans -------------------------------------------------------------

    def _timed(self, fn, layer: str, metric: str | None, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_time = dt - self._children.pop()
                self.layer_self[layer] += self_time
                if self._children:
                    self._children[-1] += dt
                if metric is not None:
                    self.times[metric] += self_time if metric.endswith("_self_s") else dt
            if count is not None:
                count(args, result)
            return result

        return wrapper

    def add_layer_time(self, layer: str, seconds: float) -> None:
        self.layer_self[layer] += seconds

    @contextlib.contextmanager
    def paused(self):
        """Neither time nor count calls made inside the block (the checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in each namespace that refers to it."""
        import noonsim
        from noonsim import cli, elements, experiments, fock, spectral

        modules = {"spectral": spectral, "experiments": experiments, "elements": elements, "cli": cli}
        namespaces = (noonsim, spectral, experiments, elements, fock, cli)
        counters = {
            "overlap_kernel": self._count_kernel,
            "poisson_counts": self._count_poisson,
            "fit_visibility": lambda args, result: self._add("experiments.fits", 1),
            "Spectrum.to_csv": lambda args, result: self._add("spectral.csv_bytes", len(result)),
        }
        replacements = {}
        for module_name, qualname, layer, metric in TARGETS:
            owner = modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._timed(raw.__func__, layer, metric, counters.get(qualname)))
                else:
                    wrapped = self._timed(raw, layer, metric, counters.get(qualname))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, qualname)
            if qualname == "solve_poling_period":
                wrapped = self._solve_wrapper(original, layer, metric)
            else:
                wrapped = self._timed(original, layer, metric, counters.get(qualname))
            replacements[id(original)] = wrapped
        # Count-only wrappers: these run too often or too briefly to time.
        replacements[id(spectral.phase_mismatch)] = self._counting(spectral.phase_mismatch, self._count_mismatch)
        replacements[id(fock.apply_two_mode_mixer)] = self._counting(
            fock.apply_two_mode_mixer, lambda: self._add("fock.mixer_calls", 1)
        )
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if callable(value) and id(value) in replacements:
                    setattr(ns, name, replacements[id(value)])

    def _solve_wrapper(self, fn, layer, metric):
        timed = self._timed(fn, layer, metric, self._count_solve)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._solving += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._solving -= 1

        return wrapper

    def _counting(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._paused:
                count()
            return fn(*args, **kwargs)

        return wrapper

    # -- counters ----------------------------------------------------------

    def _add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def _count_solve(self, args, result) -> None:
        self._add("spectral.poling_solves", 1)

    def _count_mismatch(self) -> None:
        if self._solving:
            self._add("spectral.mismatch_evals", 1)

    def _count_kernel(self, args, result) -> None:
        spectrum, delays = args[0], args[1]
        points = len(spectrum.wavelength_nm)
        rows = len(result) + 1  # the zero-delay normalisation row
        self._add("spectral.kernel_cells", len(result) * points)
        # The dense cosine formulation materialises the phase matrix and its
        # cosine, rows x points float64 each.
        self._add("spectral.kernel_bytes_computed", 2 * 8 * rows * points)

    def _count_poisson(self, args, result) -> None:
        self._add("experiments.poisson_points", len(result))

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"times": dict(self.times), "counts": dict(self.counts), "layers": dict(self.layer_self)}

    def merge(self, snap: dict) -> None:
        for key, value in snap["times"].items():
            self.times[key] += value
        for key, value in snap["counts"].items():
            self.counts[key] += value
        for key, value in snap["layers"].items():
            self.layer_self[key] += value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def per_op_metrics(tracer: Tracer, ops: int, op_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics plus each layer's share of op time, in percent."""
    out: dict[str, tuple[float, str]] = {}
    for name in PER_OP_TIMES:
        out[name] = (tracer.times.get(name, 0.0) / ops, "s")
    for name, unit in PER_OP_COUNTS:
        out[name] = (tracer.counts.get(name, 0.0) / ops, unit)
    solves = tracer.counts.get("spectral.poling_solves", 0.0)
    evals = tracer.counts.get("spectral.mismatch_evals", 0.0)
    out["spectral.mismatch_evals_per_solve"] = (evals / solves if solves else 0.0, "count")
    attributed = 0.0
    for layer in LAYERS:
        seconds = tracer.layer_self.get(layer, 0.0)
        attributed += seconds
        out[f"share.{layer}"] = (100.0 * seconds / op_seconds, "%")
    out["share.other"] = (100.0 * (op_seconds - attributed) / op_seconds, "%")
    return out
