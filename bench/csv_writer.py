"""Side-by-side benchmark of the CSV writer: a base revision against the working tree.

Run from the root of a checkout, naming the revision to compare against
(the parent commit of the change in the working tree):

    python3 bench/csv_writer.py --base HEAD --out BENCH_20.json

The base revision's ``src/noonsim/spectral.py`` is read with ``git show``
and loaded next to the working tree's, so both writers run in one process
on the same tables: fringe scans as ``ScanResult.to_csv`` lays them out
and emission/filtered spectra of the default config on grids of several
sizes.  Each round times both writers, alternating which goes first; the
JSON records medians and quartiles in ms per call and whether the two
outputs are the same bytes.  It also records

- ``crossover``: the working tree's writer forced onto the single ``%``
  operation and onto the array path, on short tables;
- ``block_cells``: the working tree's writer at several block budgets,
  time and ``tracemalloc`` scratch (peak minus twice the output's length);
- ``scratch``: that scratch for both writers on every table;
- ``perfbench``: pairs of ``perfbench/run.py`` runs of the base tree
  (extracted with ``git archive``) and the working tree, alternating which
  runs first, for each workload named by ``--workloads``.
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
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import noonsim as ns  # noqa: E402
from noonsim import cli  # noqa: E402
from noonsim import spectral as change  # noqa: E402

SCAN_ROWS = (192, 500, 1000, 2000, 4096, 16384, 65536)
SPECTRUM_ROWS = (1024, 2048, 4096, 8192, 16384)
CROSSOVER_ROWS = (128, 192, 256, 320, 384, 448, 512, 640, 768, 1024, 1536, 2048)
BLOCK_CELLS = (2048, 4096, 8192, 16384)
BLOCK_TABLES = ("scan 2000", "scan 4096", "scan 16384", "spectrum 4096", "spectrum 16384")


def load_base(rev: str):
    """The base revision's spectral module, loaded under its own name."""
    source = subprocess.run(
        ["git", "show", f"{rev}:src/noonsim/spectral.py"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout
    spec = importlib.util.spec_from_loader("base_spectral", loader=None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(source, f"{rev}:src/noonsim/spectral.py", "exec"), module.__dict__)
    return module


def scan_table(rows: int) -> tuple:
    """The columns of a sampled N = 2 fringe over 0-4pi at 120 counts a point, as ``ScanResult.to_csv`` writes."""
    scan = ns.noon_fringe(2, 0.8493, np.linspace(0.0, 4.0 * np.pi, rows), 120.0, 1.0, 7)
    sigma = np.sqrt(np.maximum(scan.counts, 1.0))
    return ("param,expected,counts,sigma", scan.param, scan.expected, scan.counts, sigma)


def spectrum_tables(rows: int) -> dict[str, tuple]:
    """The emission and filtered spectra of the default config on a grid of ``rows`` points."""
    emission, _, filtered, _, _ = cli._spectra(dataclasses.replace(cli.RunConfig(), grid_points=rows))
    return {
        f"spectrum {rows}": ("wavelength_nm,density", emission.wavelength_nm, emission.density),
        f"filtered {rows}": ("wavelength_nm,density", filtered.wavelength_nm, filtered.density),
    }


def per_call_ms(write, table, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        write(*table)
    return (time.perf_counter() - start) / calls * 1e3


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def interleaved(writers: dict, table: tuple, rounds: int) -> dict:
    """Median and quartiles per writer, each round timing every writer, in a rotating order."""
    calls = max(1, 40000 // len(table[1]))
    times = {name: [] for name in writers}
    names = list(writers)
    for r in range(rounds):
        for name in names[r % len(names) :] + names[: r % len(names)]:
            times[name].append(per_call_ms(writers[name], table, calls))
    return {name: summary(t) for name, t in times.items()}


def scratch_mib(write, table) -> float:
    """tracemalloc peak of one call minus twice the output's length (the blocks and their join), MiB."""
    tracemalloc.start()
    text = write(*table)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round((peak - 2 * len(text)) / 2**20, 3)


def with_setting(name: str, value: int):
    """The working tree's writer with module constant ``name`` set to ``value`` for the call."""

    def write(*table):
        saved = getattr(change, name)
        setattr(change, name, value)
        try:
            return change._write_csv(*table)
        finally:
            setattr(change, name, saved)

    return write


def perfbench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
        + ["--trace", "0"],
        cwd=tree,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    metrics = {name: round(m["value"], 6) for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "failed": result["failed"], **metrics}


def perfbench_pairs(rev: str, workloads: list[str], pairs: int, seconds: int) -> dict:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as base_tree:
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        trees = {"base": Path(base_tree), "change": ROOT}
        runs = {workload: [] for workload in workloads}
        for pair in range(pairs):
            for workload in workloads:
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                results = {side: perfbench(trees[side], workload, pair + 1, seconds) for side in order}
                runs[workload].append({"seed": pair + 1, **results})
                print(workload, pair + 1, results, file=sys.stderr)
    return runs


def perfbench_summary(runs: dict) -> dict:
    """Per workload and metric: both sides' medians, the base's quartile spread, and pairs the change won."""
    summary = {}
    for workload, pairs in runs.items():
        summary[workload] = {}
        for metric in ("ops_per_s", "op_p50_s", "op_p90_s", "setup_s", "peak_rss_mb"):
            before, after = ([pair[side][metric] for pair in pairs] for side in ("base", "change"))
            higher = metric == "ops_per_s"
            won = sum((a > b) if higher else (a < b) for b, a in zip(before, after))
            q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
            summary[workload][metric] = {
                "base_median": round(statistics.median(before), 6),
                "change_median": round(statistics.median(after), 6),
                "base_iqr": round(q3 - q1, 6),
                "change_better_pairs": f"{won} of {len(pairs)}",
            }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision whose writer is compared (default HEAD)")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--workloads", default="mc-scan,design-sweep", help="comma-separated; empty for none")
    parser.add_argument("--pairs", type=int, default=4, help="perfbench pairs per workload")
    parser.add_argument("--seconds", type=int, default=30, help="perfbench run length")
    parser.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    args = parser.parse_args()

    base = load_base(args.base)
    revision = subprocess.run(
        ["git", "rev-parse", "--short", args.base], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    tables = {f"scan {rows}": scan_table(rows) for rows in SCAN_ROWS}
    for rows in SPECTRUM_ROWS:
        tables.update(spectrum_tables(rows))
    writers = {"base": base._write_csv, "change": change._write_csv}
    result = {
        "what": f"_write_csv at {args.base} = {revision} ('base') and in the working tree ('change')",
        "hardware": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}",
        "how": f"per_table, crossover and block_cells: medians and quartiles of ms per call over {args.rounds} "
        "rounds, each timing every writer in a rotating order; scratch: tracemalloc peak of one call minus "
        f"twice the output's length, MiB; perfbench: {args.pairs} pairs of {args.seconds} s runs per workload, "
        "seed = pair number, alternating which side runs first",
        "per_table": {},
        "crossover": {},
        "block_cells": {},
        "scratch": {},
    }
    for name, table in tables.items():
        timing = interleaved(writers, table, args.rounds)
        timing["change_over_base"] = round(timing["change"]["median_ms"] / timing["base"]["median_ms"], 3)
        timing["bytes_identical"] = base._write_csv(*table) == change._write_csv(*table)
        result["per_table"][name] = timing
        result["scratch"][name] = {side: scratch_mib(write, table) for side, write in writers.items()}
        print(name, timing, file=sys.stderr)
    for rows in CROSSOVER_ROWS:
        for name, table in {f"scan {rows}": scan_table(rows), **spectrum_tables(rows)}.items():
            paths = {"percent": with_setting("_ARRAY_CSV_ROWS", 10**18), "array": with_setting("_ARRAY_CSV_ROWS", 0)}
            timing = interleaved(paths, table, args.rounds)
            timing["array_over_percent"] = round(timing["array"]["median_ms"] / timing["percent"]["median_ms"], 3)
            result["crossover"][name] = timing
            print(name, timing, file=sys.stderr)
    for name in BLOCK_TABLES:
        budgets = {str(cells): with_setting("_CSV_BLOCK_CELLS", cells) for cells in BLOCK_CELLS}
        timing = interleaved(budgets, tables[name], args.rounds)
        result["block_cells"][name] = {
            cells: {**timing[cells], "scratch_mib": scratch_mib(budgets[cells], tables[name])} for cells in budgets
        }
        print(name, result["block_cells"][name], file=sys.stderr)
    workloads = [w for w in args.workloads.split(",") if w]
    if workloads and args.pairs:
        result["perfbench"] = perfbench_pairs(args.base, workloads, args.pairs, args.seconds)
        result["perfbench_summary"] = perfbench_summary(result["perfbench"])
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
