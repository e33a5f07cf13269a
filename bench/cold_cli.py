"""Side-by-side benchmark of cold ``noonsim`` commands: a base revision against the working tree.

Run from the root of a checkout, naming the revision to compare against
(the parent commit of the change in the working tree):

    python3 bench/cold_cli.py --base HEAD --out BENCH_33.json

The base revision is extracted with ``git archive`` into a temporary
directory.  Both trees' ``src/noonsim`` are byte-compiled first
(``python -m compileall -q``): with ``PYTHONDONTWRITEBYTECODE`` set, an
uncompiled tree would recompile its modules in every fresh process.  Each
round then starts one fresh ``python -m noonsim.cli`` process per tree for
every invocation in ``INVOCATIONS`` (the five commands, sampled and
``--noiseless``, and a config that fails), alternating from round to round
which tree goes first.  The JSON records, per invocation, medians and
quartiles of the wall time in ms, the rounds the working tree won, and
whether both trees ended with the same exit code, the same stderr and the
same output bytes in every round.  It also records ``perfbench``: pairs of
``perfbench/run.py`` runs of the two trees, as ``bench/csv_writer.py``
runs them, for ``cli-cold`` and for the workloads named by ``--workloads``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from csv_writer import perfbench_pairs, perfbench_summary

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("spectra", "hom", "bunching", "fringe", "budget")
#: Invocation name -> noonsim arguments.  Each process runs in a scratch directory holding ``nan-length.cfg``.
INVOCATIONS = {
    **{command: [command] for command in COMMANDS},
    **{f"{command} --noiseless": ["--noiseless", command] for command in COMMANDS},
    "spectra nan-length": ["--config", "nan-length.cfg", "spectra"],
}


def cold_run(tree: Path, args: list[str], out: Path) -> tuple[float, tuple]:
    """Wall time in ms of one fresh ``python -m noonsim.cli`` process of ``tree``, and what it left behind."""
    argv = [sys.executable, "-m", "noonsim.cli", "--out", str(out), *args]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=out.parent, env=env, capture_output=True)
    elapsed = (time.perf_counter() - start) * 1e3
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    shutil.rmtree(out, ignore_errors=True)
    return elapsed, (proc.returncode, proc.stderr, files)


def cold_rounds(trees: dict[str, Path], rounds: int) -> dict:
    times = {name: {side: [] for side in trees} for name in INVOCATIONS}
    same = dict.fromkeys(INVOCATIONS, True)
    with tempfile.TemporaryDirectory(prefix="noonsim-cold-") as tmp:
        (Path(tmp) / "nan-length.cfg").write_text("[source_crystal]\nlength_mm = nan\n")
        for r in range(rounds):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for name, args in INVOCATIONS.items():
                ends = {}
                for side in order:
                    elapsed, ends[side] = cold_run(trees[side], args, Path(tmp) / "out")
                    times[name][side].append(elapsed)
                same[name] &= ends["base"] == ends["change"]
            print("round", r + 1, {name: round(t["change"][-1] - t["base"][-1], 1) for name, t in times.items()},
                  file=sys.stderr)
    result = {}
    for name, sides in times.items():
        entry = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry[side] = {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2)}
        won = sum(after < before for before, after in zip(sides["base"], sides["change"]))
        entry["change_minus_base_ms"] = round(entry["change"]["median_ms"] - entry["base"]["median_ms"], 2)
        entry["rounds_won_by_change"] = f"{won} of {rounds}"
        entry["same_exit_stderr_and_bytes"] = same[name]
        result[name] = entry
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--rounds", type=int, default=12, help="fresh-process rounds")
    parser.add_argument("--cold-pairs", type=int, default=10, help="perfbench pairs for cli-cold")
    parser.add_argument("--workloads", default="design-sweep,mc-scan", help="comma-separated; empty for none")
    parser.add_argument("--pairs", type=int, default=3, help="perfbench pairs per --workloads workload")
    parser.add_argument("--seconds", type=int, default=10, help="perfbench run length")
    parser.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    args = parser.parse_args()

    revision = subprocess.run(
        ["git", "rev-parse", "--short", args.base], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="noonsim-base-") as base_tree:
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        trees = {"base": Path(base_tree), "change": ROOT}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src" / "noonsim")], check=True)
        cold = cold_rounds(trees, args.rounds)
    result = {
        "what": f"fresh `python -m noonsim.cli` processes at {args.base} = {revision} ('base') and in the working "
        "tree ('change')",
        "hardware": f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}",
        "how": f"cold: wall time of each process over {args.rounds} rounds, both trees byte-compiled first, "
        "alternating which tree runs first; perfbench: pairs of "
        f"{args.seconds} s runs, seed = pair number, alternating which side runs first",
        "cold": cold,
    }
    workloads = [w for w in args.workloads.split(",") if w]
    runs = perfbench_pairs(args.base, ["cli-cold"], args.cold_pairs, args.seconds) if args.cold_pairs else {}
    if workloads and args.pairs:
        runs |= perfbench_pairs(args.base, workloads, args.pairs, args.seconds)
    if runs:
        result["perfbench"] = runs
        result["perfbench_summary"] = perfbench_summary(runs)
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
