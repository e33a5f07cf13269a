"""Steadiness check: two sets of benchmark runs of one commit, compared.

    python3 perfbench/steadiness.py

Run from the root of a checkout.  Set A runs every workload of
BENCHMARK.json once for each of seeds 1-10, set B for each of seeds 11-20,
at the file's ``run_seconds``; workloads are interleaved so that slow drift
of the machine spreads over all of them.  For every workload and end-to-end
metric it prints, per set, the median and the spread (distance between the
first and third quartile, as a share of the median), and how much set B's
median is worse than set A's.  A metric passes when each set's spread is
within its bound in BENCHMARK.json and B is not worse than A by more than
the bound.  The share of failed operations must be the same in every run.
The exit code is 0 when everything passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
SETS = {"A": range(1, RUNS + 1), "B": range(RUNS + 1, 2 * RUNS + 1)}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much ``second`` is worse than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(bench: dict, results: dict) -> bool:
    """Print the comparison tables; True when every check passes."""
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {s: results[(workload, s)] for s in SETS}
        shares = {r["failed"] / r["attempted"] for s in SETS for r in runs[s]}
        correct = all(r["correct"] for s in SETS for r in runs[s])
        ok &= len(shares) == 1 and correct
        print(f"\n### {workload}\n")
        print(f"failed share per run: {sorted(shares)}; correct in every run: {correct}\n")
        print("| metric | bound | A median | A spread | B median | B spread | B worse by | pass |")
        print("|---|---|---|---|---|---|---|---|")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = f"| {name} | {bound:.2f} |"
            passed = True
            medians = []
            for s in SETS:
                values = [r["metrics"][name]["value"] for r in runs[s]]
                medians.append(statistics.median(values))
                sp = spread(values)
                passed &= sp <= bound
                cells += f" {medians[-1]:.6g} | {sp:.3f} |"
            worse = worse_by(medians[0], medians[1], metric["better"])
            passed &= worse <= bound
            ok &= passed
            print(cells + f" {worse:+.3f} | {'yes' if passed else 'NO'} |")
    return ok


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    results: dict[tuple[str, str], list[dict]] = {}
    for label, seeds in SETS.items():
        for seed in seeds:
            for workload in (w["name"] for w in bench["workloads"]):
                result = one_run(workload, seed, bench["run_seconds"])
                results.setdefault((workload, label), []).append(result)
                print(f"set {label} seed {seed} {workload}: failed {result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
