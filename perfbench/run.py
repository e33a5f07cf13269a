"""Benchmark of the noonsim simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-cold,design-sweep,mc-scan}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program under test is
``src/noonsim`` of that checkout.  The run compiles bytecode, then starts
eight fresh interpreters one after another.  Each builds the workload's
inputs and warms up; the fifth then also runs the timed phase and the
checks.  The run prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see README.md).  BLAS and OpenMP are pinned to one
thread in every process the benchmark starts, and all output goes to a
temporary directory under ``.perfbench_tmp/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "design-sweep", "mc-scan")
#: Fresh interpreters that only set up, before and after the timed one; the
#: setup_s median is over all of them, so it spans the whole run rather than
#: the few seconds before timing starts.
SETUP_BEFORE, SETUP_AFTER = 4, 3
IMPORTTIME_RUNS = 3
#: A worker that has not finished by then is killed; the run must end in 180 s.
WORKER_TIMEOUT_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(src)
    return env


def start_worker(args, out: Path, env: dict, setup_only: bool, log: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and its set-up time."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=env, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, log)
        raise BenchError(f"worker did not become ready:\n{log.read_text(errors='replace')}")
    return proc, setup_s


def finish(proc: subprocess.Popen, log: Path) -> str:
    """Wait for a worker to end and return the rest of its standard output."""
    try:
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{log.read_text(errors='replace')}")
    return rest


def import_breakdown(env: dict) -> dict[str, tuple[float, str]]:
    """Median over fresh interpreters of ``-X importtime`` totals per package."""
    samples = {key: [] for key in ("total", "numpy", "scipy", "noonsim")}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import noonsim"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        selfs = {key: 0.0 for key in samples}
        total = None
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            module = name.strip()
            package = module.split(".")[0]
            if package in selfs:
                selfs[package] += float(self_us) * 1e-6
            if module == "noonsim":
                total = float(cumulative_us) * 1e-6
        if total is None:
            raise BenchError("-X importtime did not report noonsim")
        selfs["total"] = total
        for key in samples:
            samples[key].append(selfs[key])
    return {f"import.{key}_s": (statistics.median(values), "s") for key, values in samples.items()}


def run(args) -> dict:
    root = Path.cwd()
    src = root / "src"
    if not (src / "noonsim" / "__init__.py").is_file():
        raise BenchError(f"no src/noonsim in {root}; run from the root of a noonsim checkout")
    env = child_env(src)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src / "noonsim"), str(HERE)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root))
    try:
        setup_times = []
        for i in range(SETUP_BEFORE + 1 + SETUP_AFTER):
            timed = i == SETUP_BEFORE
            log = work / f"worker{i}.log"
            proc, setup_s = start_worker(args, work / f"w{i}", env, setup_only=not timed, log=log)
            setup_times.append(setup_s)
            rest = finish(proc, log)
            if timed:
                result = json.loads(rest.strip().splitlines()[-1])
        if args.trace:
            metrics = dict(result["per_layer"])
            metrics.update(import_breakdown(env))
        else:
            metrics = dict(result["end_to_end"])
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        return {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "problems": result["problems"],
            "ops": result.get("ops"),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={out['ops']} "
          f"attempted={out['attempted']} failed={out['failed']} correct={out['correct']}")
    for name, (value, unit) in sorted(out["metrics"].items()):
        print(f"{name:40s} {value:14.6g} {unit}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
