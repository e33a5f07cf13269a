"""One fresh interpreter of a benchmark run: set up, time, check.

Started by ``run.py``, never by hand.  Prints ``ready`` once the workload's
inputs are built and warmed up, then (unless ``--setup-only``) runs the
timed phase and prints one JSON line.  Each op of the first round is
checked right after its timed call and only its verdict and digest are
kept, so the peak RSS read at the end is the program's own.

With ``--trace 1`` the timed phase is split: the first half runs untraced,
the second with the layer wrappers installed, and the ratio of their
throughputs is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, per_op_metrics


class Phase:
    """Op durations, first-round verdicts and rerun digests of one timed phase."""

    def __init__(self):
        self.durations: list[float] = []
        self.verdicts: list[workloads.Verdict] = []
        self.digests: list[bytes] = []
        self.rerun_mismatches: list[int] = []
        self.rounds = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)


def timed_phase(wl: workloads.Workload, seconds: float) -> Phase:
    """Repeat whole rounds, stopping at the round boundary nearest ``seconds``."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # a program fault: counted, checked, reported
                raw = exc
            phase.durations.append(time.perf_counter() - t0)
            out = raw if isinstance(raw, Exception) else wl.collect(raw)
            digest = workloads.fingerprint(out)
            if phase.rounds == 0:
                with wl.tracer.paused() if wl.tracer else contextlib.nullcontext():
                    phase.verdicts.append(wl.check(i, out))
                phase.digests.append(digest)
                phase.rerun_mismatches.append(0)
            elif digest != phase.digests[i]:
                phase.rerun_mismatches[i] += 1
            del raw, out
        if phase.rounds == 0:
            wl.check_round(phase.verdicts)
        phase.rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return phase


def tally(wl: workloads.Workload, phases: list[Phase]) -> tuple[int, int, list[str], bool]:
    """attempted, failed, problems, correct over every phase."""
    attempted = failed = 0
    problems: list[str] = []
    for phase in phases:
        for i, verdict in enumerate(phase.verdicts):
            attempted += phase.rounds
            if verdict.failed:
                failed += phase.rounds
                problems += verdict.problems
            elif phase.rerun_mismatches[i]:
                failed += phase.rerun_mismatches[i]
                problems.append(f"{wl.ops[i].label}: rerun output differs from the first round")
    return attempted, failed, problems, not problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.out))
    try:
        wl.warm_up()
    except Exception:  # the same op fails again when timed, and is reported then
        traceback.print_exc()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: dict = {}
    if args.trace:
        plain = timed_phase(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        traced = timed_phase(wl, args.seconds / 2)
        phases = [plain, traced]
        ops = len(traced.durations)
        layer = per_op_metrics(tracer, ops, sum(traced.durations))
        overhead = 100.0 * (1.0 - traced.ops_per_s / plain.ops_per_s)
        layer["trace.overhead_pct"] = (overhead, "%")
        layer["trace.ops"] = (float(ops), "count")
        result["per_layer"] = layer
        result["ops"] = len(plain.durations) + ops
    else:
        phase = timed_phase(wl, args.seconds)
        phases = [phase]
        durations = phase.durations
        result["end_to_end"] = {
            "ops_per_s": (phase.ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "op_p90_s": (statistics.quantiles(durations, n=10)[-1], "s"),
        }
        result["ops"] = len(durations)
    result["peak_rss_mb"] = wl.peak_rss_mb()
    attempted, failed, problems, correct = tally(wl, phases)
    result.update(attempted=attempted, failed=failed, problems=problems[:20], correct=correct)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
