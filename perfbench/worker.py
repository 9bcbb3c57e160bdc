"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; imports qbracelet from the checkout's ``src`` and prints
one JSON object on its last stdout line.  Untraced, it times iterations for
the given number of seconds after one warm-up iteration, and reports the
process's peak resident memory as it stood after the warm-up.  Traced, it spends
half the time untraced and half with the tracer installed, so the difference
of the two medians is the tracing overhead.  Every iteration's output is
checked, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_ITERATIONS = 3
MAX_MESSAGES = 10


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: MAX_MESSAGES - len(self.messages)])


def _iteration(workload, tally: Tally) -> float:
    gc.collect()
    start = time.perf_counter()
    try:
        output = workload.run()
    except Exception as exc:  # a crashed iteration fails all its operations
        elapsed = time.perf_counter() - start
        tally.add(workload.ops_per_iteration, workload.ops_per_iteration,
                  [f"{type(exc).__name__}: {exc}"])
        return elapsed
    elapsed = time.perf_counter() - start
    tally.add(*workload.check(output))
    return elapsed


def _timed(workload, tally: Tally, seconds: float, on_iteration=None) -> list[float]:
    """Iteration times until the next iteration would overrun ``seconds``."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < MIN_ITERATIONS or (
        time.perf_counter() - start + statistics.median(times) <= seconds
    ):
        times.append(_iteration(workload, tally))
        if on_iteration is not None:
            on_iteration()
    return times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import qbracelet

    if Path(qbracelet.__file__).resolve().parent != SRC / "qbracelet":
        print(f"qbracelet imported from {qbracelet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import qbracelet.cli  # noqa: F401  (the tracer rebinds its commands)

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.prepare()
    tally = Tally()
    warmup_s = _iteration(workload, tally)
    # read here: the high-water mark of later iterations grows with their
    # number through heap fragmentation, and so with the machine's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "env": {
            "backend": qbracelet.BACKEND,
            "have_speedups": qbracelet.HAVE_SPEEDUPS,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "inputs": workload.inputs,
        "warmup_s": warmup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if not args.trace:
        result["times"] = _timed(workload, tally, args.seconds)
    else:
        result["times"] = _timed(workload, tally, args.seconds / 2)
        tracer = tracing.Tracer()
        marks = [0]
        normalize_counts = []

        def mark() -> None:
            marks.append(len(tracer.spans))
            normalize_counts.append(tracer.normalize_calls - sum(normalize_counts))

        tracer.install()
        try:
            traced = _timed(workload, tally, args.seconds / 2, on_iteration=mark)
        finally:
            tracer.uninstall()
        per_iteration = [
            tracer.layer_metrics(lo, hi, calls)
            for lo, hi, calls in zip(marks, marks[1:], normalize_counts)
        ]
        layers = {
            name: statistics.median(m[name] for m in per_iteration)
            for name in per_iteration[0]
        }
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(result["times"])
        lo, hi = marks[-2], marks[-1]
        result.update(
            traced_times=traced,
            layers=layers,
            unbound=tracer.unbound,
            builds=tracer.build_table(lo, hi),
            kernel_buckets=tracer.kernel_buckets(lo, hi, qbracelet.BACKEND),
            spans=tracer.span_dump(lo, hi),
        )
    result.update(attempted=tally.attempted, failed=tally.failed, messages=tally.messages)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
