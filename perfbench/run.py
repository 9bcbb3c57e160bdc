"""qbracelet end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qbracelet is imported from ``src``.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones:

* ``setup_s``: median, over fresh interpreters, of the time to
  ``import qbracelet`` and build ``default_catalog()``;
* ``wall_s``: median wall time of one workload iteration, after one untimed
  warm-up iteration, in a fresh process that runs only that workload;
* ``peak_rss_mb``: that process's peak resident memory after its first
  (warm-up) iteration.

The share of failed operations (``failed / attempted``) is the error rate.
With ``--trace 1`` the metrics are the per-layer ones of ``tracing.py``,
measured with the tracer installed, plus the tracing overhead.  The line
before the result holds the environment stamp, the generated inputs (to
replay the run), the iteration times and, when traced, the per-build and
kernel-bucket tables; the traced spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify_all", "search_mod2", "coeffs_exact", "product_mix")
SETUP_PROBES = 8  # before the worker, and as many again after it
DEADLINE_S = 170.0

# Time to import the package and build the claim catalog in this interpreter;
# prints the seconds and the path qbracelet was imported from.
_SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import qbracelet
qbracelet.default_catalog()
t1 = time.perf_counter()
print(repr(t1 - t0), qbracelet.__file__)
"""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _setup_seconds(deadline: float, probes: int) -> list[float]:
    """Import-and-catalog times of ``probes`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(probes):
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{probe.stderr}")
        seconds, path = probe.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != SRC / "qbracelet":
            raise RuntimeError(f"setup probe imported qbracelet from {path.strip()}")
        times.append(float(seconds))
    return times


def _numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if "QBRACELET_ORDER_CAP" in os.environ:
        return _fail("QBRACELET_ORDER_CAP is set; it would resize every workload")
    if not (SRC / "qbracelet" / "__init__.py").is_file():
        return _fail(f"no qbracelet sources under {SRC}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    try:
        setup = []
        if not args.trace:
            _setup_seconds(deadline, 1)  # untimed: it writes the bytecode cache
            setup += _setup_seconds(deadline, SETUP_PROBES)
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if not args.trace and worker.returncode == 0:
            # probes on both sides of the worker average out slow machine phases
            setup += _setup_seconds(deadline, SETUP_PROBES)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    if worker.returncode != 0 or not worker.stdout.strip():
        return _fail(f"worker exited with {worker.returncode}:\n{worker.stderr}")
    run = json.loads(worker.stdout.strip().splitlines()[-1])

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            **run["env"],
            "numpy_importable": _numpy_importable(),
            "QBRACELET_BACKEND": os.environ.get("QBRACELET_BACKEND"),
        },
        "inputs": run["inputs"],
        "warmup_s": run["warmup_s"],
        "times": run["times"],
        "error_rate": run["failed"] / run["attempted"],
        "messages": run["messages"],
    }
    if args.trace:
        spans = run.pop("spans")
        detail.update(
            traced_times=run["traced_times"],
            unbound=run["unbound"],
            builds=run["builds"],
            kernel_buckets=run["kernel_buckets"],
        )
        OUT.mkdir(exist_ok=True)
        out_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        out_file.write_text(json.dumps({**detail, "spans": spans}))
        detail["spans_file"] = str(out_file.relative_to(ROOT))
        metrics = {
            name: {"value": run["layers"][name], "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
    else:
        detail["setup_probes_s"] = setup
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(run["times"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run["failed"] == 0 and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
