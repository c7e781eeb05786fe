"""Time-to-verdict benchmark for candofsm, standard library only.

    python3 perfbench/run.py --workload verify|oracle|front --seed N \\
        --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` next
to this directory.  Each workload runs in this one single-threaded process.
Passes repeat for ``--seconds`` seconds, each timed from its start to its
verdict; every pass's outputs are checked against known answers after its
timer stops.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass),
``setup_s`` (median of several fresh interpreters, each timing
``import candofsm`` + ``load_spec`` + ``generate_model``) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (medians over traced passes), ``fail_ratio``
and the tracing overhead, and writes the spans under ``perfbench/out/``.
Times are in reference seconds; see ``hostprobe``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A human summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostprobe import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 7

# Runs in a fresh interpreter; argv[1] is this directory, argv[2] the
# source directory.  Prints the set-up time in reference seconds.
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
from hostprobe import HostProbe
with HostProbe() as probe:
    start = time.perf_counter()
    import candofsm
    spec = candofsm.load_spec(candofsm.bundled_spec_path())
    candofsm.generate_model(spec)
    seconds = time.perf_counter() - start
print(probe.reference_seconds(seconds))
"""


def measure_setup() -> float:
    """Median set-up reference seconds of ``SETUP_RUNS`` fresh interpreters,
    after one warm-up that leaves the byte-code caches written."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(HERE), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def timed_pass(workload, tracer=None) -> tuple[float, int, int]:
    """One pass: returns (reference seconds, verdicts attempted, verdicts
    failed).  A traced pass's per-layer times are scaled alike."""
    gc.collect()
    with tracer.traced_pass() if tracer else contextlib.nullcontext(), \
            HostProbe() as probe:
        start = time.perf_counter()
        outputs = workload.run()
        seconds = time.perf_counter() - start
    if tracer:
        tracer.scale_last(probe.factor())
    attempted, failed = workload.check(outputs)
    return probe.reference_seconds(seconds), attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "oracle", "front"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "candofsm" / "__init__.py").is_file():
        print(f"perfbench: no candofsm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import candofsm
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    setup_s = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](
            candofsm.bundled_spec_path(), args.seed, Path(workdir))
        tracer = Tracer() if args.trace else None
        walls, traced_walls = [], []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            seconds, tried, missed = timed_pass(workload)
            walls.append(seconds)
            attempted, failed = attempted + tried, failed + missed
            if tracer:
                seconds, tried, missed = timed_pass(workload, tracer)
                traced_walls.append(seconds)
                attempted, failed = attempted + tried, failed + missed
            if time.perf_counter() >= deadline:
                break

    wall = statistics.median(walls)
    if tracer:
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in tracer.summary().items()}
        metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        metrics["bench.trace_overhead_s"] = {
            "value": statistics.median(traced_walls) - wall, "unit": "s"}
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans, workload=args.workload, seed=args.seed)
        print(f"{args.workload}: {len(walls)} untraced and {len(traced_walls)} "
              f"traced passes; spans in {spans}", file=sys.stderr)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(f"{args.workload}: {len(walls)} passes, wall_s min {min(walls):.4f} "
              f"median {wall:.4f} max {max(walls):.4f}", file=sys.stderr)
    print(f"{args.workload}: {failed} of {attempted} verdicts missed the known answer",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
