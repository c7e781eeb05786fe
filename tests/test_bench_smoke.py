"""One traced pass of each benchmark workload, checked against its known
answers.

The benchmark under ``perfbench/`` calls into the program by name: it
builds ``Env`` records, runs ``opmodel.step`` and wraps the functions its
tracer lists, and its per-layer counts come from those wrappers.  A change
that breaks one of those uses, or runs rounds past a wrapper, fails here,
in the tier-1 suite, and not only when the benchmark runs.  The whole file
takes about a second.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from candofsm.specio import bundled_spec_path  # noqa: E402

# What one traced pass of each workload counts at the tracer's wrappers: a
# round the program runs past a wrapped function is missing here.
TRACED_COUNTS = {
    "verify": {"reqs.engine.rounds": 322, "reqs.engine.fired": 890,
               "opmodel.rounds": 322},
    "oracle": {"reqs.engine.rounds": 714, "reqs.engine.fired": 1465,
               "opmodel.rounds": 34272},
    "front": {"reqs.engine.rounds": 0, "reqs.engine.fired": 0,
              "opmodel.rounds": 322},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_traced_pass_gets_every_verdict_right(name, tmp_path):
    workload = workloads.WORKLOADS[name](bundled_spec_path(), 1, tmp_path)
    tracer = tracing.Tracer()
    with tracer.traced_pass():
        outputs = workload.run()
    attempted, failed = workload.check(outputs)
    assert attempted > 0
    assert failed == 0
    assert len(tracer.passes) == 1
    summary = tracer.summary()
    assert {name: summary[name] for name in TRACED_COUNTS[name]} == TRACED_COUNTS[name]
