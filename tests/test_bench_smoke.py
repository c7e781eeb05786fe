"""One traced pass of each benchmark workload, checked against its known
answers.

The benchmark under ``perfbench/`` calls into the program by name: it
builds ``Env`` records, runs ``opmodel.step`` and wraps the functions its
tracer lists.  A change that breaks one of those uses fails here, in the
tier-1 suite, and not only when the benchmark runs.  The whole file takes
about a second.
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
