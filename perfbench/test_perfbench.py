"""Self-tests of the benchmark: its exact counts repeat, and its correctness
gate catches a wrong answer.

    python3 -m pytest perfbench -q

The tier-1 suite does not collect this file (``testpaths`` names ``tests``
only); it takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from candofsm.specio import bundled_spec_path, load_spec  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402
from workloads import Oracle  # noqa: E402

RECORDED = json.loads((HERE / "exact_counts.json").read_text(encoding="utf-8"))


def run_bench(workload: str, seed: int, trace: int, hash_seed: int,
              script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=script.parent.parent, env=env, capture_output=True, text=True,
        timeout=300)


@pytest.mark.parametrize("workload", sorted(RECORDED["counts"]))
def test_exact_counts_repeat_across_runs_and_hash_seeds(workload):
    # exact_counts.json records the counts at the commit that added the
    # benchmark; a change to the program may move them, but never so that
    # two runs disagree.
    seen = {}
    for hash_seed in (0, 1, 12345):
        done = run_bench(workload, RECORDED["seed"], 1, hash_seed)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        seen[hash_seed] = {name: result["metrics"][name]["value"]
                           for name in EXACT_COUNTS}
    assert seen[0] == seen[1] == seen[12345]


def test_one_wrong_reference_entry_makes_fail_ratio_nonzero(tmp_path):
    spec = load_spec(bundled_spec_path())
    reference = {ev: dict(row) for ev, row in spec.fsm.items()}
    assert reference["CONT"]["set_vLED"] != "error_"
    reference["CONT"]["set_vLED"] = "error_"
    oracle = Oracle(bundled_spec_path(), 1, tmp_path, reference=reference)
    attempted, failed = oracle.check(oracle.run())
    # Every ops case in set_vLED ends its operation with CONT (21 events x
    # 4 x 4 x 3 counter values), plus the one fire_round from that entry.
    assert failed == 21 * 4 * 4 * 3 + 1
    assert failed / attempted > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    done = run_bench("front", 1, 0, 0, script=bench / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
