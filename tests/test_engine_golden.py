"""Golden output of the requirements engine on the shipped machine.

``data/engine_golden.json`` holds, for all 17 commands, the reqs trace rows
with their attribution, the stop reason and the violations, and for one
``fire_round`` from each of the 714 (event, state) table entries, the fired
requirement ids, the violations and the end env.  A further set of rounds
starts with no state or with two states active, which breaks the machine's
invariants and so exercises conflicts, monitors and the mode-set check.
The data was recorded from the tree-walking engine, before the engine was
compiled and indexed; the engine must reproduce it exactly.

Record it again (only on purpose, after a deliberate change of behaviour)
with ``PYTHONPATH=src python tests/test_engine_golden.py``.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from candofsm.fsm import MAX_COUNT, PACKET_LENGTH
from candofsm.generate import generate_model
from candofsm.reqs.engine import (
    STATE_COMPONENT,
    _plan_of,
    fire_round,
    run_requirements_trace,
)
from candofsm.reqs.expr import EvalContext, eval_expr
from candofsm.reqs.model import Env, initial_env
from candofsm.trace import ROW_COLUMNS, equivalence_report

GOLDEN = Path(__file__).resolve().parent / "data" / "engine_golden.json"
MAX_ROUNDS = 500
SEED = 20250


def canonical(value) -> str:
    """JSON text that keeps ``0`` apart from ``false`` and ``1`` from ``true``."""
    return json.dumps(value, sort_keys=True)


def _violations(violations) -> list:
    return [[v.constraint_id, v.event, v.from_state, v.to_state, v.message]
            for v in violations]


def _differs(a, b) -> bool:
    return type(a) is not type(b) or a != b


def command_snapshot(model, command: str) -> dict:
    trace = run_requirements_trace(model, command, MAX_ROUNDS)
    return {
        "reason": trace.reason,
        "rows": [[getattr(row, c) for c in ROW_COLUMNS]
                 + [{k: list(v) for k, v in row.attribution.items()}]
                 for row in trace.rows],
        "violations": _violations(trace.violations),
    }


def round_inputs(spec) -> list[dict]:
    """One start state per table entry; counters, flags and the command are
    drawn from a fixed seed."""
    rng = random.Random(SEED)
    roster = spec.roster
    counter = range(PACKET_LENGTH + 1)
    return [
        {"event": ev, "state": st, "current_command": rng.choice(roster.command_names),
         "bytes_sent": rng.choice(counter), "bytes_received": rng.choice(counter),
         "tx_cnt": rng.randrange(MAX_COUNT + 1),
         "optrode_TX_finish": rng.random() < 0.5,
         "optrode_RX_finish": rng.random() < 0.5,
         "command_finish_flag": rng.random() < 0.5}
        for ev in roster.event_names for st in roster.state_names
    ]


def fault_inputs(spec) -> list[dict]:
    """Per event, one start with no active state and four with two."""
    rng = random.Random(SEED + 1)
    states = spec.roster.state_names
    cases = []
    for ev in spec.roster.event_names:
        for active in [[]] + [sorted(rng.sample(states, 2)) for _ in range(4)]:
            cases.append({"event": ev, "state": active,
                          "current_command": rng.choice(spec.roster.command_names),
                          "bytes_sent": rng.randrange(PACKET_LENGTH + 1),
                          "tx_cnt": rng.randrange(MAX_COUNT + 1)})
    return cases


def start_env(model, case: dict) -> Env:
    overrides = {k: v for k, v in case.items() if k not in ("event", "state")}
    init = initial_env(model, overrides={**overrides, "current_event": case["event"]})
    active = case["state"]
    active = frozenset([active] if isinstance(active, str) else active)
    return Env(signals=init.signals, modes={**init.modes, STATE_COMPONENT: active})


def round_snapshot(model, env: Env) -> dict:
    result = fire_round(model, env, None)
    end = result.end_env
    return {
        "fired": [[rid, list(records)] for rid, records in result.fired],
        "violations": _violations(result.violations),
        # the end env as a delta from the start env, exact in value and type
        "signals": {k: v for k, v in end.signals.items()
                    if k not in env.signals or _differs(v, env.signals[k])},
        "dropped_signals": sorted(set(env.signals) - set(end.signals)),
        "modes": {k: sorted(v) for k, v in end.modes.items()},
        "pending": [[ob.req_id, ob.due_round, ob.registered_round]
                    for ob in end.pending],
        "round_no": end.round_no,
    }


def record(spec, model) -> dict:
    cases = round_inputs(spec)
    return {
        "max_rounds": MAX_ROUNDS,
        "commands": {cmd: command_snapshot(model, cmd)
                     for cmd in spec.roster.command_names},
        "rounds": [{"input": case, "output": round_snapshot(model, start_env(model, case))}
                   for case in cases],
        "fault_rounds": [
            {"input": case, "output": round_snapshot(model, start_env(model, case))}
            for case in fault_inputs(spec)],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command_and_table_entry(spec, golden):
    assert sorted(golden["commands"]) == sorted(spec.roster.command_names)
    assert len(golden["rounds"]) == 714
    assert {(r["input"]["event"], r["input"]["state"]) for r in golden["rounds"]} \
        == {(ev, st) for ev in spec.roster.event_names for st in spec.roster.state_names}


def test_command_traces_match_the_golden_data(spec, model, golden):
    for cmd in spec.roster.command_names:
        assert canonical(command_snapshot(model, cmd)) \
            == canonical(golden["commands"][cmd]), cmd


@pytest.mark.parametrize("part", ["rounds", "fault_rounds"])
def test_one_round_results_match_the_golden_data(model, golden, part):
    mismatched = [
        (entry["input"]["event"], entry["input"]["state"])
        for entry in golden[part]
        if canonical(round_snapshot(model, start_env(model, entry["input"])))
        != canonical(entry["output"])
    ]
    assert mismatched == []


def test_fault_rounds_exercise_the_failure_paths(golden):
    codes = {v[0] for entry in golden["fault_rounds"]
             for v in entry["output"]["violations"]}
    assert {"CONFLICT", "MODESET", "MONITOR"} <= codes


def _reporters(violation: list) -> set[str]:
    """The requirement ids a recorded violation names."""
    message = violation[4]
    named = re.match(r"(?:obligation of )?requirement (\S+?)[ :]", message)
    if named:
        return {named.group(1)}
    writers = re.search(r"from requirements (.*?);", message)
    return set(writers.group(1).split(", ")) if writers else set()


def _start_key(entry) -> tuple[frozenset, str]:
    """The candidate key of a recorded round: its active states and event."""
    state = entry["input"]["state"]
    active = frozenset((STATE_COMPONENT, s)
                       for s in ([state] if isinstance(state, str) else state))
    return active, entry["input"]["event"]


def test_candidates_hold_every_requirement_that_fired_or_reported(model, golden):
    plan = _plan_of(model)
    assert plan.key == "current_event"
    for entry in golden["rounds"] + golden["fault_rounds"]:
        effect, check = plan.candidates(*_start_key(entry))
        candidates = {step.req.req_id for step, _ in effect + check}
        acted = {rid for rid, _ in entry["output"]["fired"]}
        for violation in entry["output"]["violations"]:
            acted |= _reporters(violation)
        assert acted <= candidates, (_start_key(entry), acted - candidates)


def test_a_guard_the_key_decides_holds_under_the_interpreter(model, golden):
    plan = _plan_of(model)
    decided = 0
    for entry in golden["rounds"] + golden["fault_rounds"]:
        env = start_env(model, entry["input"])
        ctx = EvalContext(start_signals=env.signals, start_modes=env.modes,
                          definitions=plan.definitions)
        effect, check = plan.candidates(*_start_key(entry))
        for step, guard in effect + check:
            if guard is None and step.req.guard is not None:
                assert eval_expr(step.req.guard, ctx) is True, step.req.req_id
                decided += 1
    # every table entry's own guard is decided by its start
    assert decided >= len(golden["rounds"])


def test_each_state_and_event_has_fewer_than_30_candidates(spec, model):
    plan = _plan_of(model)
    sizes = {(st, ev): sum(map(len, plan.candidates(
                 frozenset({(STATE_COMPONENT, st)}), ev)))
             for st in spec.roster.state_names for ev in spec.roster.event_names}
    assert len(model.requirements) == 872
    assert max(sizes.values()) < 30
    assert min(sizes.values()) > 0


def test_a_verify_compiles_fewer_than_300_of_the_872_steps(spec):
    model = generate_model(spec)[0]
    assert equivalence_report(spec, model).passed
    steps = _plan_of(model).steps
    assert len(steps) == 872
    assert sum(step.compiled for step in steps) < 300


if __name__ == "__main__":
    from candofsm import load_bundled_cando

    shipped = load_bundled_cando()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(shipped, generate_model(shipped)[0]),
                                 sort_keys=True, separators=(",", ":")) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
