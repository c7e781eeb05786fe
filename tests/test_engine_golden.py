"""Golden output of the requirements engine on the shipped machine.

``data/engine_golden.json`` holds, for all 17 commands, the reqs trace rows
with their attribution, the stop reason and the violations, and for one
``fire_round`` from each of the 714 (event, state) table entries, the fired
requirement ids, the violations and the end env.  A further set of rounds
starts with no state or with two states active, which breaks the machine's
invariants and so exercises conflicts, monitors and the mode-set check.
The data was recorded from the tree-walking engine, before the engine was
compiled, indexed and memoised; the engine must reproduce it exactly, from
a round it computes and from one it finds in its memo.

Record it again (only on purpose, after a deliberate change of behaviour)
with ``PYTHONPATH=src python tests/test_engine_golden.py``; it prints the
JSON path of each entry that differs from the file it overwrites.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from candofsm.fsm import CONT, GET_CMD, MAX_COUNT, PACKET_LENGTH, StateKind
from candofsm.generate import generate_model
from candofsm.reqs import compiled, engine
from candofsm.reqs.compiled import Frame
from candofsm.reqs.engine import (
    STATE_COMPONENT,
    _Plan,
    _plan_of,
    fire_round,
    run_requirements_trace,
)
from candofsm.reqs.expr import EvalContext, EvalError, eval_expr
from candofsm.reqs.model import TRIGGER_ON_EVENT, Env, initial_env
from candofsm.trace import ROW_COLUMNS, equivalence_report
from conftest import (
    CACHED_DEFINITIONS,
    DEFINITION_READS,
    DEFINITION_RUNS,
    GUARD_CALLS,
    LARGEST_CANDIDATES,
    MEMO_ENTRIES,
    REQUIREMENTS,
)
from test_compiled import Recording

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


def changed_paths(old, new, path: str = "$") -> list[str]:
    """The JSON paths where ``new`` differs from ``old``: objects and lists of
    one length are followed down, anything else is compared whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [p for k in sorted(old.keys() | new.keys())
                for p in (changed_paths(old[k], new[k], f"{path}.{k}")
                          if k in old and k in new else [f"{path}.{k}"])]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in changed_paths(a, b, f"{path}[{i}]")]
    return [] if canonical(old) == canonical(new) else [path]


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


def test_changed_paths_name_each_differing_entry():
    old = {"a": [1, [2, 3]], "b": {"c": 0}, "gone": 1}
    new = {"a": [1, [2, 3, 4]], "b": {"c": False}, "added": 1}
    assert changed_paths(old, old) == []
    assert changed_paths(old, new) == ["$.a[1]", "$.added", "$.b.c", "$.gone"]


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


def test_a_second_pass_from_the_memo_matches_the_golden_data(spec, golden):
    model = generate_model(spec)[0]
    entries = golden["rounds"] + golden["fault_rounds"]
    for _ in range(2):
        mismatched = [
            (entry["input"]["event"], entry["input"]["state"]) for entry in entries
            if canonical(round_snapshot(model, start_env(model, entry["input"])))
            != canonical(entry["output"])]
        assert mismatched == []
        # every start is a distinct input: the first pass stores each round,
        # the second reads each one back
        assert len(_plan_of(model).memo) == len(entries)


def test_a_verify_pass_stores_124_distinct_rounds(spec):
    model = generate_model(spec)[0]
    report = equivalence_report(spec, model)
    assert report.passed
    assert len(_plan_of(model).memo) == MEMO_ENTRIES


def test_a_verify_pass_computes_124_rounds_with_pinned_guard_calls(spec, monkeypatch):
    # a work count that timing noise cannot move: every candidate's guard is
    # called in each computed round, and the memo answers every other round
    model = generate_model(spec)[0]
    plan = _plan_of(model)
    calls = 0

    def counted(guard):
        def fn(frame):
            nonlocal calls
            calls += 1
            return guard(frame)
        return fn
    for step in plan.steps:
        if step.guard is not None:
            step.guard = counted(step.guard)
    computed = 0

    def compute(*args):
        nonlocal computed
        computed += 1
        return real_compute(*args)
    real_compute = engine._compute
    monkeypatch.setattr(engine, "_compute", compute)
    assert equivalence_report(spec, model).passed
    assert (computed, calls) == (MEMO_ENTRIES, GUARD_CALLS)


def test_a_verify_pass_runs_each_chain_definition_once_per_frame(spec, monkeypatch):
    # a work count like the guard calls: a chain definition's body runs on a
    # frame's first read of it, and the frame answers every other read
    built, reads, runs = [], 0, 0

    def counted(name, body):
        def run(frame):
            nonlocal runs
            runs += 1
            return body(frame)
        shared = real_once(name, run)

        def read(frame):
            nonlocal reads
            reads += 1
            return shared(frame)
        built.append(name)
        return read
    real_once = compiled._once_per_frame
    monkeypatch.setattr(compiled, "_once_per_frame", counted)
    model = generate_model(spec)[0]
    assert equivalence_report(spec, model).passed
    assert len(set(built)) == len(built) == CACHED_DEFINITIONS
    assert (reads, runs) == (DEFINITION_READS, DEFINITION_RUNS)


def test_the_index_selects_what_each_step_support_allows(spec, model):
    # the plan indexes each distinct support once; derived step by step from
    # the supports, every (state, event) key must get the same candidates
    plan = _plan_of(model)

    def allows(step, active, event) -> bool:
        return step.support is None or any(
            mode in active and (lit is None or lit[0] != plan.key or lit[1] == event)
            for mode, lit in step.support)
    keys = 0
    for st in spec.roster.state_names:
        active = frozenset({(STATE_COMPONENT, st)})
        for ev in spec.roster.event_names:
            steps = [step for step in plan.steps if allows(step, active, ev)]
            reads = set().union(*(step.reads for step in steps)) - {plan.key}
            assert plan._select(active, ev) == (
                tuple(s for s in steps if s.template is TRIGGER_ON_EVENT),
                tuple(s for s in steps if s.template is not TRIGGER_ON_EVENT),
                tuple(sorted(reads)), active), (st, ev)
            keys += 1
    assert keys == 714


def test_a_candidate_reads_no_signal_outside_its_reads(model, golden):
    plan = _plan_of(model)
    looked_up = 0
    for entry in golden["rounds"] + golden["fault_rounds"]:
        env = start_env(model, entry["input"])
        effect, check, reads, _ = plan.lookup(*_start_key(entry))
        for step in effect + check:
            signals = Recording(env.signals)
            frame = Frame(signals, env.modes, env.modes)
            fns = [step.required, *(fn for kind, _, fn in step.effects if kind == "sig")]
            for fn in fns if step.guard is None else [step.guard, *fns]:
                try:
                    fn(frame)
                except EvalError:
                    pass
            assert signals.looked_up <= step.reads, step.req.req_id
            assert step.reads - {plan.key} <= set(reads), step.req.req_id
            looked_up += len(signals.looked_up)
    assert looked_up > 1_000


def test_fault_rounds_exercise_the_failure_paths(golden):
    codes = {v[0] for entry in golden["fault_rounds"]
             for v in entry["output"]["violations"]}
    assert {"CONFLICT", "MODESET", "MONITOR"} <= codes


def _reporters(violation: list) -> set[str]:
    """The requirement ids a recorded violation names."""
    message = violation[4]
    named = re.match(r"requirement (\S+?)[ :]", message)
    if named:
        return {named.group(1)}
    writers = re.search(r"from requirements (.*?);", message)
    return set(writers.group(1).split(", ")) if writers else set()


def _start_key(entry) -> tuple[dict, str]:
    """The candidate key of a recorded round: its state modes and event."""
    state = entry["input"]["state"]
    active = frozenset([state] if isinstance(state, str) else state)
    return {STATE_COMPONENT: active}, entry["input"]["event"]


def test_candidates_hold_every_requirement_that_fired_or_reported(model, golden):
    plan = _plan_of(model)
    assert plan.key == "current_event"
    for entry in golden["rounds"] + golden["fault_rounds"]:
        effect, check = plan.lookup(*_start_key(entry))[:2]
        candidates = {step.req.req_id for step in effect + check}
        acted = {rid for rid, _ in entry["output"]["fired"]}
        for violation in entry["output"]["violations"]:
            acted |= _reporters(violation)
        assert acted <= candidates, (_start_key(entry), acted - candidates)


def test_an_exact_support_a_start_meets_holds_under_the_interpreter(model, golden):
    plan = _plan_of(model)
    decided = 0
    for entry in golden["rounds"] + golden["fault_rounds"]:
        env = start_env(model, entry["input"])
        ctx = EvalContext(start_signals=env.signals, start_modes=env.modes,
                          definitions=plan.definitions)
        modes, event = _start_key(entry)
        effect, check = plan.lookup(modes, event)[:2]
        active = compiled.active_modes(modes)
        for step in effect + check:
            guard = step.req.guard and plan.compiler.compile(step.req.guard)
            # an exact support whose terms read only the key: the start
            # meets a term, so the guard holds
            if guard and guard.exact and guard.support is step.support \
                    and all(lit is None or lit[0] == plan.key for _, lit in step.support) \
                    and any(mode in active and (lit is None or lit[1] == event)
                            for mode, lit in step.support):
                assert eval_expr(step.req.guard, ctx) is True, step.req.req_id
                decided += 1
    # every table entry's own guard is decided by its start
    assert decided >= len(golden["rounds"])


def test_each_state_and_event_has_fewer_than_30_candidates(spec, model):
    plan = _plan_of(model)
    sizes = {(st, ev): sum(map(len, plan.lookup(
                 {STATE_COMPONENT: frozenset({st})}, ev)[:2]))
             for st in spec.roster.state_names for ev in spec.roster.event_names}
    assert len(model.requirements) == REQUIREMENTS
    assert max(sizes.values()) < 30
    assert min(sizes.values()) > 0


def test_a_kind_level_step_is_a_candidate_exactly_where_an_arrow_enters_its_kind(
        spec, model):
    # op.kind_<part>.* and post.kind_<part>.* act only in a round that enters
    # a state of the kind; their guard is an or over many arrows, and the
    # plan must still key it exactly
    plan = _plan_of(model)
    shared = {}
    for step in plan.steps:
        prefix, name = step.req.req_id.split(".")[:2]
        if prefix in ("op", "post") and name.startswith("kind_"):
            shared[step.req.req_id] = StateKind(name[len("kind_"):])
    assert len(shared) == 15
    largest = 0
    for st in spec.roster.state_names:
        for ev in spec.roster.event_names:
            effect, check = plan.lookup({STATE_COMPONENT: frozenset({st})}, ev)[:2]
            candidates = {step.req.req_id for step in effect + check}
            largest = max(largest, len(candidates))
            targets = (set(spec.dispatch.values()) if (st, ev) == (GET_CMD, CONT)
                       else {spec.fsm[ev][st]})
            entered = {spec.roster.kind_of(t) for t in targets}
            for rid, kind in shared.items():
                assert (rid in candidates) == (kind in entered), (st, ev, rid)
    assert largest == LARGEST_CANDIDATES


def test_a_plan_build_compiles_every_step_before_any_round(model):
    plan = _Plan(model)
    assert len(plan.steps) == REQUIREMENTS
    assert plan.memo == {}
    for step, req in zip(plan.steps, model.requirements, strict=True):
        assert callable(step.required), req.req_id
        assert (step.guard is None) == (req.guard is None), req.req_id
        assert len(step.effects) == len(req.effects), req.req_id
        assert all(callable(fn) for kind, _, fn in step.effects if kind == "sig")


if __name__ == "__main__":
    from candofsm import load_bundled_cando

    shipped = load_bundled_cando()
    recorded = record(shipped, generate_model(shipped)[0])
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, sort_keys=True, separators=(",", ":")) + "\n",
                      encoding="utf-8")
    changed = changed_paths(old, recorded)
    print(*changed, sep="\n")
    print(f"wrote {GOLDEN.relative_to(GOLDEN.parents[2])}: {len(changed)} changed entries")
