"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

from candofsm.fsm import (
    CONT,
    MAX_COUNT,
    PACKET_LENGTH,
    check_cando,
    check_statemap,
    check_totality,
    lookup_next,
)
from candofsm.opmodel import ModelState, _snapshot, ops_round, run
from candofsm.reqs.engine import _env_values, fire_round, run_requirements_trace
from candofsm.reqs.model import Env, initial_env
from candofsm.specio import parse_spec, serialize_spec
from candofsm.trace import equivalence_report
from conftest import mutate_table

VALID_SEQUENCE = [
    "start", "get_cmd", "set_vLED", "send_packet_6", "receive_packet_28",
    "set_sDac", "send_packet_3", "receive_packet_27", "cmd_finish",
]

# One targeted table mutation per constraint; each must trigger exactly its
# own violation.  Entries under the synthesized event EVT_6 isolate the
# per-entry map rules from the event-specific ones.
MUTATIONS = [
    ("C1.1", "EVT_6", "send_packet_1", "start"),
    ("C1.2", "EVT_6", "start", "set_vLED"),
    ("C1.3", "EVT_6", "chip_rst", "set_vLED"),
    ("C1.4", "EVT_6", "error_", "set_vLED"),
    ("C1.5", "EVT_6", "cmd_finish", "get_cmd"),
    ("C1.6", "EVT_6", "set_vLED", "receive_packet_21"),
    ("C1.7", "EVT_6", "receive_packet_21", "send_packet_1"),
    ("C1.8", "EVT_6", "get_cmd", "send_packet_1"),
    ("C2", "CONT", "send_packet_6", "set_sDac"),
    ("C3", "SPI_TX_FINISH", "send_packet_1", "send_packet_2"),
    ("C4", "SPI_RX_FINISH", "receive_packet_21", "set_sDac"),
    ("C5", "CONT", "set_vLED", "error_"),
    ("C6", "CONT", "chip_rst", "get_cmd"),
    ("C7", "CONT", "start", "error_"),
    ("C8", "CONT", "error_", "error_"),
    ("C9", "GET_CMD_E", "error_", "error_"),
    ("C10", "GET_CMD_E", "chip_rst", "error_"),
    ("C11", "CONT", "receive_packet_21", "error_"),
    ("C12", "GET_CMD_E", "send_packet_1", "chip_rst"),
    ("TOTALITY", "EVT_6", "LED_off", None),
]


def all_violations(spec):
    out = []
    for ev in spec.roster.event_names:
        if ev in spec.fsm:
            out.extend(check_statemap(spec.roster, spec.fsm[ev], event=ev))
    out.extend(check_totality(spec.roster, spec.fsm))
    out.extend(check_cando(spec.roster, spec.fsm))
    return out


def distinct_states(rows):
    out = []
    for row in rows:
        if not out or out[-1] != row.state:
            out.append(row.state)
    return out


def oracle_env(model, event, state, **signals):
    init = initial_env(model, overrides={"current_command": "LED_ON_C",
                                         "current_event": event, **signals})
    return Env(signals=init.signals, modes={"fsm": frozenset({state})})


def test_criterion_1_valid_sequence_reproduction(spec):
    started = time.perf_counter()
    trace = run(spec, "LED_ON_C", 500)
    elapsed = time.perf_counter() - started
    assert distinct_states(trace.rows) == VALID_SEQUENCE
    assert trace.reason == "cmd_finish"
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: operational run reproduces the valid sequence "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_constraint_catalogue(spec):
    assert all_violations(spec) == []
    for constraint, event, state, target in MUTATIONS:
        mutated = mutate_table(spec, event, state, target)
        observed = [v.constraint_id for v in all_violations(mutated)]
        assert observed == [constraint], (
            f"mutation for {constraint} produced {observed}")
    print(f"PASS criterion 2: {len(MUTATIONS)} targeted mutations each trigger "
          "exactly their own constraint, clean table triggers none")


def test_criterion_3_totality(spec):
    entries = sum(len(spec.fsm[ev]) for ev in spec.roster.event_names)
    assert entries == 21 * 34 == 714
    assert check_totality(spec.roster, spec.fsm) == []
    print("PASS criterion 3: table defines all 714 transitions and is total")


def test_criterion_4_cross_engine_equivalence(spec, model):
    started = time.perf_counter()
    report = equivalence_report(spec, model, max_rounds=500)
    elapsed = time.perf_counter() - started
    assert report.passed
    assert len(report.per_command) == 17
    assert all(entries == () for entries in report.per_command.values())
    assert elapsed < 10.0
    print(f"PASS criterion 4: both engines agree for all 17 commands "
          f"({elapsed:.2f} s)")


def test_criterion_5_exhaustive_single_round_oracle(spec, model):
    for ev in spec.roster.event_names:
        for st in spec.roster.state_names:
            result = fire_round(model, oracle_env(model, ev, st), None)
            want = lookup_next(spec.fsm, ev, st)
            assert result.end_env.modes["fsm"] == frozenset({want}), (ev, st)

    # one ops round in run's order against one fire_round from the same
    # state, event and counters: every row column, and no violation
    started = time.perf_counter()
    counter = range(PACKET_LENGTH + 1)
    cases = violations = 0
    diverging: Counter = Counter()
    for st, ev, sent, received, tx in itertools.product(
            spec.roster.state_names, spec.roster.event_names, counter, counter,
            range(MAX_COUNT + 1)):
        ops = ops_round(spec, ModelState(
            current_state=st, current_event=ev, current_command="LED_ON_C",
            bytes_sent=sent, bytes_received=received, tx_cnt=tx))
        reqs = fire_round(model, oracle_env(model, ev, st, bytes_sent=sent,
                                            bytes_received=received, tx_cnt=tx), None)
        violations += len(ops.post_violations) + len(reqs.violations)
        ops_row, reqs_row = _snapshot(ops.next, 1).values(), _env_values(reqs.end_env, 1)
        for column in ops_row:
            if ops_row[column] != reqs_row[column]:
                diverging[ev, st, column] += 1
        cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 34 * 21 * 4 * 4 * 3 == 34_272
    assert violations == 0
    assert not diverging, (f"{sum(diverging.values())} diverging cases, "
                           f"{len(diverging)} (event, state, column) triples: "
                           f"{sorted(diverging.items())}")
    print("PASS criterion 5: one fire_round agrees with lookup_next on all "
          f"714 (event, state) pairs, and with one ops round on all 13 columns "
          f"in {cases} (state, event, counter) cases ({elapsed:.1f} s)")


def test_criterion_6_invariant_preservation(spec, model):
    for cmd in spec.roster.command_names:
        for row in run(spec, cmd, 500).rows:
            assert 0 <= row.bytes_sent <= PACKET_LENGTH
            assert 0 <= row.bytes_received <= PACKET_LENGTH
            assert 0 <= row.tx_cnt <= MAX_COUNT
        trace = run_requirements_trace(model, cmd, 500)
        assert trace.violations == ()
        for row in trace.rows:
            assert 0 <= row.bytes_sent <= PACKET_LENGTH
            assert 0 <= row.bytes_received <= PACKET_LENGTH
            assert 0 <= row.tx_cnt <= MAX_COUNT
            # exactly one active mode: the state cell is a single roster state
            assert row.state in spec.roster.state_names
    print("PASS criterion 6: counter bounds and mode exclusivity hold over "
          "all commands at a 500-round budget")


def test_criterion_7_self_loop_law(spec, model):
    observed = 0
    for cmd in spec.roster.command_names:
        rows = run_requirements_trace(model, cmd, 500).rows
        for prev, cur in zip(rows, rows[1:]):
            if prev.event in ("SPI_TX_FINISH", "SPI_RX_FINISH"):
                observed += 1
                assert cur.state == prev.state, (cmd, prev.round)
    assert observed > 0
    print(f"PASS criterion 7: start and end states identical in all "
          f"{observed} SPI completion rounds")


def test_criterion_8_round_trip_and_golden_output(spec, tmp_path, capsys):
    from candofsm.cli import main

    text = serialize_spec(spec)
    assert parse_spec(text) == spec

    path = tmp_path / "cando.fsm"
    path.write_text(text, encoding="utf-8")
    assert main(["report", str(path)]) == 0
    first = capsys.readouterr().out
    assert main(["report", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "set_vLED to send_packet_6" in first
    print("PASS criterion 8: serialize/parse identity, byte-identical report, "
          "vLED requirement title present")


def test_criterion_9_generation_scale(generated, capsys):
    _, report = generated
    summary = report.summary()
    print(summary, end="")
    assert report.data_records > 0
    assert report.definitions > 0
    assert report.requirements > 0
    # systematic generation covers all 714 transitions, so the requirement
    # count must not fall below the hand-built model's
    assert report.requirements >= 113
    print("PASS criterion 9: generation counts printed beside the hand-built "
          "model's 26/105/113 for comparison")
