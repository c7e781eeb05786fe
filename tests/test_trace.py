from __future__ import annotations

import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candofsm.generate import generate_model
from candofsm.opmodel import ModelState, _snapshot, init_model, ops_round, run
from candofsm.reqs import engine
from candofsm.reqs.engine import (
    STATE_COMPONENT,
    TRACE_RECORDS,
    _env_cells,
    _plan_of,
    env_of,
    fire_round,
    run_requirements_trace,
)
from candofsm.reqs.model import ModeAssign, ModelError, initial_env
from candofsm.reqs.text import parse_model
from candofsm.specio import read_trace_csv, write_trace_csv
from candofsm.trace import (
    ROW_COLUMNS,
    DiffEntry,
    EquivalenceReport,
    RunError,
    RunOutcome,
    diff,
    equivalence_report,
)
from conftest import mutate_table


def ops_traces(spec):
    return [run(spec, cmd, 500) for cmd in spec.roster.command_names]


def reqs_traces(spec, model):
    return [run_requirements_trace(model, cmd, 500) for cmd in spec.roster.command_names]


class TestDiff:
    def test_identical_traces_are_equivalent(self, spec):
        trace = run(spec, "LED_ON_C", 500)
        assert diff(trace, trace) == []

    def test_state_mismatch_is_reported_at_its_round(self):
        rows_a = [{"round": i, "state": "x"} for i in range(6)]
        rows_b = [dict(r) for r in rows_a]
        rows_b[4]["state"] = "y"
        assert diff(rows_a, rows_b) == [DiffEntry(4, "state", "x", "y")]

    def test_length_mismatch_is_one_synthetic_entry(self):
        rows_a = [{"round": 0, "state": "x"}, {"round": 1, "state": "x"}]
        rows_b = rows_a[:1]
        entries = diff(rows_a, rows_b)
        assert entries == [DiffEntry(1, "length", 2, 1)]

    def test_ignored_fields_are_skipped(self):
        rows_a = [{"round": 0, "tx_finish": True}]
        rows_b = [{"round": 0, "tx_finish": False}]
        assert diff(rows_a, rows_b, ignore={"tx_finish"}) == []
        assert diff(rows_a, rows_b) != []

    def test_attribution_is_never_compared(self, spec, model):
        ops = run(spec, "LED_ON_C", 500)
        reqs = run_requirements_trace(model, "LED_ON_C", 500)
        assert any(r.attribution for r in reqs.rows)
        # every row column is compared, the tx/rx completion flags included
        assert any(r.tx_finish for r in ops.rows)
        assert any(r.rx_finish for r in ops.rows)
        assert diff(ops, reqs) == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.fixed_dictionaries({
        "round": st.integers(0, 5), "state": st.sampled_from("abc"),
        "bytes_sent": st.integers(0, 3)}), max_size=5),
        st.lists(st.fixed_dictionaries({
            "round": st.integers(0, 5), "state": st.sampled_from("abc"),
            "bytes_sent": st.integers(0, 3)}), max_size=5))
    def test_diff_is_symmetric_up_to_swap(self, rows_a, rows_b):
        forward = diff(rows_a, rows_b)
        backward = diff(rows_b, rows_a)
        assert [(e.round, e.field, e.right, e.left) for e in forward] \
            == [(e.round, e.field, e.left, e.right) for e in backward]
        assert diff(rows_a, rows_a) == []


class TestDiffSkipsEqualRows:
    """A pair of rows whose observable cells are equal is passed over with
    one tuple comparison; the entries must be those of the field-by-field
    scan, which dict rows always take."""

    @pytest.fixture
    def rows(self, spec):
        return list(run(spec, "LED_ON_C", 500).rows)

    @staticmethod
    def scanned(rows):
        return [row.values() for row in rows]

    def test_equal_traces(self, rows):
        attributed = [row._replace(attribution={"state": ("r1",)}) for row in rows]
        assert diff(rows, attributed) == diff(self.scanned(rows), self.scanned(rows)) == []

    def test_a_two_column_divergence_in_sorted_field_order(self, rows):
        other = list(rows)
        other[3] = other[3]._replace(tx_cnt=2, bytes_sent=4)
        entries = diff(rows, other)
        assert entries == diff(self.scanned(rows), self.scanned(other))
        assert [(e.round, e.field) for e in entries] == [(3, "bytes_sent"), (3, "tx_cnt")]

    def test_a_length_mismatch(self, rows):
        other = list(rows[:-2])
        other[1] = other[1]._replace(state="x")
        entries = diff(rows, other)
        assert entries == diff(self.scanned(rows), self.scanned(other))
        assert entries[0] == DiffEntry(len(other), "length", len(rows), len(other))
        assert [e.field for e in entries[1:]] == ["state"]

    def test_ignored_fields(self, rows):
        other = list(rows)
        other[2] = other[2]._replace(tx_cnt=2, cmd_finish=True)
        entries = diff(rows, other, ignore={"tx_cnt"})
        assert entries == diff(self.scanned(rows), self.scanned(other), ignore={"tx_cnt"})
        assert [e.field for e in entries] == ["cmd_finish"]

    def test_dict_rows_mixed_with_trace_rows(self, rows):
        other = self.scanned(rows)
        other[4] = {**other[4], "state": "x"}
        del other[5]["packet_addr"]
        mixed = rows[:4] + other[4:]
        expected = diff(self.scanned(rows), other)
        assert [(e.round, e.field) for e in expected] == [(4, "state"), (5, "packet_addr")]
        assert diff(rows, other) == diff(rows, mixed) == expected
        assert diff(mixed, rows) == diff(other, self.scanned(rows))


class TestTraceAll:
    def test_one_trace_per_command(self, spec, model):
        # each run tags its trace with its command and engine
        for engine, traces in (("ops", ops_traces(spec)), ("reqs", reqs_traces(spec, model))):
            assert [(t.command, t.engine) for t in traces] \
                == [(cmd, engine) for cmd in spec.roster.command_names]
            assert len(traces) == 17

    def test_ops_traces_end_in_cmd_finish(self, spec):
        for trace in ops_traces(spec):
            assert trace.reason == "cmd_finish"

    def test_reqs_attributions_reference_generated_ids_only(self, spec, model):
        known = {r.req_id for r in model.requirements}
        for trace in reqs_traces(spec, model):
            for row in trace.rows:
                for ids in row.attribution.values():
                    assert set(ids) <= known

    def test_attribution_marks_only_changed_fields(self, spec, model):
        for trace in reqs_traces(spec, model):
            for prev, cur in zip(trace.rows, trace.rows[1:]):
                before, after = prev.values(), cur.values()
                for field, ids in cur.attribution.items():
                    assert ids, field
                    assert before[field] != after[field]

    def test_counters_carry_the_updater_and_the_committer(self, model):
        trace = run_requirements_trace(model, "LED_ON_C", 500)
        counted = [row.attribution["bytes_sent"] for row in trace.rows
                   if "bytes_sent" in row.attribution
                   and row.event == "SPI_TX_FINISH"]
        assert counted
        for ids in counted:
            assert len(ids) == 2
            assert ids[0].endswith(".count_next")
            assert ids[1].endswith(".count")

    def test_a_reqs_run_builds_each_row_once(self, spec, model, monkeypatch):
        # the ops run is held to the same count
        import candofsm.opmodel as opmodel
        import candofsm.reqs.engine as engine

        for module, run_one in ((engine, lambda: engine.run_requirements_trace(
                                    model, "LED_ON_C", 500)),
                                (opmodel, lambda: opmodel.run(spec, "LED_ON_C", 500))):
            row_type, real, built = module.TraceRow, module._tuple_new, []

            def counting_new(cls, cells, real=real):
                record = real(cls, cells)
                if cls is row_type:
                    built.append(record)
                return record

            monkeypatch.setattr(module, "_tuple_new", counting_new)
            trace = run_one()
            assert trace.reason == "cmd_finish"
            assert list(trace.rows) == built and len(built) == 21, module.__name__
            assert all(a is b for a, b in zip(trace.rows, built)), module.__name__

    def test_both_engines_stop_alike_at_every_budget(self, spec, model):
        for cmd in spec.roster.command_names:
            length = len(run(spec, cmd, 500).rows)
            for budget in range(1, length + 2):
                ops = run(spec, cmd, budget)
                reqs = run_requirements_trace(model, cmd, budget)
                assert [r.values() for r in ops.rows] \
                    == [r.values() for r in reqs.rows], (cmd, budget)
                expected = "cmd_finish" if budget >= length else "budget"
                assert ops.reason == reqs.reason == expected, (cmd, budget)

    def test_round_numbers_increase_by_one_from_zero(self, spec, model):
        for trace in ops_traces(spec) + reqs_traces(spec, model):
            assert [row.round for row in trace.rows] == list(range(len(trace.rows)))

    def test_zero_round_budget_rejected(self, spec, model):
        # before any start state is built: a bogus command is not looked at
        for command in ("LED_ON_C", "BOGUS"):
            with pytest.raises(ValueError):
                run(spec, command, 0)
            with pytest.raises(ValueError):
                run_requirements_trace(model, command, 0)

    def test_a_reqs_round_fault_is_tagged_with_its_round(self, model, monkeypatch):
        cause = RuntimeError("injected")
        calls = []
        real = engine.fire_round

        def failing_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise cause
            return real(*args)

        monkeypatch.setattr(engine, "fire_round", failing_third)
        with pytest.raises(RunError) as err:
            run_requirements_trace(model, "LED_ON_C", 500)
        assert err.value.round_no == 3 and err.value.cause is cause
        assert (err.value.engine, err.value.command) == ("reqs", "LED_ON_C")


class TestTraceRecords:
    """A trace cell is its record's value, nil where the record is missing
    or nil."""

    # a hand model with two of the trace records; the trigger clears the
    # counter to nil, a value every signal admits
    NIL_COUNTER = ('type Command enum { GO_C }\n'
                   'signal current_command : Command init=nil\n'
                   'signal bytes_sent : int min=0 max=3 init=0\n'
                   'req r "clear" trigger bytes_sent = 0 => bytes_sent := nil\n')

    def test_a_counter_cleared_to_nil_is_a_nil_cell(self):
        model = parse_model(self.NIL_COUNTER)
        trace = run_requirements_trace(model, "GO_C", 3)
        assert [row.bytes_sent for row in trace.rows] == [0, None, None]
        assert [dict(row.attribution) for row in trace.rows] \
            == [{}, {"bytes_sent": ("r",)}, {}]
        assert (trace.reason, trace.violations) == ("budget", ())

    def test_a_missing_record_is_a_nil_column(self):
        [row] = run_requirements_trace(parse_model(self.NIL_COUNTER), "GO_C", 1).rows
        values = row.values()
        assert [values.pop(c) for c in ("round", "state", "command", "bytes_sent")] \
            == [0, "", "GO_C", 0]
        assert set(values.values()) == {None}

    def test_nil_cells_read_back_from_csv(self):
        rows = run_requirements_trace(parse_model(self.NIL_COUNTER), "GO_C", 3).rows
        buffer = io.StringIO()
        write_trace_csv(rows, buffer)
        assert buffer.getvalue().splitlines()[1:3] == [
            "0,,,GO_C,,,,0,,,,,,", "1,,,GO_C,,,,,,,,,,r"]
        buffer.seek(0)
        assert [row.values() for row in read_trace_csv(buffer)] \
            == [row.values() for row in rows]

    def test_a_model_without_the_command_record_has_a_nil_command_column(self):
        model = parse_model('signal bytes_sent : int min=0 max=3 init=0\n'
                            'req r "count" trigger bytes_sent < 3 '
                            '=> bytes_sent := bytes_sent + 1\n')
        trace = run_requirements_trace(model, "GO_C", 3)
        assert trace.command == "GO_C"
        assert [(row.command, row.bytes_sent) for row in trace.rows] \
            == [(None, 0), (None, 1), (None, 2)]
        assert (trace.reason, trace.violations) == ("budget", ())

    def test_the_records_and_their_shadows_are_the_generated_signals(self, model):
        assert tuple(TRACE_RECORDS) == ROW_COLUMNS[2:]
        records = set(TRACE_RECORDS.values())
        signals = {sig.name for sig in model.dictionary.signals}
        assert len(signals) == 14 and records <= signals
        assert signals - records == {"next_bytes_sent", "next_bytes_received",
                                     "next_tx_cnt"} <= {f"next_{r}" for r in records}
        assert [c.name for c in model.dictionary.modes] == [STATE_COMPONENT]

    def test_writers_are_grouped_once_per_fired_tuple_up_to_the_limit(
            self, spec, monkeypatch):
        def traced(model):
            return [(t.rows, [r.attribution for r in t.rows])
                    for t in reqs_traces(spec, model)]

        model = generate_model(spec)[0]
        cold = traced(model)
        # the 322 rounds of the 17 runs fire 72 distinct tuples
        assert len(_plan_of(model).writers) == 72
        assert traced(model) == cold
        monkeypatch.setattr(engine, "CACHE_LIMIT", 8)
        model = generate_model(spec)[0]
        assert traced(model) == cold
        assert len(_plan_of(model).writers) == 8

    def test_a_writer_of_a_record_and_its_shadow_is_listed_once(self, model):
        m = ModelState("error_", "CONT", "LED_ON_C", bytes_sent=2, bytes_received=1,
                       tx_cnt=1)
        writers = {column: ids for column, _, ids
                   in fire_round(model, env_of(model, m), None).writers}
        assert [writers[c] for c in ("bytes_sent", "bytes_received", "tx_cnt")] \
            == [("op.chip_rst.reset",)] * 3


class TestEquivalenceReport:
    def test_bundled_spec_passes_for_all_commands(self, spec, model):
        report = equivalence_report(spec, model, max_rounds=500)
        assert report.passed
        assert set(report.per_command) == set(spec.roster.command_names)
        assert all(not entries for entries in report.per_command.values())

    def test_every_reqs_round_goes_through_fire_round(self, spec, model, monkeypatch):
        calls = []
        real = engine.fire_round
        monkeypatch.setattr(engine, "fire_round",
                            lambda *args: calls.append(args) or real(*args))
        assert equivalence_report(spec, model).passed
        # the 17 runs' 322 rounds, each one called by the run loop
        assert len(calls) == 322
        assert all(args[0] is model and args[2] is None for args in calls)

    def test_broken_self_loop_fails_with_a_state_entry(self, spec):
        mutated = mutate_table(spec, "SPI_TX_FINISH", "send_packet_1",
                               "receive_packet_21")
        mutated_model, _ = generate_model(mutated)
        report = equivalence_report(mutated, mutated_model, max_rounds=120)
        assert not report.passed
        assert any(e.field == "state"
                   for entries in report.per_command.values() for e in entries)

    def test_zero_round_budget_rejected(self, spec, model):
        with pytest.raises(ValueError):
            equivalence_report(spec, model, max_rounds=0)

    def test_a_retargeted_arrow_renders_each_difference(self, spec, model):
        import json

        reqs = model.requirements
        [at] = [i for i, r in enumerate(reqs) if r.title == "set_vLED to send_packet_6"]
        wrong = reqs[at]._replace(effects=(ModeAssign(STATE_COMPONENT, "send_packet_3"),))
        report = equivalence_report(spec, model._replace(
            requirements=(*reqs[:at], wrong, *reqs[at + 1:])))
        assert not report.passed
        entries = report.per_command["LED_ON_C"]
        assert len(entries) == 12
        lines = report.render_markdown().splitlines()
        start = lines.index("- `LED_ON_C`: FAIL (12 differences); ops: cmd_finish, "
                            "no violations; reqs: cmd_finish, no violations")
        # one line per difference, the length entry first, then the next command
        differences = lines[start + 1:start + 13]
        assert differences[:2] == [
            "    - round 12, length: ops=21 reqs=12",
            "    - round 3, state: ops='send_packet_6' reqs='send_packet_3'"]
        assert all(line.startswith("    - round ") for line in differences)
        assert lines[start + 13].startswith("- `MEM_LEN_C`: PASS")
        assert json.loads(report.render_json())["commands"]["LED_ON_C"] == [
            {"round": e.round, "field": e.field, "left": e.left, "right": e.right}
            for e in entries]

    def test_the_run_functions_are_looked_up_at_call_time(self, spec, model,
                                                          monkeypatch):
        import candofsm.opmodel as opmodel
        import candofsm.reqs.engine as engine

        seen = []
        for module, name in ((opmodel, "run"), (engine, "run_requirements_trace")):
            def recorder(*args, original=getattr(module, name)):
                seen.append(original(*args))
                return seen[-1]
            monkeypatch.setattr(module, name, recorder)
        assert equivalence_report(spec, model, max_rounds=500).passed
        assert sorted((t.engine, t.command) for t in seen) == sorted(
            (e, cmd) for e in ("ops", "reqs") for cmd in spec.roster.command_names)

    def test_report_renders_deterministically(self, spec, model):
        first = equivalence_report(spec, model, max_rounds=500)
        second = equivalence_report(spec, model, max_rounds=500)
        assert first.render_markdown() == second.render_markdown()
        assert first.render_json() == second.render_json()
        assert "Overall: PASS" in first.render_markdown()

    def test_json_rendering_is_machine_readable(self, spec, model):
        import json

        report = equivalence_report(spec, model, max_rounds=500)
        payload = json.loads(report.render_json())
        assert payload["passed"] is True
        assert len(payload["commands"]) == 17
        assert payload["outcomes"]["LED_ON_C"] == {
            "passed": True,
            "ops": {"reason": "cmd_finish", "violations": []},
            "reqs": {"reason": "cmd_finish", "violations": []},
        }

    def test_a_report_that_compared_nothing_fails(self):
        import json

        report = EquivalenceReport(per_command={}, max_rounds=10, outcomes={})
        assert not report.passed
        assert report.render_markdown().endswith("\nOverall: FAIL\n")
        assert json.loads(report.render_json())["passed"] is False

    def test_a_spec_without_commands_gives_a_failing_report(self, spec):
        # check_roster refuses such a spec; the report fails on its own too
        no_commands = dataclasses.replace(
            spec, roster=spec.roster._replace(commands=()), dispatch={})
        report = equivalence_report(no_commands, generate_model(no_commands)[0])
        assert report.per_command == {}
        assert not report.passed

    def test_each_run_keeps_its_stop_reason_and_violations(self, spec, model):
        report = equivalence_report(spec, model, max_rounds=500)
        assert set(report.outcomes) == set(spec.roster.command_names)
        assert all(ops == reqs == RunOutcome("cmd_finish", ())
                   for ops, reqs in report.outcomes.values())

    def test_budget_stops_fail_even_when_the_rows_agree(self, spec, model):
        report = equivalence_report(spec, model, max_rounds=5)
        assert all(not entries for entries in report.per_command.values())
        assert not report.passed
        assert "Overall: FAIL" in report.render_markdown()

    @pytest.mark.parametrize("ops, reqs", [
        (RunOutcome("cmd_finish", ()), RunOutcome("cmd_finish", ("MONITOR",))),
        (RunOutcome("cmd_finish", ("POST",)), RunOutcome("cmd_finish", ())),
        (RunOutcome("budget", ()), RunOutcome("cmd_finish", ())),
        (RunOutcome("budget", ()), RunOutcome("budget", ())),
    ])
    def test_violations_and_stop_reasons_decide_the_verdict(self, ops, reqs):
        report = EquivalenceReport(per_command={"A_C": ()}, max_rounds=10,
                                   outcomes={"A_C": (ops, reqs)})
        assert not report.passed
        assert "- `A_C`: FAIL; ops: " in report.render_markdown()
        agreeing = EquivalenceReport(
            per_command={"A_C": ()}, max_rounds=10,
            outcomes={"A_C": (RunOutcome("cmd_finish", ()), RunOutcome("cmd_finish", ()))})
        assert agreeing.passed


class TestEnvOf:
    def test_the_env_of_each_nominal_state_has_its_row_as_cells(self, spec, model):
        rows = 0
        for cmd in spec.roster.command_names:
            states = [init_model(spec, cmd)]
            while not states[-1].command_finish_flag:
                states.append(ops_round(spec, states[-1]).next)
            assert env_of(model, states[0]) == initial_env(model, {"current_command": cmd})
            for n, m in enumerate(states):
                assert _env_cells(env_of(model, m), n) == _snapshot(m, n)[:-1], (cmd, n)
            rows += len(states)
        assert rows == sum(len(trace.rows) for trace in ops_traces(spec)) == 339

    def test_a_shadow_holds_its_columns_cell(self, model):
        m = ModelState("send_packet_1", "CONT", "LED_ON_C", bytes_sent=2, bytes_received=1,
                       tx_cnt=2)
        signals = env_of(model, m).signals
        assert (signals["next_bytes_sent"], signals["next_bytes_received"],
                signals["next_tx_cnt"]) == (2, 1, 2)

    def test_a_hand_model_gets_only_the_records_it_declares(self):
        model = parse_model("signal bytes_sent : int min=0 max=3 init=0\n")
        env = env_of(model, ModelState("get_cmd", "CONT", "LED_ON_C", bytes_sent=2))
        assert (env.signals, env.modes) == ({"bytes_sent": 2}, {})

    def test_a_cell_its_signal_does_not_admit_raises(self, model):
        with pytest.raises(ModelError, match="'current_event': 'BOGUS' is not a member"):
            env_of(model, ModelState("get_cmd", "BOGUS", "LED_ON_C"))
