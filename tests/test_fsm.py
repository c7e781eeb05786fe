from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candofsm.fsm import (
    CONT,
    GET_CMD_E,
    KIND_NAME_PREFIX,
    MissingTransition,
    SPI_RX_FINISH,
    SPI_TX_FINISH,
    StateKind,
    UnknownState,
    Violation,
    check_cando,
    check_dispatch,
    check_finish,
    check_roster,
    check_statemap,
    check_totality,
    lookup_next,
)
from candofsm.generate import generate_model
from candofsm.trace import equivalence_report
from conftest import mutate_table


def codes(violations):
    return [v.constraint_id for v in violations]


class TestClassify:
    def test_stage_one_creator(self, spec):
        assert spec.roster.kind_of("set_vLED") is StateKind.CREATOR_STAGE1

    def test_stage_two_creator(self, spec):
        assert spec.roster.kind_of("set_sDac") is StateKind.CREATOR_STAGE2

    def test_error_state(self, spec):
        assert spec.roster.kind_of("error_") is StateKind.ERROR

    def test_unknown_state(self, spec):
        with pytest.raises(UnknownState):
            spec.roster.kind_of("no_such_state")


class TestLookupNext:
    def test_vled_chain_entry(self, spec):
        assert lookup_next(spec.fsm, CONT, "set_vLED") == "send_packet_6"

    def test_send3_pairs_with_receive27(self, spec):
        assert lookup_next(spec.fsm, CONT, "send_packet_3") == "receive_packet_27"

    def test_documented_continue_chain_is_pinned(self, spec):
        pinned = {
            "set_vLED": "send_packet_6",
            "send_packet_6": "receive_packet_28",
            "receive_packet_28": "set_sDac",
            "set_sDac": "send_packet_3",
            "send_packet_3": "receive_packet_27",
            "receive_packet_27": "cmd_finish",
        }
        for frm, to in pinned.items():
            assert lookup_next(spec.fsm, CONT, frm) == to

    def test_send_self_loop(self, spec):
        assert lookup_next(spec.fsm, "SPI_TX_FINISH", "send_packet_6") == "send_packet_6"

    def test_missing_transition(self, spec):
        with pytest.raises(MissingTransition):
            lookup_next({}, CONT, "start")
        with pytest.raises(MissingTransition):
            lookup_next({CONT: {}}, CONT, "start")


class TestCheckStatemap:
    def test_get_cmd_to_start_fires_both_rules(self, spec):
        violations = check_statemap(spec.roster, {"get_cmd": "start"})
        assert codes(violations) == ["C1.1", "C1.8"]

    def test_empty_map_is_vacuously_fine(self, spec):
        assert check_statemap(spec.roster, {}) == []

    def test_cmd_finish_to_get_cmd(self, spec):
        violations = check_statemap(spec.roster, {"cmd_finish": "get_cmd"})
        assert codes(violations) == ["C1.5"]

    def test_receive_self_loop_is_admitted(self, spec):
        assert check_statemap(
            spec.roster, {"receive_packet_21": "receive_packet_21"}) == []

    def test_unknown_state_raises(self, spec):
        with pytest.raises(UnknownState):
            check_statemap(spec.roster, {"nowhere": "start"})

    def test_bundled_maps_all_pass(self, spec):
        for ev in spec.roster.event_names:
            assert check_statemap(spec.roster, spec.fsm[ev], event=ev) == []

    def test_idmap_on_send_states_never_targets_start(self, spec):
        sends = spec.roster.states_of_kind(StateKind.SEND)
        identity = {s: s for s in sends}
        assert all(frm == to for frm, to in identity.items())
        assert "C1.1" not in codes(check_statemap(spec.roster, identity))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_passing_map_passes_on_any_key_subset(self, spec, data):
        base = spec.fsm[CONT]
        keys = data.draw(st.sets(st.sampled_from(sorted(base))))
        restricted = {k: base[k] for k in keys}
        assert check_statemap(spec.roster, restricted) == []


class TestCheckTotality:
    def test_bundled_table_is_total(self, spec):
        assert check_totality(spec.roster, spec.fsm) == []

    def test_missing_event_reported(self, spec):
        fsm = {e: m for e, m in spec.fsm.items() if e != CONT}
        violations = check_totality(spec.roster, fsm)
        assert len(violations) == 1
        assert violations[0].event == CONT

    def test_missing_state_entry_reported(self, spec):
        mutated = mutate_table(spec, CONT, "LED_off", None)
        violations = check_totality(mutated.roster, mutated.fsm)
        assert len(violations) == 1
        assert (violations[0].event, violations[0].from_state) == (CONT, "LED_off")

    def test_totality_message_cites_both_readings(self, spec):
        fsm = {e: m for e, m in spec.fsm.items() if e != CONT}
        [violation] = check_totality(spec.roster, fsm)
        assert "event" in violation.message and "states" in violation.message


class TestCheckCando:
    def test_bundled_table_passes(self, spec):
        assert check_cando(spec.roster, spec.fsm) == []

    def test_send_to_creator_breaks_c2(self, spec):
        mutated = mutate_table(spec, CONT, "send_packet_6", "set_sDac")
        assert codes(check_cando(mutated.roster, mutated.fsm)) == ["C2"]

    def test_error_to_chip_rst_is_sanctioned(self, spec):
        # the reset hand-off takes precedence over the stay-in-error class rule
        assert spec.fsm[CONT]["error_"] == "chip_rst"
        assert check_cando(spec.roster, spec.fsm) == []

    def test_self_loop_laws_hold_on_checked_tables(self, spec):
        for s in spec.roster.states_of_kind(StateKind.SEND):
            assert lookup_next(spec.fsm, "SPI_TX_FINISH", s) == s
        for r in spec.roster.states_of_kind(StateKind.RECEIVE):
            assert lookup_next(spec.fsm, "SPI_RX_FINISH", r) == r


class TestCheckDispatch:
    def test_bundled_dispatch_passes(self, spec):
        assert check_dispatch(spec.roster, spec.dispatch) == []

    def test_only_stage_one_creators_and_error_are_targets(self, spec):
        dispatch = {**spec.dispatch, "LED_ON_C": "cmd_finish", "LED_OFF_C": "error_"}
        assert check_dispatch(spec.roster, dispatch) == [Violation(
            "C1.8", event=CONT, from_state="get_cmd", to_state="cmd_finish",
            message="dispatch of 'LED_ON_C': 'get_cmd' maps only to stage-one "
                    "creator states or 'error_'")]

    def test_a_command_without_dispatch_leaves_out_get_cmds_entry(self, spec):
        dispatch = {cmd: st for cmd, st in spec.dispatch.items()
                    if cmd not in ("LED_ON_C", "DUMMY_C")}
        assert check_dispatch(spec.roster, dispatch) == [
            Violation("TOTALITY", event=CONT, from_state="get_cmd",
                      message=f"command {cmd!r} has no dispatch entry, so "
                              "'get_cmd' has no CONT entry for it")
            for cmd in ("LED_ON_C", "DUMMY_C")]


def closure(fsm, origin, events):
    """The states a breadth-first sweep over ``events`` reaches from ``origin``."""
    frontier, seen = {origin}, set()
    while frontier:
        state = frontier.pop()
        seen.add(state)
        frontier |= {fsm[ev][state] for ev in events} - seen
    return seen


class TestReachable:
    def test_vled_chain_under_cont(self, spec):
        assert closure(spec.fsm, "set_vLED", {CONT}) >= {
            "send_packet_6", "receive_packet_28", "set_sDac",
            "send_packet_3", "receive_packet_27", "cmd_finish",
        }

    def test_every_state_reachable_from_start(self, spec):
        covered = closure(spec.fsm, "start", spec.roster.event_names)
        assert covered == set(spec.roster.state_names)


# Shipped-spec edits under which some command's fault-free walk cycles: a
# receive that loops back to a creator, and a dispatch into the error class.
NEVER_FINISHING = {
    "receive_packet_27 -> set_sDac": (
        lambda spec: mutate_table(spec, CONT, "receive_packet_27", "set_sDac"),
        {"LED_ON_C":
             "set_vLED -> send_packet_6 -> receive_packet_28 -> set_sDac -> "
             "send_packet_3 -> receive_packet_27 -> set_sDac",
         "SET_DAC_C":
             "set_vLED -> send_packet_6 -> receive_packet_28 -> set_sDac -> "
             "send_packet_3 -> receive_packet_27 -> set_sDac",
         "FS_RATIO_C":
             "set_fsRatio -> send_packet_8 -> receive_packet_26 -> set_fData -> "
             "send_packet_3 -> receive_packet_27 -> set_sDac -> send_packet_3"}),
    "dispatch LED_ON_C -> error_": (
        lambda spec: dataclasses.replace(
            spec, dispatch={**spec.dispatch, "LED_ON_C": "error_"}),
        {"LED_ON_C": "error_ -> chip_rst -> get_cmd -> error_"}),
}


class TestCheckFinish:
    def test_every_shipped_command_finishes(self, spec):
        assert check_finish(spec.fsm, spec.dispatch) == []

    @pytest.mark.parametrize("variant", sorted(NEVER_FINISHING))
    def test_a_walk_that_repeats_a_state_is_reported_with_its_path(self, spec, variant):
        edit, paths = NEVER_FINISHING[variant]
        spec = edit(spec)
        assert check_finish(spec.fsm, spec.dispatch) == [
            Violation("FINISH", message=f"command {cmd!r} never reaches 'cmd_finish': "
                                        f"{paths[cmd]}")
            for cmd in spec.roster.command_names if cmd in paths]
        # the edit breaks no other rule
        assert check_cando(spec.roster, spec.fsm) == []
        assert check_dispatch(spec.roster, spec.dispatch) == []

    @pytest.mark.parametrize("variant", sorted(NEVER_FINISHING))
    def test_the_flagged_commands_are_those_both_engines_stop_by_budget(
            self, spec, variant):
        edit, paths = NEVER_FINISHING[variant]
        spec = edit(spec)
        report = equivalence_report(spec, generate_model(spec)[0])
        assert set(paths) == {cmd for cmd, outcomes in report.outcomes.items()
                              if {run.reason for run in outcomes} == {"budget"}}
        assert set(paths) == {cmd for cmd in report.per_command
                              if not report.command_passed(cmd)}

    def test_a_command_without_dispatch_or_a_missing_entry_is_left_to_totality(
            self, spec):
        dispatch = {cmd: st for cmd, st in spec.dispatch.items() if cmd != "LED_ON_C"}
        assert check_finish(spec.fsm, dispatch) == []
        spec = mutate_table(spec, CONT, "receive_packet_28", None)
        assert check_finish(spec.fsm, spec.dispatch) == []


class TestViolationOrdering:
    def test_sorted_by_catalogue_then_location(self):
        violations = [
            Violation("C2", event="CONT", from_state="b"),
            Violation("C1.1", event="CONT", from_state="z"),
            Violation("C2", event="CONT", from_state="a"),
            Violation("TOTALITY", event="CONT"),
        ]
        ordered = sorted(violations, key=Violation.sort_key)
        assert [v.constraint_id for v in ordered] == ["C1.1", "C2", "C2", "TOTALITY"]
        assert [v.from_state for v in ordered[1:3]] == ["a", "b"]

    def test_checkers_are_deterministic(self, spec):
        mutated = mutate_table(spec, CONT, "send_packet_6", "set_sDac")
        first = check_cando(mutated.roster, mutated.fsm)
        second = check_cando(mutated.roster, mutated.fsm)
        assert first == second


class TestRolePredicates:
    def test_roster_check_passes_on_bundled(self, spec):
        assert check_roster(spec.roster) == []

    def test_roster_check_flags_a_roster_without_commands(self, spec):
        assert check_roster(spec.roster._replace(commands=())) == [Violation(
            "ROSTER", message="the roster has no command, so nothing can be run or "
                              "compared")]

    @pytest.mark.parametrize("state, kind, event, violation", [
        ("get_cmd", StateKind.SEND, None, Violation(
            "ROSTER", from_state="get_cmd", message="state 'get_cmd' must carry kind control")),
        ("chip_rst", StateKind.RECEIVE, None, Violation(
            "ROSTER", from_state="chip_rst", message="state 'chip_rst' must carry kind error")),
        ("chip_rst", None, None, Violation(
            "ROSTER", from_state="chip_rst",
            message="distinguished state 'chip_rst' missing from roster")),
        (None, None, GET_CMD_E, Violation(
            "ROSTER", event=GET_CMD_E,
            message="distinguished event 'GET_CMD_E' missing from roster")),
    ], ids=["control-as-send", "error-as-receive", "no-chip_rst", "no-GET_CMD_E"])
    def test_roster_check_flags_each_distinguished_member(self, spec, state, kind, event,
                                                          violation):
        # a state given a kind, or dropped when the kind is None; an event dropped
        roster = spec.roster
        states = tuple(s._replace(kind=kind) if s.name == state else s
                       for s in roster.states if s.name != state or kind is not None)
        events = tuple(e for e in roster.events if e.name != event)
        assert check_roster(roster._replace(states=states, events=events)) == [violation]

    def test_roster_check_reserves_the_kind_name_prefix(self, spec):
        renamed = spec.roster._replace(states=tuple(
            s._replace(name=f"{KIND_NAME_PREFIX}{s.name}") if s.name == "set_vLED" else s
            for s in spec.roster.states))
        assert check_roster(renamed) == [Violation(
            "ROSTER", from_state="kind_set_vLED",
            message="state 'kind_set_vLED': the prefix 'kind_' is reserved for the "
                    "generated kind-level names")]


class TestEveryCheckerOutcome:
    """Every outcome of the per-entry, event and dispatch checkers on the
    shipped roster, pinned by hash: a rewrite of a checker must keep each
    rule's verdict, event, states, message and order."""

    @staticmethod
    def digest(outcomes) -> str:
        rendered = [[(v.constraint_id, v.event, v.from_state, v.to_state, v.message)
                     for v in violations] for violations in outcomes]
        return hashlib.sha256(repr(rendered).encode("utf-8")).hexdigest()

    def test_check_statemap_on_every_state_pair(self, spec):
        states = spec.roster.state_names
        outcomes = [check_statemap(spec.roster, {frm: to}, event=CONT)
                    for frm in states for to in states]
        assert sum(map(len, outcomes)) == 720
        assert self.digest(outcomes) == \
            "48f4afdfb343ec14f93ba6b022d29adb4da1398b0cf7e06e936d41ebfe645565"

    def test_check_cando_on_every_one_entry_change(self, spec):
        states, fsm = spec.roster.state_names, spec.fsm
        outcomes = [check_cando(spec.roster, {**fsm, ev: {**fsm[ev], frm: to}})
                    for ev in (CONT, SPI_TX_FINISH, SPI_RX_FINISH, GET_CMD_E)
                    for frm in states for to in states]
        assert sum(map(len, outcomes)) == 1530
        assert self.digest(outcomes) == \
            "69627ec484b119635313e5a0a810a891ee1afe5ef21ba14f24c88b12854b2b18"

    def test_check_dispatch_on_every_single_command_retarget(self, spec):
        outcomes = [check_dispatch(spec.roster, {**spec.dispatch, cmd: to})
                    for cmd in spec.roster.command_names
                    for to in spec.roster.state_names]
        assert sum(map(len, outcomes)) == 425
        assert self.digest(outcomes) == \
            "5b3e9479875e24e3be7741cbe24e5e6cd6b069a839dbba9b23aa53e0bda8e385"

    def test_a_plain_creator_on_every_state_pair_and_cont_change(self, spec):
        # the shipped roster has no plain ``creator``: make set_vLED one
        roster = spec.roster._replace(states=tuple(
            s._replace(kind=StateKind.CREATOR) if s.name == "set_vLED" else s
            for s in spec.roster.states))
        states, fsm = roster.state_names, spec.fsm
        outcomes = [check_statemap(roster, {frm: to}, event=CONT)
                    for frm in states for to in states]
        outcomes += [check_cando(roster, {**fsm, CONT: {**fsm[CONT], frm: to}})
                     for frm in states for to in states]
        outcomes += [check_dispatch(roster, {**spec.dispatch, "LED_ON_C": to})
                     for to in states]
        assert sum(map(len, outcomes)) == 1683
        assert self.digest(outcomes) == \
            "dbe1f230efb616eef5da06b19f82cd074c2b074da5cd2fc5420cef7e9b63fb7b"
