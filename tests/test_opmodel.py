from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import re
from collections import Counter

import pytest

from candofsm import opmodel
from candofsm.fsm import (
    CONT,
    GET_CMD,
    MAX_COUNT,
    PACKET_LENGTH,
    MissingPacketTemplate,
    MissingTransition,
    StateDef,
    StateKind,
    UnknownCommand,
    UnknownState,
    lookup_next,
)
from candofsm.opmodel import (
    ModelState,
    StepOutcome,
    _op_contract,
    init_model,
    ops_round,
    run,
    step,
)
from candofsm.reqs.engine import env_of
from candofsm.reqs.model import ModelError
from candofsm.specio import Packet
from candofsm.trace import RunError
from conftest import OPS_GRID_SHA256, mutate_table


def distinct_states(trace):
    out = []
    for row in trace.rows:
        if not out or out[-1] != row.state:
            out.append(row.state)
    return out


def reference_update(spec, m, st):
    """The fields the operation of ``st`` changes on machine ``m``, and the
    operation's name: each kind's update written out by hand as a test
    oracle for ``step`` and ``ops_round``."""
    kind = spec.roster.kind_of(st)
    if st in ("start", "get_cmd", "error_") or (
            st != "chip_rst" and kind is StateKind.ERROR):
        name = {"start": "start_idle", "get_cmd": "get_command"}.get(st, "error_idle")
        return {"current_event": CONT}, name
    if st == "cmd_finish":
        return {"command_finish_flag": True, "current_event": CONT}, "finish_command"
    if st == "chip_rst":
        return {"command_finish_flag": False, "optrode_tx_finish": False,
                "optrode_rx_finish": False, "packet": None, "bytes_sent": 0,
                "bytes_received": 0, "tx_cnt": 0, "current_event": "GET_CMD_E"}, "chip_reset"
    if kind is StateKind.SEND:
        if m.bytes_sent < PACKET_LENGTH:
            return {"bytes_sent": m.bytes_sent + 1,
                    "current_event": "SPI_TX_FINISH"}, "send_packet"
        return {"bytes_sent": 0, "optrode_tx_finish": True,
                "tx_cnt": min(m.tx_cnt + 1, MAX_COUNT), "current_event": CONT}, "send_packet"
    if kind is StateKind.RECEIVE:
        if m.bytes_received < PACKET_LENGTH:
            return {"bytes_received": m.bytes_received + 1,
                    "current_event": "SPI_RX_FINISH"}, "receive_packet"
        return {"bytes_received": 0, "optrode_rx_finish": True,
                "current_event": CONT}, "receive_packet"
    template = spec.packets[st]
    if kind is StateKind.CREATOR_STAGE2:
        base = m.packet or Packet()
        return {"packet": Packet(base.addr, base.cmd, template.data),
                "current_event": CONT}, "set_packet_data"
    assert kind in (StateKind.CREATOR_STAGE1, StateKind.CREATOR), (st, kind)
    cmd = m.current_command if template.cmd is None else template.cmd
    return {"packet": Packet(template.addr, cmd, template.data),
            "current_event": CONT}, "create_packet"


class TestInit:
    def test_starts_in_start_with_cont_pending(self, spec):
        m = init_model(spec, "LED_ON_C")
        assert m.current_state == "start"
        assert m.current_event == "CONT"
        assert m.current_command == "LED_ON_C"

    def test_counters_and_packet_are_clear(self, spec):
        m = init_model(spec, "LED_ON_C")
        assert (m.bytes_sent, m.bytes_received, m.tx_cnt) == (0, 0, 0)
        assert m.packet is None
        assert not (m.command_finish_flag or m.optrode_tx_finish
                    or m.optrode_rx_finish)

    def test_unknown_command_rejected(self, spec):
        with pytest.raises(UnknownCommand):
            init_model(spec, "NO_SUCH_C")

    def test_counter_bounds_enforced_on_construction(self, spec):
        with pytest.raises(ValueError):
            init_model(spec, "LED_ON_C")._replace(bytes_sent=4)
        with pytest.raises(ValueError):
            init_model(spec, "LED_ON_C")._replace(tx_cnt=3)
        for counter, bad in itertools.product(
                ("bytes_sent", "bytes_received", "tx_cnt"), (-1, PACKET_LENGTH + 1)):
            with pytest.raises(ValueError, match=counter):
                ModelState("start", CONT, "LED_ON_C", **{counter: bad})

    def test_copying_and_unpickling_rebuild_through_the_checks(self, spec):
        m = init_model(spec, "LED_ON_C")._replace(bytes_sent=2, tx_cnt=1)
        # a tuple built past __new__, as only a test does, holds a bad count
        bad = tuple.__new__(ModelState, m[:8] + (PACKET_LENGTH + 1,) + m[9:])
        rebuilds = [copy.copy, copy.deepcopy, ModelState._make] + [
            lambda r, p=p: pickle.loads(pickle.dumps(r, p))
            for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for rebuild in rebuilds:
            again = rebuild(m)
            assert again == m and type(again) is ModelState
            with pytest.raises(ValueError, match="bytes_sent out of range"):
                rebuild(bad)

    def test_a_counter_that_is_not_an_int_is_refused(self, spec, model):
        # a float or a bool passes a range check; initial_env refuses both,
        # so a machine refuses them too, however it is built
        m = init_model(spec, "LED_ON_C")
        for i, bad in itertools.product((7, 8, 9), (1.5, True)):
            counter = ModelState._fields[i]
            message = f"^{counter} is not an int: {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                ModelState("send_packet_1", CONT, "LED_ON_C", **{counter: bad})
            with pytest.raises(TypeError, match=message):
                m._replace(**{counter: bad})
            # a tuple built past __new__, as only a test does
            held = tuple.__new__(ModelState, m[:i] + (bad,) + m[i + 1:])
            for p in range(pickle.HIGHEST_PROTOCOL + 1):
                with pytest.raises(TypeError, match=message):
                    pickle.loads(pickle.dumps(held, p))
            with pytest.raises(ModelError, match=f"^override of signal '{counter}': "
                                                 f"{re.escape(repr(bad))} is not an int$"):
                env_of(model, held)


class TestStateOperation:
    """A state's operation, run through ``step``: every field of ``next``
    but ``current_state`` is the operation's."""

    def at(self, spec, state, **fields):
        m = init_model(spec, "LED_ON_C")
        return m._replace(current_state=state, **fields)

    def test_send_in_progress_counts_and_requests_tx(self, spec):
        out = step(spec, self.at(spec, "send_packet_6", bytes_sent=2))
        assert (out.next.bytes_sent, out.next.current_event) == (3, "SPI_TX_FINISH")
        assert out.fired_op == "send_packet"

    def test_send_completion_raises_flag_and_counts_transmission(self, spec):
        m = step(spec, self.at(spec, "send_packet_6", bytes_sent=PACKET_LENGTH)).next
        assert m.bytes_sent == 0
        assert m.optrode_tx_finish
        assert m.tx_cnt == 1
        assert m.current_event == "CONT"

    def test_transmission_count_saturates(self, spec):
        m = step(spec, self.at(spec, "send_packet_6", bytes_sent=PACKET_LENGTH,
                               tx_cnt=MAX_COUNT)).next
        assert m.tx_cnt == MAX_COUNT

    def test_receive_mirrors_send_without_a_counter(self, spec):
        m = step(spec, self.at(spec, "receive_packet_28", bytes_received=1)).next
        assert (m.bytes_received, m.current_event) == (2, "SPI_RX_FINISH")
        m = step(spec, self.at(spec, "receive_packet_28",
                               bytes_received=PACKET_LENGTH)).next
        assert m.bytes_received == 0
        assert m.optrode_rx_finish
        assert m.tx_cnt == 0

    def test_stage_one_instantiates_the_template_with_the_command(self, spec):
        m = step(spec, self.at(spec, "set_vLED")).next
        assert m.packet == Packet(addr="Optrode_addr", cmd="LED_ON_C",
                                  data="LED_addr")

    def test_stage_two_only_touches_the_data_field(self, spec):
        before = self.at(spec, "set_sDac",
                         packet=Packet("Optrode_addr", "LED_ON_C", "LED_addr"))
        m = step(spec, before).next
        assert m.packet == Packet("Optrode_addr", "LED_ON_C", "DAC_value")

    def test_cmd_finish_raises_the_flag(self, spec):
        m = step(spec, self.at(spec, "cmd_finish")).next
        assert m.command_finish_flag
        assert m.current_event == "CONT"

    def test_chip_rst_clears_everything_and_requests_get_cmd(self, spec):
        dirty = self.at(spec, "chip_rst", bytes_sent=2, tx_cnt=1,
                        optrode_tx_finish=True,
                        packet=Packet("Optrode_addr", None, None))
        m = step(spec, dirty).next
        assert (m.bytes_sent, m.bytes_received, m.tx_cnt) == (0, 0, 0)
        assert m.packet is None
        assert not m.optrode_tx_finish
        assert m.current_event == "GET_CMD_E"

    def test_the_contract_reports_a_send_that_ends_in_the_wrong_event(self, spec):
        before = self.at(spec, "send_packet_6", bytes_sent=1)
        [violation] = _op_contract("send_packet_6", StateKind.SEND, before,
                                   CONT, before.tx_cnt)
        assert violation.constraint_id == "POST"
        assert violation.message == ("operation of 'send_packet_6' must end in event "
                                     "'SPI_TX_FINISH', got 'CONT'")
        # a completed send that does not count its transmission
        before = self.at(spec, "send_packet_6", bytes_sent=PACKET_LENGTH, tx_cnt=0)
        [violation] = _op_contract("send_packet_6", StateKind.SEND, before, CONT, 0)
        assert violation.constraint_id == "POST"
        assert violation.message == ("operation of 'send_packet_6' must leave "
                                     "tx_cnt at 1, got 0")

    def test_both_rounds_check_the_contract_of_the_operation_they_run(self, spec):
        # a copy's table entry for send_packet_6 swapped for an operation
        # that finishes a send without counting it
        lazy = dataclasses.replace(spec)
        kind, fired, send = opmodel._entry(lazy, "send_packet_6")

        def uncounted(m):
            return send(m)[:8] + (m.tx_cnt,)

        lazy.__dict__["_operations"]["send_packet_6"] = kind, fired, uncounted
        breach = "operation of 'send_packet_6' must leave tx_cnt at 1, got 0"
        sending = self.at(lazy, "send_packet_6", bytes_sent=PACKET_LENGTH)
        entering = self.at(lazy, "set_vLED", bytes_sent=PACKET_LENGTH)
        for round_fn, m in ((step, sending), (ops_round, entering)):
            outcome = round_fn(lazy, m)
            assert outcome.next.tx_cnt == 0, round_fn.__name__
            assert [(v.constraint_id, v.message) for v in outcome.post_violations] \
                == [("POST", breach)], round_fn.__name__
            assert round_fn(spec, m).post_violations == (), round_fn.__name__


class TestStep:
    def at(self, spec, state, **fields):
        return init_model(spec, "LED_ON_C")._replace(current_state=state, **fields)

    def test_stage_one_moves_to_its_send_state(self, spec):
        outcome = step(spec, self.at(spec, "set_vLED"))
        assert outcome.next.current_state == "send_packet_6"
        assert outcome.post_violations == ()

    def test_send_in_progress_self_loops(self, spec):
        outcome = step(spec, self.at(spec, "send_packet_6", bytes_sent=1))
        assert outcome.next.current_state == "send_packet_6"

    def test_completed_receive_moves_to_cmd_finish(self, spec):
        outcome = step(spec, self.at(spec, "receive_packet_27",
                                     bytes_received=PACKET_LENGTH))
        assert outcome.next.current_state == "cmd_finish"

    def test_get_cmd_consults_the_dispatch_table(self, spec):
        for cmd, target in spec.dispatch.items():
            m = init_model(spec, cmd)._replace(current_state="get_cmd")
            assert step(spec, m).next.current_state == target

    def test_step_and_ops_round_equal_the_two_updates_over_the_full_state(self, spec):
        # every state x event x bytes_sent x bytes_received x tx_cnt; the
        # command, the three flags and the packet vary with the case index.
        # The expected states come from reference_update through
        # _replace, sharing no code with the operation table.
        def target(st, event, command):
            if st == GET_CMD and event == CONT:
                return spec.dispatch[command]
            return lookup_next(spec.fsm, event, st)

        commands = spec.roster.command_names
        counter = range(PACKET_LENGTH + 1)
        cases = 0
        wrong = []
        for i, (st, ev, sent, received, tx) in enumerate(itertools.product(
                spec.roster.state_names, spec.roster.event_names, counter, counter,
                range(MAX_COUNT + 1))):
            command = commands[i % len(commands)]
            m = ModelState(
                current_state=st, current_event=ev, current_command=command,
                command_finish_flag=bool(i & 1), optrode_tx_finish=bool(i & 2),
                optrode_rx_finish=bool(i & 4),
                packet=Packet("Optrode_addr", command, "LED_addr") if i & 8 else None,
                bytes_sent=sent, bytes_received=received, tx_cnt=tx)
            changes, fired = reference_update(spec, m, st)
            moved = target(st, changes["current_event"], command)
            want_step = StepOutcome(m._replace(current_state=moved, **changes), fired)
            entered = target(st, ev, command)
            changes, fired = reference_update(spec, m, entered)
            want_round = StepOutcome(m._replace(current_state=entered, **changes), fired)
            if step(spec, m) != want_step:
                wrong.append(("step", m))
            if ops_round(spec, m) != want_round:
                wrong.append(("ops_round", m))
            cases += 1
        assert cases == 34 * 21 * 4 * 4 * 3 == 34_272
        assert not wrong, (len(wrong), wrong[:3])

    def test_the_operation_fails_before_the_move(self, spec):
        # set_vLED has neither a packet template nor a CONT entry: step
        # operates first, ops_round moves first
        stuck = mutate_table(spec, CONT, "set_vLED", None)
        broken = dataclasses.replace(stuck, packets={
            st: t for st, t in spec.packets.items() if st != "set_vLED"})
        with pytest.raises(MissingPacketTemplate) as failed:
            step(broken, self.at(broken, "set_vLED"))
        assert failed.value.state == "set_vLED"
        with pytest.raises(MissingTransition) as failed:
            ops_round(broken, self.at(broken, "set_vLED"))
        assert (failed.value.event, failed.value.state) == (CONT, "set_vLED")
        # with its template, set_vLED operates and then has nowhere to go
        with pytest.raises(MissingTransition) as failed:
            step(stuck, self.at(stuck, "set_vLED"))
        assert (failed.value.event, failed.value.state) == (CONT, "set_vLED")
        # get_cmd dispatches LED_ON_C to set_vLED, which then cannot operate
        with pytest.raises(MissingPacketTemplate) as failed:
            ops_round(broken, self.at(broken, GET_CMD))
        assert failed.value.state == "set_vLED"
        # an event with no row in the table at all
        rowless = dataclasses.replace(spec, fsm={
            e: row for e, row in spec.fsm.items() if e != "SPI_TX_FINISH"})
        sending = self.at(rowless, "send_packet_6", current_event="SPI_TX_FINISH")
        for round_fn in (step, ops_round):
            with pytest.raises(MissingTransition) as failed:
                round_fn(rowless, sending)
            assert (failed.value.event, failed.value.state) \
                == ("SPI_TX_FINISH", "send_packet_6"), round_fn.__name__

    def test_get_cmd_rejects_a_command_missing_from_dispatch(self, spec):
        broken = dataclasses.replace(spec, dispatch={
            cmd: st for cmd, st in spec.dispatch.items() if cmd != "LED_ON_C"})
        # get_cmd's operation leaves CONT for step; ops_round moves on CONT
        for round_fn in (step, ops_round):
            with pytest.raises(UnknownCommand) as failed:
                round_fn(broken, self.at(broken, GET_CMD))
            assert failed.value.name == "LED_ON_C", round_fn.__name__


class TestOperationTable:
    """Each spec instance binds its states' operations on first use."""

    def at(self, spec, state, **fields):
        return init_model(spec, "LED_ON_C")._replace(current_state=state, **fields)

    def test_a_copy_with_a_changed_template_builds_the_changed_packet(self, spec):
        shipped = step(spec, self.at(spec, "set_vLED")).next.packet
        assert shipped == Packet("Optrode_addr", "LED_ON_C", "LED_addr")
        changed = dataclasses.replace(spec, packets={
            **spec.packets, "set_vLED": Packet("Other_addr", None, "LED_addr")})
        assert step(changed, self.at(changed, "set_vLED")).next.packet \
            == Packet("Other_addr", "LED_ON_C", "LED_addr")
        assert step(spec, self.at(spec, "set_vLED")).next.packet is shipped

    def test_a_state_that_cannot_be_bound_raises_only_when_it_runs(self, spec):
        roster = spec.roster._replace(states=(
            *spec.roster.states, StateDef("idle", StateKind.CONTROL),
            StateDef("set_extra", StateKind.CREATOR_STAGE1)))
        extended = dataclasses.replace(spec, roster=roster)
        for cmd in spec.roster.command_names:
            assert run(extended, cmd, 500) == run(spec, cmd, 500)
        unhandled = "unhandled state kind StateKind.CONTROL for 'idle'"
        for _ in range(2):      # a state that failed to bind fails again
            with pytest.raises(AssertionError, match=unhandled):
                step(extended, self.at(extended, "idle"))
            with pytest.raises(MissingPacketTemplate):
                step(extended, self.at(extended, "set_extra"))
        for entered, error in (("idle", AssertionError),
                               ("set_extra", MissingPacketTemplate)):
            entering = mutate_table(extended, "EVT_6", "start", entered)
            with pytest.raises(error):
                ops_round(entering, self.at(entering, "start", current_event="EVT_6"))

    def test_each_state_is_bound_once_per_spec(self, spec, monkeypatch):
        fresh = dataclasses.replace(spec)       # a copy starts with no operation table
        bound, real = [], opmodel._entry

        def counted(spec_, st):
            bound.append((spec_, st))
            return real(spec_, st)

        monkeypatch.setattr(opmodel, "_entry", counted)
        commands = spec.roster.command_names
        # row 0 is init's state; every later row's state was entered by a round
        entered = {row.state for cmd in commands for row in run(fresh, cmd, 500).rows[1:]}
        assert Counter(st for _, st in bound) == Counter(entered)
        assert all(spec_ is fresh for spec_, _ in bound)
        bound.clear()
        for cmd in commands:
            run(fresh, cmd, 500)
        assert bound == []
        copy_ = dataclasses.replace(fresh)
        for cmd in commands:
            run(copy_, cmd, 500)
        assert Counter(st for _, st in bound) == Counter(entered)
        assert all(spec_ is copy_ for spec_, _ in bound)

    def test_a_state_outside_the_roster_is_unknown(self, spec):
        with pytest.raises(UnknownState):
            step(spec, self.at(spec, "no_such_state"))
        astray = mutate_table(spec, "EVT_6", "start", "no_such_state")
        with pytest.raises(UnknownState):
            ops_round(astray, self.at(astray, "start", current_event="EVT_6"))


class TestRun:
    def test_vled_dispatch_reproduces_the_valid_sequence(self, spec):
        trace = run(spec, "LED_ON_C", 500)
        assert distinct_states(trace) == [
            "start", "get_cmd", "set_vLED", "send_packet_6",
            "receive_packet_28", "set_sDac", "send_packet_3",
            "receive_packet_27", "cmd_finish",
        ]
        assert trace.reason == "cmd_finish"

    def test_counter_invariants_hold_on_every_row(self, spec):
        for cmd in spec.roster.command_names:
            for row in run(spec, cmd, 500).rows:
                assert 0 <= row.bytes_sent <= PACKET_LENGTH
                assert 0 <= row.bytes_received <= PACKET_LENGTH
                assert 0 <= row.tx_cnt <= MAX_COUNT

    def test_budget_of_one_yields_one_row(self, spec):
        trace = run(spec, "LED_ON_C", 1)
        assert len(trace.rows) == 1
        assert trace.reason == "budget"
        assert trace.rows[0].state == "start"

    def test_zero_budget_rejected(self, spec):
        with pytest.raises(ValueError):
            run(spec, "LED_ON_C", 0)

    def test_every_command_finishes_within_200_rounds(self, spec):
        for cmd in spec.roster.command_names:
            trace = run(spec, cmd, 500)
            assert trace.reason == "cmd_finish", cmd
            assert len(trace.rows) <= 200

    def test_runs_are_deterministic(self, spec):
        assert run(spec, "DIAG_DELAY_C", 500) == run(spec, "DIAG_DELAY_C", 500)

    def test_post_condition_contract_is_clean_on_the_bundled_spec(self, spec):
        for cmd in spec.roster.command_names:
            assert run(spec, cmd, 500).violations == ()

    def test_spi_rounds_hold_the_state(self, spec):
        # whenever a row carries an SPI completion event, the transition that
        # produced the next row was a self-loop
        for cmd in spec.roster.command_names:
            rows = run(spec, cmd, 500).rows
            for prev, cur in zip(rows, rows[1:]):
                if prev.event in ("SPI_TX_FINISH", "SPI_RX_FINISH"):
                    assert cur.state == prev.state

    def test_missing_transition_is_tagged_with_the_round(self, spec):
        broken = mutate_table(spec, "CONT", "set_vLED", None)
        with pytest.raises(RunError) as err:
            run(broken, "LED_ON_C", 500)
        assert err.value.round_no == 3
        assert (err.value.engine, err.value.command) == ("ops", "LED_ON_C")


def test_model_state_is_immutable(spec):
    m = init_model(spec, "LED_ON_C")
    assert vars(ModelState)["__slots__"] == ()
    # the states a round builds are as immutable, slotted and hashable as init's
    built = step(spec, m).next
    for state in (m, built):
        with pytest.raises(AttributeError):
            state.bytes_sent = 1
    # named tuples: no per-instance __dict__, and no field outside the class
    for record in (m, built, Packet(), step(spec, m)):
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.no_such_field = 1
    with pytest.raises(ValueError, match="no_such_field"):
        m._replace(no_such_field=1)
    same = init_model(spec, "LED_ON_C")
    assert same == m and same is not m and hash(same) == hash(m)
    again = step(spec, m).next
    assert again == built and again is not built and hash(again) == hash(built)


def counting_new(monkeypatch, cls) -> list:
    """Patch ``cls.__new__`` to append each record it builds to the list returned."""
    built = []
    new = cls.__new__

    def counted(cls_, *args, **kwargs):
        record = new(cls_, *args, **kwargs)
        built.append(record)
        return record

    monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    return built


def test_each_round_constructs_exactly_one_model_state(spec, monkeypatch):
    # the range checks live in _range_checked, which builds every
    # ModelState, so counting its calls also shows that they run on every
    # state a round builds
    starts = [init_model(spec, "LED_ON_C")._replace(current_state=st)
              for st in spec.roster.state_names]
    checked, real = [], opmodel._range_checked

    def counted(cls, cells):
        checked.append(real(cls, cells))
        return checked[-1]

    monkeypatch.setattr(opmodel, "_range_checked", counted)
    for cmd in spec.roster.command_names:
        checked.clear()
        trace = run(spec, cmd, 500)
        assert len(checked) == len(trace.rows), cmd
    for m in starts:
        for round_fn in (step, ops_round):
            checked.clear()
            outcome = round_fn(spec, m)
            assert len(checked) == 1 and checked[0] is outcome.next, (
                round_fn.__name__, m.current_state)


def test_each_creator_packet_is_built_once_and_then_shared(spec, monkeypatch):
    fresh = dataclasses.replace(spec)       # a copy starts with no operation table
    built = counting_new(monkeypatch, Packet)
    commands = fresh.roster.command_names
    # across the 17 runs, one packet per creator state and distinct result
    made = {(row.state, row.packet_addr, row.packet_cmd, row.packet_data)
            for cmd in commands for row in run(fresh, cmd, 500).rows
            if row.state in fresh.packets}
    # a plain tuple of the same cells would compare equal: check the type too
    assert built and Counter(built) == Counter(key[1:] for key in made)
    assert all(type(packet) is Packet for packet in built)
    # the same rounds again build nothing more
    seen = []
    for cmd in commands:
        m = init_model(fresh, cmd)
        while not m.command_finish_flag:
            before, m = m, ops_round(fresh, m).next
            if m.current_state in fresh.packets:
                seen.append((m.current_state, before.packet, cmd, m.packet))
    assert len(built) == len(made)
    monkeypatch.undo()
    # each shared packet is the one built by hand, and one object per key
    shared = {}
    for st, base, cmd, packet in seen:
        template = fresh.packets[st]
        if fresh.roster.kind_of(st) is StateKind.CREATOR_STAGE2:
            want = Packet(base.addr, base.cmd, template.data)
        else:
            want = Packet(template.addr, cmd if template.cmd is None else template.cmd,
                          template.data)
        assert packet == want, (st, cmd)
        assert shared.setdefault((st, want), packet) is packet, (st, cmd)
    # a stage-two round keeps a base it has not seen before
    base = Packet("Other_addr", "STATUS_C", "LED_addr")
    m = init_model(fresh, "LED_ON_C")._replace(current_state="set_sDac", packet=base)
    assert step(fresh, m).next.packet == Packet("Other_addr", "STATUS_C", "DAC_value")
    assert ops_round(fresh, m._replace(
        current_state="receive_packet_28", current_event=CONT)).next.packet \
        == Packet("Other_addr", "STATUS_C", "DAC_value")


def ops_grid(spec) -> list[ModelState]:
    """Every state x event x bytes_sent x bytes_received x tx_cnt, the
    oracle's 34,272 machines, each with a command and flags drawn from
    ``random.Random(40)``."""
    rng = random.Random(40)
    roster = spec.roster
    counter = range(PACKET_LENGTH + 1)
    return [ModelState(st, ev, rng.choice(roster.command_names), rng.random() < 0.5,
                       rng.random() < 0.5, rng.random() < 0.5, bytes_sent=sent,
                       bytes_received=received, tx_cnt=tx)
            for st, ev, sent, received, tx in itertools.product(
                roster.state_names, roster.event_names, counter, counter,
                range(MAX_COUNT + 1))]


def test_the_ops_round_over_the_full_grid_is_pinned(spec):
    # step and ops_round from every machine of the grid: the digest holds
    # each next machine's cells, fired name and post-condition breaches
    grid = ops_grid(spec)
    assert len(grid) == 34272
    digest = hashlib.sha256()
    for m in grid:
        for round_fn in (step, ops_round):
            outcome = round_fn(spec, m)
            n, fired, post = outcome
            assert type(outcome) is StepOutcome and type(n) is ModelState
            digest.update(repr((*n[:6], n.packet and tuple(n.packet), *n[7:],
                                fired, [tuple(v) for v in post])).encode())
    assert digest.hexdigest() == OPS_GRID_SHA256
