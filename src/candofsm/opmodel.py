"""The executable operational model: a typed machine state plus a control loop.

Each round the machine runs the operation of its current state (counting
packet bytes, constructing packets, raising flags, choosing the next event)
and then moves through the transition table on the event the operation just
produced.  The one data-dependent transition is get_cmd under CONT, which
consults the command dispatch table instead of the table entry.  Each
state's operation is bound once per spec: a function of the machine before
the round that returns every field after it but the state, in field order.
A round reads the spec's operation table and its transition table itself,
and calls :func:`_entry` only when the table has no entry for the state, to
bind it.  Creators share the packets they build.

Every operation also carries a declarative post-condition (exact next event
and counter delta per branch); :func:`ops_round` and :func:`step` re-check it
after executing and report breaches as violations, none on a conforming spec.

``ModelState`` and ``StepOutcome`` are named tuples, like the spec's
``Packet``, which is both a creator's template and a built packet.  One
function, :func:`_range_checked`, holds the three counter range checks and
builds every ``ModelState`` with ``tuple.__new__``.  ``ModelState.__new__``
tests that each counter is an ``int`` and then calls it; its ``_make`` and
``__reduce__`` go through the class, so ``_replace``, ``copy`` and
unpickling under every protocol check too.  A round builds each of its
records in one tuple construction, with no Python-level ``__new__``: its
next state through :func:`_range_checked`, its ``StepOutcome`` and its
trace row with ``tuple.__new__``.  A round skips the ``int`` test, since
each operation maps int counters to int counters (``+ 1``, ``min``, ``0``):
from a checked state it cannot make a counter of another type.
Unlike a dataclass, a record compares equal to a plain tuple of the same
cells, and ``_replace`` with an unknown field raises ``ValueError``.
"""

from __future__ import annotations

from typing import NamedTuple

from .fsm import (
    CHIP_RST,
    CMD_FINISH,
    CONT,
    ERROR_ST,
    GET_CMD,
    GET_CMD_E,
    KIND_CONTROL,
    KIND_CREATOR_STAGE2,
    KIND_ERROR,
    KIND_RECEIVE,
    KIND_SEND,
    MAX_COUNT,
    MissingPacketTemplate,
    MissingTransition,
    PACKET_LENGTH,
    SPI_RX_FINISH,
    SPI_TX_FINISH,
    START,
    StateKind,
    UnknownCommand,
    Violation,
)
from .specio import Packet, SpecDocument
from .trace import _NO_ATTRIBUTION, Trace, TraceRow, run_rounds


_NO_PACKET = Packet()


class _ModelFields(NamedTuple):
    """:class:`ModelState`'s fields, in order, with their defaults."""

    current_state: str
    current_event: str
    current_command: str
    command_finish_flag: bool = False
    optrode_tx_finish: bool = False
    optrode_rx_finish: bool = False
    packet: Packet | None = None
    bytes_received: int = 0
    bytes_sent: int = 0
    tx_cnt: int = 0


_tuple_new = tuple.__new__


def _range_checked(cls, cells: tuple):
    """The ``cls`` record of ``cells``, in :class:`ModelState` field order,
    once its three counters are in range: the one place a ``ModelState`` is
    built."""
    bytes_received, bytes_sent, tx_cnt = cells[7], cells[8], cells[9]
    if not 0 <= bytes_sent <= PACKET_LENGTH:
        raise ValueError(f"bytes_sent out of range: {bytes_sent}")
    if not 0 <= bytes_received <= PACKET_LENGTH:
        raise ValueError(f"bytes_received out of range: {bytes_received}")
    if not 0 <= tx_cnt <= MAX_COUNT:
        raise ValueError(f"tx_cnt out of range: {tx_cnt}")
    return _tuple_new(cls, cells)


class ModelState(_ModelFields):
    """The machine between rounds: state, event, command, flags, packet, counters."""

    __slots__ = ()

    def __new__(cls, current_state: str, current_event: str, current_command: str,
                command_finish_flag: bool = False, optrode_tx_finish: bool = False,
                optrode_rx_finish: bool = False, packet: Packet | None = None,
                bytes_received: int = 0, bytes_sent: int = 0, tx_cnt: int = 0):
        # a bool is an int to isinstance, so test the type itself
        for name, count in (("bytes_sent", bytes_sent),
                            ("bytes_received", bytes_received), ("tx_cnt", tx_cnt)):
            if type(count) is not int:
                raise TypeError(f"{name} is not an int: {count!r}")
        return _range_checked(cls, (current_state, current_event, current_command,
                                    command_finish_flag, optrode_tx_finish,
                                    optrode_rx_finish, packet, bytes_received,
                                    bytes_sent, tx_cnt))

    @classmethod
    def _make(cls, iterable) -> ModelState:
        # through __new__, so _replace range-checks too
        return cls(*iterable)

    def __reduce__(self):
        # every pickle protocol, 0 and 1 too, rebuilds through __new__
        return type(self), tuple(self)


class StepOutcome(NamedTuple):
    """The next machine, the operation that fired and its post-condition breaches."""

    next: ModelState
    fired_op: str
    post_violations: tuple[Violation, ...] = ()


def init_model(spec: SpecDocument, command: str) -> ModelState:
    """Fresh machine: in start, continue pending, nothing sent or built."""
    if command not in spec.roster.command_names:
        raise UnknownCommand(command)
    return ModelState(current_state=START, current_event=CONT, current_command=command)


# Each operation maps the machine before the round to every field after it
# but the state, in ModelState's field order.

def _idle(m: ModelState) -> tuple:
    return (CONT, m.current_command, m.command_finish_flag, m.optrode_tx_finish,
            m.optrode_rx_finish, m.packet, m.bytes_received, m.bytes_sent, m.tx_cnt)


def _finish(m: ModelState) -> tuple:
    return (CONT, m.current_command, True, m.optrode_tx_finish,
            m.optrode_rx_finish, m.packet, m.bytes_received, m.bytes_sent, m.tx_cnt)


def _reset(m: ModelState) -> tuple:
    return GET_CMD_E, m.current_command, False, False, False, None, 0, 0, 0


def _send(m: ModelState) -> tuple:
    if m.bytes_sent < PACKET_LENGTH:
        return (SPI_TX_FINISH, m.current_command, m.command_finish_flag,
                m.optrode_tx_finish, m.optrode_rx_finish, m.packet,
                m.bytes_received, m.bytes_sent + 1, m.tx_cnt)
    return (CONT, m.current_command, m.command_finish_flag, True, m.optrode_rx_finish,
            m.packet, m.bytes_received, 0, min(m.tx_cnt + 1, MAX_COUNT))


def _receive(m: ModelState) -> tuple:
    if m.bytes_received < PACKET_LENGTH:
        return (SPI_RX_FINISH, m.current_command, m.command_finish_flag,
                m.optrode_tx_finish, m.optrode_rx_finish, m.packet,
                m.bytes_received + 1, m.bytes_sent, m.tx_cnt)
    return (CONT, m.current_command, m.command_finish_flag, m.optrode_tx_finish, True,
            m.packet, 0, m.bytes_sent, m.tx_cnt)


def _creator(template: Packet, stage_two: bool):
    """A creator's operation: the template's data under the base packet's
    addr and cmd (stage two), or else the template's packet with a nil cmd
    taken from the command.  Each packet is built once, then shared."""
    addr, cmd, data = template
    made: dict = {}

    def create(m: ModelState) -> tuple:
        if stage_two:
            base = m.packet or _NO_PACKET
            key = base.addr, base.cmd
        else:
            key = addr, m.current_command if cmd is None else cmd
        packet = made.get(key)
        if packet is None:
            packet = made[key] = Packet(*key, data)
        return (CONT, m.current_command, m.command_finish_flag, m.optrode_tx_finish,
                m.optrode_rx_finish, packet, m.bytes_received, m.bytes_sent, m.tx_cnt)
    return create


_NAMED = {START: ("start_idle", _idle), GET_CMD: ("get_command", _idle),
          CMD_FINISH: ("finish_command", _finish), CHIP_RST: ("chip_reset", _reset)}


def _bind(spec: SpecDocument, st: str, kind: StateKind) -> tuple:
    """The name and the function of the operation of state ``st`` (of ``kind``)."""
    if st in _NAMED:
        return _NAMED[st]
    if st == ERROR_ST or kind is KIND_ERROR:
        # every error state but chip_rst idles like error_
        return "error_idle", _idle
    if kind is KIND_SEND:
        return "send_packet", _send
    if kind is KIND_RECEIVE:
        return "receive_packet", _receive
    if kind is KIND_CONTROL:
        raise AssertionError(f"unhandled state kind {kind} for {st!r}")
    # what is left is one of the three creator kinds
    template = spec.packets.get(st)
    if template is None:
        raise MissingPacketTemplate(st)
    if kind is KIND_CREATOR_STAGE2:
        return "set_packet_data", _creator(template, stage_two=True)
    # A plain creator builds the whole packet the way stage one does.
    return "create_packet", _creator(template, stage_two=False)


def _entry(spec: SpecDocument, st: str) -> tuple:
    """State ``st``'s (kind, operation name, operation), bound into the
    spec's operation table when a round finds no entry for ``st``; the only
    code that creates the table or binds a state.  So a state that cannot be
    bound raises only when it first runs, and again each time it runs.  The
    table lives on the instance: a ``dataclasses.replace`` copy starts
    without one."""
    table = spec.__dict__.get("_operations")
    if table is None:
        # the spec is frozen; the table is derived data, not a field
        object.__setattr__(spec, "_operations", table := {})
    entry = table.get(st)
    if entry is None:
        kind = spec.roster.kind_of(st)
        entry = table[st] = (kind, *_bind(spec, st, kind))
    return entry


def _op_contract(st: str, kind: StateKind, before: ModelState,
                 event: str, tx: int) -> tuple[Violation, ...]:
    """Declarative post-condition of the operation of ``st`` that took ``before``
    to ``event`` and ``tx``: exact next event and tx_cnt delta per branch."""
    expected_event = CONT
    expected_tx = before.tx_cnt
    if st == CHIP_RST:
        expected_event = GET_CMD_E
        expected_tx = 0
    elif kind is KIND_SEND:
        if before.bytes_sent < PACKET_LENGTH:
            expected_event = SPI_TX_FINISH
        else:
            expected_tx = min(before.tx_cnt + 1, MAX_COUNT)
    elif kind is KIND_RECEIVE and before.bytes_received < PACKET_LENGTH:
        expected_event = SPI_RX_FINISH

    out = ()
    if event != expected_event:
        out += (Violation("POST", event=event, from_state=st,
                          message=f"operation of {st!r} must end in event "
                                  f"{expected_event!r}, got {event!r}"),)
    if tx != expected_tx:
        out += (Violation("POST", from_state=st,
                          message=f"operation of {st!r} must leave tx_cnt at "
                                  f"{expected_tx}, got {tx}"),)
    return out


def step(spec: SpecDocument, m: ModelState) -> StepOutcome:
    """One full step: state operation, post-condition check, transition."""
    st = m.current_state
    try:
        kind, fired, operate = spec.__dict__["_operations"][st]
    except KeyError:
        kind, fired, operate = _entry(spec, st)
    after = operate(m)
    event = after[0]
    # the transition rule, as in ops_round: get_cmd under CONT uses dispatch
    if st == GET_CMD and event == CONT:
        target = spec.dispatch.get(m.current_command)
        if target is None:
            raise UnknownCommand(m.current_command)
    else:
        try:
            target = spec.fsm[event][st]
        except KeyError:
            raise MissingTransition(event, st) from None
    n = _range_checked(ModelState, (target,) + after)
    # after[8] is the tx_cnt the operation left
    return _tuple_new(StepOutcome, (n, fired, _op_contract(st, kind, m, event, after[8])))


def ops_round(spec: SpecDocument, m: ModelState) -> StepOutcome:
    """One round in :func:`run`'s order: transition on the current event,
    then the operation of the state entered and its post-condition check.
    ``next`` is the machine after the operation."""
    st, event = m.current_state, m.current_event
    if st == GET_CMD and event == CONT:
        st = spec.dispatch.get(m.current_command)
        if st is None:
            raise UnknownCommand(m.current_command)
    else:
        try:
            st = spec.fsm[event][st]
        except KeyError:
            raise MissingTransition(event, st) from None
    try:
        kind, fired, operate = spec.__dict__["_operations"][st]
    except KeyError:
        kind, fired, operate = _entry(spec, st)
    after = operate(m)
    n = _range_checked(ModelState, (st,) + after)
    return _tuple_new(StepOutcome, (n, fired, _op_contract(st, kind, m, after[0], after[8])))


def _snapshot(m: ModelState, round_no: int) -> TraceRow:
    """The machine as a trace row, its cells in ``TraceRow`` field order."""
    packet = m.packet or _NO_PACKET
    return _tuple_new(TraceRow, (
        round_no, m.current_state, m.current_event, m.current_command,
        packet.addr, packet.cmd, packet.data, m.bytes_sent, m.bytes_received,
        m.tx_cnt, m.optrode_tx_finish, m.optrode_rx_finish, m.command_finish_flag,
        _NO_ATTRIBUTION))


def run(spec: SpecDocument, command: str, max_rounds: int) -> Trace:
    """Drive the machine from init until :func:`~candofsm.trace.run_rounds`
    stops it, on the command-finish flag or the row budget.  Row 0 is the
    initial snapshot; every later row records the machine after that round's
    :func:`ops_round` (its transition uses the event shown on the row before)."""
    def start() -> tuple[ModelState, TraceRow]:
        m = init_model(spec, command)
        return m, _snapshot(m, 0)

    def round_of(m: ModelState, row: TraceRow, round_no: int) -> tuple:
        n, _, found = ops_round(spec, m)
        return n, _snapshot(n, round_no), found
    return run_rounds("ops", command, max_rounds, start, round_of)
