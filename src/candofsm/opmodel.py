"""The executable operational model: a typed machine state plus a control loop.

Each round the machine runs the operation of its current state (counting
packet bytes, constructing packets, raising flags, choosing the next event)
and then moves through the transition table on the event the operation just
produced.  The one data-dependent transition is get_cmd under CONT, which
consults the command dispatch table instead of the table entry.  A round
computes the operation's changed fields and the target state first, and
then builds its one new :class:`ModelState` with a single constructor call
(:func:`_next_state`): each field comes from the changes, or else from the
state before the round.

Every operation also carries a declarative post-condition (exact next event
and counter delta per branch); :func:`ops_round` and :func:`step` re-check it
after executing and report breaches as violations, none on a conforming spec.

``Packet``, ``ModelState`` and ``StepOutcome`` are frozen slotted
dataclasses with ``init=False`` and a hand-written ``__init__``: it stores
each field through its slot descriptor's ``__set__``, bound once below the
class, where a generated one would call ``object.__setattr__`` per field.
The parameters follow the fields in order and default, so
``dataclasses.replace`` still works.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    PACKET_LENGTH,
    SPI_RX_FINISH,
    SPI_TX_FINISH,
    START,
    StateKind,
    UnknownCommand,
    Violation,
    lookup_next,
)
from .specio import SpecDocument
from .trace import Trace, TraceRow, run_rounds


def _slot_setters(cls) -> tuple:
    """Each field's slot ``__set__`` of a frozen slotted dataclass, in field
    order; calling one skips the frozen ``__setattr__``."""
    return tuple(vars(cls)[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Packet:
    """The packet under construction; any field may be nil (None)."""

    addr: str | None = None
    cmd: str | None = None
    data: str | None = None

    def __init__(self, addr: str | None = None, cmd: str | None = None,
                 data: str | None = None):
        _set_addr(self, addr)
        _set_cmd(self, cmd)
        _set_data(self, data)


_set_addr, _set_cmd, _set_data = _slot_setters(Packet)
_NO_PACKET = Packet()


@dataclass(frozen=True, slots=True, init=False)
class ModelState:
    """The machine between rounds: state, event, command, flags, packet, counters."""

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

    def __init__(self, current_state: str, current_event: str, current_command: str,
                 command_finish_flag: bool = False, optrode_tx_finish: bool = False,
                 optrode_rx_finish: bool = False, packet: Packet | None = None,
                 bytes_received: int = 0, bytes_sent: int = 0, tx_cnt: int = 0):
        _set_state(self, current_state)
        _set_event(self, current_event)
        _set_command(self, current_command)
        _set_finish(self, command_finish_flag)
        _set_tx_finish(self, optrode_tx_finish)
        _set_rx_finish(self, optrode_rx_finish)
        _set_packet(self, packet)
        _set_received(self, bytes_received)
        _set_sent(self, bytes_sent)
        _set_tx_cnt(self, tx_cnt)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0 <= self.bytes_sent <= PACKET_LENGTH:
            raise ValueError(f"bytes_sent out of range: {self.bytes_sent}")
        if not 0 <= self.bytes_received <= PACKET_LENGTH:
            raise ValueError(f"bytes_received out of range: {self.bytes_received}")
        if not 0 <= self.tx_cnt <= MAX_COUNT:
            raise ValueError(f"tx_cnt out of range: {self.tx_cnt}")


(_set_state, _set_event, _set_command, _set_finish, _set_tx_finish, _set_rx_finish,
 _set_packet, _set_received, _set_sent, _set_tx_cnt) = _slot_setters(ModelState)


@dataclass(frozen=True, slots=True, init=False)
class StepOutcome:
    """The next machine, the operation that fired and its post-condition breaches."""

    next: ModelState
    fired_op: str
    post_violations: tuple[Violation, ...] = ()

    def __init__(self, next: ModelState, fired_op: str,
                 post_violations: tuple[Violation, ...] = ()):
        _set_next(self, next)
        _set_fired_op(self, fired_op)
        _set_post_violations(self, post_violations)


_set_next, _set_fired_op, _set_post_violations = _slot_setters(StepOutcome)


def init_model(spec: SpecDocument, command: str) -> ModelState:
    """Fresh machine: in start, continue pending, nothing sent or built."""
    if command not in spec.roster.command_names:
        raise UnknownCommand(command)
    return ModelState(current_state=START, current_event=CONT, current_command=command)


def _operation(spec: SpecDocument, m: ModelState, st: str,
               kind: StateKind) -> tuple[dict, str]:
    """The fields the operation of state ``st`` (of ``kind``) changes, read
    from ``m``'s counters, packet and command, and the operation's name."""
    if st == START:
        return {"current_event": CONT}, "start_idle"
    if st == GET_CMD:
        return {"current_event": CONT}, "get_command"
    if st == CMD_FINISH:
        return {"command_finish_flag": True, "current_event": CONT}, "finish_command"
    if st == CHIP_RST:
        return {
            "command_finish_flag": False,
            "optrode_tx_finish": False,
            "optrode_rx_finish": False,
            "packet": None,
            "bytes_sent": 0,
            "bytes_received": 0,
            "tx_cnt": 0,
            "current_event": GET_CMD_E,
        }, "chip_reset"
    if st == ERROR_ST or kind is KIND_ERROR:
        # every error state but chip_rst idles like error_
        return {"current_event": CONT}, "error_idle"
    if kind is KIND_SEND:
        if m.bytes_sent < PACKET_LENGTH:
            return ({"bytes_sent": m.bytes_sent + 1, "current_event": SPI_TX_FINISH},
                    "send_packet")
        return {
            "bytes_sent": 0,
            "optrode_tx_finish": True,
            "tx_cnt": min(m.tx_cnt + 1, MAX_COUNT),
            "current_event": CONT,
        }, "send_packet"
    if kind is KIND_RECEIVE:
        if m.bytes_received < PACKET_LENGTH:
            return ({"bytes_received": m.bytes_received + 1,
                     "current_event": SPI_RX_FINISH}, "receive_packet")
        return ({"bytes_received": 0, "optrode_rx_finish": True, "current_event": CONT},
                "receive_packet")
    if kind is KIND_CONTROL:
        raise AssertionError(f"unhandled state kind {kind} for {st!r}")
    # what is left is one of the three creator kinds
    template = spec.packets.get(st)
    if template is None:
        raise MissingPacketTemplate(st)
    if kind is KIND_CREATOR_STAGE2:
        base = m.packet or _NO_PACKET
        return ({"packet": Packet(base.addr, base.cmd, template.data),
                 "current_event": CONT}, "set_packet_data")
    # A plain creator builds the whole packet the way stage one does.
    cmd = template.cmd if template.cmd is not None else m.current_command
    return ({"packet": Packet(template.addr, cmd, template.data),
             "current_event": CONT}, "create_packet")


def _next_state(m: ModelState, st: str, changes: dict) -> ModelState:
    """The machine after a round that ends in state ``st``: each field from
    the operation's ``changes``, or else from ``m``, in one constructor call."""
    get = changes.get
    return ModelState(
        st,
        changes["current_event"],
        m.current_command,
        get("command_finish_flag", m.command_finish_flag),
        get("optrode_tx_finish", m.optrode_tx_finish),
        get("optrode_rx_finish", m.optrode_rx_finish),
        get("packet", m.packet),
        get("bytes_received", m.bytes_received),
        get("bytes_sent", m.bytes_sent),
        get("tx_cnt", m.tx_cnt),
    )


def _op_contract(st: str, kind: StateKind, before: ModelState,
                 changes: dict) -> tuple[Violation, ...]:
    """Declarative post-condition of the operation of ``st`` run on
    ``before``: exact next event and tx_cnt delta per branch."""
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

    event = changes["current_event"]
    tx = changes.get("tx_cnt", before.tx_cnt)
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


def _target(spec: SpecDocument, st: str, event: str, command: str) -> str:
    """The state ``st`` moves to on ``event``; get_cmd under CONT uses dispatch."""
    if st == GET_CMD and event == CONT:
        target = spec.dispatch.get(command)
        if target is None:
            raise UnknownCommand(command)
        return target
    return lookup_next(spec.fsm, event, st)


def step(spec: SpecDocument, m: ModelState) -> StepOutcome:
    """One full step: state operation, post-condition check, transition."""
    st = m.current_state
    kind = spec.roster.kind_of(st)
    changes, fired = _operation(spec, m, st, kind)
    target = _target(spec, st, changes["current_event"], m.current_command)
    return StepOutcome(_next_state(m, target, changes), fired,
                       _op_contract(st, kind, m, changes))


def ops_round(spec: SpecDocument, m: ModelState) -> StepOutcome:
    """One round in :func:`run`'s order: transition on the current event,
    then the operation of the state entered and its post-condition check.
    ``next`` is the machine after the operation."""
    st = _target(spec, m.current_state, m.current_event, m.current_command)
    kind = spec.roster.kind_of(st)
    changes, fired = _operation(spec, m, st, kind)
    return StepOutcome(_next_state(m, st, changes), fired,
                       _op_contract(st, kind, m, changes))


def _snapshot(m: ModelState, round_no: int) -> TraceRow:
    """The machine as a trace row, its cells in ``TraceRow`` field order."""
    packet = m.packet or _NO_PACKET
    return TraceRow(round_no, m.current_state, m.current_event, m.current_command,
                    packet.addr, packet.cmd, packet.data,
                    m.bytes_sent, m.bytes_received, m.tx_cnt,
                    m.optrode_tx_finish, m.optrode_rx_finish, m.command_finish_flag)


def run(spec: SpecDocument, command: str, max_rounds: int) -> Trace:
    """Drive the machine from init until :func:`~candofsm.trace.run_rounds`
    stops it, on the command-finish flag or the row budget.  Row 0 is the
    initial snapshot; every later row records the machine after that round's
    :func:`ops_round` (its transition uses the event shown on the row before)."""
    def start() -> tuple[ModelState, TraceRow]:
        m = init_model(spec, command)
        return m, _snapshot(m, 0)

    def round_of(m: ModelState, row: TraceRow, round_no: int) -> tuple:
        outcome = ops_round(spec, m)
        return outcome.next, _snapshot(outcome.next, round_no), outcome.post_violations
    return run_rounds("ops", command, max_rounds, start, round_of)
