"""Core FSM data model and the structural constraint checkers.

The machine is described by a roster (states with kinds, events, commands)
and a transition table mapping each event to a state-to-state map.  All
checkers are pure and report problems as :class:`Violation` values instead
of raising, so a single pass can collect every defect in a table.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

# Packet protocol bounds.
PACKET_LENGTH = 3
MAX_COUNT = 2

# Distinguished state names the constraint rules key on.
START = "start"
GET_CMD = "get_cmd"
CMD_FINISH = "cmd_finish"
ERROR_ST = "error_"
CHIP_RST = "chip_rst"

# Distinguished event names.
CONT = "CONT"
ERROR_EV = "ERROR"
SPI_TX_FINISH = "SPI_TX_FINISH"
SPI_RX_FINISH = "SPI_RX_FINISH"
GET_CMD_E = "GET_CMD_E"

CONTROL_STATES = (START, GET_CMD, CMD_FINISH)
ERROR_STATES = (ERROR_ST, CHIP_RST)
REQUIRED_EVENTS = (CONT, ERROR_EV, SPI_TX_FINISH, SPI_RX_FINISH, GET_CMD_E)


class StateKind(enum.Enum):
    """Classification of a state; drives the class-level constraint rules."""

    SEND = "send"
    RECEIVE = "receive"
    CREATOR = "creator"
    CREATOR_STAGE1 = "creator_stage1"
    CREATOR_STAGE2 = "creator_stage2"
    ERROR = "error"
    CONTROL = "control"


# Each member once more as a plain global, which hot code tests by identity.
# On CPython 3.11 ``EnumType`` defines ``__getattr__``, so a load such as
# ``StateKind.SEND`` takes the slow attribute path, and hashing a member
# (``kind in CREATOR_KINDS``) runs the Python-level ``Enum.__hash__``.
KIND_SEND = StateKind.SEND
KIND_RECEIVE = StateKind.RECEIVE
KIND_CREATOR = StateKind.CREATOR
KIND_CREATOR_STAGE1 = StateKind.CREATOR_STAGE1
KIND_CREATOR_STAGE2 = StateKind.CREATOR_STAGE2
KIND_ERROR = StateKind.ERROR
KIND_CONTROL = StateKind.CONTROL

# "Packet creator states" in the constraint rules means all three creator kinds.
CREATOR_KINDS = frozenset({KIND_CREATOR, KIND_CREATOR_STAGE1, KIND_CREATOR_STAGE2})

# Fixed catalogue of checker codes, in reporting order.
CONSTRAINT_CATALOGUE = (
    "C1.1", "C1.2", "C1.3", "C1.4", "C1.5", "C1.6", "C1.7", "C1.8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "TOTALITY", "ROSTER",
)
_CATALOGUE_RANK = {code: i for i, code in enumerate(CONSTRAINT_CATALOGUE)}


class FsmError(Exception):
    """Base class for FSM lookups gone wrong."""


class UnknownState(FsmError):
    def __init__(self, name: str):
        super().__init__(f"unknown state: {name!r}")
        self.name = name


class UnknownCommand(FsmError):
    def __init__(self, name: str):
        super().__init__(f"unknown command: {name!r}")
        self.name = name


class MissingTransition(FsmError):
    def __init__(self, event: str, state: str):
        super().__init__(f"no transition for state {state!r} under event {event!r}")
        self.event = event
        self.state = state


class MissingPacketTemplate(FsmError):
    def __init__(self, state: str):
        super().__init__(f"no packet template for creator state {state!r}")
        self.state = state


@dataclass(frozen=True)
class StateDef:
    """A roster state: its name, its kind, and whether it is synthetic."""

    name: str
    kind: StateKind
    synthetic: bool = False


@dataclass(frozen=True)
class MemberDef:
    """A roster member without a kind (event or command)."""

    name: str
    synthetic: bool = False


@dataclass(frozen=True)
class Roster:
    """The machine's states (with kinds), events and commands, in order."""

    states: tuple[StateDef, ...]
    events: tuple[MemberDef, ...]
    commands: tuple[MemberDef, ...]

    def __post_init__(self) -> None:
        for label, names in (
            ("state", [s.name for s in self.states]),
            ("event", [e.name for e in self.events]),
            ("command", [c.name for c in self.commands]),
        ):
            if len(names) != len(set(names)):
                dupes = sorted({n for n in names if names.count(n) > 1})
                raise ValueError(f"duplicate {label} names: {dupes}")

    # Derived once per roster, kept in the instance dict like ``_kinds``:
    # not fields, so equality, hashing and ``dataclasses.replace`` ignore them.
    @cached_property
    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)

    @cached_property
    def event_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events)

    @cached_property
    def command_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.commands)

    @cached_property
    def _kinds(self) -> dict[str, StateKind]:
        return {s.name: s.kind for s in self.states}

    def kind_of(self, state: str) -> StateKind:
        try:
            return self._kinds[state]
        except KeyError:
            raise UnknownState(state) from None

    def states_of_kind(self, *kinds: StateKind) -> tuple[str, ...]:
        wanted = set(kinds)
        return tuple(s.name for s in self.states if s.kind in wanted)


# An FSM table maps each event name to a state -> successor-state map.
StateMap = Mapping[str, str]
FsmTable = Mapping[str, StateMap]


@dataclass(frozen=True)
class Violation:
    """One constraint breach; checkers return these instead of raising."""

    constraint_id: str
    event: str | None = None
    from_state: str | None = None
    to_state: str | None = None
    message: str = ""

    def sort_key(self) -> tuple:
        return (
            _CATALOGUE_RANK.get(self.constraint_id, len(_CATALOGUE_RANK)),
            self.event or "",
            self.from_state or "",
            self.to_state or "",
        )


def _sorted(violations: Iterable[Violation]) -> list[Violation]:
    return sorted(violations, key=Violation.sort_key)


def lookup_next(fsm: FsmTable, event: str, state: str) -> str:
    """Pure table lookup of the successor of ``state`` under ``event``."""
    try:
        per_state = fsm[event]
    except KeyError:
        raise MissingTransition(event, state) from None
    try:
        return per_state[state]
    except KeyError:
        raise MissingTransition(event, state) from None


def check_roster(roster: Roster) -> list[Violation]:
    """Check the distinguished members and their kind assignments."""
    out: list[Violation] = []
    names = set(roster.state_names)
    for required in CONTROL_STATES + ERROR_STATES:
        if required not in names:
            out.append(
                Violation("ROSTER", from_state=required,
                          message=f"distinguished state {required!r} missing from roster")
            )
    for name in CONTROL_STATES:
        if name in names and roster.kind_of(name) is not KIND_CONTROL:
            out.append(
                Violation("ROSTER", from_state=name,
                          message=f"state {name!r} must carry kind control")
            )
    for name in ERROR_STATES:
        if name in names and roster.kind_of(name) is not KIND_ERROR:
            out.append(
                Violation("ROSTER", from_state=name,
                          message=f"state {name!r} must carry kind error")
            )
    for s in roster.states:
        if s.kind is KIND_CONTROL and s.name not in CONTROL_STATES:
            out.append(
                Violation("ROSTER", from_state=s.name,
                          message=f"kind control is reserved for {CONTROL_STATES}, "
                                  f"not {s.name!r}")
            )
    for ev in REQUIRED_EVENTS:
        if ev not in roster.event_names:
            out.append(
                Violation("ROSTER", event=ev,
                          message=f"distinguished event {ev!r} missing from roster")
            )
    return _sorted(out)


def _check_entry(frm: str, kind_from: StateKind, to: str, kind_to: StateKind,
                 event: str | None) -> list[Violation]:
    """Apply the eight per-entry map rules C1.1..C1.8 to one entry of the
    map of ``event``; the states' kinds are given."""
    out: list[Violation] = []
    if to == START:
        out.append(Violation("C1.1", event=event, from_state=frm, to_state=to,
                             message=f"no state may map to {START!r}"))
    if frm == START and to not in (GET_CMD, ERROR_ST):
        out.append(Violation("C1.2", event=event, from_state=frm, to_state=to,
                             message=f"{START!r} maps only to {GET_CMD!r} or {ERROR_ST!r}"))
    if frm == CHIP_RST and to not in (GET_CMD, ERROR_ST):
        out.append(Violation("C1.3", event=event, from_state=frm, to_state=to,
                             message=f"{CHIP_RST!r} maps only to {GET_CMD!r} or {ERROR_ST!r}"))
    if frm == ERROR_ST and to not in (GET_CMD, ERROR_ST, CHIP_RST):
        out.append(Violation("C1.4", event=event, from_state=frm, to_state=to,
                             message=f"{ERROR_ST!r} maps only to {GET_CMD!r}, {ERROR_ST!r} "
                                     f"or {CHIP_RST!r}"))
    if frm == CMD_FINISH and to != ERROR_ST:
        out.append(Violation("C1.5", event=event, from_state=frm, to_state=to,
                             message=f"{CMD_FINISH!r} maps only to {ERROR_ST!r}"))
    if (kind_from is KIND_CREATOR_STAGE1 or kind_from is KIND_CREATOR_STAGE2
            or kind_from is KIND_CREATOR) and not (kind_to is KIND_SEND or to == ERROR_ST):
        out.append(Violation("C1.6", event=event, from_state=frm, to_state=to,
                             message="packet creator states map only to send states "
                                     f"or {ERROR_ST!r}"))
    # Receive self-loops are admitted here: the identity entries demanded by the
    # SPI_RX_FINISH rule (C4) would otherwise make every total table invalid.
    if (
        kind_from is KIND_RECEIVE
        and to != frm
        and not (kind_to is KIND_CREATOR_STAGE2 or to in (CMD_FINISH, ERROR_ST))
    ):
        out.append(Violation("C1.7", event=event, from_state=frm, to_state=to,
                             message="receive states map only to stage-two creator "
                                     f"states, {CMD_FINISH!r}, {ERROR_ST!r} or themselves"))
    if frm == GET_CMD and not (kind_to is KIND_CREATOR_STAGE1 or to == ERROR_ST):
        out.append(Violation("C1.8", event=event, from_state=frm, to_state=to,
                             message=f"{GET_CMD!r} maps only to stage-one creator "
                                     f"states or {ERROR_ST!r}"))
    return out


def check_statemap(roster: Roster, sm: StateMap, event: str | None = None) -> list[Violation]:
    """Check one state map against the per-entry rules C1.1..C1.8.

    The rules are per entry, so a map passes iff each of its entries passes;
    restricting a passing map to any key subset keeps it passing.
    """
    kinds = roster._kinds
    out: list[Violation] = []
    for frm, to in sm.items():
        kind_from = kinds.get(frm)
        if kind_from is None:
            raise UnknownState(frm)
        kind_to = kinds.get(to)
        if kind_to is None:
            raise UnknownState(to)
        out += _check_entry(frm, kind_from, to, kind_to, event)
    return _sorted(out)


def check_dispatch(roster: Roster, dispatch: Mapping[str, str]) -> list[Violation]:
    """Apply C1.8 to the dispatch targets: ``get_cmd`` leaves under CONT
    through the dispatch map, so each target must be a stage-one creator
    state or ``error_``, as a table entry from ``get_cmd`` must be."""
    return _sorted(
        Violation("C1.8", event=CONT, from_state=GET_CMD, to_state=to,
                  message=f"dispatch of {cmd!r}: {GET_CMD!r} maps only to "
                          f"stage-one creator states or {ERROR_ST!r}")
        for cmd, to in dispatch.items()
        if not (roster.kind_of(to) is KIND_CREATOR_STAGE1 or to == ERROR_ST))


def check_totality(roster: Roster, fsm: FsmTable) -> list[Violation]:
    """Require an entry for every event and, per event, for every state.

    The printed totality invariant quantifies a state set over the table's
    event domain; the reading applied here (and cited in the messages) is
    totality over events with each per-event map total over states.
    """
    note = ("total FSM reading: every event present, each event map total over "
            "all states")
    out: list[Violation] = []
    for ev in roster.event_names:
        if ev not in fsm:
            out.append(Violation("TOTALITY", event=ev,
                                 message=f"event {ev!r} absent from table ({note})"))
            continue
        per_state = fsm[ev]
        for st in roster.state_names:
            if st not in per_state:
                out.append(
                    Violation("TOTALITY", event=ev, from_state=st,
                              message=f"event {ev!r} lacks an entry for state "
                                      f"{st!r} ({note})")
                )
    return _sorted(out)


def check_cando(roster: Roster, fsm: FsmTable) -> list[Violation]:
    """Check the event-specific rules C2..C12 on a (nominally total) table.

    Each (event, state) pair is owned by at most one rule.  The named-state
    rules C7..C10 take their exact pairs; the class rules C2..C6 and C11 cover
    the rest of their event/kind scope; C12 guards entry into the error kind
    under CONT and GET_CMD_E (the error class is entered through error_ only,
    except for the reset hand-off sanctioned by C8).
    """
    out: list[Violation] = []

    kind = roster.kind_of   # raises UnknownState on a target not in the roster
    cont = fsm.get(CONT, {})
    tx_finish = fsm.get(SPI_TX_FINISH, {})
    rx_finish = fsm.get(SPI_RX_FINISH, {})
    get_cmd_e = fsm.get(GET_CMD_E, {})

    for s in roster.states:
        st, k = s.name, s.kind
        to = cont.get(st)
        if to is None:
            continue
        if st == START:
            if to != GET_CMD:
                out.append(Violation("C7", event=CONT, from_state=st, to_state=to,
                                     message=f"under CONT, {START!r} maps to {GET_CMD!r}"))
        elif st == ERROR_ST:
            if to != CHIP_RST:
                out.append(Violation("C8", event=CONT, from_state=st, to_state=to,
                                     message=f"under CONT, {ERROR_ST!r} maps to {CHIP_RST!r}"))
        elif k is KIND_ERROR:
            if to != ERROR_ST:
                out.append(Violation("C6", event=CONT, from_state=st, to_state=to,
                                     message=f"under CONT, error states map to {ERROR_ST!r}"))
        elif k is KIND_SEND:
            if kind(to) is not KIND_RECEIVE:
                out.append(Violation("C2", event=CONT, from_state=st, to_state=to,
                                     message="under CONT, send states map to receive states"))
        elif k is KIND_CREATOR_STAGE1 or k is KIND_CREATOR_STAGE2 or k is KIND_CREATOR:
            if kind(to) is not KIND_SEND:
                out.append(Violation("C5", event=CONT, from_state=st, to_state=to,
                                     message="under CONT, packet creator states map to "
                                             "send states"))
        elif k is KIND_RECEIVE:
            if not (kind(to) is KIND_CREATOR_STAGE2 or to == CMD_FINISH):
                out.append(Violation("C11", event=CONT, from_state=st, to_state=to,
                                     message="under CONT, receive states map to stage-two "
                                             f"creator states or {CMD_FINISH!r}"))

    for s in roster.states:
        st, k = s.name, s.kind
        to = tx_finish.get(st)
        if to is not None and k is KIND_SEND and to != st:
            out.append(Violation("C3", event=SPI_TX_FINISH, from_state=st, to_state=to,
                                 message="under SPI_TX_FINISH, send states map to themselves"))
        to = rx_finish.get(st)
        if to is not None and k is KIND_RECEIVE and to != st:
            out.append(Violation("C4", event=SPI_RX_FINISH, from_state=st, to_state=to,
                                 message="under SPI_RX_FINISH, receive states map to "
                                         "themselves"))

    to = get_cmd_e.get(ERROR_ST)
    if to is not None and to != GET_CMD:
        out.append(Violation("C9", event=GET_CMD_E, from_state=ERROR_ST, to_state=to,
                             message=f"under GET_CMD_E, {ERROR_ST!r} maps to {GET_CMD!r}"))
    to = get_cmd_e.get(CHIP_RST)
    if to is not None and to != GET_CMD:
        out.append(Violation("C10", event=GET_CMD_E, from_state=CHIP_RST, to_state=to,
                             message=f"under GET_CMD_E, {CHIP_RST!r} maps to {GET_CMD!r}"))

    # C12: the error class is entered only through error_ itself.  The one
    # sanctioned exception is the reset hand-off error_ -> chip_rst under CONT
    # (rule C8); GET_CMD_E routes error states out via C9/C10 and everything
    # else it touches must fall back to error_.
    for ev, per_state in ((CONT, cont), (GET_CMD_E, get_cmd_e)):
        for st in roster.state_names:
            to = per_state.get(st)
            if to is None or to == ERROR_ST:
                continue
            if kind(to) is KIND_ERROR and (ev, st) != (CONT, ERROR_ST):
                out.append(
                    Violation("C12", event=ev, from_state=st, to_state=to,
                              message=f"under {ev}, the error class is entered through "
                                      f"{ERROR_ST!r} only (stays error_ unless a named "
                                      "rule overrides)")
                )

    return _sorted(out)


def reachable(fsm: FsmTable, origin: str, events: Iterable[str]) -> frozenset[str]:
    """States reachable from ``origin`` by table lookups under ``events``.

    Breadth-first closure; always contains ``origin``.
    """
    evs = tuple(events)
    seen = {origin}
    queue = deque([origin])
    while queue:
        st = queue.popleft()
        for ev in evs:
            nxt = fsm.get(ev, {}).get(st)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)
