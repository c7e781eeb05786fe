"""Core FSM data model and the structural constraint checkers.

The machine is described by a roster (states with kinds, events, commands)
and a transition table mapping each event to a state-to-state map.  All
checkers are pure and report problems as :class:`Violation` values instead
of raising, so a single pass can collect every defect in a table.

:data:`RULES` is the catalogue of the CANDO map rules, which the checkers and
the generated monitors both read; only the target-side rules C1.1 and C12
are written out.

The records are named tuples.  :class:`Roster` subclasses its field tuple
without ``__slots__``, so the values it derives once are cached in the
instance ``__dict__``; :func:`refuse_assignment` keeps its attributes, like
its fields, fixed.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

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

# The generated model names a kind's shared definitions and operations with
# this before the kind's name (``arrive_kind_send``, ``op.kind_send.*``), so
# no state name may start with it.
KIND_NAME_PREFIX = "kind_"

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

# Each distinguished state must carry its class's kind.
_DISTINGUISHED_KINDS = ((CONTROL_STATES, KIND_CONTROL), (ERROR_STATES, KIND_ERROR))

# "Packet creator states" in the constraint rules means all three creator kinds.
CREATOR_KINDS = (KIND_CREATOR, KIND_CREATOR_STAGE1, KIND_CREATOR_STAGE2)

# Fixed catalogue of checker codes, in reporting order.
CONSTRAINT_CATALOGUE = (
    "C1.1", "C1.2", "C1.3", "C1.4", "C1.5", "C1.6", "C1.7", "C1.8",
    "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12",
    "TOTALITY", "ROSTER", "FINISH",
)
_CATALOGUE_RANK = {code: i for i, code in enumerate(CONSTRAINT_CATALOGUE)}

# In a rule's target: the state the entry leaves.  No state name equals it.
SELF = object()


class Rule(NamedTuple):
    """Under ``event`` (None: every event) a state that ``source`` selects
    maps only to one that ``target`` selects.  A selector holds state names,
    kinds, kind groups (tuples of kinds) and :data:`SELF`.  ``title`` is the
    generated monitor's; None if the translation does not monitor the rule."""

    code: str
    event: str | None
    source: tuple
    target: tuple
    message: str
    title: str | None


# Under one event, the first rule that selects a state owns that state's
# entry: the named-state rules C7 and C8 come before the class rule C6, so
# C6 leaves error_ to C8.  Monitors are generated in this order.
RULES = (
    Rule("C1.2", None, (START,), (GET_CMD, ERROR_ST),
         "'start' maps only to 'get_cmd' or 'error_'", "start moves to get_cmd or error_"),
    Rule("C1.3", None, (CHIP_RST,), (GET_CMD, ERROR_ST),
         "'chip_rst' maps only to 'get_cmd' or 'error_'", "chip_rst moves to get_cmd or error_"),
    Rule("C1.4", None, (ERROR_ST,), (GET_CMD, ERROR_ST, CHIP_RST),
         "'error_' maps only to 'get_cmd', 'error_' or 'chip_rst'",
         "error_ moves to get_cmd, error_ or chip_rst"),
    Rule("C1.5", None, (CMD_FINISH,), (ERROR_ST,),
         "'cmd_finish' maps only to 'error_'", "cmd_finish moves to error_"),
    Rule("C1.6", None, (CREATOR_KINDS,), (KIND_SEND, ERROR_ST),
         "packet creator states map only to send states or 'error_'",
         "packet creators move to send states or error_"),
    # Receive self-loops are admitted here: the identity entries demanded by
    # the SPI_RX_FINISH rule (C4) would otherwise make every total table invalid.
    Rule("C1.7", None, (KIND_RECEIVE,), (KIND_CREATOR_STAGE2, CMD_FINISH, ERROR_ST, SELF),
         "receive states map only to stage-two creator states, 'cmd_finish', 'error_' "
         "or themselves",
         "receives move to stage-two creators, cmd_finish, error_ or themselves"),
    Rule("C1.8", None, (GET_CMD,), (KIND_CREATOR_STAGE1, ERROR_ST),
         "'get_cmd' maps only to stage-one creator states or 'error_'",
         "get_cmd moves to stage-one creators or error_"),
    Rule("C7", CONT, (START,), (GET_CMD,), "under CONT, 'start' maps to 'get_cmd'", None),
    Rule("C8", CONT, (ERROR_ST,), (CHIP_RST,), "under CONT, 'error_' maps to 'chip_rst'", None),
    Rule("C9", GET_CMD_E, (ERROR_ST,), (GET_CMD,),
         "under GET_CMD_E, 'error_' maps to 'get_cmd'", None),
    Rule("C10", GET_CMD_E, (CHIP_RST,), (GET_CMD,),
         "under GET_CMD_E, 'chip_rst' maps to 'get_cmd'", None),
    Rule("C2", CONT, (KIND_SEND,), (KIND_RECEIVE,),
         "under CONT, send states map to receive states",
         "under CONT send states move to receive states"),
    Rule("C3", SPI_TX_FINISH, (KIND_SEND,), (SELF,),
         "under SPI_TX_FINISH, send states map to themselves", None),
    Rule("C4", SPI_RX_FINISH, (KIND_RECEIVE,), (SELF,),
         "under SPI_RX_FINISH, receive states map to themselves", None),
    Rule("C5", CONT, (CREATOR_KINDS,), (KIND_SEND,),
         "under CONT, packet creator states map to send states",
         "under CONT packet creators move to send states"),
    Rule("C6", CONT, (KIND_ERROR,), (ERROR_ST,),
         "under CONT, error states map to 'error_'", "under CONT error states move to error_"),
    Rule("C11", CONT, (KIND_RECEIVE,), (KIND_CREATOR_STAGE2, CMD_FINISH),
         "under CONT, receive states map to stage-two creator states or 'cmd_finish'",
         "under CONT receives move to stage-two creators or cmd_finish"),
)


# The kind groups (tuples of kinds) that rule selectors name.
_KIND_GROUPS = {item for r in RULES for item in r.source + r.target if item.__class__ is tuple}


# A rule read against one roster: the rule, the states its source selects,
# those of them whose entries it owns (an earlier rule under the same event
# owns the rest), and what its target selects: states, and SELF if it admits
# the state the entry leaves.
BoundRule = tuple[Rule, tuple[str, ...], tuple[str, ...], frozenset]


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


class StateDef(NamedTuple):
    """A roster state: its name, its kind, and whether it is synthetic."""

    name: str
    kind: StateKind
    synthetic: bool = False


class MemberDef(NamedTuple):
    """A roster member without a kind (event or command)."""

    name: str
    synthetic: bool = False


def refuse_assignment(record, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a named tuple subclass that
    keeps an instance ``__dict__`` for values it derives: like its fields,
    its attributes are fixed.  ``cached_property`` writes that ``__dict__``
    directly."""
    raise AttributeError(f"{type(record).__name__} is immutable: cannot set or "
                         f"delete {name!r}")


def refuse_duplicates(names: list[str], what: str,
                      error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming, sorted, each of ``names`` met more than once."""
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise error(f"duplicate {what}: {dupes}")


class _RosterFields(NamedTuple):
    """:class:`Roster`'s fields, in order."""

    states: tuple[StateDef, ...]
    events: tuple[MemberDef, ...]
    commands: tuple[MemberDef, ...]


class Roster(_RosterFields):
    """The machine's states (with kinds), events and commands, in order.

    Its ``__new__`` rejects a duplicate name; its ``_make`` and
    ``__reduce__`` go through the class, so ``_replace``, ``copy`` and
    unpickling under every protocol check too."""

    def __new__(cls, states: tuple[StateDef, ...], events: tuple[MemberDef, ...],
                commands: tuple[MemberDef, ...]):
        for label, members in (("state", states), ("event", events),
                               ("command", commands)):
            refuse_duplicates([m.name for m in members], f"{label} names")
        return tuple.__new__(cls, (states, events, commands))

    @classmethod
    def _make(cls, iterable) -> Roster:
        # through __new__, so _replace checks too
        return cls(*iterable)

    def __reduce__(self):
        # every pickle protocol, 0 and 1 too, rebuilds through __new__
        return type(self), tuple(self)

    __setattr__ = __delattr__ = refuse_assignment

    # Derived once per roster, kept in the instance dict like ``_kinds``:
    # not fields, so equality, hashing, ``_replace`` and copies ignore them.
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
        return tuple(s.name for s in self.states if s.kind in kinds)

    @cached_property
    def rules(self) -> tuple[BoundRule, ...]:
        """:data:`RULES`, in order, read against this roster."""
        selects: dict[object, Sequence] = {SELF: (SELF,)}   # what each item selects
        for s in self.states:
            selects[s.name] = (s.name,)
            selects.setdefault(s.kind, []).append(s.name)
        for group in _KIND_GROUPS:
            selects[group] = self.states_of_kind(*group)
        taken: dict[str | None, set[str]] = {}
        bound = []
        for rule in RULES:
            seen = taken.setdefault(rule.event, set())
            selected = tuple([n for item in rule.source for n in selects.get(item, ())])
            owned = (selected if seen.isdisjoint(selected)
                     else tuple([s for s in selected if s not in seen]))
            seen.update(owned)
            allowed = frozenset([n for item in rule.target for n in selects.get(item, ())])
            bound.append((rule, selected, owned, allowed))
        return tuple(bound)

    @cached_property
    def _owners(self) -> dict[str | None, dict[str, tuple[Rule, frozenset]]]:
        """Per event (None: every event), each owned state's rule and what
        the rule's target selects."""
        owners: dict[str | None, dict[str, tuple[Rule, frozenset]]] = {}
        for rule, _, owned, allowed in self.rules:
            owners.setdefault(rule.event, {}).update(dict.fromkeys(owned, (rule, allowed)))
        return owners


# An FSM table maps each event name to a state -> successor-state map.
StateMap = Mapping[str, str]
FsmTable = Mapping[str, StateMap]


class Violation(NamedTuple):
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
    for states, kind in _DISTINGUISHED_KINDS:
        for name in states:
            if name not in names:
                out.append(Violation("ROSTER", from_state=name, message=(
                    f"distinguished state {name!r} missing from roster")))
            elif roster.kind_of(name) is not kind:
                out.append(Violation("ROSTER", from_state=name, message=(
                    f"state {name!r} must carry kind {kind.value}")))
    for s in roster.states:
        if s.kind is KIND_CONTROL and s.name not in CONTROL_STATES:
            out.append(
                Violation("ROSTER", from_state=s.name,
                          message=f"kind control is reserved for {CONTROL_STATES}, "
                                  f"not {s.name!r}")
            )
        if s.name.startswith(KIND_NAME_PREFIX):
            out.append(
                Violation("ROSTER", from_state=s.name,
                          message=f"state {s.name!r}: the prefix {KIND_NAME_PREFIX!r} "
                                  "is reserved for the generated kind-level names")
            )
    for ev in REQUIRED_EVENTS:
        if ev not in roster.event_names:
            out.append(
                Violation("ROSTER", event=ev,
                          message=f"distinguished event {ev!r} missing from roster")
            )
    if not roster.commands:
        out.append(Violation("ROSTER", message="the roster has no command, so nothing "
                                               "can be run or compared"))
    return _sorted(out)


def _admits(allowed: frozenset, frm: str, to: str) -> bool:
    """Whether a rule whose target selects ``allowed`` maps ``frm`` to ``to``."""
    return to in allowed or (to == frm and SELF in allowed)


def _breaches(owners: Mapping[str, tuple[Rule, frozenset]], sm: StateMap,
              event: str | None) -> list[Violation]:
    """The entries of ``sm`` that the rule owning their state forbids."""
    out: list[Violation] = []
    for frm, to in sm.items():
        owner = owners.get(frm)
        # the membership test alone settles all but self-loops and breaches
        if owner is not None and to not in owner[1] and not _admits(owner[1], frm, to):
            out.append(Violation(owner[0].code, event, frm, to, owner[0].message))
    return out


def check_statemap(roster: Roster, sm: StateMap, event: str | None = None) -> list[Violation]:
    """Check one state map against the per-entry rules C1.1..C1.8.

    The rules are per entry, so a map passes iff each of its entries passes;
    restricting a passing map to any key subset keeps it passing.
    """
    names = roster._kinds.keys()
    if not (names >= sm.keys() and names >= set(sm.values())):
        for frm, to in sm.items():   # raise on the first state not in the roster
            roster.kind_of(frm), roster.kind_of(to)
    out = _breaches(roster._owners.get(None, {}), sm, event)
    if START in sm.values():
        out += [Violation("C1.1", event, frm, to, f"no state may map to {START!r}")
                for frm, to in sm.items() if to == START]
    return _sorted(out)


def check_dispatch(roster: Roster, dispatch: Mapping[str, str]) -> list[Violation]:
    """Check the dispatch targets as ``get_cmd``'s entry under CONT, which
    the dispatch map makes: the rules that own ``get_cmd`` under every
    event and under CONT apply to each target, and a roster command with
    no target leaves that entry out (TOTALITY)."""
    owners = [roster._owners.get(event, {}).get(GET_CMD) for event in (None, CONT)]
    out = [Violation("TOTALITY", CONT, GET_CMD,
                     message=f"command {cmd!r} has no dispatch entry, so "
                             f"{GET_CMD!r} has no {CONT} entry for it")
           for cmd in roster.command_names if cmd not in dispatch]
    for cmd, to in dispatch.items():
        roster.kind_of(to)   # raises UnknownState on a target not in the roster
        for rule, allowed in filter(None, owners):
            if not _admits(allowed, GET_CMD, to):
                out.append(Violation(rule.code, CONT, GET_CMD, to,
                                     f"dispatch of {cmd!r}: {rule.message}"))
    return _sorted(out)


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

    Each (event, state) pair is owned by at most one rule of :data:`RULES`.
    C12: the error class is entered only through error_ itself.  The one
    sanctioned exception is the reset hand-off error_ -> chip_rst under CONT
    (rule C8); GET_CMD_E routes error states out via C9/C10 and everything
    else it touches must fall back to error_.
    """
    out: list[Violation] = []
    for event, owners in roster._owners.items():
        if event is not None:
            out += _breaches(owners, fsm.get(event, {}), event)

    kind = roster.kind_of   # raises UnknownState on a target not in the roster
    for ev in (CONT, GET_CMD_E):
        per_state = fsm.get(ev, {})
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


def check_finish(fsm: FsmTable, dispatch: Mapping[str, str]) -> list[Violation]:
    """FINISH: every dispatched command's fault-free walk from its target
    reaches 'cmd_finish' before it repeats a state.  The walk follows CONT
    from every state, GET_CMD_E from 'chip_rst' and, at 'get_cmd', the
    command's own dispatch entry, as a fault-free run moves; the send and
    receive self-loops end by their counters (C3, C4).  A missing entry
    ends the walk, left to TOTALITY."""
    moves = {**fsm.get(CONT, {}), CHIP_RST: fsm.get(GET_CMD_E, {}).get(CHIP_RST)}
    out: list[Violation] = []
    for cmd, state in dispatch.items():
        path = {}
        while state is not None and state != CMD_FINISH and state not in path:
            path[state] = None
            state = dispatch[cmd] if state == GET_CMD else moves.get(state)
        if state in path:
            out.append(Violation("FINISH", message=f"command {cmd!r} never reaches "
                                 f"{CMD_FINISH!r}: {' -> '.join((*path, state))}"))
    return out
