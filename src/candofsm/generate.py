"""Mechanical translation of a spec document into a requirements model.

States become an exclusive mode component; events and commands become
enumerations read through current-event / current-command signals; the
byte and retransmission counters become bounded integers with next_*
shadow signals.  Every transition table entry becomes one trigger-on-event
requirement ("<from> to <to>"), the data-dependent get_cmd hand-off becomes
one requirement per dispatch target guarded by its command group, and each
state's operation is built once: one guarded requirement per conditional
branch, with a strengthened end-of-round monitor per branch (exact end event
and counter delta) on the same guard.

Every expression node is built through one node table per
:func:`generate_model` call, so each structurally distinct subexpression is
one object and the model is a DAG: a table entry's guard is the same object
as its term in ``arrive_<to>``, and ``current_event = CONT`` is built once.
``RequirementsModel.validate`` and the plan's ``Compiler`` then do their
work once per distinct node.  The table goes when the call returns, so two
models share no node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .fsm import (
    CHIP_RST,
    CMD_FINISH,
    CONT,
    ERROR_ST,
    GET_CMD,
    GET_CMD_E,
    MAX_COUNT,
    MissingPacketTemplate,
    PACKET_LENGTH,
    SPI_RX_FINISH,
    SPI_TX_FINISH,
    START,
    StateKind,
    CREATOR_KINDS,
)
from .specio import SpecDocument
from .reqs.expr import BinOp, BoolOp, DefRef, Lit, ModeActive, Not, SigRead
from .reqs.model import (
    BoolType,
    CaseBranch,
    ConstantDef,
    DataDictionary,
    Definition,
    EnumType,
    ModeAssign,
    ModeComponent,
    Requirement,
    RequirementsModel,
    SignalAssign,
    SignalDef,
    Template,
)
from .reqs.engine import STATE_COMPONENT

# Scale of the hand-written model of this machine, for the generation report.
HAND_MODEL_RECORDS = 26
HAND_MODEL_DEFINITIONS = 105
HAND_MODEL_REQUIREMENTS = 113

_KIND_LABELS = {
    StateKind.SEND: "send",
    StateKind.RECEIVE: "receive",
    StateKind.CREATOR: "packet creator",
    StateKind.CREATOR_STAGE1: "stage-one packet creation",
    StateKind.CREATOR_STAGE2: "stage-two packet creation",
    StateKind.ERROR: "error",
    StateKind.CONTROL: "control",
}


# The kind groups a class monitor names; they are emitted even when empty.
_MONITORED_KINDS = frozenset({StateKind.SEND, StateKind.RECEIVE,
                              StateKind.CREATOR_STAGE1, StateKind.CREATOR_STAGE2})


class _Nodes:
    """The expression nodes of one generation, one object per distinct
    structure.  A literal is keyed on its type and value, so ``0`` and
    ``false`` stay apart; a node with children is keyed on its children's
    identities, which the table keeps alive.  :meth:`eq` and :meth:`entered`
    are also keyed on their arguments, so asking again costs one lookup.  A
    table lasts one :func:`generate_model` call."""

    def __init__(self) -> None:
        self._table: dict[tuple, object] = {}

    def _node(self, key: tuple, make, *args):
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = make(*args)
        return node

    def lit(self, value) -> Lit:
        return self._node(("lit", type(value), value), Lit, value)

    def sig(self, name: str) -> SigRead:
        return self._node(("sig", name), SigRead, name)

    def ref(self, name: str) -> DefRef:
        return self._node(("ref", name), DefRef, name)

    def mode(self, mode: str, at: str) -> ModeActive:
        return self._node(("mode", mode, at), ModeActive, STATE_COMPONENT, mode, at)

    def not_(self, operand) -> Not:
        return self._node(("not", id(operand)), Not, operand)

    def binop(self, op: str, left, right) -> BinOp:
        return self._node((op, id(left), id(right)), BinOp, op, left, right)

    def _bool_op(self, op: str, exprs):
        """One n-ary node; an operand with the same operator gives it its own
        operands, so generated chains are flat."""
        flat: list = []
        for e in exprs:
            if isinstance(e, BoolOp) and e.op == op:
                flat += e.operands
            else:
                flat.append(e)
        if len(flat) == 1:
            return flat[0]
        return self._node((op, *map(id, flat)), BoolOp, op, tuple(flat))

    def and_(self, *exprs):
        return self._bool_op("and", exprs)

    def or_all(self, exprs):
        exprs = tuple(exprs)
        return self._bool_op("or", exprs) if exprs else self.lit(False)

    def eq(self, name: str, value) -> BinOp:
        return self._node(("eq", name, type(value), value),
                          lambda: self.binop("=", self.sig(name), self.lit(value)))

    def event_is(self, event: str) -> BinOp:
        return self.eq("current_event", event)

    def entered(self, frm: str, event: str):
        """``from_<frm> and current_event = <event>``: a table entry's guard
        and its term in ``arrive_<to>``."""
        return self._node(("entered", frm, event),
                          lambda: self.and_(self.ref(f"from_{frm}"), self.event_is(event)))


@dataclass(frozen=True)
class GenReport:
    data_records: int
    definitions: int
    requirements: int
    id_index: Mapping[tuple[str, str, str], str]

    def summary(self) -> str:
        return (
            f"generated: {self.data_records} data records, "
            f"{self.definitions} definitions, {self.requirements} requirements\n"
            f"hand-built reference model: {HAND_MODEL_RECORDS} data records, "
            f"{HAND_MODEL_DEFINITIONS} definitions, "
            f"{HAND_MODEL_REQUIREMENTS} requirements\n"
        )


def gen_dictionary(spec: SpecDocument) -> DataDictionary:
    """Data dictionary: state modes, event/command enumerations, flag signals,
    bounded counters with next_* shadows, and the three packet field signals."""
    roster = spec.roster
    addr_symbols = tuple(sorted({t.addr for t in spec.packets.values() if t.addr}))
    data_symbols = tuple(sorted({t.data for t in spec.packets.values() if t.data}))
    types = (
        EnumType("Event", roster.event_names),
        EnumType("Command", roster.command_names),
        BoolType("Flag"),
        EnumType("Address", addr_symbols),
        EnumType("PacketData", data_symbols),
    )
    constants = (
        ConstantDef("PACKET_LENGTH", "int", PACKET_LENGTH),
        ConstantDef("MAX_COUNT", "int", MAX_COUNT),
    )
    # naturals are modelled as integers with an explicit floor of zero
    signals = (
        SignalDef("current_event", "Event", initial=CONT),
        SignalDef("current_command", "Command", initial=None),
        SignalDef("command_finish_flag", "Flag", initial=False),
        SignalDef("optrode_TX_finish", "Flag", initial=False),
        SignalDef("optrode_RX_finish", "Flag", initial=False),
        SignalDef("bytes_sent", "int", minimum=0, maximum=PACKET_LENGTH, initial=0),
        SignalDef("bytes_received", "int", minimum=0, maximum=PACKET_LENGTH, initial=0),
        SignalDef("tx_cnt", "int", minimum=0, maximum=MAX_COUNT, initial=0),
        SignalDef("next_bytes_sent", "int", minimum=0, maximum=PACKET_LENGTH, initial=0),
        SignalDef("next_bytes_received", "int", minimum=0, maximum=PACKET_LENGTH,
                  initial=0),
        SignalDef("next_tx_cnt", "int", minimum=0, maximum=MAX_COUNT, initial=0),
        SignalDef("packet_addr", "Address", initial=None),
        SignalDef("packet_cmd", "Command", initial=None),
        SignalDef("packet_data", "PacketData", initial=None),
    )
    modes = (
        ModeComponent(STATE_COMPONENT, roster.state_names, exclusive=True,
                      initial=START),
    )
    return DataDictionary(types=types, constants=constants, signals=signals,
                          modes=modes)


def _preimage(spec: SpecDocument) -> dict[str, list[tuple[str, str]]]:
    """(event, from) pairs leading into each state, excluding the dispatch
    hand-off pair (CONT, get_cmd) which is command dependent."""
    out: dict[str, list[tuple[str, str]]] = {s: [] for s in spec.roster.state_names}
    for ev in spec.roster.event_names:
        per = spec.fsm.get(ev, {})
        for frm in spec.roster.state_names:
            to = per.get(frm)
            if to is None or (ev == CONT and frm == GET_CMD and spec.dispatch):
                continue
            out[to].append((ev, frm))
    return out


def _dispatch_groups(spec: SpecDocument) -> dict[str, tuple[str, ...]]:
    """Dispatch targets to their command groups, in roster order."""
    groups: dict[str, list[str]] = {}
    for cmd in spec.roster.command_names:
        target = spec.dispatch.get(cmd)
        if target is not None:
            groups.setdefault(target, []).append(cmd)
    return {t: tuple(cmds) for t, cmds in groups.items()}


def _arrival_terms(spec: SpecDocument, state: str,
                   preimage: dict[str, list[tuple[str, str]]],
                   groups: dict[str, tuple[str, ...]], nodes: _Nodes):
    """Start-snapshot conditions under which this round transitions into
    ``state``: the table preimage terms plus any dispatch-group term.

    For a send state under ``SPI_TX_FINISH`` and a receive state under
    ``SPI_RX_FINISH`` the identity-map reading is encoded instead of the
    table: the state is re-entered from itself, whatever its entry says.
    Every other entry, under these two events too, follows the table.  The
    two readings agree on a table that satisfies C3 and C4.
    """
    kind_of = spec.roster.kind_of
    identity = {SPI_TX_FINISH: StateKind.SEND, SPI_RX_FINISH: StateKind.RECEIVE}
    kind = kind_of(state)
    terms = [
        nodes.entered(frm, ev)
        for ev, frm in preimage[state]
        if ev not in identity or kind_of(frm) is not identity[ev]
    ]
    if kind is StateKind.SEND:
        terms.append(nodes.entered(state, SPI_TX_FINISH))
    elif kind is StateKind.RECEIVE:
        terms.append(nodes.entered(state, SPI_RX_FINISH))
    group = groups.get(state)
    if group:
        terms.append(_dispatched(group, nodes))
    return terms


def _dispatched(group: tuple[str, ...], nodes: _Nodes):
    """The get_cmd hand-off under ``CONT`` to a command group."""
    return nodes.and_(nodes.entered(GET_CMD, CONT),
                      nodes.or_all([nodes.eq("current_command", c) for c in group]))


def gen_definitions(spec: SpecDocument, preimage: dict[str, list[tuple[str, str]]],
                    groups: dict[str, tuple[str, ...]],
                    nodes: _Nodes | None = None) -> tuple[Definition, ...]:
    """Per-state from/to definitions, per-kind groups combined with logical
    OR, the identity-map definitions for send and receive states, and the
    arrival conditions used by the operation requirements.  ``preimage`` and
    ``groups`` are the spec's :func:`_preimage` and :func:`_dispatch_groups`;
    ``nodes`` is the node table to build with (a fresh one if not given)."""
    nodes = _Nodes() if nodes is None else nodes
    roster = spec.roster
    defs: list[Definition] = []
    sides = (("from", "start"), ("to", "end"))
    for st in roster.state_names:
        for side, at in sides:
            defs.append(Definition(
                f"{side}_{st}", f"The fsm is in state {st} at the {at} of the round",
                nodes.mode(st, at)))

    kind_groups = [(kind.value, _KIND_LABELS[kind], members) for kind in StateKind
                   if (members := roster.states_of_kind(kind))
                   or kind in _MONITORED_KINDS]
    kind_groups.append(("creators", "packet creator", roster.states_of_kind(*CREATOR_KINDS)))
    for name, label, members in kind_groups:
        for side, at in sides:
            defs.append(Definition(
                f"{side}_kind_{name}",
                f"The fsm is in a {label} state at the {at} of the round",
                nodes.or_all([nodes.ref(f"{side}_{s}") for s in members])))

    for kind in (StateKind.SEND, StateKind.RECEIVE):
        members = roster.states_of_kind(kind)
        defs.append(Definition(
            f"idmap_{kind.value}",
            f"Every {kind.value} state active at the start of the round is active "
            "at the end",
            nodes.lit(True) if not members else nodes.and_(*[
                nodes.or_all([nodes.not_(nodes.ref(f"from_{s}")), nodes.ref(f"to_{s}")])
                for s in members])))
    defs.append(Definition(
        "receive_self_loop",
        "Some receive state is active at both the start and the end of the round",
        nodes.or_all([nodes.and_(nodes.ref(f"from_{s}"), nodes.ref(f"to_{s}"))
                      for s in roster.states_of_kind(StateKind.RECEIVE)])))

    for st in roster.state_names:
        terms = _arrival_terms(spec, st, preimage, groups, nodes)
        if terms:
            defs.append(Definition(
                f"arrive_{st}",
                f"A transition into {st} fires this round",
                nodes.or_all(terms)))
    return tuple(defs)


def _state_operation(spec: SpecDocument, state: str, nodes: _Nodes) -> tuple[
        list[Requirement], list[Requirement]]:
    """The operation of one state, split per conditional branch, and one
    strengthened post-condition monitor per branch (the exact end event and
    counter value relative to its start), each branch guard built once for
    both.  Counter updates go through next_* shadows under within-0
    obligations.  Returns the ``op.*`` and the ``post.*`` requirements."""
    kind = spec.roster.kind_of(state)
    arrive = nodes.ref(f"arrive_{state}")
    ops: list[Requirement] = []
    posts: list[Requirement] = []
    lit, sig, binop, and_, eq = nodes.lit, nodes.sig, nodes.binop, nodes.and_, nodes.eq

    def toe(suffix: str, title: str, guard, effects, required=None, within=None):
        ops.append(Requirement(
            req_id=f"op.{state}.{suffix}", title=title,
            template=Template.TRIGGER_ON_EVENT, guard=guard,
            effects=tuple(effects), required=required, within=within))

    def when(suffix: str, title: str, guard, required):
        posts.append(Requirement(
            req_id=f"post.{state}.{suffix}", title=title,
            template=Template.WHEN, guard=guard, required=required))

    def set_(name: str, value) -> SignalAssign:
        return SignalAssign(name, lit(value))

    def counts(counter: str):
        """``<counter> + 1``, the value a counting branch stages and commits,
        and ``<counter> = next_<counter>``, its commit check."""
        return (binop("+", sig(counter), lit(1)),
                binop("=", sig(counter), sig(f"next_{counter}")))

    if state == START:
        return ops, posts
    if state == CHIP_RST:
        toe("reset", "chip_rst clears flags, counters and the packet",
            arrive,
            [set_("bytes_sent", 0),
             set_("bytes_received", 0),
             set_("tx_cnt", 0),
             set_("next_bytes_sent", 0),
             set_("next_bytes_received", 0),
             set_("next_tx_cnt", 0),
             set_("command_finish_flag", False),
             set_("optrode_TX_finish", False),
             set_("optrode_RX_finish", False),
             set_("packet_addr", None),
             set_("packet_cmd", None),
             set_("packet_data", None),
             set_("current_event", GET_CMD_E)])
        when("reset", f"after {state} everything is cleared",
             arrive,
             and_(nodes.event_is(GET_CMD_E), eq("bytes_sent", 0),
                  eq("bytes_received", 0), eq("tx_cnt", 0),
                  nodes.not_(sig("command_finish_flag")),
                  nodes.not_(sig("optrode_TX_finish")),
                  nodes.not_(sig("optrode_RX_finish"))))
    elif state == CMD_FINISH:
        toe("flag", "cmd_finish raises the command finish flag",
            arrive, [set_("command_finish_flag", True),
                     set_("current_event", CONT)])
        when("flag", f"after {state} the finish flag is up",
             arrive, and_(nodes.event_is(CONT), sig("command_finish_flag")))
    elif kind is StateKind.SEND:
        counting = and_(arrive, binop("<", sig("bytes_sent"), lit(PACKET_LENGTH)))
        done = and_(arrive, eq("bytes_sent", PACKET_LENGTH))
        can_count_tx = and_(done, binop("<", sig("tx_cnt"), lit(MAX_COUNT)))
        byte_up, byte_committed = counts("bytes_sent")
        tx_up, tx_committed = counts("tx_cnt")
        toe("count_next", f"{state} stages the next byte count",
            counting, [SignalAssign("next_bytes_sent", byte_up)])
        toe("count", f"{state} sends one byte",
            counting,
            [SignalAssign("bytes_sent", byte_up),
             set_("current_event", SPI_TX_FINISH)],
            required=byte_committed, within=0)
        ops.append(Requirement(
            req_id=f"op.{state}.done",
            title=f"{state} completes the transmission",
            template=Template.CASE,
            branches=(CaseBranch(done, (
                set_("bytes_sent", 0),
                set_("optrode_TX_finish", True),
                set_("current_event", CONT),
            )),)))
        toe("tx_next", f"{state} stages the transmission count",
            can_count_tx, [SignalAssign("next_tx_cnt", tx_up)])
        toe("tx", f"{state} counts the completed transmission",
            can_count_tx, [SignalAssign("tx_cnt", tx_up)],
            required=tx_committed, within=0)
        when("progress", f"{state} in progress ends in SPI_TX_FINISH",
             counting, and_(nodes.event_is(SPI_TX_FINISH), byte_committed))
        when("complete", f"{state} completion counts the transmission",
             can_count_tx,
             and_(nodes.event_is(CONT), eq("bytes_sent", 0),
                  sig("optrode_TX_finish"), tx_committed))
        when("saturated", f"{state} completion at the retransmission cap",
             and_(done, binop(">=", sig("tx_cnt"), lit(MAX_COUNT))),
             and_(nodes.event_is(CONT), eq("bytes_sent", 0),
                  sig("optrode_TX_finish"), eq("tx_cnt", MAX_COUNT)))
    elif kind is StateKind.RECEIVE:
        counting = and_(arrive, binop("<", sig("bytes_received"), lit(PACKET_LENGTH)))
        done = and_(arrive, eq("bytes_received", PACKET_LENGTH))
        byte_up, byte_committed = counts("bytes_received")
        toe("count_next", f"{state} stages the next byte count",
            counting, [SignalAssign("next_bytes_received", byte_up)])
        toe("count", f"{state} receives one byte",
            counting,
            [SignalAssign("bytes_received", byte_up),
             set_("current_event", SPI_RX_FINISH)],
            required=byte_committed, within=0)
        ops.append(Requirement(
            req_id=f"op.{state}.done",
            title=f"{state} completes the reception",
            template=Template.CASE,
            branches=(CaseBranch(done, (
                set_("bytes_received", 0),
                set_("optrode_RX_finish", True),
                set_("current_event", CONT),
            )),)))
        when("progress", f"{state} in progress ends in SPI_RX_FINISH",
             counting, and_(nodes.event_is(SPI_RX_FINISH), byte_committed))
        when("complete", f"{state} completion raises the receive flag",
             done,
             and_(nodes.event_is(CONT), eq("bytes_received", 0),
                  sig("optrode_RX_finish")))
    else:
        # the other operations set fixed fields and end in CONT
        if state == GET_CMD:
            suffix, title, effects = "event", "get_cmd awaits the command", []
        elif state == ERROR_ST or kind is StateKind.ERROR:
            # every error state but chip_rst idles like error_
            suffix, title, effects = "event", f"{state} idles", []
        elif kind in CREATOR_KINDS:
            template = spec.packets.get(state)
            if template is None:
                raise MissingPacketTemplate(state)
            if kind is StateKind.CREATOR_STAGE2:
                suffix, title = "data", f"{state} fills in the packet data"
                effects = [set_("packet_data", template.data)]
            else:
                cmd_expr = (lit(template.cmd) if template.cmd is not None
                            else sig("current_command"))
                suffix = "make"
                title = f"{state} creates the packet address and command"
                effects = [set_("packet_addr", template.addr),
                           SignalAssign("packet_cmd", cmd_expr),
                           set_("packet_data", template.data)]
        else:
            raise AssertionError(f"unhandled kind {kind} for {state!r}")
        toe(suffix, title, arrive, [*effects, set_("current_event", CONT)])
        when("event", f"after {state} the event is CONT", arrive, nodes.event_is(CONT))
    return ops, posts


def _class_monitors(spec: SpecDocument, nodes: _Nodes) -> list[Requirement]:
    roster = spec.roster
    ref = nodes.ref
    reqs: list[Requirement] = [Requirement(
        req_id="mon.C1.1", title="no transition targets start",
        template=Template.EVERY,
        required=nodes.not_(nodes.mode(START, "end")))]
    if not any(spec.fsm.get(ev) for ev in roster.event_names):
        return reqs  # with no transitions the run-time rules have nothing to watch
    have = set(roster.state_names)

    def when(code: str, title: str, guard, required, needs=()):
        if all(s in have for s in needs):
            reqs.append(Requirement(req_id=f"mon.{code}", title=title,
                                    template=Template.WHEN, guard=guard,
                                    required=required))

    to_err = ref(f"to_{ERROR_ST}")
    when("C1.2", "start moves to get_cmd or error_",
         ref(f"from_{START}"), nodes.or_all([ref(f"to_{GET_CMD}"), to_err]),
         needs=(START, GET_CMD, ERROR_ST))
    when("C1.3", "chip_rst moves to get_cmd or error_",
         ref(f"from_{CHIP_RST}"), nodes.or_all([ref(f"to_{GET_CMD}"), to_err]),
         needs=(CHIP_RST, GET_CMD, ERROR_ST))
    when("C1.4", "error_ moves to get_cmd, error_ or chip_rst",
         ref(f"from_{ERROR_ST}"),
         nodes.or_all([ref(f"to_{GET_CMD}"), to_err, ref(f"to_{CHIP_RST}")]),
         needs=(ERROR_ST, GET_CMD, CHIP_RST))
    when("C1.5", "cmd_finish moves to error_",
         ref(f"from_{CMD_FINISH}"), to_err, needs=(CMD_FINISH, ERROR_ST))
    when("C1.6", "packet creators move to send states or error_",
         ref("from_kind_creators"),
         nodes.or_all([ref("to_kind_send"), to_err]), needs=(ERROR_ST,))
    when("C1.7", "receives move to stage-two creators, cmd_finish, error_ or "
                 "themselves",
         ref("from_kind_receive"),
         nodes.or_all([ref("to_kind_creator_stage2"), ref(f"to_{CMD_FINISH}"),
                    to_err, ref("receive_self_loop")]),
         needs=(CMD_FINISH, ERROR_ST))
    when("C1.8", "get_cmd moves to stage-one creators or error_",
         ref(f"from_{GET_CMD}"),
         nodes.or_all([ref("to_kind_creator_stage1"), to_err]),
         needs=(GET_CMD, ERROR_ST))
    when("C2", "under CONT send states move to receive states",
         nodes.and_(ref("from_kind_send"), nodes.event_is(CONT)),
         ref("to_kind_receive"))
    when("C5", "under CONT packet creators move to send states",
         nodes.and_(ref("from_kind_creators"), nodes.event_is(CONT)),
         ref("to_kind_send"))
    other_error = [s for s in roster.states_of_kind(StateKind.ERROR)
                   if s != ERROR_ST]
    if other_error and ERROR_ST in have:
        when("C6", "under CONT error states move to error_",
             nodes.and_(nodes.or_all([ref(f"from_{s}") for s in other_error]),
                     nodes.event_is(CONT)),
             to_err)
    when("C11", "under CONT receives move to stage-two creators or cmd_finish",
         nodes.and_(ref("from_kind_receive"), nodes.event_is(CONT)),
         nodes.or_all([ref("to_kind_creator_stage2"), ref(f"to_{CMD_FINISH}")]),
         needs=(CMD_FINISH,))
    return reqs


def gen_requirements(spec: SpecDocument, preimage: dict[str, list[tuple[str, str]]],
                     groups: dict[str, tuple[str, ...]],
                     nodes: _Nodes | None = None) -> tuple[
        tuple[Requirement, ...], dict[tuple[str, str, str], str]]:
    """All requirements plus the id index: (event, from, to) -> requirement id.

    Ids are stable: the requirement for table entry (event e, state s) is
    ``"<eventIndex>.<stateIndex>"``; the extra dispatch-target requirements
    extend that with the target index.  ``preimage``, ``groups`` and ``nodes``
    are as for :func:`gen_definitions`.
    """
    nodes = _Nodes() if nodes is None else nodes
    roster = spec.roster
    event_index = {e: i for i, e in enumerate(roster.event_names)}
    state_index = {s: i for i, s in enumerate(roster.state_names)}

    reqs: list[Requirement] = []
    id_index: dict[tuple[str, str, str], str] = {}

    for ev in roster.event_names:
        per = spec.fsm.get(ev, {})
        for frm in roster.state_names:
            to = per.get(frm)
            if to is None:
                continue
            base_id = f"{event_index[ev]}.{state_index[frm]:02d}"
            if ev == CONT and frm == GET_CMD and groups:
                # one requirement per dispatch target; the one matching the
                # table entry owns the table id
                for target in sorted(groups, key=state_index.get):
                    rid = (base_id if target == to
                           else f"{base_id}.{state_index[target]:02d}")
                    reqs.append(Requirement(
                        req_id=rid, title=f"{frm} to {target}",
                        template=Template.TRIGGER_ON_EVENT,
                        guard=_dispatched(groups[target], nodes),
                        effects=(ModeAssign(STATE_COMPONENT, target),)))
                    id_index[(ev, frm, target)] = rid
            else:
                reqs.append(Requirement(
                    req_id=base_id, title=f"{frm} to {to}",
                    template=Template.TRIGGER_ON_EVENT,
                    guard=nodes.entered(frm, ev),
                    effects=(ModeAssign(STATE_COMPONENT, to),)))
                id_index[(ev, frm, to)] = base_id

    posts: list[Requirement] = []
    for st in roster.state_names:
        if preimage[st] or st in groups:
            state_ops, state_posts = _state_operation(spec, st, nodes)
            reqs.extend(state_ops)
            posts.extend(state_posts)
    reqs.extend(posts)
    reqs.extend(_class_monitors(spec, nodes))
    reqs.append(Requirement(
        req_id=f"modeset.{STATE_COMPONENT}",
        title="the fsm is in exactly one state at a time",
        template=Template.MODE_SET, component=STATE_COMPONENT))
    return tuple(reqs), id_index


def generate_model(spec: SpecDocument) -> tuple[RequirementsModel, GenReport]:
    """Dictionary, definitions and requirements as one validated model, with
    the generation report counted from that model.  Definitions and
    requirements are built from one node table, so equal subexpressions are
    one object; the table goes when the call returns."""
    preimage, groups = _preimage(spec), _dispatch_groups(spec)
    nodes = _Nodes()
    requirements, id_index = gen_requirements(spec, preimage, groups, nodes)
    model = RequirementsModel(
        dictionary=gen_dictionary(spec),
        definitions=gen_definitions(spec, preimage, groups, nodes),
        requirements=requirements,
    )
    model.validate()
    report = GenReport(
        data_records=model.dictionary.record_count,
        definitions=len(model.definitions),
        requirements=len(model.requirements),
        id_index=id_index,
    )
    return model, report


# --- prose rendering ---------------------------------------------------------

def _prose(expr, defs: Mapping[str, Definition]) -> str:
    if isinstance(expr, DefRef) and expr.name in defs:
        return defs[expr.name].text
    if isinstance(expr, ModeActive):
        return (f"The {expr.component} is in state {expr.mode} at the "
                f"{expr.at} of the round")
    if isinstance(expr, Lit):
        if expr.value is None:
            return "nil"
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        return str(expr.value)
    if isinstance(expr, SigRead):
        return expr.name.replace("_", " ")
    if isinstance(expr, Not):
        return f"it is not the case that {_prose(expr.operand, defs)}"
    if isinstance(expr, BoolOp):
        return f" {expr.op} ".join(_prose(o, defs) for o in expr.operands)
    if isinstance(expr, BinOp):
        if expr.op == "=" and isinstance(expr.left, SigRead):
            return (f"The {expr.left.name.replace('_', ' ')} is "
                    f"{_prose(expr.right, defs)}")
        return f"{_prose(expr.left, defs)} {expr.op} {_prose(expr.right, defs)}"
    return str(expr)


def _effect_prose(effect, defs: Mapping[str, Definition]) -> str:
    if isinstance(effect, ModeAssign):
        name = f"to_{effect.mode}"
        if name in defs:
            return defs[name].text
        return f"The {effect.component} is in state {effect.mode} at the end of the round"
    return (f"The {effect.name.replace('_', ' ')} is set to "
            f"{_prose(effect.expr, defs)}")


def _conjuncts(expr) -> list:
    if isinstance(expr, BoolOp) and expr.op == "and":
        return [c for o in expr.operands for c in _conjuncts(o)]
    return [expr]


def _requirement_block(req: Requirement, defs: Mapping[str, Definition],
                       project: str) -> list[str]:
    lines = [f"### {project}/{req.req_id}: {req.title}", ""]
    if req.template is Template.TRIGGER_ON_EVENT:
        lines.append("If")
        first, *rest = _conjuncts(req.guard)
        lines.append(f"  {_prose(first, defs)}")
        lines.extend(f"  and {_prose(part, defs)}" for part in rest)
        lines.append("occurs, then")
        for effect in req.effects:
            lines.append(f"  {_effect_prose(effect, defs)}")
        if req.required is not None:
            within = f" within {req.within} rounds" if req.within is not None else ""
            lines.append(f"  and {_prose(req.required, defs)}{within}")
        lines.append("holds.")
    elif req.template is Template.WHEN:
        lines.append("Whenever")
        lines.append(f"  {_prose(req.guard, defs)}")
        lines.append("holds, then")
        lines.append(f"  {_prose(req.required, defs)}")
        lines.append("holds.")
    elif req.template is Template.EVERY:
        lines.append("At all times,")
        lines.append(f"  {_prose(req.required, defs)}")
        lines.append("holds.")
    elif req.template is Template.MODE_SET:
        lines.append(f"The {req.component} component has exactly one of its "
                     "modes active at a time.")
    else:   # a case
        for i, branch in enumerate(req.branches, start=1):
            lines.append(f"Case {i}: if {_prose(branch.guard, defs)} then")
            for effect in branch.effects:
                lines.append(f"  {_effect_prose(effect, defs)}")
    lines.append("")
    return lines


def render_requirements_markdown(model: RequirementsModel,
                                 project: str = "cando") -> str:
    defs = model.definition_map()
    lines = [f"# Requirements model: {project}", ""]
    for req in model.requirements:
        lines.extend(_requirement_block(req, defs, project))
    return "\n".join(lines) + "\n"


def render_requirements_html(model: RequirementsModel,
                             project: str = "cando") -> str:
    import html as _html

    defs = model.definition_map()
    out = ["<!DOCTYPE html>", "<html><head><meta charset=\"utf-8\">",
           f"<title>Requirements model: {_html.escape(project)}</title>",
           "</head><body>",
           f"<h1>Requirements model: {_html.escape(project)}</h1>"]
    for req in model.requirements:
        block = _requirement_block(req, defs, project)
        out.append(f"<h3>{_html.escape(block[0][4:])}</h3>")
        body = "\n".join(block[2:]).strip()
        out.append(f"<pre>{_html.escape(body)}</pre>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"
