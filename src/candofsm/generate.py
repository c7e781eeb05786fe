"""Mechanical translation of a spec document into a requirements model.

States become an exclusive mode component; events and commands become
enumerations read through current-event / current-command signals; the
byte and retransmission counters become bounded integers with next_*
shadow signals.  The transition table is read once, into the arrows of the
state diagram: each distinct (from, to) pair becomes one trigger-on-event
requirement ("<from> to <to>") guarded as a hand modeller would guard it,
``from_<from> and (current_event = E1 or …)`` over the events of the
entries that lead along it, with the data-dependent get_cmd hand-off
guarded by the target's command group as a disjunct of its own.
``arrive_<state>`` is the OR of the guards of the arrows into the state,
and ``arrive_kind_<part>`` the OR of a kind's ``arrive_<state>``.  As a VDM
modeller writes them, the send and receive operations and a creator's end
event are built once per kind, the rest once per state: one guarded
requirement per conditional branch, with a strengthened end-of-round
monitor per branch (exact end event and counter delta) on the same guard.

Every expression node is built through one node table per
:func:`generate_model` call: a :class:`~.reqs.expr.Nodes` with the
translation's shorthands.  Each structurally distinct subexpression is one
object, so the model is a DAG: an arrow's guard is the same object in
``arrive_<to>``, and ``current_event = CONT`` is built once.
``RequirementsModel.validate`` and the plan's ``Compiler`` memoise by
identity, so they do their work once per distinct node.  The table goes
when the call returns, so two models share no node.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .fsm import (
    CHIP_RST,
    CMD_FINISH,
    CONT,
    CREATOR_KINDS,
    ERROR_ST,
    GET_CMD,
    GET_CMD_E,
    KIND_CREATOR_STAGE2,
    KIND_ERROR,
    KIND_NAME_PREFIX,
    KIND_RECEIVE,
    KIND_SEND,
    MAX_COUNT,
    MissingPacketTemplate,
    PACKET_LENGTH,
    SELF,
    SPI_RX_FINISH,
    SPI_TX_FINISH,
    START,
    StateKind,
)
from .specio import SpecDocument
from .reqs.expr import BinOp, BoolOp, DefRef, Lit, ModeActive, Nodes, Not, SigRead
from .reqs.model import (
    EVERY,
    MODE_SET,
    TRIGGER_ON_EVENT,
    WHEN,
    BoolType,
    DataDictionary,
    Definition,
    EnumType,
    ModeAssign,
    ModeComponent,
    Requirement,
    RequirementsModel,
    SignalAssign,
    SignalDef,
)
from .reqs.engine import STATE_COMPONENT

# Scale of the hand-written model of this machine, for the generation report.
HAND_MODEL_RECORDS = 26
HAND_MODEL_DEFINITIONS = 105
HAND_MODEL_REQUIREMENTS = 113

# The project name that heads the markdown report and prefixes its ids.
PROJECT = "cando"

# Each kind and kind group that ``fsm.RULES`` names: its name part and label.
_GROUPS = {
    StateKind.SEND: ("send", "send"),
    StateKind.RECEIVE: ("receive", "receive"),
    StateKind.CREATOR: ("creator", "packet creation"),
    StateKind.CREATOR_STAGE1: ("creator_stage1", "stage-one packet creation"),
    StateKind.CREATOR_STAGE2: ("creator_stage2", "stage-two packet creation"),
    StateKind.ERROR: ("error", "error"),
    CREATOR_KINDS: ("creators", "packet creator"),
}


class _Nodes(Nodes):
    """The node table of one :func:`generate_model` call, with the
    translation's shorthands.  :meth:`and_` and :meth:`or_all` flatten an
    operand with the same operator into its own operands, so generated
    chains are flat.  :meth:`eq` is also keyed on its arguments, so asking
    again costs one lookup."""

    def state(self, mode: str, at: str) -> ModeActive:
        return self.mode(STATE_COMPONENT, mode, at)

    def _flat(self, op: str, exprs):
        flat: list = []
        for e in exprs:
            if isinstance(e, BoolOp) and e.op == op:
                flat += e.operands
            else:
                flat.append(e)
        return flat[0] if len(flat) == 1 else self.bool_op(op, flat)

    def and_(self, *exprs):
        return self._flat("and", exprs)

    def or_all(self, exprs):
        exprs = tuple(exprs)
        return self._flat("or", exprs) if exprs else self.lit(False)

    def eq(self, name: str, value) -> BinOp:
        return self._node(("eq", name, type(value), value),
                          lambda: self.binop("=", self.sig(name), self.lit(value)))

    def event_is(self, event: str) -> BinOp:
        return self.eq("current_event", event)

    def entered(self, frm: str, *events: str):
        """``from_<frm> and current_event = <event>``, or with more than one
        event ``from_<frm> and (current_event = <E1> or …)``: the guard of
        the table entries (event, frm) of one arrow."""
        return self.and_(self.ref(f"from_{frm}"), self.or_all(map(self.event_is, events)))


class GenReport(NamedTuple):
    """Counts of the generated records, definitions and requirements."""

    data_records: int
    definitions: int
    requirements: int

    def summary(self) -> str:
        return (
            f"generated: {self.data_records} data records, "
            f"{self.definitions} definitions, {self.requirements} requirements\n"
            f"hand-built reference model: {HAND_MODEL_RECORDS} data records, "
            f"{HAND_MODEL_DEFINITIONS} definitions, "
            f"{HAND_MODEL_REQUIREMENTS} requirements\n"
        )


def _dictionary(spec: SpecDocument) -> DataDictionary:
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
        ModeComponent(STATE_COMPONENT, roster.state_names, initial=START),
    )
    return DataDictionary(types=types, signals=signals, modes=modes)


def _arrows(spec: SpecDocument, nodes: _Nodes) -> dict[tuple[str, str], object]:
    """The table's one reading: each arrow (from, to) of the state diagram,
    in roster order, with its guard.  The guard says ``from`` once, as a
    hand modeller would: ``from_<from> and current_event = <E>`` for an
    arrow of one entry (E, from), ``from_<from> and (current_event = <E1>
    or …)`` for an arrow of more.  For a dispatch target, the get_cmd
    hand-off under ``CONT`` guarded by the target's command group is its
    own disjunct, and replaces that entry.  An entry whose rule admits only
    its own state (C3, C4) leads back to that state, whatever the table
    says; the readings agree on a table that satisfies the rule."""
    roster = spec.roster
    identity = {(rule.event, s) for rule, _, owned, _ in roster.rules
                if rule.target == (SELF,) for s in owned}
    groups: dict[str, list] = {}
    for cmd in roster.command_names:
        target = spec.dispatch.get(cmd)
        if target is not None:
            groups.setdefault(target, []).append(nodes.eq("current_command", cmd))
    events: dict[tuple[str, str], list[str]] = {}
    for ev in roster.event_names:
        per = spec.fsm.get(ev, {})
        for frm in roster.state_names:
            to = per.get(frm)
            if to is None or (ev == CONT and frm == GET_CMD and groups):
                continue
            events.setdefault((frm, frm if (ev, frm) in identity else to), []).append(ev)
    terms = {arrow: [nodes.entered(arrow[0], *evs)] for arrow, evs in events.items()}
    for target, cmds in groups.items():
        terms.setdefault((GET_CMD, target), []).append(
            nodes.and_(nodes.entered(GET_CMD, CONT), nodes.or_all(cmds)))
    index = {s: i for i, s in enumerate(roster.state_names)}
    return {arrow: nodes.or_all(terms[arrow])
            for arrow in sorted(terms, key=lambda a: (index[a[0]], index[a[1]]))}


def _operation(spec: SpecDocument, kind: StateKind, nodes: _Nodes, ops: list,
               posts: list, state: str | None = None) -> None:
    """An operation split per conditional branch, into ``ops``, and one
    strengthened post-condition monitor per branch (the exact end event and
    counter value relative to its start), into ``posts``, each branch guard
    built once for both.  With a ``state``, its own part under
    ``arrive_<state>``; else the part all states of ``kind`` share, under
    ``arrive_kind_<part>``.  Counter updates go through next_* shadows, each
    commit checked by its trigger's required condition and each reset
    zeroing both, so a shadow equals its counter at every round boundary."""
    name = state or f"{KIND_NAME_PREFIX}{_GROUPS[kind][0]}"
    who = state or f"a {_GROUPS[kind][1]} state"
    arrive = nodes.ref(f"arrive_{name}")
    lit, sig, binop, and_, eq = nodes.lit, nodes.sig, nodes.binop, nodes.and_, nodes.eq

    def toe(suffix: str, title: str, guard, effects, required=None):
        ops.append(Requirement(
            req_id=f"op.{name}.{suffix}", title=title,
            template=TRIGGER_ON_EVENT, guard=guard,
            effects=tuple(effects), required=required))

    def when(suffix: str, title: str, guard, required):
        posts.append(Requirement(
            req_id=f"post.{name}.{suffix}", title=title,
            template=WHEN, guard=guard, required=required))

    def set_(record: str, value) -> SignalAssign:
        return SignalAssign(record, lit(value))

    def counts(counter: str):
        """``<counter> + 1``, the value a counting branch stages and commits,
        and ``<counter> = next_<counter>``, its commit check."""
        return (binop("+", sig(counter), lit(1)),
                binop("=", sig(counter), sig(f"next_{counter}")))

    def count_bytes(counter: str, finish: str, flag: str, verb: str, noun: str):
        """The branches a send and a receive share: while ``counter`` is
        short of a packet, stage and commit one more byte and end in the
        ``finish`` event (with its progress monitor); once it is full, reset
        it and its shadow, raise ``flag`` and end in CONT.  Returns the full
        branch's guard."""
        counting = and_(arrive, binop("<", sig(counter), lit(PACKET_LENGTH)))
        done = and_(arrive, eq(counter, PACKET_LENGTH))
        up, committed = counts(counter)
        toe("count_next", f"{who} stages the next byte count",
            counting, [SignalAssign(f"next_{counter}", up)])
        toe("count", f"{who} {verb} one byte",
            counting, [SignalAssign(counter, up), set_("current_event", finish)],
            required=committed)
        toe("done", f"{who} completes the {noun}",
            done, [set_(counter, 0), set_(f"next_{counter}", 0),
                   set_(flag, True), set_("current_event", CONT)])
        when("progress", f"{who} in progress ends in {finish}",
             counting, and_(nodes.event_is(finish), committed))
        return done

    if state == START:
        return
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
    elif kind is KIND_SEND:
        done = count_bytes("bytes_sent", SPI_TX_FINISH, "optrode_TX_finish", "sends",
                           "transmission")
        can_count_tx = and_(done, binop("<", sig("tx_cnt"), lit(MAX_COUNT)))
        tx_up, tx_committed = counts("tx_cnt")
        toe("tx_next", f"{who} stages the transmission count",
            can_count_tx, [SignalAssign("next_tx_cnt", tx_up)])
        toe("tx", f"{who} counts the completed transmission",
            can_count_tx, [SignalAssign("tx_cnt", tx_up)],
            required=tx_committed)
        when("complete", "a completed transmission is counted",
             can_count_tx,
             and_(nodes.event_is(CONT), eq("bytes_sent", 0),
                  sig("optrode_TX_finish"), tx_committed))
        when("saturated", "a completed transmission at the retransmission cap",
             and_(done, binop(">=", sig("tx_cnt"), lit(MAX_COUNT))),
             and_(nodes.event_is(CONT), eq("bytes_sent", 0),
                  sig("optrode_TX_finish"), eq("tx_cnt", MAX_COUNT)))
    elif kind is KIND_RECEIVE:
        done = count_bytes("bytes_received", SPI_RX_FINISH, "optrode_RX_finish",
                           "receives", "reception")
        when("complete", "a completed reception raises the receive flag",
             done,
             and_(nodes.event_is(CONT), eq("bytes_received", 0),
                  sig("optrode_RX_finish")))
    elif state is None:
        # every creator ends in CONT; the packet it builds is its own
        when("event", f"after {who} the event is CONT", arrive, nodes.event_is(CONT))
    elif kind in CREATOR_KINDS:
        template = spec.packets.get(state)
        if template is None:
            raise MissingPacketTemplate(state)
        if kind is KIND_CREATOR_STAGE2:
            toe("data", f"{state} fills in the packet data", arrive,
                [set_("packet_data", template.data), set_("current_event", CONT)])
        else:
            cmd_expr = (lit(template.cmd) if template.cmd is not None
                        else sig("current_command"))
            toe("make", f"{state} creates the packet address and command", arrive,
                [set_("packet_addr", template.addr), SignalAssign("packet_cmd", cmd_expr),
                 set_("packet_data", template.data), set_("current_event", CONT)])
    else:
        # get_cmd and every error state but chip_rst set no field and end in
        # CONT
        if state == GET_CMD:
            title = "get_cmd awaits the command"
        elif state == ERROR_ST or kind is KIND_ERROR:
            title = f"{state} idles"
        else:
            raise AssertionError(f"unhandled kind {kind} for {state!r}")
        toe("event", title, arrive, [set_("current_event", CONT)])
        when("event", f"after {state} the event is CONT", arrive, nodes.event_is(CONT))


def _class_monitors(spec: SpecDocument, nodes: _Nodes) -> tuple[
        tuple[Requirement, ...], tuple[Definition, ...]]:
    """``mon.C1.1``, then one monitor per rule of :data:`~.fsm.RULES` that has
    a title, owns a state and names only roster states (none with no
    transitions): whenever a state it owns is left (under its event), a
    state it admits is entered.  The guard reads the rule's source, or the
    states it owns where an earlier rule owns some that the source selects.
    Also the kind-group and self-loop definitions the monitors read, in the
    order first read."""
    roster = spec.roster
    ref = nodes.ref
    defs: dict[str, Definition] = {}

    def read(side: str, item, source: tuple):
        """The definition a selector item stands for at the ``from`` or
        ``to`` side; SELF is a loop in the group of the rule's ``source``."""
        if item.__class__ is str:
            return ref(f"{side}_{item}")
        group = source[0] if item is SELF else item
        part, label = _GROUPS[group]
        name = f"{part}_self_loop" if item is SELF else f"{side}_{KIND_NAME_PREFIX}{part}"
        if name not in defs:
            members = roster.states_of_kind(*(group if group.__class__ is tuple else (group,)))
            if item is SELF:
                text = f"Some {label} state is active at both the start and the end of the round"
                expr = nodes.or_all([nodes.and_(ref(f"from_{s}"), ref(f"to_{s}"))
                                     for s in members])
            else:
                at = "start" if side == "from" else "end"
                text = f"The fsm is in a {label} state at the {at} of the round"
                expr = nodes.or_all([ref(f"{side}_{s}") for s in members])
            defs[name] = Definition(name, text, expr)
        return ref(name)

    reqs: list[Requirement] = [Requirement(
        req_id="mon.C1.1", title="no transition targets start",
        template=EVERY,
        required=nodes.not_(ref(f"to_{START}")))]
    if not any(spec.fsm.get(ev) for ev in roster.event_names):
        return tuple(reqs), ()
    for rule, selected, owned, _ in roster.rules:
        if rule.title is None or not owned or not all(
                item in roster.state_names for item in rule.source + rule.target
                if item.__class__ is str):
            continue
        source = rule.source if len(owned) == len(selected) else owned
        guard = nodes.or_all([read("from", item, rule.source) for item in source])
        if rule.event is not None:
            guard = nodes.and_(guard, nodes.event_is(rule.event))
        reqs.append(Requirement(
            req_id=f"mon.{rule.code}", title=rule.title, template=WHEN, guard=guard,
            required=nodes.or_all([read("to", item, rule.source) for item in rule.target])))
    return tuple(reqs), tuple(defs.values())


def generate_model(spec: SpecDocument) -> tuple[RequirementsModel, GenReport]:
    """The translation as one validated model, with the generation report
    counted from it.  The table is read once into its arrows and the rule
    catalogue once into the class monitors; one pass over the roster builds
    each state's from/to definitions, its ``arrive_<state>`` (the OR of the
    guards of the arrows into it) and its own operation requirements; a
    pass over the kinds builds the shared ones.  Each
    arrow is one trigger, titled ``"<from> to <to>"`` with id
    ``"<fromIndex>.<toIndex>"``.  Every node comes from one table, so equal
    subexpressions are one object; the table goes when the call returns."""
    nodes = _Nodes()
    arrows = _arrows(spec, nodes)
    monitors, monitor_defs = _class_monitors(spec, nodes)
    index = {s: i for i, s in enumerate(spec.roster.state_names)}
    reqs = [Requirement(
        req_id=f"{index[frm]:02d}.{index[to]:02d}", title=f"{frm} to {to}",
        template=TRIGGER_ON_EVENT, guard=guard,
        effects=(ModeAssign(STATE_COMPONENT, to),))
        for (frm, to), guard in arrows.items()]
    into: dict[str, list] = {}
    for (_, to), guard in arrows.items():
        into.setdefault(to, []).append(guard)

    defs: list[Definition] = []
    arrivals: list[Definition] = []
    posts: list[Requirement] = []
    for st in spec.roster.state_names:
        for side, at in (("from", "start"), ("to", "end")):
            defs.append(Definition(
                f"{side}_{st}", f"The fsm is in state {st} at the {at} of the round",
                nodes.state(st, at)))
        if st in into:
            arrivals.append(Definition(
                f"arrive_{st}", f"A transition into {st} fires this round",
                nodes.or_all(into[st])))
            kind = spec.roster.kind_of(st)
            if kind is not KIND_SEND and kind is not KIND_RECEIVE:
                _operation(spec, kind, nodes, reqs, posts, st)
    for kind in (KIND_SEND, KIND_RECEIVE, *CREATOR_KINDS):
        entered = [nodes.ref(f"arrive_{s}") for s in spec.roster.states_of_kind(kind)
                   if s in into]
        if entered:
            part, label = _GROUPS[kind]
            arrivals.append(Definition(
                f"arrive_{KIND_NAME_PREFIX}{part}",
                f"A transition into a {label} state fires this round", nodes.or_all(entered)))
            _operation(spec, kind, nodes, reqs, posts)
    modeset = Requirement(
        req_id=f"modeset.{STATE_COMPONENT}",
        title="the fsm is in exactly one state at a time",
        template=MODE_SET, component=STATE_COMPONENT)

    model = RequirementsModel(
        dictionary=_dictionary(spec),
        definitions=(*defs, *monitor_defs, *arrivals),
        requirements=(*reqs, *posts, *monitors, modeset),
    )
    model.validate()
    report = GenReport(
        data_records=sum(map(len, model.dictionary)),   # types, signals, modes
        definitions=len(model.definitions),
        requirements=len(model.requirements),
    )
    return model, report


# --- prose rendering ---------------------------------------------------------

def _prose(expr, defs: Mapping[str, Definition]) -> str:
    if isinstance(expr, DefRef):
        # by its name if the model does not define it: an unvalidated model
        return defs[expr.name].text if expr.name in defs else expr.name
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
        signal = _one_signal(expr)
        if signal is not None:
            return (f"The {signal.replace('_', ' ')} is one of "
                    + ", ".join(_prose(o.right, defs) for o in expr.operands))
        # a chain in a chain of the other operator is bracketed
        return f" {expr.op} ".join(
            f"({_prose(o, defs)})" if isinstance(o, BoolOp) and o.op != expr.op
            and _one_signal(o) is None else _prose(o, defs) for o in expr.operands)
    if isinstance(expr, BinOp):
        if expr.op == "=" and isinstance(expr.left, SigRead):
            return (f"The {expr.left.name.replace('_', ' ')} is "
                    f"{_prose(expr.right, defs)}")
        return f"{_prose(expr.left, defs)} {expr.op} {_prose(expr.right, defs)}"
    raise ValueError(f"cannot render {expr!r}")


def _one_signal(expr: BoolOp) -> str | None:
    """The signal of an ``or`` whose operands are all ``signal = literal`` on
    that one signal, which reads as one phrase; else None."""
    names = {o.left.name if isinstance(o, BinOp) and o.op == "=" and isinstance(
        o.left, SigRead) and isinstance(o.right, Lit) else None for o in expr.operands}
    return names.pop() if expr.op == "or" and len(names) == 1 else None


def _effect_prose(effect, defs: Mapping[str, Definition]) -> str:
    if isinstance(effect, ModeAssign):
        name = f"to_{effect.mode}"
        if name in defs:
            return defs[name].text
        return f"The {effect.component} is in state {effect.mode} at the end of the round"
    return (f"The {effect.name.replace('_', ' ')} is set to "
            f"{_prose(effect.expr, defs)}")


def _lines(expr, ops: tuple[str, ...], defs: Mapping[str, Definition]) -> list[str]:
    """``expr`` one operand a line if it is a chain of one of ``ops``, each
    operand after the first led by the operator; else on one line."""
    if isinstance(expr, BoolOp) and expr.op in ops:
        first, *rest = expr.operands
        return [f"  {_prose(first, defs)}",
                *(f"  {expr.op} {_prose(o, defs)}" for o in rest)]
    return [f"  {_prose(expr, defs)}"]


def _requirement_block(req: Requirement, defs: Mapping[str, Definition]) -> list[str]:
    lines = [f"### {PROJECT}/{req.req_id}: {req.title}", ""]
    if req.template is TRIGGER_ON_EVENT:
        lines.append("If")
        lines += _lines(req.guard, ("and", "or"), defs)
        lines.append("occurs, then")
        for effect in req.effects:
            lines.append(f"  {_effect_prose(effect, defs)}")
        if req.required is not None:
            lines.append(f"  and {_prose(req.required, defs)}")
        lines.append("holds.")
    elif req.template is WHEN:
        lines.append("Whenever")
        lines += _lines(req.guard, ("or",), defs)
        lines.append("holds, then")
        lines.append(f"  {_prose(req.required, defs)}")
        lines.append("holds.")
    elif req.template is EVERY:
        lines.append("At all times,")
        lines.append(f"  {_prose(req.required, defs)}")
        lines.append("holds.")
    else:   # an exclusive mode-set
        lines.append(f"The {req.component} component has exactly one of its "
                     "modes active at a time.")
    lines.append("")
    return lines


def render_requirements_markdown(model: RequirementsModel) -> str:
    defs = model.definition_map()
    lines = [f"# Requirements model: {PROJECT}", ""]
    for req in model.requirements:
        lines.extend(_requirement_block(req, defs))
    return "\n".join(lines) + "\n"
