"""Differential test: compiled closures against the reference interpreter.

Every expression of the generated model is evaluated both ways over
sampled round contexts: start states (one, none or two active), events,
counters, flags, end snapshots, and now and then a missing record or a
value of the wrong type.  Value and type, or exception
type and message, must agree.  The same contexts check the start-state
supports: a missed one means False, an exact one the key meets means True.
Hand-built cases cover the error paths the generated model does not reach,
the plan's index on (active modes, key signal), and the round memo: its
read sets, its bound, and keys that keep ``1`` apart from ``True``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from candofsm.reqs import (
    BinOp,
    BoolOp,
    DefRef,
    Definition,
    EvalError,
    IllegalEndOfRoundRead,
    Lit,
    ModeActive,
    ModeAssign,
    ModeComponent,
    Not,
    Requirement,
    SigRead,
    SignalAssign,
    SignalDef,
    Template,
    TypeMismatch,
    fire_round,
    initial_env,
)
from candofsm.reqs.compiled import ABSENT, Compiler, Frame, active_modes
from candofsm.reqs import engine
from candofsm.reqs.engine import STATE_COMPONENT, _Plan, _plan_of
from candofsm.reqs.expr import INT_OPERATORS, EvalContext, eval_expr
from candofsm.reqs.model import Env
from candofsm.reqs.text import _PRECEDENCE, parse_model
from candofsm.specio import ParseError
from conftest import EXPRESSIONS
from test_reqs import small, tiny_model, walk

CONTEXTS = 90


def meets(support: frozenset, active: frozenset, signal: str | None = None,
          value=ABSENT) -> bool:
    """Whether some term of a support is not missed by a start with these
    active modes in which ``signal`` holds ``value``.  Literals on any other
    signal count as met."""
    for mode, literal in support:
        if mode in active and (literal is None or literal[0] != signal
                               or value is ABSENT or value == literal[1]):
            return True
    return False


def frame_of(ctx: EvalContext) -> Frame:
    """The frame a compiled expression reads for ``ctx``: its ambient
    signals and its start and end mode snapshots."""
    signals = ctx.end_signals if ctx.ambient == "end" else ctx.start_signals
    return Frame({} if signals is None else signals, ctx.start_modes, ctx.end_modes)


def outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(exc), str(exc))
    return ("value", type(value), value)


def agree(expr, ctx, compiler):
    compiled = compiler.compile(expr).fn
    return outcome(eval_expr, expr, ctx) == outcome(compiled, frame_of(ctx))


def model_expressions(model) -> list:
    """Every expression the engine evaluates, and every definition body."""
    found = [d.expr for d in model.definitions]
    found += [DefRef(d.name) for d in model.definitions]
    for req in model.requirements:
        found += [e for e in (req.guard, req.required) if e is not None]
        found += [a.expr for a in req.effects if isinstance(a, SignalAssign)]
    return found


# the signals the generated model reads as integers, and as booleans
COUNTERS = ("bytes_sent", "bytes_received", "tx_cnt", "next_bytes_sent",
            "next_bytes_received", "next_tx_cnt")
FLAGS = ("command_finish_flag", "optrode_TX_finish", "optrode_RX_finish")


def sampled_signals(rng, base: dict, spec) -> dict:
    signals = dict(base)
    signals["current_event"] = rng.choice(spec.roster.event_names + (None,))
    signals["current_command"] = rng.choice(spec.roster.command_names)
    for name in COUNTERS:
        signals[name] = rng.randrange(-1, 6)
    for name in FLAGS:
        signals[name] = rng.random() < 0.5
    if rng.random() < 0.15:   # a value of the wrong type, where an operator reads it
        name = rng.choice(COUNTERS + FLAGS)
        signals[name] = rng.choice([True, 1, 0, "x", None])
    if rng.random() < 0.05:   # a missing record
        del signals[rng.choice(sorted(signals))]
    return signals


def sampled_modes(rng, states, i: int) -> frozenset:
    if i < len(states):
        return frozenset({states[i]})          # every state once
    return frozenset(rng.sample(states, rng.choice((0, 1, 1, 2))))


def sampled_contexts(spec, model, count: int) -> list[EvalContext]:
    rng = random.Random(7)
    states = list(spec.roster.state_names)
    base = initial_env(model)
    definitions = model.definition_map()
    contexts = []
    for i in range(count):
        start_modes = {STATE_COMPONENT: sampled_modes(rng, states, i)}
        end = rng.random() < 0.6
        prev = rng.random() < 0.5
        # a draw once spent on a status history, kept so the stream and thus
        # the sampled contexts stay as they were
        rng.sample(states, 3)
        start_signals = sampled_signals(rng, base.signals, spec)
        end_signals = sampled_signals(rng, base.signals, spec) if end else None
        end_modes = {STATE_COMPONENT: frozenset({rng.choice(states)})} if end else None
        if prev:
            # draws once spent on a previous snapshot, kept so the stream and
            # thus the sampled contexts stay as they were
            sampled_signals(rng, base.signals, spec)
            sampled_modes(rng, states, count)
        contexts.append(EvalContext(
            start_signals=start_signals,
            start_modes=start_modes,
            definitions=definitions,
            end_signals=end_signals,
            end_modes=end_modes,
            ambient=rng.choice(("start", "end")) if end else "start",
        ))
    return contexts


@pytest.fixture(scope="module")
def contexts(spec, model):
    return sampled_contexts(spec, model, CONTEXTS)


def test_every_generated_expression_agrees_with_the_interpreter(model, contexts):
    compiler = Compiler(model.definition_map())
    expressions = model_expressions(model)
    assert len(expressions) == EXPRESSIONS
    mismatched = [(expr, i) for expr in expressions
                  for i, ctx in enumerate(contexts) if not agree(expr, ctx, compiler)]
    assert mismatched == []


class Recording(dict):
    """Signals that note every name a compiled expression looks up."""

    def __init__(self, signals):
        super().__init__(signals)
        self.looked_up = set()

    def __getitem__(self, name):
        self.looked_up.add(name)
        return super().__getitem__(name)


def test_a_node_reads_no_signal_outside_its_reads(model, contexts):
    # and each node that can read a signal reads one in some sampled context,
    # so the samples exercise every read set
    compiler = Compiler(model.definition_map())
    never_read = []
    for expr in model_expressions(model):
        node = compiler.compile(expr)
        looked_up = set()
        for ctx in contexts:
            frame = frame_of(ctx)
            signals = Recording(frame.signals)
            outcome(node.fn, Frame(signals, frame.start_modes, frame.end_modes))
            assert signals.looked_up <= node.reads, expr
            looked_up |= signals.looked_up
        if node.reads and not looked_up:
            never_read.append(expr)
    assert never_read == []


def test_the_samples_reach_values_and_every_kind_of_error(model, contexts):
    compiler = Compiler(model.definition_map())
    seen = {outcome(compiler.compile(expr).fn, frame_of(ctx))[1]
            for expr in model_expressions(model) for ctx in contexts}
    assert {bool, int, str, TypeMismatch, IllegalEndOfRoundRead, EvalError} <= seen


# the signal the generated model's supports read; the plan keys on it
KEY = "current_event"


def key_of(ctx) -> object:
    """The key signal's value in the snapshot an expression reads."""
    return frame_of(ctx).signals.get(KEY, ABSENT)


def test_the_generated_supports_read_only_the_key_signal(model):
    compiler = Compiler(model.definition_map())
    read = {literal[0] for expr in model_expressions(model)
            for _, literal in compiler.compile(expr).support or () if literal}
    assert read == {KEY}
    assert _plan_of(model).key == KEY


def test_a_missed_support_means_false_without_raising(model, contexts):
    compiler = Compiler(model.definition_map())
    checked = by_key = 0
    for expr in model_expressions(model):
        support = compiler.compile(expr).support
        if support is None:
            continue
        for ctx in contexts:
            active = active_modes(ctx.start_modes)
            if not meets(support, active, KEY, key_of(ctx)):
                assert eval_expr(expr, ctx) is False
                checked += 1
                by_key += meets(support, active)   # missed only on the key
    assert checked > 10_000
    assert by_key > 1_000


def test_an_exact_support_the_key_meets_means_true(model, contexts):
    compiler = Compiler(model.definition_map())
    checked = 0
    for expr in model_expressions(model):
        node = compiler.compile(expr)
        if not node.exact:
            continue
        for ctx in contexts:
            value = key_of(ctx)
            if value is not ABSENT \
                    and meets(node.support, active_modes(ctx.start_modes), KEY, value):
                assert eval_expr(expr, ctx) is True
                checked += 1
    assert checked > 500


def test_the_language_has_no_node_type_the_translation_does_not_emit(model):
    emitted = {type(node) for expr in model_expressions(model) for node in walk(expr)}
    assert emitted == set(Compiler({})._by_type)


def test_the_language_has_no_binary_operator_the_translation_does_not_emit(model):
    # the reader's table, both evaluators' and the generated model's agree
    emitted = {node.op for expr in model_expressions(model) for node in walk(expr)
               if type(node) is BinOp}
    assert emitted == {"=", *INT_OPERATORS} == set(_PRECEDENCE) - {"and", "or"} \
        == {"=", "<", ">=", "+"}


def test_the_language_has_no_template_the_translation_does_not_emit(model):
    assert {req.template for req in model.requirements} == set(Template)


def test_the_language_has_no_type_kind_the_translation_does_not_emit(model):
    # every type line .req has had; those that still parse declare exactly
    # the kinds of type the generated dictionary uses
    declarable = set()
    for line in ("type t enum { a b }", "type t bool", "type t int",
                 "type t int [0, 3]", "type t array bool [4]"):
        try:
            declarable.add(type(parse_model(f"{line}\n").dictionary.types[0]))
        except ParseError:
            pass
    assert declarable == {type(t) for t in model.dictionary.types}


# --- hand-built cases --------------------------------------------------------

def hand_ctx(**overrides) -> EvalContext:
    fields = dict(
        start_signals={"x": 3, "flag": True, "colour": "red", "n": 1},
        start_modes={"lamp": frozenset({"on"})},
        definitions={
            "lamp_on": Definition("lamp_on", "lamp on", ModeActive("lamp", "on", "start")),
            "lamp_on_end": Definition("lamp_on_end", "lamp on at end",
                                      ModeActive("lamp", "on", "end")),
            # a chain, so evaluated once per frame
            "lamp_lit": Definition("lamp_lit", "lamp on, or dim at end",
                                   or_(ModeActive("lamp", "on", "start"),
                                       ModeActive("lamp", "dim", "end"))),
        },
    )
    fields.update(overrides)
    return EvalContext(**fields)


def and_(*operands):
    return BoolOp("and", operands)


def or_(*operands):
    return BoolOp("or", operands)


MANY_MODES = ("a", "b", "c", "d", "e", "off", "g", "h", "i", "on", "k")


class MyLit(Lit):
    """A subclass of a node type: both evaluators treat it as its base."""

HAND_CASES = [
    # type mismatches in and, or, not, < and +, on either side
    and_(Lit(1), Lit(True)),
    and_(Lit(True), Lit(0)),
    and_(Lit(False), Lit(0)),
    and_(and_(Lit(True), Lit(True)), SigRead("x")),
    or_(Lit("red"), Lit(True)),
    or_(Lit(False), SigRead("colour")),
    or_(Lit(True), Lit(0)),
    or_(or_(Lit(False), Lit(False)), Lit(None)),
    Not(Lit(0)),
    Not(SigRead("x")),
    BinOp("<", Lit("red"), Lit("green")),
    BinOp("<", Lit(True), Lit(2)),
    BinOp("<", SigRead("x"), Lit(False)),
    BinOp("+", Lit(1), Lit(True)),
    BinOp("+", Lit(None), SigRead("x")),
    BinOp(">=", SigRead("x"), Lit(3)),
    BinOp("+", SigRead("flag"), Lit(4)),
    # unknown records, definitions and operators
    SigRead("nowhere"),
    DefRef("nowhere"),
    and_(Lit(True), DefRef("nowhere")),
    BinOp("%", SigRead("x"), Lit(2)),
    BinOp("*", SigRead("x"), Lit(4)),   # an operator the language dropped
    BinOp("%", SigRead("nowhere"), Lit(2)),
    "not a node",
    # end-of-round reads, inlined or not
    ModeActive("lamp", "on", "end"),
    DefRef("lamp_on_end"),
    or_(DefRef("lamp_on"), DefRef("lamp_on_end")),
    or_(Not(DefRef("lamp_on")), DefRef("lamp_on_end")),
    # a chain definition read once and twice in one frame, and flattened
    DefRef("lamp_lit"),
    and_(DefRef("lamp_lit"), Not(DefRef("lamp_lit"))),
    or_(Not(DefRef("lamp_lit")), DefRef("lamp_lit"), Lit(0)),
    and_(Lit(True), DefRef("lamp_lit"), SigRead("flag"), DefRef("lamp_lit")),
    # n-ary chains, and a disjunction long enough to pick its operands per
    # active mode set, with a non-boolean operand among them
    and_(Lit(True), DefRef("lamp_on"), Lit(True), SigRead("x")),
    or_(Lit(False), Not(DefRef("lamp_on")), Lit(False), SigRead("n")),
    or_(*[ModeActive("lamp", m, "start") for m in MANY_MODES]),
    or_(*[ModeActive("lamp", m, "start") for m in MANY_MODES], Lit(0)),
    or_(Lit(0), *[ModeActive("lamp", m, "start") for m in MANY_MODES]),
    or_(*[and_(ModeActive("lamp", m, "start"), SigRead("flag")) for m in MANY_MODES]),
    # literals that compare equal across types
    Lit(0), Lit(False), Lit(1), Lit(True),
    BinOp("=", SigRead("n"), Lit(True)),
    BinOp("=", SigRead("n"), Lit(1)),
    BinOp("+", Lit(0), Lit(1)),
    and_(Lit(True), Lit(False)),
    # empty chains
    and_(),
    or_(),
    # a subclass of a node type
    MyLit(3),
    BinOp("+", MyLit(1), SigRead("x")),
    and_(DefRef("lamp_on"), MyLit(True)),
]

HAND_CONTEXTS = [
    hand_ctx(),
    hand_ctx(end_modes={"lamp": frozenset({"off"})},
             end_signals={"x": 4, "flag": False}, ambient="end"),
    hand_ctx(ambient="end"),                              # no end snapshot at all
    hand_ctx(start_modes={"lamp": frozenset()}),          # no active mode
    hand_ctx(start_modes={"lamp": frozenset({"on", "off"})}),  # two active modes
    hand_ctx(start_modes={}),                             # unknown component
]


@pytest.mark.parametrize("expr", HAND_CASES, ids=repr)
def test_hand_built_expression_agrees_with_the_interpreter(expr):
    compiler = Compiler(HAND_CONTEXTS[0].definitions)
    for ctx in HAND_CONTEXTS:
        assert outcome(eval_expr, expr, ctx) \
            == outcome(compiler.compile(expr).fn, frame_of(ctx)), ctx


def test_the_hand_cases_raise_each_error_kind():
    ctx = HAND_CONTEXTS[0]
    kinds = {outcome(eval_expr, expr, ctx)[1] for expr in HAND_CASES}
    assert {TypeMismatch, IllegalEndOfRoundRead, EvalError} <= kinds


def test_literals_that_compare_equal_keep_their_types():
    # one compiler for all four, so a shared closure would show
    compiler = Compiler({})
    frame = frame_of(hand_ctx())
    values = [compiler.compile(Lit(v)).fn(frame) for v in (0, False, 1, True)]
    assert [(type(v), v) for v in values] == [(int, 0), (bool, False),
                                             (int, 1), (bool, True)]
    assert compiler.compile(BinOp("+", Lit(0), Lit(1))).fn(frame) == 1
    with pytest.raises(TypeMismatch):
        compiler.compile(BinOp("+", Lit(False), Lit(True))).fn(frame)


# --- rounds from zero or two active modes ------------------------------------

def two_lamp_model():
    """Two triggers guarded by lamp modes, one by a disjunction of both, and
    the mode-set check."""
    modes = [ModeComponent("lamp", ("off", "on", "dim"), initial="off")]
    return tiny_model(
        Requirement("from_off", "off goes on", Template.TRIGGER_ON_EVENT,
                    guard=ModeActive("lamp", "off", "start"),
                    effects=(ModeAssign("lamp", "on"),)),
        Requirement("from_on", "on goes dim", Template.TRIGGER_ON_EVENT,
                    guard=and_(ModeActive("lamp", "on", "start"),
                               BinOp("<", SigRead("x"), Lit(5))),
                    effects=(ModeAssign("lamp", "dim"),
                             SignalAssign("x", BinOp("+", SigRead("x"), Lit(1))))),
        Requirement("any", "lit or dim counts", Template.TRIGGER_ON_EVENT,
                    guard=or_(ModeActive("lamp", "on", "start"),
                              ModeActive("lamp", "dim", "start")),
                    effects=(SignalAssign("seen", Lit(True)),)),
        Requirement("ms", "one lamp mode", Template.MODE_SET, component="lamp"),
        signals=[small("x", 0),
                 SignalDef("seen", "Flag", initial=False)],
        modes=modes)


def start_with(model, active) -> Env:
    init = initial_env(model)
    return Env(signals=init.signals, modes={"lamp": frozenset(active)})


def test_no_active_mode_fires_nothing_and_breaks_the_mode_set():
    model = two_lamp_model()
    result = fire_round(model, start_with(model, ()), None)
    assert result.fired == ()
    assert [v.constraint_id for v in result.violations] == ["MODESET"]
    assert result.end_env.modes["lamp"] == frozenset()


def test_two_active_modes_fire_every_candidate_in_model_order():
    model = two_lamp_model()
    result = fire_round(model, start_with(model, ("off", "on")), None)
    # both mode writers conflict; the counter and the flag still apply
    assert [rid for rid, _ in result.fired] == ["from_on", "any"]
    assert result.end_env.signals["x"] == 1
    assert result.end_env.signals["seen"] is True
    assert [v.constraint_id for v in result.violations] == ["CONFLICT", "MODESET"]
    assert "from_off, from_on" in result.violations[0].message


def test_the_plan_is_built_once_per_model_instance():
    model = two_lamp_model()
    env = start_with(model, ("off",))
    fire_round(model, env, None)
    plan = model.__dict__["_plan"]
    fire_round(model, env, None)
    assert model.__dict__["_plan"] is plan
    assert "_plan" not in two_lamp_model().__dict__


def test_a_missing_condition_or_effect_value_is_an_eval_violation():
    model = tiny_model(
        Requirement("set", "x from nothing", Template.TRIGGER_ON_EVENT,
                    guard=Lit(True), effects=(SignalAssign("x", None),)),
        Requirement("watch", "nothing to watch", Template.EVERY),
        signals=[small("x", 2)])
    result = fire_round(model, initial_env(model), None)
    assert [v.constraint_id for v in result.violations] == ["EVAL", "EVAL"]
    assert all("not an expression node: None" in v.message for v in result.violations)
    assert result.fired == ()


# --- the (active modes, key signal) index ------------------------------------

def event_lamp_model(*requirements):
    """Requirements over the lamp modes and the ``ev`` signal, which their
    literals read, so the plan keys on it."""
    return tiny_model(
        *requirements,
        Requirement("ms", "one lamp mode", Template.MODE_SET, component="lamp"),
        signals=[SignalDef("ev", "Colour", initial="red"),
                 small("x", 0)],
        modes=[ModeComponent("lamp", ("off", "on", "dim"), initial="off")])


def lamp_is(mode):
    return ModeActive("lamp", mode, "start")


def ev_is(value):
    return BinOp("=", SigRead("ev"), Lit(value))


def start_on(model, active, **signals) -> Env:
    """A start with these lamp modes and signals; a signal given as ABSENT
    is left out."""
    init = initial_env(model)
    values = {k: v for k, v in {**init.signals, **signals}.items() if v is not ABSENT}
    return Env(signals=values, modes={"lamp": frozenset(active)})


def candidate_ids(model, env) -> list[str]:
    plan = _plan_of(model)
    effect, check = plan.lookup(env.modes, env.signals.get(plan.key, ABSENT))[:2]
    return [step.req.req_id for step in effect + check]


def test_a_missing_key_signal_keeps_its_readers_and_reports_them():
    model = event_lamp_model(
        Requirement("green", "off and green", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("off"), ev_is("green")),
                    effects=(SignalAssign("x", Lit(1)),)),
        Requirement("red", "off and red", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("off"), ev_is("red")),
                    effects=(SignalAssign("x", Lit(2)),)),
        Requirement("dim", "dim and red", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("dim"), ev_is("red")),
                    effects=(SignalAssign("x", Lit(3)),)))
    assert _plan_of(model).key == "ev"
    env = start_on(model, ("off",), ev=ABSENT)
    assert candidate_ids(model, env) == ["green", "red", "ms"]
    result = fire_round(model, env, None)
    assert result.fired == ()
    assert [(v.constraint_id, v.message) for v in result.violations] == [
        ("EVAL", f"requirement {rid} (off and {rid}): unknown record 'ev'")
        for rid in ("green", "red")]
    # a value that cannot key a lookup is treated as unknown
    unhashable = start_on(model, ("off",), ev=["green"])
    assert candidate_ids(model, unhashable) == ["green", "red", "ms"]
    assert fire_round(model, unhashable, None).fired == ()


def test_a_literal_after_an_operand_that_can_raise_stays_out_of_the_support():
    raising_first = and_(lamp_is("off"), BinOp("<", SigRead("x"), Lit(5)), ev_is("green"))
    literal_first = and_(lamp_is("off"), ev_is("green"), BinOp("<", SigRead("x"), Lit(5)))
    compiler = Compiler({})
    assert compiler.compile(raising_first).support == {(("lamp", "off"), None)}
    assert compiler.compile(literal_first).support == {(("lamp", "off"), ("ev", "green"))}
    model = event_lamp_model(
        Requirement("late", "x checked first", Template.TRIGGER_ON_EVENT,
                    guard=raising_first, effects=(SignalAssign("x", Lit(1)),)),
        Requirement("early", "ev checked first", Template.TRIGGER_ON_EVENT,
                    guard=literal_first, effects=(SignalAssign("x", Lit(2)),)))
    # x of the wrong type raises in the first guard; the second stops at ev
    env = start_on(model, ("off",), ev="red", x="red")
    assert candidate_ids(model, env) == ["late", "ms"]
    result = fire_round(model, env, None)
    assert [(v.constraint_id, v.message) for v in result.violations] == [
        ("EVAL", "requirement late (x checked first): < expects an integer, "
                 "got 'red'")]


def test_a_start_with_two_active_modes_keys_on_both():
    model = event_lamp_model(
        Requirement("off_green", "off and green", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("off"), ev_is("green")),
                    effects=(ModeAssign("lamp", "on"),)),
        Requirement("on_green", "on and green", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("on"), ev_is("green")),
                    effects=(ModeAssign("lamp", "dim"),)),
        Requirement("on_red", "on and red", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("on"), ev_is("red")),
                    effects=(SignalAssign("x", Lit(3)),)))
    green = start_on(model, ("off", "on"), ev="green")
    assert candidate_ids(model, green) == ["off_green", "on_green", "ms"]
    result = fire_round(model, green, None)
    assert result.fired == ()
    assert [v.constraint_id for v in result.violations] == ["CONFLICT", "MODESET"]
    assert "off_green, on_green" in result.violations[0].message
    red = start_on(model, ("off", "on"), ev="red")
    assert candidate_ids(model, red) == ["on_red", "ms"]
    result = fire_round(model, red, None)
    assert result.fired == (("on_red", ("x",)),)
    assert [v.constraint_id for v in result.violations] == ["MODESET"]


def test_an_exact_support_the_key_meets_means_the_guard_holds():
    guard = and_(lamp_is("on"), ev_is("green"))
    node = Compiler({}).compile(guard)
    assert node.exact
    assert node.support == {(("lamp", "on"), ("ev", "green"))}
    model = event_lamp_model(
        Requirement("go", "on and green", Template.TRIGGER_ON_EVENT,
                    guard=guard, effects=(ModeAssign("lamp", "dim"),)),
        Requirement("slow", "on, green and small", Template.TRIGGER_ON_EVENT,
                    guard=and_(guard, BinOp("<", SigRead("x"), Lit(5))),
                    effects=(SignalAssign("x", Lit(1)),)))
    env = start_on(model, ("on",), ev="green")
    ctx = EvalContext(start_signals=env.signals, start_modes=env.modes, definitions={})
    assert eval_expr(guard, ctx) is True
    assert node.fn(frame_of(ctx)) is True
    # both triggers are candidates, and the round fires both
    assert candidate_ids(model, env) == ["go", "slow", "ms"]
    result = fire_round(model, env, None)
    assert result.fired == (("go", ("lamp",)), ("slow", ("x",)))


def test_an_or_of_literals_on_one_signal_gives_one_exact_term_per_literal():
    either = or_(ev_is("green"), ev_is("red"))
    guard = and_(lamp_is("on"), either)
    compiler = Compiler({})
    assert compiler.compile(either).literals == (("ev", "green"), ("ev", "red"))
    node = compiler.compile(guard)
    assert node.exact
    assert node.support == {(("lamp", "on"), ("ev", "green")), (("lamp", "on"), ("ev", "red"))}
    model = event_lamp_model(
        Requirement("go", "on and green or red", Template.TRIGGER_ON_EVENT,
                    guard=guard, effects=(ModeAssign("lamp", "dim"),)))
    # nil and a value outside Colour miss both terms; the interpreter agrees
    for active in (("on",), ("off",), ("on", "off")):
        for value in ("green", "red", None, "blue", ABSENT):
            env = start_on(model, active, ev=value)
            ctx = EvalContext(start_signals=env.signals, start_modes=env.modes,
                              definitions={})
            met = meets(node.support, active_modes(env.modes), "ev", value)
            if value is ABSENT:
                assert met == ("on" in active)
                continue
            assert eval_expr(guard, ctx) is met, (active, value)
            assert candidate_ids(model, env)[:-1] == (["go"] if met else [])
            result = fire_round(model, env, None)
            assert result.fired == ((("go", ("lamp",)),) if met else ())
            assert [v.constraint_id for v in result.violations] \
                == (["MODESET"] if len(active) == 2 and not met else [])


@pytest.mark.parametrize("either", [
    or_(ev_is("green"), BinOp("=", SigRead("x"), Lit(1))),
    or_(ev_is("green"), BinOp("<", SigRead("x"), Lit(5))),
    or_(ev_is("green"), Not(BinOp("=", SigRead("ev"), Lit("red")))),
    or_(ev_is("green"), and_(lamp_is("off"), ev_is("red"))),
], ids=["two-signals", "a-comparison", "an-inequality", "an-and"])
def test_an_or_that_is_not_literals_on_one_signal_keeps_the_mode_only_support(either):
    compiler = Compiler({})
    assert compiler.compile(either).literals == ()
    node = compiler.compile(and_(lamp_is("on"), either))
    assert node.support == {(("lamp", "on"), None)}
    assert not node.exact


def test_a_plan_build_dispatches_once_per_distinct_node(model, monkeypatch):
    # the plan compiles every guard, required condition and effect; a node
    # met again costs one lookup, and a definition body is compiled where its
    # first reference is
    dispatched = Counter()
    for name in ("_lit", "_sig_read", "_mode_active", "_def_ref", "_not", "_bool_op",
                 "_bin_op"):
        def counting(self, expr, _compile=getattr(Compiler, name)):
            dispatched[id(expr)] += 1
            return _compile(self, expr)
        monkeypatch.setattr(Compiler, name, counting)
    _Plan(model)
    defs = model.definition_map()
    reached, pending = set(), [
        expr for r in model.requirements
        for expr in (r.guard, r.required,
                     *(a.expr for a in r.effects if isinstance(a, SignalAssign)))
        if expr is not None]
    while pending:
        expr = pending.pop()
        for node in walk(expr):
            if id(node) not in reached:
                reached.add(id(node))
                if isinstance(node, DefRef):
                    pending.append(defs[node.name].expr)
    assert set(dispatched.values()) == {1}
    assert set(dispatched) == reached


# --- chain definitions, evaluated once per frame ------------------------------

class Counting(dict):
    """Signals that count every lookup of a compiled expression."""

    def __init__(self, signals):
        super().__init__(signals)
        self.lookups = Counter()

    def __getitem__(self, name):
        self.lookups[name] += 1
        return super().__getitem__(name)


def test_every_reference_to_a_chain_definition_shares_one_node():
    defs = {"either": Definition("either", "green or red", or_(ev_is("green"), ev_is("red"))),
            "on": Definition("on", "lamp on", lamp_is("on"))}
    compiler = Compiler(defs)
    first, second = DefRef("either"), DefRef("either")
    node = compiler.compile(first)
    assert compiler.compile(second) is node
    # it keeps its body's analysis, so a parent of the same operator still
    # takes the body's operands into its own closure
    body = compiler.compile(defs["either"].expr)
    assert node is not body
    assert all(getattr(node, slot) is getattr(body, slot) for slot in (
        "support", "exact", "literals", "op", "parts", "reads"))
    assert compiler.compile(or_(first, lamp_is("dim"))).parts[:2] == body.parts
    # a leaf body is inlined: a reference to it is the body's own node
    assert compiler.compile(DefRef("on")) is compiler.compile(defs["on"].expr)
    # read twice in one frame, the body runs once; a new frame runs it again
    both = compiler.compile(and_(first, lamp_is("on"), second)).fn
    for _ in range(2):
        signals = Counting({"ev": "red"})
        frame = Frame(signals, {"lamp": frozenset({"on"})}, None)
        assert both(frame) is True
        assert signals.lookups == {"ev": 2}   # green, then red, once
        assert frame.values == {"either": True}


def off_and_small():
    """A chain definition that raises when ``x`` is not an integer."""
    return Definition("off_small", "off and x is small",
                      and_(lamp_is("off"), BinOp("<", SigRead("x"), Lit(5))))


def test_a_definition_that_raises_is_an_eval_violation_of_each_reader_in_model_order():
    ref = DefRef("off_small")
    readers = [("plain", "the definition", ref),
               ("either", "the definition or dim", or_(ref, lamp_is("dim"))),
               ("negated", "not the definition", Not(ref))]
    model = tiny_model(
        *[Requirement(rid, title, Template.TRIGGER_ON_EVENT, guard=guard,
                      effects=(ModeAssign("lamp", "on"),))
          for rid, title, guard in readers],
        signals=[SignalDef("x", "Colour", initial="red")],
        modes=[ModeComponent("lamp", ("off", "on", "dim"), initial="off")],
        definitions=[off_and_small()])
    env = initial_env(model)
    ctx = EvalContext(start_signals=env.signals, start_modes=env.modes,
                      definitions=model.definition_map())
    expected = outcome(eval_expr, ref, ctx)
    assert expected == ("raises", TypeMismatch, "< expects an integer, got 'red'")
    result = fire_round(model, env, None)
    assert result.fired == ()
    assert [(v.constraint_id, v.message) for v in result.violations] == [
        ("EVAL", f"requirement {rid} ({title}): {expected[2]}")
        for rid, title, _ in readers]
    # a body that raises stores nothing, so every read raises again
    node = Compiler(model.definition_map()).compile(ref)
    frame = Frame(env.signals, env.modes, None)
    assert [outcome(node.fn, frame) for _ in range(2)] == [expected] * 2
    assert frame.values == {}


def test_a_definition_read_at_start_and_at_end_takes_each_frame_value():
    odd = Definition("odd", "x is 1 or 3",
                     or_(BinOp("=", SigRead("x"), Lit(1)), BinOp("=", SigRead("x"), Lit(3))))
    model = tiny_model(
        Requirement("bump", "an odd x counts up to an even one",
                    Template.TRIGGER_ON_EVENT, guard=and_(lamp_is("off"), DefRef("odd")),
                    effects=(SignalAssign("x", BinOp("+", SigRead("x"), Lit(1))),),
                    required=Not(DefRef("odd"))),
        Requirement("even", "x is even at the end", Template.EVERY,
                    required=Not(DefRef("odd"))),
        signals=[small("x", 0)],
        modes=[ModeComponent("lamp", ("off", "on"), initial="off")],
        definitions=[odd])
    # the guard reads odd in the start frame, both conditions in the end
    # frame, where the trigger's write has made x even
    for x, fired in ((1, (("bump", ("x",)),)), (2, ()), (3, (("bump", ("x",)),))):
        result = fire_round(model, start_on(model, ("off",), x=x), None)
        assert (result.fired, result.violations) == (fired, ()), x
        assert result.end_env.signals["x"] == x + (x % 2)
    node = Compiler(model.definition_map()).compile(DefRef("odd"))
    modes = {"lamp": frozenset({"off"})}
    start, end = Frame({"x": 1}, modes, None), Frame({"x": 2}, modes, modes)
    assert (node.fn(start), node.fn(end)) == (True, False)
    assert (start.values, end.values) == ({"odd": True}, {"odd": False})


# --- the round memo -----------------------------------------------------------

def test_reads_follow_definitions_and_are_interned():
    defs = {"small_x": Definition("small_x", "x is small", BinOp("<", SigRead("x"), Lit(5)))}
    compiler = Compiler(defs)
    ref = compiler.compile(and_(lamp_is("on"), DefRef("small_x"), Not(SigRead("flag"))))
    assert ref.reads == {"x", "flag"}
    # an equal set built elsewhere is the same object; no read is EMPTY
    again = compiler.compile(or_(Not(SigRead("flag")), BinOp("=", SigRead("x"), Lit(2))))
    assert again.reads is ref.reads
    assert compiler.compile(lamp_is("on")).reads is compiler.compile(Lit(3)).reads
    assert compiler.compile(Lit(3)).reads is compiler.interned(frozenset())


def counter_model():
    """Triggers keyed on the int signal ``n``: the plan keys on it, and
    every start with another ``n`` is another plan key."""
    def n_is(value):
        return BinOp("=", SigRead("n"), Lit(value))
    return tiny_model(
        Requirement("one", "off and n is 1", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("off"), n_is(1)),
                    effects=(SignalAssign("x", BinOp("+", SigRead("n"), Lit(1))),)),
        Requirement("two", "off and n is 2", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("off"), n_is(2)),
                    effects=(ModeAssign("lamp", "on"),)),
        Requirement("count", "off counts x", Template.TRIGGER_ON_EVENT,
                    guard=and_(lamp_is("off"), BinOp("<", SigRead("x"), Lit(9))),
                    effects=(SignalAssign("x", BinOp("+", SigRead("x"), SigRead("n"))),)),
        Requirement("ms", "one lamp mode", Template.MODE_SET, component="lamp"),
        signals=[SignalDef("n", "int", minimum=0, maximum=40, initial=0), small("x", 0)],
        modes=[ModeComponent("lamp", ("off", "on", "dim"), initial="off")])


def exact(result) -> tuple:
    """A round's result with every signal value's type, so ``1`` and
    ``True`` differ."""
    end = result.end_env
    return ({k: (type(v), v) for k, v in end.signals.items()}, dict(end.modes),
            result.fired, result.violations)


def fresh_round(model, env):
    """The round from ``env`` on a copy of the model with no plan yet."""
    return fire_round(model._replace(), env, None)


def test_both_caches_stop_at_their_limit(monkeypatch):
    monkeypatch.setattr(engine, "CACHE_LIMIT", 8)
    model = counter_model()
    plan = _plan_of(model)
    assert plan.key == "n"
    starts = [start_on(model, ("off",), n=n, x=n % 10) for n in range(20)]
    for _ in range(2):
        for env in starts:
            assert exact(fire_round(model, env, None)) == exact(fresh_round(model, env))
    assert len(plan._candidates) == 8
    assert len(plan.memo) == 8


def test_a_computed_round_ends_in_its_end_frame_and_the_memo_holds_no_env(monkeypatch):
    frames = []

    class Recorded(Frame):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            frames.append(self)

    monkeypatch.setattr(engine, "Frame", Recorded)
    model = counter_model()
    env = start_on(model, ("off",), n=2, x=3)
    computed = fire_round(model, env, None)
    # a computed round reads two frames; its end env is the end one's dicts
    start, end = frames
    assert computed.end_env.signals is end.signals
    assert computed.end_env.modes is end.end_modes
    assert computed.end_env.signals == {**env.signals, "x": 5}
    assert computed.end_env.modes == {"lamp": frozenset({"on"})}
    [outcome] = _plan_of(model).memo.values()
    # writes, fired ids, violations and their trace columns: no env, no dict
    assert all(type(part) is tuple for part in outcome)
    frames.clear()
    found = fire_round(model, env, None)
    assert frames == [] and exact(found) == exact(computed)
    assert found.end_env.signals is not computed.end_env.signals


def test_a_memo_key_keeps_values_of_different_types_apart():
    model = counter_model()
    plan = _plan_of(model)
    # x is read by a guard, n is the key signal; ABSENT leaves it out
    starts = [start_on(model, ("off",), **signals) for signals in (
        {"x": 1}, {"x": True}, {"x": 0}, {"x": False}, {"x": None}, {"x": ABSENT},
        {"n": 1}, {"n": True}, {"n": None}, {"n": ABSENT})]
    results = [fire_round(model, env, None) for env in starts]
    for env, result in zip(starts, results):
        assert exact(result) == exact(fresh_round(model, env))
    evals = [[v.message for v in r.violations if v.constraint_id == "EVAL"] for r in results]
    assert evals[0] == [] and evals[1] == [
        "requirement count (off counts x): < expects an integer, got True"]
    assert evals[6] == [] and evals[7] == [
        f"requirement {rid}: + expects an integer, got True"
        for rid in ("one (off and n is 1)", "count (off counts x)")]
    assert "got None" in evals[4][0] and "unknown record 'x'" in evals[5][0]
    assert len(plan.memo) == len(starts)


def test_a_memo_hit_returns_a_new_end_env():
    model = counter_model()
    env = start_on(model, ("off",), n=2, x=3)
    first, second = fire_round(model, env, None), fire_round(model, env, None)
    assert len(_plan_of(model).memo) == 1
    assert exact(first) == exact(second)
    assert first.end_env.signals is not second.end_env.signals
    assert first.end_env.modes is not second.end_env.modes
    assert first.end_env.modes["lamp"] == {"on"}


def test_a_value_that_cannot_key_the_memo_is_computed_every_time():
    model = counter_model()
    for _ in range(2):
        env = start_on(model, ("off",), n=1, x=[1])
        assert exact(fire_round(model, env, None)) == exact(fresh_round(model, env))
    assert _plan_of(model).memo == {}
