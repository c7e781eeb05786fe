"""Differential test: compiled closures against the reference interpreter.

Every expression of the generated model is evaluated both ways over
sampled round contexts: start states (one, none or two active), events,
counters, flags, end snapshots, and now and then a missing record or a
value of the wrong type.  Value and type, or exception
type and message, must agree.  The same contexts check the start-state
supports: a missed one means False, an exact one the key meets means True.
Hand-built cases cover the error paths the generated model does not reach,
and the plan's index on (active modes, key signal).
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
    Obligation,
    Requirement,
    SigRead,
    SignalAssign,
    SignalDef,
    Template,
    TypeMismatch,
    fire_round,
    initial_env,
)
from candofsm.reqs.compiled import ABSENT, Compiler, Frame, active_modes, meets
from candofsm.reqs.engine import STATE_COMPONENT, _Plan, _plan_of
from candofsm.reqs.expr import EvalContext, eval_expr
from candofsm.reqs.model import Env
from test_reqs import tiny_model, walk

CONTEXTS = 90


def outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(exc), str(exc))
    return ("value", type(value), value)


def agree(expr, ctx, compiler):
    compiled = compiler.compile(expr).fn
    return outcome(eval_expr, expr, ctx) == outcome(compiled, Frame.of(ctx))


def model_expressions(model) -> list:
    """Every expression the engine evaluates, and every definition body."""
    found = [d.expr for d in model.definitions]
    found += [DefRef(d.name) for d in model.definitions]
    for req in model.requirements:
        found += [e for e in (req.guard, req.required) if e is not None]
        found += [a.expr for a in req.effects if isinstance(a, SignalAssign)]
        for branch in req.branches:
            found.append(branch.guard)
            found += [a.expr for a in branch.effects if isinstance(a, SignalAssign)]
    return found


def sampled_signals(rng, base: dict, spec) -> dict:
    signals = dict(base)
    signals["current_event"] = rng.choice(spec.roster.event_names + (None,))
    signals["current_command"] = rng.choice(spec.roster.command_names)
    for name in ("bytes_sent", "bytes_received", "tx_cnt", "next_bytes_sent",
                 "next_bytes_received", "next_tx_cnt"):
        signals[name] = rng.randrange(-1, 6)
    for name in ("command_finish_flag", "optrode_TX_finish", "optrode_RX_finish"):
        signals[name] = rng.random() < 0.5
    if rng.random() < 0.15:   # a value of the wrong type
        name = rng.choice(sorted(signals))
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
    assert len(expressions) > 1000
    mismatched = [(expr, i) for expr in expressions
                  for i, ctx in enumerate(contexts) if not agree(expr, ctx, compiler)]
    assert mismatched == []


def test_the_samples_reach_values_and_every_kind_of_error(model, contexts):
    compiler = Compiler(model.definition_map())
    seen = {outcome(compiler.compile(expr).fn, Frame.of(ctx))[1]
            for expr in model_expressions(model) for ctx in contexts}
    assert {bool, int, str, TypeMismatch, IllegalEndOfRoundRead, EvalError} <= seen


# the signal the generated model's supports read; the plan keys on it
KEY = "current_event"


def key_of(ctx) -> object:
    """The key signal's value in the snapshot an expression reads."""
    return Frame.of(ctx).signals.get(KEY, ABSENT)


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


def test_the_language_has_no_template_the_translation_does_not_emit(model):
    assert {req.template for req in model.requirements} == set(Template)


# --- hand-built cases --------------------------------------------------------

def hand_ctx(**overrides) -> EvalContext:
    fields = dict(
        start_signals={"x": 3, "flag": True, "colour": "red", "n": 1},
        start_modes={"lamp": frozenset({"on"})},
        definitions={
            "lamp_on": Definition("lamp_on", "lamp on", ModeActive("lamp", "on", "start")),
            "lamp_on_end": Definition("lamp_on_end", "lamp on at end",
                                      ModeActive("lamp", "on", "end")),
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
    BinOp("*", SigRead("x"), Lit(4)),
    # unknown records, definitions and operators
    SigRead("nowhere"),
    DefRef("nowhere"),
    and_(Lit(True), DefRef("nowhere")),
    BinOp("%", SigRead("x"), Lit(2)),
    BinOp("%", SigRead("nowhere"), Lit(2)),
    "not a node",
    # end-of-round reads, inlined or not
    ModeActive("lamp", "on", "end"),
    DefRef("lamp_on_end"),
    or_(DefRef("lamp_on"), DefRef("lamp_on_end")),
    or_(Not(DefRef("lamp_on")), DefRef("lamp_on_end")),
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
            == outcome(compiler.compile(expr).fn, Frame.of(ctx)), ctx


def test_the_hand_cases_raise_each_error_kind():
    ctx = HAND_CONTEXTS[0]
    kinds = {outcome(eval_expr, expr, ctx)[1] for expr in HAND_CASES}
    assert {TypeMismatch, IllegalEndOfRoundRead, EvalError} <= kinds


def test_literals_that_compare_equal_keep_their_types():
    # one compiler for all four, so a shared closure would show
    compiler = Compiler({})
    frame = Frame.of(hand_ctx())
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
    modes = [ModeComponent("lamp", ("off", "on", "dim"), exclusive=True, initial="off")]
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
        signals=[SignalDef("x", "small", initial=0),
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


def test_pending_obligations_from_elsewhere_are_compiled_on_demand():
    model = tiny_model(
        Requirement("met", "demand x = 5", Template.TRIGGER_ON_EVENT,
                    guard=Lit(False), required=BinOp("=", SigRead("x"), Lit(5))),
        signals=[SignalDef("x", "small", initial=2)])
    init = initial_env(model)
    # "met" names a requirement of the model but carries its own condition
    # due in round 1, the round fired here, except "kept", due in round 3
    pending = (Obligation("kept", BinOp("=", SigRead("x"), Lit(3)), 3, 0),
               Obligation("met", BinOp("=", SigRead("x"), Lit(2)), 1, 0),
               Obligation("broken", "not a node", 1, 0))
    result = fire_round(model, Env(signals=init.signals, modes=init.modes,
                                   pending=pending), None)
    assert [ob.req_id for ob in result.end_env.pending] == ["kept"]
    assert [v.constraint_id for v in result.violations] == ["EVAL", "OBLIGATION"]
    assert "not an expression node" in result.violations[0].message


def test_a_missing_condition_or_effect_value_is_an_eval_violation():
    model = tiny_model(
        Requirement("set", "x from nothing", Template.TRIGGER_ON_EVENT,
                    guard=Lit(True), effects=(SignalAssign("x", None),)),
        Requirement("watch", "nothing to watch", Template.EVERY),
        signals=[SignalDef("x", "small", initial=2)])
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
                 SignalDef("x", "small", initial=0)],
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
    effect, check = plan.candidates(active_modes(env.modes),
                                    env.signals.get(plan.key, ABSENT))
    return [step.req.req_id for step, _ in effect + check]


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


def test_an_exact_support_the_key_meets_decides_the_guard():
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
    assert node.fn(Frame.of(ctx)) is True
    plan = _plan_of(model)
    effect, _ = plan.candidates(active_modes(env.modes), "green")
    # the exact guard is not called; the other one is
    assert [(step.req.req_id, guard is None) for step, guard in effect] \
        == [("go", True), ("slow", False)]
    result = fire_round(model, env, None)
    assert result.fired == (("go", ("lamp",)), ("slow", ("x",)))


def test_a_plan_build_dispatches_once_per_distinct_node(model, monkeypatch):
    # the plan compiles every guard; a node met again costs one lookup, and
    # a definition body is compiled where its first reference is
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
        g for r in model.requirements
        for g in (r.guard, *(b.guard for b in r.branches)) if g is not None]
    while pending:
        expr = pending.pop()
        for node in walk(expr):
            if id(node) not in reached:
                reached.add(id(node))
                if isinstance(node, DefRef):
                    pending.append(defs[node.name].expr)
    assert set(dispatched.values()) == {1}
    assert set(dispatched) == reached
