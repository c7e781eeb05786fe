from __future__ import annotations

from collections import Counter

import pytest

import candofsm.reqs.model
from candofsm.reqs import (
    BinOp,
    BoolOp,
    BoolType,
    CaseBranch,
    DataDictionary,
    DefRef,
    Definition,
    EnumType,
    Env,
    IllegalEndOfRoundRead,
    IntType,
    Lit,
    ModeActive,
    ModeAssign,
    ModeComponent,
    ModelError,
    Not,
    Requirement,
    RequirementsModel,
    SigRead,
    SignalAssign,
    SignalDef,
    Template,
    TypeMismatch,
    fire_round,
    initial_env,
)
from candofsm.reqs.expr import EvalContext, eval_expr
from candofsm.reqs.engine import run_requirements_trace
from candofsm.reqs.model import MAX_DEPTH
from candofsm.reqs.text import parse_model, serialize_model
from candofsm.specio import ParseError


def tiny_model(*requirements, signals=(), modes=(), definitions=()):
    dictionary = DataDictionary(
        types=(IntType("small", 0, 10), BoolType("Flag"),
               EnumType("Colour", ("red", "green"))),
        signals=tuple(signals),
        modes=tuple(modes),
    )
    model = RequirementsModel(
        dictionary=dictionary,
        definitions=tuple(definitions),
        requirements=tuple(requirements),
    )
    model.validate()
    return model


def lamp_component(initial="off"):
    return ModeComponent("lamp", ("off", "on"), exclusive=True, initial=initial)


class TestEvalExpr:
    def ctx(self, start_modes, end_modes=None, ambient="start"):
        return EvalContext(
            start_signals={}, start_modes=start_modes, definitions={},
            end_modes=end_modes, ambient=ambient)

    def test_end_read_outside_required_position_is_rejected(self):
        expr = ModeActive("lamp", "on", "end")
        with pytest.raises(IllegalEndOfRoundRead):
            eval_expr(expr, self.ctx({"lamp": frozenset({"on"})}))

    def test_chains_stop_at_the_first_deciding_operand(self):
        ctx = self.ctx({})
        assert eval_expr(BoolOp("and", (Lit(False), DefRef("nowhere"))), ctx) is False
        assert eval_expr(BoolOp("or", (Lit(False), Lit(True), Lit(0))), ctx) is True
        assert eval_expr(BoolOp("and", (Lit(True), Lit(True))), ctx) is True
        with pytest.raises(TypeMismatch, match="or expects a boolean, got 0"):
            eval_expr(BoolOp("or", (Lit(False), Lit(0), Lit(True))), ctx)

    def test_type_mismatches_are_reported(self):
        with pytest.raises(TypeMismatch):
            eval_expr(BinOp("+", Lit(1), Lit(True)), self.ctx({}))
        with pytest.raises(TypeMismatch):
            eval_expr(BoolOp("and", (Lit(1), Lit(True))), self.ctx({}))
        with pytest.raises(TypeMismatch):
            eval_expr(BinOp("<", Lit("red"), Lit("green")), self.ctx({}))


class TestFireRound:
    def test_conflicting_effects_keep_the_start_value_and_name_both(self):
        sig = SignalDef("x", "small", initial=0)
        model = tiny_model(
            Requirement("r1", "writes one", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(1)),)),
            Requirement("r2", "writes two", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(2)),)),
            signals=[sig])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 0
        [violation] = result.violations
        assert violation.constraint_id == "CONFLICT"
        assert "r1" in violation.message and "r2" in violation.message

    def test_agreeing_effects_apply_and_credit_both_writers(self):
        sig = SignalDef("x", "small", initial=0)
        model = tiny_model(
            Requirement("r1", "writes one", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(1)),)),
            Requirement("r2", "also writes one", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(1)),)),
            signals=[sig])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 1
        assert [rid for rid, _ in result.fired] == ["r1", "r2"]

    def test_frame_property_carries_unwritten_records(self):
        model = tiny_model(
            signals=[SignalDef("x", "small", initial=3)],
            modes=[lamp_component()])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 3
        assert result.end_env.modes["lamp"] == frozenset({"off"})
        assert result.fired == ()

    def test_exclusive_modeset_flags_empty_component(self):
        model = tiny_model(
            Requirement("ms", "lamp exclusivity", Template.MODE_SET,
                        component="lamp"),
            modes=[ModeComponent("lamp", ("off", "on"), exclusive=True,
                                 initial=None)])
        result = fire_round(model, initial_env(model), None)
        assert [v.constraint_id for v in result.violations] == ["MODESET"]

    def test_mode_assignment_is_exclusive(self):
        model = tiny_model(
            Requirement("go", "switch on", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(ModeAssign("lamp", "on"),)),
            Requirement("ms", "lamp exclusivity", Template.MODE_SET,
                        component="lamp"),
            modes=[lamp_component()])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.modes["lamp"] == frozenset({"on"})
        assert result.violations == ()

    def test_within_zero_obligation_is_checked_this_round(self):
        sig = SignalDef("x", "small", initial=0)
        ok = tiny_model(
            Requirement("r", "writes and demands", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(5)),),
                        required=BinOp("=", SigRead("x"), Lit(5)), within=0),
            signals=[sig])
        result = fire_round(ok, initial_env(ok), None)
        assert result.violations == ()
        assert result.end_env.pending == ()

        broken = tiny_model(
            Requirement("r", "demands the impossible", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True),
                        required=BinOp("=", SigRead("x"), Lit(5)), within=0),
            signals=[sig])
        result = fire_round(broken, initial_env(broken), None)
        assert [v.constraint_id for v in result.violations] == ["OBLIGATION"]

    def test_within_n_obligation_may_be_met_later(self):
        sig = SignalDef("x", "small", initial=0)
        model = tiny_model(
            Requirement("arm", "demand x=3 within three rounds",
                        Template.TRIGGER_ON_EVENT,
                        guard=BinOp("=", SigRead("x"), Lit(0)),
                        required=BinOp("=", SigRead("x"), Lit(3)), within=3),
            Requirement("bump", "x counts up", Template.TRIGGER_ON_EVENT,
                        guard=BinOp("<", SigRead("x"), Lit(3)),
                        effects=(SignalAssign("x",
                                              BinOp("+", SigRead("x"), Lit(1))),)),
            signals=[sig])
        env = initial_env(model)
        prev = None
        violations = []
        for _ in range(4):
            result = fire_round(model, env, prev)
            violations.extend(result.violations)
            prev, env = env, result.end_env
        # x reaches 3 at the end of round 3, inside the round-4 deadline
        assert violations == []
        assert env.pending == ()

    def test_expired_obligation_is_reported_once(self):
        sig = SignalDef("x", "small", initial=0)
        model = tiny_model(
            Requirement("arm", "demand x=5 within one round",
                        Template.TRIGGER_ON_EVENT,
                        guard=BinOp("=", SigRead("x"), Lit(0)),
                        effects=(SignalAssign("x", Lit(1)),),
                        required=BinOp("=", SigRead("x"), Lit(5)), within=1),
            signals=[sig])
        env = initial_env(model)
        first = fire_round(model, env, None)   # arms once, x leaves 0
        assert first.violations == ()
        second = fire_round(model, first.end_env, env)
        assert [v.constraint_id for v in second.violations] == ["OBLIGATION"]
        assert second.end_env.pending == ()

    def test_a_guard_that_is_not_boolean_is_reported(self):
        model = tiny_model(
            Requirement("r", "integer guard", Template.TRIGGER_ON_EVENT,
                        guard=SigRead("x"), effects=(SignalAssign("x", Lit(5)),)),
            signals=[SignalDef("x", "small", initial=2)])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 2
        [violation] = result.violations
        assert violation.constraint_id == "EVAL"
        assert violation.message.endswith("guard is not boolean: 2")

    def test_an_effect_that_fails_to_evaluate_keeps_the_signal(self):
        model = tiny_model(
            Requirement("add", "x plus an unset count", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign(
                            "x", BinOp("+", SigRead("x"), SigRead("c"))),)),
            signals=[SignalDef("x", "small", initial=2),
                     SignalDef("c", "small", initial=None)])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 2
        assert [v.constraint_id for v in result.violations] == ["EVAL"]

    def test_a_non_member_write_to_an_enum_signal_is_rejected(self):
        model = tiny_model(
            Requirement("r", "paint it blue", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("hue", Lit("blue")),)),
            signals=[SignalDef("hue", "Colour", initial="red")])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["hue"] == "red"
        [violation] = result.violations
        assert violation.constraint_id == "RANGE"
        assert violation.message.endswith(
            "is not a member of Colour; record keeps its start value")

    def test_case_first_match_wins_and_no_match_writes_nothing(self):
        sig = SignalDef("x", "small", initial=0)
        model = tiny_model(
            Requirement("pick", "cases on x", Template.CASE, branches=(
                CaseBranch(BinOp("=", SigRead("x"), Lit(0)),
                           (SignalAssign("x", Lit(1)),)),
                CaseBranch(Lit(True), (SignalAssign("x", Lit(9)),)),
            )),
            signals=[sig])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 1

        partial = tiny_model(
            Requirement("pick", "never matches", Template.CASE,
                        branches=(CaseBranch(Lit(False),
                                             (SignalAssign("x", Lit(1)),)),)),
            signals=[sig])
        result = fire_round(partial, initial_env(partial), None)
        assert (result.end_env.signals["x"], result.fired, result.violations) \
            == (0, (), ())

    def test_every_monitor_checks_the_end_snapshot(self):
        model = tiny_model(
            Requirement("off", "switch off", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(ModeAssign("lamp", "off"),)),
            Requirement("lit", "the lamp stays on", Template.EVERY,
                        required=ModeActive("lamp", "on", "end")),
            modes=[lamp_component(initial="on")])
        result = fire_round(model, initial_env(model), None)
        assert [v.constraint_id for v in result.violations] == ["MONITOR"]

    def test_out_of_range_write_is_rejected_and_reported(self):
        sig = SignalDef("x", "small", minimum=0, maximum=3, initial=0)
        model = tiny_model(
            Requirement("r", "overflow", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(99)),)),
            signals=[sig])
        result = fire_round(model, initial_env(model), None)
        assert [v.constraint_id for v in result.violations] == ["RANGE"]
        assert result.end_env.signals["x"] == 0

    def test_round_result_is_a_pure_function_of_its_inputs(self, model):
        env = initial_env(model, overrides={"current_command": "LED_ON_C"})
        first = fire_round(model, env, None)
        second = fire_round(model, env, None)
        assert first.end_env.signals == second.end_env.signals
        assert first.end_env.modes == second.end_env.modes
        assert first.fired == second.fired
        assert first.violations == second.violations


def command_signals():
    """The two records a run loop reads: the command and its finish flag."""
    return [SignalDef("current_command", "Colour", initial="red"),
            SignalDef("command_finish_flag", "Flag", initial=False)]


class TestRunRounds:
    def test_stop_predicate_halts_exactly_at_the_flag(self):
        count = SignalDef("bytes_sent", "small", initial=0)
        model = tiny_model(
            Requirement("bump", "the count goes up", Template.TRIGGER_ON_EVENT,
                        guard=BinOp("<", SigRead("bytes_sent"), Lit(9)),
                        effects=(SignalAssign("bytes_sent", BinOp(
                            "+", SigRead("bytes_sent"), Lit(1))),)),
            Requirement("finish", "the command finishes as the count reaches 4",
                        Template.TRIGGER_ON_EVENT,
                        guard=BinOp("=", SigRead("bytes_sent"), Lit(3)),
                        effects=(SignalAssign("command_finish_flag", Lit(True)),)),
            signals=[count, *command_signals()])
        trace = run_requirements_trace(model, "green", 50)
        assert trace.reason == "cmd_finish"
        assert [row.bytes_sent for row in trace.rows] == [0, 1, 2, 3, 4]
        assert [row.cmd_finish for row in trace.rows] == [False] * 4 + [True]

    def test_no_requirements_means_a_constant_env(self):
        model = tiny_model(
            signals=[SignalDef("tx_cnt", "small", initial=2), *command_signals()],
            modes=[ModeComponent("fsm", ("off", "on"), exclusive=True,
                                 initial="on")])
        trace = run_requirements_trace(model, "green", 5)
        assert trace.reason == "budget"
        assert len(trace.rows) == 5
        first = trace.rows[0]
        assert (first.state, first.command, first.tx_cnt) == ("on", "green", 2)
        assert all(row.values() == {**first.values(), "round": row.round}
                   for row in trace.rows)

    def test_an_obligation_still_open_when_the_run_ends_is_not_reported(self):
        # only an expired obligation is a violation; the run ends before this
        # one falls due
        model = tiny_model(
            Requirement("arm", "x reaches 5 within nine rounds",
                        Template.TRIGGER_ON_EVENT,
                        guard=BinOp("=", SigRead("x"), Lit(2)),
                        effects=(SignalAssign("x", Lit(3)),),
                        required=BinOp("=", SigRead("x"), Lit(5)), within=9),
            signals=[SignalDef("x", "small", initial=2), *command_signals()])
        trace = run_requirements_trace(model, "green", 4)
        assert trace.reason == "budget"
        assert trace.violations == ()


class TestValidation:
    def test_definition_cycles_are_rejected(self):
        with pytest.raises(ModelError, match="cycle"):
            tiny_model(definitions=[
                Definition("a", "a", DefRef("b")),
                Definition("b", "b", DefRef("a")),
            ])

    def test_end_read_in_guard_rejected_at_load_time(self):
        with pytest.raises(ModelError, match="end-of-round"):
            tiny_model(
                Requirement("r", "bad guard", Template.TRIGGER_ON_EVENT,
                            guard=ModeActive("lamp", "on", "end"),
                            effects=(ModeAssign("lamp", "off"),)),
                modes=[lamp_component()])

    def test_end_read_hidden_behind_a_definition_is_still_caught(self):
        with pytest.raises(ModelError, match="end-of-round"):
            tiny_model(
                Requirement("r", "bad guard", Template.TRIGGER_ON_EVENT,
                            guard=DefRef("lamp_on_end"),
                            effects=(ModeAssign("lamp", "off"),)),
                definitions=[Definition("lamp_on_end", "lamp on at end",
                                        ModeActive("lamp", "on", "end"))],
                modes=[lamp_component()])

    @pytest.mark.parametrize("lo, hi", [(0, None), (None, 5)])
    def test_a_half_bounded_int_type_is_rejected(self, lo, hi):
        # .req writes int bounds as a pair, so one bound would not round-trip
        with pytest.raises(ModelError, match="^int type 'half': give both bounds"):
            RequirementsModel(DataDictionary(types=(IntType("half", lo, hi),))).validate()

    def test_duplicate_requirement_ids_rejected(self):
        with pytest.raises(ModelError, match="duplicate requirement ids"):
            tiny_model(
                Requirement("r", "one", Template.EVERY, required=Lit(True)),
                Requirement("r", "two", Template.EVERY, required=Lit(True)))

    def test_case_branch_effect_on_an_unknown_signal_is_rejected(self):
        with pytest.raises(ModelError, match="unknown or non-signal record 'ghost'"):
            tiny_model(
                Requirement("r", "ghost writer", Template.CASE, branches=(
                    CaseBranch(Lit(True), (SignalAssign("ghost", Lit(1)),)),)),
                signals=[SignalDef("x", "small", initial=0)])

    def test_case_branch_assignment_of_a_missing_mode_is_rejected(self):
        with pytest.raises(ModelError, match="bad mode assignment lamp.zzz"):
            tiny_model(
                Requirement("r", "no such mode", Template.CASE, branches=(
                    CaseBranch(Lit(True), (ModeAssign("lamp", "zzz"),)),)),
                modes=[lamp_component()])

    def test_end_read_in_a_trigger_effect_is_rejected(self):
        with pytest.raises(ModelError, match="r: effect flag: end-of-round"):
            tiny_model(
                Requirement("r", "copy the end", Template.TRIGGER_ON_EVENT,
                            guard=Lit(True), effects=(SignalAssign(
                                "flag", ModeActive("lamp", "on", "end")),)),
                signals=[SignalDef("flag", "Flag", initial=False)],
                modes=[lamp_component()])

    def test_a_negative_within_is_rejected(self):
        # it would register an obligation already expired
        with pytest.raises(ModelError, match="^requirement r: within -1 is negative$"):
            tiny_model(
                Requirement("r", "due yesterday", Template.TRIGGER_ON_EVENT,
                            guard=Lit(True), effects=(SignalAssign("x", Lit(1)),),
                            required=BinOp("=", SigRead("x"), Lit(2)), within=-1),
                signals=[SignalDef("x", "small", initial=0)])

    def test_end_read_in_a_case_branch_effect_is_rejected(self):
        with pytest.raises(ModelError, match="r: effect flag: end-of-round"):
            tiny_model(
                Requirement("r", "copy the end", Template.CASE, branches=(
                    CaseBranch(Lit(True), (SignalAssign("flag", DefRef("lamp_on_end")),)),)),
                definitions=[Definition("lamp_on_end", "lamp on at end",
                                        ModeActive("lamp", "on", "end"))],
                signals=[SignalDef("flag", "Flag", initial=False)],
                modes=[lamp_component()])

    @pytest.mark.parametrize("where, requirement, definitions", [
        ("requirement r", Requirement(
            "r", "effect", Template.TRIGGER_ON_EVENT, guard=Lit(True),
            effects=(SignalAssign("x", DefRef("nowhere")),)), ()),
        ("requirement r", Requirement(
            "r", "case guard", Template.CASE,
            branches=(CaseBranch(DefRef("nowhere"), ()),)), ()),
        ("definition 'outer'", Requirement(
            "r", "body", Template.EVERY, required=DefRef("outer")),
         (Definition("outer", "outer", Not(DefRef("nowhere"))),)),
        ("requirement r", Requirement(
            "r", "chain", Template.EVERY,
            required=BoolOp("or", (Lit(True), DefRef("nowhere")))), ()),
    ], ids=["effect", "case guard", "definition body", "chain operand"])
    def test_unknown_definition_in_any_slot_is_rejected(self, where, requirement,
                                                        definitions):
        with pytest.raises(ModelError, match=f"^{where}: unknown definition 'nowhere'$"):
            tiny_model(requirement, definitions=definitions,
                       signals=[SignalDef("x", "small", initial=0)])

    @pytest.mark.parametrize("where, requirement, definitions", [
        ("requirement r", Requirement(
            "r", "guard", Template.TRIGGER_ON_EVENT, guard=BoolOp("and", ()),
            effects=(SignalAssign("x", Lit(1)),)), ()),
        ("requirement r", Requirement(
            "r", "nested", Template.EVERY,
            required=BoolOp("and", (Lit(True), Not(BoolOp("or", ()))))), ()),
        ("definition 'outer'", Requirement(
            "r", "body", Template.EVERY, required=DefRef("outer")),
         (Definition("outer", "outer", BoolOp("or", ())),)),
    ], ids=["guard", "nested", "definition body"])
    def test_an_empty_chain_is_rejected(self, where, requirement, definitions):
        # serialize_model would render it as nothing, which parse_model rejects
        with pytest.raises(ModelError, match=f"^{where}: empty '(and|or)' chain$"):
            tiny_model(requirement, definitions=definitions,
                       signals=[SignalDef("x", "small", initial=0)])

    def test_each_definition_body_is_walked_once(self, model, monkeypatch):
        # _scan walks the nodes under its root that it has no facts for yet;
        # every distinct node of the model, each definition body among them,
        # is walked by exactly one call
        walked = Counter()
        original = candofsm.reqs.model._scan

        def counting_scan(expr, facts, bodies, where):
            fresh, pending = set(), [expr]
            while pending:
                node = pending.pop()
                if id(node) not in facts and id(node) not in fresh:
                    fresh.add(id(node))
                    pending += children(node)
            walked.update(fresh)
            return original(expr, facts, bodies, where)

        monkeypatch.setattr(candofsm.reqs.model, "_scan", counting_scan)
        model.validate()
        assert [walked[id(d.expr)] for d in model.definitions] \
            == [1] * len(model.definitions)
        assert set(walked.values()) == {1}
        assert set(walked) == {id(node) for expr in slots(model) for node in walk(expr)}

    def test_a_shared_node_with_an_end_read_is_rejected_in_a_later_guard(self):
        # the node is scanned first as a required condition, where the end
        # read is legal; the same object as a guard must still be rejected
        lamp_on_at_end = Not(ModeActive("lamp", "on", "end"))
        with pytest.raises(ModelError,
                           match="^requirement r2: guard: end-of-round reads"):
            tiny_model(
                Requirement("r1", "monitor", Template.EVERY, required=lamp_on_at_end),
                Requirement("r2", "bad guard", Template.TRIGGER_ON_EVENT,
                            guard=lamp_on_at_end, effects=(ModeAssign("lamp", "off"),)),
                modes=[lamp_component()])

    @staticmethod
    def sum_model(terms: int, definitions: str = "") -> str:
        return ("signal x : int min=0 max=9 init=0\n" + definitions
                + 'req r "sum" every ' + " + ".join(["x"] * terms) + " = 0\n")

    def test_deep_arithmetic_is_rejected_with_the_requirement_named(self):
        with pytest.raises(ModelError, match=(
                f"^requirement r: expression nested 1201 deep, deeper than "
                f"{MAX_DEPTH}$")):
            parse_model(self.sum_model(1200))

    def test_depth_counts_through_definitions(self):
        body = " + ".join(["x"] * (MAX_DEPTH - 50))
        with pytest.raises(ModelError, match="^requirement r: expression nested"):
            parse_model(self.sum_model(60, f'def total "t" := {body}\n')
                        .replace("every x", "every total"))

    @pytest.mark.parametrize("terms", [100, MAX_DEPTH - 1])
    def test_a_sum_within_the_limit_validates_evaluates_and_serializes(self, terms):
        model = parse_model(self.sum_model(terms))
        env = initial_env(model)
        result = fire_round(model, env, None)
        assert result.violations == ()   # 0 + 0 + ... = 0
        worse = fire_round(model, replace_signals(env, x=1), None)
        assert [v.constraint_id for v in worse.violations] == ["MONITOR"]
        assert parse_model(serialize_model(model)) == model
        assert eval_expr(model.requirements[0].required, EvalContext(
            start_signals=env.signals, start_modes=env.modes,
            definitions=model.definition_map(), end_signals=env.signals,
            end_modes=env.modes, ambient="end")) is True


def children(node) -> tuple:
    if isinstance(node, BoolOp):
        return node.operands
    if isinstance(node, BinOp):
        return node.left, node.right
    if isinstance(node, Not):
        return (node.operand,)
    return ()


def walk(expr):
    """Yield the node and all its descendants in pre-order, once per tree
    position, not following definition references."""
    pending = [expr]
    while pending:
        node = pending.pop()
        yield node
        pending += reversed(children(node))


def slots(model) -> list:
    """Every expression slot of a model: definition bodies, guards, required
    conditions and effect values."""
    found = [d.expr for d in model.definitions]
    for req in model.requirements:
        found += [e for e in (req.guard, req.required) if e is not None]
        found += [a.expr for a in req.effects if isinstance(a, SignalAssign)]
        for branch in req.branches:
            found += [branch.guard] if branch.guard is not None else []
            found += [a.expr for a in branch.effects if isinstance(a, SignalAssign)]
    return found


def replace_signals(env, **values):
    return Env(signals={**env.signals, **values}, modes=env.modes)


# the records the one-line .req cases below read
TEXT_HEAD = ("type Flag bool\nsignal x : int init=0\nsignal b : bool init=false\n"
             "signal y : int init=0\nmode lamp { off on } exclusive init=off\n")


class TestReqText:
    def test_generated_model_round_trips(self, model):
        text = serialize_model(model)
        parsed = parse_model(text)
        assert parsed.dictionary == model.dictionary
        assert parsed.definitions == model.definitions
        assert parsed.requirements == model.requirements
        assert serialize_model(parsed) == text

    def test_small_hand_written_model_parses(self):
        text = "\n".join([
            "type Colour enum { red green }",
            "const LIMIT : int = 3",
            "signal x : int min=0 max=9 init=0",
            "signal hue : Colour init=red",
            "mode lamp { off on } exclusive init=off",
            'def lamp_on "The lamp is on" := mode(lamp.on) at start',
            'req bump "count up" trigger lamp_on and x < LIMIT => '
            'x := x + 1 require x = 1 within 0',
            'req ms "one lamp mode" modeset lamp exclusive',
            'req watch "hue stays red" when lamp_on => hue = red',
            'req pick "first match" case x = 0 => hue := red | x = 1 => '
            'hue := green',
        ]) + "\n"
        model = parse_model(text)
        assert len(model.requirements) == 4
        assert model.requirements[0].within == 0
        assert serialize_model(parse_model(serialize_model(model))) \
            == serialize_model(model)

    def test_a_wide_flat_disjunction_parses_validates_and_fires(self):
        operands = " or ".join(f"x = {i}" for i in range(1200))
        model = parse_model(f'signal x : int init=0\nreq r "wide" when {operands} '
                            "=> x = 0\n")
        guard = model.requirements[0].guard
        assert isinstance(guard, BoolOp) and guard.op == "or"
        assert len(guard.operands) == 1200
        result = fire_round(model, initial_env(model), None)
        assert result.violations == ()

    def test_a_parenthesised_chain_stays_nested(self):
        model = parse_model('signal x : int init=0\n'
                            'req r "nested" every x = 1 or (x = 2 or x = 3)\n')
        one, two, three = (BinOp("=", SigRead("x"), Lit(i)) for i in (1, 2, 3))
        assert model.requirements[0].required \
            == BoolOp("or", (one, BoolOp("or", (two, three))))
        assert serialize_model(model).endswith("every x = 1 or (x = 2 or x = 3)\n")

    def test_wide_chains_compare_and_hash_at_the_default_recursion_limit(self):
        text = ('signal x : int init=0\nreq r "wide" every '
                + " or ".join(f"x = {i}" for i in range(1200)) + "\n")
        first, second = parse_model(text), parse_model(text)
        assert first is not second and first == second
        assert hash(first.requirements[0].required) \
            == hash(second.requirements[0].required)

    @pytest.mark.parametrize("lines", [
        'req r "round trip" every (x = 1) = true',
        'req r "round trip" every (x < 1) = (x > 2)',
        'req r "round trip" every (not b) = true',
        'req r "round trip" every (x = 1 or x = 2) or x = 3 and (b and x > 0)',
        'req r "round trip" every ' + " or ".join(f"x = {i}" for i in range(1200)),
        'req r "round trip" every ' + " and ".join(f"x != {i}" for i in range(1, 1201)),
        "type t int [0, 3]\nsignal z : t init=0",
        "const LIMIT : int = 3 min=0 max=9 tol=1",
        'req r "product" every x * 2 = -1',
        'req r "later" trigger b => x := 1 require x = 2 within 3',
        'req r "lamp modes" modeset lamp exclusive',
    ], ids=["comparison-of-comparison", "comparisons-on-both-sides",
            "not-under-comparison", "nested-chains", "1200-operand-or",
            "1200-operand-and", "bounded-int-type", "constant-with-options",
            "product-and-negative-literal", "within-n", "exclusive-modeset"])
    def test_serialize_inverts_parse(self, lines):
        model = parse_model(TEXT_HEAD + f"{lines}\n")
        assert parse_model(serialize_model(model)) == model

    @pytest.mark.parametrize("line", [
        'def double(n) "twice n" := n + n',
        "type lamps array Flag [4]",
        'req r "rising" every mode(lamp.on) becomes active',
        'req r "lit" every mode(lamp.on) ever active',
        'req r "dark" every mode(lamp.on) ever inactive',
        'req r "hold" latch x while b',
        'req r "pin" latch x while b := x + 1',
        'req r "watch" onchange x => b',
        'req r "mirror" onchange x when b do y := x',
        'req r "eventually" trigger b => x := 1 require x = 2 within 3 atsomepoint',
        'req r "pick" case b => x := 1 total',
        'req r "lamp modes" modeset lamp',
    ], ids=["parameterised-definition", "array-type", "becomes", "mode-ever-active",
            "mode-ever-inactive", "latch-holding-its-start-value", "latch-with-a-value",
            "onchange-monitor", "onchange-constructive", "within-n-atsomepoint",
            "total-case", "modeset-without-exclusive"])
    def test_removed_constructs_are_parse_errors(self, line):
        with pytest.raises(ParseError):
            parse_model(TEXT_HEAD + f"{line}\n")

    def test_unknown_name_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse_model('req r "bad" every nonsense = 1\n')

    def test_unknown_template_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown requirement template 'sometimes'"):
            parse_model('signal x : int init=0\nreq r "bad" sometimes x = 1\n')

    def test_unknown_directive_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_model("frobnicate everything\n")

    def test_line_numbers_point_at_the_offence(self):
        text = "signal x : int\nreq r \"bad\" every x <\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert err.value.line == 2

