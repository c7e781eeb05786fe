from __future__ import annotations

import re
from collections import Counter

import pytest

import candofsm.reqs.model
from candofsm.reqs import (
    BinOp,
    BoolOp,
    BoolType,
    DataDictionary,
    DefRef,
    Definition,
    EnumType,
    Env,
    IllegalEndOfRoundRead,
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
from candofsm.reqs.expr import Nodes
from candofsm.reqs.text import (
    _COMPARISON_PRECEDENCE,
    _NOT_PRECEDENCE,
    _PRECEDENCE,
    parse_model,
    render_expr,
    serialize_model,
)
from candofsm.specio import ParseError


def small(name: str, initial=None) -> SignalDef:
    """An int signal bounded to [0, 10]."""
    return SignalDef(name, "int", minimum=0, maximum=10, initial=initial)


def tiny_model(*requirements, signals=(), modes=(), definitions=()):
    dictionary = DataDictionary(
        types=(BoolType("Flag"), EnumType("Colour", ("red", "green"))),
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
    return ModeComponent("lamp", ("off", "on"), initial=initial)


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
        sig = small("x", 0)
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
        sig = small("x", 0)
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
            signals=[small("x", 3)],
            modes=[lamp_component()])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 3
        assert result.end_env.modes["lamp"] == frozenset({"off"})
        assert result.fired == ()

    def test_exclusive_modeset_flags_empty_component(self):
        model = tiny_model(
            Requirement("ms", "lamp exclusivity", Template.MODE_SET,
                        component="lamp"),
            modes=[ModeComponent("lamp", ("off", "on"), initial=None)])
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

    def test_a_trigger_checks_its_required_condition_at_the_end_of_its_round(self):
        def trigger(title, guard, required, *effects):
            return tiny_model(
                Requirement("r", title, Template.TRIGGER_ON_EVENT, guard=guard,
                            effects=effects, required=required),
                signals=[small("x", 0),
                         small("c", None)])

        def violations(model):
            return [(v.constraint_id, v.message)
                    for v in fire_round(model, initial_env(model), None).violations]

        x_is_5 = BinOp("=", SigRead("x"), Lit(5))
        unset = BinOp("<", SigRead("c"), Lit(3))   # c has no value: raises
        # x is 0 at the start: only the end snapshot meets the condition
        assert violations(trigger("writes and demands", Lit(True), x_is_5,
                                  SignalAssign("x", Lit(5)))) == []
        # a guard that is false at the start never reads the condition
        assert violations(trigger("never armed", BinOp("<", Lit(0), SigRead("x")),
                                  unset)) == []
        # a condition that fails to evaluate is one EVAL, not also a breach
        [(code, message)] = violations(trigger("reads c", Lit(True), unset))
        assert code == "EVAL"
        assert message.startswith("requirement r (reads c): ")
        assert violations(trigger("demands the impossible", Lit(True), x_is_5)) == [
            ("OBLIGATION", "requirement r (demands the impossible): required "
                           "condition breached after trigger")]

    def test_a_trigger_check_sees_other_writes_and_follows_the_monitors(self):
        def model(*writers):
            return tiny_model(
                Requirement("arm", "x must be 5", Template.TRIGGER_ON_EVENT,
                            guard=Lit(True), required=BinOp("=", SigRead("x"), Lit(5))),
                Requirement("nine", "x is always 9", Template.EVERY,
                            required=BinOp("=", SigRead("x"), Lit(9))),
                *writers, signals=[small("x", 0)])

        def codes(m):
            return [v.constraint_id for v in fire_round(m, initial_env(m), None).violations]

        # another requirement's write in the same round meets the condition
        assert codes(model(Requirement("set", "x becomes 5", Template.TRIGGER_ON_EVENT,
                                       guard=Lit(True),
                                       effects=(SignalAssign("x", Lit(5)),)))) \
            == ["MONITOR"]
        # a breach is reported after the monitors, as the last check of the round
        assert codes(model()) == ["MONITOR", "OBLIGATION"]

    def test_a_guard_that_is_not_boolean_is_reported(self):
        model = tiny_model(
            Requirement("r", "integer guard", Template.TRIGGER_ON_EVENT,
                        guard=SigRead("x"), effects=(SignalAssign("x", Lit(5)),)),
            signals=[small("x", 2)])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == 2
        [violation] = result.violations
        assert violation.constraint_id == "EVAL"
        assert violation.message.endswith("guard is not boolean: 2")

    def test_a_trigger_without_a_guard_fires_every_round(self):
        # no text form leaves a trigger's guard out; a library-built one can
        model = tiny_model(
            Requirement("tick", "count every round", Template.TRIGGER_ON_EVENT,
                        effects=(SignalAssign("x", BinOp("+", SigRead("x"), Lit(1))),)),
            signals=[small("x", 0)])
        env = initial_env(model)
        for count in range(1, 4):
            result = fire_round(model, env, None)
            assert (result.end_env.signals["x"], result.fired, result.violations) \
                == (count, (("tick", ("x",)),), ()), count
            env = result.end_env

    def test_an_effect_that_fails_to_evaluate_keeps_the_signal(self):
        model = tiny_model(
            Requirement("add", "x plus an unset count", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign(
                            "x", BinOp("+", SigRead("x"), SigRead("c"))),)),
            signals=[small("x", 2),
                     small("c", None)])
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
        sig = SignalDef("x", "int", minimum=0, maximum=3, initial=0)
        model = tiny_model(
            Requirement("r", "overflow", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(99)),)),
            signals=[sig])
        result = fire_round(model, initial_env(model), None)
        assert [v.constraint_id for v in result.violations] == ["RANGE"]
        assert result.end_env.signals["x"] == 0

    @pytest.mark.parametrize("signal, value, fault", [
        (small("x", 0), True, "is not an int"),
        (SignalDef("x", "int", initial=0), "red", "is not an int"),
        (SignalDef("x", "bool", initial=False), 1, "is not a bool"),
        (SignalDef("x", "Flag", initial=False), "red", "is not a bool"),
    ], ids=["bool-to-int", "member-to-unbounded-int", "int-to-bool", "member-to-flag"])
    def test_a_write_of_the_wrong_type_is_rejected(self, signal, value, fault):
        model = tiny_model(
            Requirement("r", "mistyped", Template.TRIGGER_ON_EVENT,
                        guard=Lit(True), effects=(SignalAssign("x", Lit(value)),)),
            signals=[signal])
        result = fire_round(model, initial_env(model), None)
        assert result.end_env.signals["x"] == signal.initial
        assert [(v.constraint_id, v.message) for v in result.violations] == [
            ("RANGE", f"assignment of {value!r} to 'x' {fault}; record keeps its "
                      "start value")]

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
        count = small("bytes_sent", 0)
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
            signals=[small("tx_cnt", 2), *command_signals()],
            modes=[ModeComponent("fsm", ("off", "on"), initial="on")])
        trace = run_requirements_trace(model, "green", 5)
        assert trace.reason == "budget"
        assert len(trace.rows) == 5
        first = trace.rows[0]
        assert (first.state, first.command, first.tx_cnt) == ("on", "green", 2)
        assert all(row.values() == {**first.values(), "round": row.round}
                   for row in trace.rows)


    def test_a_breached_require_is_reported_in_each_round_its_guard_holds(self):
        # the count goes 0 -> 3 and must be 3 after each step: rounds 1 and 2
        # end on 1 and 2; from round 4 the guard is false and nothing is checked
        model = tiny_model(
            Requirement("step", "count to three in one step",
                        Template.TRIGGER_ON_EVENT,
                        guard=BinOp("<", SigRead("bytes_sent"), Lit(3)),
                        effects=(SignalAssign("bytes_sent", BinOp(
                            "+", SigRead("bytes_sent"), Lit(1))),),
                        required=BinOp("=", SigRead("bytes_sent"), Lit(3))),
            signals=[small("bytes_sent", 0), *command_signals()])
        trace = run_requirements_trace(model, "green", 6)
        assert trace.reason == "budget"
        assert [row.bytes_sent for row in trace.rows] == [0, 1, 2, 3, 3, 3]
        assert [v.constraint_id for v in trace.violations] == ["OBLIGATION"] * 2


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

    @pytest.mark.parametrize("line, message", [
        ("signal x : int min=0 max=3 init=9", "initial 9 is outside [0, 3]"),
        ("signal x : int max=10 init=11", "initial 11 is outside [None, 10]"),
        ("signal c : Colour init=blue", "initial 'blue' is not a member of Colour"),
        ("signal x : int min=0 max=3 init=red", "initial 'red' is not an int"),
        ("signal x : int init=true", "initial True is not an int"),
        ("signal b : bool init=7", "initial 7 is not a bool"),
        ("signal f : Flag init=red", "initial 'red' is not a bool"),
    ])
    def test_an_initial_value_no_write_could_make_is_rejected(self, line, message):
        # the engine checks each write, so row 0 would otherwise hold the
        # value unchecked
        head = "type Colour enum { red green }\ntype Flag bool\n"
        with pytest.raises(ModelError, match=f"^signal '[a-z]': {re.escape(message)}$"):
            parse_model(f"{head}{line}\n")

    @pytest.mark.parametrize("line, message", [
        ("signal x : int min=5 max=1 init=nil", "signal 'x': min 5 is above max 1"),
        ("signal x : int min=red init=0",
         "signal 'x': bounds 'red', None need an int signal and int values"),
        ("signal x : int max=true",
         "signal 'x': bounds None, True need an int signal and int values"),
        ("signal f : Flag min=0 max=1",
         "signal 'f': bounds 0, 1 need an int signal and int values"),
    ], ids=["min-above-max", "symbol-bound", "bool-bound", "bounds-on-a-bool"])
    def test_a_bound_its_type_cannot_hold_is_rejected(self, line, message):
        head = "type Colour enum { red green }\ntype Flag bool\n"
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            parse_model(f"{head}{line}\n")

    def test_equal_bounds_are_accepted(self):
        model = parse_model("signal x : int min=2 max=2 init=2\n")
        assert initial_env(model).signals == {"x": 2}

    def test_a_nil_or_in_range_initial_value_is_accepted(self):
        model = parse_model(
            "type Colour enum { red green }\ntype Flag bool\n"
            "signal x : int min=0 max=3 init=3\nsignal y : int min=0 max=10 init=nil\n"
            "signal c : Colour init=nil\nsignal d : Colour init=green\n"
            "signal f : Flag init=false\nsignal b : bool init=nil\n")
        assert initial_env(model).signals == {"x": 3, "y": None, "c": None, "d": "green",
                                              "f": False, "b": None}

    @pytest.mark.parametrize("name, value, fault", [
        ("d", "BOGUS", "signal 'd': 'BOGUS' is not a member of Colour"),
        ("x", 99, "signal 'x': 99 is outside [0, 3]"),
        ("x", True, "signal 'x': True is not an int"),
        ("ghost", 1, "'ghost': not a signal"),
    ], ids=["bogus-member", "out-of-range", "bool-in-an-int", "unknown"])
    def test_an_override_its_signal_does_not_admit_is_rejected(self, name, value, fault):
        model = parse_model("type Colour enum { red green }\n"
                            "signal x : int min=0 max=3 init=0\nsignal d : Colour init=red\n")
        with pytest.raises(ModelError, match=f"^override of {re.escape(fault)}$"):
            initial_env(model, {name: value})
        assert initial_env(model, {"x": None, "d": None}).signals == {"x": None, "d": None}

    def test_duplicate_requirement_ids_rejected(self):
        with pytest.raises(ModelError, match="duplicate requirement ids"):
            tiny_model(
                Requirement("r", "one", Template.EVERY, required=Lit(True)),
                Requirement("r", "two", Template.EVERY, required=Lit(True)))

    def test_a_trigger_effect_on_an_unknown_signal_is_rejected(self):
        with pytest.raises(ModelError, match="unknown or non-signal record 'ghost'"):
            tiny_model(
                Requirement("r", "ghost writer", Template.TRIGGER_ON_EVENT,
                            guard=Lit(True), effects=(SignalAssign("ghost", Lit(1)),)),
                signals=[small("x", 0)])

    def test_a_trigger_assignment_of_a_missing_mode_is_rejected(self):
        with pytest.raises(ModelError, match="bad mode assignment lamp.zzz"):
            tiny_model(
                Requirement("r", "no such mode", Template.TRIGGER_ON_EVENT,
                            guard=Lit(True), effects=(ModeAssign("lamp", "zzz"),)),
                modes=[lamp_component()])

    def test_a_signal_of_an_unknown_type_is_rejected(self):
        with pytest.raises(ModelError, match=r"^signal 'x': unknown type 'Weird'$"):
            parse_model("signal x : Weird\n")

    def test_an_initial_mode_its_component_lacks_is_rejected(self):
        with pytest.raises(ModelError,
                           match=r"^mode component 'lamp': initial 'dim' not a mode$"):
            tiny_model(modes=[lamp_component(initial="dim")])

    def test_a_mode_set_on_an_unknown_component_is_rejected(self):
        with pytest.raises(ModelError,
                           match=r"^requirement r: mode-set needs a mode component$"):
            tiny_model(Requirement("r", "one ghost mode", Template.MODE_SET,
                                   component="ghost"), modes=[lamp_component()])

    @pytest.mark.parametrize("where, read, requirement, definitions", [
        ("requirement r", "lamp.zzz", Requirement(
            "r", "guard", Template.WHEN, guard=ModeActive("lamp", "zzz", "start"),
            required=Lit(True)), ()),
        ("definition 'd'", "lamp.zzz", Requirement(
            "r", "body", Template.EVERY, required=DefRef("d")),
         (Definition("d", "d", Not(ModeActive("lamp", "zzz", "end"))),)),
        ("requirement r", "dial.on", Requirement(
            "r", "component", Template.EVERY, required=ModeActive("dial", "on", "end")),
         ()),
    ], ids=["guard", "definition body", "unknown component"])
    def test_a_read_of_a_mode_its_component_lacks_is_rejected(self, where, read,
                                                              requirement, definitions):
        # such a read is always false, so a typo would silently weaken a guard
        with pytest.raises(ModelError, match=f"^{where}: read of unknown mode {read}$"):
            tiny_model(requirement, definitions=definitions, modes=[lamp_component()])

    @pytest.mark.parametrize("where, requirement, definitions", [
        ("requirement r", Requirement(
            "r", "guard", Template.WHEN, guard=BinOp("=", SigRead("ghost"), Lit(0)),
            required=Lit(True)), ()),
        ("requirement r", Requirement(
            "r", "effect", Template.TRIGGER_ON_EVENT, guard=Lit(True),
            effects=(SignalAssign("x", SigRead("ghost")),)), ()),
        ("definition 'd'", Requirement(
            "r", "body", Template.EVERY, required=DefRef("d")),
         (Definition("d", "d", BinOp("<", SigRead("x"), SigRead("ghost"))),)),
    ], ids=["guard", "effect", "definition body"])
    def test_a_read_of_an_undeclared_signal_is_rejected(self, where, requirement,
                                                        definitions):
        # the model would load and then report EVAL in every round it reads it
        with pytest.raises(ModelError, match=f"^{where}: read of unknown signal 'ghost'$"):
            tiny_model(requirement, definitions=definitions, signals=[small("x", 0)])

    def test_a_parsed_read_of_a_mode_its_component_lacks_is_rejected(self):
        with pytest.raises(ModelError, match="^requirement r: read of unknown mode lamp.zzz$"):
            parse_model(TEXT_HEAD + 'req r "t" every mode(lamp.zzz) at start or x = 0\n')

    @pytest.mark.parametrize("text, fault", [
        ("a # b", "'#'"), ("a\nb", "line break"), ("a\rb", "line break"),
        ("a\x0bb", "line break"), ("a\x85b", "line break"), ("a\u2028b", "line break"),
    ], ids=["hash", "LF", "CR", "VT", "NEL", "LS"])
    @pytest.mark.parametrize("message, make", [
        ("requirement r: {} in its title",
         lambda text: (Requirement("r", text, Template.EVERY, required=Lit(True)), ())),
        ("definition 'd': {} in its text",
         lambda text: (Requirement("r", "t", Template.EVERY, required=DefRef("d")),
                       (Definition("d", text, Lit(True)),))),
    ], ids=["title", "definition text"])
    def test_a_hash_or_line_break_in_a_title_or_definition_text_is_rejected(
            self, message, make, text, fault):
        # the .req text starts a comment at '#' and reads one record per
        # line: the model would not read back
        requirement, definitions = make(text)
        with pytest.raises(ModelError, match=f"^{message.format(fault)}$"):
            tiny_model(requirement, definitions=definitions)

    def test_end_read_in_a_trigger_effect_is_rejected(self):
        with pytest.raises(ModelError, match="r: effect flag: end-of-round"):
            tiny_model(
                Requirement("r", "copy the end", Template.TRIGGER_ON_EVENT,
                            guard=Lit(True), effects=(SignalAssign(
                                "flag", ModeActive("lamp", "on", "end")),)),
                signals=[SignalDef("flag", "Flag", initial=False)],
                modes=[lamp_component()])

    def test_end_read_behind_a_definition_in_a_trigger_effect_is_rejected(self):
        with pytest.raises(ModelError, match="r: effect flag: end-of-round"):
            tiny_model(
                Requirement("r", "copy the end", Template.TRIGGER_ON_EVENT,
                            guard=Lit(True),
                            effects=(SignalAssign("flag", DefRef("lamp_on_end")),)),
                definitions=[Definition("lamp_on_end", "lamp on at end",
                                        ModeActive("lamp", "on", "end"))],
                signals=[SignalDef("flag", "Flag", initial=False)],
                modes=[lamp_component()])

    @pytest.mark.parametrize("where, requirement, definitions", [
        ("requirement r", Requirement(
            "r", "effect", Template.TRIGGER_ON_EVENT, guard=Lit(True),
            effects=(SignalAssign("x", DefRef("nowhere")),)), ()),
        ("requirement r", Requirement(
            "r", "guard", Template.TRIGGER_ON_EVENT, guard=DefRef("nowhere")), ()),
        ("definition 'outer'", Requirement(
            "r", "body", Template.EVERY, required=DefRef("outer")),
         (Definition("outer", "outer", Not(DefRef("nowhere"))),)),
        ("requirement r", Requirement(
            "r", "chain", Template.EVERY,
            required=BoolOp("or", (Lit(True), DefRef("nowhere")))), ()),
    ], ids=["effect", "guard", "definition body", "chain operand"])
    def test_unknown_definition_in_any_slot_is_rejected(self, where, requirement,
                                                        definitions):
        with pytest.raises(ModelError, match=f"^{where}: unknown definition 'nowhere'$"):
            tiny_model(requirement, definitions=definitions,
                       signals=[small("x", 0)])

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
                       signals=[small("x", 0)])

    @pytest.mark.parametrize("where, fault, required, definitions", [
        ("requirement r", "unknown definition 'nowhere'",
         BoolOp("and", (DefRef("nowhere"), BoolOp("or", ()))), ()),
        ("requirement r", "empty 'or' chain",
         BoolOp("and", (BoolOp("or", ()), DefRef("nowhere"))), ()),
        ("definition 'inner'", "empty 'or' chain", DefRef("outer"),
         (Definition("outer", "outer", BoolOp("and", (DefRef("inner"), DefRef("nowhere")))),
          Definition("inner", "inner", BoolOp("or", ())))),
    ], ids=["reference first", "chain first", "body of the first reference"])
    def test_the_first_fault_in_pre_order_is_reported(self, where, fault, required,
                                                      definitions):
        # a definition body is scanned where it is first referenced, so two
        # faults in one slot are met in pre-order with definitions inlined
        with pytest.raises(ModelError, match=f"^{where}: {fault}$"):
            tiny_model(Requirement("r", "two faults", Template.EVERY, required=required),
                       definitions=definitions)

    def test_each_node_is_walked_once_and_no_expression_twice(self, model, monkeypatch):
        # _scan writes the facts of each node it walks, and a definition body
        # is walked by the call its first reference makes: every distinct
        # node of the model, each definition body among them, has its facts
        # written exactly once, and no expression is the root of two calls
        written, roots = Counter(), Counter()
        original = candofsm.reqs.model._scan

        class Recorded:
            """The facts a call reads, and each write it makes, counted."""

            def __init__(self, facts):
                self.facts = facts

            def __contains__(self, key):
                return key in self.facts

            def __getitem__(self, key):
                return self.facts[key]

            def __setitem__(self, key, value):
                written[key] += 1
                self.facts[key] = value

        def counting_scan(expr, where, facts, *rest):
            roots[id(expr)] += 1
            return original(expr, where, Recorded(facts), *rest)

        monkeypatch.setattr(candofsm.reqs.model, "_scan", counting_scan)
        model.validate()
        assert set(roots.values()) == {1}
        assert [written[id(d.expr)] for d in model.definitions] \
            == [1] * len(model.definitions)
        assert set(written.values()) == {1}
        assert set(written) == {id(node) for expr in slots(model) for node in walk(expr)}

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

    @staticmethod
    def chain(length: int) -> list[Definition]:
        """``d{i} := d{i-1}`` down to ``d0 := true``, dependants first."""
        return [Definition(f"d{i}", "t", DefRef(f"d{i - 1}"))
                for i in range(length - 1, 0, -1)] + [Definition("d0", "t", Lit(True))]

    def test_a_deep_definition_chain_listed_dependants_first_is_rejected(self):
        with pytest.raises(ModelError, match=(
                f"^definition 'd599': expression nested more than {MAX_DEPTH} deep$")):
            tiny_model(definitions=self.chain(600))

    @pytest.mark.parametrize("length", [150, MAX_DEPTH])
    def test_a_definition_chain_within_the_limit_validates(self, length):
        assert len(tiny_model(definitions=self.chain(length)).definitions) == length

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
    return found


def replace_signals(env, **values):
    return Env(signals={**env.signals, **values}, modes=env.modes)


# the records the one-line .req cases below read
TEXT_HEAD = ("type Flag bool\nsignal x : int init=0\nsignal b : bool init=false\n"
             "signal y : int init=0\nmode lamp { off on } exclusive init=off\n")

# the operators the language dropped because the translation never emits
# them: each is a ParseError wherever it stands
REMOVED_OPERATORS = ("!=", "<=", ">", "-", "*")


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
            "signal x : int min=0 max=9 init=0",
            "signal hue : Colour init=red",
            "mode lamp { off on } exclusive init=off",
            'def lamp_on "The lamp is on" := mode(lamp.on) at start',
            'req bump "count up" trigger lamp_on and x < 3 => '
            'x := x + 1 require x = 1',
            'req ms "one lamp mode" modeset lamp exclusive',
            'req watch "hue stays red" when lamp_on => hue = red',
            'req low "x stays below the limit" every x < 3 + 1',
        ]) + "\n"
        model = parse_model(text)
        assert len(model.requirements) == 4
        assert model.requirements[0].required == BinOp("=", SigRead("x"), Lit(1))
        assert serialize_model(parse_model(serialize_model(model))) \
            == serialize_model(model)

    def test_a_node_the_renderer_does_not_know_is_refused(self):
        with pytest.raises(ValueError, match=r"cannot render SignalAssign\(name='x'"):
            render_expr(SignalAssign("x", Lit(1)))

    def test_comment_and_blank_lines_are_skipped(self):
        bare = ['mode lamp { off on } exclusive init=off',
                'req ms "one lamp mode" modeset lamp exclusive']
        commented = ["# a lamp and its one rule", "", bare[0] + "  # two modes", "   ",
                     bare[1]]
        assert parse_model("\n".join(commented) + "\n") == parse_model("\n".join(bare))

    def test_a_wide_flat_disjunction_parses_validates_and_fires(self):
        operands = " or ".join(f"x = {i}" for i in range(1200))
        model = parse_model(f'signal x : int init=0\nreq r "wide" when {operands} '
                            "=> x = 0\n")
        guard = model.requirements[0].guard
        assert isinstance(guard, BoolOp) and guard.op == "or"
        assert len(guard.operands) == 1200
        result = fire_round(model, initial_env(model), None)
        assert result.violations == ()

    def test_zero_and_false_parse_to_distinct_literals(self):
        model = parse_model(TEXT_HEAD + 'req r "zero" every x = 0\n'
                            'req s "false" every b = false\n')
        zero, false = (r.required.right for r in model.requirements)
        assert zero is not false
        assert [(type(n.value), n.value) for n in (zero, false)] \
            == [(int, 0), (bool, False)]

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
        'req r "round trip" every (x < 1) = (x >= 2)',
        'req r "round trip" every (not b) = true',
        'req r "round trip" every (x = 1 or x = 2) or x = 3 and (b and 0 < x)',
        'req r "round trip" every ' + " or ".join(f"x = {i}" for i in range(1200)),
        'req r "round trip" every ' + " and ".join(f"not x = {i}" for i in range(1, 1201)),
        "type t enum { a b }\nsignal z : t init=a",
        'req r "sum" every x + 2 + y = 1',
        'req r "lamp modes" modeset lamp exclusive',
    ], ids=["comparison-of-comparison", "comparisons-on-both-sides",
            "not-under-comparison", "nested-chains", "1200-operand-or",
            "1200-operand-and", "enum-type", "left-nested-sum", "exclusive-modeset"])
    def test_serialize_inverts_parse(self, lines):
        model = parse_model(TEXT_HEAD + f"{lines}\n")
        assert parse_model(serialize_model(model)) == model

    @pytest.mark.parametrize("line, message", [
        ('def double(n) "twice n" := n + n', "expected 'def name \"text\" := expr'"),
        ("type lamps array Flag [4]", "unexpected character '['"),
        ('req r "rising" every mode(lamp.on) becomes active',
         "expected 'at' after mode(), got 'becomes'"),
        ('req r "lit" every mode(lamp.on) ever active',
         "expected 'at' after mode(), got 'ever'"),
        ('req r "dark" every mode(lamp.on) ever inactive',
         "expected 'at' after mode(), got 'ever'"),
        ('req r "hold" latch x while b', "unknown requirement template 'latch'"),
        ('req r "pin" latch x while b := x + 1', "unknown requirement template 'latch'"),
        ('req r "watch" onchange x => b', "unknown requirement template 'onchange'"),
        ('req r "mirror" onchange x when b do y := x',
         "unknown requirement template 'onchange'"),
        ('req r "later" trigger b => x := 1 require x = 2 within 3',
         "trailing tokens: 'within'"),
        ('req r "now" trigger b => x := 1 require x = 2 within 0',
         "trailing tokens: 'within'"),
        ('req r "eventually" trigger b => x := 1 require x = 2 within 3 atsomepoint',
         "trailing tokens: 'within'"),
        ('req r "pick" case b => x := 1 total', "unknown requirement template 'case'"),
        ('req r "pick" case b => x := 1', "unknown requirement template 'case'"),
        ('req r "pick" case b => x := 1 | not b => x := 2',
         "unknown requirement template 'case'"),
        ("type t int [0, 3]", "unexpected character '['"),
        ("type t int", "unknown type kind 'int'"),
        ("const LIMIT : int = 3 min=0 max=9 tol=1", "unknown directive 'const'"),
        ("const LIMIT : int = 3", "unknown directive 'const'"),
        ('req r "unequal" every x != 1', "unexpected character '!'"),
        ('req r "at most" every x <= 1', "expected a literal, got '='"),
        ('req r "above" every x > 1', "unexpected character '>'"),
        ('req r "difference" every x - 1 = 0', "unexpected character '-'"),
        ('req r "product" every x * 2 = 0', "unexpected character '*'"),
        ('req r "negative" every x = -1', "unexpected character '-'"),
        ('req r "lamp modes" modeset lamp', "mode-set on 'lamp' must be 'exclusive'"),
        ("mode dial { low high } init=low", "mode component 'dial' must be 'exclusive'"),
        ('req r "at" every x = 1 @ $', "unexpected character '@'"),
        ('req r "dollar" every x = $1', "unexpected character '$'"),
        ('req r "semicolon" trigger b => x := 1; y := 2', "unexpected character ';'"),
        ('req r "ampersand" every b && x = 1', "unexpected character '&'"),
        ('req r "bar" every b | x = 1', "unexpected character '|'"),
        ('req r "index" every x[0] = 1', "unexpected character '['"),
        ("signal café : int init=0", "unexpected character 'é'"),
        ('req r "quoted" every x = "one"', "unexpected character '\"'"),
        ("type t enum { a , b }", "expected a name, got ','"),
        ("mode dial { low 2 } exclusive", "expected a name, got '2'"),
    ], ids=["parameterised-definition", "array-type", "becomes", "mode-ever-active",
            "mode-ever-inactive", "latch-holding-its-start-value", "latch-with-a-value",
            "onchange-monitor", "onchange-constructive", "within-n", "within-0",
            "within-n-atsomepoint", "total-case", "case", "two-branch-case",
            "int-type", "unbounded-int-type", "constant-with-options", "constant",
            "not-equal", "at-most",
            "greater-than", "difference", "product", "negative-literal",
            "modeset-without-exclusive",
            "mode-without-exclusive", "stray-at", "stray-dollar", "stray-semicolon",
            "stray-ampersand", "stray-bar", "stray-bracket", "non-ascii-letter",
            "stray-quote", "punctuation-as-a-member", "number-as-a-mode"])
    def test_removed_constructs_are_parse_errors(self, line, message):
        # every character outside the grammar is reported, none dropped
        with pytest.raises(ParseError) as err:
            parse_model(TEXT_HEAD + f"{line}\n")
        assert (err.value.line, err.value.message) == (6, message)

    @pytest.mark.parametrize("line, message", [
        ("signal z : int init 0", "expected '=', got '0'"),
        ("signal z : int init=" + "9" * 5000, "integer of 5000 digits is too long"),
        ("signal z : int step=1", "unexpected option 'step'"),
        ('req r "t" every mode(dial.on) at start', "unknown mode component 'dial'"),
        ('req r "t" every mode(lamp.on) at noon', "expected 'start' or 'end', got 'noon'"),
        ("req r every x = 1", "expected 'req id \"title\" TEMPLATE ...'"),
    ], ids=["missing-equals", "long-integer", "unknown-option", "unknown-component",
            "bad-frame", "untitled-requirement"])
    def test_a_malformed_line_is_a_parse_error(self, line, message):
        with pytest.raises(ParseError) as err:
            parse_model(TEXT_HEAD + f"{line}\n")
        assert (err.value.line, err.value.message) == (6, message)

    def test_a_stray_character_is_reported_at_its_column(self):
        # not the '@' of the title or the comment
        with pytest.raises(ParseError, match="^line 2, column 26: unexpected "):
            parse_model('signal x : int init=0\n  req r "t@" every x = 1 @ 2 # @\n')

    @staticmethod
    def node(op, left, right):
        """``left op right`` as one node: a two-operand chain or a BinOp."""
        return BoolOp(op, (left, right)) if op in ("and", "or") else BinOp(op, left, right)

    @pytest.mark.parametrize("first, second",
                             [(a, b) for a in (*_PRECEDENCE, *REMOVED_OPERATORS)
                              for b in (*_PRECEDENCE, *REMOVED_OPERATORS)])
    def test_two_operators_parse_to_the_shape_the_table_dictates(self, first, second):
        text = (f"signal x : int init=0\nsignal y : int init=0\nsignal z : int init=0\n"
                f'req r "pair" every x {first} y {second} z\n')
        if first in REMOVED_OPERATORS or second in REMOVED_OPERATORS:
            with pytest.raises(ParseError) as err:
                parse_model(text)
            assert err.value.line == 4
            return
        if _PRECEDENCE[first] == _PRECEDENCE[second] == _COMPARISON_PRECEDENCE:
            with pytest.raises(ParseError, match="comparisons do not chain"):
                parse_model(text)
            return
        x, y, z = SigRead("x"), SigRead("y"), SigRead("z")
        if first == second and first in ("and", "or"):
            expected = BoolOp(first, (x, y, z))
        elif _PRECEDENCE[first] >= _PRECEDENCE[second]:
            expected = self.node(second, self.node(first, x, y), z)
        else:
            expected = self.node(first, x, self.node(second, y, z))
        model = parse_model(text)
        assert model.requirements[0].required == expected
        assert parse_model(serialize_model(model)) == model

    @pytest.mark.parametrize("op", (*_PRECEDENCE, *REMOVED_OPERATORS))
    def test_not_binds_by_the_table(self, op):
        text = ('signal x : int init=0\nsignal y : int init=0\n'
                f'req r "not" every not x {op} y\n')
        if op in REMOVED_OPERATORS:
            with pytest.raises(ParseError) as err:
                parse_model(text)
            assert err.value.line == 3
            return
        model = parse_model(text)
        x, y = SigRead("x"), SigRead("y")
        expected = (Not(self.node(op, x, y)) if _PRECEDENCE[op] > _NOT_PRECEDENCE
                    else self.node(op, Not(x), y))
        assert model.requirements[0].required == expected
        assert parse_model(serialize_model(model)) == model

    def test_a_model_nested_to_the_depth_limit_round_trips(self):
        # 198 nested or chains over one comparison each: 200 nodes deep,
        # written with 197 nested brackets
        nodes = Nodes()
        x = nodes.sig("x")
        expr = nodes.binop("=", x, nodes.lit(198))
        for i in reversed(range(198)):
            expr = nodes.bool_op("or", (nodes.binop("=", x, nodes.lit(i)), expr))
        model = tiny_model(Requirement("r", "deep", Template.EVERY, required=expr),
                           signals=[SignalDef("x", "int", initial=0)])
        text = serialize_model(model)
        assert text.count("(") == 197
        assert parse_model(text) == model

    @pytest.mark.parametrize("body", ["(" * 1000 + "x" + ")" * 1000 + " = 0",
                                      "not " * 1000 + "b"],
                             ids=["brackets", "nots"])
    def test_nesting_past_the_depth_limit_is_a_parse_error(self, body):
        with pytest.raises(ParseError, match=f"^line 6, column 1: brackets and 'not' "
                                             f"nested deeper than {MAX_DEPTH}$"):
            parse_model(TEXT_HEAD + f'req r "deep" every {body}\n')

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

