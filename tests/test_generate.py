from __future__ import annotations

import dataclasses
import hashlib

import pytest

import candofsm.generate
from candofsm.fsm import (
    CONT, MAX_COUNT, PACKET_LENGTH, StateDef, StateKind,
)
from candofsm.generate import (
    HAND_MODEL_DEFINITIONS,
    HAND_MODEL_RECORDS,
    HAND_MODEL_REQUIREMENTS,
    generate_model,
    render_requirements_markdown,
)
from candofsm.opmodel import ModelState, ops_round
from candofsm.reqs import Template
from candofsm.reqs.engine import _plan_of, run_requirements_trace
from candofsm.reqs.expr import (
    BinOp, BoolOp, DefRef, EvalContext, Lit, ModeActive, SigRead, eval_expr,
)
from candofsm.reqs.model import (
    DataDictionary, ModeAssign, ModeComponent, ModelError, Requirement, RequirementsModel,
    SignalAssign,
)
from candofsm.reqs.text import parse_model, serialize_model
from conftest import (
    NODE_OBJECTS,
    NODE_POSITIONS,
    REQUIREMENTS,
    simulation_square,
    with_kind_named_error_state,
    with_no_stage_two_creator,
    with_second_error_state,
)
from test_reqs import slots, walk


def arrow_triggers(model) -> list:
    """The triggers that move the fsm: one per arrow of the state diagram."""
    return [r for r in model.requirements
            if any(isinstance(a, ModeAssign) for a in r.effects)]


def disjuncts(expr) -> tuple:
    return expr.operands if isinstance(expr, BoolOp) and expr.op == "or" else (expr,)


def entered(frm: str, event: str) -> BoolOp:
    """The guard term of the table entry (event, frm)."""
    return BoolOp("and", (DefRef(f"from_{frm}"),
                          BinOp("=", SigRead("current_event"), Lit(event))))


class TestDictionary:
    def test_state_component_carries_all_34_modes(self, model):
        dictionary = model.dictionary
        [component] = dictionary.modes
        assert component.name == "fsm"
        assert len(component.modes) == 34
        assert component.initial == "start"
        text = serialize_model(RequirementsModel(dictionary))
        assert f"mode fsm {{ {' '.join(component.modes)} }} exclusive init=start\n" in text

    def test_counter_bounds(self, model):
        dictionary = model.dictionary
        signals = {s.name: s for s in dictionary.signals}
        bs = signals["bytes_sent"]
        assert (bs.minimum, bs.maximum) == (0, PACKET_LENGTH)
        tx = signals["tx_cnt"]
        assert (tx.minimum, tx.maximum) == (0, MAX_COUNT)

    def test_event_and_command_enumerations(self, model):
        dictionary = model.dictionary
        assert len(dictionary.type_named("Event").members) == 21
        assert len(dictionary.type_named("Command").members) == 17

    def test_flag_signals_use_the_flag_type(self, model):
        types = {s.name: s.type_name for s in model.dictionary.signals}
        for name in ("command_finish_flag", "optrode_TX_finish",
                     "optrode_RX_finish"):
            assert types[name] == "Flag"

    def test_shadow_and_packet_signals_exist(self, model):
        names = {s.name for s in model.dictionary.signals}
        for name in ("next_bytes_sent", "next_bytes_received", "next_tx_cnt",
                     "packet_addr", "packet_cmd", "packet_data"):
            assert name in names


class TestDefinitions:
    def test_from_and_to_definitions_per_state(self, spec, model):
        defs = model.definition_map()
        for st in spec.roster.state_names:
            assert defs[f"from_{st}"].text == (
                f"The fsm is in state {st} at the start of the round")
            assert defs[f"to_{st}"].text == (
                f"The fsm is in state {st} at the end of the round")

    def test_single_state_roster_references_exactly_that_mode(self, spec):
        import candofsm.fsm as fsm_mod
        from candofsm.specio import SpecDocument

        roster = fsm_mod.Roster(
            states=(fsm_mod.StateDef("start", StateKind.CONTROL),),
            events=(fsm_mod.MemberDef("CONT"),),
            commands=(fsm_mod.MemberDef("DUMMY_C"),))
        doc = SpecDocument(roster=roster, fsm={})
        defs = generate_model(doc)[0].definition_map()
        expr = defs["from_start"].expr
        assert expr.component == "fsm" and expr.mode == "start"

    def test_send_group_is_the_or_of_its_members(self, spec, model):
        defs = model.definition_map()
        sends = spec.roster.states_of_kind(StateKind.SEND)
        for active in (sends[0], sends[-1]):
            ctx = EvalContext(
                start_signals={}, start_modes={"fsm": frozenset({active})},
                definitions=defs)
            assert eval_expr(defs["from_kind_send"].expr, ctx) is True
        ctx = EvalContext(
            start_signals={}, start_modes={"fsm": frozenset({"start"})},
            definitions=defs)
        assert eval_expr(defs["from_kind_send"].expr, ctx) is False

    def test_definition_count_scale(self, model):
        # 2 per state, plus kind groups and arrival conditions
        assert len(model.definitions) > 2 * 34

    def test_every_definition_is_referenced(self, model):
        read = {node.name for expr in slots(model) for node in walk(expr)
                if isinstance(node, DefRef)}
        assert [d.name for d in model.definitions if d.name not in read] == []


class TestRequirements:
    def test_transition_requirement_titles_follow_the_export_style(self, generated):
        model, _ = generated
        [req] = [r for r in arrow_triggers(model) if r.title == "set_vLED to send_packet_6"]
        assert req.template is Template.TRIGGER_ON_EVENT
        assert req.effects == (ModeAssign("fsm", "send_packet_6"),)

    def test_arrow_ids_are_from_and_to_indices_in_roster_order(self, spec, model):
        index = {s: i for i, s in enumerate(spec.roster.state_names)}
        arrows = [(index[frm], index[r.effects[0].mode])
                  for r in arrow_triggers(model) for frm in [r.title.split(" to ")[0]]]
        assert arrows == sorted(arrows)
        assert [r.req_id for r in arrow_triggers(model)] \
            == [f"{frm:02d}.{to:02d}" for frm, to in arrows]

    def test_the_shipped_spec_has_91_arrows_with_unique_titles(self, model):
        titles = [r.title for r in arrow_triggers(model)]
        assert len(titles) == len(set(titles)) == 91
        assert len(model.requirements) == REQUIREMENTS

    def test_send_receive_and_creator_end_event_requirements_are_built_once_per_kind(
            self, spec, model):
        # 91 arrows, 21 per-state and 15 per-kind operation requirements, 12
        # class monitors and the mode-set
        ids = [r.req_id for r in model.requirements]
        per_kind = [i for i in ids if i.split(".")[1].startswith("kind_")]
        assert per_kind == [
            *(f"op.kind_send.{s}" for s in ("count_next", "count", "done", "tx_next", "tx")),
            *(f"op.kind_receive.{s}" for s in ("count_next", "count", "done")),
            "post.kind_send.progress", "post.kind_send.complete", "post.kind_send.saturated",
            "post.kind_receive.progress", "post.kind_receive.complete",
            "post.kind_creator_stage1.event", "post.kind_creator_stage2.event"]
        roster = spec.roster
        shared = roster.states_of_kind(StateKind.SEND, StateKind.RECEIVE)
        creators = roster.states_of_kind(StateKind.CREATOR_STAGE1, StateKind.CREATOR_STAGE2)
        assert not [i for i in ids if i.split(".")[1] in shared
                    or i.startswith("post.") and i.split(".")[1] in creators]
        assert len(ids) == 91 + 21 + len(per_kind) + 12 + 1
        defs = model.definition_map()
        for kind in (StateKind.SEND, StateKind.RECEIVE, StateKind.CREATOR_STAGE1,
                     StateKind.CREATOR_STAGE2):
            assert defs[f"arrive_kind_{kind.value}"].expr == BoolOp("or", tuple(
                DefRef(f"arrive_{st}") for st in roster.states_of_kind(kind)))

    @pytest.mark.parametrize("variant", [None, with_no_stage_two_creator],
                             ids=["shipped", "no-stage-two-creator"])
    def test_every_start_holds_exactly_one_arrow_guard_which_leads_to_its_target(
            self, spec, variant):
        # every (state, event) start, get_cmd under CONT once per command
        spec = spec if variant is None else variant(spec)
        model, _ = generate_model(spec)
        arrows = arrow_triggers(model)
        defs = model.definition_map()
        commands = spec.roster.command_names
        starts = 0
        for frm in spec.roster.state_names:
            for ev in spec.roster.event_names:
                dispatched = (frm, ev) == ("get_cmd", CONT)
                for cmd in commands if dispatched else commands[:1]:
                    ctx = EvalContext(
                        start_signals={"current_event": ev, "current_command": cmd},
                        start_modes={"fsm": frozenset({frm})}, definitions=defs)
                    held = [eval_expr(r.guard, ctx) for r in arrows]
                    assert set(map(type, held)) == {bool}
                    [holder] = [r for r, h in zip(arrows, held) if h]
                    to = spec.dispatch[cmd] if dispatched else spec.fsm[ev][frm]
                    assert holder.effects == (ModeAssign("fsm", to),), (frm, ev, cmd)
                starts += 1
        assert starts == 714

    def test_no_arrow_guard_names_its_source_state_twice(self, model):
        # one disjunct for the table entries and, into a dispatch target,
        # one for the get_cmd hand-off, which reads the command
        for r in arrow_triggers(model):
            frm = r.title.split(" to ")[0]
            parts = disjuncts(r.guard)
            hand_offs = [d for d in parts if SigRead("current_command") in list(walk(d))]
            assert len(hand_offs) <= 1 and len(parts) - len(hand_offs) <= 1, r.title
            for part in parts:
                assert [n.name for n in walk(part) if isinstance(n, DefRef)] \
                    == [f"from_{frm}"], r.title

    def test_each_dispatch_target_has_one_hand_off_trigger(self, spec, model):
        targets = set(spec.dispatch.values())
        assert targets
        for target in targets:
            [trigger] = [r for r in arrow_triggers(model)
                         if r.title == f"get_cmd to {target}"]
            cmds = [BinOp("=", SigRead("current_command"), Lit(c))
                    for c in spec.roster.command_names if spec.dispatch.get(c) == target]
            hand_off = BoolOp("and", (*entered("get_cmd", CONT).operands,
                                      cmds[0] if len(cmds) == 1 else BoolOp("or", tuple(cmds))))
            assert hand_off in disjuncts(trigger.guard), target
        # the table entry (CONT, get_cmd) is read through the dispatch only
        assert not any(entered("get_cmd", CONT) in disjuncts(r.guard)
                       for r in arrow_triggers(model))

    def test_report_counts_match_the_model(self, generated):
        model, report = generated
        dictionary = model.dictionary
        assert report.data_records == len(dictionary.types) + len(dictionary.signals) \
            + len(dictionary.modes) == 20
        assert report.definitions == len(model.definitions)
        assert report.requirements == len(model.requirements)
        assert report.requirements >= HAND_MODEL_REQUIREMENTS

    def test_summary_prints_both_scales(self, generated):
        _, report = generated
        text = report.summary()
        assert str(report.requirements) in text
        assert str(HAND_MODEL_RECORDS) in text
        assert str(HAND_MODEL_DEFINITIONS) in text
        assert str(HAND_MODEL_REQUIREMENTS) in text

    def test_empty_transition_spec_generates_only_modeset_and_every(self, spec):
        bare = dataclasses.replace(spec, fsm={}, dispatch={}, packets={})
        requirements = generate_model(bare)[0].requirements
        templates = sorted(r.template.value for r in requirements)
        assert templates == ["every", "modeset"]

    def test_generated_model_validates(self, model):
        model.validate()

    def test_generation_reads_the_table_once(self, spec, monkeypatch):
        calls = []
        original = candofsm.generate._arrows

        def counted(spec, nodes):
            calls.append(spec)
            return original(spec, nodes)
        monkeypatch.setattr(candofsm.generate, "_arrows", counted)
        generate_model(spec)
        assert calls == [spec]

    def test_generation_reads_the_rule_catalogue_once(self, spec, monkeypatch):
        calls = []
        original = candofsm.generate._class_monitors

        def counted(spec, nodes):
            calls.append(spec)
            return original(spec, nodes)
        monkeypatch.setattr(candofsm.generate, "_class_monitors", counted)
        generate_model(spec)
        assert calls == [spec]


class TestOracle:
    def test_runs_are_free_of_conflict_and_modeset_violations(self, spec, model):
        from candofsm.reqs.engine import run_requirements_trace

        for cmd in spec.roster.command_names:
            trace = run_requirements_trace(model, cmd, 500)
            assert trace.violations == (), cmd

    @staticmethod
    def assert_one_round_agreement(spec, model):
        """The simulation square commutes from every (state, event) pair, and
        neither engine's round reports a violation."""
        for st in spec.roster.state_names:
            for ev in spec.roster.event_names:
                reqs_end, ops_end, found = simulation_square(
                    spec, model, ModelState(st, ev, "LED_ON_C"))
                assert found == (), (st, ev)
                assert reqs_end == ops_end, (st, ev)

    def test_a_second_error_state_idles_like_error_(self, spec):
        spec = with_second_error_state(spec)
        model, _ = generate_model(spec)
        titles = {r.req_id: r.title for r in model.requirements}
        assert titles["op.error_2.event"] == "error_2 idles"
        assert titles["op.error_.event"] == "error_ idles"
        assert "post.error_2.event" in titles
        self.assert_one_round_agreement(spec, model)
        entered = ops_round(spec, ModelState(
            current_state="send_packet_1", current_event="ERROR",
            current_command="LED_ON_C"))
        assert (entered.next.current_state, entered.next.current_event,
                entered.fired_op) == ("error_2", CONT, "error_idle")

    def test_an_empty_kind_that_a_monitor_names_is_false(self, spec):
        # C1.7 and C11 name to_kind_creator_stage2; with no such state it is
        # emitted as false, and the engines still agree from every pair
        spec = with_no_stage_two_creator(spec)
        assert not spec.roster.states_of_kind(StateKind.CREATOR_STAGE2)
        model, _ = generate_model(spec)
        assert model.definition_map()["to_kind_creator_stage2"].expr == Lit(False)
        self.assert_one_round_agreement(spec, model)


def rebuilt(value):
    """A copy of a model, or of any part of one, in which every tuple, named
    or not, is a new object of its own type: no expression node is shared."""
    if not isinstance(value, tuple):
        return value
    parts = map(rebuilt, value)
    return type(value)._make(parts) if hasattr(value, "_fields") else tuple(parts)


class TestSharedGraph:
    """generate_model and parse_model build each distinct subexpression
    once, so the model is a DAG; the sharing is an optimisation only."""

    def test_the_shipped_model_has_one_object_per_distinct_subexpression(self, model):
        positions = [node for expr in slots(model) for node in walk(expr)]
        assert len(positions) == NODE_POSITIONS
        assert len({id(node) for node in positions}) == NODE_OBJECTS
        # literals that compare equal keep their types: 0 is not false
        zeros = {(type(n.value), id(n)) for n in positions
                 if isinstance(n, Lit) and n.value == 0}
        assert {t for t, _ in zeros} == {int, bool} and len(zeros) == 2

    def test_two_generations_share_no_expression_object(self, spec, model):
        again, _ = generate_model(spec)
        first = {id(n) for expr in slots(model) for n in walk(expr)}
        assert not first & {id(n) for expr in slots(again) for n in walk(expr)}

    def test_the_parsed_copy_is_as_shared_as_the_generated_model(self, model):
        parsed = parse_model(serialize_model(model))
        assert parsed == model
        positions = [node for expr in slots(parsed) for node in walk(expr)]
        assert len(positions) == NODE_POSITIONS
        assert len({id(node) for node in positions}) == NODE_OBJECTS

    def test_two_parses_share_no_expression_object(self, model):
        text = serialize_model(model)
        first, second = parse_model(text), parse_model(text)
        assert not {id(n) for expr in slots(first) for n in walk(expr)} \
            & {id(n) for expr in slots(second) for n in walk(expr)}

    def test_an_unshared_copy_plans_and_runs_the_same(self, spec, model):
        unshared = rebuilt(model)
        assert unshared == model
        # equal as tuples is not enough: each record keeps its own type
        assert {type(r) for r in unshared.requirements} == {Requirement}
        assert len({id(n) for expr in slots(unshared) for n in walk(expr)}) \
            == len([n for expr in slots(unshared) for n in walk(expr)])
        shared_plan, plain_plan = _plan_of(model), _plan_of(unshared)
        assert plain_plan.key == shared_plan.key
        assert [s.support for s in plain_plan.steps] \
            == [s.support for s in shared_plan.steps]
        assert [s.reads for s in plain_plan.steps] == [s.reads for s in shared_plan.steps]
        for cmd in spec.roster.command_names:
            a = run_requirements_trace(model, cmd, 500)
            b = run_requirements_trace(unshared, cmd, 500)
            assert [r.values() for r in a.rows] == [r.values() for r in b.rows], cmd
            assert [r.attribution for r in a.rows] == [r.attribution for r in b.rows]
            assert (a.reason, a.violations) == (b.reason, b.violations), cmd


class TestRendering:
    def test_markdown_contains_the_vled_block(self, model):
        text = render_requirements_markdown(model)
        assert "set_vLED to send_packet_6" in text
        block_at = text.index("set_vLED to send_packet_6")
        block = text[block_at:block_at + 400]
        assert "The fsm is in state set_vLED at the start of the round" in block
        assert "The current event is CONT" in block
        assert "occurs, then" in block
        assert "The fsm is in state send_packet_6 at the end of the round" in block
        assert "holds." in block

    def test_markdown_joins_the_operands_of_a_disjunction_with_or(self, model):
        text = render_requirements_markdown(model)
        block = text[text.index("mon.C1.2:"):text.index("mon.C1.3:")]
        assert ("  The fsm is in state get_cmd at the end of the round or The fsm "
                "is in state error_ at the end of the round\n") in block

    def test_an_arrow_of_many_entries_names_its_state_once_and_its_events_as_one_of(
            self, model):
        events = ["ERROR", "SPI_TX_FINISH", "SPI_RX_FINISH", "GET_CMD_E",
                  *(f"EVT_{i}" for i in range(6, 22))]
        block = "\n".join([
            "### cando/00.03: start to error_", "", "If",
            "  The fsm is in state start at the start of the round",
            f"  and The current event is one of {', '.join(events)}",
            "occurs, then", "  The fsm is in state error_ at the end of the round",
            "holds.", "", ""])
        text = render_requirements_markdown(model)
        assert block in text
        # a command group in a hand-off reads as one phrase, unbracketed
        block = text[text.index("cando/01.05:"):text.index("cando/01.06:")]
        assert ("  or The fsm is in state get_cmd at the start of the round and The current "
                "event is CONT and The current command is one of LED_ON_C, SET_DAC_C\n") \
            in block

    def test_a_chain_in_a_chain_of_the_other_operator_is_bracketed(self, model):
        # no shipped guard mixes the operators below its top level; an or
        # over two signals is a chain, not a one-of phrase
        either = BoolOp("or", (BinOp("=", SigRead("current_event"), Lit(CONT)),
                               BinOp("=", SigRead("current_command"), Lit("LED_ON_C"))))
        guard = BoolOp("or", (DefRef("from_start"),
                              BoolOp("and", (DefRef("from_get_cmd"), either))))
        monitor = Requirement(req_id="mon.X", title="x", template=Template.WHEN,
                              guard=guard, required=DefRef("to_error_"))
        text = render_requirements_markdown(
            model._replace(requirements=(monitor,)))
        assert ("  or The fsm is in state get_cmd at the start of the round and (The current "
                "event is CONT or The current command is LED_ON_C)\n") in text

    def test_a_when_guard_that_is_an_or_reads_one_disjunct_a_line(self, model):
        guard = BoolOp("or", (DefRef("from_start"), entered("get_cmd", CONT)))
        monitor = Requirement(req_id="mon.X", title="x", template=Template.WHEN,
                              guard=guard, required=DefRef("to_error_"))
        text = render_requirements_markdown(
            model._replace(requirements=(monitor,)))
        assert ("Whenever\n"
                "  The fsm is in state start at the start of the round\n"
                "  or The fsm is in state get_cmd at the start of the round and "
                "The current event is CONT\n"
                "holds, then\n") in text

    def test_a_small_library_built_model_reads_without_definitions(self):
        # a guard that names a mode itself, a mode write with no to_
        # definition, and a definition that the model never defines
        lamp = ModeComponent("lamp", ("off", "on"), initial="off")
        model = RequirementsModel(
            dictionary=DataDictionary(modes=(lamp,)),
            requirements=(
                Requirement("on", "switch on", Template.TRIGGER_ON_EVENT,
                            guard=ModeActive("lamp", "off", "start"),
                            effects=(ModeAssign("lamp", "on"),)),
                Requirement("lit", "stays lit", Template.EVERY,
                            required=DefRef("lamp_lit"))))
        assert render_requirements_markdown(model) == "\n".join([
            "# Requirements model: cando", "",
            "### cando/on: switch on", "", "If",
            "  The lamp is in state off at the start of the round",
            "occurs, then",
            "  The lamp is in state on at the end of the round",
            "holds.", "",
            "### cando/lit: stays lit", "", "At all times,",
            "  lamp_lit",
            "holds.", "", ""])

    def test_a_node_the_prose_does_not_know_is_refused(self):
        model = RequirementsModel(
            dictionary=DataDictionary(),
            requirements=(Requirement("x", "sets x", Template.EVERY,
                                      required=SignalAssign("x", Lit(1))),))
        with pytest.raises(ValueError, match=r"cannot render SignalAssign\(name='x'"):
            render_requirements_markdown(model)

    def test_markdown_is_deterministic(self, model):
        assert render_requirements_markdown(model) \
            == render_requirements_markdown(model)

    def test_requirements_regenerate_identically(self, spec, generated):
        model, _ = generated
        again, _ = generate_model(spec)
        assert again.requirements == model.requirements
        assert again.definitions == model.definitions
        assert again.dictionary == model.dictionary


def test_generation_requires_packet_templates(spec):
    from candofsm.fsm import MissingPacketTemplate

    stripped = dataclasses.replace(
        spec, packets={k: v for k, v in spec.packets.items() if k != "set_vLED"})
    with pytest.raises(MissingPacketTemplate):
        generate_model(stripped)


def test_a_state_kind_without_an_operation_is_an_explicit_error(spec):
    # a control state other than start, get_cmd and cmd_finish has no
    # operation; it must not be read as a packet creator
    roster = spec.roster._replace(
        states=(*spec.roster.states, StateDef("idle", StateKind.CONTROL)))
    fsm = {e: dict(m) for e, m in spec.fsm.items()}
    fsm["EVT_6"]["start"] = "idle"
    with pytest.raises(AssertionError, match="unhandled kind StateKind.CONTROL for 'idle'"):
        generate_model(dataclasses.replace(spec, roster=roster, fsm=fsm))


def test_a_state_named_like_a_kind_is_a_model_error(spec):
    # check_roster rejects the name; unchecked, the generator builds two
    # definitions of each name the state's and the send kind's share
    with pytest.raises(ModelError, match=(
            r"^duplicate definition names: \['arrive_kind_send', 'from_kind_send', "
            r"'to_kind_send'\]$")):
        generate_model(with_kind_named_error_state(spec))


def test_the_kind_level_names_come_from_one_prefix(spec, monkeypatch):
    monkeypatch.setattr(candofsm.generate, "KIND_NAME_PREFIX", "group_")
    model, _ = generate_model(spec)
    names = [d.name for d in model.definitions] + [r.req_id for r in model.requirements]
    assert not [n for n in names if "kind_" in n]
    assert {"arrive_group_send", "from_group_send", "to_group_receive"} <= set(names)
    assert "op.group_send.tx" in names


def test_the_generated_model_and_its_report_are_pinned(model):
    """SHA-256 of the shipped spec's generated model as ``.req`` text and of
    its markdown report.  A deliberate change to the generator re-records
    both hashes, as ``tests/data/engine_golden.json`` is re-recorded for a
    deliberate change to the engines."""
    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # both last re-recorded when the send and receive operations and each
    # creator kind's end event came to be generated once per kind, under
    # ``arrive_kind_<part>``, instead of once per state: 242 requirements
    # became 140 and 109 definitions 113; every trace cell but the
    # attribution stayed the same
    assert sha256(serialize_model(model)) \
        == "1aeba2d2816866da51440daab64db293f112b0e2e925f99eb32cbfecbd8c279f"
    assert sha256(render_requirements_markdown(model)) \
        == "9c8c0637b3e29144bb1f3700592f6cd76a6e140a70d294f11a39b04ab8a52960"
