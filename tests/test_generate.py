from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter

import pytest

import candofsm.generate
from candofsm.fsm import (
    CONT, MAX_COUNT, PACKET_LENGTH, StateDef, StateKind, lookup_next,
)
from candofsm.generate import (
    HAND_MODEL_DEFINITIONS,
    HAND_MODEL_RECORDS,
    HAND_MODEL_REQUIREMENTS,
    gen_definitions,
    gen_dictionary,
    gen_requirements,
    generate_model,
    render_requirements_html,
    render_requirements_markdown,
)
from candofsm.opmodel import ModelState, _snapshot, ops_round
from candofsm.reqs import Template, fire_round, initial_env
from candofsm.reqs.engine import _env_values, _plan_of, run_requirements_trace
from candofsm.reqs.expr import EvalContext, Lit, eval_expr
from candofsm.reqs.model import Env
from candofsm.reqs.text import parse_model, serialize_model
from conftest import with_no_stage_two_creator, with_second_error_state
from test_reqs import slots, walk


def tables(spec):
    """The preimage and dispatch groups that generation computes once."""
    return (candofsm.generate._preimage(spec),
            candofsm.generate._dispatch_groups(spec))


class TestDictionary:
    def test_state_component_carries_all_34_modes(self, spec):
        dictionary = gen_dictionary(spec)
        [component] = dictionary.modes
        assert component.name == "fsm"
        assert component.exclusive
        assert len(component.modes) == 34
        assert component.initial == "start"

    def test_counter_bounds(self, spec):
        dictionary = gen_dictionary(spec)
        bs = dictionary.signal_named("bytes_sent")
        assert (bs.minimum, bs.maximum) == (0, PACKET_LENGTH)
        tx = dictionary.signal_named("tx_cnt")
        assert (tx.minimum, tx.maximum) == (0, MAX_COUNT)

    def test_event_and_command_enumerations(self, spec):
        dictionary = gen_dictionary(spec)
        assert len(dictionary.type_named("Event").members) == 21
        assert len(dictionary.type_named("Command").members) == 17

    def test_flag_signals_use_the_flag_type(self, spec):
        dictionary = gen_dictionary(spec)
        for name in ("command_finish_flag", "optrode_TX_finish",
                     "optrode_RX_finish"):
            assert dictionary.signal_named(name).type_name == "Flag"

    def test_shadow_and_packet_signals_exist(self, spec):
        dictionary = gen_dictionary(spec)
        for name in ("next_bytes_sent", "next_bytes_received", "next_tx_cnt",
                     "packet_addr", "packet_cmd", "packet_data"):
            assert dictionary.signal_named(name) is not None

    def test_constants_pin_the_protocol_bounds(self, spec):
        dictionary = gen_dictionary(spec)
        values = {c.name: c.value for c in dictionary.constants}
        assert values == {"PACKET_LENGTH": 3, "MAX_COUNT": 2}


class TestDefinitions:
    def test_from_and_to_definitions_per_state(self, spec):
        defs = {d.name: d for d in gen_definitions(spec, *tables(spec))}
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
        defs = {d.name: d for d in gen_definitions(doc, *tables(doc))}
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

    def test_idmap_definitions_exist_for_send_and_receive(self, model):
        defs = model.definition_map()
        assert "idmap_send" in defs and "idmap_receive" in defs

    def test_definition_count_scale(self, spec):
        # 2 per state, plus kind groups, idmaps and arrival conditions
        assert len(gen_definitions(spec, *tables(spec))) > 2 * 34


class TestRequirements:
    def test_transition_requirement_titles_follow_the_export_style(self, generated):
        model, report = generated
        rid = report.id_index[(CONT, "set_vLED", "send_packet_6")]
        [req] = [r for r in model.requirements if r.req_id == rid]
        assert req.title == "set_vLED to send_packet_6"
        assert req.template is Template.TRIGGER_ON_EVENT

    def test_id_scheme_is_event_index_dot_state_index(self, spec, generated):
        _, report = generated
        ei = spec.roster.event_names.index(CONT)
        si = spec.roster.state_names.index("set_vLED")
        assert report.id_index[(CONT, "set_vLED", "send_packet_6")] \
            == f"{ei}.{si:02d}"

    def test_id_index_is_total_and_injective_over_the_table(self, spec, generated):
        _, report = generated
        for ev in spec.roster.event_names:
            for st in spec.roster.state_names:
                to = spec.fsm[ev][st]
                assert (ev, st, to) in report.id_index, (ev, st)
        ids = list(report.id_index.values())
        assert len(ids) == len(set(ids))

    def test_dispatch_requirements_cover_every_target(self, spec, generated):
        _, report = generated
        targets = set(spec.dispatch.values())
        covered = {to for (ev, frm, to) in report.id_index
                   if ev == CONT and frm == "get_cmd"}
        assert covered == targets

    def test_report_counts_match_the_model(self, generated):
        model, report = generated
        assert report.data_records == model.dictionary.record_count
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
        requirements, id_index = gen_requirements(bare, *tables(bare))
        templates = sorted(r.template.value for r in requirements)
        assert templates == ["every", "modeset"]
        assert id_index == {}

    def test_generated_model_validates(self, model):
        model.validate()

    def test_generation_computes_the_preimage_and_groups_once(self, spec, monkeypatch):
        calls = Counter()
        for name in ("_preimage", "_dispatch_groups"):
            def counted(spec, name=name, original=getattr(candofsm.generate, name)):
                calls[name] += 1
                return original(spec)
            monkeypatch.setattr(candofsm.generate, name, counted)
        generate_model(spec)
        assert calls == {"_preimage": 1, "_dispatch_groups": 1}


class TestOracle:
    def test_single_rounds_agree_with_the_table_on_sampled_pairs(self, spec, model):
        pairs = [
            (CONT, "set_vLED"), (CONT, "get_cmd"), (CONT, "receive_packet_27"),
            ("SPI_TX_FINISH", "send_packet_6"), ("GET_CMD_E", "error_"),
            ("EVT_6", "get_cmd"), ("ERROR", "set_sDac"),
        ]
        for ev, st in pairs:
            init = initial_env(model, overrides={
                "current_command": "LED_ON_C", "current_event": ev})
            env = Env(signals=init.signals, modes={"fsm": frozenset({st})})
            result = fire_round(model, env, None)
            assert result.end_env.modes["fsm"] \
                == frozenset({lookup_next(spec.fsm, ev, st)}), (ev, st)

    def test_runs_are_free_of_conflict_and_modeset_violations(self, spec, model):
        from candofsm.reqs.engine import run_requirements_trace

        for cmd in spec.roster.command_names:
            trace = run_requirements_trace(model, cmd, 500)
            assert trace.violations == (), cmd

    @staticmethod
    def assert_one_round_agreement(spec, model):
        """One ops round and one fire_round from every (state, event) pair
        agree on all 13 row columns, and neither engine reports a violation."""
        for st in spec.roster.state_names:
            for ev in spec.roster.event_names:
                ops = ops_round(spec, ModelState(
                    current_state=st, current_event=ev, current_command="LED_ON_C"))
                init = initial_env(model, overrides={
                    "current_command": "LED_ON_C", "current_event": ev})
                reqs = fire_round(model, Env(signals=init.signals,
                                             modes={"fsm": frozenset({st})}), None)
                assert ops.post_violations == reqs.violations == (), (st, ev)
                assert _snapshot(ops.next, 1).values() \
                    == _env_values(reqs.end_env, 1), (st, ev)

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
        defs = model.definition_map()
        for side in ("from", "to"):
            assert defs[f"{side}_kind_creator_stage2"].expr == Lit(False)
        self.assert_one_round_agreement(spec, model)


class TestSharedGraph:
    """generate_model builds each distinct subexpression once, so the model
    is a DAG; the sharing is an optimisation only."""

    def test_the_shipped_model_has_one_object_per_distinct_subexpression(self, model):
        positions = [node for expr in slots(model) for node in walk(expr)]
        assert len(positions) == 9083
        assert len({id(node) for node in positions}) == 1174
        # literals that compare equal keep their types: 0 is not false
        zeros = {(type(n.value), id(n)) for n in positions
                 if isinstance(n, Lit) and n.value == 0}
        assert {t for t, _ in zeros} == {int, bool} and len(zeros) == 2

    def test_two_generations_share_no_expression_object(self, spec, model):
        again, _ = generate_model(spec)
        first = {id(n) for expr in slots(model) for n in walk(expr)}
        assert not first & {id(n) for expr in slots(again) for n in walk(expr)}

    def test_an_unshared_copy_plans_and_runs_the_same(self, spec, model):
        unshared = parse_model(serialize_model(model))
        assert unshared == model
        assert len({id(n) for expr in slots(unshared) for n in walk(expr)}) \
            == len([n for expr in slots(unshared) for n in walk(expr)])
        shared_plan, plain_plan = _plan_of(model), _plan_of(unshared)
        assert plain_plan.key == shared_plan.key
        assert [s.support for s in plain_plan.steps] \
            == [s.support for s in shared_plan.steps]
        assert plain_plan._decided == shared_plan._decided
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

    def test_markdown_is_deterministic(self, model):
        assert render_requirements_markdown(model) \
            == render_requirements_markdown(model)

    def test_html_escapes_and_wraps(self, model):
        text = render_requirements_html(model)
        assert text.startswith("<!DOCTYPE html>")
        assert "set_vLED to send_packet_6" in text

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
    roster = dataclasses.replace(
        spec.roster, states=(*spec.roster.states, StateDef("idle", StateKind.CONTROL)))
    fsm = {e: dict(m) for e, m in spec.fsm.items()}
    fsm["EVT_6"]["start"] = "idle"
    with pytest.raises(AssertionError, match="unhandled kind StateKind.CONTROL for 'idle'"):
        generate_model(dataclasses.replace(spec, roster=roster, fsm=fsm))


def test_the_generated_model_and_its_report_are_pinned(model):
    """SHA-256 of the shipped spec's generated model as ``.req`` text and of
    its markdown report.  A deliberate change to the generator re-records
    both hashes, as ``tests/data/engine_golden.json`` is re-recorded for a
    deliberate change to the engines."""
    def sha256(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    assert sha256(serialize_model(model)) \
        == "a0795f35b9a690a48e1e4e07ed01b8f93173fd7ca2dab468ae0b184acd5f529b"
    assert sha256(render_requirements_markdown(model)) \
        == "4ae5db697310c84f56e093447b26fefd41299a22737469d4e31c97d7ee654da6"
