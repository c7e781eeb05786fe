from __future__ import annotations

import dataclasses

import pytest

from candofsm import load_bundled_cando
from candofsm.fsm import StateDef, StateKind
from candofsm.generate import generate_model
from candofsm.opmodel import ops_round
from candofsm.reqs.engine import env_of, fire_round

# The size of the model generated from the shipped spec, and the work of one
# verify pass on it, as the tests pin them.  A deliberate change to the
# generator records them again here, with its reason in CHANGES.md.
REQUIREMENTS = 140      # requirements in the model
EXPRESSIONS = 465       # what test_compiled.model_expressions lists
NODE_POSITIONS = 5461   # expression nodes under the model's slots, repeats counted
NODE_OBJECTS = 485      # distinct objects among them
MEMO_ENTRIES = 124      # rounds a verify pass computes, and stores in the memo
GUARD_CALLS = 1174      # guard calls in those rounds
LARGEST_CANDIDATES = 20  # candidates of the largest (state, event) plan key
CACHED_DEFINITIONS = 45  # chain definitions, each evaluated once per frame
DEFINITION_READS = 954   # their reads in a verify pass
DEFINITION_RUNS = 368    # their body runs in it, once per frame that reads one
# SHA-256 of step and ops_round from each machine of
# test_opmodel.ops_grid, recorded before a round built its records with
# tuple.__new__; it holds while a round's arithmetic is unchanged
OPS_GRID_SHA256 = "3125d648a8e1a3e7186bee8bc0e183fca41de4fa7f9d842beb0f7de962715263"


@pytest.fixture(scope="session")
def spec():
    return load_bundled_cando()


@pytest.fixture(scope="session")
def generated(spec):
    """(model, report) for the bundled spec; generation is deterministic."""
    return generate_model(spec)


@pytest.fixture(scope="session")
def model(generated):
    return generated[0]


def simulation_square(spec, model, m):
    """One round of each engine from the ops machine ``m``: ``ops_round``
    from ``m`` and ``fire_round`` from ``env_of(model, m)``.  Returns the
    reqs round's end env, the env of the ops machine after its round, and
    both rounds' violations; the square commutes when the two envs are equal."""
    ops = ops_round(spec, m)
    reqs = fire_round(model, env_of(model, m), None)
    return reqs.end_env, env_of(model, ops.next), ops.post_violations + reqs.violations


def mutate_table(spec, event: str, state: str, target: str | None):
    """Copy of the spec with one transition replaced (or removed on None)."""
    fsm = {e: dict(m) for e, m in spec.fsm.items()}
    if target is None:
        del fsm[event][state]
    else:
        fsm[event][state] = target
    return dataclasses.replace(spec, fsm=fsm)


def with_second_error_state(spec):
    """Copy of the spec with a second error state ``error_2``: every event
    takes it to error_, and ERROR takes send_packet_1 to it."""
    roster = spec.roster._replace(
        states=(*spec.roster.states, StateDef("error_2", StateKind.ERROR)))
    fsm = {e: {**m, "error_2": "error_"} for e, m in spec.fsm.items()}
    fsm["ERROR"]["send_packet_1"] = "error_2"
    return dataclasses.replace(spec, roster=roster, fsm=fsm)


def with_kind_named_error_state(spec):
    """Copy of :func:`with_second_error_state` with ``error_2`` named
    ``kind_send``: its from_, to_ and arrive_ definitions take the names of
    the send kind's definitions, so ``check_roster`` rejects the name."""
    spec = with_second_error_state(spec)
    renamed = {"error_2": "kind_send"}
    roster = spec.roster._replace(states=tuple(
        s._replace(name=renamed.get(s.name, s.name)) for s in spec.roster.states))
    fsm = {ev: {renamed.get(frm, frm): renamed.get(to, to) for frm, to in per.items()}
           for ev, per in spec.fsm.items()}
    return dataclasses.replace(spec, roster=roster, fsm=fsm)


def with_no_stage_two_creator(spec):
    """Copy of the spec with every stage-two creator made stage-one and every
    receive state's CONT entry sent to cmd_finish, so no state has the
    kind ``creator_stage2`` that monitors C1.7 and C11 name."""
    roster = spec.roster._replace(states=tuple(
        s._replace(kind=StateKind.CREATOR_STAGE1)
        if s.kind is StateKind.CREATOR_STAGE2 else s
        for s in spec.roster.states))
    cont = {frm: "cmd_finish" if roster.kind_of(frm) is StateKind.RECEIVE else to
            for frm, to in spec.fsm["CONT"].items()}
    return dataclasses.replace(spec, roster=roster, fsm={**spec.fsm, "CONT": cont})
