"""Contracts of the package's records.

The plain records are named tuples: immutable, with no per-instance
``__dict__``.  Among them are the spec's ``Packet``, the ops round's
``ModelState`` and ``StepOutcome``, and the expression nodes, each equal
only to a node of its own type.  ``ModelState``'s hand-written ``__new__``
range-checks its counters; its parameters must follow the fields in order
and default, or ``_replace`` and keyword construction drift from the
declared record.  ``Roster``, ``DataDictionary`` and ``RequirementsModel``
are named tuple subclasses that keep an instance ``__dict__`` for cached
values but take no assignment; ``Roster``'s ``__new__`` rejects a
duplicate name on every rebuild.  A ``SpecDocument`` or a
``RequirementsModel`` pickles from its fields only, leaving its cache.  A
cold ``import candofsm`` creates only the one dataclass that
``test_source_lint`` lists, and loads neither ``json`` nor ``csv``.
"""

from __future__ import annotations

import copy
import inspect
import io
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import candofsm
from candofsm import specio
from candofsm.fsm import CONT, MemberDef, Roster, StateDef, StateKind, Violation
from candofsm.generate import GenReport, generate_model
from candofsm.opmodel import ModelState, StepOutcome, run
from candofsm.reqs.engine import RoundResult, run_requirements_trace
from candofsm.reqs.expr import (
    BinOp,
    BoolOp,
    DefRef,
    EvalContext,
    Lit,
    ModeActive,
    Not,
    SigRead,
)
from candofsm.reqs.model import (
    BoolType,
    DataDictionary,
    Definition,
    EnumType,
    Env,
    ModeAssign,
    ModeComponent,
    Requirement,
    RequirementsModel,
    SignalAssign,
    SignalDef,
    Template,
)
from candofsm.specio import Packet
from candofsm.trace import (
    MAX_ROUNDS,
    ROW_COLUMNS,
    DiffEntry,
    EquivalenceReport,
    RunOutcome,
    Trace,
    TraceRow,
)
from test_source_lint import DATACLASSES

ROW = TraceRow(3, "send_packet_1", "SPI_TX_FINISH", "LED_ON_C", "a", None, "d",
               2, 0, 1, True, False, False)
# one positional value per field, each different from the field's default
ROUND_RECORDS = {
    Packet: ("addr", "cmd", "data"),
    ModelState: ("start", CONT, "LED_ON_C", True, True, True, Packet("a"), 1, 2, 1),
    StepOutcome: (ModelState("start", CONT, "LED_ON_C"), "start_idle",
                  (Violation("POST"),)),
}
NAMED_TUPLES = (
    ROW,
    *(cls(*values) for cls, values in ROUND_RECORDS.items()),
    DiffEntry(1, "state", "x", "y"),
    RunOutcome("cmd_finish", ()),
    GenReport(1, 2, 3),
    Env(signals={}, modes={}),
    RoundResult(Env(signals={}, modes={}), (), (), ()),
    StateDef("start", StateKind.CONTROL),
    MemberDef("CONT"),
    Violation("C1", CONT, "start", "error_", "message"),
    Trace((ROW,), "LED_ON_C", "ops", "cmd_finish"),
    EquivalenceReport({}, 500, {}),
    BoolType("flag_t"),
    EnumType("state_t", ("start",)),
    SignalDef("bytes_sent", "int", 0, 3, 0),
    ModeComponent("fsm", ("start",), "start"),
    Definition("ready", "ready", None),
    SignalAssign("bytes_sent", None),
    ModeAssign("fsm", "start"),
    Requirement("r1", "title", Template.EVERY),
    Lit(0),
    SigRead("bytes_sent"),
    ModeActive("fsm", "start", "end"),
    DefRef("ready"),
    BoolOp("and", (Lit(True),)),
    BinOp("=", SigRead("bytes_sent"), Lit(0)),
    Not(Lit(True)),
    EvalContext({}, {}, {}),
)
ROSTER = Roster((StateDef("start", StateKind.CONTROL),), (MemberDef("CONT"),),
                (MemberDef("LED_ON_C"),))
# named tuple subclasses with an instance __dict__ for cached values
CACHING_RECORDS = (ROSTER, DataDictionary(), RequirementsModel(DataDictionary()))


@pytest.mark.parametrize("cls", list(ROUND_RECORDS), ids=lambda cls: cls.__name__)
def test_a_round_record_new_takes_its_fields_in_order(cls):
    assert vars(cls)["__slots__"] == ()
    params = list(inspect.signature(cls.__new__).parameters.values())[1:]
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         cls._field_defaults.get(name, inspect.Parameter.empty))
        for name in cls._fields]
    # every field is stored, in order, and _replace goes through the same new
    values = ROUND_RECORDS[cls]
    record = cls(*values)
    assert type(record) is cls and tuple(record) == values
    assert [getattr(record, name) for name in cls._fields] == list(values)
    assert cls(**dict(zip(cls._fields, values))) == record
    assert type(record._replace()) is cls and record._replace() == record


@pytest.mark.parametrize("record", NAMED_TUPLES, ids=lambda r: type(r).__name__)
def test_a_named_tuple_record_is_immutable_and_has_no_dict(record):
    assert isinstance(record, tuple)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("record", CACHING_RECORDS, ids=lambda r: type(r).__name__)
def test_a_caching_record_keeps_a_dict_but_takes_no_assignment(record):
    assert isinstance(record, tuple) and "__slots__" not in vars(type(record))
    assert isinstance(vars(record), dict)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        del record.no_such_field
    copied = record._replace()
    assert type(copied) is type(record) and copied == record


def test_a_node_equals_only_a_node_of_its_own_type():
    read, ref = SigRead("x"), DefRef("x")
    assert not read == ref and read != ref
    assert not ref == read and ref != read
    # a plain tuple of the same cells, on either side
    assert not read == ("x",) and read != ("x",)
    assert not ("x",) == read and ("x",) != read
    assert read == SigRead("x") and not read != SigRead("x")
    assert BinOp("=", read, Lit(1)) == BinOp("=", SigRead("x"), Lit(1))
    assert BinOp("=", read, Lit(1)) != BinOp("=", ref, Lit(1))
    # a node hashes as the tuple of its fields; equality still tells them apart
    assert hash(read) == hash(ref) == hash(("x",))
    assert len({read, ref, ("x",)}) == 3
    # as before, literals compare their values: 0 and false are equal
    assert Lit(0) == Lit(False) and hash(Lit(0)) == hash(Lit(False))


def test_a_roster_rebuild_rejects_a_duplicate_name():
    with pytest.raises(ValueError, match=r"duplicate state names: \['start'\]"):
        ROSTER._replace(states=ROSTER.states * 2)
    # a tuple built past __new__, as only a test does, repeats an event
    bad = tuple.__new__(Roster, (ROSTER.states, ROSTER.events * 2, ROSTER.commands))
    rebuilds = [copy.copy, copy.deepcopy, Roster._make] + [
        lambda r, p=p: pickle.loads(pickle.dumps(r, p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for rebuild in rebuilds:
        again = rebuild(ROSTER)
        assert again == ROSTER and type(again) is Roster
        with pytest.raises(ValueError, match=r"duplicate event names: \['CONT'\]"):
            rebuild(bad)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_spec_and_a_model_that_have_run_pickle_without_their_caches(protocol):
    # the spec's operation table and the model's plan hold closures
    spec = specio.load_bundled_cando()
    model, _ = generate_model(spec)
    traces = (run(spec, "LED_ON_C", MAX_ROUNDS),
              run_requirements_trace(model, "LED_ON_C", MAX_ROUNDS))
    spec_copy = pickle.loads(pickle.dumps(spec, protocol))
    model_copy = pickle.loads(pickle.dumps(model, protocol))
    assert "_operations" not in vars(spec_copy) and "_plan" not in vars(model_copy)
    assert (spec_copy, model_copy) == (spec, model)
    assert type(spec_copy) is type(spec) and type(model_copy) is type(model)
    assert (run(spec_copy, "LED_ON_C", MAX_ROUNDS),
            run_requirements_trace(model_copy, "LED_ON_C", MAX_ROUNDS)) == traces


def test_a_default_attribution_is_one_read_only_mapping():
    other = ROW._replace(round=4)
    assert ROW.attribution == {} and ROW.attribution is other.attribution
    with pytest.raises(TypeError):
        ROW.attribution["state"] = ("r1",)
    assert ROW.attribution == {}


def test_every_trace_column_has_a_csv_codec():
    assert ROW_COLUMNS == TraceRow._fields[:-1]
    assert specio.TRACE_COLUMNS == TraceRow._fields
    buffer = io.StringIO()
    # a trace's rounds count from 0
    first = ROW._replace(round=0)
    attributed = ROW._replace(round=1, attribution={"state": ("r1",)})
    specio.write_trace_csv([first, attributed], buffer)
    buffer.seek(0)
    assert specio.read_trace_csv(buffer) == [
        first, attributed._replace(attribution={"*": ("r1",)})]


# Run with no site, so nothing but the package's own imports loads a module.
COLD_IMPORT = """\
import sys
sys.path.insert(0, sys.argv[1])
import candofsm
print("json" in sys.modules, "csv" in sys.modules)
import dataclasses
print(*sorted(cls.__name__ for name, module in list(sys.modules.items())
              if name.partition(".")[0] == "candofsm"
              for cls in vars(module).values()
              if getattr(cls, "__module__", None) == name
              and isinstance(cls, type) and dataclasses.is_dataclass(cls)))
"""


def test_a_cold_import_creates_only_the_listed_dataclasses_and_no_json():
    src = Path(candofsm.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-I", "-S", "-c", COLD_IMPORT, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    loads, names = done.stdout.splitlines()
    assert loads == "False False"
    assert names.split() == sorted(DATACLASSES) == ["SpecDocument"]
