"""Contracts of the package's records.

The plain records are named tuples: immutable, with no per-instance
``__dict__``.  Among them are the ops round's ``Packet``, ``ModelState``
and ``StepOutcome``.  ``ModelState``'s hand-written ``__new__``
range-checks its counters; its parameters must follow the fields in order
and default, or ``_replace`` and keyword construction drift from the
declared record.  A cold ``import candofsm`` creates only the dataclasses
that ``test_source_lint`` lists, and does not load ``json``.
"""

from __future__ import annotations

import inspect
import io
import subprocess
import sys
from pathlib import Path

import pytest

import candofsm
from candofsm import specio
from candofsm.fsm import CONT, MemberDef, StateDef, StateKind, Violation
from candofsm.generate import GenReport
from candofsm.opmodel import ModelState, Packet, StepOutcome
from candofsm.reqs.engine import RoundResult
from candofsm.reqs.model import (
    BoolType,
    ConstantDef,
    Definition,
    EnumType,
    Env,
    ModeAssign,
    ModeComponent,
    Requirement,
    SignalAssign,
    SignalDef,
    Template,
)
from candofsm.trace import (
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
    RoundResult(Env(signals={}, modes={}), (), ()),
    StateDef("start", StateKind.CONTROL),
    MemberDef("CONT"),
    Violation("C1", CONT, "start", "error_", "message"),
    specio.PacketTemplate("addr", "cmd", "data"),
    Trace((ROW,), "LED_ON_C", "ops", "cmd_finish"),
    EquivalenceReport({}, 500, {}),
    BoolType("flag_t"),
    EnumType("state_t", ("start",)),
    ConstantDef("limit", "int", 3),
    SignalDef("bytes_sent", "int", 0, 3, 0),
    ModeComponent("fsm", ("start",), "start"),
    Definition("ready", "ready", None),
    SignalAssign("bytes_sent", None),
    ModeAssign("fsm", "start"),
    Requirement("r1", "title", Template.EVERY),
)


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
    attributed = ROW._replace(attribution={"state": ("r1",)})
    specio.write_trace_csv([ROW, attributed], buffer)
    buffer.seek(0)
    assert specio.read_trace_csv(buffer) == [
        ROW, attributed._replace(attribution={"*": ("r1",)})]


# Run with no site, so nothing but the package's own imports loads a module.
COLD_IMPORT = """\
import sys
sys.path.insert(0, sys.argv[1])
import candofsm
print("json" in sys.modules)
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
    loads_json, names = done.stdout.splitlines()
    assert loads_json == "False"
    assert names.split() == sorted(DATACLASSES) and len(DATACLASSES) == 12
