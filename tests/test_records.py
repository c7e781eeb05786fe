"""Contracts of the per-round and report records.

``Packet``, ``ModelState`` and ``StepOutcome`` are frozen slotted
dataclasses with a hand-written ``__init__``; its parameters must follow the
fields, or ``dataclasses.replace`` and keyword construction drift from the
declared record.  The other records are named tuples: immutable, with no
per-instance ``__dict__``.
"""

from __future__ import annotations

import dataclasses
import inspect
import io

import pytest

from candofsm import specio
from candofsm.fsm import CONT, Violation
from candofsm.generate import GenReport
from candofsm.opmodel import ModelState, Packet, StepOutcome
from candofsm.reqs.engine import RoundResult
from candofsm.reqs.model import Env
from candofsm.trace import ROW_COLUMNS, DiffEntry, RunOutcome, TraceRow

ROW = TraceRow(3, "send_packet_1", "SPI_TX_FINISH", "LED_ON_C", "a", None, "d",
               2, 0, 1, True, False, False)
# one positional value per field, each different from the field's default
SLOTTED = {
    Packet: ("addr", "cmd", "data"),
    ModelState: ("start", CONT, "LED_ON_C", True, True, True, Packet("a"), 1, 2, 1),
    StepOutcome: (ModelState("start", CONT, "LED_ON_C"), "start_idle",
                  (Violation("POST"),)),
}
NAMED_TUPLES = (
    ROW,
    DiffEntry(1, "state", "x", "y"),
    RunOutcome("cmd_finish", ()),
    GenReport(1, 2, 3),
    Env(signals={}, modes={}),
    RoundResult(Env(signals={}, modes={}), (), ()),
)


@pytest.mark.parametrize("cls", list(SLOTTED), ids=lambda cls: cls.__name__)
def test_a_slotted_record_init_takes_its_fields_in_order(cls):
    assert cls.__dataclass_params__.frozen and "__slots__" in vars(cls)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)]
    # every field is stored, in order, and replace goes through the same init
    values = SLOTTED[cls]
    record = cls(*values)
    assert [getattr(record, f.name) for f in dataclasses.fields(cls)] == list(values)
    assert cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), values)}) == record
    assert dataclasses.replace(record) == record


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
