"""Twin-representation verification toolkit for the CANDO optrode control FSM.

The same machine exists twice here: as an executable operational model
(:mod:`candofsm.opmodel`) and as a generated round-based requirements model
(:mod:`candofsm.generate` feeding :mod:`candofsm.reqs`).  The structural
checkers (:mod:`candofsm.fsm`) validate the shared transition table, and the
trace tools (:mod:`candofsm.trace`) prove the two representations agree for
every initial command.
"""

from .fsm import (
    MAX_COUNT,
    PACKET_LENGTH,
    MemberDef,
    Roster,
    StateDef,
    StateKind,
    Violation,
    check_cando,
    check_dispatch,
    check_finish,
    check_roster,
    check_statemap,
    check_totality,
    lookup_next,
)
from .specio import (
    Packet,
    ParseError,
    SpecDocument,
    bundled_spec_path,
    load_bundled_cando,
    load_spec,
    parse_spec,
    serialize_spec,
)
from .opmodel import ModelState, StepOutcome, init_model, ops_round, run, step
from .generate import GenReport, generate_model
from .trace import (
    DiffEntry,
    EquivalenceReport,
    RunOutcome,
    Trace,
    TraceRow,
    diff,
    equivalence_report,
)
from .reqs import env_of

__version__ = "0.1.0"

__all__ = [
    "GenReport", "DiffEntry", "EquivalenceReport", "MAX_COUNT", "MemberDef",
    "ModelState", "PACKET_LENGTH", "Packet", "ParseError",
    "Roster", "RunOutcome", "SpecDocument", "StateDef", "StateKind",
    "StepOutcome", "Trace", "TraceRow", "Violation", "bundled_spec_path",
    "check_cando", "check_dispatch", "check_finish", "check_roster",
    "check_statemap", "check_totality", "diff", "env_of", "equivalence_report",
    "generate_model", "init_model", "load_bundled_cando", "load_spec", "lookup_next",
    "ops_round", "parse_spec", "run", "serialize_spec", "step",
]
