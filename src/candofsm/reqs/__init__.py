"""Round-based declarative requirements engine.

A model is a data dictionary (types, constants, signals, mode components),
a set of named definitions, and template-typed requirements.  Execution is
in rounds: every record has a start-of-round and an end-of-round value, and
requirements either contribute end-of-round effects or monitor the outcome.
"""

from .expr import (
    BinOp,
    BoolOp,
    DefRef,
    EvalError,
    IllegalEndOfRoundRead,
    Lit,
    ModeActive,
    Not,
    SigRead,
    TypeMismatch,
)
from .model import (
    BoolType,
    CaseBranch,
    ConstantDef,
    DataDictionary,
    Definition,
    EnumType,
    Env,
    IntType,
    ModeAssign,
    ModeComponent,
    ModelError,
    Obligation,
    Requirement,
    RequirementsModel,
    SignalAssign,
    SignalDef,
    Template,
    initial_env,
)
from .engine import RoundResult, fire_round, run_requirements_trace

__all__ = [
    "BinOp", "BoolOp", "BoolType", "CaseBranch", "ConstantDef",
    "DataDictionary", "DefRef", "Definition", "EnumType", "Env", "EvalError",
    "IllegalEndOfRoundRead", "IntType", "Lit", "ModeActive", "ModeAssign",
    "ModeComponent", "ModelError", "Not",
    "Obligation", "Requirement", "RequirementsModel", "RoundResult",
    "SigRead", "SignalAssign", "SignalDef", "Template", "TypeMismatch",
    "fire_round", "initial_env", "run_requirements_trace",
]
