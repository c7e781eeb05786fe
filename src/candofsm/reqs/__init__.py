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
    ConstantDef,
    DataDictionary,
    Definition,
    EnumType,
    Env,
    ModeAssign,
    ModeComponent,
    ModelError,
    Requirement,
    RequirementsModel,
    SignalAssign,
    SignalDef,
    Template,
    initial_env,
)
from .engine import RoundResult, env_of, fire_round, run_requirements_trace

__all__ = [
    "BinOp", "BoolOp", "BoolType", "ConstantDef",
    "DataDictionary", "DefRef", "Definition", "EnumType", "Env", "EvalError",
    "IllegalEndOfRoundRead", "Lit", "ModeActive", "ModeAssign",
    "ModeComponent", "ModelError", "Not",
    "Requirement", "RequirementsModel", "RoundResult",
    "SigRead", "SignalAssign", "SignalDef", "Template", "TypeMismatch",
    "env_of", "fire_round", "initial_env", "run_requirements_trace",
]
