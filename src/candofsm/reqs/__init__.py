"""Round-based declarative requirements engine.

A model is a data dictionary (types, signals, mode components), a set of
named definitions, and template-typed requirements.  The language keeps only
what the translation emits: four templates, enum and bool types, bounded
int signals, and the binary operators ``=``, ``<``, ``>=`` and ``+`` over
natural-number, boolean, nil and enum literals.  Execution is
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
    "BinOp", "BoolOp", "BoolType", "DataDictionary", "DefRef", "Definition",
    "EnumType", "Env", "EvalError",
    "IllegalEndOfRoundRead", "Lit", "ModeActive", "ModeAssign",
    "ModeComponent", "ModelError", "Not",
    "Requirement", "RequirementsModel", "RoundResult",
    "SigRead", "SignalAssign", "SignalDef", "Template", "TypeMismatch",
    "env_of", "fire_round", "initial_env", "run_requirements_trace",
]
