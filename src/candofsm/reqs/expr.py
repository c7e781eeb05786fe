"""Expression AST and evaluator for definitions and requirements.

Expressions are evaluated against round snapshots.  Plain signal reads use
the ambient snapshot (start of round in guards and effect values, end of
round in required conditions).  Mode reads name their time point
explicitly.

The nodes are literals, signal reads, mode reads (``at`` start or end of
round), references to parameterless definitions, ``not``, one n-ary
:class:`BoolOp` per ``and``/``or`` chain, and :class:`BinOp` for
comparisons and arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


class EvalError(Exception):
    """Base class for expression evaluation failures."""


class TypeMismatch(EvalError):
    pass


class IllegalEndOfRoundRead(EvalError):
    """An end-of-round mode read outside a required condition."""


@dataclass(frozen=True)
class Lit:
    value: object  # int, bool, symbol string, or None for nil


@dataclass(frozen=True)
class SigRead:
    name: str


@dataclass(frozen=True)
class ModeActive:
    component: str
    mode: str
    at: str  # "start" or "end"


@dataclass(frozen=True)
class DefRef:
    name: str


@dataclass(frozen=True)
class BoolOp:
    op: str  # and or
    operands: tuple


@dataclass(frozen=True)
class BinOp:
    op: str  # = != < <= > >= + - *
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    operand: object


COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
ARITHMETIC = {"+", "-", "*"}


@dataclass(frozen=True)
class EvalContext:
    """Snapshots and lookups needed to evaluate one expression."""

    start_signals: Mapping[str, object]
    start_modes: Mapping[str, frozenset[str]]
    definitions: Mapping[str, object]
    end_signals: Mapping[str, object] | None = None
    end_modes: Mapping[str, frozenset[str]] | None = None
    ambient: str = "start"


def _as_bool(value: object, where: str) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeMismatch(f"{where} expects a boolean, got {value!r}")


def _as_int(value: object, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeMismatch(f"{where} expects an integer, got {value!r}")


def _active(modes: Mapping[str, frozenset[str]], component: str, mode: str) -> bool:
    return mode in modes.get(component, frozenset())


def eval_expr(expr, ctx: EvalContext):
    """Evaluate an expression; raises :class:`EvalError` subclasses."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, SigRead):
        snapshot = ctx.end_signals if ctx.ambient == "end" else ctx.start_signals
        if snapshot is None or expr.name not in snapshot:
            raise EvalError(f"unknown record {expr.name!r}")
        return snapshot[expr.name]
    if isinstance(expr, ModeActive):
        if expr.at == "start":
            return _active(ctx.start_modes, expr.component, expr.mode)
        if ctx.end_modes is None:
            raise IllegalEndOfRoundRead(
                f"mode {expr.component}.{expr.mode} read at end of round outside a "
                "required condition")
        return _active(ctx.end_modes, expr.component, expr.mode)
    if isinstance(expr, DefRef):
        definition = ctx.definitions.get(expr.name)
        if definition is None:
            raise EvalError(f"unknown definition {expr.name!r}")
        return eval_expr(definition.expr, ctx)
    if isinstance(expr, Not):
        return not _as_bool(eval_expr(expr.operand, ctx), "not")
    if isinstance(expr, BoolOp):
        # left to right; the first operand equal to the op's absorbing
        # value (False for and, True for or) decides
        op = expr.op
        absorbing = op == "or"
        for operand in expr.operands:
            if _as_bool(eval_expr(operand, ctx), op) is absorbing:
                return absorbing
        return not absorbing
    if isinstance(expr, BinOp):
        op = expr.op
        left = eval_expr(expr.left, ctx)
        right = eval_expr(expr.right, ctx)
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op in COMPARISONS:
            lo, hi = _as_int(left, op), _as_int(right, op)
            return {"<": lo < hi, "<=": lo <= hi, ">": lo > hi, ">=": lo >= hi}[op]
        if op in ARITHMETIC:
            lo, hi = _as_int(left, op), _as_int(right, op)
            return {"+": lo + hi, "-": lo - hi, "*": lo * hi}[op]
        raise EvalError(f"unknown operator {op!r}")
    raise EvalError(f"not an expression node: {expr!r}")

