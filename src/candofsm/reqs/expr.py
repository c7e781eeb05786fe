"""Expression AST and evaluator for definitions and requirements.

Expressions are evaluated against round snapshots.  Plain signal reads use
the ambient snapshot (start of round in guards and effect values, end of
round in required conditions).  Mode comparisons name their time point
explicitly; ``becomes`` compares consecutive start snapshots and ``ever``
consults the accumulated status history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


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
class ModeBecomes:
    component: str
    mode: str
    status: str  # "active" or "inactive"


@dataclass(frozen=True)
class ModeEver:
    component: str
    mode: str
    status: str


@dataclass(frozen=True)
class DefRef:
    name: str


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class BinOp:
    op: str  # and or = != < <= > >= + - *
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    operand: object


COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
ARITHMETIC = {"+", "-", "*"}
LOGICAL = {"and", "or"}


@dataclass(frozen=True)
class EvalContext:
    """Snapshots and lookups needed to evaluate one expression."""

    start_signals: Mapping[str, object]
    start_modes: Mapping[str, frozenset[str]]
    history: frozenset[tuple[str, str, str]]
    definitions: Mapping[str, object]
    end_signals: Mapping[str, object] | None = None
    end_modes: Mapping[str, frozenset[str]] | None = None
    prev_signals: Mapping[str, object] | None = None
    prev_modes: Mapping[str, frozenset[str]] | None = None
    ambient: str = "start"
    params: Mapping[str, object] = field(default_factory=dict)

    def with_params(self, params: Mapping[str, object]) -> EvalContext:
        return EvalContext(
            start_signals=self.start_signals, start_modes=self.start_modes,
            history=self.history, definitions=self.definitions,
            end_signals=self.end_signals, end_modes=self.end_modes,
            prev_signals=self.prev_signals, prev_modes=self.prev_modes,
            ambient=self.ambient, params=params,
        )


def _as_bool(value: object, where: str) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeMismatch(f"{where} expects a boolean, got {value!r}")


def _as_int(value: object, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeMismatch(f"{where} expects an integer, got {value!r}")


def _status_holds(modes: Mapping[str, frozenset[str]], component: str,
                  mode: str, status: str) -> bool:
    active = mode in modes.get(component, frozenset())
    return active if status == "active" else not active


def eval_expr(expr, ctx: EvalContext):
    """Evaluate an expression; raises :class:`EvalError` subclasses."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, SigRead):
        if expr.name in ctx.params:
            return ctx.params[expr.name]
        snapshot = ctx.end_signals if ctx.ambient == "end" else ctx.start_signals
        if snapshot is None or expr.name not in snapshot:
            raise EvalError(f"unknown record {expr.name!r}")
        return snapshot[expr.name]
    if isinstance(expr, ModeActive):
        if expr.at == "start":
            return _status_holds(ctx.start_modes, expr.component, expr.mode, "active")
        if ctx.end_modes is None:
            raise IllegalEndOfRoundRead(
                f"mode {expr.component}.{expr.mode} read at end of round outside a "
                "required condition")
        return _status_holds(ctx.end_modes, expr.component, expr.mode, "active")
    if isinstance(expr, ModeBecomes):
        now = _status_holds(ctx.start_modes, expr.component, expr.mode, expr.status)
        if ctx.prev_modes is None:
            return now
        before = _status_holds(ctx.prev_modes, expr.component, expr.mode, expr.status)
        return now and not before
    if isinstance(expr, ModeEver):
        return (expr.component, expr.mode, expr.status) in ctx.history
    if isinstance(expr, DefRef):
        definition = ctx.definitions.get(expr.name)
        if definition is None:
            raise EvalError(f"unknown definition {expr.name!r}")
        if definition.params:
            raise EvalError(f"definition {expr.name!r} takes parameters")
        return eval_expr(definition.expr, ctx)
    if isinstance(expr, Call):
        definition = ctx.definitions.get(expr.name)
        if definition is None:
            raise EvalError(f"unknown definition {expr.name!r}")
        if len(definition.params) != len(expr.args):
            raise EvalError(
                f"definition {expr.name!r} takes {len(definition.params)} "
                f"arguments, got {len(expr.args)}")
        bound = {p: eval_expr(a, ctx) for p, a in zip(definition.params, expr.args)}
        return eval_expr(definition.expr, ctx.with_params(bound))
    if isinstance(expr, Not):
        return not _as_bool(eval_expr(expr.operand, ctx), "not")
    if isinstance(expr, BinOp):
        op = expr.op
        if op in LOGICAL:
            left = _as_bool(eval_expr(expr.left, ctx), op)
            if op == "and":
                return left and _as_bool(eval_expr(expr.right, ctx), op)
            return left or _as_bool(eval_expr(expr.right, ctx), op)
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


def walk(expr) -> Iterator[object]:
    """Yield the node and all its descendants in pre-order, not following
    definition references.  It keeps an explicit stack, so a left-deep chain
    of any length (a long ``or``) stays clear of the recursion limit."""
    pending = [expr]
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, BinOp):
            pending += (node.right, node.left)
        elif isinstance(node, Not):
            pending.append(node.operand)
        elif isinstance(node, Call):
            pending += reversed(node.args)
