"""Expression AST and evaluator for definitions and requirements.

Expressions are evaluated against round snapshots.  Plain signal reads use
the ambient snapshot (start of round in guards and effect values, end of
round in required conditions).  Mode reads name their time point
explicitly.

The nodes are literals, signal reads, mode reads (``at`` start or end of
round), references to parameterless definitions, ``not``, one n-ary
:class:`BoolOp` per ``and``/``or`` chain, and :class:`BinOp` for the
comparisons ``=``, ``<`` and ``>=`` and the sum ``+``: the operators the
translation emits.

Nodes are built through a :class:`Nodes` table, which builds each
structurally distinct node once: a model built through one table is a DAG
(a graph in which equal subexpressions are one object), so everything that
walks or compiles it memoises by identity alone.

The nodes and :class:`EvalContext` are named tuples.  A node is equal only
to a node of its own type (``SigRead("x") != DefRef("x")``, and a node is
never equal to a plain tuple), and hashes as the tuple of its fields; as
before, ``Lit(0) == Lit(False)``.
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple


class EvalError(Exception):
    """Base class for expression evaluation failures."""


class TypeMismatch(EvalError):
    pass


class IllegalEndOfRoundRead(EvalError):
    """An end-of-round mode read outside a required condition."""


# Each node's equality: tuple's own would find a node equal to any tuple of
# the same cells, another node type's included.
def _same_node(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_node(self, other) -> bool:
    return type(other) is not type(self) or tuple.__ne__(self, other)


class Lit(NamedTuple):
    """A literal: an int, a bool, a symbol, or None for nil."""

    value: object

    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class SigRead(NamedTuple):
    """The start-of-round value of a signal."""

    name: str

    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class ModeActive(NamedTuple):
    """Whether a component's mode is active at the start or end of the round."""

    component: str
    mode: str
    at: str  # "start" or "end"

    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class DefRef(NamedTuple):
    """A reference to a named definition."""

    name: str

    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class BoolOp(NamedTuple):
    """An n-ary ``and`` or ``or`` over its operands, left to right."""

    op: str  # and or
    operands: tuple

    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class BinOp(NamedTuple):
    """A comparison or a sum of two operands."""

    op: str  # = < >= +
    left: object
    right: object

    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class Not(NamedTuple):
    """Logical negation of its operand."""

    operand: object

    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class Nodes:
    """A node table: one object per structurally distinct node.  A literal is
    keyed on its type and value, so ``0`` and ``false`` stay apart; a node
    with children is keyed on its children's identities, which the table
    keeps alive.  :meth:`bool_op` keeps its operands as given.  Two tables
    share no node."""

    def __init__(self) -> None:
        self._table: dict[tuple, object] = {}

    def _node(self, key: tuple, make, *args):
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = make(*args)
        return node

    def lit(self, value) -> Lit:
        return self._node(("lit", type(value), value), Lit, value)

    def sig(self, name: str) -> SigRead:
        return self._node(("sig", name), SigRead, name)

    def ref(self, name: str) -> DefRef:
        return self._node(("ref", name), DefRef, name)

    def mode(self, component: str, mode: str, at: str) -> ModeActive:
        return self._node(("mode", component, mode, at), ModeActive, component, mode, at)

    def not_(self, operand) -> Not:
        return self._node(("not", id(operand)), Not, operand)

    def binop(self, op: str, left, right) -> BinOp:
        return self._node((op, id(left), id(right)), BinOp, op, left, right)

    def bool_op(self, op: str, operands) -> BoolOp:
        operands = tuple(operands)
        return self._node((op, *map(id, operands)), BoolOp, op, operands)


# The operators on two integers, each to its function.
INT_OPERATORS = {"<": operator.lt, ">=": operator.ge, "+": operator.add}


class EvalContext(NamedTuple):
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
        if op in INT_OPERATORS:
            return INT_OPERATORS[op](_as_int(left, op), _as_int(right, op))
        raise EvalError(f"unknown operator {op!r}")
    raise EvalError(f"not an expression node: {expr!r}")

