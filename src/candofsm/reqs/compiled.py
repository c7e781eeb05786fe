"""Expressions compiled to closures, with their start-state support.

A compiled expression is a function of one :class:`Frame`.  It has
``eval_expr``'s semantics exactly: the same values, the same
:class:`EvalError` subclasses and messages, and the same left-to-right
evaluation, short-circuit and boolean/integer checks.  Definition
references are inlined, and a ``BoolOp`` takes the operands of a
same-operator ``BoolOp`` under it (also through an inlined definition) into
its own closure.

Closures are hash-consed: structurally equal subexpressions share one
closure.  The structural key carries each literal's type, because ``==``
on the frozen nodes would merge ``Lit(0)`` with ``Lit(False)``.

An expression's *start-state support* is a set of (component, mode) pairs,
one of which must be active at the start of the round for the expression
to hold; ``None`` means no such set is known.  It follows the first operand
of ``and`` and every operand of ``or``, so an expression whose support
misses the active modes evaluates to ``False`` without raising, and may be
skipped.  Large disjunctions use it themselves: they evaluate only the
operands the active modes can satisfy.
"""

from __future__ import annotations

import operator
from typing import Mapping

from .expr import (
    ARITHMETIC,
    COMPARISONS,
    BinOp,
    BoolOp,
    DefRef,
    EvalContext,
    EvalError,
    IllegalEndOfRoundRead,
    Lit,
    ModeActive,
    ModeEver,
    Not,
    SigRead,
    _as_bool,
    _as_int,
)

EMPTY: frozenset = frozenset()

# A disjunction with more operands than this picks its operands per active
# mode set instead of trying each one.
INDEXED_OR_MIN = 8

_INT_OPERATORS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
}


def active_modes(modes: Mapping[str, frozenset[str]]) -> frozenset:
    """The (component, mode) pairs active in a mode snapshot."""
    return frozenset((comp, mode) for comp, active in modes.items() for mode in active)


class Frame:
    """What a compiled expression reads: the :class:`EvalContext` with its
    ambient signal snapshot resolved and its active start modes computed."""

    __slots__ = ("signals", "start_modes", "end_modes", "history", "active")

    def __init__(self, ctx: EvalContext, active: frozenset | None = None):
        signals = ctx.end_signals if ctx.ambient == "end" else ctx.start_signals
        self.signals = {} if signals is None else signals
        self.start_modes = ctx.start_modes
        self.end_modes = ctx.end_modes
        self.history = ctx.history
        self.active = active_modes(ctx.start_modes) if active is None else active


class Compiled:
    """One hash-consed compiled subexpression: its closure and its
    start-state support."""

    __slots__ = ("uid", "fn", "support", "op", "parts")

    def __init__(self, uid, fn, support=None, op=None, parts=()):
        self.uid = uid
        self.fn = fn
        self.support = support
        self.op = op          # "and" / "or" for a BoolOp
        self.parts = parts    # its compiled operands


class Compiler:
    """Compiles the expressions of one model against its definitions."""

    def __init__(self, definitions: Mapping[str, object]):
        self.definitions = definitions
        self._shared: dict[tuple, Compiled] = {}
        self._inlined: dict[str, Compiled] = {}
        self._by_type = {
            Lit: self._lit, SigRead: self._sig_read, ModeActive: self._mode_active,
            ModeEver: self._mode_ever, DefRef: self._def_ref, Not: self._not,
            BoolOp: self._bool_op, BinOp: self._bin_op,
        }

    def compile(self, expr) -> Compiled:
        """``compile(expr).fn(Frame(ctx))`` computes ``eval_expr(expr, ctx)``."""
        return self._by_type.get(type(expr), self._not_a_node)(expr)

    def _intern(self, key: tuple, build, *args, support=None, op=None,
                parts=()) -> Compiled:
        node = self._shared.get(key)
        if node is None:
            node = self._shared[key] = Compiled(
                len(self._shared), build(*args), support, op, parts)
        return node

    def _lit(self, expr: Lit) -> Compiled:
        value = expr.value
        return self._intern(("lit", type(value), value), _const, value)

    def _sig_read(self, expr: SigRead) -> Compiled:
        return self._intern(("sig", expr.name), _sig_read, expr.name)

    def _mode_active(self, expr: ModeActive) -> Compiled:
        comp, mode = expr.component, expr.mode
        if expr.at == "start":
            return self._intern(("start", comp, mode), _start_mode, comp, mode,
                                support=frozenset({(comp, mode)}))
        return self._intern(("end", comp, mode), _end_mode, comp, mode)

    def _mode_ever(self, expr: ModeEver) -> Compiled:
        key = (expr.component, expr.mode, expr.status)
        return self._intern(("ever",) + key, _ever, key)

    def _def_ref(self, expr: DefRef) -> Compiled:
        name = expr.name
        node = self._inlined.get(name)
        if node is None:
            definition = self.definitions.get(name)
            if definition is None:
                node = self._raising(f"unknown definition {name!r}")
            else:
                node = self.compile(definition.expr)
            self._inlined[name] = node
        return node

    def _not(self, expr: Not) -> Compiled:
        operand = self.compile(expr.operand)
        return self._intern(("not", operand.uid), _not, operand.fn)

    def _bool_op(self, expr: BoolOp) -> Compiled:
        op = expr.op
        parts = tuple(p for operand in expr.operands
                      for child in (self.compile(operand),)
                      for p in (child.parts if child.op == op else (child,)))
        if op == "and":
            support = parts[0].support if parts else None
        else:
            supports = [p.support for p in parts]
            support = None if None in supports else frozenset().union(*supports)
        return self._intern((op,) + tuple(p.uid for p in parts), _chain, op, parts,
                            support=support, op=op, parts=parts)

    def _bin_op(self, expr: BinOp) -> Compiled:
        op = expr.op
        left, right = self.compile(expr.left), self.compile(expr.right)
        return self._intern((op, left.uid, right.uid), _binary, op, left.fn, right.fn)

    def _not_a_node(self, expr) -> Compiled:
        return self._raising(f"not an expression node: {expr!r}")

    def _raising(self, message: str) -> Compiled:
        return self._intern(("raise", message), _raising, message)


# --- closure builders --------------------------------------------------------

def _const(value):
    return lambda frame: value


def _raising(message):
    def fn(frame):
        raise EvalError(message)
    return fn


def _sig_read(name):
    message = f"unknown record {name!r}"

    def fn(frame):
        try:
            return frame.signals[name]
        except KeyError:
            raise EvalError(message) from None
    return fn


def _start_mode(comp, mode):
    return lambda frame: mode in frame.start_modes.get(comp, EMPTY)


def _end_mode(comp, mode):
    message = (f"mode {comp}.{mode} read at end of round outside a required "
               "condition")

    def fn(frame):
        end = frame.end_modes
        if end is None:
            raise IllegalEndOfRoundRead(message)
        return mode in end.get(comp, EMPTY)
    return fn


def _ever(key):
    return lambda frame: key in frame.history


def _not(operand):
    def fn(frame):
        value = operand(frame)
        if value is True:
            return False
        if value is False:
            return True
        return not _as_bool(value, "not")
    return fn


def _chain(op: str, parts: tuple[Compiled, ...]):
    """An n-ary ``and``/``or`` closure."""
    if op == "or" and len(parts) > INDEXED_OR_MIN:
        return _indexed_or(parts)
    return (_and if op == "and" else _or)(tuple(p.fn for p in parts))


# _as_bool raises on the non-boolean operand it is given here
def _and(fns):
    def fn(frame):
        for part in fns:
            value = part(frame)
            if value is False:
                return False
            if value is not True:
                _as_bool(value, "and")
        return True
    return fn


def _or(fns):
    def fn(frame):
        for part in fns:
            value = part(frame)
            if value is True:
                return True
            if value is not False:
                _as_bool(value, "or")
        return False
    return fn


def _indexed_or(parts: tuple[Compiled, ...]):
    """A disjunction that tries, per active mode set, only the operands whose
    support meets it; the others would all be False without raising."""
    operands = tuple((p.fn, p.support) for p in parts)
    chosen: dict[frozenset, object] = {}

    def fn(frame):
        active = frame.active
        narrowed = chosen.get(active)
        if narrowed is None:
            narrowed = chosen[active] = _or(tuple(
                part for part, support in operands
                if support is None or not support.isdisjoint(active)))
        return narrowed(frame)
    return fn


def _binary(op: str, left, right):
    if op == "=":
        return lambda frame: left(frame) == right(frame)
    if op == "!=":
        return lambda frame: left(frame) != right(frame)
    if op in COMPARISONS or op in ARITHMETIC:
        apply = _INT_OPERATORS[op]

        def fn(frame):
            lo, hi = left(frame), right(frame)
            if type(lo) is int and type(hi) is int:
                return apply(lo, hi)
            return apply(_as_int(lo, op), _as_int(hi, op))
        return fn
    message = f"unknown operator {op!r}"

    def fn(frame):
        left(frame)
        right(frame)
        raise EvalError(message)
    return fn
