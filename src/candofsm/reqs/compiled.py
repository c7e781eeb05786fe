"""Expressions compiled to closures, with their start-state support.

A compiled expression is a function of one :class:`Frame`.  It has
``eval_expr``'s semantics exactly: the same values, the same
:class:`EvalError` subclasses and messages, and the same left-to-right
evaluation, short-circuit and boolean/integer checks.  Definition
references are inlined, and a ``BoolOp`` takes the operands of a
same-operator ``BoolOp`` under it (also through an inlined definition) into
its own closure.  A node is dispatched on the first node type it is an
instance of, in ``eval_expr``'s order, so a subclass of a node type
compiles as that type.

Closures are hash-consed: structurally equal subexpressions share one
closure.  The structural key carries each literal's type, because ``==``
on the frozen nodes would merge ``Lit(0)`` with ``Lit(False)``.  On top of
that, :meth:`Compiler.compile` remembers each expression object it has
compiled, by identity, for the life of the ``Compiler``: in a generated
model, where equal subexpressions are one object, a node met again costs one
lookup.  A hand-written model shares no node and goes by the structural key
alone, to the same compiled nodes.  :meth:`Compiler.compile` only builds the
node and its support; the closure is built when ``fn`` is first read.

An expression's *start-state support* is a set of terms ``(mode,
literal)``: ``mode`` is a (component, mode) pair and ``literal`` is None or
a (signal, value) pair.  A term is *missed* by a start when its mode is
not active, or its signal is present with a value that is not ``==`` the
literal's.  When every term is missed, the expression evaluates to
``False`` without raising, so it may be skipped.  ``None`` means no such
set is known.  The support follows the first operand of ``and`` and every
operand of ``or``.  An ``and`` adds the first ``signal = literal``
operand after its first one to each term, but only if no operand before
that one can raise.  A support is *exact* when the expression is nothing
but its terms: with every signal its literals read present, it evaluates
without raising to ``True`` exactly when some term is not missed.
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
    Not,
    SigRead,
    _as_bool,
    _as_int,
)

EMPTY: frozenset = frozenset()

# The value of a signal a start does not hold, or whose value cannot key a
# lookup: no literal on that signal is missed.
ABSENT = object()

_INT_OPERATORS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
}


def active_modes(modes: Mapping[str, frozenset[str]]) -> frozenset:
    """The (component, mode) pairs active in a mode snapshot."""
    return frozenset((comp, mode) for comp, active in modes.items() for mode in active)


def meets(support: frozenset, active: frozenset, signal: str | None = None,
          value=ABSENT) -> bool:
    """Whether some term of a support is not missed by a start with these
    active modes in which ``signal`` holds ``value``.  Literals on any other
    signal count as met."""
    for mode, literal in support:
        if mode in active and (literal is None or literal[0] != signal
                               or value is ABSENT or value == literal[1]):
            return True
    return False


class Frame:
    """What a compiled expression reads: the ambient signal snapshot and the
    start and end mode snapshots."""

    __slots__ = ("signals", "start_modes", "end_modes")

    def __init__(self, signals, start_modes, end_modes):
        self.signals = signals
        self.start_modes = start_modes
        self.end_modes = end_modes

    @classmethod
    def of(cls, ctx: EvalContext) -> Frame:
        """The frame of an :class:`EvalContext`."""
        signals = ctx.end_signals if ctx.ambient == "end" else ctx.start_signals
        return cls({} if signals is None else signals, ctx.start_modes, ctx.end_modes)


class Compiled:
    """One hash-consed compiled subexpression: its start-state support, and
    its closure, built from ``build(*args)`` when ``fn`` is first read."""

    __slots__ = ("support", "exact", "literal", "op", "parts", "_build", "_fn")

    def __init__(self, build, support=None, exact=False, literal=None, op=None,
                 parts=()):
        self._build = build
        self._fn = None
        self.support = support
        self.exact = exact        # the support is exact
        self.literal = literal    # (signal, value) of a `signal = literal` node
        self.op = op              # "and" / "or" for a BoolOp
        self.parts = parts        # its compiled operands

    @property
    def fn(self):
        fn = self._fn
        if fn is None:
            build, args = self._build
            fn = self._fn = build(*args)
            self._build = None
        return fn


def _safe(node: Compiled) -> bool:
    """Whether the node evaluates to a boolean without raising from any start:
    an exact support that reads no signal."""
    return node.exact and all(literal is None for _, literal in node.support)


def _and_support(parts: tuple[Compiled, ...]) -> tuple[frozenset | None, bool]:
    """The support of an ``and`` of these operands, and whether it is exact."""
    first = parts[0].support if parts else None
    if first is None:
        return None, False
    if _safe(parts[0]):
        for part in parts[1:]:
            if part.literal is not None:
                support = frozenset((mode, part.literal) for mode, _ in first)
                return support, len(parts) == 2
            if not _safe(part):
                break
    return first, len(parts) == 1 and parts[0].exact


def _or_support(parts: tuple[Compiled, ...]) -> tuple[frozenset | None, bool]:
    """The support of an ``or`` of these operands, and whether it is exact."""
    supports = [p.support for p in parts]
    if None in supports:
        return None, False
    return frozenset().union(*supports), all(p.exact for p in parts)


class Compiler:
    """Compiles the expressions of one model against its definitions.

    Nodes are interned under a key of their kind and their operands'
    interned nodes, so structurally equal subexpressions share one node.
    An expression object already compiled costs one lookup by identity."""

    def __init__(self, definitions: Mapping[str, object]):
        self.definitions = definitions
        self._shared: dict[tuple, Compiled] = {}
        # id(expr) -> (expr, its node); holding expr keeps its id from reuse
        self._seen: dict[int, tuple[object, Compiled]] = {}
        self._inlined: dict[str, Compiled] = {}
        # in eval_expr's order, which decides a node of two node types
        self._by_type = {
            Lit: self._lit, SigRead: self._sig_read, ModeActive: self._mode_active,
            DefRef: self._def_ref, Not: self._not, BoolOp: self._bool_op,
            BinOp: self._bin_op,
        }

    def compile(self, expr) -> Compiled:
        """``compile(expr).fn(Frame.of(ctx))`` computes ``eval_expr(expr, ctx)``."""
        seen = self._seen.get(id(expr))
        if seen is not None:
            return seen[1]
        compile_node = self._by_type.get(type(expr))
        if compile_node is None:
            compile_node = next((f for t, f in self._by_type.items() if isinstance(expr, t)),
                                self._not_a_node)
        node = compile_node(expr)
        self._seen[id(expr)] = expr, node
        return node

    def _intern(self, key: tuple, build, *args) -> Compiled:
        node = self._shared.get(key)
        if node is None:
            node = self._shared[key] = Compiled((build, args))
        return node

    def _lit(self, expr: Lit) -> Compiled:
        value = expr.value
        return self._intern(("lit", type(value), value), _const, value)

    def _sig_read(self, expr: SigRead) -> Compiled:
        return self._intern(("sig", expr.name), _sig_read, expr.name)

    def _mode_active(self, expr: ModeActive) -> Compiled:
        comp, mode = expr.component, expr.mode
        if expr.at != "start":
            return self._intern(("end", comp, mode), _end_mode, comp, mode)
        key = ("start", comp, mode)
        node = self._shared.get(key)
        if node is None:
            node = self._shared[key] = Compiled(
                (_start_mode, (comp, mode)), frozenset({((comp, mode), None)}), True)
        return node

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
        return self._intern(("not", operand), _not, operand)

    def _bool_op(self, expr: BoolOp) -> Compiled:
        op = expr.op
        parts = []
        for operand in expr.operands:
            child = self.compile(operand)
            if child.op == op:
                parts += child.parts
            else:
                parts.append(child)
        parts = tuple(parts)
        key = (op, parts)
        node = self._shared.get(key)
        if node is None:
            support, exact = (_and_support if op == "and" else _or_support)(parts)
            node = self._shared[key] = Compiled(
                (_chain, (op, parts)), support, exact, None, op, parts)
        return node

    def _bin_op(self, expr: BinOp) -> Compiled:
        op = expr.op
        left, right = self.compile(expr.left), self.compile(expr.right)
        key = (op, left, right)
        node = self._shared.get(key)
        if node is None:
            literal = None
            if op == "=" and isinstance(expr.left, SigRead) and isinstance(expr.right, Lit):
                literal = (expr.left.name, expr.right.value)
            node = self._shared[key] = Compiled(
                (_binary, (op, left, right)), literal=literal)
        return node

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


def _not(node: Compiled):
    operand = node.fn

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


def _binary(op: str, left: Compiled, right: Compiled):
    left, right = left.fn, right.fn
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
