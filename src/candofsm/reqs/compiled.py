"""Expressions compiled to closures, with their start-state support.

A compiled expression is a function of one :class:`Frame`.  It has
``eval_expr``'s semantics exactly: the same values, the same
:class:`EvalError` subclasses and messages, and the same left-to-right
evaluation, short-circuit and boolean/integer checks.  A ``BoolOp`` takes
the operands of a same-operator ``BoolOp`` under it (also through a
definition) into its own closure.  A node is dispatched on the first node
type it is an instance of, in ``eval_expr``'s order, so a subclass of a
node type compiles as that type.

Sharing is decided where nodes are built (see :class:`~.expr.Nodes`), so
:meth:`Compiler.compile` memoises by identity only: each expression object
is compiled once for the life of the ``Compiler``, and a node met again
costs one lookup.  A node's closure is built with the node.

A definition whose body is an ``and``/``or`` chain is evaluated once per
frame: every reference to it shares one node, whose closure keeps the
body's value in the frame's ``values`` under the definition's name.  A body
that raises stores nothing, so each reader raises the same error.  Several
requirements read one such chain in a round, e.g. the kind-level
``arrive_kind_send``, an ``or`` of the arrows into the send states.  Any
other definition reference is the body's own node, inlined: such a body is
one test, which costs less than the lookup would.  The shared node has its
body's support, literals, operator and parts, so a parent of the same
operator still takes the body's operands into its own closure.

A node's *reads* are the signals it can look up, through definitions: the
names of the ``SigRead`` nodes under it.  Its value, or the error it
raises, depends on no other signal.  The sets are interned per
``Compiler``: one object per distinct set, and ``EMPTY`` for none.

An expression's *start-state support* is a set of terms ``(mode,
literal)``: ``mode`` is a (component, mode) pair and ``literal`` is None or
a (signal, value) pair.  A term is *missed* by a start when its mode is
not active, or its signal is present with a value that is not ``==`` the
literal's.  When every term is missed, the expression evaluates to
``False`` without raising, so it may be skipped.  ``None`` means no such
set is known.  The support follows the first operand of ``and`` and every
operand of ``or``.  A node's *literals* are the (signal, value) pairs of a
``signal = literal`` node, or of an ``or`` whose operands are all such
nodes on one signal.  An ``and`` takes the first operand after its first
one that has literals, and pairs each of its terms with each of those
literals, but only if no operand before that one can raise.  So
``from_X and (ev = E1 or ev = E2)`` has the two terms ``(X, (ev, E1))``
and ``(X, (ev, E2))``.  A support is *exact* when the expression is
nothing but its terms: with every signal its literals read present, it
evaluates without raising to ``True`` exactly when some term is not
missed.
"""

from __future__ import annotations

from typing import Mapping

from .expr import (
    INT_OPERATORS,
    BinOp,
    BoolOp,
    DefRef,
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

def active_modes(modes: Mapping[str, frozenset[str]]) -> frozenset:
    """The (component, mode) pairs active in a mode snapshot."""
    return frozenset((comp, mode) for comp, active in modes.items() for mode in active)


class Frame:
    """What a compiled expression reads: the ambient signal snapshot and the
    start and end mode snapshots, and the values of the chain definitions
    read so far.

    A frame is one snapshot of one model: nothing mutates its signals or
    modes once it is built, so a definition's value, once stored, holds for
    the frame's life."""

    __slots__ = ("signals", "start_modes", "end_modes", "values")

    def __init__(self, signals, start_modes, end_modes):
        self.signals = signals
        self.start_modes = start_modes
        self.end_modes = end_modes
        self.values = {}   # definition name -> its body's value here


class Compiled:
    """One compiled subexpression: its closure and its start-state support."""

    __slots__ = ("fn", "support", "reads", "exact", "literals", "op", "parts")

    def __init__(self, fn, support=None, exact=False, literals=(),
                 op=None, parts=(), reads=EMPTY):
        self.fn = fn
        self.support = support
        self.reads = reads        # the signals it can read
        self.exact = exact        # the support is exact
        self.literals = literals  # its (signal, value) literals, see above
        self.op = op              # "and" / "or" for a BoolOp
        self.parts = parts        # its compiled operands


def _safe(node: Compiled) -> bool:
    """Whether the node evaluates to a boolean without raising from any start:
    an exact support that reads no signal.  (An exact support has a literal
    exactly when its node reads a signal.)"""
    return node.exact and not node.reads


def _and_support(parts: tuple[Compiled, ...]) -> tuple[frozenset | None, bool]:
    """The support of an ``and`` of these operands, and whether it is exact."""
    first = parts[0].support if parts else None
    if first is None:
        return None, False
    if _safe(parts[0]):
        for part in parts[1:]:
            if part.literals:
                support = frozenset((mode, literal) for mode, _ in first
                                    for literal in part.literals)
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

    Each expression object is compiled once; one met again costs one
    lookup by identity."""

    def __init__(self, definitions: Mapping[str, object]):
        self.definitions = definitions
        # id(expr) -> its node; holding every expr keeps its id from reuse
        self._seen: dict[int, Compiled] = {}
        self._held: list = []
        # each distinct interned value, as its one shared object
        self._interned: dict = {EMPTY: EMPTY}
        # definition name -> the one node of a chain definition
        self._definitions: dict[str, Compiled] = {}
        # in eval_expr's order, which decides a node of two node types
        self._by_type = {
            Lit: self._lit, SigRead: self._sig_read, ModeActive: self._mode_active,
            DefRef: self._def_ref, Not: self._not, BoolOp: self._bool_op,
            BinOp: self._bin_op,
        }

    def compile(self, expr) -> Compiled:
        """The compiled node of ``expr``: its ``fn`` of a :class:`Frame`
        computes what ``eval_expr`` computes for ``expr`` in a context with
        the frame's ambient signals and mode snapshots."""
        seen = self._seen.get(id(expr))
        if seen is not None:
            return seen
        compile_node = self._by_type.get(type(expr))
        if compile_node is None:
            compile_node = next((f for t, f in self._by_type.items() if isinstance(expr, t)),
                                self._not_a_node)
        node = compile_node(expr)
        self._seen[id(expr)] = node
        self._held.append(expr)
        return node

    def interned(self, item):
        """The one object this compiler keeps equal to ``item``, a frozenset
        or tuple built of names only.  Nothing that holds a signal value is
        interned, since equality would merge ``1`` with ``True``."""
        return self._interned.setdefault(item, item)

    def reads_of(self, nodes) -> frozenset:
        """The union of the nodes' reads, interned."""
        reads = EMPTY
        for node in nodes:
            if not node.reads <= reads:
                reads = node.reads if reads is EMPTY else reads | node.reads
        return self.interned(reads)

    def _lit(self, expr: Lit) -> Compiled:
        return Compiled(_const(expr.value))

    def _sig_read(self, expr: SigRead) -> Compiled:
        return Compiled(_sig_read(expr.name), reads=self.interned(frozenset({expr.name})))

    def _mode_active(self, expr: ModeActive) -> Compiled:
        comp, mode = expr.component, expr.mode
        if expr.at != "start":
            return Compiled(_end_mode(comp, mode))
        return Compiled(_start_mode(comp, mode), frozenset({((comp, mode), None)}), True)

    def _def_ref(self, expr: DefRef) -> Compiled:
        name = expr.name
        shared = self._definitions.get(name)
        if shared is not None:
            return shared
        definition = self.definitions.get(name)
        if definition is None:
            return Compiled(_raising(f"unknown definition {name!r}"))
        body = self.compile(definition.expr)
        if body.op is None:
            return body
        shared = self._definitions[name] = Compiled(
            _once_per_frame(name, body.fn), body.support, body.exact, body.literals,
            body.op, body.parts, body.reads)
        return shared

    def _not(self, expr: Not) -> Compiled:
        operand = self.compile(expr.operand)
        return Compiled(_not(operand), reads=operand.reads)

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
        support, exact = (_and_support if op == "and" else _or_support)(parts)
        literals = ()
        if op == "or" and all(p.literals for p in parts) \
                and len({signal for p in parts for signal, _ in p.literals}) == 1:
            literals = tuple(literal for p in parts for literal in p.literals)
        return Compiled(_chain(op, parts), support, exact, literals, op, parts,
                        self.reads_of(parts))

    def _bin_op(self, expr: BinOp) -> Compiled:
        op = expr.op
        literals = ()
        if op == "=" and isinstance(expr.left, SigRead) and isinstance(expr.right, Lit):
            literals = ((expr.left.name, expr.right.value),)
        left, right = self.compile(expr.left), self.compile(expr.right)
        return Compiled(_binary(op, left, right), literals=literals,
                        reads=self.reads_of((left, right)))

    def _not_a_node(self, expr) -> Compiled:
        return Compiled(_raising(f"not an expression node: {expr!r}"))


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


def _once_per_frame(name, body):
    """A chain definition's closure: the body runs on a frame's first read."""
    def fn(frame):
        values = frame.values
        value = values.get(name, ABSENT)
        if value is ABSENT:
            value = values[name] = body(frame)
        return value
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


# _as_bool raises on the non-boolean operand it is given here
def _chain(op: str, parts: tuple[Compiled, ...]):
    """An n-ary ``and``/``or`` closure: the first operand that is the
    absorbing value (false for ``and``, true for ``or``) is the value."""
    fns = tuple(p.fn for p in parts)
    absorbing = op == "or"
    other = not absorbing

    def fn(frame):
        for part in fns:
            value = part(frame)
            if value is absorbing:
                return absorbing
            if value is not other:
                _as_bool(value, op)
        return other
    return fn


def _binary(op: str, left: Compiled, right: Compiled):
    left, right = left.fn, right.fn
    if op == "=":
        return lambda frame: left(frame) == right(frame)
    apply = INT_OPERATORS.get(op)
    if apply is not None:
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
