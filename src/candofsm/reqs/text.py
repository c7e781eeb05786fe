"""The ``.req`` text form of a requirements model.

One record per line, ``#`` comments::

    type Event enum { CONT ERROR }
    type Flag bool
    signal bytes_sent : int min=0 max=3 init=0
    mode fsm { start get_cmd } exclusive init=start
    def from_start "The fsm is in state start ..." := mode(fsm.start) at start
    req 0.00 "start to get_cmd" trigger from_start and current_event = CONT
        => fsm := get_cmd

A type is an ``enum`` or a ``bool``; an ``int`` signal is bounded on its own
line.  A requirement is one of four forms: ``every C``, ``when G => C``,
``trigger G => EFFECTS [require C]`` and ``modeset COMPONENT exclusive``.

Expressions are infix with ``and``/``or``/``not``, the comparisons ``=``,
``<`` and ``>=``, the sum ``+``, and ``mode(C.M) at start|end``; a literal
is a natural number, ``true``, ``false``, ``nil`` or an enum member, and a
name declared by ``def`` refers to that definition.  How tightly each
operator binds is stated once, in ``_PRECEDENCE``: :func:`render_expr`
brackets by it and the parser climbs it.  A run of ``and`` (or of ``or``)
parses to one n-ary ``BoolOp``; a parenthesised run stays a nested node,
and the serializer parenthesises it again.  Comparisons do not chain; sums
nest to the left.  Records
must be declared before use, which is the order the serializer emits.

Outside titles and comments, a character no token of the grammar matches
is a :class:`~candofsm.specio.ParseError` that names it, and so is bracket
or ``not`` nesting deeper than :data:`~.model.MAX_DEPTH`.

One :func:`parse_model` call builds every expression through one
:class:`~.expr.Nodes` table, so a parsed model is a DAG like a generated
one: ``x = 0`` written twice is one object.  Two parses share no node.
"""

from __future__ import annotations

import re

from ..specio import ParseError
from .expr import BinOp, BoolOp, DefRef, Lit, ModeActive, Nodes, Not, SigRead
from .model import (
    EVERY,
    MAX_DEPTH,
    TRIGGER_ON_EVENT,
    WHEN,
    BoolType,
    DataDictionary,
    Definition,
    EnumType,
    ModeAssign,
    ModeComponent,
    Requirement,
    RequirementsModel,
    SignalAssign,
    SignalDef,
    Template,
)

# How tightly each binary operator binds; the parser and render_expr both
# read this table.  ``and`` and ``or`` chain into one n-ary node,
# comparisons do not chain, and sums nest to the left.
_PRECEDENCE = {"or": 1, "and": 2, "=": 4, "<": 4, ">=": 4, "+": 5}
_NOT_PRECEDENCE = 3
_COMPARISON_PRECEDENCE = 4
_WORDS = {"true": True, "false": False, "nil": None}

_TOKEN = r":=|=>|>=|[(){},.=<+:]|[A-Za-z_][A-Za-z0-9_]*|[0-9]+"
_TOKEN_RE = re.compile(_TOKEN)
# the longest run of tokens and spaces from the start of a text: where it
# stops short of the end is the first character outside the grammar
_TOKEN_RUN_RE = re.compile(rf"(?:\s*(?:{_TOKEN}))*\s*")


class _Scope:
    """Name resolution tables built up while reading the file top to bottom,
    and the node table every expression of the file is built through."""

    def __init__(self) -> None:
        self.nodes = Nodes()
        self.types: list = []
        self.signals: list[SignalDef] = []
        self.modes: list[ModeComponent] = []
        self.definitions: list[Definition] = []
        self.requirements: list[Requirement] = []
        self.signal_names: set[str] = set()
        self.enum_members: set[str] = set()
        self.component_names: set[str] = set()
        self.definition_names: set[str] = set()


class _Cursor:
    """The tokens of ``text``, the rest of line ``raw`` after its directive,
    name or title, read left to right; ``depth`` counts the brackets and
    ``not``s open at the cursor."""

    def __init__(self, text: str, lineno: int, raw: str):
        self.lineno = lineno
        self.raw = raw
        end = _TOKEN_RUN_RE.match(text).end()
        if end < len(text):
            column = len(raw.split("#", 1)[0].rstrip()) - len(text) + end + 1
            raise ParseError(lineno, column, f"unexpected character {text[end]!r}", raw)
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append(None)   # the end of the line
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(self.lineno, 1, message, self.raw)

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok is None:
            raise self.error("unexpected end of line")
        self.pos += 1
        return tok

    def name(self) -> str:
        tok = self.next()
        if not tok.isidentifier():
            raise self.error(f"expected a name, got {tok!r}")
        return tok

    def expect(self, token: str) -> None:
        tok = self.next()
        if tok != token:
            raise self.error(f"expected {token!r}, got {tok!r}")

    def accept(self, token: str) -> bool:
        if self.tokens[self.pos] == token:
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self.tokens[self.pos] is None

    def finish(self) -> None:
        if not self.done():
            raise self.error(f"trailing tokens: {self.peek()!r}")


def _unquote(token: str) -> str:
    return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _parse_literal(cur: _Cursor):
    """``true``, ``false``, ``nil``, a natural number, or a name, which is
    returned as it is written."""
    tok = cur.next()
    if tok in _WORDS:
        return _WORDS[tok]
    if tok.isdigit():
        try:
            return int(tok)
        except ValueError:   # more digits than int() converts
            raise cur.error(f"integer of {len(tok)} digits is too long") from None
    if tok.isidentifier():
        return tok
    raise cur.error(f"expected a literal, got {tok!r}")


# --- expressions -------------------------------------------------------------

def _parse_expr(cur: _Cursor, scope: _Scope, floor: int = 1):
    """The expression at the cursor whose binary operators bind at least as
    tightly as ``floor`` in ``_PRECEDENCE``, climbing that table."""
    left = _parse_operand(cur, scope, floor)
    while True:
        op = cur.peek()
        prec = _PRECEDENCE.get(op, 0)
        if prec < floor:
            return left
        cur.next()
        if op == "and" or op == "or":
            operands = [left, _parse_expr(cur, scope, prec + 1)]
            while cur.accept(op):
                operands.append(_parse_expr(cur, scope, prec + 1))
            left = scope.nodes.bool_op(op, operands)
            continue
        left = scope.nodes.binop(op, left, _parse_expr(cur, scope, prec + 1))
        if prec == _COMPARISON_PRECEDENCE \
                and _PRECEDENCE.get(cur.peek()) == _COMPARISON_PRECEDENCE:
            raise cur.error(f"comparisons do not chain: {cur.peek()!r} after {op!r}")


def _parse_operand(cur: _Cursor, scope: _Scope, floor: int):
    """A bracketed expression, a ``not`` where ``floor`` admits one, a mode
    read, a literal or a declared name."""
    nodes = scope.nodes
    tok = cur.peek()
    if tok == "(" or (tok == "not" and floor <= _NOT_PRECEDENCE):
        cur.next()
        cur.depth += 1
        if cur.depth > MAX_DEPTH:
            raise cur.error(f"brackets and 'not' nested deeper than {MAX_DEPTH}")
        if tok == "(":
            node = _parse_expr(cur, scope)
            cur.expect(")")
        else:
            node = nodes.not_(_parse_expr(cur, scope, _NOT_PRECEDENCE))
        cur.depth -= 1
        return node
    if tok == "mode":
        cur.next()
        return _parse_mode_op(cur, scope)
    value = _parse_literal(cur)
    if type(value) is not str:
        return nodes.lit(value)
    if value in scope.signal_names:
        return nodes.sig(value)
    if value in scope.enum_members:
        return nodes.lit(value)
    if value in scope.definition_names:
        return nodes.ref(value)
    raise cur.error(f"unknown name {value!r}")


def _parse_mode_op(cur: _Cursor, scope: _Scope):
    cur.expect("(")
    component = cur.next()
    if component not in scope.component_names:
        raise cur.error(f"unknown mode component {component!r}")
    cur.expect(".")
    mode = cur.name()
    cur.expect(")")
    tok = cur.next()
    if tok != "at":
        raise cur.error(f"expected 'at' after mode(), got {tok!r}")
    at = cur.next()
    if at not in ("start", "end"):
        raise cur.error(f"expected 'start' or 'end', got {at!r}")
    return scope.nodes.mode(component, mode, at)


def _parse_assignments(cur: _Cursor, scope: _Scope) -> tuple:
    """``target := expr`` pairs separated by commas; a mode component on the
    left makes it a mode assignment."""
    out = []
    while True:
        target = cur.name()
        cur.expect(":=")
        if target in scope.component_names:
            mode = cur.name()
            out.append(ModeAssign(target, mode))
        else:
            out.append(SignalAssign(target, _parse_expr(cur, scope)))
        if not cur.accept(","):
            return tuple(out)


# --- line parsers -------------------------------------------------------------

def _parse_type_line(cur: _Cursor, scope: _Scope) -> None:
    name = cur.name()
    kind = cur.next()
    if kind == "enum":
        cur.expect("{")
        members = []
        while not cur.accept("}"):
            members.append(cur.name())
        t = EnumType(name, tuple(members))
        scope.enum_members.update(members)
    elif kind == "bool":
        t = BoolType(name)
    else:
        raise cur.error(f"unknown type kind {kind!r}")
    scope.types.append(t)


def _parse_signal_line(cur: _Cursor, scope: _Scope) -> None:
    name = cur.name()
    cur.expect(":")
    type_name = cur.name()
    opts: dict[str, object] = {}
    while not cur.done():
        key = cur.next()
        if key not in ("min", "max", "init"):
            raise cur.error(f"unexpected option {key!r}")
        cur.expect("=")
        opts[key] = _parse_literal(cur)
    scope.signals.append(SignalDef(
        name, type_name,
        minimum=opts.get("min"), maximum=opts.get("max"),
        initial=opts.get("init")))
    scope.signal_names.add(name)


def _parse_mode_line(cur: _Cursor, scope: _Scope) -> None:
    name = cur.name()
    cur.expect("{")
    modes = []
    while not cur.accept("}"):
        modes.append(cur.name())
    if not cur.accept("exclusive"):
        raise cur.error(f"mode component {name!r} must be 'exclusive'")
    initial = None
    if cur.accept("init"):
        cur.expect("=")
        initial = cur.name()
    scope.modes.append(ModeComponent(name, tuple(modes), initial))
    scope.component_names.add(name)


_DICTIONARY_LINES = {"type": _parse_type_line, "signal": _parse_signal_line,
                     "mode": _parse_mode_line}


def _parse_def_line(line: str, lineno: int, raw: str, scope: _Scope) -> None:
    m = re.match(r'def\s+([A-Za-z_][A-Za-z0-9_]*)\s*("(?:[^"\\]|\\.)*")\s*:=(.*)$',
                 line)
    if m is None:
        raise ParseError(lineno, 1, "expected 'def name \"text\" := expr'", raw)
    name, text, expr_text = m.groups()
    cur = _Cursor(expr_text, lineno, raw)
    expr = _parse_expr(cur, scope)
    cur.finish()
    scope.definitions.append(Definition(name, _unquote(text), expr))
    scope.definition_names.add(name)


def _parse_req_line(line: str, lineno: int, raw: str, scope: _Scope) -> None:
    m = re.match(r'req\s+(\S+)\s+("(?:[^"\\]|\\.)*")\s+(\w+)(.*)$', line)
    if m is None:
        raise ParseError(lineno, 1, "expected 'req id \"title\" TEMPLATE ...'", raw)
    req_id, title_tok, template_word, rest = m.groups()
    try:
        template = Template(template_word)
    except ValueError:
        raise ParseError(lineno, 1, f"unknown requirement template {template_word!r}",
                         raw) from None
    title = _unquote(title_tok)
    cur = _Cursor(rest, lineno, raw)

    if template is EVERY:
        req = Requirement(req_id, title, template,
                          required=_parse_expr(cur, scope))
    elif template is WHEN:
        guard = _parse_expr(cur, scope)
        cur.expect("=>")
        req = Requirement(req_id, title, template, guard=guard,
                          required=_parse_expr(cur, scope))
    elif template is TRIGGER_ON_EVENT:
        guard = _parse_expr(cur, scope)
        cur.expect("=>")
        effects = _parse_assignments(cur, scope)
        required = _parse_expr(cur, scope) if cur.accept("require") else None
        req = Requirement(req_id, title, template, guard=guard, effects=effects,
                          required=required)
    else:  # MODE_SET
        component = cur.name()
        if not cur.accept("exclusive"):
            raise cur.error(f"mode-set on {component!r} must be 'exclusive'")
        req = Requirement(req_id, title, template, component=component)
    cur.finish()
    scope.requirements.append(req)


def parse_model(text: str) -> RequirementsModel:
    """Parse ``.req`` text into a validated requirements model."""
    scope = _Scope()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head in _DICTIONARY_LINES:
            cur = _Cursor(line[len(head):], lineno, raw)
            _DICTIONARY_LINES[head](cur, scope)
            cur.finish()
        elif head == "def":
            _parse_def_line(line, lineno, raw, scope)
        elif head == "req":
            _parse_req_line(line, lineno, raw, scope)
        else:
            raise ParseError(lineno, 1, f"unknown directive {head!r}", raw)
    model = RequirementsModel(
        dictionary=DataDictionary(
            types=tuple(scope.types), signals=tuple(scope.signals),
            modes=tuple(scope.modes)),
        definitions=tuple(scope.definitions),
        requirements=tuple(scope.requirements),
    )
    model.validate()
    return model


# --- serialization ------------------------------------------------------------

def _lit_text(value) -> str:
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_expr(expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Lit):
        return _lit_text(expr.value)
    if isinstance(expr, SigRead):
        return expr.name
    if isinstance(expr, DefRef):
        return expr.name
    if isinstance(expr, ModeActive):
        return f"mode({expr.component}.{expr.mode}) at {expr.at}"
    if isinstance(expr, Not):
        text = f"not {render_expr(expr.operand, _NOT_PRECEDENCE)}"
        return f"({text})" if _NOT_PRECEDENCE < parent_prec else text
    if isinstance(expr, BoolOp):
        # each operand one level tighter, so a nested chain keeps its brackets
        prec = _PRECEDENCE[expr.op]
        text = f" {expr.op} ".join(render_expr(o, prec + 1) for o in expr.operands)
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, BinOp):
        prec = _PRECEDENCE[expr.op]
        # comparisons do not chain: both operands sit one level tighter; the
        # parser nests sums to the left
        left_prec = prec + 1 if prec == _COMPARISON_PRECEDENCE else prec
        text = (f"{render_expr(expr.left, left_prec)} {expr.op} "
                f"{render_expr(expr.right, prec + 1)}")
        return f"({text})" if prec < parent_prec else text
    raise ValueError(f"cannot render {expr!r}")


def _render_assignment(a) -> str:
    if isinstance(a, ModeAssign):
        return f"{a.component} := {a.mode}"
    return f"{a.name} := {render_expr(a.expr)}"


def _render_requirement(req: Requirement) -> str:
    head = f"req {req.req_id} {_quote(req.title)} {req.template.value}"
    if req.template is EVERY:
        return f"{head} {render_expr(req.required)}"
    if req.template is WHEN:
        return (f"{head} {render_expr(req.guard)} => "
                f"{render_expr(req.required)}")
    if req.template is TRIGGER_ON_EVENT:
        parts = [f"{head} {render_expr(req.guard)} =>",
                 ", ".join(_render_assignment(a) for a in req.effects)]
        if req.required is not None:
            parts.append(f"require {render_expr(req.required)}")
        return " ".join(parts)
    return f"{head} {req.component} exclusive"


def serialize_model(model: RequirementsModel) -> str:
    """Render a model in declaration-before-use order; the exact inverse of
    :func:`parse_model` on well-formed models."""
    lines: list[str] = []
    for t in model.dictionary.types:
        if isinstance(t, EnumType):
            lines.append(f"type {t.name} enum {{ {' '.join(t.members)} }}")
        else:
            lines.append(f"type {t.name} bool")
    for s in model.dictionary.signals:
        opts = ""
        if s.minimum is not None:
            opts += f" min={_lit_text(s.minimum)}"
        if s.maximum is not None:
            opts += f" max={_lit_text(s.maximum)}"
        if s.initial is not None:
            opts += f" init={_lit_text(s.initial)}"
        lines.append(f"signal {s.name} : {s.type_name}{opts}")
    for m in model.dictionary.modes:
        init = f" init={m.initial}" if m.initial is not None else ""
        lines.append(f"mode {m.name} {{ {' '.join(m.modes)} }} exclusive{init}")
    for d in model.definitions:
        lines.append(f"def {d.name} {_quote(d.text)} := {render_expr(d.expr)}")
    for req in model.requirements:
        lines.append(_render_requirement(req))
    return "\n".join(lines) + "\n"
