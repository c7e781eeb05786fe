"""The ``.req`` text form of a requirements model.

One record per line, ``#`` comments::

    type Event enum { CONT ERROR }
    const PACKET_LENGTH : int = 3
    signal bytes_sent : int min=0 max=3 init=0
    mode fsm { start get_cmd } exclusive init=start
    def from_start "The fsm is in state start ..." := mode(fsm.start) at start
    req 0.00 "start to get_cmd" trigger from_start and current_event = CONT
        => fsm := get_cmd

Expressions are infix with ``and``/``or``/``not``, comparisons, arithmetic,
and ``mode(C.M) at start|end``; a name declared by ``def`` refers to that
definition.  A run of ``and`` (or of
``or``) parses to one n-ary ``BoolOp``; a parenthesised run stays a nested
node, and the serializer parenthesises it again.  Records must be declared
before use, which is the order the serializer emits.
"""

from __future__ import annotations

import re

from ..specio import ParseError
from .expr import (
    BinOp,
    BoolOp,
    DefRef,
    Lit,
    ModeActive,
    Not,
    SigRead,
)
from .model import (
    BoolType,
    CaseBranch,
    ConstantDef,
    DataDictionary,
    Definition,
    EnumType,
    IntType,
    ModeAssign,
    ModeComponent,
    Requirement,
    RequirementsModel,
    SignalAssign,
    SignalDef,
    Template,
)

REQ_EXTENSION = ".req"

_TOKEN_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"'
    r"|:=|=>|!=|<=|>=|[(){}\[\],.|]"
    r"|[=<>+*:]|-"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|\d+"
)


class _Scope:
    """Name resolution tables built up while reading the file top to bottom."""

    def __init__(self) -> None:
        self.types: list = []
        self.constants: list[ConstantDef] = []
        self.signals: list[SignalDef] = []
        self.modes: list[ModeComponent] = []
        self.definitions: list[Definition] = []
        self.requirements: list[Requirement] = []
        self.value_names: set[str] = set()      # signals + constants
        self.enum_members: set[str] = set()
        self.component_names: set[str] = set()
        self.definition_names: set[str] = set()


class _Cursor:
    def __init__(self, tokens: list[str], lineno: int, raw: str):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.raw = raw

    def error(self, message: str) -> ParseError:
        return ParseError(self.lineno, 1, message, self.raw)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of line")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.next()
        if tok != token:
            raise self.error(f"expected {token!r}, got {tok!r}")

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def _is_name(token: str | None) -> bool:
    return bool(token) and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", token) is not None


def _unquote(token: str) -> str:
    return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _parse_int(cur: _Cursor) -> int:
    neg = cur.accept("-")
    tok = cur.next()
    if not tok.isdigit():
        raise cur.error(f"expected an integer, got {tok!r}")
    return -int(tok) if neg else int(tok)


def _parse_literal_token(cur: _Cursor, scope: _Scope):
    tok = cur.peek()
    if tok == "true":
        cur.next()
        return True
    if tok == "false":
        cur.next()
        return False
    if tok == "nil":
        cur.next()
        return None
    if tok is not None and (tok.isdigit() or tok == "-"):
        return _parse_int(cur)
    name = cur.next()
    if not _is_name(name):
        raise cur.error(f"expected a literal, got {name!r}")
    return name


# --- expressions -------------------------------------------------------------

def _parse_chain(op: str, parse_operand, cur: _Cursor, scope: _Scope):
    """A run of ``op`` as one n-ary node; a single operand is itself."""
    operands = [parse_operand(cur, scope)]
    while cur.accept(op):
        operands.append(parse_operand(cur, scope))
    return operands[0] if len(operands) == 1 else BoolOp(op, tuple(operands))


def _parse_expr(cur: _Cursor, scope: _Scope):
    return _parse_chain("or", _parse_and, cur, scope)


def _parse_and(cur, scope):
    return _parse_chain("and", _parse_not, cur, scope)


def _parse_not(cur, scope):
    if cur.accept("not"):
        return Not(_parse_not(cur, scope))
    return _parse_comparison(cur, scope)


def _parse_comparison(cur, scope):
    left = _parse_additive(cur, scope)
    tok = cur.peek()
    if tok in ("=", "!=", "<", "<=", ">", ">="):
        cur.next()
        return BinOp(tok, left, _parse_additive(cur, scope))
    return left


def _parse_additive(cur, scope):
    left = _parse_term(cur, scope)
    while cur.peek() in ("+", "-"):
        op = cur.next()
        left = BinOp(op, left, _parse_term(cur, scope))
    return left


def _parse_term(cur, scope):
    left = _parse_factor(cur, scope)
    while cur.peek() == "*":
        cur.next()
        left = BinOp("*", left, _parse_factor(cur, scope))
    return left


def _parse_mode_op(cur: _Cursor, scope: _Scope):
    cur.expect("(")
    component = cur.next()
    if component not in scope.component_names:
        raise cur.error(f"unknown mode component {component!r}")
    cur.expect(".")
    mode = cur.next()
    cur.expect(")")
    tok = cur.next()
    if tok != "at":
        raise cur.error(f"expected 'at' after mode(), got {tok!r}")
    at = cur.next()
    if at not in ("start", "end"):
        raise cur.error(f"expected 'start' or 'end', got {at!r}")
    return ModeActive(component, mode, at)


def _parse_factor(cur: _Cursor, scope: _Scope):
    tok = cur.peek()
    if tok is None:
        raise cur.error("unexpected end of expression")
    if tok == "(":
        cur.next()
        inner = _parse_expr(cur, scope)
        cur.expect(")")
        return inner
    if tok == "mode":
        cur.next()
        return _parse_mode_op(cur, scope)
    if tok == "true":
        cur.next()
        return Lit(True)
    if tok == "false":
        cur.next()
        return Lit(False)
    if tok == "nil":
        cur.next()
        return Lit(None)
    if tok.isdigit():
        cur.next()
        return Lit(int(tok))
    if tok == "-":
        cur.next()
        num = cur.next()
        if not num.isdigit():
            raise cur.error(f"expected a number after '-', got {num!r}")
        return Lit(-int(num))
    if _is_name(tok):
        cur.next()
        if tok in scope.value_names:
            return SigRead(tok)
        if tok in scope.enum_members:
            return Lit(tok)
        if tok in scope.definition_names:
            return DefRef(tok)
        raise cur.error(f"unknown name {tok!r}")
    raise cur.error(f"unexpected token {tok!r}")


def _parse_assignments(cur: _Cursor, scope: _Scope) -> tuple:
    """``target := expr`` pairs separated by commas; a mode component on the
    left makes it a mode assignment."""
    out = []
    while True:
        target = cur.next()
        cur.expect(":=")
        if target in scope.component_names:
            mode = cur.next()
            out.append(ModeAssign(target, mode))
        else:
            out.append(SignalAssign(target, _parse_expr(cur, scope)))
        if not cur.accept(","):
            return tuple(out)


# --- line parsers -------------------------------------------------------------

def _parse_type_line(cur: _Cursor, scope: _Scope) -> None:
    name = cur.next()
    kind = cur.next()
    if kind == "enum":
        cur.expect("{")
        members = []
        while not cur.accept("}"):
            members.append(cur.next())
        t = EnumType(name, tuple(members))
        scope.enum_members.update(members)
    elif kind == "int":
        lo = hi = None
        if cur.accept("["):
            lo = _parse_int(cur)
            cur.expect(",")
            hi = _parse_int(cur)
            cur.expect("]")
        t = IntType(name, lo, hi)
    elif kind == "bool":
        t = BoolType(name)
    else:
        raise cur.error(f"unknown type kind {kind!r}")
    scope.types.append(t)


def _parse_trailing_options(cur: _Cursor, scope: _Scope,
                            allowed: tuple[str, ...]) -> dict:
    out: dict[str, object] = {}
    while not cur.done():
        key = cur.next()
        if key not in allowed:
            raise cur.error(f"unexpected option {key!r}")
        cur.expect("=")
        out[key] = _parse_literal_token(cur, scope)
    return out


def _parse_const_line(cur: _Cursor, scope: _Scope) -> None:
    name = cur.next()
    cur.expect(":")
    type_name = cur.next()
    cur.expect("=")
    value = _parse_literal_token(cur, scope)
    opts = _parse_trailing_options(cur, scope, ("min", "max", "tol"))
    scope.constants.append(ConstantDef(
        name, type_name, value,
        minimum=opts.get("min"), maximum=opts.get("max"),
        tolerance=opts.get("tol")))
    scope.value_names.add(name)


def _parse_signal_line(cur: _Cursor, scope: _Scope) -> None:
    name = cur.next()
    cur.expect(":")
    type_name = cur.next()
    opts = _parse_trailing_options(cur, scope, ("min", "max", "init"))
    scope.signals.append(SignalDef(
        name, type_name,
        minimum=opts.get("min"), maximum=opts.get("max"),
        initial=opts.get("init")))
    scope.value_names.add(name)


def _parse_mode_line(cur: _Cursor, scope: _Scope) -> None:
    name = cur.next()
    cur.expect("{")
    modes = []
    while not cur.accept("}"):
        modes.append(cur.next())
    exclusive = cur.accept("exclusive")
    initial = None
    if cur.accept("init"):
        cur.expect("=")
        initial = cur.next()
    scope.modes.append(ModeComponent(name, tuple(modes), exclusive, initial))
    scope.component_names.add(name)


def _parse_def_line(line: str, lineno: int, scope: _Scope) -> None:
    m = re.match(r'def\s+([A-Za-z_]\w*)\s*("(?:[^"\\]|\\.)*")\s*:=\s*(.+)$', line)
    if m is None:
        raise ParseError(lineno, 1, "expected 'def name \"text\" := expr'", line)
    name, text, expr_text = m.groups()
    cur = _Cursor(_tokens(expr_text), lineno, line)
    expr = _parse_expr(cur, scope)
    if not cur.done():
        raise cur.error(f"trailing tokens after expression: {cur.peek()!r}")
    scope.definitions.append(Definition(name, _unquote(text), expr))
    scope.definition_names.add(name)


def _parse_req_line(line: str, lineno: int, scope: _Scope) -> None:
    m = re.match(r'req\s+(\S+)\s+("(?:[^"\\]|\\.)*")\s+(\w+)\s*(.*)$', line)
    if m is None:
        raise ParseError(lineno, 1, "expected 'req id \"title\" TEMPLATE ...'", line)
    req_id, title_tok, template_word, rest = m.groups()
    try:
        template = Template(template_word)
    except ValueError:
        raise ParseError(lineno, 1, f"unknown requirement template {template_word!r}",
                         line) from None
    title = _unquote(title_tok)
    cur = _Cursor(_tokens(rest), lineno, line)

    if template is Template.EVERY:
        req = Requirement(req_id, title, template,
                          required=_parse_expr(cur, scope))
    elif template is Template.WHEN:
        guard = _parse_expr(cur, scope)
        cur.expect("=>")
        req = Requirement(req_id, title, template, guard=guard,
                          required=_parse_expr(cur, scope))
    elif template is Template.TRIGGER_ON_EVENT:
        guard = _parse_expr(cur, scope)
        cur.expect("=>")
        effects = _parse_assignments(cur, scope)
        required = None
        within = None
        if cur.accept("require"):
            required = _parse_expr(cur, scope)
        if cur.accept("within"):
            within = _parse_int(cur)
        req = Requirement(req_id, title, template, guard=guard, effects=effects,
                          required=required, within=within)
    elif template is Template.MODE_SET:
        component = cur.next()
        if not cur.accept("exclusive"):
            raise cur.error(f"mode-set on {component!r} must be 'exclusive'")
        req = Requirement(req_id, title, template, component=component)
    else:  # CASE
        branches = []
        while True:
            guard = _parse_expr(cur, scope)
            cur.expect("=>")
            branches.append(CaseBranch(guard, _parse_assignments(cur, scope)))
            if not cur.accept("|"):
                break
        req = Requirement(req_id, title, template, branches=tuple(branches))

    if not cur.done():
        raise cur.error(f"trailing tokens: {cur.peek()!r}")
    scope.requirements.append(req)


def parse_model(text: str) -> RequirementsModel:
    """Parse ``.req`` text into a validated requirements model."""
    scope = _Scope()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):].strip()
        cur = _Cursor(_tokens(rest), lineno, raw)
        if head == "type":
            _parse_type_line(cur, scope)
        elif head == "const":
            _parse_const_line(cur, scope)
        elif head == "signal":
            _parse_signal_line(cur, scope)
        elif head == "mode":
            _parse_mode_line(cur, scope)
        elif head == "def":
            _parse_def_line(line, lineno, scope)
        elif head == "req":
            _parse_req_line(line, lineno, scope)
        else:
            raise ParseError(lineno, 1, f"unknown directive {head!r}", raw)
        if head in ("type", "const", "signal", "mode") and not cur.done():
            raise cur.error(f"trailing tokens: {cur.peek()!r}")
    model = RequirementsModel(
        dictionary=DataDictionary(
            types=tuple(scope.types), constants=tuple(scope.constants),
            signals=tuple(scope.signals), modes=tuple(scope.modes)),
        definitions=tuple(scope.definitions),
        requirements=tuple(scope.requirements),
    )
    model.validate()
    return model


# --- serialization ------------------------------------------------------------

_PRECEDENCE = {"or": 1, "and": 2, "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4,
               ">=": 4, "+": 5, "-": 5, "*": 6}
_NOT_PRECEDENCE = 3
_COMPARISON_PRECEDENCE = 4


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
        # parser nests arithmetic to the left
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
    if req.template is Template.EVERY:
        return f"{head} {render_expr(req.required)}"
    if req.template is Template.WHEN:
        return (f"{head} {render_expr(req.guard)} => "
                f"{render_expr(req.required)}")
    if req.template is Template.TRIGGER_ON_EVENT:
        parts = [f"{head} {render_expr(req.guard)} =>",
                 ", ".join(_render_assignment(a) for a in req.effects)]
        if req.required is not None:
            parts.append(f"require {render_expr(req.required)}")
        if req.within is not None:
            parts.append(f"within {req.within}")
        return " ".join(parts)
    if req.template is Template.MODE_SET:
        return f"{head} {req.component} exclusive"
    branches = " | ".join(
        f"{render_expr(b.guard)} => "
        + ", ".join(_render_assignment(a) for a in b.effects)
        for b in req.branches)
    return f"{head} {branches}"


def serialize_model(model: RequirementsModel) -> str:
    """Render a model in declaration-before-use order; the exact inverse of
    :func:`parse_model` on well-formed models."""
    lines: list[str] = []
    for t in model.dictionary.types:
        if isinstance(t, EnumType):
            lines.append(f"type {t.name} enum {{ {' '.join(t.members)} }}")
        elif isinstance(t, IntType):
            bounds = f" [{t.lo}, {t.hi}]" if t.lo is not None or t.hi is not None else ""
            lines.append(f"type {t.name} int{bounds}")
        else:
            lines.append(f"type {t.name} bool")
    for c in model.dictionary.constants:
        opts = ""
        if c.minimum is not None:
            opts += f" min={_lit_text(c.minimum)}"
        if c.maximum is not None:
            opts += f" max={_lit_text(c.maximum)}"
        if c.tolerance is not None:
            opts += f" tol={_lit_text(c.tolerance)}"
        lines.append(f"const {c.name} : {c.type_name} = {_lit_text(c.value)}{opts}")
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
        exclusive = " exclusive" if m.exclusive else ""
        init = f" init={m.initial}" if m.initial is not None else ""
        lines.append(f"mode {m.name} {{ {' '.join(m.modes)} }}{exclusive}{init}")
    for d in model.definitions:
        lines.append(f"def {d.name} {_quote(d.text)} := {render_expr(d.expr)}")
    for req in model.requirements:
        lines.append(_render_requirement(req))
    return "\n".join(lines) + "\n"
