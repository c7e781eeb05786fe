"""Source rules checked over every module of the package with ``ast``.

Function bodies test state kinds and requirement templates against plain
module globals (``fsm.KIND_*``, ``reqs.model``'s ``EVERY`` ...), never as
``StateKind.SEND`` or ``Template.WHEN``: on CPython 3.11 ``EnumType``
defines ``__getattr__``, so such a load takes the slow attribute path.
Module-level code, which runs once, may load them.  Every dataclass has a
docstring: without one, Python 3.11's ``dataclass`` computes
``inspect.signature`` of the class at import to make one."""

from __future__ import annotations

import ast
from pathlib import Path

import candofsm
from candofsm.fsm import StateKind
from candofsm.reqs.model import Template

PACKAGE = Path(candofsm.__file__).resolve().parent
MEMBERS = {"StateKind": set(StateKind.__members__),
           "Template": set(Template.__members__)}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def enum_member_loads(source: str) -> list[tuple[int, str]]:
    """(line, ``Enum.MEMBER``) for each member load inside a function body."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, FUNCTIONS):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        for node in (n for part in body for n in ast.walk(part)):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else \
                owner.attr if isinstance(owner, ast.Attribute) else None
            if node.attr in MEMBERS.get(name, ()):
                found.append((node.lineno, f"{name}.{node.attr}"))
    return sorted(set(found))


def modules() -> list[Path]:
    found = sorted(PACKAGE.rglob("*.py"))
    assert len(found) >= 10
    return found


def test_the_check_finds_a_member_load_in_a_function_body():
    source = ("KIND = StateKind.SEND\n"
              "def f(kind):\n"
              "    return kind is StateKind.SEND or (lambda: fsm.Template.WHEN)\n")
    assert enum_member_loads(source) == [(3, "StateKind.SEND"), (3, "Template.WHEN")]


def test_no_function_body_loads_a_state_kind_or_template_member():
    offences = [f"{path.relative_to(PACKAGE)}:{line}: {load}"
                for path in modules()
                for line, load in enum_member_loads(path.read_text(encoding="utf-8"))]
    assert offences == []


def test_every_dataclass_has_a_docstring():
    undocumented = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.name}"
        for path in modules()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]
    assert undocumented == []
