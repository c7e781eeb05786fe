"""Source rules checked over every module of the package with ``ast``.

Function bodies test state kinds and requirement templates against plain
module globals (``fsm.KIND_*``, ``reqs.model``'s ``EVERY`` ...), never as
``StateKind.SEND`` or ``Template.WHEN``: on CPython 3.11 ``EnumType``
defines ``__getattr__``, so such a load takes the slow attribute path.
Module-level code, which runs once, may load them.  Every dataclass and
every ``NamedTuple`` class has a docstring: without one, Python 3.11's
``dataclass`` computes ``inspect.signature`` of the class at import to make
one, and a named tuple gets only its field list.  Every dataclass is listed
in ``DATACLASSES`` with the features it needs that a named tuple lacks;
any other record is a ``NamedTuple``, which a cold import creates several
times faster.  No ``NamedTuple`` field defaults to a mutable literal:
unlike a dataclass, a named tuple accepts one silently and shares it
between all its instances.  Nor does a named tuple define ``__post_init__``
or default a field to ``field(...)``: it drops both without a word.  A
class that derives from a named tuple and defines ``__new__`` also defines
``_make``: the named tuple's ``_replace`` builds through ``_make``, whose
default calls ``tuple.__new__`` and skips that ``__new__``.  Every
exception class is raised somewhere in the package, or is the base of one
that is.  Only ``reqs/expr.py`` calls an expression node's constructor:
every other module builds nodes through a ``Nodes`` table, which decides
when two are one object.  Only ``trace.py`` builds a ``Trace``: its
``run_rounds`` is the one run loop both engines use.  No code applies
``tuple.__new__`` to ``ModelState`` outside ``opmodel._range_checked``,
the one function that range-checks its counters.  No function an
``__all__`` exports annotates a parameter with a private (``_``-prefixed)
name: a caller could not build that argument without reaching into the
module.  Every method a class defines, dunders aside, is read as an
attribute somewhere in the package."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import candofsm
from candofsm import opmodel
from candofsm.fsm import StateKind
from candofsm.reqs.model import Template

PACKAGE = Path(candofsm.__file__).resolve().parent
MEMBERS = {"StateKind": set(StateKind.__members__),
           "Template": set(Template.__members__)}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _name(node) -> str | None:
    """The last name of ``X`` or ``a.b.X``."""
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


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
            name = _name(node.value)
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


def is_named_tuple(node: ast.ClassDef) -> bool:
    return any(_name(base) == "NamedTuple" for base in node.bases)


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_and_named_tuple_has_a_docstring():
    undocumented = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.name}"
        for path in modules()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None
        and (is_named_tuple(node) or is_dataclass(node))]
    assert undocumented == []


# Each dataclass in the package and the features a named tuple lacks that
# it needs.  A record that needs none of them is a ``NamedTuple``: creating a
# frozen dataclass costs a cold import several times as much.  A named tuple
# subclass without ``__slots__`` keeps an instance ``__dict__`` for cached
# values, and explicit ``__eq__`` and ``__ne__`` keep a node equal only to
# its own type, so neither of those makes a dataclass.
DATACLASSES = {
    "SpecDocument": "dict defaults made fresh per instance, and "
                    "dataclasses.replace in perfbench/workloads.py",
}


def dataclass_names(source: str) -> list[str]:
    """The name of each class that a ``dataclass`` decorator, with or
    without arguments, makes a dataclass."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and is_dataclass(node)]


def test_the_check_finds_each_form_of_dataclass():
    source = ("@dataclass\n"
              "class Bare: pass\n"
              "@dataclass(frozen=True, slots=True)\n"
              "class Called: pass\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class Qualified: pass\n"
              "class Row(NamedTuple): pass\n"
              "@functools.total_ordering\n"
              "class Ordered: pass\n")
    assert dataclass_names(source) == ["Bare", "Called", "Qualified"]


def test_every_dataclass_is_listed_with_the_feature_it_needs():
    found = [name for path in modules()
             for name in dataclass_names(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(DATACLASSES)


MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_FACTORIES = {"dict", "list", "set"}


def named_tuple_pitfalls(source: str) -> list[tuple[int, str]]:
    """(line, ``Class.field``) for each ``NamedTuple`` field whose default
    is a mutable literal, a ``dict()``, ``list()`` or ``set()`` call, or a
    dataclass ``field(...)``, and (line, ``Class.__post_init__``) for each
    ``__post_init__`` a named tuple defines: it never calls one."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and is_named_tuple(cls)):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__":
                found.append((stmt.lineno, f"{cls.name}.__post_init__"))
            value = stmt.value if isinstance(stmt, ast.AnnAssign) else None
            if isinstance(value, MUTABLE_LITERALS) or (
                    isinstance(value, ast.Call)
                    and _name(value.func) in MUTABLE_FACTORIES | {"field"}):
                found.append((stmt.lineno, f"{cls.name}.{stmt.target.id}"))
    return found


def test_the_check_finds_a_mutable_named_tuple_default():
    source = ("class TraceRow(NamedTuple):\n"
              "    round: int\n"
              "    attribution: Mapping = {}\n"
              "class Other(typing.NamedTuple):\n"
              "    empty: tuple = ()\n"
              "    seen: frozenset = frozenset()\n"
              "    read_only: Mapping = MappingProxyType({})\n"
              "    ids: list = []\n"
              "    bag: set = set()\n"
              "    table: dict = dict(a=1)\n"
              "@dataclass(frozen=True)\n"
              "class Record:\n"
              "    items: list = field(default_factory=list)\n"
              "    table: dict = {}\n")
    assert named_tuple_pitfalls(source) == [
        (3, "TraceRow.attribution"), (8, "Other.ids"), (9, "Other.bag"),
        (10, "Other.table")]


def test_the_check_finds_a_dataclass_feature_that_a_named_tuple_drops():
    source = ("class Record(NamedTuple):\n"
              "    name: str\n"
              "    items: tuple = field(default_factory=tuple)\n"
              "    count: int = dataclasses.field(default=0)\n"
              "    def __post_init__(self):\n"
              "        raise ValueError\n"
              "@dataclass(frozen=True)\n"
              "class Checked:\n"
              "    items: tuple = field(default_factory=tuple)\n"
              "    def __post_init__(self): pass\n")
    assert named_tuple_pitfalls(source) == [
        (3, "Record.items"), (4, "Record.count"), (5, "Record.__post_init__")]


def test_no_named_tuple_field_defaults_to_a_mutable_literal():
    offences = [f"{path.relative_to(PACKAGE)}:{line}: {field}"
                for path in modules()
                for line, field in named_tuple_pitfalls(
                    path.read_text(encoding="utf-8"))]
    assert offences == []


def _defines(cls: ast.ClassDef, name: str) -> bool:
    return any(isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == name
               for fn in cls.body)


def news_without_make(sources: list[str]) -> list[str]:
    """The name of each class in ``sources`` that derives from a named
    tuple, directly or through other classes in ``sources``, and defines
    ``__new__`` but not ``_make``.  Classes are matched to bases by name."""
    classes = [node for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    bases = {cls.name: {_name(b.func if isinstance(b, ast.Call) else b)
                        for b in cls.bases} for cls in classes}
    tuples = {"NamedTuple", "namedtuple"}
    while more := {name for name, of in bases.items() if of & tuples} - tuples:
        tuples |= more
    return sorted(cls.name for cls in classes if bases[cls.name] & tuples
                  and _defines(cls, "__new__") and not _defines(cls, "_make"))


def test_the_check_finds_a_named_tuple_new_without_make():
    source = ("class Fields(NamedTuple):\n"
              "    a: int\n"
              "class Checked(Fields):\n"
              "    def __new__(cls, a): return tuple.__new__(cls, (a,))\n"
              "    @classmethod\n"
              "    def _make(cls, iterable): return cls(*iterable)\n"
              "class Unchecked(Fields):\n"
              "    def __new__(cls, a): return tuple.__new__(cls, (a,))\n"
              "class Deeper(Unchecked):\n"
              "    def __new__(cls, a): return Unchecked.__new__(cls, a)\n"
              "class Factory(collections.namedtuple('P', 'a')):\n"
              "    def __new__(cls, a): return super().__new__(cls, a)\n"
              "class Plain(typing.NamedTuple):\n"
              "    a: int\n"
              "class Other:\n"
              "    def __new__(cls): return object.__new__(cls)\n")
    assert news_without_make([source]) == ["Deeper", "Factory", "Unchecked"]


def test_every_named_tuple_new_has_a_make():
    assert news_without_make(
        [path.read_text(encoding="utf-8") for path in modules()]) == []


def unraised_exceptions(sources: list[str]) -> list[str]:
    """The exception classes defined in ``sources`` that none of them
    raises, either directly or by raising a subclass."""
    bases: dict[str, set] = {}
    raised: set = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(b) for b in node.bases}
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                raised.add(_name(exc.func if isinstance(exc, ast.Call) else exc))

    def is_exception(name) -> bool:
        if name in bases:
            return any(is_exception(b) for b in bases[name])
        found = getattr(builtins, name or "", None)
        return isinstance(found, type) and issubclass(found, BaseException)

    live, todo = set(), list(raised)
    while todo:
        name = todo.pop()
        if name in bases and name not in live:
            live.add(name)
            todo.extend(bases[name])
    return sorted(name for name in bases if is_exception(name) and name not in live)


def test_the_check_finds_an_exception_nothing_raises():
    source = ("class Base(Exception): pass\n"
              "class Raised(Base): pass\n"
              "class Unused(Base): pass\n"
              "class Plain: pass\n"
              "class Other(ValueError): pass\n"
              "def f():\n"
              "    raise errors.Raised('x') from None\n")
    assert unraised_exceptions([source]) == ["Other", "Unused"]


def test_every_exception_class_is_raised():
    assert unraised_exceptions(
        [path.read_text(encoding="utf-8") for path in modules()]) == []


NODE_TYPES = {"Lit", "SigRead", "ModeActive", "DefRef", "Not", "BoolOp", "BinOp"}
NODE_HOME = PACKAGE / "reqs" / "expr.py"
TRACE_HOME = PACKAGE / "trace.py"


def constructor_calls(source: str, types: set[str]) -> list[tuple[int, str]]:
    """(line, type) for each call of the constructor of one of ``types``."""
    return sorted((node.lineno, _name(node.func)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _name(node.func) in types)


def calls_outside(home: Path, types: set[str]) -> list[str]:
    """``module:line: type`` for each such call in a module other than ``home``."""
    return [f"{path.relative_to(PACKAGE)}:{line}: {name}"
            for path in modules() if path != home
            for line, name in constructor_calls(path.read_text(encoding="utf-8"), types)]


def test_the_check_finds_a_direct_node_constructor_call():
    source = ("def f(left, right, nodes):\n"
              "    if isinstance(left, BinOp):\n"
              "        return nodes.binop('+', left, right)\n"
              "    return expr.Not(BinOp('=', left, right))\n")
    assert constructor_calls(source, NODE_TYPES) == [(4, "BinOp"), (4, "Not")]


def test_only_the_expression_module_calls_a_node_constructor():
    assert calls_outside(NODE_HOME, NODE_TYPES) == []


def test_the_check_finds_a_trace_built_outside_the_run_loop():
    source = ("def run(rows, violations):\n"
              "    if isinstance(rows, Trace):\n"
              "        return rows\n"
              "    return trace.Trace(tuple(rows), 'c', 'ops', 'budget', violations)\n")
    assert constructor_calls(source, {"Trace"}) == [(4, "Trace")]


def test_only_the_trace_module_builds_a_trace():
    # a second run loop would build its own Trace; run_rounds is the one
    assert calls_outside(TRACE_HOME, {"Trace"}) == []


# the one function that range-checks a ModelState's counters and builds it
RANGE_CHECK = "_range_checked"


def _is_tuple_new(func) -> bool:
    return _name(func) == "_tuple_new" or (
        isinstance(func, ast.Attribute) and func.attr == "__new__"
        and _name(func.value) == "tuple")


def unchecked_model_states(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) for each ``tuple.__new__`` or
    ``_tuple_new`` applied to ``ModelState`` outside :data:`RANGE_CHECK`;
    module-level code is ``<module>``."""
    found = []

    def visit(node, where: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _is_tuple_new(child.func) \
                    and child.args and _name(child.args[0]) == "ModelState" \
                    and RANGE_CHECK not in where:
                found.append((child.lineno, where[-1] if where else "<module>"))
            inner = (*where, child.name) if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)
    visit(ast.parse(source), ())
    return sorted(found)


def test_the_check_finds_a_model_state_built_past_the_range_checks():
    source = ("def _range_checked(cls, cells):\n"
              "    return _tuple_new(ModelState, cells)\n"
              "def step(m, cells):\n"
              "    n = _range_checked(ModelState, cells)\n"
              "    return _tuple_new(StepOutcome, (n, 'idle', ()))\n"
              "def fast(m):\n"
              "    return _tuple_new(ModelState, tuple(m))\n"
              "class Fast:\n"
              "    def build(self, cells):\n"
              "        return tuple.__new__(opmodel.ModelState, cells)\n"
              "ZERO = tuple.__new__(ModelState, CELLS)\n")
    assert unchecked_model_states(source) == [(7, "fast"), (10, "build"), (11, "<module>")]


def test_every_model_state_is_range_checked():
    # a round's fast path builds through the range checks, or not at all
    assert callable(getattr(opmodel, RANGE_CHECK))
    assert [f"{path.relative_to(PACKAGE)}:{line}: {where}"
            for path in modules()
            for line, where in unchecked_model_states(path.read_text(encoding="utf-8"))] \
        == []


def _defined(stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _loads(node) -> set[str]:
    """Every name ``node`` loads, as a name or an attribute, or imports."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found.update(alias.name for alias in n.names)
    return found


def unreached_names(sources: dict[str, str], entry_points=()) -> list[str]:
    """``module.name`` for each top-level name defined in ``sources``
    (module -> source) that no root reaches.  The roots are
    ``entry_points``, the names an ``__all__`` lists and every name that
    other module-level code, imports included, loads; a definition reaches
    every name its own code loads.  Names are matched by identifier alone,
    whichever module defines them."""
    loads_of: dict[str, list[set[str]]] = {}
    defined: list[tuple[str, str]] = []
    roots = set(entry_points)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = _defined(stmt)
            if names == ["__all__"]:
                roots.update(n.value for n in ast.walk(stmt.value)
                             if isinstance(n, ast.Constant))
            elif names:
                for name in names:
                    loads_of.setdefault(name, []).append(_loads(stmt))
                    defined.append((module, name))
            else:
                roots |= _loads(stmt)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for loads in loads_of.get(name, ()) for n in loads)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in reached and not name.startswith("__"))


def test_the_check_finds_a_name_nothing_reaches():
    sources = {
        "a": ("from .b import used\n"
              "__all__ = ['public']\n"
              "def public():\n"
              "    return _helper()\n"
              "def _helper():\n"
              "    return TABLE[0]\n"
              "TABLE = (1,)\n"
              "def dead():\n"
              "    return _only_dead()\n"
              "def _only_dead(): pass\n"
              "__version__ = '1'\n"),
        "b": ("import sys\n"
              "def used(): pass\n"
              "class Unused:\n"
              "    def method(self): return self.used\n"
              "sys.exit(main())\n"
              "def main(): pass\n"),
    }
    assert unreached_names(sources) == ["a._only_dead", "a.dead", "b.Unused"]
    assert unreached_names(sources, ["dead"]) == ["b.Unused"]


# ``reqs.text``'s reader and writer of the .req format: only tests call them
# until a CLI command reads or writes a model file
TEXT_ENTRY_POINTS = ["parse_model", "serialize_model"]


def test_every_top_level_name_is_reached():
    sources = {".".join(path.relative_to(PACKAGE).with_suffix("").parts):
               path.read_text(encoding="utf-8") for path in modules()}
    assert unreached_names(sources, TEXT_ENTRY_POINTS) == []
    # the exception holds only while nothing else reaches them
    assert {f"reqs.text.{name}" for name in TEXT_ENTRY_POINTS} \
        <= set(unreached_names(sources))


def private_parameter_types(sources: list[str]) -> list[str]:
    """``function(parameter: name)`` for each parameter of a top-level
    function that an ``__all__`` in ``sources`` names, annotated with a
    private name.  Functions are matched to ``__all__`` by name alone."""
    exported = {n.value for source in sources for stmt in ast.parse(source).body
                if _defined(stmt) == ["__all__"]
                for n in ast.walk(stmt.value) if isinstance(n, ast.Constant)}
    found = []
    for source in sources:
        for fn in ast.parse(source).body:
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name in exported):
                continue
            a = fn.args
            for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg):
                annotation = arg and arg.annotation
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    annotation = ast.parse(annotation.value, mode="eval")
                names = {_name(n) for n in ast.walk(annotation)} if annotation else set()
                found += [f"{fn.name}({arg.arg}: {name})" for name in sorted(
                    n for n in names if n and n.startswith("_") and not n.startswith("__"))]
    return found


def test_the_check_finds_a_private_parameter_type_on_an_exported_function():
    sources = [
        ("__all__ = ['build', 'run', 'Table']\n"
         "from .gen import build\n"),
        ("class _Table: pass\n"
         "def build(spec: Spec, nodes: _Table, *rest: tuple[mod._Row], **kw) -> _Table:\n"
         "    def inner(x: _Table): pass\n"
         "def run(spec: 'Spec', table: 'dict[str, _Table]', __x: __Dunder): pass\n"
         "def helper(nodes: _Table): pass\n"
         "def _private(nodes: _Table): pass\n"),
    ]
    assert private_parameter_types(sources) == [
        "build(nodes: _Table)", "build(rest: _Row)", "run(table: _Table)"]


def test_no_exported_function_takes_a_private_parameter_type():
    assert private_parameter_types(
        [path.read_text(encoding="utf-8") for path in modules()]) == []


def unread_methods(sources: list[str]) -> list[str]:
    """``Class.method`` for each method a class in ``sources`` defines that
    no attribute load in ``sources`` reads.  Dunder methods, which Python
    calls itself, and ``_make``, which a named tuple's ``_replace`` calls,
    are left out.  Methods are matched to loads by name alone,
    whichever object the load reads from."""
    defined, read = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                defined += [(node.name, fn.name) for fn in node.body
                            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{cls}.{name}" for cls, name in defined
                  if name not in read and name != "_make"
                  and not (name.startswith("__") and name.endswith("__")))


def test_the_check_finds_a_method_nothing_reads():
    sources = [
        ("class Plan:\n"
         "    def __init__(self): self.cache = {}\n"
         "    def lookup(self, key): return self._select(key)\n"
         "    def _select(self, key): pass\n"
         "    def candidates(self, key): return self.lookup(key)[:2]\n"
         "    @property\n"
         "    def size(self): return 0\n"
         "    def cache(self): pass\n"
         "    @classmethod\n"
         "    def _make(cls, iterable): pass\n"
         "    class Inner:\n"
         "        def unused(self): pass\n"),
        ("def run(plan):\n"
         "    plan.lookup(1)\n"
         "    return plan.size\n"),
    ]
    # a store, like ``self.cache = {}``, is not a read
    assert unread_methods(sources) == ["Inner.unused", "Plan.cache", "Plan.candidates"]


# ``EquivalenceReport.render_json``, the machine-readable form of a verdict:
# only tests call it until ``verify`` gains a JSON output
UNREAD_METHODS = ["EquivalenceReport.render_json"]


def test_every_method_is_read():
    unread = unread_methods([path.read_text(encoding="utf-8") for path in modules()])
    # the exception holds only while nothing reads it
    assert unread == UNREAD_METHODS
