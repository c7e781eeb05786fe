"""Data dictionary, definitions, requirement templates and the round env."""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Mapping, NamedTuple

from ..fsm import refuse_assignment, refuse_duplicates
from .expr import BinOp, BoolOp, DefRef, Lit, ModeActive, Not, SigRead


class ModelError(Exception):
    """A structurally invalid requirements model."""


# The deepest expression validate accepts, counted in nodes from the root to
# a leaf with definitions inlined.  Compiling, evaluating and rendering an
# expression recurse once or twice per level, so this keeps them well inside
# Python's default limit of 1,000 frames.
MAX_DEPTH = 200


# On a scan's stack: the children of the node under this marker are done.
_DONE = object()
_LEAF = (False, 1)


def _check_text(text: str, where: str, slot: str) -> None:
    """Reject a title or definition text that the ``.req`` text cannot hold."""
    if "#" in text:
        raise ModelError(f"{where}: '#' in its {slot}")
    if "".join(text.splitlines()) != text:
        raise ModelError(f"{where}: line break in its {slot}")


def _scan(expr, where: str, facts: dict, visit, signals: set[str],
          modes: set[tuple[str, str]]) -> tuple[bool, int]:
    """The facts of ``expr``: whether evaluating it can read an end-of-round
    mode, and how deep it is with definitions inlined.  One post-order walk
    records them in ``facts``, by node id, for every node under ``expr`` it
    does not hold yet; a definition reference gets its body's facts from
    ``visit`` when it is met, so the parent's are known when its children
    are done.  Raises on the first fault in pre-order: an empty
    ``and``/``or`` chain, an unknown definition, a read of a signal not in
    ``signals`` or of a (component, mode) pair not in ``modes``, then an
    expression deeper than :data:`MAX_DEPTH`.  It keeps an explicit stack,
    so a deep tree stays clear of the recursion limit."""
    pending: list = [expr]
    while pending:
        node = pending.pop()
        if node is _DONE:
            node, children = pending.pop(), pending.pop()
            end, depth = False, 0
            for child in children:
                found = facts[id(child)]
                end = end or found[0]
                depth = found[1] if found[1] > depth else depth
            facts[id(node)] = end, depth + 1
            continue
        key = id(node)
        if key in facts:
            continue   # done already, under this root or another
        kind = type(node)
        if kind is Lit or kind is SigRead:
            if kind is SigRead and node.name not in signals:
                raise ModelError(f"{where}: read of unknown signal {node.name!r}")
            facts[key] = _LEAF
            continue
        if isinstance(node, BinOp):
            children = node.left, node.right
        elif isinstance(node, BoolOp):
            children = node.operands
            if not children:
                raise ModelError(f"{where}: empty {node.op!r} chain")
        elif isinstance(node, Not):
            children = (node.operand,)
        elif isinstance(node, DefRef):
            end, depth = visit(node.name, where)
            facts[key] = end, depth + 1
            continue
        else:
            mode_read = isinstance(node, ModeActive)
            if mode_read and (node.component, node.mode) not in modes:
                raise ModelError(f"{where}: read of unknown mode "
                                 f"{node.component}.{node.mode}")
            facts[key] = mode_read and node.at == "end", 1
            continue
        pending += (children, node, _DONE, *reversed(children))
    found = facts[id(expr)]
    if found[1] > MAX_DEPTH:
        raise ModelError(
            f"{where}: expression nested {found[1]} deep, deeper than {MAX_DEPTH}")
    return found


# --- data dictionary -------------------------------------------------------

class BoolType(NamedTuple):
    """A named boolean type."""

    name: str


class EnumType(NamedTuple):
    """A named enumeration and its members."""

    name: str
    members: tuple[str, ...]


class SignalDef(NamedTuple):
    """A signal: its type, optional bounds and initial value."""

    name: str
    type_name: str
    minimum: int | None = None
    maximum: int | None = None
    initial: object = None


class ModeComponent(NamedTuple):
    """An exclusive mode component: its modes and its initial mode."""

    name: str
    modes: tuple[str, ...]
    initial: str | None = None


class _DictionaryFields(NamedTuple):
    """:class:`DataDictionary`'s fields, in order, with their defaults."""

    types: tuple = ()
    signals: tuple[SignalDef, ...] = ()
    modes: tuple[ModeComponent, ...] = ()


class DataDictionary(_DictionaryFields):
    """The types, signals and mode components of a model.
    ``domains`` is cached in the instance ``__dict__``."""

    __setattr__ = __delattr__ = refuse_assignment

    def type_named(self, name: str):
        for t in self.types:
            if t.name == name:
                return t
        return None

    def validate(self) -> None:
        records = (*self.types, *self.signals, *self.modes)
        refuse_duplicates([r.name for r in records], "dictionary record names", ModelError)
        for s in self.signals:
            lo, hi = s.minimum, s.maximum
            domain = self.domain(s.type_name, lo, hi)
            if domain is None:
                raise ModelError(f"signal {s.name!r}: unknown type {s.type_name!r}")
            bounds = [b for b in (lo, hi) if b is not None]
            if bounds and (domain.kind is not int
                           or any(type(b) is not int for b in bounds)):
                raise ModelError(f"signal {s.name!r}: bounds {lo!r}, {hi!r} need an "
                                 "int signal and int values")
            if len(bounds) == 2 and lo > hi:
                raise ModelError(f"signal {s.name!r}: min {lo} is above max {hi}")
            # row 0 must hold a value a write could have put there
            fault = domain.fault(s.initial)
            if fault is not None:
                raise ModelError(f"signal {s.name!r}: initial {s.initial!r} {fault}")
        for m in self.modes:
            if m.initial is not None and m.initial not in m.modes:
                raise ModelError(
                    f"mode component {m.name!r}: initial {m.initial!r} not a mode")

    @cached_property
    def domains(self) -> dict[str, Domain | None]:
        """Signal name -> the values it admits (None: its type is unknown)."""
        return {s.name: self.domain(s.type_name, s.minimum, s.maximum) for s in self.signals}

    def domain(self, name: str, lo: int | None, hi: int | None) -> Domain | None:
        """The values type ``name`` admits, an int within ``[lo, hi]``; None
        if the type is unknown."""
        t = self.type_named(name)
        if isinstance(t, EnumType):
            return Domain(str, None, None, t.members, name)
        if name == "bool" or isinstance(t, BoolType):
            return Domain(bool, None, None, None, name)
        if name == "int":
            return Domain(int, lo, hi, None, name)
        return None


class Domain(NamedTuple):
    """The values a signal admits.  Nil is always one.  Otherwise an int
    signal takes an int that is not a bool, within its bounds; a bool
    signal takes a bool; an enum signal takes one of its members."""

    kind: type                       # int, bool or str
    lo: int | None
    hi: int | None
    members: tuple[str, ...] | None  # an enum's, else None
    type_name: str

    def fault(self, value) -> str | None:
        """Why ``value`` is not admitted, as the end of a sentence about it;
        None if it is."""
        if value is None:
            return None
        if self.members is not None:
            return None if value in self.members else f"is not a member of {self.type_name}"
        if type(value) is not self.kind:
            return "is not an int" if self.kind is int else "is not a bool"
        lo, hi = self.lo, self.hi
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            return f"is outside [{lo}, {hi}]"
        return None


# --- definitions and requirements ------------------------------------------

class Definition(NamedTuple):
    """A named expression with its prose text."""

    name: str
    text: str
    expr: object


class SignalAssign(NamedTuple):
    """An effect setting a signal to an expression's start-of-round value."""

    name: str
    expr: object


class ModeAssign(NamedTuple):
    """An effect making one mode of a component the active one."""

    component: str
    mode: str


Assignment = SignalAssign | ModeAssign


class Template(enum.Enum):
    """A requirement's template, keyed by its ``.req`` keyword."""

    EVERY = "every"
    WHEN = "when"
    TRIGGER_ON_EVENT = "trigger"
    MODE_SET = "modeset"


# Each member once more as a plain global, which per-round and per-requirement
# code tests by identity: on CPython 3.11 ``EnumType`` defines ``__getattr__``,
# so a load such as ``Template.WHEN`` takes the slow attribute path.
EVERY = Template.EVERY
WHEN = Template.WHEN
TRIGGER_ON_EVENT = Template.TRIGGER_ON_EVENT
MODE_SET = Template.MODE_SET


class Requirement(NamedTuple):
    """One requirement: id, title, template and the slots it uses."""

    req_id: str
    title: str
    template: Template
    guard: object | None = None              # trigger / when-guard
    required: object | None = None           # end-of-round condition checked
    effects: tuple[Assignment, ...] = ()
    component: str | None = None             # mode-set target


class Env(NamedTuple):
    """Signal values and active modes at a round boundary (see ``engine.env_of``)."""

    signals: Mapping[str, object]
    modes: Mapping[str, frozenset[str]]
    # inert: nothing reads or writes it; kept while perfbench/workloads.py passes it
    history: frozenset = frozenset()


def initial_env(model: RequirementsModel,
                overrides: Mapping[str, object] | None = None) -> Env:
    """Round-0 env from declared initial values; each override must fit its signal."""
    signals = {s.name: s.initial for s in model.dictionary.signals}
    if overrides:
        domains = model.dictionary.domains
        for name, value in overrides.items():
            if name not in domains:
                raise ModelError(f"override of {name!r}: not a signal")
            fault = None if domains[name] is None else domains[name].fault(value)
            if fault is not None:
                raise ModelError(f"override of signal {name!r}: {value!r} {fault}")
            signals[name] = value
    modes = {m.name: frozenset() if m.initial is None else frozenset({m.initial})
             for m in model.dictionary.modes}
    return Env(signals=signals, modes=modes)


class _ModelFields(NamedTuple):
    """:class:`RequirementsModel`'s fields, in order, with their defaults."""

    dictionary: DataDictionary
    definitions: tuple[Definition, ...] = ()
    requirements: tuple[Requirement, ...] = ()


class RequirementsModel(_ModelFields):
    """A data dictionary, its definitions and its requirements.  The
    engine keeps its plan in the instance ``__dict__``; a copy or an
    unpickled model starts without one."""

    __setattr__ = __delattr__ = refuse_assignment

    def __reduce__(self):
        # from the fields only: the plan holds closures, which do not pickle
        return type(self), tuple(self)

    def definition_map(self) -> dict[str, Definition]:
        return {d.name: d for d in self.definitions}

    def validate(self) -> None:
        """Structural checks: unique names and ids, acyclic definitions,
        known definitions, no empty ``and``/``or`` chain, no expression
        deeper than :data:`MAX_DEPTH` and end-of-round reads confined to
        required conditions in every expression slot, signal reads, mode
        reads and effects on known signals and modes, mode-sets on known
        mode components, and no ``#`` or line break (any separator
        ``str.splitlines`` splits on) in a title or definition text: the
        ``.req`` text starts a comment at ``#`` and reads one record per
        line, so the model would not read back.

        Each distinct node is scanned once, by identity: what it can read
        and how deep it is are remembered for every later use, in any slot.
        A definition body is scanned where it is first referenced, so the
        first fault in pre-order, with definitions inlined, is the one
        reported."""
        self.dictionary.validate()

        refuse_duplicates([d.name for d in self.definitions], "definition names",
                          ModelError)
        refuse_duplicates([r.req_id for r in self.requirements], "requirement ids",
                          ModelError)

        defs = self.definition_map()
        signals = {s.name for s in self.dictionary.signals}
        components = {m.name: m.modes for m in self.dictionary.modes}
        modes = {(c, m) for c, ms in components.items() for m in ms}
        # id(node) -> (can evaluating it read an end mode, its depth with
        # definitions inlined); the model keeps every node, so ids hold
        facts: dict[int, tuple[bool, int]] = {}
        bodies: dict[str, tuple[bool, int]] = {}   # definition -> its body's facts
        visiting: dict[str, None] = {}   # the definitions being scanned, outermost first

        def visit(name: str, where: str) -> tuple[bool, int]:
            """The facts of definition ``name``'s body, scanned on first use;
            ``where`` is the slot that references it.  A name met again
            while its own body is being scanned closes a cycle.  Each nested
            visit adds a level, so the outermost of MAX_DEPTH + 1 is too deep."""
            if name not in bodies:
                if name not in defs:
                    raise ModelError(f"{where}: unknown definition {name!r}")
                if name in visiting:
                    raise ModelError(f"definition cycle through {name!r}")
                if len(visiting) == MAX_DEPTH:
                    raise ModelError(f"definition {next(iter(visiting))!r}: "
                                     f"expression nested more than {MAX_DEPTH} deep")
                visiting[name] = None
                bodies[name] = scan(defs[name].expr, f"definition {name!r}")
                visiting.popitem()
            return bodies[name]

        def scan(expr, where: str) -> tuple[bool, int]:
            """The facts of one expression, each node scanned on first use."""
            if expr is None:
                return False, 0   # a missing expression stays a runtime EVAL case
            found = facts.get(id(expr))
            return found if found is not None else _scan(
                expr, where, facts, visit, signals, modes)

        def start_only(expr, where: str, slot: str) -> None:
            if scan(expr, where)[0]:
                raise ModelError(
                    f"{where}: {slot}: end-of-round reads are only legal in "
                    "required conditions")

        for d in self.definitions:
            where = f"definition {d.name!r}"
            _check_text(d.text, where, "text")
            visit(d.name, where)

        for r in self.requirements:
            where = f"requirement {r.req_id}"
            _check_text(r.title, where, "title")
            start_only(r.guard, where, "guard")
            for a in r.effects:
                if isinstance(a, SignalAssign):
                    start_only(a.expr, where, f"effect {a.name}")
                    if a.name not in signals:
                        raise ModelError(
                            f"{where}: effect targets unknown or non-signal "
                            f"record {a.name!r}")
                elif a.mode not in components.get(a.component, ()):
                    raise ModelError(
                        f"{where}: bad mode assignment {a.component}.{a.mode}")
            scan(r.required, where)
            if r.template is MODE_SET and r.component not in components:
                raise ModelError(f"{where}: mode-set needs a mode component")
