"""Data dictionary, definitions, requirement templates and the round env."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

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


def _scan(expr, facts: dict, bodies: Mapping, where: str) -> dict[str, None]:
    """Scan the nodes under ``expr`` that ``facts`` does not hold, each once.

    Raises on the first empty ``and``/``or`` chain in pre-order.  Records in
    ``facts``, by node id, whether evaluating the node can read an
    end-of-round mode and how deep it is with definitions inlined, for
    every node whose children and definitions (``bodies``) are known.
    Returns the definitions the scanned nodes name, in pre-order.  It keeps
    an explicit stack, so a deep tree stays clear of the recursion limit."""
    named: dict[str, None] = {}
    unknown: set[int] = set()   # scanned here, but a definition's facts are missing
    pending: list = [expr]
    while pending:
        node = pending.pop()
        if node is _DONE:
            node, children = pending.pop(), pending.pop()
            end, depth = False, 0
            for child in children:
                found = facts.get(id(child))
                if found is None:
                    unknown.add(id(node))
                    break
                end = end or found[0]
                depth = found[1] if found[1] > depth else depth
            else:
                facts[id(node)] = end, depth + 1
            continue
        key = id(node)
        if key in facts or key in unknown:
            continue   # done already, under this root or another
        kind = type(node)
        if kind is Lit or kind is SigRead:
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
            named[node.name] = None
            body = bodies.get(node.name)
            if body is None:
                unknown.add(key)
            else:
                facts[key] = body[0], body[1] + 1
            continue
        else:
            facts[key] = isinstance(node, ModeActive) and node.at == "end", 1
            continue
        pending += (children, node, _DONE, *reversed(children))
    return named


# --- data dictionary -------------------------------------------------------

@dataclass(frozen=True)
class BoolType:
    name: str


@dataclass(frozen=True)
class IntType:
    name: str
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True)
class EnumType:
    name: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class ConstantDef:
    name: str
    type_name: str
    value: object
    minimum: object | None = None
    maximum: object | None = None
    tolerance: object | None = None


@dataclass(frozen=True)
class SignalDef:
    name: str
    type_name: str
    minimum: int | None = None
    maximum: int | None = None
    initial: object = None


@dataclass(frozen=True)
class ModeComponent:
    name: str
    modes: tuple[str, ...]
    exclusive: bool = True
    initial: str | None = None


@dataclass(frozen=True)
class DataDictionary:
    types: tuple = ()
    constants: tuple[ConstantDef, ...] = ()
    signals: tuple[SignalDef, ...] = ()
    modes: tuple[ModeComponent, ...] = ()

    def type_named(self, name: str):
        for t in self.types:
            if t.name == name:
                return t
        return None

    def signal_named(self, name: str) -> SignalDef | None:
        for s in self.signals:
            if s.name == name:
                return s
        return None

    @property
    def record_count(self) -> int:
        return (len(self.types) + len(self.constants)
                + len(self.signals) + len(self.modes))

    def validate(self) -> None:
        names = ([t.name for t in self.types] + [c.name for c in self.constants]
                 + [s.name for s in self.signals] + [m.name for m in self.modes])
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ModelError(f"duplicate dictionary record names: {dupes}")
        for t in self.types:
            # .req writes an int type's bounds as a pair or not at all
            if isinstance(t, IntType) and (t.lo is None) != (t.hi is None):
                raise ModelError(
                    f"int type {t.name!r}: give both bounds or neither")
        basic = {"int", "bool"}
        for s in self.signals:
            if s.type_name not in basic and self.type_named(s.type_name) is None:
                raise ModelError(f"signal {s.name!r}: unknown type {s.type_name!r}")
        for m in self.modes:
            if m.initial is not None and m.initial not in m.modes:
                raise ModelError(
                    f"mode component {m.name!r}: initial {m.initial!r} not a mode")

    def int_bounds(self, signal: SignalDef) -> tuple[int | None, int | None]:
        lo, hi = signal.minimum, signal.maximum
        t = self.type_named(signal.type_name)
        if isinstance(t, IntType):
            lo = t.lo if lo is None else lo
            hi = t.hi if hi is None else hi
        return lo, hi

    def enum_members(self, signal: SignalDef) -> tuple[str, ...] | None:
        t = self.type_named(signal.type_name)
        return t.members if isinstance(t, EnumType) else None


# --- definitions and requirements ------------------------------------------

@dataclass(frozen=True)
class Definition:
    name: str
    text: str
    expr: object


@dataclass(frozen=True)
class SignalAssign:
    name: str
    expr: object


@dataclass(frozen=True)
class ModeAssign:
    component: str
    mode: str


Assignment = SignalAssign | ModeAssign


class Template(enum.Enum):
    EVERY = "every"
    WHEN = "when"
    TRIGGER_ON_EVENT = "trigger"
    MODE_SET = "modeset"
    CASE = "case"


@dataclass(frozen=True)
class CaseBranch:
    guard: object
    effects: tuple[Assignment, ...]


@dataclass(frozen=True)
class Requirement:
    req_id: str
    title: str
    template: Template
    guard: object | None = None              # trigger / when-guard
    required: object | None = None           # monitored or obliged condition
    effects: tuple[Assignment, ...] = ()
    within: int | None = None
    component: str | None = None             # mode-set target
    branches: tuple[CaseBranch, ...] = ()


@dataclass(frozen=True)
class Obligation:
    req_id: str
    expr: object
    due_round: int
    registered_round: int


@dataclass(frozen=True)
class Env:
    """Record values at a round boundary, plus open obligations."""

    signals: Mapping[str, object]
    modes: Mapping[str, frozenset[str]]
    # inert: nothing reads or writes it; kept while perfbench/workloads.py passes it
    history: frozenset = frozenset()
    pending: tuple[Obligation, ...] = ()
    round_no: int = 0


def initial_env(model: RequirementsModel,
                overrides: Mapping[str, object] | None = None) -> Env:
    """Round-0 env from declared initial values; overrides patch signals."""
    signals: dict[str, object] = {}
    for c in model.dictionary.constants:
        signals[c.name] = c.value
    for s in model.dictionary.signals:
        signals[s.name] = s.initial
    if overrides:
        for name, value in overrides.items():
            if name not in signals:
                raise ModelError(f"override of unknown signal {name!r}")
            signals[name] = value
    modes = {
        m.name: (frozenset({m.initial}) if m.initial is not None else frozenset())
        for m in model.dictionary.modes
    }
    return Env(signals=signals, modes=modes)


@dataclass(frozen=True)
class RequirementsModel:
    dictionary: DataDictionary
    definitions: tuple[Definition, ...] = ()
    requirements: tuple[Requirement, ...] = ()

    def definition_map(self) -> dict[str, Definition]:
        return {d.name: d for d in self.definitions}

    def validate(self) -> None:
        """Structural checks: unique names and ids, acyclic definitions,
        known definitions, no empty ``and``/``or`` chain, no expression
        deeper than :data:`MAX_DEPTH` and end-of-round reads confined to
        required conditions in every expression slot, effects on known
        signals and modes, mode-sets on known mode components, no
        negative ``within``.

        Each distinct node is scanned once, by identity: what it can read
        and how deep it is are remembered for every later use, in any slot.
        A definition body is scanned on first use."""
        self.dictionary.validate()

        names = [d.name for d in self.definitions]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ModelError(f"duplicate definition names: {dupes}")
        ids = [r.req_id for r in self.requirements]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ModelError(f"duplicate requirement ids: {dupes}")

        defs = self.definition_map()
        signals = {s.name for s in self.dictionary.signals}
        components = {m.name: m.modes for m in self.dictionary.modes}
        # id(node) -> (can evaluating it read an end mode, its depth with
        # definitions inlined); the model keeps every node, so ids hold
        facts: dict[int, tuple[bool, int]] = {}
        bodies: dict[str, tuple[bool, int]] = {}   # definition -> its body's facts
        visiting: set[str] = set()

        def visit(name: str) -> tuple[bool, int]:
            """Scan a definition's body on first use; a name met again while
            its own body is being scanned closes a cycle."""
            if name not in bodies:
                if name in visiting:
                    raise ModelError(f"definition cycle through {name!r}")
                visiting.add(name)
                bodies[name] = scan(defs[name].expr, f"definition {name!r}")
            return bodies[name]

        def scan(expr, where: str) -> tuple[bool, int]:
            """The facts of one expression.  Its nodes not scanned before are
            checked: every definition they name must exist, every chain must
            have operands, and the whole may be at most MAX_DEPTH deep."""
            if expr is None:
                return False, 0   # a missing expression stays a runtime EVAL case
            found = facts.get(id(expr))
            if found is not None:
                return found
            named = _scan(expr, facts, bodies, where)
            for name in named:
                if name not in defs:
                    raise ModelError(f"{where}: unknown definition {name!r}")
            for name in sorted(named):
                visit(name)
            if id(expr) not in facts:
                # it names a definition scanned only just now
                _scan(expr, facts, bodies, where)
            found = facts[id(expr)]
            if found[1] > MAX_DEPTH:
                raise ModelError(
                    f"{where}: expression nested {found[1]} deep, deeper than "
                    f"{MAX_DEPTH}")
            return found

        def start_only(expr, where: str, slot: str) -> None:
            if scan(expr, where)[0]:
                raise ModelError(
                    f"{where}: {slot}: end-of-round reads are only legal in "
                    "required conditions")

        def check_effects(effects, where: str) -> None:
            for a in effects:
                if isinstance(a, SignalAssign):
                    start_only(a.expr, where, f"effect {a.name}")
                    if a.name not in signals:
                        raise ModelError(
                            f"{where}: effect targets unknown or non-signal "
                            f"record {a.name!r}")
                elif a.mode not in components.get(a.component, ()):
                    raise ModelError(
                        f"{where}: bad mode assignment {a.component}.{a.mode}")

        for name in names:
            visit(name)

        for r in self.requirements:
            where = f"requirement {r.req_id}"
            start_only(r.guard, where, "guard")
            check_effects(r.effects, where)
            for branch in r.branches:
                start_only(branch.guard, where, "case guard")
                check_effects(branch.effects, where)
            scan(r.required, where)
            if r.within is not None and r.within < 0:
                # the obligation would fall due before the round that registers it
                raise ModelError(f"{where}: within {r.within} is negative")
            if r.template is Template.MODE_SET and r.component not in components:
                raise ModelError(f"{where}: mode-set needs a mode component")
