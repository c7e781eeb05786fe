"""Two-phase round evaluation and the requirements engine's round.

One round takes the model from a start snapshot to an end snapshot:

1. guards and triggers are evaluated against the start snapshot;
2. triggers contribute end-of-round effects, every effect expression
   itself evaluated against the start snapshot only;
3. records nobody wrote carry their start value over (frame property);
   conflicting writes leave the start value and report both writers, and
   a value its signal does not admit leaves the start value too;
4. monitor templates are checked against the end snapshot;
5. mode-set exclusivity is checked on the end snapshot;
6. each trigger whose guard held checks its required condition, if it has
   one, against the end snapshot;
7. what the round adds to its start is stored in the plan's memo under the
   round's input; a later round with the same input skips steps 1-6 and
   applies the stored writes to its own start.

The function is total: breaches are returned as violations, never raised.

A model's first round builds a plan kept on the model instance: every
requirement compiled to closures, and their start-state supports (see
:mod:`.compiled`) indexed by mode.  Steps share support objects, and each
distinct one is walked once for the index.  Candidates are keyed on the
start modes and the value of one key signal, the one the supports'
literals read most (the current event in a generated model).  The index
is looked up by the modes' (component, mode set) pairs, so a round under
a known key builds no set of active modes.  A round visits only the
candidates of its key: the requirements whose guard can hold from there,
plus the ones that act every round, in model order, so writes, conflicts,
fired ids and violations keep the order a walk over every requirement
gives.  A round calls every candidate's guard.

A computed round reads two frames, its start (guards and effects) and its
end (required conditions), and each frame keeps the value of every chain
definition read in it: the send steps' shared ``arrive_kind_send`` runs
once per round however many guards read it.  ``tests/conftest.py`` pins
how often a verify pass reads the chain definitions and runs their bodies.

The memo (step 7) rests on read sets.  A round's outcome depends only on
its plan key and on the values of the signals its candidates read, through
definitions, in their guards, effects and required conditions.  So its
memo key is the active start modes, the key signal's value and those
signals' values, each value with its type, which keeps ``1`` apart from
``True``.  A start whose values are not all ``None``, booleans, integers,
strings or ABSENT is computed and not stored.  An entry holds the
committed signal and mode writes, the fired ids, the violations and the
trace columns those ids wrote, and no env.  The memo and the candidate
index hold at most ``CACHE_LIMIT`` entries each; past that a round is
computed and not stored.

On the shipped machine most of a ``verify`` pass's rounds are found in
the memo, and a computed round visits a few of the requirements;
``tests/conftest.py`` pins the memo's entries and the guard calls.  An
arrow's guard, ``from_X and (current_event = E1 or …)``, has one exact term
per event, so it is a candidate only under its own events.

A round builds each of its records in one tuple construction, with no
Python-level ``__new__``.  A computed round's end env holds the two dicts
its end frame reads; a round found in the memo builds its two from its
start and the stored writes.  :func:`fire_round` is the one round
function: its result is the end env and the outcome's tail (fired ids,
violations, writers), and the run loop calls it by this module's name.

A trace row's cells come from one table, ``TRACE_RECORDS``: each is its
record's value, nil where the env lacks the record.  A column's attribution
is the requirements that wrote its record or the record's ``next_`` shadow,
each once, in fired order.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Mapping, NamedTuple

from ..fsm import Violation
from ..opmodel import ModelState, _snapshot
from ..trace import _NO_ATTRIBUTION, ROW_COLUMNS, Trace, TraceRow, run_rounds
from .compiled import ABSENT, Compiler, Frame, active_modes
# eval_expr is the reference interpreter the compiled closures are tested
# against; it stays importable from here
from .expr import EvalError, eval_expr  # noqa: F401
from .model import (
    EVERY,
    TRIGGER_ON_EVENT,
    WHEN,
    Env,
    Requirement,
    RequirementsModel,
    SignalAssign,
    initial_env,
)


class RoundResult(NamedTuple):
    """A round's end env, fired requirements with what they wrote,
    violations, and the trace columns they wrote (see :func:`_writers`)."""

    end_env: Env
    fired: tuple[tuple[str, tuple[str, ...]], ...]
    violations: tuple[Violation, ...]
    writers: tuple[tuple[str, int, tuple[str, ...]], ...]


def _violation(code: str, req: Requirement, message: str) -> Violation:
    return Violation(code, message=f"requirement {req.req_id} ({req.title}): {message}")


class _Step:
    """One requirement, compiled: its guard, effect and condition closures,
    the signals they read, and its start-state support, the terms (see
    :mod:`.compiled`) one of which a start must meet for it to do anything
    this round (None: it may act from any start)."""

    __slots__ = ("req", "template", "guard", "support", "effects", "required", "reads")

    def __init__(self, req: Requirement, compiler: Compiler):
        t = req.template
        self.req = req
        self.template = t
        # a False guard means no effect, check or violation; every-monitors
        # and mode-sets act in every round; a missing guard always holds
        self.guard = self.support = None
        nodes = []
        if req.guard is not None:
            guard = compiler.compile(req.guard)
            nodes.append(guard)
            self.guard = guard.fn
            if t is TRIGGER_ON_EVENT or t is WHEN:
                self.support = guard.support
        # a missing condition or effect value raises as the interpreter does
        required = compiler.compile(req.required)
        nodes.append(required)
        effects = []
        for a in req.effects:
            if isinstance(a, SignalAssign):
                node = compiler.compile(a.expr)
                nodes.append(node)
                effects.append(("sig", a.name, node.fn))
            else:
                effects.append(("mode", a.component, compiler.interned(frozenset({a.mode}))))
        self.effects = tuple(effects)
        self.required = required.fn
        self.reads = compiler.reads_of(nodes)


# The most entries a plan keeps in each of its caches: the candidates per
# plan key, the memo and the writers per fired tuple; past it a result is
# computed and not stored.
CACHE_LIMIT = 1 << 14

# The value types a memo key may hold.  Equal values of one of these types
# behave alike in every operator, ``repr`` and message; ABSENT is an object.
_ATOMS = frozenset({type(None), bool, int, str, object})


class _Plan:
    """The indexed form of one model that :func:`fire_round` runs.

    It is built on a model's first round and kept on the model instance.
    Every step is compiled when the plan is built.  Candidates are kept per
    (active start-mode set, value of the key signal), in model order, with
    the signals they read besides the key; the key signal is the one read by
    the literals of the most step supports.
    ``memo`` maps a round's input to the outcome :func:`_compute` gives for it.
    """

    def __init__(self, model: RequirementsModel):
        self.definitions = model.definition_map()
        self.compiler = Compiler(self.definitions)
        self.steps = tuple(_Step(req, self.compiler) for req in model.requirements)
        # steps share support objects (a shared definition's, or a guard's
        # first conjunct's): each distinct one is walked once per index
        supports = {id(s.support): s.support for s in self.steps if s.support is not None}
        signals = {i: {lit[0] for _, lit in support if lit}
                   for i, support in supports.items()}
        read = Counter(signal for s in self.steps if s.support is not None
                       for signal in signals[id(s.support)])
        key = self.key = read.most_common(1)[0][0] if read else None
        values = {i: _key_values(support, key) for i, support in supports.items()}
        # step indices: those that may act from any start; per mode, those
        # whose support names it, with the key values its terms there allow
        self._anywhere: list[int] = []
        self._by_mode: dict[tuple[str, str], list[tuple[int, set | None]]] = {}
        for i, s in enumerate(self.steps):
            if s.support is None:
                self._anywhere.append(i)
                continue
            for mode, allowed in values[id(s.support)].items():
                self._by_mode.setdefault(mode, []).append((i, allowed))
        self.domains = model.dictionary.domains
        self._candidates: dict[tuple, tuple] = {}
        self.memo: dict[tuple, tuple] = {}
        # a round's fired tuple -> what _writers makes of it
        self.writers: dict[tuple, tuple] = {}

    def lookup(self, modes: Mapping[str, frozenset[str]], value=ABSENT) -> tuple:
        """The candidates of a start with these modes whose key signal holds
        ``value`` (ABSENT: unknown): the triggers and the rest, each a tuple
        of steps; the sorted signals besides the key they read; and the
        active (component, mode) pairs, the set memo keys share.  The cache
        is keyed on the modes' (component, mode set) pairs and the value, so
        a round it knows builds no set."""
        key = (*modes.items(), value)
        try:
            found = self._candidates.get(key)
        except TypeError:   # a value or a mode set that cannot key a lookup
            return self._select(active_modes(modes), ABSENT)
        if found is None:
            found = self._select(active_modes(modes), value)
            if len(self._candidates) < CACHE_LIMIT:
                self._candidates[key] = found
        return found

    def _select(self, active: frozenset, value) -> tuple:
        hits = set(self._anywhere)
        for mode in active:
            for i, allowed in self._by_mode.get(mode, ()):
                if allowed is None or value is ABSENT or value in allowed:
                    hits.add(i)
        effect, check, reads = [], [], set()
        for i in sorted(hits):
            step = self.steps[i]
            reads |= step.reads
            (effect if step.template is TRIGGER_ON_EVENT else check).append(step)
        reads.discard(self.key)
        return tuple(effect), tuple(check), tuple(sorted(reads)), active


def _key_values(support: frozenset, key: str | None) -> dict:
    """Per mode a support names, the key values its terms there allow
    (None: any value)."""
    values = {}
    for mode, literal in support:
        if values.setdefault(mode, set()) is not None:
            if literal is None or literal[0] != key:
                values[mode] = None
            else:
                values[mode].add(literal[1])
    return values


def _plan_of(model: RequirementsModel) -> _Plan:
    """The model's plan, built on first use.  It lives in the instance
    ``__dict__``, so it goes when the model does; a copy made by
    ``_replace`` starts without one."""
    plan = model.__dict__.get("_plan")
    if plan is None:
        # the model is immutable; the plan is derived data, not a field
        plan = model.__dict__["_plan"] = _Plan(model)
    return plan


_tuple_new = tuple.__new__
# the history of every env a round ends in
_NO_HISTORY = Env._field_defaults["history"]


def fire_round(model: RequirementsModel, env: Env, prev_env: Env | None) -> RoundResult:
    """The engine's one round function: a round of ``model`` from ``env``,
    its result carrying the trace columns its fired requirements wrote.  It
    is total: an evaluation fault, a conflicting or inadmissible write and a
    breached condition come back as violations, not as exceptions.  The
    plan memoises rounds by their input, so a round seen before is not
    computed again.  ``prev_env`` is unread: no template compares a round
    with the one before; perfbench/workloads.py passes it."""
    plan = _plan_of(model)
    signals, modes = env.signals, env.modes
    value = signals.get(plan.key, ABSENT)
    effect_steps, check_steps, reads, active = plan.lookup(modes, value)
    values = (value, *map(signals.get, reads, repeat(ABSENT)))
    kinds = tuple(map(type, values))
    # (active modes, key value, read values, their types); the types keep
    # 1 apart from True
    key = (active, *values, *kinds) if _ATOMS.issuperset(kinds) else None
    outcome = plan.memo.get(key)
    if outcome is None:
        end_env, outcome = _compute(plan, env, effect_steps, check_steps)
        if key is not None and len(plan.memo) < CACHE_LIMIT:
            plan.memo[key] = outcome
    else:
        end_signals, end_modes = dict(signals), dict(modes)
        end_signals.update(outcome[0])
        end_modes.update(outcome[1])
        end_env = _tuple_new(Env, (end_signals, end_modes, _NO_HISTORY))
    return _tuple_new(RoundResult, (end_env, *outcome[2:]))


def _compute(plan: _Plan, env: Env, effect_steps: tuple, check_steps: tuple) -> tuple:
    """One round from ``env``, whose candidates these are: its end env, whose
    dicts its end frame reads, and its outcome, what it adds to its start.  The
    outcome holds its committed signal writes and mode writes, as (name,
    value) pairs in commit order, its fired ids, its violations, and the
    trace columns those ids wrote (see :func:`_writers`)."""
    start = Frame(env.signals, env.modes, None)

    violations: list[Violation] = []
    # record key -> ordered writes; signals keyed ("sig", name), modes ("mode", comp)
    writes: dict[tuple[str, str], list[tuple[str, object]]] = {}
    # triggers whose guard held and that require a condition at the end
    triggered: list[_Step] = []

    def guard_true(step: _Step) -> bool:
        guard, req = step.guard, step.req
        if guard is None:
            return True
        try:
            value = guard(start)
        except EvalError as exc:
            violations.append(_violation("EVAL", req, str(exc)))
            return False
        if not isinstance(value, bool):
            violations.append(_violation("EVAL", req, f"guard is not boolean: {value!r}"))
            return False
        return value

    for step in effect_steps:
        req = step.req
        if not guard_true(step):
            continue
        for kind, name, effect in step.effects:
            if kind == "sig":
                try:
                    value = effect(start)
                except EvalError as exc:
                    violations.append(_violation("EVAL", req, str(exc)))
                    continue
                writes.setdefault((kind, name), []).append((req.req_id, value))
            else:
                writes.setdefault((kind, name), []).append((req.req_id, effect))
        if req.required is not None:
            triggered.append(step)

    # commit the writes, detecting conflicts and values a signal does not
    # admit
    signal_writes: dict[str, object] = {}
    mode_writes: dict[str, frozenset] = {}
    applied: dict[str, list[str]] = {}

    for (kind, name), entries in writes.items():
        value = entries[0][1]
        if len(entries) > 1 and len({repr(v) for _, v in entries}) > 1:
            ids = ", ".join(rid for rid, _ in entries)
            violations.append(Violation(
                "CONFLICT",
                message=f"conflicting effects on {name!r} from requirements {ids}; "
                        "record keeps its start value"))
            continue
        if kind == "sig":
            domain = plan.domains.get(name)
            fault = None if domain is None else domain.fault(value)
            if fault is not None:
                violations.append(Violation(
                    "RANGE",
                    message=f"assignment of {value!r} to {name!r} {fault}; record "
                            "keeps its start value"))
                continue
            signal_writes[name] = value
        else:
            mode_writes[name] = value
        for rid, _ in entries:
            applied.setdefault(rid, []).append(name)

    # only effect candidates write, so they are the only ones that can fire
    fired = tuple((step.req.req_id, tuple(applied[step.req.req_id]))
                  for step in effect_steps if step.req.req_id in applied)

    end_signals = {**env.signals, **signal_writes}
    end_modes = {**env.modes, **mode_writes}
    end = Frame(end_signals, env.modes, end_modes)

    def required_holds(required, req: Requirement) -> bool:
        try:
            value = required(end)
        except EvalError as exc:
            violations.append(_violation("EVAL", req, str(exc)))
            return True
        return bool(value)

    for step in check_steps:
        req, t = step.req, step.template
        if t is EVERY:
            if not required_holds(step.required, req):
                violations.append(_violation("MONITOR", req, "condition breached"))
        elif t is WHEN:
            if guard_true(step) and not required_holds(step.required, req):
                violations.append(_violation("MONITOR", req, "required condition "
                                                             "breached under guard"))
        else:   # an exclusive mode-set
            active_end = end_modes.get(req.component, frozenset())
            if len(active_end) != 1:
                violations.append(_violation(
                    "MODESET", req,
                    f"component {req.component!r} has {len(active_end)} active modes "
                    "at end of round"))

    for step in triggered:
        if not required_holds(step.required, step.req):
            violations.append(_violation("OBLIGATION", step.req, "required condition "
                                                                 "breached after trigger"))

    # rounds share their mode writes, fired lists and writers; a signal
    # write holds a value, so it is not shared
    interned = plan.compiler.interned
    fired = interned(fired)
    writers = plan.writers.get(fired)
    if writers is None:
        writers = _writers(fired)
        if len(plan.writers) < CACHE_LIMIT:
            plan.writers[fired] = writers
    return _tuple_new(Env, (end_signals, end_modes, _NO_HISTORY)), (
        tuple(signal_writes.items()), interned(tuple(mode_writes.items())),
        fired, tuple(violations), writers)


# --- trace building over the generated record names -------------------------

# the mode component that carries the machine state in a generated model
STATE_COMPONENT = "fsm"
# trace column -> the record whose value is its cell, for every column after
# round and state, in TraceRow order; a next_<record> shadow writes the column
TRACE_RECORDS = dict(zip(ROW_COLUMNS[2:], (
    "current_event", "current_command",
    "packet_addr", "packet_cmd", "packet_data",
    "bytes_sent", "bytes_received", "tx_cnt",
    "optrode_TX_finish", "optrode_RX_finish", "command_finish_flag",
), strict=True))
# writer -> (trace column, its cell's index)
_WRITES = {STATE_COMPONENT: ("state", 1),
           **{name: (column, i)
              for i, (column, record) in enumerate(TRACE_RECORDS.items(), 2)
              for name in (record, f"next_{record}")}}


def _env_cells(env: Env, round_no: int) -> tuple:
    """The trace columns of an env, in :class:`TraceRow` field order: a
    column's cell is its record's value, None where the env lacks it."""
    return (round_no, "|".join(sorted(env.modes.get(STATE_COMPONENT, ()))),
            *map(env.signals.get, TRACE_RECORDS.values()))


def env_of(model: RequirementsModel, m: ModelState) -> Env:
    """The env that matches the operational machine ``m``, the inverse of
    :func:`_env_cells`: each trace record ``model`` declares holds its
    column's cell, so does each declared ``next_`` shadow, the state
    component holds ``m``'s state, and every other record its initial value.
    A generated model's shadow equals its counter at every round boundary,
    so this is the env its engine holds wherever the machine is ``m``."""
    cells = _snapshot(m, 0)
    declared = model.dictionary.domains
    env = initial_env(model, {name: cells[i] for name, (_, i) in _WRITES.items()
                              if i > 1 and name in declared})
    if STATE_COMPONENT in env.modes:
        env.modes[STATE_COMPONENT] = frozenset({m.current_state})
    return env


def _writers(fired: tuple) -> tuple[tuple[str, int, tuple[str, ...]], ...]:
    """(trace column, cell index, requirement ids) for each column that a
    round's fired requirements wrote, to its record or its shadow: each
    requirement once, in fired order."""
    by_column: dict[str, tuple[int, dict[str, None]]] = {}
    for rid, records in fired:
        for record in records:
            if record in _WRITES:
                column, i = _WRITES[record]
                by_column.setdefault(column, (i, {}))[1][rid] = None
    return tuple((column, i, tuple(ids)) for column, (i, ids) in by_column.items())


def run_requirements_trace(model: RequirementsModel, command: str,
                           max_rounds: int) -> Trace:
    """Run the model for one initial command and emit its trace.  The command
    is the initial value of the command record, where the model declares it.

    Row 0 is the initial env; each later row is the round's end snapshot with
    per-field attribution (rebuilt from the round's fired requirements, kept
    only on fields whose value changed).  :func:`~candofsm.trace.run_rounds`
    stops the run on the command's finish flag or the row budget."""
    def start() -> tuple[Env, TraceRow]:
        record = TRACE_RECORDS["command"]
        env = initial_env(model, {record: command} if record in model.dictionary.domains else None)
        return env, _tuple_new(TraceRow, (*_env_cells(env, 0), _NO_ATTRIBUTION))

    def round_of(env: Env, row: TraceRow, round_no: int) -> tuple:
        end_env, _, violations, writers = fire_round(model, env, None)
        cells = _env_cells(end_env, round_no)
        attribution = {column: ids for column, i, ids in writers if cells[i] != row[i]}
        return end_env, _tuple_new(TraceRow, (*cells, attribution)), violations
    return run_rounds("reqs", command, max_rounds, start, round_of)
