"""Two-phase round evaluation and the round-based run loop.

One round takes the model from a start snapshot to an end snapshot:

1. guards and triggers are evaluated against the start snapshot;
2. triggers and cases contribute end-of-round effects, every effect
   expression itself evaluated against the start snapshot only;
3. records nobody wrote carry their start value over (frame property);
   conflicting writes leave the start value and report both writers;
4. monitor templates are checked against the end snapshot;
5. mode-set exclusivity is checked on the end snapshot;
6. obligations fall due (within 0 means this very round) or expire;
7. the pending obligation set is updated.

The function is total: breaches are returned as violations, never raised.

A model's first round builds a plan kept on the model instance: the
start-state support of every requirement (see :mod:`.compiled`), indexed
by mode.  Candidates are keyed on the active start modes and the value of
one key signal, the one the supports' literals read most (``current_event``
in a generated model).  A round visits only the candidates of its key: the
requirements whose guard can hold from there, plus the ones that act every
round, in model order, so writes, conflicts, fired ids and violations keep
the order a walk over every requirement gives.  A candidate whose guard is
nothing but terms its key meets is not called: the guard holds.  A
requirement is compiled to closures when it first becomes a candidate.  On
the shipped machine a ``verify`` compiles 197 of the 872 requirements, and
a round visits 10.6 candidates and makes 6.4 guard calls on average.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..fsm import Violation
from ..trace import Trace, TraceRow
from .compiled import ABSENT, Compiler, Frame, active_modes
# eval_expr is the reference interpreter the compiled closures are tested
# against; it stays importable from here
from .expr import EvalError, eval_expr  # noqa: F401
from .model import (
    Env,
    Obligation,
    Requirement,
    RequirementsModel,
    SignalAssign,
    Template,
    initial_env,
)


@dataclass(frozen=True)
class RoundResult:
    end_env: Env
    fired: tuple[tuple[str, tuple[str, ...]], ...]
    violations: tuple[Violation, ...]


def _violation(code: str, req: Requirement | None, message: str) -> Violation:
    prefix = f"requirement {req.req_id} ({req.title}): " if req else ""
    return Violation(code, message=prefix + message)


class _Step:
    """One requirement, the round phase it acts in, and its start-state
    support: the terms (see :mod:`.compiled`) one of which a start must meet
    for it to do anything this round (None: it may act from any start).
    :meth:`compile` builds its closures, when it first becomes a candidate."""

    __slots__ = ("req", "template", "phase", "guard_node", "support", "compiled",
                 "guard", "effects", "required", "branches")

    def __init__(self, req: Requirement, compiler: Compiler):
        t = req.template
        self.req = req
        self.template = t
        self.compiled = False
        self.phase = "effect" if t in (Template.TRIGGER_ON_EVENT, Template.CASE) \
            else "check"

        # a False guard means no effect, obligation or violation; every-monitors
        # and mode-sets act in every round
        guard = self.guard_node = None if req.guard is None else compiler.compile(req.guard)
        self.support = None
        if t is Template.CASE:
            supports = [None if b.guard is None else compiler.compile(b.guard).support
                        for b in req.branches]
            if None not in supports:
                self.support = frozenset().union(*supports)
        elif t in (Template.TRIGGER_ON_EVENT, Template.WHEN):
            self.support = None if guard is None else guard.support

    def compile(self, compiler: Compiler) -> None:
        if self.compiled:
            return
        # a missing guard always holds; anything else missing raises as the
        # interpreter does
        def fn(expr):
            return compiler.compile(expr).fn

        def effects(assignments):
            return tuple(
                ("sig", a.name, fn(a.expr)) if isinstance(a, SignalAssign)
                else ("mode", a.component, a.mode)
                for a in assignments)

        req = self.req
        self.guard = None if self.guard_node is None else self.guard_node.fn
        self.effects = effects(req.effects)
        self.required = fn(req.required)
        self.branches = tuple((None if b.guard is None else fn(b.guard), effects(b.effects))
                              for b in req.branches)
        self.compiled = True


class _Plan:
    """The indexed form of one model that :func:`fire_round` runs.

    It is built on a model's first round and kept on the model instance.
    Candidates are kept per (active start-mode set, value of the key
    signal), in model order; the key signal is the one read by the literals
    of the most step supports.  A step is compiled when it first becomes a
    candidate.
    """

    def __init__(self, model: RequirementsModel):
        self.definitions = model.definition_map()
        self.compiler = Compiler(self.definitions)
        self.steps = tuple(_Step(req, self.compiler) for req in model.requirements)
        self.by_id = {s.req.req_id: s for s in self.steps}
        read = Counter(signal for s in self.steps if s.support
                       for signal in {lit[0] for _, lit in s.support if lit})
        key = self.key = read.most_common(1)[0][0] if read else None
        # step indices: those that may act from any start; per mode, those
        # whose support names it, with the key values its terms there allow
        # (None: any value); and those whose guard holds once a start with a
        # key value meets its support
        self._anywhere: list[int] = []
        self._by_mode: dict[tuple[str, str], list[tuple[int, set | None]]] = {}
        self._decided: set[int] = set()
        for i, s in enumerate(self.steps):
            if s.support is None:
                self._anywhere.append(i)
                continue
            values = {}
            for mode, literal in s.support:
                if values.setdefault(mode, set()) is not None:
                    if literal is None or literal[0] != key:
                        values[mode] = None
                    else:
                        values[mode].add(literal[1])
            for mode, allowed in values.items():
                self._by_mode.setdefault(mode, []).append((i, allowed))
            guard = s.guard_node
            if guard is not None and guard.support is s.support and guard.exact \
                    and all(lit is None or lit[0] == key for _, lit in s.support):
                self._decided.add(i)
        # signal name -> (bounds, enumeration members, type name)
        self.ranges = {}
        for sig in model.dictionary.signals:
            self.ranges.setdefault(sig.name, (
                model.dictionary.int_bounds(sig), model.dictionary.enum_members(sig),
                sig.type_name))
        self._candidates: dict[tuple, tuple[tuple, tuple]] = {}

    def candidates(self, active: frozenset, value=ABSENT) -> tuple[tuple, tuple]:
        """The requirements that can act from a start with these active modes
        in which the key signal holds ``value`` (ABSENT: unknown), as
        (step, guard) pairs: those that contribute effects, and those that
        check the end snapshot.  ``guard`` is None where the start decides
        that the step's guard holds."""
        try:
            found = self._candidates.get((active, value))
        except TypeError:   # a value that cannot key a lookup
            return self.candidates(active)
        if found is None:
            found = self._candidates[(active, value)] = self._select(active, value)
        return found

    def _select(self, active: frozenset, value) -> tuple[tuple, tuple]:
        hits = set(self._anywhere)
        for mode in active:
            for i, allowed in self._by_mode.get(mode, ()):
                if allowed is None or value is ABSENT or value in allowed:
                    hits.add(i)
        known = value is not ABSENT
        effect, check = [], []
        for i in sorted(hits):
            step = self.steps[i]
            step.compile(self.compiler)
            guard = None if known and i in self._decided else step.guard
            (effect if step.phase == "effect" else check).append((step, guard))
        return tuple(effect), tuple(check)

    def obligation(self, ob: Obligation):
        """The compiled condition of an obligation."""
        step = self.by_id.get(ob.req_id)
        if step is not None and step.req.required is ob.expr:
            step.compile(self.compiler)
            return step.required
        return self.compiler.compile(ob.expr).fn


def _plan_of(model: RequirementsModel) -> _Plan:
    """The model's plan, built on first use.  It lives on the instance, so it
    goes when the model does; a copy made by ``dataclasses.replace`` starts
    without one."""
    plan = model.__dict__.get("_plan")
    if plan is None:
        plan = _Plan(model)
        # the model is frozen; the plan is derived data, not a field
        object.__setattr__(model, "_plan", plan)
    return plan


def fire_round(model: RequirementsModel, env: Env, prev_env: Env | None) -> RoundResult:
    # prev_env is unread: no template compares a round with the one before;
    # the parameter stays while perfbench/workloads.py passes it
    plan = _plan_of(model)
    current_round = env.round_no + 1
    effect_steps, check_steps = plan.candidates(active_modes(env.modes),
                                                env.signals.get(plan.key, ABSENT))
    start = Frame(env.signals, env.modes, None)

    violations: list[Violation] = []
    # record key -> ordered writes; signals keyed ("sig", name), modes ("mode", comp)
    writes: dict[tuple[str, str], list[tuple[str, object]]] = {}
    new_obligations: list[Obligation] = []

    def guard_true(guard, req: Requirement) -> bool:
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

    def add_effects(req: Requirement, effects) -> None:
        for kind, name, effect in effects:
            if kind == "sig":
                try:
                    value = effect(start)
                except EvalError as exc:
                    violations.append(_violation("EVAL", req, str(exc)))
                    continue
                writes.setdefault((kind, name), []).append((req.req_id, value))
            else:
                writes.setdefault((kind, name), []).append((req.req_id, effect))

    for step, guard in effect_steps:
        req = step.req
        if step.template is Template.TRIGGER_ON_EVENT:
            if guard_true(guard, req):
                add_effects(req, step.effects)
                if req.required is not None:
                    due = current_round + (req.within or 0)
                    new_obligations.append(
                        Obligation(req.req_id, req.required, due, current_round))
        else:   # a case: the first branch whose guard holds
            for guard, effects in step.branches:
                if guard_true(guard, req):
                    add_effects(req, effects)
                    break

    # build the end snapshot, detecting conflicts and range breaches
    end_signals = dict(env.signals)
    end_modes = dict(env.modes)
    fired: list[tuple[str, tuple[str, ...]]] = []
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
            limits = plan.ranges.get(name)
            if limits is not None:
                (lo, hi), members, type_name = limits
                if (lo is not None or hi is not None) and not isinstance(value, bool) \
                        and isinstance(value, int):
                    if (lo is not None and value < lo) or (hi is not None and value > hi):
                        violations.append(Violation(
                            "RANGE",
                            message=f"assignment of {value!r} to {name!r} is outside "
                                    f"[{lo}, {hi}]; record keeps its start value"))
                        continue
                if members is not None and value is not None and value not in members:
                    violations.append(Violation(
                        "RANGE",
                        message=f"assignment of {value!r} to {name!r} is not a "
                                f"member of {type_name}; record keeps its "
                                "start value"))
                    continue
            end_signals[name] = value
        else:
            end_modes[name] = frozenset({value})
        for rid, _ in entries:
            applied.setdefault(rid, []).append(name)

    # only effect candidates write, so they are the only ones that can fire
    for step, _ in effect_steps:
        if step.req.req_id in applied:
            fired.append((step.req.req_id, tuple(applied[step.req.req_id])))

    end = Frame(end_signals, env.modes, end_modes)

    def required_holds(required, req: Requirement) -> bool:
        try:
            value = required(end)
        except EvalError as exc:
            violations.append(_violation("EVAL", req, str(exc)))
            return True
        return bool(value)

    for step, guard in check_steps:
        req, t = step.req, step.template
        if t is Template.EVERY:
            if not required_holds(step.required, req):
                violations.append(_violation("MONITOR", req, "condition breached"))
        elif t is Template.WHEN:
            if guard_true(guard, req) and not required_holds(step.required, req):
                violations.append(_violation("MONITOR", req, "required condition "
                                                             "breached under guard"))
        else:   # an exclusive mode-set
            active_end = end_modes.get(req.component, frozenset())
            if len(active_end) != 1:
                violations.append(_violation(
                    "MODESET", req,
                    f"component {req.component!r} has {len(active_end)} active modes "
                    "at end of round"))

    still_pending: list[Obligation] = []
    for ob in tuple(env.pending) + tuple(new_obligations):
        try:
            satisfied = bool(plan.obligation(ob)(end))
        except EvalError as exc:
            violations.append(Violation(
                "EVAL", message=f"obligation of requirement {ob.req_id}: {exc}"))
            satisfied = False
        if satisfied:
            continue
        if ob.due_round <= current_round:
            violations.append(Violation(
                "OBLIGATION",
                message=f"obligation of requirement {ob.req_id} registered in round "
                        f"{ob.registered_round} expired unsatisfied in round "
                        f"{current_round}"))
            continue
        still_pending.append(ob)

    end_env = Env(
        signals=end_signals,
        modes=end_modes,
        pending=tuple(still_pending),
        round_no=current_round,
    )
    return RoundResult(end_env=end_env, fired=tuple(fired),
                       violations=tuple(violations))


# --- trace building over the generated record naming convention -------------

# dictionary record -> trace column (next_* shadows merge into their targets)
_SIGNAL_COLUMNS = {
    "current_event": "event",
    "current_command": "command",
    "command_finish_flag": "cmd_finish",
    "optrode_TX_finish": "tx_finish",
    "optrode_RX_finish": "rx_finish",
    "bytes_sent": "bytes_sent",
    "bytes_received": "bytes_received",
    "tx_cnt": "tx_cnt",
    "packet_addr": "packet_addr",
    "packet_cmd": "packet_cmd",
    "packet_data": "packet_data",
}
_SHADOW_COLUMNS = {
    "next_bytes_sent": "bytes_sent",
    "next_bytes_received": "bytes_received",
    "next_tx_cnt": "tx_cnt",
}
# the mode component that carries the machine state in a generated model
STATE_COMPONENT = "fsm"


def _env_values(env: Env, round_no: int) -> dict[str, object]:
    """The trace columns of an env, keyed as :class:`TraceRow`'s fields."""
    active = sorted(env.modes.get(STATE_COMPONENT, frozenset()))
    sig = env.signals
    return dict(
        round=round_no,
        state="|".join(active),
        event=str(sig.get("current_event")),
        command=str(sig.get("current_command")),
        packet_addr=sig.get("packet_addr"),
        packet_cmd=sig.get("packet_cmd"),
        packet_data=sig.get("packet_data"),
        bytes_sent=int(sig.get("bytes_sent", 0)),
        bytes_received=int(sig.get("bytes_received", 0)),
        tx_cnt=int(sig.get("tx_cnt", 0)),
        tx_finish=bool(sig.get("optrode_TX_finish", False)),
        rx_finish=bool(sig.get("optrode_RX_finish", False)),
        cmd_finish=bool(sig.get("command_finish_flag", False)),
    )


def _round_attribution(result: RoundResult, new_values: dict[str, object],
                       old_values: dict[str, object]) -> dict[str, tuple[str, ...]]:
    """Requirement ids per changed trace column.  Shadow writers come first,
    so counters show the next-value updater and then the committing
    requirement, in that order."""
    by_column: dict[str, list[str]] = {}
    for rid, records in result.fired:
        for record in records:
            if record == STATE_COMPONENT:
                by_column.setdefault("state", []).append(rid)
            elif record in _SHADOW_COLUMNS:
                by_column.setdefault(_SHADOW_COLUMNS[record], []).insert(0, rid)
            elif record in _SIGNAL_COLUMNS:
                by_column.setdefault(_SIGNAL_COLUMNS[record], []).append(rid)
    return {
        column: tuple(ids)
        for column, ids in by_column.items()
        if new_values.get(column) != old_values.get(column)
    }


def _finished(env: Env) -> bool:
    return env.signals.get("command_finish_flag") is True


def run_requirements_trace(model: RequirementsModel, command: str,
                           max_rounds: int) -> Trace:
    """Run the model for one initial command and emit its trace.

    Row 0 is the initial env; each later row is the round's end snapshot with
    per-field attribution (rebuilt from the round's fired requirements, kept
    only on fields whose value changed).  The run stops with ``cmd_finish``
    once the command's finish flag is up, checked before each round and once
    more when the row budget runs out, and with ``budget`` otherwise.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    env = initial_env(model, overrides={"current_command": command})
    values = _env_values(env, 0)
    rows = [TraceRow(**values)]
    violations: list[Violation] = []
    while len(rows) < max_rounds and not _finished(env):
        result = fire_round(model, env, None)
        env = result.end_env
        new_values = _env_values(env, len(rows))
        rows.append(TraceRow(**new_values, attribution=_round_attribution(
            result, new_values, values)))
        values = new_values
        violations.extend(result.violations)
    reason = "cmd_finish" if _finished(env) else "budget"
    return Trace(rows=tuple(rows), command=command, engine="reqs",
                 reason=reason, violations=tuple(violations))
