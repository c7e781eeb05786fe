"""Trace data model, the run loop, the row-by-row diff, and the cross-engine report.

A trace is one row per round with every observable field.  Both engines run
through :func:`run_rounds`, the one run loop, and their rows share this
schema, so the equivalence check reduces to a per-round field comparison
(minus any ignored fields).  ``TraceRow._fields`` is the one column list:
both engines build a row positionally in that order, and the row values, the
CSV header and the CSV cells follow it.  A row is a named tuple, so building
one is a tuple construction, and two rows whose compared cells agree are
passed over by :func:`diff` with one tuple comparison.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from .fsm import Violation

if TYPE_CHECKING:
    from .reqs.model import RequirementsModel
    from .specio import SpecDocument


# the rounds a run may take when no budget is given
MAX_ROUNDS = 500

# the attribution of a row nothing attributes: one shared, read-only mapping
_NO_ATTRIBUTION: Mapping[str, tuple[str, ...]] = MappingProxyType({})


class TraceRow(NamedTuple):
    """The observable columns after one round, with per-field attribution."""

    round: int
    state: str
    # a requirements row's cell is nil where its record is missing or nil
    event: str | None
    command: str | None
    packet_addr: str | None
    packet_cmd: str | None
    packet_data: str | None
    bytes_sent: int | None
    bytes_received: int | None
    tx_cnt: int | None
    tx_finish: bool | None
    rx_finish: bool | None
    cmd_finish: bool | None
    # requirement ids per changed field; empty on the operational side
    attribution: Mapping[str, tuple[str, ...]] = _NO_ATTRIBUTION

    def values(self) -> dict[str, object]:
        """The observable columns; attribution is not one of them."""
        return dict(zip(ROW_COLUMNS, self))


# the observable columns: every field but the last, attribution
ROW_COLUMNS = TraceRow._fields[:-1]


class Trace(NamedTuple):
    """One engine's run of one command: rows, stop reason and violations."""

    rows: tuple[TraceRow, ...]
    command: str
    engine: str                      # "ops" or "reqs"
    reason: str                      # "cmd_finish" or "budget"
    violations: tuple[Violation, ...] = ()


class RunError(Exception):
    """A round's failure tagged with the engine, the command and the round
    it happened in."""

    def __init__(self, engine: str, command: str, round_no: int, cause: Exception):
        super().__init__(f"round {round_no}: {cause}")
        self.engine = engine
        self.command = command
        self.round_no = round_no
        self.cause = cause


def run_rounds(engine: str, command: str, max_rounds: int,
               start: Callable[[], tuple], round_of: Callable[..., tuple]) -> Trace:
    """Run an engine: ``start()`` gives its start state and row 0, and
    ``round_of(state, row, n)`` round ``n``'s state, row and violations.  The
    run stops with ``cmd_finish`` once a row's ``cmd_finish`` cell is True, or
    with ``budget`` at ``max_rounds`` rows; a round's fault raises RunError."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    state, row = start()
    rows, violations = [row], []
    while len(rows) < max_rounds and row.cmd_finish is not True:
        try:
            state, row, found = round_of(state, row, len(rows))
        except Exception as exc:  # noqa: BLE001 - tag and re-raise any round fault
            raise RunError(engine, command, len(rows), exc) from exc
        rows.append(row)
        violations.extend(found)
    return Trace(tuple(rows), command, engine,
                 "cmd_finish" if row.cmd_finish is True else "budget", tuple(violations))


class DiffEntry(NamedTuple):
    """One field that differs between two traces in one round."""

    round: int
    field: str
    left: object
    right: object


def diff(a, b, *, ignore: Iterable[str] = ()) -> list[DiffEntry]:
    """Field-by-field comparison of two traces.

    ``a`` and ``b`` may be :class:`Trace` objects, row lists or dict lists.
    Attribution is never compared.  A length mismatch yields one synthetic
    entry on field ``length``; the common prefix is still compared.  A pair
    of :class:`TraceRow` rows whose observable cells are all equal is passed
    over with one tuple comparison; any other pair is compared field by
    field, in sorted field order.
    """
    skip = set(ignore) | {"attribution"}
    rows_a = a.rows if isinstance(a, Trace) else a
    rows_b = b.rows if isinstance(b, Trace) else b

    entries: list[DiffEntry] = []
    if len(rows_a) != len(rows_b):
        entries.append(DiffEntry(round=min(len(rows_a), len(rows_b)), field="length",
                                 left=len(rows_a), right=len(rows_b)))
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if isinstance(ra, TraceRow):
            if isinstance(rb, TraceRow) and ra[:-1] == rb[:-1]:
                continue
            ra = ra.values()
        if isinstance(rb, TraceRow):
            rb = rb.values()
        for name in sorted((set(ra) | set(rb)) - skip):
            left = ra.get(name)
            right = rb.get(name)
            if left != right:
                entries.append(DiffEntry(round=i, field=name, left=left, right=right))
    return entries


class RunOutcome(NamedTuple):
    """How one engine's run of one command ended."""

    reason: str                      # the trace's stop reason
    violations: tuple[str, ...]      # constraint ids of its violations, in order

    @classmethod
    def of(cls, trace: Trace) -> RunOutcome:
        return cls(trace.reason, tuple(v.constraint_id for v in trace.violations))

    def render(self) -> str:
        codes = ", ".join(self.violations) if self.violations else "no violations"
        return f"{self.reason}, {codes}"


class EquivalenceReport(NamedTuple):
    """Per command, the trace differences and both engines' outcomes."""

    per_command: Mapping[str, tuple[DiffEntry, ...]]
    max_rounds: int
    # (ops, reqs) outcome per command
    outcomes: Mapping[str, tuple[RunOutcome, RunOutcome]]

    def command_passed(self, cmd: str) -> bool:
        """The traces agree, neither engine reports a violation, and both
        stopped because the command finished."""
        ops, reqs = self.outcomes[cmd]
        return (not self.per_command[cmd] and not ops.violations
                and not reqs.violations and ops.reason == reqs.reason == "cmd_finish")

    @property
    def passed(self) -> bool:
        """Every command passed, and at least one was compared."""
        return bool(self.per_command) and all(
            self.command_passed(cmd) for cmd in self.per_command)

    def render_markdown(self) -> str:
        lines = ["# Trace equivalence report", ""]
        lines.append(f"Commands compared: {len(self.per_command)}  "
                     f"(round budget {self.max_rounds})")
        lines.append("")
        for cmd in sorted(self.per_command):
            entries = self.per_command[cmd]
            ops, reqs = self.outcomes[cmd]
            status = "PASS" if self.command_passed(cmd) else "FAIL"
            if entries:
                status += f" ({len(entries)} differences)"
            lines.append(f"- `{cmd}`: {status}; ops: {ops.render()}; "
                         f"reqs: {reqs.render()}")
            for e in entries:
                lines.append(f"    - round {e.round}, {e.field}: "
                             f"ops={e.left!r} reqs={e.right!r}")
        lines.append("")
        lines.append(f"Overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        import json   # here, not at the top: a cold import should not load it

        payload = {
            "max_rounds": self.max_rounds,
            "passed": self.passed,
            "commands": {
                cmd: [
                    {"round": e.round, "field": e.field,
                     "left": e.left, "right": e.right}
                    for e in entries
                ]
                for cmd, entries in sorted(self.per_command.items())
            },
            "outcomes": {
                cmd: {
                    "passed": self.command_passed(cmd),
                    **{engine: {"reason": run.reason,
                                "violations": list(run.violations)}
                       for engine, run in zip(("ops", "reqs"), self.outcomes[cmd])},
                }
                for cmd in sorted(self.per_command)
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def equivalence_report(spec: SpecDocument, model: RequirementsModel,
                       max_rounds: int = MAX_ROUNDS) -> EquivalenceReport:
    """Run both engines for every command (``ops`` runs ``spec``, ``reqs``
    runs ``model``, the requirements generated from it), diff each pair of
    traces on every column, and keep each run's stop reason and violations."""
    # both engine modules import this one; their run functions are looked up
    # at call time
    from . import opmodel
    from .reqs import engine

    per_command, outcomes = {}, {}
    for cmd in spec.roster.command_names:
        ops = opmodel.run(spec, cmd, max_rounds)
        reqs = engine.run_requirements_trace(model, cmd, max_rounds)
        per_command[cmd] = tuple(diff(ops, reqs))
        outcomes[cmd] = (RunOutcome.of(ops), RunOutcome.of(reqs))
    return EquivalenceReport(per_command=per_command, max_rounds=max_rounds,
                             outcomes=outcomes)
