"""Reading and writing the textual ``.fsm`` spec format and trace CSV files.

The spec format is line oriented with ``#`` comments::

    states {
      start: control
      send_packet_1: send synthetic
      ...
    }
    events { CONT ... }            # one name per line, optional `synthetic`
    commands { LED_ON_C ... }
    transition CONT start -> get_cmd
    dispatch LED_ON_C -> set_vLED
    packet set_vLED addr=Optrode_addr cmd=nil data=LED_addr

Parsing is purely syntactic; semantic validation is the checkers' job
(:mod:`candofsm.fsm`).  ``serialize_spec`` is the exact inverse on
well-formed documents and emits a deterministic ordering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import IO, Iterable, Mapping, NamedTuple, get_type_hints

from .fsm import MemberDef, Roster, StateDef, StateKind
from .trace import TraceRow

_KIND_TOKENS = {k.value: k for k in StateKind}


class ParseError(Exception):
    """Syntax error with a 1-based position and the offending line."""

    def __init__(self, line: int, column: int, message: str, snippet: str = ""):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet


class Packet(NamedTuple):
    """A packet: a creator state's template, or the packet under
    construction in the ops round; any field may be nil (None)."""

    addr: str | None = None
    cmd: str | None = None
    data: str | None = None


@dataclass(frozen=True)
class SpecDocument:
    """A spec: roster, transition table, dispatch map, packet templates.
    ``opmodel`` keeps its operation table in the instance ``__dict__``; a
    copy or an unpickled spec starts without one."""

    roster: Roster
    fsm: Mapping[str, Mapping[str, str]]
    dispatch: Mapping[str, str] = field(default_factory=dict)
    packets: Mapping[str, Packet] = field(default_factory=dict)

    def __reduce__(self):
        # from the fields only: the operations are closures, which do not pickle
        return type(self), (self.roster, self.fsm, self.dispatch, self.packets)


def _err(lineno: int, message: str, raw: str = "", column: int = 1) -> ParseError:
    return ParseError(lineno, column, message, raw)


def _check_name(name: str, lineno: int, raw: str, token: int = 0, offset: int = 0) -> str:
    """``name`` if it is an identifier.  Otherwise the error's column is
    ``offset`` characters into the ``token``-th whitespace-separated token
    of ``raw``, where ``name`` starts."""
    if not (name.isascii() and name.isidentifier()):
        column = [m.start() for m in re.finditer(r"\S+", raw)][token] + offset + 1
        raise _err(lineno, f"invalid identifier {name!r}", raw, column)
    return name


def parse_spec(text: str) -> SpecDocument:
    """Parse spec text into a :class:`SpecDocument`; raise :class:`ParseError`.

    One pass over the lines: the three roster sections come first, then
    one directive per line.  A line's text is what precedes its first
    ``#``; a line whose text is blank is skipped but counted."""
    lines = enumerate(text.splitlines(), start=1)
    brace = 0   # the line of the last section's closing brace
    sections = []
    for section, with_kind in (("states", True), ("events", False), ("commands", False)):
        for lineno, raw in lines:
            header = "".join((raw.partition("#")[0] if "#" in raw else raw).split())
            if header:
                break
        else:
            # the line after the last row, a closing brace, or line 1
            raise _err(brace + 1, f"missing {section} section")
        if not header.startswith(section + "{"):
            raise _err(lineno, f"missing {section} section", raw)
        if header != section + "{":
            raise _err(lineno, f"expected '{section} {{'", raw)
        opened, opened_raw = lineno, raw
        entries = []
        seen: set[str] = set()
        for lineno, raw in lines:
            tokens = (raw.partition("#")[0] if "#" in raw else raw).replace(":", " : ").split()
            if not tokens:
                continue
            name = tokens[0]
            if name == "}" and len(tokens) == 1:
                break
            _check_name(name, lineno, raw)
            if name in seen:
                raise _err(lineno, f"duplicate {section} entry {name!r}", raw)
            seen.add(name)
            rest = tokens[1:]
            if with_kind:
                if len(rest) < 2 or rest[0] != ":":
                    raise _err(lineno, f"expected '{name}: <kind>'", raw)
                kind = _KIND_TOKENS.get(rest[1])
                if kind is None:
                    raise _err(lineno, f"unknown state kind {rest[1]!r}", raw)
                rest = rest[2:]
            if rest and rest != ["synthetic"]:
                raise _err(lineno, f"unexpected tokens {' '.join(rest)!r}", raw)
            entries.append(StateDef(name, kind, bool(rest)) if with_kind
                           else MemberDef(name, bool(rest)))
        else:
            raise _err(opened, f"unterminated {section} section", opened_raw)
        brace = lineno
        sections.append((tuple(entries), seen))

    (states, state_names), (events, _), (commands, command_names) = sections
    roster = Roster(states=states, events=events, commands=commands)
    # each event's row, which enters fsm at the event's first transition
    table: dict[str, dict[str, str]] = {e.name: {} for e in events}
    fsm: dict[str, dict[str, str]] = {}
    dispatch: dict[str, str] = {}
    packets: dict[str, Packet] = {}

    for lineno, raw in lines:
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "transition":
            if len(tokens) != 5 or tokens[3] != "->":
                raise _err(lineno, "expected 'transition EVENT from -> to'", raw)
            _, ev, frm, _, to = tokens
            row = table.get(ev)
            if row is None:
                raise _err(lineno, f"unknown event {ev!r}", raw)
            if frm not in state_names:
                raise _err(lineno, f"unknown state {frm!r}", raw)
            if to not in state_names:
                raise _err(lineno, f"unknown state {to!r}", raw)
            if frm in row:
                raise _err(lineno, f"duplicate transition for ({ev}, {frm})", raw)
            if not row:
                fsm[ev] = row
            row[frm] = to
        elif head == "dispatch":
            if len(tokens) != 4 or tokens[2] != "->":
                raise _err(lineno, "expected 'dispatch COMMAND -> state'", raw)
            cmd, to = tokens[1], tokens[3]
            if cmd not in command_names:
                raise _err(lineno, f"unknown command {cmd!r}", raw)
            if to not in state_names:
                raise _err(lineno, f"unknown state {to!r}", raw)
            if cmd in dispatch:
                raise _err(lineno, f"duplicate dispatch for {cmd!r}", raw)
            dispatch[cmd] = to
        elif head == "packet":
            if len(tokens) != 5:
                raise _err(lineno, "expected 'packet STATE addr=A cmd=C data=D'", raw)
            st = tokens[1]
            if st not in state_names:
                raise _err(lineno, f"unknown state {st!r}", raw)
            if st in packets:
                raise _err(lineno, f"duplicate packet template for {st!r}", raw)
            fields: dict[str, str | None] = {}
            for token, key in enumerate(("addr", "cmd", "data"), start=2):
                tok = tokens[token]
                if not tok.startswith(key + "="):
                    raise _err(lineno, f"expected '{key}=...'", raw)
                value = tok[len(key) + 1:]
                fields[key] = None if value == "nil" else \
                    _check_name(value, lineno, raw, token, len(key) + 1)
            packets[st] = Packet(**fields)
        else:
            raise _err(lineno, f"unknown directive {head!r}", raw)

    return SpecDocument(roster=roster, fsm=fsm, dispatch=dispatch, packets=packets)


def serialize_spec(doc: SpecDocument) -> str:
    """Render a document in the canonical order: roster order for sections,
    transitions grouped by event name alphabetically, states in roster order
    and then, in table order, any state the roster lacks."""
    roster = doc.roster
    lines = ["states {", *(f"  {s.name}: {s.kind.value}{' synthetic' if s.synthetic else ''}"
                           for s in roster.states), "}"]
    for label, members in (("events", roster.events), ("commands", roster.commands)):
        lines += [f"{label} {{", *(f"  {m.name}{' synthetic' if m.synthetic else ''}"
                                   for m in members), "}"]
    names = roster.state_names
    for ev in sorted(doc.fsm):
        row = doc.fsm[ev]
        order = [frm for frm in names if frm in row]
        if len(order) < len(row):
            order += [frm for frm in row if frm not in order]
        lines += [f"transition {ev} {frm} -> {row[frm]}" for frm in order]
    dispatch, packets = doc.dispatch, doc.packets
    lines += [f"dispatch {cmd} -> {dispatch[cmd]}" for cmd in roster.command_names
              if cmd in dispatch]
    lines += [f"packet {st} addr={t.addr or 'nil'} cmd={t.cmd or 'nil'} data={t.data or 'nil'}"
              for st in names if (t := packets.get(st)) is not None]
    lines.append("")
    return "\n".join(lines)


def load_spec(path) -> SpecDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def bundled_spec_path():
    """Filesystem path of the shipped ``cando.fsm``."""
    return resources.files("candofsm").joinpath("data/cando.fsm")


def load_bundled_cando() -> SpecDocument:
    """The shipped CANDO machine: 34 states, 21 events, 17 commands."""
    return load_spec(bundled_spec_path())


# ---------------------------------------------------------------------------
# Trace CSV

def _parse_int(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise ValueError(f"bad integer cell {cell!r}") from None


def _parse_bool(cell: str) -> bool:
    if cell in ("true", "false"):
        return cell == "true"
    raise ValueError(f"bad boolean cell {cell!r}")


def _write_ids(attribution: Mapping[str, tuple[str, ...]]) -> str:
    return ";".join(sorted({rid for rids in attribution.values() for rid in rids}))


def _read_ids(cell: str) -> dict[str, tuple[str, ...]]:
    return {"*": tuple(cell.split(";"))} if cell else {}


def _nil_safe(write, read) -> tuple:
    """The codec of a column that may be nil: nil is the empty cell."""
    return (lambda v: "" if v is None else write(v),
            lambda cell: read(cell) if cell else None)


# (write, read) cell conversions, keyed on the declared TraceRow field type;
# get_type_hints resolves the annotations, which the named tuple keeps as
# forward references.
_CELL_CODECS = {
    int: (str, _parse_int),
    str: (str, str),
    bool: (lambda v: "true" if v else "false", _parse_bool),
    Mapping[str, tuple[str, ...]]: (_write_ids, _read_ids),
}
_CELL_CODECS.update({hint | None: _nil_safe(*_CELL_CODECS[hint]) for hint in (int, str, bool)})
_ROW_CODECS = tuple((name, *_CELL_CODECS[hint])
                    for name, hint in get_type_hints(TraceRow).items())

# Fixed trace CSV header, one column per TraceRow field; the interchange
# format for diffing.
TRACE_COLUMNS = tuple(name for name, _, _ in _ROW_CODECS)


def write_trace_csv(rows: Iterable[TraceRow], fh: IO[str]) -> None:
    """Write trace rows with the fixed header.

    The attribution cell flattens the per-field map to the sorted,
    ``;``-separated union of requirement ids.
    """
    import csv   # here, not at the top: a cold import should not load it

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for row in rows:
        writer.writerow([write(getattr(row, name)) for name, write, _ in _ROW_CODECS])


def read_trace_csv(fh: IO[str]) -> list[TraceRow]:
    """Read a trace CSV back into rows.

    Per-field attribution cannot be recovered from the flattened cell, so the
    ids come back under the single wildcard key ``"*"``.  The round column
    must count 0, 1, 2, … down the rows.  An error names the file line on
    which its record ends, and a bad cell's column.
    """
    import csv   # here, not at the top: a cold import should not load it

    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, 1, "empty trace file") from None
    if tuple(header) != TRACE_COLUMNS:
        raise ParseError(1, 1, f"bad trace header: expected {','.join(TRACE_COLUMNS)}")

    rows = []
    for rec in reader:
        if not rec:
            continue
        lineno = reader.line_num   # a quoted cell may span lines
        if len(rec) != len(TRACE_COLUMNS):
            raise ParseError(lineno, 1, f"expected {len(TRACE_COLUMNS)} cells, got {len(rec)}")
        cells = []
        for (name, _, read), cell in zip(_ROW_CODECS, rec):
            try:
                cells.append(read(cell))
            except ValueError as exc:
                raise ParseError(lineno, 1, f"{name}: {exc}") from None
        row = TraceRow(*cells)
        if row.round != len(rows):
            raise ParseError(lineno, 1, f"round {row.round} where round {len(rows)} "
                                        "was expected")
        rows.append(row)
    return rows
