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

import io
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import IO, Iterable, Mapping, NamedTuple, get_type_hints

from .fsm import MemberDef, Roster, StateDef, StateKind
from .trace import TraceRow

_KIND_TOKENS = {k.value: k for k in StateKind}
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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
    if not _NAME_RE.match(name):
        column = [m.start() for m in re.finditer(r"\S+", raw)][token] + offset + 1
        raise _err(lineno, f"invalid identifier {name!r}", raw, column)
    return name


def _parse_member_lines(rows: list[tuple[int, str, str]], start: int, section: str,
                        with_kind: bool) -> tuple[list, int]:
    """Read a roster section's entries from ``rows[start]`` up to its closing
    brace; returns the entries and the index of the row after the brace."""
    entries = []
    seen: set[str] = set()
    for pos in range(start, len(rows)):
        lineno, text, raw = rows[pos]
        if text == "}":
            return entries, pos + 1
        tokens = text.replace(":", " : ").split()
        name = _check_name(tokens[0], lineno, raw)
        if name in seen:
            raise _err(lineno, f"duplicate {section} entry {name!r}", raw)
        seen.add(name)
        rest = tokens[1:]
        synthetic = False
        if with_kind:
            if len(rest) < 2 or rest[0] != ":":
                raise _err(lineno, f"expected '{name}: <kind>'", raw)
            kind_token = rest[1]
            if kind_token not in _KIND_TOKENS:
                raise _err(lineno, f"unknown state kind {kind_token!r}", raw)
            trailer = rest[2:]
            if trailer == ["synthetic"]:
                synthetic = True
            elif trailer:
                raise _err(lineno, f"unexpected tokens {' '.join(trailer)!r}", raw)
            entries.append(StateDef(name, _KIND_TOKENS[kind_token], synthetic))
        else:
            if rest == ["synthetic"]:
                synthetic = True
            elif rest:
                raise _err(lineno, f"unexpected tokens {' '.join(rest)!r}", raw)
            entries.append(MemberDef(name, synthetic))
    # the section's header line
    lineno, _, raw = rows[start - 1]
    raise _err(lineno, f"unterminated {section} section", raw)


def parse_spec(text: str) -> SpecDocument:
    """Parse spec text into a :class:`SpecDocument`; raise :class:`ParseError`.

    Each line that is not blank or a comment is one row (line number,
    stripped text, raw line); the three roster sections come first, then
    one directive per row."""
    rows = [(i, stripped, raw) for i, raw in enumerate(text.splitlines(), start=1)
            if (stripped := raw.partition("#")[0].strip())]

    pos = 0
    sections: dict[str, list] = {}
    for section, with_kind in (("states", True), ("events", False), ("commands", False)):
        if pos == len(rows):
            # the line after the last row, or line 1 of an empty text
            raise _err(rows[-1][0] + 1 if rows else 1, f"missing {section} section")
        lineno, text_line, raw = rows[pos]
        header = "".join(text_line.split())
        if not header.startswith(section + "{"):
            raise _err(lineno, f"missing {section} section", raw)
        if header != section + "{":
            raise _err(lineno, f"expected '{section} {{'", raw)
        sections[section], pos = _parse_member_lines(rows, pos + 1, section, with_kind)

    roster = Roster(
        states=tuple(sections["states"]),
        events=tuple(sections["events"]),
        commands=tuple(sections["commands"]),
    )
    state_names = set(roster.state_names)
    event_names = set(roster.event_names)
    command_names = set(roster.command_names)

    fsm: dict[str, dict[str, str]] = {}
    dispatch: dict[str, str] = {}
    packets: dict[str, Packet] = {}

    for lineno, text_line, raw in rows[pos:]:
        tokens = text_line.split()
        head = tokens[0]
        if head == "transition":
            if len(tokens) != 5 or tokens[3] != "->":
                raise _err(lineno, "expected 'transition EVENT from -> to'", raw)
            ev, frm, to = tokens[1], tokens[2], tokens[4]
            if ev not in event_names:
                raise _err(lineno, f"unknown event {ev!r}", raw)
            if frm not in state_names:
                raise _err(lineno, f"unknown state {frm!r}", raw)
            if to not in state_names:
                raise _err(lineno, f"unknown state {to!r}", raw)
            per = fsm.setdefault(ev, {})
            if frm in per:
                raise _err(lineno, f"duplicate transition for ({ev}, {frm})", raw)
            per[frm] = to
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
    transitions grouped by event name alphabetically, states in roster order."""
    out = io.StringIO()
    out.write("states {\n")
    for s in doc.roster.states:
        suffix = " synthetic" if s.synthetic else ""
        out.write(f"  {s.name}: {s.kind.value}{suffix}\n")
    out.write("}\n")
    for label, members in (("events", doc.roster.events), ("commands", doc.roster.commands)):
        out.write(f"{label} {{\n")
        for m in members:
            suffix = " synthetic" if m.synthetic else ""
            out.write(f"  {m.name}{suffix}\n")
        out.write("}\n")

    state_order = {name: i for i, name in enumerate(doc.roster.state_names)}
    for ev in sorted(doc.fsm):
        per = doc.fsm[ev]
        for frm in sorted(per, key=lambda n: state_order.get(n, len(state_order))):
            out.write(f"transition {ev} {frm} -> {per[frm]}\n")
    for cmd in doc.roster.command_names:
        if cmd in doc.dispatch:
            out.write(f"dispatch {cmd} -> {doc.dispatch[cmd]}\n")
    for st in doc.roster.state_names:
        if st in doc.packets:
            t = doc.packets[st]
            out.write(
                f"packet {st} addr={t.addr or 'nil'} cmd={t.cmd or 'nil'} "
                f"data={t.data or 'nil'}\n"
            )
    return out.getvalue()


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
