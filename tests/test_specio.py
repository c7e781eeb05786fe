from __future__ import annotations

import io
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candofsm.fsm import MemberDef, Roster, StateDef, StateKind
from candofsm.specio import (
    TRACE_COLUMNS,
    Packet,
    ParseError,
    SpecDocument,
    bundled_spec_path,
    load_bundled_cando,
    parse_spec,
    read_trace_csv,
    serialize_spec,
    write_trace_csv,
)

MINIMAL = """\
states {
  start: control
  get_cmd: control
  set_vLED: creator_stage1
  send_packet_6: send
}
events {
  CONT
}
commands {
  LED_ON_C
}
"""


def test_single_transition_line_lands_in_the_table():
    doc = parse_spec(MINIMAL + "transition CONT set_vLED -> send_packet_6\n")
    assert doc.fsm == {"CONT": {"set_vLED": "send_packet_6"}}


def test_empty_input_reports_missing_states_section():
    with pytest.raises(ParseError) as err:
        parse_spec("")
    assert (err.value.line, err.value.column) == (1, 1)
    assert "missing states section" in err.value.message


def test_a_tab_may_separate_a_section_name_from_its_brace():
    tabbed = MINIMAL.replace("states {", "states\t{").replace("events {", "events \t{")
    assert parse_spec(tabbed) == parse_spec(MINIMAL)


def test_duplicate_transition_names_the_line():
    text = (MINIMAL
            + "transition CONT set_vLED -> send_packet_6\n"
            + "transition CONT set_vLED -> send_packet_6\n")
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.line == len(text.splitlines())
    assert "duplicate transition" in err.value.message


def test_parse_error_positions_match_hand_count():
    # (text, line, column, message, snippet), one per error site of parse_spec
    head = MINIMAL.split("commands")[0]
    fixtures = [
        (MINIMAL + "transition CONT set_vLED ->\n", 13, 1,
         "expected 'transition EVENT from -> to'", "transition CONT set_vLED ->"),
        (MINIMAL + "dispatch LED_ON_C => set_vLED\n", 13, 1,
         "expected 'dispatch COMMAND -> state'", "dispatch LED_ON_C => set_vLED"),
        (MINIMAL + "packet set_vLED addr=Optrode_addr\n", 13, 1,
         "expected 'packet STATE addr=A cmd=C data=D'",
         "packet set_vLED addr=Optrode_addr"),
        (MINIMAL.replace("CONT", "CONT\n  CONT"), 9, 1,
         "duplicate events entry 'CONT'", "  CONT"),
        (MINIMAL + "frobnicate\n", 13, 1, "unknown directive 'frobnicate'", "frobnicate"),
        # an unterminated section names its header
        (head + "commands {\n  LED_ON_C\n# closing brace lost\n\n", 10, 1,
         "unterminated commands section", "commands {"),
        (MINIMAL.replace("events {", "events {}"), 7, 1, "expected 'events {'",
         "events {}"),
        (MINIMAL.replace("events {", "events { CONT"), 7, 1, "expected 'events {'",
         "events { CONT"),
        # a tab in a header is read as a space is
        (MINIMAL.replace("events {", "events\t{\tCONT"), 7, 1, "expected 'events {'",
         "events\t{\tCONT"),
        (MINIMAL.replace("states {", "state\t{"), 1, 1, "missing states section",
         "state\t{"),
        # a section missing at the end names the line after the last row
        ("states {\n}\nevents {\n}\n# no commands\n", 5, 1,
         "missing commands section", ""),
        (MINIMAL.replace("send_packet_6: send", "send_packet_6: sender"), 5, 1,
         "unknown state kind 'sender'", "  send_packet_6: sender"),
        (MINIMAL.replace("send_packet_6: send", "send_packet_6 send"), 5, 1,
         "expected 'send_packet_6: <kind>'", "  send_packet_6 send"),
        (MINIMAL.replace("send_packet_6: send", "send_packet_6: send now"), 5, 1,
         "unexpected tokens 'now'", "  send_packet_6: send now"),
        (MINIMAL.replace("  CONT\n", "  CONT synthetic later\n"), 8, 1,
         "unexpected tokens 'synthetic later'", "  CONT synthetic later"),
        (MINIMAL.replace("  LED_ON_C", "  9LED_ON_C"), 11, 3,
         "invalid identifier '9LED_ON_C'", "  9LED_ON_C"),
        (MINIMAL + "packet set_vLED addr=Optrode-addr cmd=nil data=nil\n", 13, 22,
         "invalid identifier 'Optrode-addr'",
         "packet set_vLED addr=Optrode-addr cmd=nil data=nil"),
        # the column is the value's own, not where its text first occurs
        (MINIMAL + "packet set_vLED addr=A9 cmd=9 data=nil\n", 13, 29,
         "invalid identifier '9'", "packet set_vLED addr=A9 cmd=9 data=nil"),
        (MINIMAL + "transition CONT set_vLED -> send_packet_6\n" * 2, 14, 1,
         "duplicate transition for (CONT, set_vLED)",
         "transition CONT set_vLED -> send_packet_6"),
        (MINIMAL + "dispatch LED_ON_C -> set_vLED\n" * 2, 14, 1,
         "duplicate dispatch for 'LED_ON_C'", "dispatch LED_ON_C -> set_vLED"),
        (MINIMAL + "packet set_vLED addr=A cmd=nil data=nil\n" * 2, 14, 1,
         "duplicate packet template for 'set_vLED'",
         "packet set_vLED addr=A cmd=nil data=nil"),
        (MINIMAL + "packet set_vLED addr=A command=nil data=nil\n", 13, 1,
         "expected 'cmd=...'", "packet set_vLED addr=A command=nil data=nil"),
        (MINIMAL + "transition EVT set_vLED -> send_packet_6\n", 13, 1,
         "unknown event 'EVT'", "transition EVT set_vLED -> send_packet_6"),
        (MINIMAL + "transition CONT set_vLED -> nowhere\n", 13, 1,
         "unknown state 'nowhere'", "transition CONT set_vLED -> nowhere"),
        (MINIMAL + "dispatch NOPE_C -> set_vLED\n", 13, 1,
         "unknown command 'NOPE_C'", "dispatch NOPE_C -> set_vLED"),
        (MINIMAL + "dispatch LED_ON_C -> nowhere\n", 13, 1,
         "unknown state 'nowhere'", "dispatch LED_ON_C -> nowhere"),
        (MINIMAL + "packet nowhere addr=A cmd=nil data=nil\n", 13, 1,
         "unknown state 'nowhere'", "packet nowhere addr=A cmd=nil data=nil"),
        # comment-only and blank lines count; a CRLF ending is not part of
        # the snippet
        (MINIMAL.replace("\n", "\r\n") + "# a comment line\r\n\r\n  frobnicate\r\n",
         15, 1, "unknown directive 'frobnicate'", "  frobnicate"),
    ]
    for text, lineno, column, message, snippet in fixtures:
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        found = err.value
        assert (found.line, found.column, found.message, found.snippet) \
            == (lineno, column, message, snippet), text
        assert str(found) == f"line {lineno}, column {column}: {message}"


def test_of_two_faults_of_different_kinds_the_earlier_line_wins():
    # (text, line, message) for the earlier fault
    fixtures = [
        (MINIMAL + "frobnicate\n" + "transition CONT set_vLED -> send_packet_6\n" * 2,
         13, "unknown directive 'frobnicate'"),
        (MINIMAL.replace("  LED_ON_C", "  9LED_ON_C") + "frobnicate\n",
         11, "invalid identifier '9LED_ON_C'"),
        (MINIMAL + "packet set_vLED addr=Optrode-addr cmd=nil data=nil\n"
         + "transition CONT set_vLED -> nowhere\n", 13, "invalid identifier 'Optrode-addr'"),
    ]
    for text, lineno, message in fixtures:
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert (err.value.line, err.value.message) == (lineno, message), text


def test_unknown_names_are_rejected():
    with pytest.raises(ParseError) as err:
        parse_spec(MINIMAL + "transition CONT nowhere -> send_packet_6\n")
    assert "unknown state" in err.value.message
    with pytest.raises(ParseError):
        parse_spec(MINIMAL + "transition NOPE set_vLED -> send_packet_6\n")
    with pytest.raises(ParseError):
        parse_spec(MINIMAL + "dispatch NOPE_C -> set_vLED\n")


def test_comments_and_crlf_are_accepted():
    text = MINIMAL.replace("\n", "\r\n") + "# trailing comment\r\n"
    doc = parse_spec(text)
    assert len(doc.roster.states) == 4


def test_round_trip_bundled(spec):
    text = serialize_spec(spec)
    assert parse_spec(text) == spec
    assert serialize_spec(parse_spec(text)) == text


def test_shipped_data_file_round_trips_byte_exact():
    shipped = bundled_spec_path().read_text(encoding="utf-8")
    assert serialize_spec(load_bundled_cando()) == shipped


def test_serialize_then_parse_canonicalizes_in_one_pass(spec):
    # scrambled transition order parses to the same document and serializes
    # to the canonical form; a second pass changes nothing
    canonical = serialize_spec(spec)
    lines = canonical.splitlines()
    transitions = [ln for ln in lines if ln.startswith("transition ")]
    rest = [ln for ln in lines if not ln.startswith("transition ")]
    scrambled = "\n".join(rest + list(reversed(transitions))) + "\n"
    once = serialize_spec(parse_spec(scrambled))
    assert once == canonical
    assert serialize_spec(parse_spec(once)) == once


def test_a_state_outside_the_roster_serializes_last_in_table_order():
    doc = SpecDocument(
        roster=Roster(states=(StateDef("a", StateKind.CONTROL), StateDef("b", StateKind.CONTROL)),
                      events=(MemberDef("E"),), commands=()),
        fsm={"E": {"zz": "a", "b": "a", "yy": "b", "a": "b"}})
    assert serialize_spec(doc).splitlines()[-4:] == [
        "transition E a -> b", "transition E b -> a",
        "transition E zz -> a", "transition E yy -> b"]


def test_empty_roster_serializes_to_three_empty_sections():
    doc = SpecDocument(roster=Roster(states=(), events=(), commands=()), fsm={})
    assert serialize_spec(doc) == "states {\n}\nevents {\n}\ncommands {\n}\n"


def test_single_transition_doc_emits_exactly_one_transition_line():
    doc = parse_spec(MINIMAL + "transition CONT set_vLED -> send_packet_6\n")
    lines = serialize_spec(doc).splitlines()
    assert sum(1 for ln in lines if ln.startswith("transition ")) == 1


def test_packet_template_fields_accept_nil():
    doc = parse_spec(MINIMAL + "packet set_vLED addr=Optrode_addr cmd=nil data=nil\n")
    assert doc.packets["set_vLED"] == Packet(addr="Optrode_addr")


def test_bundled_document_invariants(spec):
    assert (len(spec.roster.states), len(spec.roster.events),
            len(spec.roster.commands)) == (34, 21, 17)
    assert set(spec.dispatch) == set(spec.roster.command_names)
    for target in spec.dispatch.values():
        assert spec.roster.kind_of(target) is StateKind.CREATOR_STAGE1
    creators = set(spec.roster.states_of_kind(
        StateKind.CREATOR, StateKind.CREATOR_STAGE1, StateKind.CREATOR_STAGE2))
    assert set(spec.packets) == creators
    named = {s.name for s in spec.roster.states if not s.synthetic}
    assert named == {
        "start", "get_cmd", "cmd_finish", "error_", "chip_rst", "LED_off",
        "set_vLED", "set_sDac", "send_packet_3", "send_packet_6",
        "receive_packet_27", "receive_packet_28",
    }


_name = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)


@st.composite
def documents(draw):
    state_names = draw(st.lists(_name, min_size=1, max_size=6, unique=True))
    kinds = [draw(st.sampled_from(list(StateKind))) for _ in state_names]
    events = draw(st.lists(_name.map(str.upper), min_size=1, max_size=4, unique=True))
    commands = draw(st.lists(_name.map(lambda n: n.upper() + "_C"),
                             min_size=1, max_size=4, unique=True))
    roster = Roster(
        states=tuple(StateDef(n, k, draw(st.booleans()))
                     for n, k in zip(state_names, kinds)),
        events=tuple(MemberDef(e, draw(st.booleans())) for e in events),
        commands=tuple(MemberDef(c, draw(st.booleans())) for c in commands),
    )
    fsm = {}
    for ev in draw(st.sets(st.sampled_from(events))):
        # an event with an empty map is unrepresentable in the line format
        keys = draw(st.sets(st.sampled_from(state_names), min_size=1))
        fsm[ev] = {k: draw(st.sampled_from(state_names)) for k in keys}
    dispatch = {c: draw(st.sampled_from(state_names))
                for c in draw(st.sets(st.sampled_from(commands)))}
    packets = {
        s: Packet(
            addr=draw(st.sampled_from([None, "Optrode_addr"])),
            cmd=draw(st.sampled_from([None] + commands)),
            data=draw(st.sampled_from([None, "DAC_value"])),
        )
        for s in draw(st.sets(st.sampled_from(state_names)))
    }
    return SpecDocument(roster=roster, fsm=fsm, dispatch=dispatch, packets=packets)


@settings(max_examples=80, deadline=None)
@given(documents())
def test_parse_inverts_serialize(doc):
    text = serialize_spec(doc)
    parsed = parse_spec(text)
    assert parsed == doc
    assert serialize_spec(parsed) == text


SHIPPED_LINES = bundled_spec_path().read_text(encoding="utf-8").splitlines()
DIRECTIVE_LINES = [i for i, ln in enumerate(SHIPPED_LINES)
                   if ln.startswith(("transition ", "dispatch ", "packet "))]
# no character that str.splitlines breaks a line at
_comment = st.text(string.ascii_letters + string.digits + " \t#:{}->_=", max_size=10).map(
    "#".__add__)
# each fails on its own line, wherever it stands
_junk = st.one_of(
    _name.filter(lambda n: n not in ("transition", "dispatch", "packet")),
    st.sampled_from([
        "transition CONT start ->", "transition CONT start -> nowhere",
        "transition NOPE start -> get_cmd", "dispatch LED_ON_C => set_vLED",
        "dispatch NOPE_C -> set_vLED", "packet set_vLED addr=A",
        "packet nowhere addr=A cmd=nil data=nil", "states {", "}"]))


@st.composite
def noisy_shipped_text_with_junk(draw):
    """The shipped text with blank and comment lines, trailing comments,
    mixed line endings and one directive line replaced by junk; returns
    (text, the junk's line number, its raw line)."""
    lines = list(SHIPPED_LINES)
    junk = draw(st.sampled_from(DIRECTIVE_LINES))
    lines[junk] = (draw(st.sampled_from(["", "  ", "\t"])) + draw(_junk)
                   + draw(st.sampled_from(["", " ", "  "])))
    for i in draw(st.sets(st.integers(0, len(lines) - 1), max_size=12)):
        lines[i] += draw(st.sampled_from(["", " ", "\t"])) + draw(_comment)
    for i in sorted(draw(st.sets(st.integers(0, len(lines)), max_size=12)), reverse=True):
        lines.insert(i, draw(st.one_of(st.sampled_from(["", "   ", "\t"]), _comment)))
        junk += i <= junk
    endings = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = "".join(ln + (endings if endings != "mixed" else draw(st.sampled_from(
        ["\n", "\r\n"]))) for ln in lines)
    return text, junk + 1, lines[junk]


@settings(max_examples=60, deadline=None)
@given(noisy_shipped_text_with_junk())
def test_noise_does_not_move_the_line_of_a_junk_directive(case):
    text, lineno, raw = case
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert (err.value.line, err.value.snippet) == (lineno, raw)


def test_trace_csv_round_trip(spec):
    from candofsm.opmodel import run

    trace = run(spec, "LED_ON_C", 100)
    buf = io.StringIO()
    write_trace_csv(trace.rows, buf)
    buf.seek(0)
    rows = read_trace_csv(buf)
    assert len(rows) == len(trace.rows)
    for a, b in zip(trace.rows, rows):
        assert a.values() == b.values()


def test_nil_cells_round_trip_as_empty_cells():
    from candofsm.trace import TraceRow

    # every nullable column nil; an empty state is a string, not nil
    rows = [TraceRow(0, "start", *[None] * 11), TraceRow(1, "", *[None] * 11)]
    buf = io.StringIO()
    write_trace_csv(rows, buf)
    assert buf.getvalue().splitlines()[1:] == ["0,start" + "," * 12, "1," + "," * 12]
    buf.seek(0)
    assert read_trace_csv(buf) == rows


def test_trace_csv_bad_header_rejected():
    with pytest.raises(ParseError):
        read_trace_csv(io.StringIO("round,state\n0,start\n"))
    with pytest.raises(ParseError):
        read_trace_csv(io.StringIO(""))


def test_trace_csv_bad_cells_rejected():
    header = ",".join(TRACE_COLUMNS)
    bad_bool = header + "\n0,s,e,c,,,,0,0,0,maybe,false,false,\n"
    with pytest.raises(ParseError, match="^line 2, column 1: tx_finish: bad boolean "
                                         "cell 'maybe'$"):
        read_trace_csv(io.StringIO(bad_bool))
    bad_int = header + "\nx,s,e,c,,,,0,0,0,true,false,false,\n"
    with pytest.raises(ParseError, match="^line 2, column 1: round: bad integer "
                                         "cell 'x'$"):
        read_trace_csv(io.StringIO(bad_int))


def test_trace_csv_skips_a_blank_record_and_rejects_a_short_one():
    header = ",".join(TRACE_COLUMNS)
    row = "0,s,e,c,,,,0,0,0,true,false,false,"
    rows = read_trace_csv(io.StringIO(f"{header}\n\n{row}\n\n"))
    assert len(rows) == 1 and rows == read_trace_csv(io.StringIO(f"{header}\n{row}\n"))
    with pytest.raises(ParseError, match=r"^line 3, column 1: expected 14 cells, got 13$"):
        read_trace_csv(io.StringIO(f"{header}\n{row}\n{row[:-1]}\n"))


# row 0's state is quoted across file lines 2 and 3; row 1, on line 4, has a
# bad boolean
TWO_LINE_STATE_TRACE = ",".join(TRACE_COLUMNS) + (
    '\n0,"sta\nrt",e,c,,,,0,0,0,false,false,false,\n'
    "1,s,e,c,,,,0,0,0,maybe,false,false,\n")


def test_a_trace_csv_error_names_the_file_line_after_a_two_line_cell():
    with pytest.raises(ParseError) as err:
        read_trace_csv(io.StringIO(TWO_LINE_STATE_TRACE))
    assert (err.value.line, err.value.message) == (4, "tx_finish: bad boolean cell 'maybe'")
