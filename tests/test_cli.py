from __future__ import annotations

import dataclasses
import errno
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import candofsm.cli
import candofsm.generate
import candofsm.opmodel
import candofsm.reqs.engine
from candofsm.cli import main
from candofsm.fsm import StateDef, StateKind
from candofsm.reqs.model import ModelError
from candofsm.specio import (
    bundled_spec_path,
    load_bundled_cando,
    load_spec,
    serialize_spec,
)
from candofsm.trace import MAX_ROUNDS, RunError, equivalence_report
from conftest import (
    mutate_table,
    with_kind_named_error_state,
    with_no_stage_two_creator,
    with_second_error_state,
)
from test_specio import TWO_LINE_STATE_TRACE


@pytest.fixture()
def spec_file(spec, tmp_path):
    path = tmp_path / "cando.fsm"
    path.write_text(serialize_spec(spec), encoding="utf-8")
    return str(path)


@pytest.fixture()
def broken_spec_file(spec, tmp_path):
    mutated = mutate_table(spec, "EVT_6", "send_packet_1", "start")
    path = tmp_path / "broken.fsm"
    path.write_text(serialize_spec(mutated), encoding="utf-8")
    return str(path)


@pytest.fixture()
def stray_dispatch_file(tmp_path):
    text = bundled_spec_path().read_text(encoding="utf-8")
    path = tmp_path / "stray_dispatch.fsm"
    path.write_text(text.replace("dispatch LED_ON_C -> set_vLED\n",
                                 "dispatch LED_ON_C -> cmd_finish\n"),
                    encoding="utf-8")
    return str(path)


@pytest.fixture()
def no_dispatch_file(tmp_path):
    """The shipped spec without LED_ON_C's dispatch entry."""
    text = bundled_spec_path().read_text(encoding="utf-8")
    path = tmp_path / "no_dispatch.fsm"
    path.write_text(text.replace("dispatch LED_ON_C -> set_vLED\n", ""),
                    encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    return str(path)


@pytest.fixture()
def looping_file(tmp_path):
    """The shipped spec with receive_packet_27's CONT arrow looped back to
    set_sDac, so three commands never finish."""
    text = bundled_spec_path().read_text(encoding="utf-8")
    path = tmp_path / "looping.fsm"
    path.write_text(text.replace("transition CONT receive_packet_27 -> cmd_finish\n",
                                 "transition CONT receive_packet_27 -> set_sDac\n"),
                    encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    return str(path)


@pytest.fixture()
def second_error_file(spec, tmp_path):
    path = tmp_path / "second_error.fsm"
    path.write_text(serialize_spec(with_second_error_state(spec)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def extra_control_file(spec, tmp_path):
    """The shipped spec with a control state ``idle`` that ``check`` rejects
    and the generator has no rule for: every event takes it to error_, and
    EVT_6 takes start to it."""
    roster = spec.roster._replace(
        states=(*spec.roster.states, StateDef("idle", StateKind.CONTROL)))
    fsm = {e: {**m, "idle": "error_"} for e, m in spec.fsm.items()}
    fsm["EVT_6"]["start"] = "idle"
    path = tmp_path / "extra_control.fsm"
    path.write_text(serialize_spec(dataclasses.replace(spec, roster=roster, fsm=fsm)),
                    encoding="utf-8")
    return str(path)


@pytest.fixture()
def no_stage_two_file(spec, tmp_path):
    path = tmp_path / "no_stage_two.fsm"
    path.write_text(serialize_spec(with_no_stage_two_creator(spec)), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_clean_spec_exits_zero(self, spec_file, capsys):
        assert main(["check", spec_file]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_violating_spec_exits_one_and_names_the_rule(self, broken_spec_file,
                                                         capsys):
        assert main(["check", broken_spec_file]) == 1
        out = capsys.readouterr().out
        assert "C1.1" in out

    def test_dispatch_target_outside_stage_one_breaks_c1_8(self, stray_dispatch_file,
                                                          capsys):
        assert main(["check", stray_dispatch_file]) == 1
        out = capsys.readouterr().out
        assert "C1.8 (1):\n  event=CONT get_cmd -> cmd_finish: dispatch of " \
               "'LED_ON_C'" in out
        assert out.endswith("1 violations\n")

    def test_a_command_without_dispatch_breaks_totality(self, no_dispatch_file,
                                                        capsys):
        assert main(["check", no_dispatch_file]) == 1
        out = capsys.readouterr().out
        assert out == ("TOTALITY (1):\n  event=CONT get_cmd: command 'LED_ON_C' "
                       "has no dispatch entry, so 'get_cmd' has no CONT entry "
                       "for it\n1 violations\n")

    def test_a_command_that_never_finishes_breaks_finish(self, looping_file, capsys):
        assert main(["check", looping_file]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FINISH (3):" and lines[4:] == ["3 violations"]
        assert [line.split("'")[1] for line in lines[1:4]] \
            == ["LED_ON_C", "SET_DAC_C", "FS_RATIO_C"]
        assert main(["verify", looping_file]) == 1
        assert capsys.readouterr().out.endswith("verify: FAIL (3 structural violations)\n")

    def test_a_second_error_state_is_accepted(self, second_error_file, capsys):
        assert main(["check", second_error_file]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_a_spec_without_stage_two_creators_is_accepted(self, no_stage_two_file,
                                                           capsys):
        assert main(["check", no_stage_two_file]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/spec.fsm"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "{path}"], ["diff", "{path}", "{other}"]],
                             ids=["verify", "diff"])
    def test_an_unreadable_file_is_named_once_with_its_reason(self, tmp_path, capsys,
                                                              argv):
        other = tmp_path / "other.csv"
        other.write_text("", encoding="utf-8")
        for path, reason in ((tmp_path / "nonexist", "no such file"),
                             (tmp_path, "Is a directory")):
            assert main([a.format(path=path, other=other) for a in argv]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"cannot read {str(path)!r}: {reason}\n")

    @pytest.mark.parametrize("subcommand", [
        ["check"], ["verify"], ["report"], ["simulate", "--command", "DUMMY_C"]])
    def test_a_spec_that_is_not_utf8_exits_two_with_one_line(self, tmp_path, capsys,
                                                             subcommand):
        path = tmp_path / "bad.fsm"
        path.write_bytes(b"states {\n  st\xff: control\n}\n")
        assert main([subcommand[0], str(path), *subcommand[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read {str(path)!r}: not UTF-8 text " \
                               "(invalid start byte)\n"

    def test_malformed_spec_exits_two_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.fsm"
        path.write_text("states {\n  start control\n}\n", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err


class TestSimulate:
    def test_both_engines_write_matching_csvs(self, spec_file, tmp_path, capsys):
        ops_path = tmp_path / "ops.csv"
        reqs_path = tmp_path / "reqs.csv"
        assert main(["simulate", spec_file, "--command", "LED_ON_C",
                     "--engine", "ops", "--out", str(ops_path)]) == 0
        assert main(["simulate", spec_file, "--command", "LED_ON_C",
                     "--engine", "reqs", "--out", str(reqs_path)]) == 0
        capsys.readouterr()
        assert main(["diff", str(ops_path), str(reqs_path)]) == 0
        assert "0 differences" in capsys.readouterr().out

    def test_trace_goes_to_stdout_without_out(self, spec_file, capsys):
        assert main(["simulate", spec_file, "--command", "LED_OFF_C"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("round,state,event,command")

    def test_unknown_command_is_a_usage_error(self, spec_file, capsys):
        assert main(["simulate", spec_file, "--command", "NOPE_C"]) == 3

    def test_zero_round_budget_is_a_usage_error(self, spec_file):
        assert main(["simulate", spec_file, "--command", "LED_ON_C",
                     "--max-rounds", "0"]) == 3

    def test_unknown_flag_is_a_usage_error(self, spec_file, capsys):
        assert main(["simulate", spec_file, "--command", "LED_ON_C",
                     "--frobnicate"]) == 3

    def test_unwritable_out_is_a_load_error(self, spec_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["simulate", spec_file, "--command", "LED_ON_C",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {str(out)!r}: ")
        assert "Traceback" not in captured.err

    def test_reqs_engine_on_a_rejected_spec_reports_the_violations(
            self, extra_control_file, capsys):
        assert main(["check", extra_control_file]) == 1
        checked = capsys.readouterr().out
        assert main(["simulate", extra_control_file, "--command", "LED_ON_C",
                     "--engine", "reqs"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ROSTER" in captured.err and "C1.2" in captured.err
        count = checked.splitlines()[-1].split()[0]
        assert captured.err.endswith(f"\n{count} structural violations\n")

    def test_both_engines_reject_a_spec_check_rejects_alike(
            self, extra_control_file, tmp_path, capsys):
        # the operational engine could run this spec, but a simulation runs
        # only on a spec that passes the structural checks, whichever engine
        outcomes = {}
        for engine in ("ops", "reqs"):
            out = tmp_path / f"{engine}.csv"
            code = main(["simulate", extra_control_file, "--command", "LED_ON_C",
                         "--engine", engine, "--out", str(out)])
            captured = capsys.readouterr()
            outcomes[engine] = code, captured.out, captured.err, out.exists()
        assert outcomes["ops"] == outcomes["reqs"]
        code, out, err, written = outcomes["ops"]
        assert (code, out, written) == (1, "", False)
        assert err.endswith(" structural violations\n")

    @pytest.mark.parametrize("engine, message", [
        ("ops", "cannot run LED_ON_C on the operational model: round 2: "),
        ("reqs", "cannot generate the requirements model: "),
    ], ids=["ops", "reqs"])
    def test_missing_packet_template_is_a_load_error(self, tmp_path, capsys,
                                                     engine, message):
        lines = bundled_spec_path().read_text(encoding="utf-8").splitlines(True)
        path = tmp_path / "no_vled_packet.fsm"
        path.write_text("".join(ln for ln in lines
                                if not ln.startswith("packet set_vLED ")),
                        encoding="utf-8")
        assert main(["simulate", str(path), "--command", "LED_ON_C",
                     "--engine", engine]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{message}no packet template for creator "
                                "state 'set_vLED'\n")


class TestDiff:
    def test_identical_files(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.csv"
        main(["simulate", spec_file, "--command", "DUMMY_C", "--out", str(out)])
        assert main(["diff", str(out), str(out)]) == 0

    def test_mutated_row_reports_one_entry(self, spec_file, tmp_path, capsys):
        left = tmp_path / "left.csv"
        main(["simulate", spec_file, "--command", "DUMMY_C", "--out", str(left)])
        lines = left.read_text().splitlines()
        target = next(i for i, ln in enumerate(lines) if "send_packet_1" in ln)
        lines[target] = lines[target].replace("send_packet_1", "send_packet_2", 1)
        right = tmp_path / "right.csv"
        right.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diff", str(left), str(right)]) == 1
        out = capsys.readouterr().out
        assert "1 differences" in out
        assert "state" in out

    def test_completion_flags_are_compared_by_default(self, spec_file, tmp_path,
                                                      capsys):
        left = tmp_path / "left.csv"
        main(["simulate", spec_file, "--command", "DUMMY_C", "--out", str(left)])
        lines = left.read_text().splitlines()
        target = next(i for i, ln in enumerate(lines) if ",true,false,false," in ln)
        lines[target] = lines[target].replace(",true,false,false,", ",false,false,false,")
        right = tmp_path / "right.csv"
        right.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["diff", str(left), str(right)]) == 1
        assert "tx_finish" in capsys.readouterr().out
        assert main(["diff", str(left), str(right), "--ignore", "tx_finish"]) == 0

    def test_unknown_ignore_field_is_a_usage_error(self, spec_file, tmp_path,
                                                   capsys):
        trace = tmp_path / "t.csv"
        main(["simulate", spec_file, "--command", "DUMMY_C", "--out", str(trace)])
        capsys.readouterr()
        assert main(["diff", str(trace), str(trace),
                     "--ignore", "packet,no_such_field"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "--ignore: unknown fields no_such_field, packet (columns: round, ")
        assert captured.err.count("\n") == 1

    def test_malformed_csv_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("also,not,a,trace\n")
        assert main(["diff", str(bad), str(ok)]) == 2

    def test_a_trace_that_is_not_utf8_exits_two_with_one_line(self, spec_file, tmp_path,
                                                              capsys):
        ok = tmp_path / "ok.csv"
        main(["simulate", spec_file, "--command", "DUMMY_C", "--out", str(ok)])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(ok.read_bytes().replace(b"DUMMY_C", b"DUMMY_\xff", 1))
        capsys.readouterr()
        assert main(["diff", str(ok), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read {str(bad)!r}: not UTF-8 text " \
                               "(invalid start byte)\n"

    def test_a_round_column_that_does_not_count_from_zero_exits_two(
            self, spec_file, tmp_path, capsys):
        ok = tmp_path / "ok.csv"
        main(["simulate", spec_file, "--command", "DUMMY_C", "--out", str(ok)])
        header, *rows = ok.read_text().splitlines()
        twice = tmp_path / "twice.csv"
        twice.write_text("\n".join([header, *rows, *rows]) + "\n")
        late = tmp_path / "late.csv"
        late.write_text("\n".join([header, *rows[3:]]) + "\n")
        capsys.readouterr()
        assert main(["diff", str(ok), str(twice)]) == 2
        assert main(["diff", str(late), str(ok)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{twice}:{len(rows) + 2}: round 0 where round {len(rows)} was expected\n"
            f"{late}:2: round 3 where round 0 was expected\n")

    def test_an_error_after_a_two_line_cell_names_its_file_line(self, tmp_path, capsys):
        bad = tmp_path / "two_line.csv"
        bad.write_text(TWO_LINE_STATE_TRACE)
        assert main(["diff", str(bad), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{bad}:4: tx_finish: bad boolean cell 'maybe'\n"

    def test_unreadable_file_exits_two(self, tmp_path):
        assert main(["diff", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 2


class TestVerify:
    def test_bundled_spec_verifies(self, spec_file, capsys):
        assert main(["verify", spec_file]) == 0
        out = capsys.readouterr().out
        assert "Overall: PASS" in out
        assert "requirements" in out  # the generation scale summary

    def test_a_second_error_state_verifies(self, second_error_file, capsys):
        assert main(["verify", second_error_file]) == 0
        captured = capsys.readouterr()
        assert "Overall: PASS" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_a_spec_without_stage_two_creators_verifies(self, no_stage_two_file,
                                                         capsys):
        assert main(["verify", no_stage_two_file]) == 0
        captured = capsys.readouterr()
        assert "Overall: PASS" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_a_spec_without_commands_compares_nothing_and_fails(self, spec, tmp_path,
                                                                capsys):
        no_commands = dataclasses.replace(
            spec, roster=spec.roster._replace(commands=()), dispatch={})
        path = tmp_path / "no_commands.fsm"
        path.write_text(serialize_spec(no_commands), encoding="utf-8")
        roster = ("ROSTER (1):\n  the roster has no command, so nothing can be run "
                  "or compared\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == roster + "1 violations\n"
        # verify stops at the check, before it generates or runs anything
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out == roster + "verify: FAIL (1 structural violations)\n"

    def test_shipped_spec_generates_the_model_once(self, monkeypatch, capsys):
        calls = []
        original = candofsm.generate.generate_model

        def counting(spec):
            calls.append(spec)
            return original(spec)

        # patch every name a caller can look the generator up by
        monkeypatch.setattr(candofsm.generate, "generate_model", counting)
        monkeypatch.setattr(candofsm.cli, "generate_model", counting)
        checks = []
        check_all = candofsm.cli._all_checks
        monkeypatch.setattr(candofsm.cli, "_all_checks",
                            lambda spec: checks.append(spec) or check_all(spec))
        assert main(["verify", str(bundled_spec_path())]) == 0
        assert len(calls) == 1
        assert len(checks) == 1
        assert load_bundled_cando() == load_spec(bundled_spec_path())

    def test_structural_violations_fail_verification(self, broken_spec_file,
                                                     capsys):
        assert main(["verify", broken_spec_file]) == 1
        assert "C1.1" in capsys.readouterr().out

    def test_stray_dispatch_target_is_a_structural_failure(self, stray_dispatch_file,
                                                           capsys):
        assert main(["verify", stray_dispatch_file]) == 1
        out = capsys.readouterr().out
        assert "C1.8 (1):" in out
        assert out.endswith("verify: FAIL (1 structural violations)\n")

    def test_a_command_without_dispatch_fails_verification(self, no_dispatch_file,
                                                           capsys):
        assert main(["verify", no_dispatch_file]) == 1
        captured = capsys.readouterr()
        assert "TOTALITY (1):" in captured.out
        assert captured.out.endswith("verify: FAIL (1 structural violations)\n")
        # no engine runs on it: simulate reports the violation and stops
        assert main(["simulate", no_dispatch_file, "--command", "LED_ON_C",
                     "--engine", "reqs"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("\n1 structural violations\n")

    def test_diverging_spec_fails_verification(self, spec, tmp_path, capsys):
        mutated = mutate_table(spec, "SPI_TX_FINISH", "send_packet_1",
                               "receive_packet_21")
        path = tmp_path / "diverging.fsm"
        path.write_text(serialize_spec(mutated), encoding="utf-8")
        assert main(["verify", str(path), "--max-rounds", "120"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_parse_failure_exits_two(self, tmp_path):
        path = tmp_path / "bad.fsm"
        path.write_text("nonsense\n", encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    def test_zero_round_budget_is_a_usage_error(self, spec_file, capsys):
        assert main(["simulate", spec_file, "--command", "LED_ON_C",
                     "--max-rounds", "0"]) == 3
        simulate_err = capsys.readouterr().err
        assert main(["verify", spec_file, "--max-rounds", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.err == simulate_err == "--max-rounds must be at least 1\n"
        assert captured.out == ""

    def test_a_zero_round_budget_is_checked_before_the_spec_is_read(
            self, tmp_path, capsys):
        missing = str(tmp_path / "nope.fsm")
        for argv in (["simulate", missing, "--command", "X"], ["verify", missing]):
            assert main([*argv, "--max-rounds", "0"]) == 3, argv[0]
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "--max-rounds must be at least 1\n")
            # with a budget, the missing spec is the failure
            assert main(argv) == 2, argv[0]
            assert capsys.readouterr().err.startswith(f"cannot read {missing!r}: ")

    def test_a_budget_too_small_to_finish_fails(self, spec_file, capsys):
        assert main(["verify", spec_file, "--max-rounds", "5"]) == 1
        out = capsys.readouterr().out
        assert "ops: budget, no violations; reqs: budget, no violations" in out
        assert "Overall: FAIL" in out


class TestReport:
    def test_markdown_contains_the_vled_title(self, spec_file, capsys):
        assert main(["report", spec_file]) == 0
        out = capsys.readouterr().out
        assert "set_vLED to send_packet_6" in out

    def test_output_is_byte_identical_across_runs(self, spec_file, capsys):
        main(["report", spec_file])
        first = capsys.readouterr().out
        assert main(["report", spec_file, "--format", "md"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_a_spec_check_rejects_reports_the_violations(self, extra_control_file,
                                                        capsys):
        assert main(["report", extra_control_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ROSTER" in captured.err and "C1.2" in captured.err
        assert captured.err.endswith(" structural violations\n")

    def test_unknown_format_is_a_usage_error(self, spec_file):
        assert main(["report", spec_file, "--format", "pdf"]) == 3


class TestRunFailure:
    """A round's fault in either engine ends simulate and verify alike:
    exit 2, naming the command and the engine's model, and no traceback."""

    @pytest.mark.parametrize("engine, module, name, model", [
        ("ops", candofsm.opmodel, "run", "operational"),
        ("reqs", candofsm.reqs.engine, "run_requirements_trace", "requirements"),
    ], ids=["ops", "reqs"])
    @pytest.mark.parametrize("subcommand", ["simulate", "verify"])
    def test_a_run_error_is_a_load_error(self, spec_file, monkeypatch, capsys,
                                         engine, module, name, model, subcommand):
        def failing(source, command, max_rounds):
            raise RunError(engine, command, 2, RuntimeError("injected"))

        monkeypatch.setattr(module, name, failing)
        if subcommand == "simulate":
            argv = ["simulate", spec_file, "--command", "LED_ON_C", "--engine", engine]
            command = "LED_ON_C"
        else:
            # verify runs the roster's commands in order, ops before reqs
            argv = ["verify", spec_file]
            command = load_spec(spec_file).roster.command_names[0]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"cannot run {command} on the {model} model: "
                                "round 2: injected\n")


@pytest.mark.parametrize("argv", [
    ["check"], ["verify"], ["report"],
    ["simulate", "--command", "LED_ON_C", "--engine", "reqs"],
], ids=["check", "verify", "report", "simulate"])
def test_a_state_named_like_a_kind_is_a_structural_violation(spec, tmp_path, capsys,
                                                             argv):
    # the generator would give its from_, to_ and arrive_ definitions the
    # send kind's names
    path = tmp_path / "kind_send.fsm"
    path.write_text(serialize_spec(with_kind_named_error_state(spec)), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert "ROSTER (1):\n  kind_send: state 'kind_send': the prefix 'kind_' is reserved" \
        in captured.out + captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["verify"], ["report"], ["simulate", "--command", "LED_ON_C", "--engine", "reqs"],
], ids=["verify", "report", "simulate"])
def test_a_model_the_generator_cannot_validate_is_a_load_error(spec_file, capsys,
                                                               monkeypatch, argv):
    def failing(spec):
        raise ModelError("duplicate definition names: ['from_kind_send']")

    monkeypatch.setattr(candofsm.cli, "generate_model", failing)
    assert main([argv[0], spec_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cannot generate the requirements model: "
                            "duplicate definition names: ['from_kind_send']\n")


class TestTopLevel:
    def test_the_parser_is_built_once(self):
        assert candofsm.cli.build_parser() is candofsm.cli.build_parser()

    def test_the_round_budget_defaults_to_one_constant(self):
        parser = candofsm.cli.build_parser()
        for argv in (["verify", "x.fsm"], ["simulate", "x.fsm", "--command", "C"]):
            assert parser.parse_args(argv).max_rounds == MAX_ROUNDS == 500
        assert inspect.signature(equivalence_report).parameters["max_rounds"].default \
            == MAX_ROUNDS

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_missing_subcommand_is_a_usage_error(self):
        assert main([]) == 3

    @pytest.mark.parametrize("package", ["candofsm", "candofsm.reqs"])
    def test_public_export_lists_import(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), name
        removed = {"run_rounds", "run_reqs", "FieldMap", "PACKET_FIELD_MAP", "ConstantDef"}
        assert not removed & set(module.__all__)
        assert not any(hasattr(module, name) for name in removed)

    def test_module_entry_point_runs(self, spec_file):
        result = subprocess.run(
            [sys.executable, "-m", "candofsm.cli", "check", spec_file],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "0 violations" in result.stdout

    @pytest.mark.parametrize("command", [["verify"], ["simulate", "--command", "LED_ON_C"]],
                             ids=["verify", "simulate"])
    def test_a_stdout_with_no_reader_is_an_unwritable_output(self, spec_file, command):
        # the read end is closed before the process starts, so its first
        # write fails whatever the timing
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "candofsm", command[0], spec_file, *command[1:]],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert result.returncode == 2
        broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        assert result.stderr == f"cannot write to stdout: {broken}\n"
