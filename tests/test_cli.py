from __future__ import annotations

import dataclasses
import importlib
import subprocess
import sys

import pytest

import candofsm.cli
import candofsm.generate
from candofsm.cli import main
from candofsm.fsm import StateDef, StateKind
from candofsm.specio import (
    bundled_spec_path,
    load_bundled_cando,
    load_spec,
    serialize_spec,
)
from conftest import mutate_table, with_no_stage_two_creator, with_second_error_state


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
def second_error_file(spec, tmp_path):
    path = tmp_path / "second_error.fsm"
    path.write_text(serialize_spec(with_second_error_state(spec)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def extra_control_file(spec, tmp_path):
    """The shipped spec with a control state ``idle`` that ``check`` rejects
    and the generator has no rule for: every event takes it to error_, and
    EVT_6 takes start to it."""
    roster = dataclasses.replace(
        spec.roster, states=(*spec.roster.states, StateDef("idle", StateKind.CONTROL)))
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
        main(["report", spec_file])
        second = capsys.readouterr().out
        assert first == second

    def test_html_format(self, spec_file, capsys):
        assert main(["report", spec_file, "--format", "html"]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")

    def test_a_spec_check_rejects_reports_the_violations(self, extra_control_file,
                                                        capsys):
        assert main(["report", extra_control_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ROSTER" in captured.err and "C1.2" in captured.err
        assert captured.err.endswith(" structural violations\n")

    def test_unknown_format_is_a_usage_error(self, spec_file):
        assert main(["report", spec_file, "--format", "pdf"]) == 3


class TestTopLevel:
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
        removed = {"run_rounds", "run_reqs", "FieldMap", "PACKET_FIELD_MAP"}
        assert not removed & set(module.__all__)
        assert not any(hasattr(module, name) for name in removed)

    def test_module_entry_point_runs(self, spec_file):
        result = subprocess.run(
            [sys.executable, "-m", "candofsm.cli", "check", spec_file],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "0 violations" in result.stdout
