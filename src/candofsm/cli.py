"""Command line front end: check, simulate, diff, verify, report.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 violations or differences found, 2 parse or load error, 3 usage error.
"""

from __future__ import annotations

import argparse
import enum
import sys
from collections import defaultdict

from . import __version__
from .fsm import (
    FsmError,
    Violation,
    check_cando,
    check_dispatch,
    check_roster,
    check_statemap,
    check_totality,
)
from .generate import (
    generate_model,
    render_requirements_html,
    render_requirements_markdown,
)
from .specio import (
    TRACE_COLUMNS,
    ParseError,
    SpecDocument,
    load_spec,
    read_trace_csv,
    write_trace_csv,
)
from .trace import diff, equivalence_report


class ExitStatus(enum.IntEnum):
    OK = 0
    FINDINGS = 1
    LOAD_ERROR = 2
    USAGE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 3."""

    def error(self, message):
        self.exit(ExitStatus.USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str) -> SpecDocument:
    try:
        return load_spec(path)
    except FileNotFoundError:
        raise _Failure(f"cannot read {path!r}: no such file")
    except OSError as exc:
        raise _Failure(f"cannot read {path!r}: {exc}")
    except ParseError as exc:
        snippet = f"\n  {exc.snippet}" if exc.snippet else ""
        raise _Failure(
            f"{path}:{exc.line}:{exc.column}: {exc.message}{snippet}")


class _Failure(Exception):
    """Ends a command: the message goes to stderr, ``status`` is the exit code."""

    def __init__(self, message: str, status: ExitStatus = ExitStatus.LOAD_ERROR):
        super().__init__(message)
        self.status = status


def _generate(spec: SpecDocument):
    """The generated model and its report; a spec the generator cannot turn
    into a model is a load error."""
    try:
        return generate_model(spec)
    except FsmError as exc:
        raise _Failure(f"cannot generate the requirements model: {exc}")


def _checked_generate(spec: SpecDocument):
    """:func:`_generate` on a spec that passes the structural checks; the
    violations of one that does not go to stderr, and the command fails."""
    violations = _all_checks(spec)
    if violations:
        _print_violations(violations, sys.stderr)
        raise _Failure(f"{len(violations)} structural violations", ExitStatus.FINDINGS)
    return _generate(spec)


def _all_checks(spec: SpecDocument) -> list[Violation]:
    violations = list(check_roster(spec.roster))
    for ev in spec.roster.event_names:
        if ev in spec.fsm:
            violations.extend(check_statemap(spec.roster, spec.fsm[ev], event=ev))
    violations.extend(check_totality(spec.roster, spec.fsm))
    violations.extend(check_cando(spec.roster, spec.fsm))
    violations.extend(check_dispatch(spec.roster, spec.dispatch))
    return violations


def _print_violations(violations: list[Violation], file=None) -> None:
    grouped: dict[str, list[Violation]] = defaultdict(list)
    for v in violations:
        grouped[v.constraint_id].append(v)
    for constraint in sorted(grouped, key=lambda c: grouped[c][0].sort_key()):
        print(f"{constraint} ({len(grouped[constraint])}):", file=file)
        for v in sorted(grouped[constraint], key=Violation.sort_key):
            where = " ".join(
                part for part in (
                    f"event={v.event}" if v.event else "",
                    f"{v.from_state} -> {v.to_state}" if v.from_state and v.to_state
                    else (v.from_state or ""),
                ) if part)
            print(f"  {where + ': ' if where else ''}{v.message}", file=file)


def _cmd_check(args) -> int:
    spec = _load(args.spec)
    violations = _all_checks(spec)
    if violations:
        _print_violations(violations)
        print(f"{len(violations)} violations")
        return ExitStatus.FINDINGS
    print("0 violations")
    return ExitStatus.OK


def _bad_budget(max_rounds: int) -> bool:
    if max_rounds < 1:
        print("--max-rounds must be at least 1", file=sys.stderr)
        return True
    return False


def _cmd_simulate(args) -> int:
    spec = _load(args.spec)
    if args.command not in spec.roster.command_names:
        print(f"unknown command {args.command!r}", file=sys.stderr)
        return ExitStatus.USAGE
    if _bad_budget(args.max_rounds):
        return ExitStatus.USAGE
    if args.engine == "ops":
        from .opmodel import RunError, run

        try:
            trace = run(spec, args.command, args.max_rounds)
        except RunError as exc:
            raise _Failure(f"cannot run {args.command} on the operational "
                           f"model: {exc}")
    else:
        from .reqs.engine import run_requirements_trace

        model, _ = _checked_generate(spec)
        trace = run_requirements_trace(model, args.command, args.max_rounds)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_trace_csv(trace.rows, fh)
        except OSError as exc:
            raise _Failure(f"cannot write {args.out!r}: {exc}")
        print(f"{len(trace.rows)} rows ({trace.reason}) -> {args.out}",
              file=sys.stderr)
    else:
        write_trace_csv(trace.rows, sys.stdout)
    return ExitStatus.OK


def _cmd_diff(args) -> int:
    ignore = {f for f in args.ignore.split(",") if f}
    unknown = sorted(ignore - set(TRACE_COLUMNS))
    if unknown:
        print(f"--ignore: unknown fields {', '.join(unknown)} "
              f"(columns: {', '.join(TRACE_COLUMNS)})", file=sys.stderr)
        return ExitStatus.USAGE
    rows = []
    for path in (args.left, args.right):
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows.append(read_trace_csv(fh))
        except OSError as exc:
            print(f"cannot read {path!r}: {exc}", file=sys.stderr)
            return ExitStatus.LOAD_ERROR
        except ParseError as exc:
            print(f"{path}:{exc.line}: {exc.message}", file=sys.stderr)
            return ExitStatus.LOAD_ERROR
    entries = diff(rows[0], rows[1], ignore=ignore)
    for e in entries:
        print(f"round {e.round}, {e.field}: {e.left!r} != {e.right!r}")
    print(f"{len(entries)} differences")
    return ExitStatus.FINDINGS if entries else ExitStatus.OK


def _cmd_verify(args) -> int:
    if _bad_budget(args.max_rounds):
        return ExitStatus.USAGE
    spec = _load(args.spec)
    violations = _all_checks(spec)
    if violations:
        _print_violations(violations)
        print(f"verify: FAIL ({len(violations)} structural violations)")
        return ExitStatus.FINDINGS
    model, gen_report = _generate(spec)
    report = equivalence_report(spec, model, max_rounds=args.max_rounds)
    print(gen_report.summary())
    print(report.render_markdown())
    return ExitStatus.OK if report.passed else ExitStatus.FINDINGS


def _cmd_report(args) -> int:
    model, _ = _checked_generate(_load(args.spec))
    if args.format == "md":
        sys.stdout.write(render_requirements_markdown(model))
    else:
        sys.stdout.write(render_requirements_html(model))
    return ExitStatus.OK


def build_parser() -> _Parser:
    parser = _Parser(prog="candofsm",
                     description="FSM spec checking, twin-engine simulation and "
                                 "trace equivalence verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", parents=[], help="run the structural checkers")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="run one command and write the trace CSV")
    p.add_argument("spec")
    p.add_argument("--command", required=True)
    p.add_argument("--engine", choices=("ops", "reqs"), default="ops")
    p.add_argument("--max-rounds", type=int, default=500)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diff", help="compare two trace CSV files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--ignore", default="",
                   help="comma-separated fields to exclude (default: none)")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("verify", help="check, generate and compare both engines "
                                      "for every command")
    p.add_argument("spec")
    p.add_argument("--max-rounds", type=int, default=500)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="render the generated requirements")
    p.add_argument("spec")
    p.add_argument("--format", choices=("md", "html"), default="md")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except _Failure as exc:
        print(str(exc), file=sys.stderr)
        return exc.status


if __name__ == "__main__":
    sys.exit(main())
