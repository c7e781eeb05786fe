"""Command line front end: check, simulate, diff, verify, report.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 violations or differences found, 2 parse or load error or an output that
cannot be written (a stdout closed early too), 3 usage error.  Every failure
is one :class:`_Failure`, which :func:`main` prints.
"""

from __future__ import annotations

import argparse
import enum
import functools
import os
import sys
from collections import defaultdict

from . import __version__
from .fsm import (
    FsmError,
    Violation,
    check_cando,
    check_dispatch,
    check_finish,
    check_roster,
    check_statemap,
    check_totality,
)
from .generate import (
    generate_model,
    render_requirements_markdown,
)
from .reqs.model import ModelError
from .specio import (
    TRACE_COLUMNS,
    ParseError,
    SpecDocument,
    load_spec,
    read_trace_csv,
    write_trace_csv,
)
from .trace import MAX_ROUNDS, RunError, diff, equivalence_report


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
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc)
    except ParseError as exc:
        snippet = f"\n  {exc.snippet}" if exc.snippet else ""
        raise _Failure(
            f"{path}:{exc.line}:{exc.column}: {exc.message}{snippet}")


def _unreadable(path: str, exc: OSError | UnicodeDecodeError) -> _Failure:
    """The failure of an input file that cannot be read as text; it names
    the path once."""
    if isinstance(exc, FileNotFoundError):
        reason = "no such file"
    elif isinstance(exc, UnicodeDecodeError):
        # the error's position counts from the start of the chunk that was
        # being decoded, not of the file, so it is left out
        reason = f"not UTF-8 text ({exc.reason})"
    else:
        reason = exc.strerror or str(exc)
    return _Failure(f"cannot read {path!r}: {reason}")


# what a diagnostic calls each engine's model
_MODELS = {"ops": "operational", "reqs": "requirements"}


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
    except (FsmError, ModelError) as exc:
        raise _Failure(f"cannot generate the requirements model: {exc}")


def _require_checked(spec: SpecDocument) -> None:
    """Fail the command unless the spec passes the structural checks; the
    violations go to stderr."""
    violations = _all_checks(spec)
    if violations:
        _print_violations(violations, sys.stderr)
        raise _Failure(f"{len(violations)} structural violations", ExitStatus.FINDINGS)


def _all_checks(spec: SpecDocument) -> list[Violation]:
    violations = list(check_roster(spec.roster))
    for ev in spec.roster.event_names:
        if ev in spec.fsm:
            violations.extend(check_statemap(spec.roster, spec.fsm[ev], event=ev))
    violations.extend(check_totality(spec.roster, spec.fsm))
    violations.extend(check_cando(spec.roster, spec.fsm))
    violations.extend(check_dispatch(spec.roster, spec.dispatch))
    violations.extend(check_finish(spec.fsm, spec.dispatch))
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


def _check_budget(max_rounds: int) -> None:
    if max_rounds < 1:
        raise _Failure("--max-rounds must be at least 1", ExitStatus.USAGE)


def _cmd_simulate(args) -> int:
    _check_budget(args.max_rounds)
    spec = _load(args.spec)
    if args.command not in spec.roster.command_names:
        raise _Failure(f"unknown command {args.command!r}", ExitStatus.USAGE)
    _require_checked(spec)
    if args.engine == "ops":
        from .opmodel import run

        trace = run(spec, args.command, args.max_rounds)
    else:
        from .reqs.engine import run_requirements_trace

        model, _ = _generate(spec)
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
        raise _Failure(f"--ignore: unknown fields {', '.join(unknown)} "
                       f"(columns: {', '.join(TRACE_COLUMNS)})", ExitStatus.USAGE)
    rows = []
    for path in (args.left, args.right):
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows.append(read_trace_csv(fh))
        except (OSError, UnicodeDecodeError) as exc:
            raise _unreadable(path, exc)
        except ParseError as exc:
            raise _Failure(f"{path}:{exc.line}: {exc.message}")
    entries = diff(rows[0], rows[1], ignore=ignore)
    for e in entries:
        print(f"round {e.round}, {e.field}: {e.left!r} != {e.right!r}")
    print(f"{len(entries)} differences")
    return ExitStatus.FINDINGS if entries else ExitStatus.OK


def _cmd_verify(args) -> int:
    _check_budget(args.max_rounds)
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
    spec = _load(args.spec)
    _require_checked(spec)
    model, _ = _generate(spec)
    sys.stdout.write(render_requirements_markdown(model))
    return ExitStatus.OK


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="candofsm",
                     description="FSM spec checking, twin-engine simulation and "
                                 "trace equivalence verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="run the structural checkers")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="run one command and write the trace CSV")
    p.add_argument("spec")
    p.add_argument("--command", required=True)
    p.add_argument("--engine", choices=("ops", "reqs"), default="ops")
    p.add_argument("--max-rounds", type=int, default=MAX_ROUNDS)
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
    p.add_argument("--max-rounds", type=int, default=MAX_ROUNDS)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="render the generated requirements")
    p.add_argument("spec")
    p.add_argument("--format", choices=("md",), default="md")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = int(args.func(args))
        sys.stdout.flush()   # here, so a closed pipe fails inside the guard
        return status
    except RunError as exc:
        failure = _Failure(f"cannot run {exc.command} on the "
                           f"{_MODELS[exc.engine]} model: {exc}")
    except _Failure as exc:
        failure = exc
    except BrokenPipeError as exc:
        # the reader closed stdout; what is still buffered, and the flush at
        # exit, go to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        failure = _Failure(f"cannot write to stdout: {exc}")
    print(str(failure), file=sys.stderr)
    return failure.status


if __name__ == "__main__":
    sys.exit(main())
