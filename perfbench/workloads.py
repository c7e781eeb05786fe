"""The benchmark's three workloads and the known answers they are checked against.

A workload builds its inputs and known answers once, outside any timed
region.  ``run()`` is one timed pass and returns the pass's raw outputs;
``check(outputs)`` compares them with the known answers and returns
``(attempted, failed)`` verdict counts.  Every call into the program goes
through a module attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import random
from pathlib import Path

from candofsm import cli, fsm, generate, opmodel, specio
from candofsm import trace as trace_mod
from candofsm.fsm import CONT, GET_CMD, MAX_COUNT, PACKET_LENGTH
from candofsm.reqs import engine
from candofsm.reqs.model import Env, initial_env

# The CLI's default round budget.
MAX_ROUNDS = 500

# Every observable trace column; attribution is not part of the verdict.
ROW_FIELDS = (
    "round", "state", "event", "command",
    "packet_addr", "packet_cmd", "packet_data",
    "bytes_sent", "bytes_received", "tx_cnt",
    "tx_finish", "rx_finish", "cmd_finish",
)

# The hand-labelled table mutants of acceptance criterion 2: each must make
# the checkers report exactly its own constraint id.
MUTANTS = (
    ("C1.1", "EVT_6", "send_packet_1", "start"),
    ("C1.2", "EVT_6", "start", "set_vLED"),
    ("C1.3", "EVT_6", "chip_rst", "set_vLED"),
    ("C1.4", "EVT_6", "error_", "set_vLED"),
    ("C1.5", "EVT_6", "cmd_finish", "get_cmd"),
    ("C1.6", "EVT_6", "set_vLED", "receive_packet_21"),
    ("C1.7", "EVT_6", "receive_packet_21", "send_packet_1"),
    ("C1.8", "EVT_6", "get_cmd", "send_packet_1"),
    ("C2", "CONT", "send_packet_6", "set_sDac"),
    ("C3", "SPI_TX_FINISH", "send_packet_1", "send_packet_2"),
    ("C4", "SPI_RX_FINISH", "receive_packet_21", "set_sDac"),
    ("C5", "CONT", "set_vLED", "error_"),
    ("C6", "CONT", "chip_rst", "get_cmd"),
    ("C7", "CONT", "start", "error_"),
    ("C8", "CONT", "error_", "error_"),
    ("C9", "GET_CMD_E", "error_", "error_"),
    ("C10", "GET_CMD_E", "chip_rst", "error_"),
    ("C11", "CONT", "receive_packet_21", "error_"),
    ("C12", "GET_CMD_E", "send_packet_1", "chip_rst"),
    ("TOTALITY", "EVT_6", "LED_off", None),
)


def same_rows(left, right) -> bool:
    """All 13 columns of every row equal, and the same number of rows."""
    return len(left) == len(right) and all(
        getattr(a, f) == getattr(b, f)
        for a, b in zip(left, right) for f in ROW_FIELDS)


@contextlib.contextmanager
def recording(module, name: str, results: list):
    """Append every result ``module.name`` returns to ``results``."""
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    setattr(module, name, recorder)
    try:
        yield
    finally:
        setattr(module, name, original)


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        yield out


def run_checkers(doc) -> list:
    """The four structural checkers, in the order ``candofsm check`` runs them."""
    found = list(fsm.check_roster(doc.roster))
    for ev in doc.roster.event_names:
        if ev in doc.fsm:
            found.extend(fsm.check_statemap(doc.roster, doc.fsm[ev], event=ev))
    found.extend(fsm.check_totality(doc.roster, doc.fsm))
    found.extend(fsm.check_cando(doc.roster, doc.fsm))
    return found


class Verify:
    """``candofsm verify`` on the shipped machine: 17 commands on both engines.

    The seed is unused.  The traces both engines produce are recorded at
    their entry points and checked strictly: all 13 columns equal, no
    violation on either side, and both runs stopped by ``cmd_finish``.
    """

    def __init__(self, spec_path: Path, seed: int, workdir: Path):
        self.argv = ["verify", str(spec_path)]
        self.commands = specio.load_spec(spec_path).roster.command_names

    def run(self):
        traces: list = []
        with recording(opmodel, "run", traces), \
                recording(engine, "run_requirements_trace", traces), quiet():
            code = cli.main(self.argv)
        return code, traces

    def check(self, outputs) -> tuple[int, int]:
        code, traces = outputs
        by_key = {(t.engine, t.command): t for t in traces}
        failed = 0
        for cmd in self.commands:
            ops, reqs = by_key.get(("ops", cmd)), by_key.get(("reqs", cmd))
            ok = (code == 0 and ops is not None and reqs is not None
                  and same_rows(ops.rows, reqs.rows)
                  and not ops.violations and not reqs.violations
                  and ops.reason == reqs.reason == "cmd_finish")
            failed += not ok
        return len(self.commands), failed


class Oracle:
    """One-round checks on both engines against the table plus dispatch.

    Ops: one ``opmodel.step`` for every state x event x bytes_sent x
    bytes_received x tx_cnt (34,272 cases); the seed draws each case's
    command and flags.  Reqs: one ``fire_round`` from each of the 714
    (event, state) entries with no previous round; the seed draws the
    command, the counters and the flags.  ``reference`` replaces the spec's
    table as the known answer, so a test can show a wrong answer is caught.
    """

    def __init__(self, spec_path: Path, seed: int, workdir: Path,
                 reference: dict | None = None):
        self.spec = spec = specio.load_spec(spec_path)
        self.model, _ = generate.generate_model(spec)
        self.table = reference or {ev: dict(row) for ev, row in spec.fsm.items()}
        self.dispatch = dict(spec.dispatch)
        rng = random.Random(seed)
        roster = spec.roster
        commands = roster.command_names
        counter = range(PACKET_LENGTH + 1)

        self.steps = [
            opmodel.ModelState(
                current_state=st, current_event=ev,
                current_command=rng.choice(commands),
                command_finish_flag=rng.random() < 0.5,
                optrode_tx_finish=rng.random() < 0.5,
                optrode_rx_finish=rng.random() < 0.5,
                bytes_sent=sent, bytes_received=received, tx_cnt=tx)
            for st, ev, sent, received, tx in itertools.product(
                roster.state_names, roster.event_names, counter, counter,
                range(MAX_COUNT + 1))
        ]
        self.rounds = []
        for ev in roster.event_names:
            for st in roster.state_names:
                cmd = rng.choice(commands)
                init = initial_env(self.model, overrides={
                    "current_command": cmd, "current_event": ev,
                    "bytes_sent": rng.choice(counter),
                    "bytes_received": rng.choice(counter),
                    "tx_cnt": rng.randrange(MAX_COUNT + 1),
                    "optrode_TX_finish": rng.random() < 0.5,
                    "optrode_RX_finish": rng.random() < 0.5,
                    "command_finish_flag": rng.random() < 0.5,
                })
                env = Env(signals=init.signals,
                          modes={**init.modes, engine.STATE_COMPONENT: frozenset({st})},
                          history=init.history)
                self.rounds.append((ev, st, cmd, env))

    def run(self):
        spec, model = self.spec, self.model
        step, fire_round = opmodel.step, engine.fire_round
        stepped = [step(spec, m) for m in self.steps]
        fired = [fire_round(model, env, None) for _, _, _, env in self.rounds]
        return stepped, fired

    def expected(self, state: str, event: str, command: str) -> str | None:
        if state == GET_CMD and event == CONT:
            return self.dispatch.get(command)
        return self.table.get(event, {}).get(state)

    def check(self, outputs) -> tuple[int, int]:
        stepped, fired = outputs
        failed = 0
        for before, outcome in zip(self.steps, stepped):
            after = outcome.next
            want = self.expected(before.current_state, after.current_event,
                                 before.current_command)
            failed += after.current_state != want or bool(outcome.post_violations)
        for (ev, st, cmd, _), result in zip(self.rounds, fired):
            active = result.end_env.modes.get(engine.STATE_COMPONENT)
            failed += active != frozenset({self.expected(st, ev, cmd)})
        return len(self.steps) + len(self.rounds), failed


class Front:
    """The CLI paths that never run the requirements engine.

    Serialize, parse and check the shipped spec and the 20 mutants;
    ``report --format md``; ``simulate --engine ops --out`` for all 17
    commands, each CSV read back and diffed against an in-memory run.  The
    seed is unused.
    """

    def __init__(self, spec_path: Path, seed: int, workdir: Path):
        spec = specio.load_spec(spec_path)
        self.spec_path = str(spec_path)
        self.docs = [("", spec)]
        for label, ev, st, target in MUTANTS:
            table = {e: dict(row) for e, row in spec.fsm.items()}
            if target is None:
                del table[ev][st]
            else:
                table[ev][st] = target
            self.docs.append((label, dataclasses.replace(spec, fsm=table)))
        self.requirements = len(generate.generate_model(spec)[0].requirements)
        self.reference = {cmd: opmodel.run(spec, cmd, MAX_ROUNDS)
                          for cmd in spec.roster.command_names}
        self.csv = {cmd: workdir / f"{cmd}.csv" for cmd in self.reference}
        self.first_report: str | None = None

    def run(self):
        found = [
            [v.constraint_id
             for v in run_checkers(specio.parse_spec(specio.serialize_spec(doc)))]
            for _, doc in self.docs
        ]
        with quiet() as out:
            report_code = cli.main(["report", self.spec_path, "--format", "md"])
        simulated = {}
        for cmd, path in self.csv.items():
            with quiet():
                code = cli.main(["simulate", self.spec_path, "--command", cmd,
                                 "--engine", "ops", "--out", str(path)])
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows = specio.read_trace_csv(fh)
            entries = trace_mod.diff(rows, self.reference[cmd])
            simulated[cmd] = (code, rows, entries)
        return found, (report_code, out.getvalue()), simulated

    def check(self, outputs) -> tuple[int, int]:
        found, (report_code, report), simulated = outputs
        failed = sum(ids != ([label] if label else [])
                     for (label, _), ids in zip(self.docs, found))
        if self.first_report is None:
            self.first_report = report
        blocks = sum(line.startswith("### ") for line in report.splitlines())
        failed += not (report_code == 0 and blocks == self.requirements
                       and "set_vLED to send_packet_6" in report
                       and report == self.first_report)
        for cmd, ref in self.reference.items():
            code, rows, entries = simulated[cmd]
            failed += not (code == 0 and ref.reason == "cmd_finish"
                           and not entries and same_rows(rows, ref.rows)
                           and all(not row.attribution for row in rows))
        return len(self.docs) + 1 + len(self.reference), failed


WORKLOADS = {"verify": Verify, "oracle": Oracle, "front": Front}
