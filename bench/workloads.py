"""The four workloads: the inputs of each job, the timed job, its checks.

A job is one workload pipeline run on one model. ``job`` is the only
timed part; it reaches ``vcsys`` solely through ``rec.call`` so a traced
run sees every public call as a span. ``check`` runs untimed, outside
every span, against the independent references in ``tests/oracles.py``
and against in-process results. Jobs of one run use distinct seeded
models, except in ``cli_batch``, whose jobs share four models on purpose.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import vcsys
from generators import NESTED_SHAPES, dense_text, nested_text, wide_text
from tests.oracles import (
    brute_governance,
    expected_edge_count,
    expected_node_count,
    reference_run,
)

ROOT = Path(__file__).resolve().parents[1]
LADDER = (500, 1000, 2000)


def job_rng(*key: object) -> random.Random:
    return random.Random(":".join(map(str, key)))


def ladder_text(seed: int, producers: int) -> str:
    """The wide model of one growth-ladder point."""
    return wide_text(job_rng("ladder", seed, producers), f"ladder_{producers}", producers)


@dataclass
class Outcome:
    """What the checks found for one job."""

    failures: list[str] = field(default_factory=list)
    edge_ticks: int = 0
    flagged: int = 0
    rss_kib: int = 0  # peak memory of the job's child process, if it has one


class Workload:
    name = ""
    # Jobs are run in whole rounds; a run has at least ``min_jobs`` jobs.
    round_size = 1
    min_jobs = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self) -> None:
        """Generate what the first job needs."""
        self.inputs(0)

    def inputs(self, i: int):
        raise NotImplementedError

    def job(self, inp, rec):
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        """Checks that belong to the run rather than to one job."""
        return []

    def first_text(self) -> str:
        """Description text of the first job, for measurement-only calls."""
        return self.inputs(0)


def _parse(rec, text: str) -> vcsys.SystemSpec:
    doc = rec.call("sdl.parse", vcsys.parse, text)
    rec.count(lines=text.count("\n"))
    if doc.root is None:
        raise vcsys.VcsysError(f"generated model rejected: {doc.diagnostics[:3]}")
    return doc.root


def _flatten(rec, spec) -> vcsys.FlatGraph:
    flat = rec.call("flatten.flatten", vcsys.flatten, spec)
    rec.count(nodes=len(flat.nodes), edges=len(flat.edges))
    return flat


def _run(rec, flat, ticks: int):
    state, log = rec.call("sim.run", vcsys.run, flat, ticks)
    rec.count(edge_ticks=len(flat.edges) * ticks, records=len(log.records))
    return state, log


class SimDense(Workload):
    name = "sim_dense"
    history = "null"
    ticks = 30

    def inputs(self, i: int) -> str:
        shape = {"producers": 5, "traders": 4, "exporters": 2} if self.tiny else {}
        return dense_text(job_rng(self.name, self.seed, i), f"dense_{i}", self.history, **shape)

    def job(self, text: str, rec):
        flat = _flatten(rec, _parse(rec, text))
        state, _ = _run(rec, flat, self.ticks)
        return flat, state

    def check(self, text: str, out) -> Outcome:
        flat, state = out
        stocks, delivered, _ = reference_run(flat, self.ticks)
        failures = []
        if state.stocks != stocks:
            failures.append("final stocks differ from reference_run")
        if state.sink_received != delivered:
            failures.append("deliveries differ from reference_run")
        return Outcome(failures, len(flat.edges) * self.ticks)


class LogAudit(SimDense):
    name = "log_audit"
    history = "record"
    ticks = 20

    def job(self, text: str, rec):
        flat = _flatten(rec, _parse(rec, text))
        state, log = _run(rec, flat, self.ticks)
        buffer = io.StringIO()
        rec.call("sim.write_log", vcsys.write_log, log, buffer)
        written = buffer.getvalue()
        rec.count(records=len(log.records), bytes=len(written))  # the log is ASCII JSON
        read = rec.call("sim.read_log", vcsys.read_log, io.StringIO(written))
        rec.count(records=len(read.records))
        replayed = rec.call("sim.replay", vcsys.replay, flat, read)
        rec.count(records=len(read.records))
        report = rec.call("sim.conservation_check", vcsys.conservation_check, flat, state, read)
        return flat, state, log, read, replayed, report

    def check(self, text: str, out) -> Outcome:
        flat, state, log, read, replayed, report = out
        failures = []
        if read.records != log.records or read.header != log.header:
            failures.append("log read back differs from the log written")
        if replayed != state:
            failures.append("state replayed from the log read back differs from the run")
        flagged = 0
        for entry in report.entries:
            if entry.substance == "grain":
                if entry.error != 0.0 or not entry.ok:
                    failures.append(f"integer grain does not balance: error {entry.error}")
            elif not entry.ok:
                # The 1e-9 absolute tolerance flags fractional totals near
                # 1e5 that are exact up to rounding: a known defect, counted
                # but not a job failure.
                flagged += 1
        return Outcome(failures, len(flat.edges) * self.ticks, flagged)


class StructWide(Workload):
    name = "struct_wide"
    ticks = 10
    weak_threshold = 1.5

    @property
    def producers(self) -> int:
        return 100 if self.tiny else LADDER[-1]

    def inputs(self, i: int) -> str:
        return wide_text(job_rng(self.name, self.seed, i), f"wide_{i}", self.producers)

    def job(self, text: str, rec):
        spec = _parse(rec, text)
        printed = rec.call("sdl.print_spec", vcsys.print_spec, spec)
        flat = _flatten(rec, spec)
        rec.call("sim.model_hash", vcsys.model_hash, flat)
        scores = rec.call("analysis.governance_centrality", vcsys.governance_centrality, flat)
        rec.call("analysis.end_market_reachability", vcsys.end_market_reachability, flat)
        rec.call("analysis.weak_linkage_report", vcsys.weak_linkage_report, flat, self.weak_threshold)
        rec.call("analysis.value_added_profile", vcsys.value_added_profile, flat)
        rec.call("analysis.classify_linkages", vcsys.classify_linkages, flat)
        rec.call("export.export_dot", vcsys.export_dot, flat)
        rec.call("export.export_json", vcsys.export_json, spec)
        _run(rec, flat, self.ticks)
        return spec, printed, flat, scores

    def check(self, text: str, out) -> Outcome:
        spec, printed, flat, scores = out
        failures = []
        if vcsys.parse(printed).root != spec:
            failures.append("parse(print_spec(spec)) is not the same spec")
        if len(flat.nodes) != expected_node_count(spec):
            failures.append("flat node count differs from expected_node_count")
        if len(flat.edges) != expected_edge_count(spec):
            failures.append("flat edge count differs from expected_edge_count")
        if len(scores) != len(flat.nodes) or not all(0.0 <= s.score <= 1.0 for s in scores):
            failures.append("governance scores are not one per actor in [0, 1]")
        return Outcome(failures, len(flat.edges) * self.ticks)

    def run_checks(self) -> list[str]:
        # The brute-force oracle is exponential-ish in path count, so it is
        # compared on the smallest ladder point only.
        producers = 100 if self.tiny else LADDER[0]
        flat = vcsys.flatten(vcsys.parse(ladder_text(self.seed, producers)).root)
        brute = brute_governance(flat)
        worst = max(
            abs(s.score - brute[s.node]) for s in vcsys.governance_centrality(flat)
        )
        if worst > 1e-9:
            return [f"governance differs from brute_governance by {worst:g}"]
        return []


ANALYSES = ("governance", "linkages", "reachability", "weak", "value_added")
COMMANDS = (
    ("validate",),
    ("inspect",),
    ("flatten",),
    ("flatten", "--json"),
    ("simulate", "--steps", "30", "--log", "{log}"),
    ("simulate", "--steps", "30"),
    *(("analyze", "--metric", metric) for metric in ANALYSES),
    ("export", "--format", "dot"),
    ("export", "--format", "json"),
)
SIM_TICKS = 30


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int


@dataclass
class CliModel:
    """One shared cli_batch model, and in-process results to check against."""

    name: str
    text: str
    path: Path
    stdin: bool

    @cached_property
    def spec(self) -> vcsys.SystemSpec:
        return vcsys.parse(self.text).root

    @cached_property
    def flat(self) -> vcsys.FlatGraph:
        return vcsys.flatten(self.spec)

    @cached_property
    def counts(self) -> tuple[int, int]:
        return expected_node_count(self.spec), expected_edge_count(self.spec)

    @cached_property
    def simulated(self) -> tuple[dict, int]:
        state, log = vcsys.run(self.flat, SIM_TICKS)
        nested: dict = {"tick": state.tick, "stocks": {}, "sink_received": {}}
        for key, table in (("stocks", state.stocks), ("sink_received", state.sink_received)):
            for (node, substance), value in table.items():
                nested[key].setdefault(node, {})[substance] = value
        return nested, len(log.records)


class CliBatch(Workload):
    name = "cli_batch"
    min_jobs = 100

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        shapes = ((2, 2, 3),) * 2 if self.tiny else NESTED_SHAPES
        self.models = []
        for k, shape in enumerate(shapes):
            name = f"region_{k}"
            text = nested_text(job_rng(self.name, self.seed, k), name, shape)
            path = self.workdir / f"{name}.vcs"
            path.write_text(text, encoding="utf-8")
            # Every other model reaches the command on standard input.
            self.models.append(CliModel(name, text, path, stdin=k % 2 == 1))
        self._orders: dict[int, list[tuple[int, int]]] = {}
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    @property
    def round_size(self) -> int:
        return len(self.models) * len(COMMANDS)

    def first_text(self) -> str:
        return self.models[0].text

    def inputs(self, i: int) -> tuple[CliModel, tuple[str, ...]]:
        rnd, pos = divmod(i, self.round_size)
        if rnd not in self._orders:
            order = [(m, c) for m in range(len(self.models)) for c in range(len(COMMANDS))]
            job_rng(self.name, self.seed, "round", rnd).shuffle(order)
            self._orders[rnd] = order
        m, c = self._orders[rnd][pos]
        model = self.models[m]
        log = str(self.workdir / f"{model.name}.jsonl")
        command = tuple(part.format(log=log) for part in COMMANDS[c])
        return model, command

    def job(self, inp, rec) -> CliResult:
        model, command = inp
        argv = [sys.executable, "-m", "vcsys", command[0]]
        argv.append("-" if model.stdin else str(model.path))
        argv.extend(command[1:])
        done = rec.call(f"cli.{command[0]}", self._spawn, argv, model.path if model.stdin else None)
        rec.count(bytes=len(done.stdout))
        return done

    def _spawn(self, argv: list[str], stdin: Path | None) -> CliResult:
        """Run one command to completion; its output goes through files so
        that the child can be reaped with ``wait4`` for its peak memory."""
        with (
            open(stdin or os.devnull, "rb") as source,
            open(self.workdir / "stdout", "w+b") as out,
            open(self.workdir / "stderr", "w+b") as err,
        ):
            proc = subprocess.Popen(
                argv, stdin=source, stdout=out, stderr=err, cwd=self.workdir, env=self.env
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return CliResult(proc.returncode, out.read(), err.read(), usage.ru_maxrss)

    def check(self, inp, out: CliResult) -> Outcome:
        model, command = inp
        what = " ".join(command[:3])
        if out.returncode != 0:
            tail = out.stderr.decode(errors="replace").strip()[-200:]
            return Outcome([f"{what}: exit {out.returncode}: {tail}"], rss_kib=out.maxrss_kib)
        try:
            failures = [f"{what}: {f}" for f in self._check_output(model, command, out.stdout)]
        except (ValueError, KeyError, TypeError) as exc:
            failures = [f"{what}: unreadable output: {exc}"]
        ticks = SIM_TICKS if command[0] == "simulate" else 0
        return Outcome(failures, len(model.flat.edges) * ticks, rss_kib=out.maxrss_kib)

    def _check_output(self, model: CliModel, command, stdout: bytes) -> list[str]:
        nodes, edges = model.counts
        text = stdout.decode()
        kind = command[0]
        if kind == "flatten" and "--json" not in command:
            lines = text.splitlines()
            found = (
                sum(line.startswith("node ") for line in lines),
                sum(line.startswith("edge ") for line in lines),
            )
            return [] if found == (nodes, edges) else [f"flat counts {found}"]
        if kind == "export" and command[-1] == "dot":
            ok = text.startswith("digraph") and text.count(" -> ") == edges
            return [] if ok else ["dot output is not the flat graph"]
        payload = json.loads(text)
        if kind == "validate":
            return [] if payload == {"ok": True, "diagnostics": []} else ["not valid"]
        if kind == "inspect":
            found = (payload["flat"]["nodes"], payload["flat"]["edges"])
            return [] if found == (nodes, edges) else [f"flat counts {found}"]
        if kind == "flatten":
            found = (len(payload["nodes"]), len(payload["edges"]))
            return [] if found == (nodes, edges) else [f"flat counts {found}"]
        if kind == "simulate":
            expected, records = model.simulated
            failures = [] if payload == expected else ["state differs from in-process run"]
            if "--log" in command:
                with open(command[command.index("--log") + 1], encoding="utf-8") as fp:
                    if sum(1 for _ in fp) != records + 1:
                        failures.append("log line count differs from in-process run")
            return failures
        if kind == "analyze" and command[-1] == "governance":
            ok = len(payload) == nodes and all(0.0 <= e["score"] <= 1.0 for e in payload)
            return [] if ok else ["governance scores are not one per actor in [0, 1]"]
        if kind == "analyze" and command[-1] in ("reachability", "value_added"):
            return [] if len(payload) == nodes else [f"{len(payload)} actors"]
        if kind == "analyze" and command[-1] == "linkages":
            return [] if len(payload) == edges else [f"{len(payload)} edges"]
        if kind == "analyze":
            return [] if payload["threshold"] == 0.0 else ["wrong threshold"]
        return [] if payload["id"] == model.name else ["wrong model id"]


WORKLOADS = {w.name: w for w in (SimDense, LogAudit, StructWide, CliBatch)}
