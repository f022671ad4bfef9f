"""Tiny-size self-check of the benchmark's own generators, checks and
statistics, so they are tested without a full run.

    python3 bench/run.py --self-check

Every workload runs two traced jobs on tiny models and must pass its
checks; then each check is handed a deliberately wrong output and must
report it. Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

from worker import ROOT, end_to_end, peak_rss_mib, per_layer, run_job  # sets up sys.path
from tracing import Recorder, Span, loglog_slope, percentile, self_times
from workloads import WORKLOADS, Outcome

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def caught(outcome: Outcome, what: str) -> None:
    expect(bool(outcome.failures), f"check catches {what}")


def statistics_hold() -> None:
    print("statistics")
    spans = [
        Span(0, "bench.job", "j", None, 0, 100),
        Span(1, "a", "j", 0, 10, 40),
        Span(2, "b", "j", 0, 30, 60),
    ]
    selfs = self_times(spans)
    expect(abs(selfs[0] - 50e-9) < 1e-15, "self time subtracts the union of children")
    expect(percentile(range(1, 101), 90) == 90, "nearest-rank p90 of 1..100 is 90")
    expect(abs(loglog_slope([(1, 3), (2, 12), (4, 48)]) - 2) < 1e-12, "slope of 3x^2 is 2")


def run_tiny(name: str, workdir) -> tuple:
    workload = WORKLOADS[name](7, workdir, tiny=True)
    workload.setup()
    rec = Recorder()
    jobs, outputs = [], []
    for i in range(2):
        for trace in (None, f"job{i}"):
            inp = workload.inputs(i)
            out, wall, error = run_job(workload, inp, rec, trace)
            outcome = Outcome([error]) if error else workload.check(inp, out)
            expect(not outcome.failures, f"{name} job {i} passes its checks {outcome.failures}")
            jobs.append({"wall": wall, "traced": trace is not None, "failed": False,
                         "edge_ticks": outcome.edge_ticks, "flagged": outcome.flagged,
                         "rss_kib": outcome.rss_kib, "ref": 1.0})
            outputs.append((inp, out))
    expect(not workload.run_checks(), f"{name} run checks pass")
    return workload, rec, jobs, outputs


def wrong_outputs(name: str, workload, inp, out) -> None:
    if name == "sim_dense":
        flat, state = out
        key = next(iter(state.stocks))
        stocks = {**state.stocks, key: state.stocks[key] + 1}
        caught(workload.check(inp, (flat, dataclasses.replace(state, stocks=stocks))), "a wrong stock")
    elif name == "log_audit":
        flat, state, log, read, replayed, report = out
        dropped = dataclasses.replace(read, records=read.records[:-1])
        caught(workload.check(inp, (flat, state, log, dropped, replayed, report)), "a lost record")
        tick = dataclasses.replace(replayed, tick=replayed.tick + 1)
        caught(workload.check(inp, (flat, state, log, read, tick, report)), "a wrong replay")
        off = tuple(dataclasses.replace(e, error=1.0, ok=False) for e in report.entries)
        bad = workload.check(inp, (flat, state, log, read, replayed, dataclasses.replace(report, entries=off)))
        caught(bad, "unbalanced grain")
        expect(bad.flagged == 1, "unbalanced milk is counted as flagged")
    elif name == "struct_wide":
        spec, printed, flat, scores = out
        cut = printed.replace("  component p0 atomic role=producer tier=0\n", "")
        caught(workload.check(inp, (spec, cut, flat, scores)), "a lossy print_spec")
        high = [dataclasses.replace(scores[0], score=1.5), *scores[1:]]
        caught(workload.check(inp, (spec, printed, flat, high)), "a score above 1")
        fewer = dataclasses.replace(flat, edges=flat.edges[:-1])
        caught(workload.check(inp, (spec, printed, fewer, scores)), "a missing flat edge")
    else:
        model, command = inp
        caught(workload.check(inp, dataclasses.replace(out, returncode=1)), f"a failed {command[0]}")
        caught(workload.check(inp, dataclasses.replace(out, stdout=b"{")), "unreadable output")
        sim_inp = next(
            workload.inputs(i)
            for i in range(workload.round_size)
            if workload.inputs(i)[1][0] == "simulate"
        )
        done = workload.job(sim_inp, Recorder())
        payload = json.loads(done.stdout)
        payload["tick"] += 1
        wrong = dataclasses.replace(done, stdout=json.dumps(payload).encode())
        caught(workload.check(sim_inp, wrong), "a simulate state unlike the in-process run")


def main() -> int:
    statistics_hold()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer_names = {m["name"] for m in spec["per_layer"]}
    end_to_end_names = {m["name"] for m in spec["end_to_end"]}
    base = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    try:
        for name in WORKLOADS:
            print(name)
            workload, rec, jobs, outputs = run_tiny(name, base / name)
            inp, out = next(pair for pair, job in zip(outputs, jobs) if job["traced"])
            wrong_outputs(name, workload, inp, out)
            probes = {"cli.start_s": 1.0, "cli.import_s": 1.0}
            probes |= {m: 1.0 for m in per_layer_names if m.endswith(".growth")}
            layers = per_layer(jobs, rec, probes)
            expect(set(layers) == per_layer_names, "traced metrics are the per_layer list")
            e2e = set(end_to_end(jobs, [1.0], peak_rss_mib(jobs))[0])
            expect(e2e == end_to_end_names, "untraced metrics are the end_to_end list")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("self-check", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
