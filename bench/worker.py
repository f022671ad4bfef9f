"""One benchmark run of one workload, in a process of its own.

Started by ``run.py``. It imports ``vcsys`` from the checkout and
generates the first job's inputs: that is set-up, and ``--setup-only``
stops there, after printing ``ready``. Otherwise it runs jobs, one at a
time, until they have taken ``--seconds`` in total (whole rounds, at
least the workload's minimum job count), checks each job's output
untimed, and prints one JSON line with the metrics. Between jobs it
times fresh set-ups in ``--setup-only`` children.

With ``--trace 1`` every input runs twice, once traced and once not,
alternating which goes first, so the per-layer numbers come with the
tracing overhead. Measurement-only calls (standalone validate, model_hash
and flat_graph_json, the interpreter probes, the growth ladder) run after
the jobs, outside every job span.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]

import vcsys  # noqa: E402
from tracing import PROBE, Recorder, loglog_slope, median, percentile, self_times  # noqa: E402
from workloads import LADDER, WORKLOADS, Outcome, ladder_text  # noqa: E402

BUSY = (
    "sdl.parse",
    "sdl.print_spec",
    "model.validate",
    "flatten.flatten",
    "sim.model_hash",
    "sim.run",
    "sim.write_log",
    "sim.read_log",
    "sim.replay",
    "sim.conservation_check",
    "analysis.governance_centrality",
    "analysis.end_market_reachability",
    "analysis.weak_linkage_report",
    "analysis.value_added_profile",
    "analysis.classify_linkages",
    "export.flat_graph_json",
    "export.export_dot",
    "export.export_json",
)
PER_RECORD = ("sim.write_log", "sim.read_log", "sim.replay")
CLI_COMMANDS = ("validate", "inspect", "flatten", "simulate", "analyze", "export")
GROWTH = (
    "sdl.parse",
    "model.validate",
    "flatten.flatten",
    "sim.model_hash",
    "analysis.governance_centrality",
    "analysis.end_market_reachability",
    "export.export_dot",
)
PROBE_REPEATS = 5
SETUP_SAMPLES = 9


def run_job(workload, inp, rec: Recorder, trace: str | None):
    """Run one job; returns (output or None, wall seconds, error or None)."""
    if trace is not None:
        rec.start_job(trace)
    start = perf_counter_ns()
    try:
        out, error = workload.job(inp, rec), None
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        traceback.print_exc()
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall = (perf_counter_ns() - start) / 1e9
    if trace is not None:
        rec.end_job()
    return out, wall, error


def time_setup(args, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until it is ready for jobs."""
    argv = [
        sys.executable, __file__, "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--workdir", str(workdir),
    ]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = perf_counter() - start
    if not ready or proc.returncode != 0:
        raise RuntimeError("a set-up run failed")
    return elapsed


def reference_work() -> int:
    """A fixed pure-Python computation that does not touch ``vcsys``.

    It does the same kind of work as the jobs (tuple-keyed dicts, float
    sums, sorting, string formatting), so its time tracks how fast this
    machine runs Python at the moment a job runs.
    """
    table: dict[tuple[int, str], float] = {}
    for i in range(30000):
        key = (i % 997, "grain" if i & 1 else "milk")
        table[key] = table.get(key, 0.0) + i * 0.5
    rows = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(",".join(f"{k[0]}:{v:g}" for k, v in rows))


def reference_seconds() -> float:
    start = perf_counter_ns()
    reference_work()
    return (perf_counter_ns() - start) / 1e9


def run_jobs(workload, seconds: float, traced: bool, rec: Recorder, setup=None):
    """Run jobs for ``seconds`` of measured time; returns (jobs, set-up samples).

    Each input runs between two timings of :func:`reference_work` on the
    same CPU. ``setup``, when given, is called between jobs,
    SETUP_SAMPLES times spread evenly over the measured time, so that
    set-up samples and jobs see the same phases of a shared machine.
    """
    jobs: list[dict] = []
    samples: list[float] = []
    cpus = sorted(os.sched_getaffinity(0))
    measured, i = 0.0, 0
    while True:
        # A co-tenant can slow one CPU for tens of seconds. Inputs alternate
        # between the CPUs; one input still runs on one CPU at a time.
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        gc.collect()  # each input starts from the same heap, untimed
        inp = workload.inputs(i)
        if not traced:
            modes = (None,)
        else:
            modes = (None, f"job{i}") if i % 2 == 0 else (f"job{i}", None)
        before = reference_seconds()
        done = []
        for trace in modes:
            out, wall, error = run_job(workload, inp, rec, trace)
            if trace is modes[-1]:
                after = reference_seconds()
            measured += wall
            outcome = Outcome([error]) if error else workload.check(inp, out)
            out = None  # the next job starts without this one's output alive
            for failure in outcome.failures:
                print(f"job {i} failed: {failure}", file=sys.stderr)
            done.append(
                {
                    "wall": wall,
                    "traced": trace is not None,
                    "failed": bool(outcome.failures),
                    "edge_ticks": outcome.edge_ticks,
                    "flagged": outcome.flagged,
                    "rss_kib": outcome.rss_kib,
                }
            )
        for job in done:
            job["ref"] = (before + after) / 2
        jobs.extend(done)
        i += 1
        due = len(samples) * seconds / SETUP_SAMPLES
        if setup and len(samples) < SETUP_SAMPLES and measured >= due:
            samples.append(setup())
        if (
            measured >= seconds
            and len(jobs) >= workload.min_jobs
            and i % workload.round_size == 0
        ):
            while setup and len(samples) < SETUP_SAMPLES:
                samples.append(setup())
            return jobs, samples


def end_to_end(jobs: list[dict], samples: list[float], peak_rss_mib: float):
    """The end-to-end metrics, and beside them figures that are only printed.

    Job times are expressed in units of the reference computation timed
    around each job: on a shared machine whose speed drifts by 20-40%
    within minutes, that ratio holds still where seconds do not.
    """
    walls = [job["wall"] for job in jobs]
    relative = [job["wall"] / job["ref"] for job in jobs]
    rates = [job["edge_ticks"] / job["wall"] for job in jobs if job["edge_ticks"]]
    rates_rel = [
        job["edge_ticks"] * job["ref"] / job["wall"] for job in jobs if job["edge_ticks"]
    ]
    metrics = {
        "job_p50_ref": median(relative),
        "edge_ticks_per_ref": median(rates_rel),
        "peak_rss_mib": peak_rss_mib,
        "setup_s": median(samples),
    }
    printed = {
        "job_p90_ref": percentile(relative, 90),
        "job_p50_s": median(walls),
        "job_p90_s": percentile(walls, 90),
        "edge_ticks_per_s": median(rates) if rates else 0.0,
        "reference_s": median(job["ref"] for job in jobs),
    }
    return metrics, printed


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(jobs: list[dict], rec: Recorder, probes: dict[str, float]) -> dict[str, float]:
    selfs = self_times(rec.spans)
    job_ids = {s.id for s in rec.spans if s.name == "bench.job"}
    in_jobs = [s for s in rec.spans if s.parent in job_ids]
    probe_spans = [s for s in rec.spans if s.trace == PROBE]
    per_job: dict[str, dict[str, float]] = {}
    for span in in_jobs:
        sums = per_job.setdefault(span.name, {})
        sums[span.trace] = sums.get(span.trace, 0.0) + selfs[span.id]

    def spans_of(name: str) -> list:
        """The job spans of a call, or the probe's when no job makes it."""
        found = [s for s in in_jobs if s.name == name]
        return found or [s for s in probe_spans if s.name == name]

    def busy(name: str) -> float:
        if name in per_job:
            return median(per_job[name].values())
        return sum(selfs[s.id] for s in spans_of(name))

    def total(name: str, key: str | None = None) -> float:
        return sum(selfs[s.id] if key is None else s.counts.get(key, 0) for s in spans_of(name))

    def count_median(name: str, key: str) -> float:
        return median(s.counts.get(key, 0) for s in spans_of(name))

    m: dict[str, float] = {f"{name}.busy_s": busy(name) for name in BUSY}
    m["sim.run.us_per_edge_tick"] = 1e6 * _ratio(total("sim.run"), total("sim.run", "edge_ticks"))
    m["sim.run.records_per_edge_tick"] = _ratio(
        total("sim.run", "records"), total("sim.run", "edge_ticks")
    )
    m["sim.run.records"] = count_median("sim.run", "records")
    for name in PER_RECORD:
        m[f"{name}.us_per_record"] = 1e6 * _ratio(total(name), total(name, "records"))
    m["sim.write_log.bytes_per_record"] = _ratio(
        total("sim.write_log", "bytes"), total("sim.write_log", "records")
    )
    m["sim.conservation_check.flagged"] = sum(j["flagged"] for j in jobs if j["traced"])
    m["sdl.parse.lines_per_s"] = _ratio(total("sdl.parse", "lines"), total("sdl.parse"))
    m["flatten.flat_nodes"] = count_median("flatten.flatten", "nodes")
    m["flatten.flat_edges"] = count_median("flatten.flatten", "edges")
    cli_spans = [s for s in in_jobs if s.name.startswith("cli.")]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_s"] = median(
            s.seconds for s in cli_spans if s.name == f"cli.{command}"
        )
    m["cli.stdout_bytes"] = _ratio(sum(s.counts["bytes"] for s in cli_spans), len(cli_spans))
    m.update(probes)
    m["bench.reference_s"] = median(j["ref"] for j in jobs)
    m["bench.job.self_s"] = median(selfs[i] for i in job_ids)
    # Each input ran twice in a row, traced and not: compare within pairs.
    pairs = zip(jobs[::2], jobs[1::2])
    m["trace.overhead"] = median(
        (a["wall"] - b["wall"]) * (1 if a["traced"] else -1) for a, b in pairs
    )
    return m


def standalone_calls(workload, rec: Recorder) -> None:
    """Calls some jobs make only inside other calls, made once on their own."""
    text = workload.first_text()
    spec = rec.probe("sdl.parse", vcsys.parse, text).root
    rec.count(lines=text.count("\n"))
    rec.probe("model.validate", vcsys.validate, spec)
    flat = rec.probe("flatten.flatten", vcsys.flatten, spec)
    rec.count(nodes=len(flat.nodes), edges=len(flat.edges))
    rec.probe("sim.model_hash", vcsys.model_hash, flat)
    rec.probe("export.flat_graph_json", vcsys.flat_graph_json, flat)


def interpreter_probes() -> dict[str, float]:
    """Bare interpreter start, and what ``import vcsys`` adds to it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    bare, imported = [], []
    for _ in range(PROBE_REPEATS):
        for code, into in (("pass", bare), ("import vcsys", imported)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            into.append(perf_counter() - start)
    return {"cli.start_s": median(bare), "cli.import_s": median(imported) - median(bare)}


def fastest(fn, arg) -> float:
    """Least time of repeated calls: at least three, and 0.3 s or 50 calls."""
    times: list[float] = []
    while len(times) < 3 or (sum(times) < 0.3 and len(times) < 50):
        start = perf_counter()
        fn(arg)
        times.append(perf_counter() - start)
    return min(times)


def growth(seed: int) -> dict[str, float]:
    """Log-log slope of each layer's time against flat edges on the ladder."""
    points: dict[str, list[tuple[float, float]]] = {name: [] for name in GROWTH}
    for producers in LADDER:
        text = ladder_text(seed, producers)
        spec = vcsys.parse(text).root
        flat = vcsys.flatten(spec)
        calls = {
            "sdl.parse": (vcsys.parse, text),
            "model.validate": (vcsys.validate, spec),
            "flatten.flatten": (vcsys.flatten, spec),
            "sim.model_hash": (vcsys.model_hash, flat),
            "analysis.governance_centrality": (vcsys.governance_centrality, flat),
            "analysis.end_market_reachability": (vcsys.end_market_reachability, flat),
            "export.export_dot": (vcsys.export_dot, flat),
        }
        for name, (fn, arg) in calls.items():
            points[name].append((len(flat.edges), fastest(fn, arg)))
    return {f"{name}.growth": loglog_slope(pts) for name, pts in points.items()}


def peak_rss_mib(jobs: list[dict]) -> float:
    """Peak resident memory of the process that ran the jobs, in MiB: the
    largest child for jobs that run one, else this process."""
    child = max(job["rss_kib"] for job in jobs)
    return (child or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    try:
        workload.setup()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        rec = Recorder()
        setup = None if args.trace else (lambda: time_setup(args, args.workdir / "setup"))
        jobs, samples = run_jobs(workload, args.seconds, bool(args.trace), rec, setup)
        run_failures = workload.run_checks()
        for failure in run_failures:
            print(f"run check failed: {failure}", file=sys.stderr)
        result = {
            "attempted": len(jobs),
            "failed": sum(job["failed"] for job in jobs),
            "run_failures": run_failures,
            "flagged": sum(job["flagged"] for job in jobs),
            "setup_samples": len(samples),
        }
        if args.trace:
            standalone_calls(workload, rec)
            probes = interpreter_probes() | growth(args.seed)
            result["metrics"] = per_layer(jobs, rec, probes)
            traces = ROOT / ".bench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            path = traces / f"{args.workload}-seed{args.seed}.jsonl"
            with open(path, "w", encoding="utf-8") as fp:
                for span in rec.spans:
                    fp.write(json.dumps(span.__dict__) + "\n")
            result["trace_file"] = str(path.relative_to(ROOT))
        else:
            result["metrics"], result["printed"] = end_to_end(jobs, samples, peak_rss_mib(jobs))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
