"""Benchmark of the vcsys pipeline: one seeded workload per run.

    python3 bench/run.py --workload sim_dense --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --self-check

Runs from the root of a checkout and uses the ``vcsys`` sources and
``tests/oracles.py`` found there. The jobs run in ``worker.py``, a process
of its own, which also times set-up: from starting a fresh interpreter
until it has imported ``vcsys`` and generated the first job's inputs,
several times between jobs, reported as the median. The last line of
standard output is
one JSON object: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_workload(args) -> dict:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    # The worker leads a process group of its own, so that a timeout stops
    # the command-line children it may have running as well.
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)
            raise RuntimeError("worker timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or lines[:1] != ["ready"]:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def report(args, spec: dict, result: dict) -> dict:
    metrics = result["metrics"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    jobs, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  jobs {jobs}  failed {failed}  fail_ratio {failed / jobs:g}")
    for failure in result["run_failures"]:
        print(f"  run check failed: {failure}")
    if args.workload == "log_audit":
        print(
            f"  sim.conservation_check.flagged {result['flagged']} of {jobs} jobs"
            " (fractional milk vs the absolute 1e-9 tolerance; not a failure)"
        )
    notes = {
        "setup_s": f"median of {result['setup_samples']} set-ups",
        "job_p50_ref": f"n={jobs}",
    }
    for m in listed:
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']:<6} {note}")
    for name, value in result.get("printed", {}).items():
        print(f"  {name:<40} {value:>14.6g}        n={jobs}, printed only")
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")
    return {
        "correct": failed == 0 and not result["run_failures"],
        "attempted": jobs,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="vcsys pipeline benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run the generators and output checks at tiny size, and exit",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "vcsys" / "__init__.py").is_file():
        return fail(f"no vcsys sources under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return fail("tests/oracles.py, the reference for the checks, is missing")
    if args.self_check:
        return subprocess.call([sys.executable, str(BENCH / "selfcheck.py")], cwd=ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    try:
        summary = report(args, spec, run_workload(args))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
