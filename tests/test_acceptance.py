"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line so a run of
``pytest tests/test_acceptance.py -s`` reads as a checklist.
"""

import dataclasses
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from vcsys import (
    HistoryPolicy,
    conservation_check,
    flatten,
    governance_centrality,
    parse,
    print_spec,
    replay,
    run,
    validate,
)

from .helpers import (
    demo_chain_spec,
    diamond_spec,
    nested_mult_spec,
    nested_two_level_spec,
    random_flow_model,
    random_spec,
    shared_traders_spec,
    three_level_spec,
    two_sink_spec,
)
from .oracles import (
    brute_governance,
    expected_edge_count,
    expected_env_ids,
    expected_node_count,
    reference_run,
)

FIXTURES = [
    demo_chain_spec(),
    diamond_spec(),
    two_sink_spec(),
    nested_two_level_spec(),
    nested_mult_spec(),
    three_level_spec(),
]

DEMO_FILE = str(Path(__file__).parent / "fixtures" / "demo.vcs")


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def test_round_trip_suite():
    with criterion("round-trip: parse(print(s)) == s, 200 random + fixtures, < 10 s"):
        started = time.perf_counter()
        rng = random.Random(20240601)
        failures = 0
        for spec in FIXTURES:
            doc = parse(print_spec(spec))
            if not doc.ok or doc.root != spec:
                failures += 1
        for _ in range(200):
            spec = random_spec(rng, max_depth=4, max_components=6)
            doc = parse(print_spec(spec))
            if not doc.ok or doc.root != spec:
                failures += 1
        elapsed = time.perf_counter() - started
        assert failures == 0
        assert elapsed < 10.0, f"round-trip suite took {elapsed:.2f}s"


def test_flatten_oracle():
    with criterion("flatten counts match the tree-walk oracle on 100 random specs"):
        rng = random.Random(777)
        mismatches = 0
        for _ in range(100):
            spec = random_spec(rng, max_depth=4, max_components=5)
            assert validate(spec).ok
            flat = flatten(spec)
            if len(flat.nodes) != expected_node_count(spec):
                mismatches += 1
            if len(flat.edges) != expected_edge_count(spec):
                mismatches += 1
            if {n.id for n in flat.env_nodes} != expected_env_ids(spec):
                mismatches += 1
        assert mismatches == 0


def test_conservation():
    with criterion("conservation exact on integers, <= 1e-9 on reals, 100 models"):
        rng = random.Random(4242)
        for index in range(100):
            integer_caps = index < 50
            flat = flatten(random_flow_model(rng, integer_caps=integer_caps))
            steps = rng.randint(0, 50)
            state, log = run(flat, steps)
            report = conservation_check(flat, state, log)
            for entry in report.entries:
                if integer_caps:
                    assert entry.error == 0.0, (index, entry)
                else:
                    assert abs(entry.error) <= 1e-9, (index, entry)


def test_replay_fidelity():
    with criterion("replay reproduces run state bit-exactly, fixtures + 100 random"):
        for spec in FIXTURES:
            flat = flatten(spec)
            for steps in (0, 1, 5, 20):
                state, log = run(flat, steps)
                assert replay(flat, log) == state
        rng = random.Random(31337)
        for _ in range(100):
            flat = flatten(random_flow_model(rng, integer_caps=rng.random() < 0.5))
            steps = rng.randint(0, 50)
            state, log = run(flat, steps)
            assert replay(flat, log) == state


def test_null_history_equivalence():
    with criterion("null history changes the log, never the trajectory"):
        for spec in FIXTURES:
            record = dataclasses.replace(spec, history_policy=HistoryPolicy.RECORD)
            null = dataclasses.replace(spec, history_policy=HistoryPolicy.NULL)
            state_r, log_r = run(flatten(record), 12)
            state_n, log_n = run(flatten(null), 12)
            assert state_n.stocks == state_r.stocks
            assert state_n.sink_received == state_r.sink_received
            assert state_n.tick == state_r.tick
            assert log_n.records == ()


def test_governance_oracle():
    with criterion("governance equals exhaustive path enumeration, 50 graphs, 1e-9"):
        scores = {
            s.node: s.score for s in governance_centrality(flatten(demo_chain_spec()))
        }
        assert scores["P#1"] == pytest.approx(1.0, abs=1e-9)
        assert scores["T#1"] == pytest.approx(1.0, abs=1e-9)
        rng = random.Random(60601)
        for _ in range(50):
            flat = flatten(random_flow_model(rng, max_internal=4))
            assert len(flat.nodes) + len(flat.env_nodes) <= 8
            got = {s.node: s.score for s in governance_centrality(flat)}
            want = brute_governance(flat)
            assert set(got) == set(want)
            for node in got:
                assert got[node] == pytest.approx(want[node], abs=1e-9)


def test_demo_chain_trajectory():
    with criterion("demo chain delivers 0, 0, 3 after ticks 1, 2, 3"):
        flat = flatten(demo_chain_spec(caps=(4, 3, 5), rate=4))
        _, _, timeline = reference_run(flat, 3)
        oracle_deliveries = [snapshot.get(("M", "grain"), 0.0) for snapshot in timeline]
        assert oracle_deliveries == [0.0, 0.0, 3.0]
        for ticks, expected in ((1, 0.0), (2, 0.0), (3, 3.0)):
            state, _ = run(flat, ticks)
            assert state.sink_received[("M", "grain")] == expected
            assert state.sink_received[("M", "grain")] == oracle_deliveries[ticks - 1]


def test_simulate_determinism(tmp_path):
    with criterion("two simulate --steps 50 runs produce byte-identical logs"):
        outputs = []
        logs = []
        for index in range(2):
            log_path = tmp_path / f"run{index}.jsonl"
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "vcsys",
                    "simulate",
                    DEMO_FILE,
                    "--steps",
                    "50",
                    "--log",
                    str(log_path),
                ],
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
            logs.append(log_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert logs[0] == logs[1]
        assert len(logs[0]) > 0


def test_analyze_determinism_across_hash_seeds(tmp_path):
    with criterion("analyze --metric governance is byte-identical under two hash seeds"):
        model = tmp_path / "shared.vcs"
        model.write_text(print_spec(shared_traders_spec(40)))
        outputs = []
        for seed in ("0", "1"):
            result = subprocess.run(
                [sys.executable, "-m", "vcsys", "analyze", str(model), "--metric", "governance"],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
