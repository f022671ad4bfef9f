"""Flow dynamics: stepping, running, history, replay, conservation."""

import contextlib
import dataclasses
import gc
import io
import json
import math
import random
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcsys import (
    Atomic,
    BoundarySpec,
    ComponentDecl,
    Edge,
    EdgeKnowledge,
    FlatGraph,
    FlatNode,
    HashMismatch,
    HistoryLog,
    HistoryPolicy,
    InconsistentState,
    LogHeader,
    NegativeStock,
    NullHistory,
    Role,
    Scope,
    SimulationState,
    SinkNode,
    SourceNode,
    SystemSpec,
    TransitionRecord,
    VcsysError,
    conservation_check,
    flatten,
    init_state,
    model_hash,
    parse,
    read_log,
    replay,
    run,
    step,
    validate,
    write_log,
)
from vcsys import model, sim

from .helpers import demo_chain_spec, fan_spec, nested_two_level_spec, random_flow_model
from .oracles import reference_run


def contention_spec(stocklike=False):
    """One producer feeding two buyers; capacities 3 and 1."""
    return SystemSpec(
        "contend",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("A", Atomic(Role.BUYER, 1)),
            ComponentDecl("B", Atomic(Role.BUYER, 1)),
        ],
        env_nodes=[SourceNode("S", 2, "grain")],
        edges=[
            Edge("e_in", "S", "P", EdgeKnowledge(2, "grain")),
            Edge("e_pa", "P", "A", EdgeKnowledge(3, "grain")),
            Edge("e_pb", "P", "B", EdgeKnowledge(1, "grain")),
        ],
    )


# --- init_state -------------------------------------------------------------

def test_init_state_demo_chain():
    state = init_state(flatten(demo_chain_spec()))
    assert state.tick == 0
    assert state.stocks == {("P#1", "grain"): 0.0, ("T#1", "grain"): 0.0}
    assert state.sink_received == {("M", "grain"): 0.0}


def test_init_state_empty_graph():
    spec = SystemSpec("empty")
    state = init_state(flatten(spec))
    assert state.stocks == {} and state.sink_received == {}


def test_init_state_two_substances():
    spec = SystemSpec(
        "two",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("Q", Atomic(Role.BUYER, 1)),
        ],
        edges=[
            Edge("e1", "P", "Q", EdgeKnowledge(1, "grain")),
            Edge("e2", "P", "Q", EdgeKnowledge(1, "milk")),
        ],
    )
    state = init_state(flatten(spec))
    assert set(state.stocks) == {
        ("P#1", "grain"),
        ("P#1", "milk"),
        ("Q#1", "grain"),
        ("Q#1", "milk"),
    }


# --- step -------------------------------------------------------------------

def test_step_first_tick_only_source_flows():
    flat = flatten(demo_chain_spec())
    state, records = step(init_state(flat), flat)
    assert state.tick == 1
    assert state.stocks == {("P#1", "grain"): 4.0, ("T#1", "grain"): 0.0}
    assert state.sink_received == {("M", "grain"): 0.0}
    assert [(r.edge, r.amount) for r in records] == [("e_sp#1", 4.0)]


def test_step_mid_run_flows_from_start_of_tick_stocks():
    flat = flatten(demo_chain_spec())
    before = SimulationState(
        2,
        {("P#1", "grain"): 5.0, ("T#1", "grain"): 3.0},
        {("M", "grain"): 0.0},
    )
    after, records = step(before, flat)
    assert {r.edge: r.amount for r in records} == {
        "e_sp#1": 4.0,
        "e_pt#1": 3.0,
        "e_tm#1": 3.0,
    }
    assert after.stocks == {("P#1", "grain"): 6.0, ("T#1", "grain"): 3.0}
    assert after.sink_received == {("M", "grain"): 3.0}
    assert after.tick == 3


def test_step_zero_capacity_no_flow_no_record():
    flat = flatten(demo_chain_spec(caps=(4, 0, 5)))
    state = SimulationState(
        0, {("P#1", "grain"): 9.0, ("T#1", "grain"): 9.0}, {("M", "grain"): 0.0}
    )
    after, records = step(state, flat)
    edges = {r.edge for r in records}
    assert "e_pt#1" not in edges
    assert after.stocks[("P#1", "grain")] == 13.0


def test_step_contention_integer_largest_remainder():
    flat = flatten(contention_spec())
    state = SimulationState(
        0,
        {("P#1", "grain"): 2.0, ("A#1", "grain"): 0.0, ("B#1", "grain"): 0.0},
        {},
    )
    after, records = step(state, flat)
    flows = {r.edge: r.amount for r in records}
    # pool 2 over capacities (3, 1): shares 1.5/0.5 floor to 1/0, the one
    # leftover unit goes to the tied-remainder edge with the smaller id
    assert flows["e_pa#1"] == 2.0
    assert "e_pb#1" not in flows
    assert after.stocks[("P#1", "grain")] == 2.0  # 2 out, 2 back in from S


def test_step_contention_fractional_proportional():
    flat = flatten(contention_spec())
    state = SimulationState(
        0,
        {("P#1", "grain"): 2.5, ("A#1", "grain"): 0.0, ("B#1", "grain"): 0.0},
        {},
    )
    _, records = step(state, flat)
    flows = {r.edge: r.amount for r in records}
    assert flows["e_pa#1"] == 2.5 * 3 / 4
    assert flows["e_pb#1"] == 2.5 * 1 / 4


def test_step_source_substance_must_match_edge():
    spec = SystemSpec(
        "mismatch",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        env_nodes=[SourceNode("S", 4, "grain")],
        edges=[Edge("e1", "S", "P", EdgeKnowledge(4, "milk"))],
    )
    flat = flatten(spec)
    state, records = step(init_state(flat), flat)
    assert records == []
    assert all(value == 0.0 for value in state.stocks.values())


def test_step_rejects_unknown_stock_node():
    flat = flatten(demo_chain_spec())
    state = SimulationState(0, {("ghost", "grain"): 1.0}, {})
    with pytest.raises(InconsistentState):
        step(state, flat)


@pytest.mark.parametrize("counter", ["P#1", "S", "ghost"], ids=["actor", "source", "unknown"])
def test_step_rejects_delivery_counter_off_a_sink(counter):
    flat = flatten(demo_chain_spec())
    state = SimulationState(0, {}, {(counter, "grain"): 1.0})
    with pytest.raises(InconsistentState, match=f"delivery counter {counter!r} is not a sink"):
        step(state, flat)


@pytest.mark.parametrize(
    "stocks, received, message",
    [
        ({("P#1", "grain"): -5.0}, {}, r"stock \('P#1', 'grain'\) is -5\.0"),
        ({"P#1": 1.0}, {}, r"stock key 'P#1' is not a \(node, substance\) pair"),
        ({("P#1", "grain"): "3"}, {}, r"stock \('P#1', 'grain'\) is '3'"),
        ({("P#1", "grain"): math.nan}, {}, r"stock \('P#1', 'grain'\) is nan"),
        ({("P#1", "grain"): True}, {}, r"stock \('P#1', 'grain'\) is True"),
        ({}, {("M", "grain"): math.inf}, r"delivery counter \('M', 'grain'\) is inf"),
        ({}, {("M",): 1.0}, r"delivery counter key \('M',\) is not a \(node, substance\) pair"),
    ],
    ids=["negative", "bare_node", "string", "nan", "bool", "inf_counter", "short_key"],
)
def test_step_rejects_a_malformed_state(stocks, received, message):
    flat = flatten(demo_chain_spec())
    with pytest.raises(InconsistentState, match=f"^{message}"):
        step(SimulationState(0, stocks, received), flat)


@pytest.mark.parametrize("tick", [-3, True, 1.0, "x"], ids=["negative", "bool", "float", "string"])
def test_step_rejects_a_tick_that_is_not_a_non_negative_int(tick):
    flat = flatten(demo_chain_spec())
    with pytest.raises(InconsistentState, match=f"^tick {tick!r} is not a non-negative int$"):
        step(SimulationState(tick, {}, {}), flat)


def test_step_reads_whole_number_stocks_as_floats():
    flat = flatten(contention_spec())
    state, records = step(SimulationState(0, {("P#1", "grain"): 3}, {}), flat)
    assert (state, records) == step(SimulationState(0, {("P#1", "grain"): 3.0}, {}), flat)
    assert all(type(value) is float for value in state.stocks.values())


def test_thirty_steps_reach_runs_final_state():
    flat = flatten(random_flow_model(random.Random(83), integer_caps=False))
    state, final = init_state(flat), run(flat, 30)[0]
    for _ in range(30):
        state, _ = step(state, flat)
    assert state == final


# --- run --------------------------------------------------------------------

def test_run_zero_steps_is_identity():
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 0)
    assert state == init_state(flat)
    assert log.records == ()
    assert log.header.steps == 0


def test_run_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps must be non-negative"):
        run(flatten(demo_chain_spec()), -1)


@pytest.mark.parametrize("steps", [True, 2.0, "3", None], ids=["bool", "float", "str", "none"])
def test_run_rejects_steps_that_are_not_ints(steps):
    with pytest.raises(ValueError, match="steps must be non-negative and an int"):
        run(flatten(demo_chain_spec()), steps)


def test_run_demo_chain_three_ticks():
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 3)
    assert state.sink_received[("M", "grain")] == 3.0
    assert state.stocks == {("P#1", "grain"): 6.0, ("T#1", "grain"): 3.0}
    assert len(log.records) == 6  # 1 + 2 + 3 positive flows


def test_run_matches_reference_interpreter():
    rng = random.Random(61)
    for _ in range(20):
        spec = random_flow_model(rng, integer_caps=rng.random() < 0.5)
        flat = flatten(spec)
        steps = rng.randint(0, 20)
        state, _ = run(flat, steps)
        stocks, delivered, _ = reference_run(flat, steps)
        assert state.stocks == stocks
        assert state.sink_received == delivered


def test_run_null_history_same_state_no_records():
    flat_record = flatten(demo_chain_spec(history=HistoryPolicy.RECORD))
    flat_null = flatten(demo_chain_spec(history=HistoryPolicy.NULL))
    state_r, log_r = run(flat_record, 3)
    state_n, log_n = run(flat_null, 3)
    assert state_n.stocks == state_r.stocks
    assert state_n.sink_received == state_r.sink_received
    assert log_n.records == ()
    assert len(log_r.records) == 6


def test_run_is_deterministic():
    flat = flatten(demo_chain_spec())
    assert run(flat, 10) == run(flat, 10)
    rng = random.Random(71)
    for _ in range(5):
        flat = flatten(random_flow_model(rng))
        assert run(flat, 25) == run(flat, 25)


def test_run_is_deterministic_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    flat = flatten(demo_chain_spec())
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: run(flat, 30), range(8)))
    assert all(result == results[0] for result in results)


def test_records_in_nondecreasing_tick_order():
    rng = random.Random(79)
    for _ in range(10):
        flat = flatten(random_flow_model(rng))
        _, log = run(flat, 15)
        ticks = [r.tick for r in log.records]
        assert ticks == sorted(ticks)


def test_run_non_negative_and_sinks_monotone():
    rng = random.Random(83)
    for _ in range(15):
        flat = flatten(random_flow_model(rng, integer_caps=rng.random() < 0.5))
        state = init_state(flat)
        previous_sink = dict(state.sink_received)
        for _tick in range(20):
            state, _ = step(state, flat)
            assert all(value >= 0 for value in state.stocks.values())
            for key, value in state.sink_received.items():
                assert value >= previous_sink.get(key, 0.0)
            previous_sink = dict(state.sink_received)


def _hexes(table):
    return [(key, value.hex()) for key, value in table.items()]


@pytest.mark.parametrize("integer_caps", [True, False], ids=["integer", "fractional"])
def test_run_equals_chained_steps_bit_for_bit(integer_caps):
    rng = random.Random(101 if integer_caps else 103)
    for _ in range(25):
        flat = flatten(random_flow_model(rng, integer_caps=integer_caps))
        assert flat.history_policy is HistoryPolicy.RECORD
        steps = rng.randint(0, 25)
        final, log = run(flat, steps)
        zero = state = init_state(flat)
        records = []
        for _ in range(steps):
            state, new = step(state, flat)
            records += new
        assert list(final.stocks) == list(zero.stocks)
        assert list(final.sink_received) == list(zero.sink_received)
        assert _hexes(final.stocks) == _hexes(state.stocks)
        assert _hexes(final.sink_received) == _hexes(state.sink_received)
        assert [(r.tick, r.edge, r.amount.hex()) for r in log.records] == [
            (r.tick, r.edge, r.amount.hex()) for r in records
        ]
        assert final.tick == state.tick == steps


def test_run_rations_a_one_edge_group_by_the_same_arithmetic():
    """A lone edge that its stock cannot cover still moves
    ``pool * cap / cap``, which is not always ``pool``."""
    rate = 51.53919723051471
    spec = SystemSpec(
        "lone",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1)),
        ],
        env_nodes=[SourceNode("S", rate, "milk")],
        edges=[
            Edge("e_sp", "S", "P", EdgeKnowledge(99.6, "milk")),
            Edge("e_pt", "P", "T", EdgeKnowledge(56.4, "milk")),
        ],
    )
    assert rate * 56.4 / 56.4 != rate
    state, _ = run(flatten(spec), 2)
    assert state.stocks[("T#1", "milk")].hex() == (rate * 56.4 / 56.4).hex()


def test_run_on_a_code_built_graph_with_dangling_edges_equals_steps():
    """An edge from a node the graph lacks never flows; one into such a
    node moves its amount out of the model."""
    flat = FlatGraph(
        "dangling",
        nodes=(FlatNode("P", Role.PRODUCER, 0),),
        edges=(
            Edge("e1", "S", "P", EdgeKnowledge(5.0, "grain")),
            Edge("e2", "ghost", "P", EdgeKnowledge(3.0, "grain")),
            Edge("e3", "P", "nowhere", EdgeKnowledge(2.0, "grain")),
        ),
        env_nodes=(SourceNode("S", 4.0, "grain"),),
    )
    state, log = run(flat, 3)
    assert state.stocks == {("P", "grain"): 8.0}
    assert [(r.tick, r.edge) for r in log.records] == [
        (0, "e1"), (1, "e1"), (1, "e3"), (2, "e1"), (2, "e3")
    ]
    stepped = init_state(flat)
    for _ in range(3):
        stepped, _ = step(stepped, flat)
    assert stepped == state


# --- replay -----------------------------------------------------------------

@pytest.mark.parametrize("steps", [0, 1, 5])
def test_replay_round_trip(steps):
    flat = flatten(demo_chain_spec())
    state, log = run(flat, steps)
    assert replay(flat, log) == state


def test_replay_rejects_other_model():
    flat = flatten(demo_chain_spec())
    other = flatten(demo_chain_spec(caps=(4, 3, 6)))
    _, log = run(flat, 3)
    with pytest.raises(HashMismatch):
        replay(other, log)


def test_replay_corrupt_amount_raises_negative_stock():
    flat = flatten(demo_chain_spec(caps=(4, 3, 9)))
    _, log = run(flat, 3)
    corrupt = list(log.records)
    # T holds 3 when e_tm#1 first moves it, and gains 3 in that tick; its
    # full capacity of 9, within bounds, overdraws T.
    victim = next(i for i, r in enumerate(corrupt) if r.edge == "e_tm#1")
    assert corrupt[victim].amount == 3.0
    corrupt[victim] = dataclasses.replace(corrupt[victim], amount=9.0)
    bad_log = dataclasses.replace(log, records=tuple(corrupt))
    with pytest.raises(NegativeStock):
        replay(flat, bad_log)


def test_replay_rejects_record_on_unknown_edge():
    flat = flatten(demo_chain_spec())
    _, log = run(flat, 3)
    ghost = dataclasses.replace(log.records[-1], edge="ghost#1")
    bad_log = dataclasses.replace(log, records=log.records[:-1] + (ghost,))
    with pytest.raises(InconsistentState, match="record references unknown edge 'ghost#1'"):
        replay(flat, bad_log)


def test_replay_null_log_refused():
    flat = flatten(demo_chain_spec(history=HistoryPolicy.NULL))
    _, log = run(flat, 3)
    with pytest.raises(NullHistory):
        replay(flat, log)


def test_replay_through_log_file(tmp_path):
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 5)
    path = tmp_path / "run.jsonl"
    write_log(log, path)
    loaded = read_log(path)
    assert loaded == log
    assert replay(flat, loaded) == state


@pytest.mark.parametrize(
    "forged",
    [
        {"amount": math.nan},
        {"amount": math.inf},
        {"amount": 0.0},
        {"amount": 3.5},
        {"tick": 99},
        {"tick": -1},
    ],
    ids=["nan_amount", "inf_amount", "zero_amount", "over_capacity", "tick_after", "tick_before"],
)
def test_replay_rejects_forged_record(forged):
    flat = flatten(demo_chain_spec())
    _, log = run(flat, 3)
    records = list(log.records)
    victim = next(i for i, r in enumerate(records) if r.edge == "e_pt#1")
    records[victim] = dataclasses.replace(records[victim], **forged)
    bad_log = dataclasses.replace(log, records=tuple(records))
    tick = records[victim].tick
    with pytest.raises(InconsistentState, match=f"tick {tick} on edge 'e_pt#1'"):
        replay(flat, bad_log)


def test_replay_rejects_a_source_flow_over_capacity():
    flat = flatten(demo_chain_spec())
    _, log = run(flat, 3)
    assert log.records[0] == TransitionRecord(0, "e_sp#1", 4.0)
    forged = (TransitionRecord(0, "e_sp#1", 1000.0),) + log.records[1:]
    with pytest.raises(InconsistentState, match=r"tick 0 on edge 'e_sp#1' has amount 1000\.0"):
        replay(flat, dataclasses.replace(log, records=forged))


def test_replay_bounds_a_record_by_what_a_run_moves():
    """A grain source of rate 2 and a water source, each on a capacity-10
    grain edge into P: a run moves 2.0 on the first edge and nothing on
    the second, so a record may move no more."""
    spec = SystemSpec(
        "bounded",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        env_nodes=[SourceNode("S", 2, "grain"), SourceNode("W", 7, "water")],
        edges=[
            Edge("e_sp", "S", "P", EdgeKnowledge(10, "grain")),
            Edge("e_wp", "W", "P", EdgeKnowledge(10, "grain")),
        ],
    )
    flat = flatten(spec)
    state, log = run(flat, 1)
    assert log.records == (TransitionRecord(0, "e_sp#1", 2.0),)
    assert replay(flat, log) == state
    header = LogHeader(model_hash(flat), 1)
    cases = [
        ([(0, "e_sp#1", 10.0), (0, "e_wp#1", 7.0)], r"'e_sp#1' has amount 10\.0, outside \(0, 2\.0\]"),
        ([(0, "e_sp#1", 2.0), (0, "e_wp#1", 7.0)], r"'e_wp#1' has amount 7\.0, outside \(0, 0\.0\]"),
    ]
    for records, problem in cases:
        forged = HistoryLog(header, tuple(TransitionRecord(*r) for r in records))
        with pytest.raises(InconsistentState, match=rf"^record at tick 0 on edge {problem}$"):
            replay(flat, forged)


def overflow_spec(sink=False):
    """A source of rate and capacity 1e308 into P, and on to a market."""
    edges = [Edge("e_sp", "S", "P", EdgeKnowledge(1e308, "grain"))]
    env = [SourceNode("S", 1e308, "grain")]
    if sink:
        edges.append(Edge("e_pm", "P", "M", EdgeKnowledge(1e308, "grain")))
        env.append(SinkNode("M", Scope.LOCAL))
    return SystemSpec(
        "overflow",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        env_nodes=env,
        edges=edges,
    )


def test_run_refuses_a_stock_that_overflows():
    flat = flatten(overflow_spec())
    state, _ = run(flat, 1)
    assert state.stocks == {("P#1", "grain"): 1e308}
    with pytest.raises(VcsysError, match=r"^tick 1: stock \('P#1', 'grain'\) overflowed to inf$"):
        run(flat, 3)
    with pytest.raises(VcsysError, match=r"^tick 1: stock"):
        step(state, flat)


def test_run_refuses_a_delivery_counter_that_overflows():
    flat = flatten(overflow_spec(sink=True))
    with pytest.raises(VcsysError, match=r"^tick 2: delivery counter \('M', 'grain'\)"):
        run(flat, 5)


def test_replay_refuses_a_log_that_overflows_a_stock():
    flat = flatten(overflow_spec())
    records = (TransitionRecord(0, "e_sp#1", 1e308), TransitionRecord(1, "e_sp#1", 1e308))
    forged = HistoryLog(LogHeader(model_hash(flat), 2), records)
    with pytest.raises(VcsysError, match=r"^tick 1: stock \('P#1', 'grain'\) overflowed to inf$"):
        replay(flat, forged)


def test_replay_refuses_ticks_that_go_down():
    flat = flatten(demo_chain_spec())
    _, log = run(flat, 3)
    t0, t1, t2 = ([r for r in log.records if r.tick == t] for t in range(3))
    assert [r.edge for r in t1] == ["e_pt#1", "e_sp#1"]
    cases = [
        # The two first ticks reversed: tick 1 alone applies cleanly.
        ((*t1, *t0), "record at tick 0 on edge 'e_sp#1' comes after tick 1"),
        # Tick 1 split around tick 2.
        ((*t0, t1[0], *t2, t1[1]), "record at tick 1 on edge 'e_sp#1' comes after tick 2"),
    ]
    for records, message in cases:
        with pytest.raises(InconsistentState, match=f"^{message}$"):
            replay(flat, dataclasses.replace(log, records=records))


def test_replay_holds_one_tick_of_flows():
    flat = flatten(fan_spec(200, 50))
    peaks = []
    for steps in (10, 40):
        _, log = run(flat, steps)
        replay(flat, log)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            replay(flat, log)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


# --- one plan per graph -----------------------------------------------------

def test_one_plan_and_one_hash_per_graph(monkeypatch):
    built, hashed = [], []
    build, graph_json = sim._Plan.__init__, sim.flat_graph_json
    monkeypatch.setattr(sim._Plan, "__init__", lambda plan, g: built.append(g) or build(plan, g))
    monkeypatch.setattr(sim, "flat_graph_json", lambda g: hashed.append(g) or graph_json(g))
    flat = flatten(demo_chain_spec())
    state = init_state(flat)
    for _ in range(30):
        state, _ = step(state, flat)
    final, log = run(flat, 30)
    assert replay(flat, log) == final == state
    assert conservation_check(flat, final, log).ok
    assert len(built) == 1 and built[0] is flat
    assert len(hashed) == 1 and hashed[0] is flat


def test_alternating_objects_each_compute_once(monkeypatch):
    built, hashed, checked = [], [], []
    build, graph_json, check = sim._Plan.__init__, sim.flat_graph_json, model._validate_level
    monkeypatch.setattr(sim._Plan, "__init__", lambda plan, g: built.append(g) or build(plan, g))
    monkeypatch.setattr(sim, "flat_graph_json", lambda g: hashed.append(g) or graph_json(g))
    monkeypatch.setattr(
        model, "_validate_level", lambda spec, *rest: checked.append(spec) or check(spec, *rest)
    )
    specs = [demo_chain_spec(), contention_spec()]
    for _ in range(3):
        for spec in specs:
            assert validate(spec).ok
    assert checked == specs
    flats = [flatten(spec) for spec in specs]
    states = [init_state(flat) for flat in flats]
    for _ in range(3):
        for i, flat in enumerate(flats):
            final, log = run(flat, 3)
            assert replay(flat, log) == final
            assert conservation_check(flat, final, log).ok
            states[i], _ = step(states[i], flat)
    assert built == hashed == flats
    assert checked == specs


def test_the_cache_keeps_no_graph_alive(monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    spec = demo_chain_spec()
    first, second = flatten(spec), flatten(contention_spec())
    for flat in (first, second):
        state, log = run(flat, 3)
        conservation_check(flat, replay(flat, log), log)
    refs = [weakref.ref(obj) for obj in (spec, first, second, sim._plan(second))]
    del flat, spec, first
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, False, False]
    del second
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, True, True]
    assert unraisable == []


def test_threads_interleaving_graphs_match_a_sequential_run():
    rng = random.Random(89)
    flats = [flatten(random_flow_model(rng, integer_caps=i % 2 == 0)) for i in range(4)]

    def work(flat):
        state, log = run(flat, 15)
        stepped = init_state(flat)
        for _ in range(15):
            stepped, _ = step(stepped, flat)
        return state, log, stepped, replay(flat, log), conservation_check(flat, state, log)

    expected = [work(flat) for flat in flats]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, flats * 6, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected * 6


LOG_HEADER = '{"model_hash": "h", "steps": 1}'
RECORD = '{"tick": 0, "edge": "e_sp#1", "amount": 4.0}\n'


def test_record_constant_takes_the_fast_path():
    assert sim._record_line(RECORD).groups() == ("0", "e_sp#1", "4.0")


def test_read_log_records_share_one_string_per_edge():
    _, log = run(flatten(demo_chain_spec()), 5)
    buffer = io.StringIO()
    write_log(log, buffer)
    records = read_log(io.StringIO(buffer.getvalue())).records
    edges = {id(r.edge) for r in records}
    assert len(edges) == len({r.edge for r in records}) < len(records)
    assert not hasattr(records[0], "__dict__")


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"model_hash": "h"}\n', 1),
        (LOG_HEADER + '\n{"tick": 0, "edge": "e_sp#1"}\n', 2),
        (LOG_HEADER + '\n\n{"tick": 0, "edge": \n', 3),
        (LOG_HEADER + '\n' + RECORD.replace('"tick": 0', '"tick": "0"'), 2),
        (LOG_HEADER + '\n' + RECORD.replace('"tick": 0', '"tick": 0.5'), 2),
        (LOG_HEADER + '\n' + RECORD.replace('"tick": 0', '"tick": true'), 2),
        (LOG_HEADER + '\n' + RECORD.replace('"e_sp#1"', '[1]'), 2),
        (LOG_HEADER + '\n' + RECORD.replace('4.0', 'true'), 2),
        (LOG_HEADER + '\n' + RECORD.replace('4.0', '"4.0"'), 2),
        (LOG_HEADER + '\n' + RECORD.replace('4.0', '1' + '0' * 400), 2),
        (LOG_HEADER.replace('"steps": 1', '"steps": "1"') + '\n', 1),
        (LOG_HEADER.replace('"steps": 1', '"steps": 2.5') + '\n', 1),
        (LOG_HEADER.replace('"steps": 1', '"steps": false') + '\n', 1),
        (LOG_HEADER.replace('"h"', 'null') + '\n', 1),
        (LOG_HEADER.replace('"steps": 1', '"steps": -3') + '\n', 1),
    ],
    ids=[
        "header_missing_key",
        "record_missing_key",
        "not_json",
        "string_tick",
        "float_tick",
        "bool_tick",
        "list_edge",
        "bool_amount",
        "string_amount",
        "huge_int_amount",
        "string_steps",
        "float_steps",
        "bool_steps",
        "null_model_hash",
        "negative_steps",
    ],
)
def test_read_log_malformed_line_raises_typed_error(text, line):
    with pytest.raises(InconsistentState, match=f"<stream>: line {line} "):
        read_log(io.StringIO(text))


# --- log format -------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def test_write_log_reproduces_golden_log(tmp_path):
    doc = parse((FIXTURES / "demo.vcs").read_text(encoding="utf-8"))
    _, log = run(flatten(doc.root), 20)
    path = tmp_path / "demo.jsonl"
    write_log(log, path)
    assert path.read_bytes() == (FIXTURES / "demo.steps20.jsonl").read_bytes()


def test_write_log_reproduces_golden_rationing_log(tmp_path):
    """Proportional milk shares, a one-edge group its stock cannot cover,
    and a largest-remainder tie that goes to e_10 before e_2."""
    doc = parse((FIXTURES / "milk.vcs").read_text(encoding="utf-8"))
    _, log = run(flatten(doc.root), 20)
    path = tmp_path / "milk.jsonl"
    write_log(log, path)
    assert path.read_bytes() == (FIXTURES / "milk.steps20.jsonl").read_bytes()


def test_log_in_the_earlier_format_reads_and_replays():
    """Records that also name their substance, and a header that also
    names a start tick and the history policy, still read and replay."""
    flat = flatten(parse((FIXTURES / "demo.vcs").read_text(encoding="utf-8")).root)
    state, log = run(flat, 20)
    old = read_log(FIXTURES / "demo.steps20.old.jsonl")
    assert old == log
    assert replay(flat, old) == state


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


@dataclasses.dataclass(frozen=True)
class _NotedRecord(TransitionRecord):
    note: str = "extra"


_log_strings = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['e_sp#1', 'q"uote', "back\\slash", "tab\tnl\n\x00\x1f\x7f", "é€😀"]),
    st.builds(_Str, st.text(max_size=4)),
)
_log_amounts = st.one_of(
    st.floats(),
    st.integers(),
    st.booleans(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, -1.5e-7, math.nan, math.inf, -math.inf]),
    st.builds(_Float, st.floats()),
)
_log_ticks = st.one_of(st.integers(), st.booleans(), st.builds(_Int, st.integers()))
_log_records = st.one_of(
    st.builds(TransitionRecord, _log_ticks, _log_strings, _log_amounts),
    st.builds(_NotedRecord, _log_ticks, _log_strings, _log_amounts),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_log_records, max_size=8))
def test_write_log_matches_json_dumps_per_record(records):
    log = HistoryLog(LogHeader("h", 1), tuple(records))
    buffer = io.StringIO()
    write_log(log, buffer)
    header = '{"model_hash": "h", "steps": 1}\n'
    assert buffer.getvalue() == header + "".join(
        json.dumps(dataclasses.asdict(r)) + "\n" for r in records
    )


def _read_outcomes(text):
    """read_log on `text` with and without the fast record-line match.

    Each outcome is the records' repr or the InconsistentState message.
    """
    outcomes = []
    no_match = mock.patch.object(sim, "_record_line", lambda line: None)
    for patch in (contextlib.nullcontext(), no_match):
        with patch:
            try:
                outcomes.append(repr(read_log(io.StringIO(text)).records))
            except InconsistentState as exc:
                outcomes.append(f"InconsistentState: {exc}")
    return outcomes


def _with_tick(tick):
    return RECORD.replace('"tick": 0', f'"tick": {tick}')


def _with_amount(amount):
    return RECORD.replace("4.0", amount)


@pytest.mark.parametrize(
    "record, expected",
    [
        (RECORD, "amount=4.0)"),
        (_with_amount("-0"), "amount=0.0)"),
        (_with_amount("-0.0"), "amount=-0.0)"),
        (_with_amount("4"), "amount=4.0)"),
        (_with_amount("1e+16"), "amount=1e+16)"),
        (_with_amount("5e-324"), "amount=5e-324)"),
        (_with_amount("1E400"), "amount=inf)"),
        (_with_amount("NaN"), "amount=nan)"),
        (_with_tick("٣"), "line 2 is malformed"),
        (_with_tick("1٣"), "line 2 is malformed"),
        (_with_amount("٤.0"), "line 2 is malformed"),
        (_with_amount("4.٠"), "line 2 is malformed"),
        (RECORD[:-1] + "\x0c\n", "line 2 is malformed"),
        (RECORD[:-1] + "\u2028\n", "line 2 is malformed"),
        (_with_tick("01"), "line 2 is malformed"),
        (_with_amount("04.0"), "line 2 is malformed"),
        (_with_amount("4."), "line 2 is malformed"),
        (_with_amount("+4.0"), "line 2 is malformed"),
        (RECORD.replace('"e_sp#1"', r'"e\"sp\\é\n"'), "edge='e\"sp\\\\é\\n'"),
        (RECORD.replace('"e_sp#1"', '"eé"'), "edge='eé'"),
        (RECORD.replace('"e_sp#1"', r'"e\u00e9"'), "edge='eé'"),
        (RECORD.replace('"e_sp#1"', '"e\tx"'), "line 2 is malformed"),
        ('{"edge": "e_sp#1", "amount": 4.0, "tick": 0}\n', "amount=4.0)"),
        (_with_tick("9" * 5000), "line 2 is malformed"),
        (_with_tick("-0"), "tick=0,"),
        (RECORD.replace(", ", ",").replace(": ", ":"), "amount=4.0)"),
        (RECORD[:-1] + "\r\n", "amount=4.0)"),
        (" " + RECORD[:-1] + " \n", "amount=4.0)"),
    ],
    ids=[
        "plain",
        "int_negative_zero_amount",
        "float_negative_zero_amount",
        "int_amount",
        "exponent_amount",
        "subnormal_amount",
        "overflowing_amount",
        "nan_amount",
        "unicode_digit_tick",
        "unicode_digit_in_tick",
        "unicode_digit_amount",
        "unicode_digit_in_amount",
        "trailing_form_feed",
        "trailing_line_separator",
        "leading_zero_tick",
        "leading_zero_amount",
        "bare_point_amount",
        "plus_amount",
        "escaped_edge",
        "raw_non_ascii_edge",
        "unicode_escape_edge",
        "raw_tab_edge",
        "reordered_keys",
        "5000_digit_tick",
        "negative_zero_tick",
        "compact_separators",
        "crlf",
        "surrounding_spaces",
    ],
)
def test_read_log_fast_path_agrees_with_json_path(record, expected):
    fast, slow = _read_outcomes(LOG_HEADER + "\n" + record + RECORD)
    assert fast == slow
    assert expected in fast


# --- conservation -----------------------------------------------------------

def test_conservation_demo_chain():
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 3)
    report = conservation_check(flat, state, log)
    assert report.ok
    entry = report.entries[0]
    assert (entry.emitted, entry.in_stock, entry.delivered) == (12.0, 9.0, 3.0)
    assert entry.error == 0.0


def test_conservation_zero_steps():
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 0)
    [entry] = conservation_check(flat, state, log).entries
    assert entry.ok
    totals = (entry.emitted, entry.in_stock, entry.delivered, entry.error)
    assert [type(total) for total in totals] == [float] * 4


def test_conservation_detects_missing_record():
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 3)
    source_record = next(i for i, r in enumerate(log.records) if r.edge == "e_sp#1")
    pruned = dataclasses.replace(
        log, records=log.records[:source_record] + log.records[source_record + 1 :]
    )
    report = conservation_check(flat, state, pruned)
    assert not report.ok
    assert report.entries[0].error != 0.0


def test_conservation_null_history_refused():
    flat = flatten(demo_chain_spec(history=HistoryPolicy.NULL))
    state, log = run(flat, 3)
    with pytest.raises(NullHistory):
        conservation_check(flat, state, log)


def test_conservation_refuses_a_log_of_another_model():
    flat = flatten(demo_chain_spec())
    state, _ = run(flat, 3)
    _, foreign = run(flatten(nested_two_level_spec()), 3)
    with pytest.raises(HashMismatch):
        conservation_check(flat, state, foreign)


def test_conservation_checks_the_model_before_the_history_policy():
    flat = flatten(demo_chain_spec(history=HistoryPolicy.NULL))
    state, _ = run(flat, 3)
    _, foreign = run(flatten(demo_chain_spec()), 3)
    with pytest.raises(HashMismatch):
        conservation_check(flat, state, foreign)


def test_conservation_refuses_a_record_on_an_unknown_edge_as_replay_does():
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 3)
    forged = dataclasses.replace(log, records=log.records + (TransitionRecord(2, "ghost", 1.0),))
    message = r"^record references unknown edge 'ghost'$"
    with pytest.raises(InconsistentState, match=message):
        replay(flat, forged)
    with pytest.raises(InconsistentState, match=message):
        conservation_check(flat, state, forged)


def test_replay_refuses_a_record_whose_edge_is_unhashable():
    flat = flatten(demo_chain_spec())
    _, log = run(flat, 3)
    forged = dataclasses.replace(log, records=log.records + (TransitionRecord(1, ["x"], 1.0),))
    with pytest.raises(InconsistentState, match=r"^record references unknown edge \['x'\]$"):
        replay(flat, forged)


def test_conservation_refuses_a_record_whose_edge_is_unhashable():
    flat = flatten(demo_chain_spec())
    state, log = run(flat, 3)
    forged = dataclasses.replace(log, records=log.records + (TransitionRecord(1, ["x"], 1.0),))
    with pytest.raises(InconsistentState, match=r"^record references unknown edge \['x'\]$"):
        conservation_check(flat, state, forged)


def test_conservation_on_random_integer_models():
    rng = random.Random(97)
    for _ in range(20):
        flat = flatten(random_flow_model(rng, integer_caps=True))
        state, log = run(flat, rng.randint(0, 30))
        report = conservation_check(flat, state, log)
        assert report.ok
        for entry in report.entries:
            assert entry.error == 0.0


def milkshed_spec():
    """Nine actors moving fractional milk: P*5 -> T*4 -> M."""
    return SystemSpec(
        "milkshed",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0), 5),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1), 4),
        ],
        env_nodes=[SourceNode("S", 402.25, "milk"), SinkNode("M", Scope.NATIONAL)],
        edges=[
            Edge("e_sp", "S", "P", EdgeKnowledge(99.6, "milk")),
            Edge("e_pt", "P", "T", EdgeKnowledge(56.4, "milk")),
            Edge("e_tm", "T", "M", EdgeKnowledge(67.2, "milk")),
        ],
        boundary=BoundarySpec(frozenset({"milk"}), frozenset({"milk"})),
    )


def test_conservation_fractional_rounding_scales_with_emitted():
    flat = flatten(milkshed_spec())
    state, log = run(flat, 200)
    [entry] = conservation_check(flat, state, log).entries
    # Rounding over ~1e5 emitted units exceeds an absolute 1e-9 ...
    assert 1e-9 < abs(entry.error) <= 1e-9 * entry.emitted
    assert entry.ok
    # ... while a lost source record still unbalances the books.
    lost = next(i for i, r in enumerate(log.records) if r.edge.startswith("e_sp"))
    pruned = dataclasses.replace(log, records=log.records[:lost] + log.records[lost + 1 :])
    assert not conservation_check(flat, state, pruned).ok
