"""Linkage classes, governance centrality, reachability, weak links."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vcsys import (
    Atomic,
    ComponentDecl,
    Edge,
    EdgeKnowledge,
    LinkageClass,
    Role,
    Scope,
    SinkNode,
    SourceNode,
    SystemSpec,
    classify_linkages,
    end_market_reachability,
    flatten,
    governance_centrality,
    value_added_profile,
    weak_linkage_report,
)

from .helpers import (
    demo_chain_spec,
    diamond_spec,
    fan_spec,
    nested_mult_spec,
    random_flow_model,
    two_sink_spec,
)
from .oracles import brute_governance


def horizontal_pair_spec():
    return SystemSpec(
        "pair",
        components=[
            ComponentDecl("P1", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("P2", Atomic(Role.PRODUCER, 0)),
        ],
        edges=[Edge("e_h", "P1", "P2", EdgeKnowledge(1, "grain"))],
    )


# --- classify ---------------------------------------------------------------

def test_classify_vertical_horizontal_interface():
    flat = flatten(demo_chain_spec())
    classes = classify_linkages(flat)
    assert classes["e_pt#1"] is LinkageClass.VERTICAL
    assert classes["e_sp#1"] is LinkageClass.INTERFACE
    assert classes["e_tm#1"] is LinkageClass.INTERFACE

    flat2 = flatten(horizontal_pair_spec())
    assert classify_linkages(flat2)["e_h#1"] is LinkageClass.HORIZONTAL


def test_classify_partitions_every_edge():
    rng = random.Random(11)
    for _ in range(20):
        flat = flatten(random_flow_model(rng))
        classes = classify_linkages(flat)
        assert set(classes) == {e.id for e in flat.edges}


# --- governance -------------------------------------------------------------

def test_governance_demo_chain():
    scores = {s.node: s.score for s in governance_centrality(flatten(demo_chain_spec()))}
    assert scores == {"P#1": 1.0, "T#1": 1.0}


def test_governance_diamond_split():
    scores = {s.node: s.score for s in governance_centrality(flatten(diamond_spec()))}
    assert scores["A#1"] == pytest.approx(0.5, abs=1e-12)
    assert scores["B#1"] == pytest.approx(0.5, abs=1e-12)


def test_governance_isolated_node_scores_zero():
    spec = SystemSpec(
        "iso",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1)),
            ComponentDecl("X", Atomic(Role.SUPPORT_SERVICE, 2)),
        ],
        env_nodes=[SourceNode("S", 1, "grain"), SinkNode("M", Scope.LOCAL)],
        edges=[
            Edge("e1", "S", "P", EdgeKnowledge(1, "grain")),
            Edge("e2", "P", "T", EdgeKnowledge(1, "grain")),
            Edge("e3", "T", "M", EdgeKnowledge(1, "grain")),
        ],
    )
    scores = {s.node: s.score for s in governance_centrality(flatten(spec))}
    assert scores["X#1"] == 0.0


def test_governance_broken_chain_all_zero():
    spec = demo_chain_spec(caps=(4, 0, 5))  # zero capacity cuts the route
    scores = governance_centrality(flatten(spec))
    assert scores and all(s.score == 0.0 for s in scores)


def test_governance_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(30):
        flat = flatten(random_flow_model(rng))
        got = {s.node: s.score for s in governance_centrality(flat)}
        want = brute_governance(flat)
        assert set(got) == set(want)
        for node in got:
            assert got[node] == pytest.approx(want[node], abs=1e-9)


def test_governance_scores_within_unit_interval():
    rng = random.Random(17)
    for _ in range(20):
        for score in governance_centrality(flatten(random_flow_model(rng))):
            assert 0.0 <= score.score <= 1.0
    for a in range(1, 13):
        for b in range(1, 13):
            scores = {s.node: s.score for s in governance_centrality(flatten(fan_spec(a, b)))}
            assert all(0.0 <= score <= 1.0 for score in scores.values()), (a, b)
            assert scores["T#1"] == 1.0, (a, b)  # the trader is a cut vertex


# --- reachability -----------------------------------------------------------

def test_reachability_demo_chain():
    reach = end_market_reachability(flatten(demo_chain_spec()))
    assert reach["P#1"] == frozenset({"M"})
    assert reach["T#1"] == frozenset({"M"})


def test_reachability_zero_capacity_blocks():
    reach = end_market_reachability(flatten(demo_chain_spec(caps=(4, 0, 5))))
    assert reach["P#1"] == frozenset()
    assert reach["T#1"] == frozenset({"M"})


def test_reachability_two_sinks():
    reach = end_market_reachability(flatten(two_sink_spec()))
    assert reach["T#1"] == frozenset({"M1", "M2"})
    assert reach["P#1"] == frozenset({"M1", "M2"})


def test_reachability_monotone_under_edge_addition():
    rng = random.Random(31)
    for _ in range(15):
        spec = random_flow_model(rng)
        flat = flatten(spec)
        before = end_market_reachability(flat)
        nodes = [c.type_id for c in spec.components]
        extra = Edge("zz_extra", rng.choice(nodes), rng.choice(nodes), EdgeKnowledge(5, "grain"))
        bigger = SystemSpec(
            spec.id,
            components=list(spec.components),
            edges=list(spec.edges) + [extra],
            env_nodes=list(spec.env_nodes),
            boundary=spec.boundary,
        )
        after = end_market_reachability(flatten(bigger))
        for node, sinks in before.items():
            assert sinks <= after[node]


# --- weak linkages ----------------------------------------------------------

def test_weak_report_demo_chain_threshold_ten():
    report = weak_linkage_report(flatten(demo_chain_spec()), 10)
    # only P -> T is vertical; interface edges are excluded
    assert [w.edge for w in report.weak] == ["e_pt#1"]
    assert report.weak[0].capacity == 3
    assert report.missing == ()


def test_weak_report_threshold_zero_is_empty():
    rng = random.Random(41)
    for _ in range(10):
        report = weak_linkage_report(flatten(random_flow_model(rng)), 0)
        assert report.weak == ()


def test_weak_report_missing_tier_pair():
    spec = SystemSpec(
        "gap",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1)),
        ],
    )
    report = weak_linkage_report(flatten(spec), 1)
    assert report.missing == ((0, 1),)


def test_weak_report_rejects_negative_threshold():
    with pytest.raises(ValueError):
        weak_linkage_report(flatten(demo_chain_spec()), -1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_weak_report_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be a finite non-negative number"):
        weak_linkage_report(flatten(demo_chain_spec()), threshold)


# --- value added ------------------------------------------------------------

def test_value_added_isolated_node_zero():
    spec = SystemSpec(
        "solo", components=[ComponentDecl("X", Atomic(Role.SUPPORT_SERVICE, 0))]
    )
    assert value_added_profile(flatten(spec)) == {"X#1": 0.0}


def test_value_added_demo_chain():
    profile = value_added_profile(flatten(demo_chain_spec()))
    assert profile["P#1"] == -1.0  # out 3 minus in 4
    assert profile["T#1"] == 2.0


def test_value_added_doubles_with_strength():
    base = value_added_profile(flatten(demo_chain_spec(strength=1.0)))
    doubled = value_added_profile(flatten(demo_chain_spec(strength=2.0)))
    for node, value in base.items():
        assert doubled[node] == pytest.approx(2 * value, abs=1e-12)


def test_value_added_telescopes_to_interface_balance():
    rng = random.Random(53)
    for _ in range(20):
        flat = flatten(random_flow_model(rng))
        profile = value_added_profile(flat)
        internal = {n.id for n in flat.nodes}
        boundary_out = sum(
            e.knowledge.capacity * e.knowledge.strength
            for e in flat.edges
            if e.tail in internal and e.head not in internal
        )
        boundary_in = sum(
            e.knowledge.capacity * e.knowledge.strength
            for e in flat.edges
            if e.head in internal and e.tail not in internal
        )
        assert sum(profile.values()) == pytest.approx(
            boundary_out - boundary_in, abs=1e-9
        )


_ACTOR_KEY_ORDER = """
import json
from tests.helpers import nested_mult_spec
from vcsys import end_market_reachability, flatten, value_added_profile
flat = flatten(nested_mult_spec())
print(json.dumps([list(end_market_reachability(flat)), list(value_added_profile(flat))]))
"""


def test_actor_keyed_dicts_follow_flat_node_order_under_any_hash_seed():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
    orders = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _ACTOR_KEY_ORDER],
                env={**env, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for seed in ("1", "2")
    ]
    actors = [n.id for n in flatten(nested_mult_spec()).nodes]
    assert orders == [[actors, actors]] * 2
