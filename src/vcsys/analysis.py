"""Structural and dynamic diagnostics over a flattened graph.

All functions are read-only over the graph and deterministic. Flow-path
questions (governance, end-market reachability) work on the sub-graph of
edges that can actually carry something: capacity above zero, neither
endpoint an inert environment entity. Classification by contrast is about
topology and keeps zero-capacity edges. Dicts keyed by actor list the
actors in flat-node order.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict, deque
from dataclasses import dataclass

from .flatten import FlatGraph
from .model import EntityNode, SinkNode, SourceNode

__all__ = [
    "LinkageClass",
    "GovernanceScore",
    "WeakLink",
    "WeakLinkageReport",
    "classify_linkages",
    "governance_centrality",
    "end_market_reachability",
    "weak_linkage_report",
    "value_added_profile",
]


class LinkageClass(enum.Enum):
    VERTICAL = "vertical"      # between different chain tiers
    HORIZONTAL = "horizontal"  # within one tier
    INTERFACE = "interface"    # touches the environment


def classify_linkages(flat: FlatGraph) -> dict[str, LinkageClass]:
    """Assign every edge exactly one linkage class."""
    nodes = flat.nodes_by_id
    out: dict[str, LinkageClass] = {}
    for edge in flat.edges:
        if edge.tail not in nodes or edge.head not in nodes:
            out[edge.id] = LinkageClass.INTERFACE
            continue
        out[edge.id] = (
            LinkageClass.VERTICAL
            if nodes[edge.tail].tier != nodes[edge.head].tier
            else LinkageClass.HORIZONTAL
        )
    return out


def _flow_adjacency(flat: FlatGraph) -> tuple[dict[str, set[str]], set[str], set[str]]:
    """Forward adjacency over flow-capable edges, plus source and sink ids.

    Parallel edges collapse to one adjacency entry: path counting is about
    routes between actors, not about which of several identical pipes a
    unit takes.
    """
    sources = {n.id for n in flat.env_nodes if isinstance(n, SourceNode)}
    sinks = {n.id for n in flat.env_nodes if isinstance(n, SinkNode)}
    inert = {n.id for n in flat.env_nodes if isinstance(n, EntityNode)}
    adjacency: dict[str, set[str]] = defaultdict(set)
    for edge in flat.edges:
        if edge.knowledge.capacity > 0 and edge.tail not in inert and edge.head not in inert:
            adjacency[edge.tail].add(edge.head)
    return adjacency, sources, sinks


@dataclass(frozen=True)
class GovernanceScore:
    node: str
    score: float


def governance_centrality(flat: FlatGraph) -> list[GovernanceScore]:
    """Score each actor's brokerage between supply sources and end markets.

    For every (source, sink) pair that is connected at all, a node earns
    the fraction of shortest directed paths that pass through it; scores
    average over the connected pairs, landing in [0, 1]. A node off every
    path (or a graph with no connected pair at all, i.e. a broken chain)
    scores 0.

    Computed as Brandes' source-target betweenness: one BFS per source
    counts shortest paths, and one sweep back over the visit order sums,
    for every actor at once, its share of the paths to all reached sinks.
    The cost is one BFS per source, linear in the edges. The sweep runs in
    integers scaled by the lcm of the reached sinks' path counts, so each
    (actor, source) share is one correctly rounded division: a cut-vertex
    actor scores exactly 1.0 and no score leaves [0, 1]. Sources are taken
    in sorted order, so the float sums do not depend on hash seeds.
    """
    adjacency, sources, sinks = _flow_adjacency(flat)
    totals = dict.fromkeys(flat.nodes_by_id, 0.0)
    pairs_with_path = 0
    for s in sorted(sources):
        dist = {s: 0}
        paths = {s: 1}
        order = [s]
        for node in order:
            for nxt in adjacency.get(node, ()):
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    paths[nxt] = paths[node]
                    order.append(nxt)
                elif dist[nxt] == dist[node] + 1:
                    paths[nxt] += paths[node]
        reached = [t for t in order if t in sinks]
        if not reached:
            continue
        pairs_with_path += len(reached)
        scale = math.lcm(*(paths[t] for t in reached))
        through = dict.fromkeys(order, 0)
        for v in reversed(order):
            if v in sinks:
                through[v] += scale // paths[v]
            for w in adjacency.get(v, ()):
                if dist[w] == dist[v] + 1:
                    through[v] += through[w]
            if through[v] and v in totals:
                totals[v] += paths[v] * through[v] / scale

    if pairs_with_path == 0:
        return [GovernanceScore(v, 0.0) for v in sorted(totals)]
    return [GovernanceScore(v, totals[v] / pairs_with_path) for v in sorted(totals)]


def end_market_reachability(flat: FlatGraph) -> dict[str, frozenset[str]]:
    """Which end markets each actor can feed through flow-capable edges."""
    adjacency, _, sinks = _flow_adjacency(flat)
    reverse: dict[str, set[str]] = defaultdict(set)
    for tail, heads in adjacency.items():
        for head in heads:
            reverse[head].add(tail)
    reached: dict[str, set[str]] = {v: set() for v in flat.nodes_by_id}
    for sink in sorted(sinks):
        seen: set[str] = set()
        queue = deque([sink])
        while queue:
            node = queue.popleft()
            for prev in reverse.get(node, ()):
                if prev in reached and prev not in seen:
                    seen.add(prev)
                    reached[prev].add(sink)
                    queue.append(prev)
    return {v: frozenset(s) for v, s in reached.items()}


@dataclass(frozen=True)
class WeakLink:
    edge: str
    capacity: float


@dataclass(frozen=True)
class WeakLinkageReport:
    threshold: float
    weak: tuple[WeakLink, ...]
    missing: tuple[tuple[int, int], ...]

    @property
    def clean(self) -> bool:
        return not self.weak and not self.missing


def weak_linkage_report(flat: FlatGraph, threshold: float) -> WeakLinkageReport:
    """Vertical edges under the capacity threshold, and adjacent tier pairs
    that are populated on both sides but not connected at all.

    Zero-capacity edges still count as connections here: a starved link is
    a weak one, not a missing one.
    """
    if not 0 <= threshold < math.inf:  # false for nan as well
        raise ValueError(f"threshold must be a finite non-negative number, got {threshold!r}")
    classes = classify_linkages(flat)
    nodes = flat.nodes_by_id
    weak = tuple(
        WeakLink(edge.id, edge.knowledge.capacity)
        for edge in sorted(flat.edges, key=lambda e: e.id)
        if classes[edge.id] is LinkageClass.VERTICAL
        and edge.knowledge.capacity < threshold
    )
    populated = {n.tier for n in flat.nodes}
    linked: set[tuple[int, int]] = set()
    for edge in flat.edges:
        if classes[edge.id] is not LinkageClass.INTERFACE:
            a, b = nodes[edge.tail].tier, nodes[edge.head].tier
            if abs(a - b) == 1:
                linked.add((min(a, b), max(a, b)))
    missing = tuple(
        (tier, tier + 1)
        for tier in sorted(populated)
        if tier + 1 in populated and (tier, tier + 1) not in linked
    )
    return WeakLinkageReport(float(threshold), weak, missing)


def value_added_profile(flat: FlatGraph) -> dict[str, float]:
    """Capacity-weighted throughput balance per actor.

    Sum of outgoing capacity x strength minus the incoming sum; a crude
    proxy for where value concentrates, and negative when a node takes in
    more weighted capacity than it passes on.
    """
    profile = dict.fromkeys(flat.nodes_by_id, 0.0)
    for edge in flat.edges:
        value = edge.knowledge.capacity * edge.knowledge.strength
        if edge.tail in profile:
            profile[edge.tail] += value
        if edge.head in profile:
            profile[edge.head] -= value
    return profile
