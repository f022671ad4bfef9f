"""Independent reference implementations the main code is checked against.

Nothing here imports the flattener, the simulator or the analysis module:
these are deliberately naive recomputations (tree-walk counting, exhaustive
path enumeration, a plain dict interpreter) kept separate so a bug in the
package cannot hide in its own oracle.
"""

from __future__ import annotations

from vcsys.model import (
    EntityNode,
    SinkNode,
    SourceNode,
    SystemSpec,
    split_endpoint,
)


# ---------------------------------------------------------------------------
# Flatten counts: walk the component tree multiplying multiplicities.

def expected_node_count(spec: SystemSpec) -> int:
    total = 0
    for comp in spec.components:
        if comp.is_atomic:
            total += comp.multiplicity
        else:
            total += comp.multiplicity * expected_node_count(comp.body)
    return total


def expected_type_counts(spec: SystemSpec, factor: int = 1, acc=None) -> dict[str, int]:
    acc = {} if acc is None else acc
    for comp in spec.components:
        acc[comp.type_id] = acc.get(comp.type_id, 0) + factor * comp.multiplicity
        if not comp.is_atomic:
            expected_type_counts(comp.body, factor * comp.multiplicity, acc)
    return acc


def _split_edges(spec: SystemSpec) -> tuple[list, list]:
    """A level's edges as (network, interface), read from the endpoints."""
    env_ids = {n.id for n in spec.env_nodes}
    network, interface = [], []
    for edge in spec.edges:
        bases = {split_endpoint(edge.tail)[0], split_endpoint(edge.head)[0]}
        (interface if bases & env_ids else network).append(edge)
    return network, interface


def _endpoint_instances(spec: SystemSpec, ref: str, outgoing: bool) -> int:
    """How many flat endpoints one occurrence of `ref` stands for."""
    base, port = split_endpoint(ref)
    if base in {n.id for n in spec.env_nodes}:
        return 1
    comp = spec.component(base)
    if comp.is_atomic:
        return comp.multiplicity
    inner = 0
    for edge in _split_edges(comp.body)[1]:
        tail_base, _ = split_endpoint(edge.tail)
        head_base, _ = split_endpoint(edge.head)
        if outgoing and head_base == port:
            inner += _endpoint_instances(comp.body, edge.tail, True)
        if not outgoing and tail_base == port:
            inner += _endpoint_instances(comp.body, edge.head, False)
    return comp.multiplicity * inner


def expected_edge_count(spec: SystemSpec, is_root: bool = True) -> int:
    total = 0
    env_nodes = {n.id: n for n in spec.env_nodes}
    network, interface = _split_edges(spec)
    for edge in network:
        total += _endpoint_instances(spec, edge.tail, True) * _endpoint_instances(
            spec, edge.head, False
        )
    for edge in interface:
        tail_base, _ = split_endpoint(edge.tail)
        env_id = tail_base if tail_base in env_nodes else split_endpoint(edge.head)[0]
        if isinstance(env_nodes[env_id], EntityNode) and not is_root:
            continue  # port binding: spliced away, not an edge of its own
        if tail_base == env_id:
            total += _endpoint_instances(spec, edge.head, False)
        else:
            total += _endpoint_instances(spec, edge.tail, True)
    for comp in spec.components:
        if not comp.is_atomic:
            total += comp.multiplicity * expected_edge_count(comp.body, False)
    return total


def expected_env_ids(spec: SystemSpec, is_root: bool = True, acc=None) -> set[str]:
    acc = set() if acc is None else acc
    touched = set()
    for edge in _split_edges(spec)[1]:
        touched.add(split_endpoint(edge.tail)[0])
        touched.add(split_endpoint(edge.head)[0])
    for node in spec.env_nodes:
        if isinstance(node, EntityNode) and not is_root and node.id in touched:
            continue
        acc.add(node.id)
    for comp in spec.components:
        if not comp.is_atomic:
            expected_env_ids(comp.body, False, acc)
    return acc


# ---------------------------------------------------------------------------
# Governance: exhaustive enumeration of simple paths (shortest paths never
# repeat a node, so this finds all of them on small graphs).

def brute_governance(flat) -> dict[str, float]:
    internal = {n.id for n in flat.nodes}
    sources = sorted(n.id for n in flat.env_nodes if isinstance(n, SourceNode))
    sinks = sorted(n.id for n in flat.env_nodes if isinstance(n, SinkNode))
    reachable = internal | set(sources) | set(sinks)
    adjacency: dict[str, set[str]] = {}
    for edge in flat.edges:
        if (
            edge.knowledge.capacity > 0
            and edge.tail in reachable
            and edge.head in reachable
        ):
            adjacency.setdefault(edge.tail, set()).add(edge.head)

    def all_paths(start: str, goal: str) -> list[list[str]]:
        found = []
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            if node == goal:
                found.append(path)
                continue
            for nxt in sorted(adjacency.get(node, ())):
                if nxt not in path:
                    stack.append((nxt, path + [nxt]))
        return found

    scores = {v: 0.0 for v in internal}
    connected_pairs = 0
    for s in sources:
        for t in sinks:
            paths = all_paths(s, t)
            if not paths:
                continue
            connected_pairs += 1
            best = min(len(p) for p in paths)
            shortest = [p for p in paths if len(p) == best]
            for v in internal:
                through = sum(1 for p in shortest if v in p)
                scores[v] += through / len(shortest)
    if connected_pairs == 0:
        return {v: 0.0 for v in internal}
    return {v: scores[v] / connected_pairs for v in internal}


# ---------------------------------------------------------------------------
# Reference flow interpreter: plain dicts, recomputed from scratch per tick.

def reference_run(flat, steps: int):
    """Returns (stocks, delivered, per-tick delivered snapshots)."""
    env = {n.id: n for n in flat.env_nodes}
    internal = {n.id for n in flat.nodes}
    stocks: dict[tuple[str, str], float] = {}
    delivered: dict[tuple[str, str], float] = {}
    for edge in flat.edges:
        substance = edge.knowledge.substance
        for end in (edge.tail, edge.head):
            if end in internal:
                stocks.setdefault((end, substance), 0.0)
        if isinstance(env.get(edge.head), SinkNode):
            delivered.setdefault((edge.head, substance), 0.0)

    timeline = []
    for _ in range(steps):
        moves = []
        groups: dict[tuple[str, str], list] = {}
        for edge in flat.edges:
            know = edge.knowledge
            if know.capacity <= 0:
                continue
            head_ok = edge.head in internal or isinstance(env.get(edge.head), SinkNode)
            if not head_ok:
                continue
            tail_env = env.get(edge.tail)
            if isinstance(tail_env, SourceNode):
                if know.substance == tail_env.substance:
                    amount = tail_env.rate if tail_env.rate < know.capacity else know.capacity
                    if amount > 0:
                        moves.append((edge, amount))
            elif edge.tail in internal:
                groups.setdefault((edge.tail, know.substance), []).append(edge)

        for (tail, substance), edges in groups.items():
            edges = sorted(edges, key=lambda e: e.id)
            have = stocks[(tail, substance)]
            caps = [e.knowledge.capacity for e in edges]
            want = sum(caps)
            if want <= have:
                moves.extend((e, e.knowledge.capacity) for e in edges)
            elif have > 0:
                if float(have).is_integer() and all(float(c).is_integer() for c in caps):
                    h, w = int(have), int(want)
                    shares = [(h * int(c)) // w for c in caps]
                    remainders = [(h * int(c)) % w for c in caps]
                    order = sorted(
                        range(len(edges)), key=lambda i: (-remainders[i], edges[i].id)
                    )
                    for i in order[: h - sum(shares)]:
                        shares[i] += 1
                    moves.extend(
                        (edges[i], float(shares[i]))
                        for i in range(len(edges))
                        if shares[i] > 0
                    )
                else:
                    moves.extend(
                        (e, have * c / want)
                        for e, c in zip(edges, caps)
                        if have * c / want > 0
                    )

        for edge, amount in sorted(moves, key=lambda m: m[0].id):
            substance = edge.knowledge.substance
            if edge.tail in internal:
                stocks[(edge.tail, substance)] -= amount
            if edge.head in internal:
                stocks[(edge.head, substance)] += amount
            else:
                delivered[(edge.head, substance)] += amount
        timeline.append(dict(delivered))
    return stocks, delivered, timeline
