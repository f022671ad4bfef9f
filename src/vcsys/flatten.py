"""Expansion of a nested description into one runnable graph.

Flattening materializes every component instance (multiplicity copies,
numbered ``type#k`` depth-first from 1), recurses through subsystem
bodies, and splices subsystem port connections into direct edges. The
result is the atomic-level graph the simulator and the analyses consume.

Splicing follows the port convention: a subsystem exports connection
points by declaring entity-kind environment nodes and wiring interface
edges to them; the enclosing level attaches edges to ``subsystem.port``
endpoints. The enclosing edge's flow attributes govern the spliced
connection; the inner binding edge only says which internal component
stands behind the port. A binding with no matching outer edge, or an
outer port reference with no inner binding, raises :class:`SpliceError`.

Edges multiply out as the Cartesian product of their endpoints'
instances; expanded edges are numbered ``edgeid#k`` the same way nodes
are. Everything is deterministic: two calls on the same description
produce identical graphs, ordering included.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .model import (
    DEFAULT_MAX_DEPTH,
    DepthExceeded,
    Edge,
    EdgeKnowledge,
    EntityNode,
    EnvNode,
    HistoryPolicy,
    Role,
    SinkNode,
    SourceNode,
    SystemSpec,
    VcsysError,
    split_endpoint,
)

__all__ = ["FlatNode", "FlatEdge", "FlatGraph", "SpliceError", "flatten"]


class SpliceError(VcsysError):
    """A subsystem connection cannot be wired into its enclosing level."""


@dataclass(frozen=True)
class FlatNode:
    """One materialized atomic instance.

    ``path`` is the chain of enclosing subsystem instances, root first;
    ``variation`` is the label of the sub-population the copy belongs to,
    or None when the component declared no variations.
    """

    id: str
    role: Role
    tier: int
    path: tuple[str, ...] = ()
    variation: str | None = None


@dataclass(frozen=True)
class FlatEdge:
    id: str
    tail: str
    head: str
    knowledge: EdgeKnowledge


@dataclass(frozen=True)
class FlatGraph:
    """Fully expanded atomic-level graph.

    Carries the root boundary's conserved-substance set and the history
    policy so a run needs nothing beyond the graph itself.
    """

    id: str
    nodes: tuple[FlatNode, ...] = ()
    edges: tuple[FlatEdge, ...] = ()
    env_nodes: tuple[EnvNode, ...] = ()
    history_policy: HistoryPolicy = HistoryPolicy.RECORD
    conserved: frozenset[str] = frozenset()

    @cached_property
    def nodes_by_id(self) -> dict[str, FlatNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def env_by_id(self) -> dict[str, EnvNode]:
        return {n.id: n for n in self.env_nodes}


class _Expansion:
    """Result of expanding one subsystem instance: its port bindings."""

    __slots__ = ("ports", "binding_edges", "consumed")

    def __init__(self) -> None:
        # port id -> {"out": [flat ids feeding the port],
        #             "in":  [flat ids fed from the port]}
        self.ports: dict[str, dict[str, list[str]]] = {}
        # (port id, direction) -> binding edge id, for the unmatched check
        self.binding_edges: dict[tuple[str, str], str] = {}
        self.consumed: set[tuple[str, str]] = set()


def flatten(spec: SystemSpec, max_depth: int = DEFAULT_MAX_DEPTH) -> FlatGraph:
    """Expand a validated description into its atomic-level graph."""
    type_counter: defaultdict[str, int] = defaultdict(int)
    edge_counter: defaultdict[str, int] = defaultdict(int)
    nodes: list[FlatNode] = []
    edges: list[FlatEdge] = []
    env_order: list[EnvNode] = []
    env_seen: dict[str, EnvNode] = {}

    def new_instance(type_id: str) -> str:
        type_counter[type_id] += 1
        return f"{type_id}#{type_counter[type_id]}"

    def emit_edge(spec_edge: Edge, tail: str, head: str, know: EdgeKnowledge) -> None:
        edge_counter[spec_edge.id] += 1
        edges.append(
            FlatEdge(
                id=f"{spec_edge.id}#{edge_counter[spec_edge.id]}",
                tail=tail,
                head=head,
                knowledge=know,
            )
        )

    def add_env(node: EnvNode) -> None:
        prior = env_seen.get(node.id)
        if prior is None:
            env_seen[node.id] = node
            env_order.append(node)
        elif prior != node:
            raise SpliceError(
                f"environment node {node.id!r} has conflicting definitions"
            )

    def variation_labels(count: int, variations) -> list[str | None]:
        if not variations:
            return [None] * count
        labels: list[str | None] = []
        for label, n in variations:
            labels.extend([label] * n)
        return labels

    def expand(s: SystemSpec, depth: int, path: tuple[str, ...], is_root: bool) -> _Expansion:
        if depth > max_depth:
            raise DepthExceeded(
                f"nesting in {spec.id!r} exceeds max_depth={max_depth}"
            )
        know = s.knowledge_map()
        env_nodes = {n.id: n for n in s.interface.env_nodes}
        atoms: dict[str, list[str]] = {}
        subs: dict[str, list[_Expansion]] = {}

        for comp in s.components:
            labels = variation_labels(comp.multiplicity, comp.variations)
            if comp.is_atomic:
                ids = []
                for k in range(comp.multiplicity):
                    iid = new_instance(comp.type_id)
                    nodes.append(
                        FlatNode(iid, comp.body.role, comp.body.tier, path, labels[k])
                    )
                    ids.append(iid)
                atoms[comp.type_id] = ids
            else:
                results = []
                for k in range(comp.multiplicity):
                    iid = new_instance(comp.type_id)
                    results.append(expand(comp.body, depth + 1, path + (iid,), False))
                subs[comp.type_id] = results

        def resolve(ref: str, side: str) -> list[str]:
            """Flat endpoints an edge endpoint stands for. side: tail|head."""
            base, port = split_endpoint(ref)
            if base in atoms:
                if port is not None:
                    raise SpliceError(f"atomic component {base!r} has no port {port!r}")
                return atoms[base]
            if base in subs:
                if port is None:
                    raise SpliceError(f"endpoint {base!r} is a subsystem and needs a port")
                direction = "out" if side == "tail" else "in"
                resolved: list[str] = []
                for child in subs[base]:
                    binding = child.ports.get(port)
                    if binding is None or not binding[direction]:
                        inward = "feeds" if direction == "out" else "is fed from"
                        raise SpliceError(
                            f"nothing inside {base!r} {inward} port {port!r}"
                        )
                    child.consumed.add((port, direction))
                    resolved.extend(binding[direction])
                return resolved
            raise SpliceError(f"unresolved endpoint {ref!r}")

        expansion = _Expansion()

        for edge in s.network.edges:
            tails = resolve(edge.tail, "tail")
            heads = resolve(edge.head, "head")
            for tail in tails:
                for head in heads:
                    emit_edge(edge, tail, head, know[edge.id])

        for edge in s.interface.edges:
            tail_base, _ = split_endpoint(edge.tail)
            head_base, _ = split_endpoint(edge.head)
            env_id = tail_base if tail_base in env_nodes else head_base
            if env_id not in env_nodes:
                raise SpliceError(
                    f"interface edge {edge.id!r} touches no environment node"
                )
            env_node = env_nodes[env_id]
            port_binding = isinstance(env_node, EntityNode) and not is_root
            if port_binding:
                # Exported port: remember what stands behind it, emit nothing.
                binding = expansion.ports.setdefault(env_id, {"out": [], "in": []})
                if head_base == env_id:
                    binding["out"].extend(resolve(edge.tail, "tail"))
                    expansion.binding_edges[(env_id, "out")] = edge.id
                else:
                    binding["in"].extend(resolve(edge.head, "head"))
                    expansion.binding_edges[(env_id, "in")] = edge.id
                continue
            add_env(env_node)
            if tail_base == env_id:
                for head in resolve(edge.head, "head"):
                    emit_edge(edge, env_id, head, know[edge.id])
            else:
                for tail in resolve(edge.tail, "tail"):
                    emit_edge(edge, tail, env_id, know[edge.id])

        # Declared environment objects survive flattening even without
        # edges; only consumed ports splice away.
        for node in s.interface.env_nodes:
            if isinstance(node, EntityNode) and node.id in expansion.ports:
                continue
            add_env(node)

        # Every inner binding must have been consumed by an outer edge.
        for type_id, results in sorted(subs.items()):
            for expansion_child in results:
                for (port, direction), edge_id in sorted(
                    expansion_child.binding_edges.items()
                ):
                    if (port, direction) not in expansion_child.consumed:
                        raise SpliceError(
                            f"interface edge {edge_id!r} of subsystem {type_id!r}"
                            f" has no matching connection at the enclosing level"
                            f" (port {port!r})"
                        )

        return expansion

    expand(spec, 0, (), True)
    return FlatGraph(
        id=spec.id,
        nodes=tuple(nodes),
        edges=tuple(edges),
        env_nodes=tuple(sorted(env_order, key=lambda n: n.id)),
        history_policy=spec.history_policy,
        conserved=spec.boundary.conserved_substances,
    )
