"""Expansion of a nested description into one runnable graph.

Flattening materializes every component instance (multiplicity copies,
numbered ``type#k`` depth-first from 1, each subsystem copy just before
its body), recurses through subsystem bodies, and splices subsystem port
connections into direct edges. The result is the atomic-level graph the
simulator and the analyses consume.

Splicing follows the port convention: a subsystem exports connection
points by declaring entity-kind environment nodes and wiring interface
edges to them; the enclosing level attaches edges to ``subsystem.port``
endpoints. The enclosing edge's flow attributes govern the spliced
connection; the inner binding edge only says which internal component
stands behind the port.

``flatten`` validates the description once before expanding it, and
validation includes splicing: :func:`vcsys.model.validate` checks every
port reference and every binding. A description that breaks any rule
raises :class:`vcsys.model.InvalidSpec` carrying the full report, so the
expansion itself never meets a malformed description.

Edges multiply out as the Cartesian product of their endpoints'
instances: an environment endpoint stands for itself, a port for what
stands behind it. An expanded edge is an :class:`vcsys.model.Edge`
numbered ``edgeid#k`` the same way nodes are, between instance ids,
carrying the flow attributes of the edge it expands. A level's edges are
one tuple; each is read as network or interface from its endpoints, and
a level expands its network edges before its interface edges, each in id
order. Everything is deterministic: two calls on the same description
produce identical graphs, ordering included.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .model import (
    DEFAULT_MAX_DEPTH,
    Edge,
    EntityNode,
    EnvNode,
    HistoryPolicy,
    InvalidSpec,
    Role,
    SystemSpec,
    _env_end,
    split_endpoint,
    validate,
)

__all__ = ["FlatNode", "FlatGraph", "flatten"]


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
class FlatGraph:
    """Fully expanded atomic-level graph.

    Carries the root boundary's conserved-substance set and the history
    policy so a run needs nothing beyond the graph itself.
    """

    id: str
    nodes: tuple[FlatNode, ...] = ()
    edges: tuple[Edge, ...] = ()
    env_nodes: tuple[EnvNode, ...] = ()
    history_policy: HistoryPolicy = HistoryPolicy.RECORD
    conserved: frozenset[str] = frozenset()

    @cached_property
    def nodes_by_id(self) -> dict[str, FlatNode]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def env_by_id(self) -> dict[str, EnvNode]:
        return {n.id: n for n in self.env_nodes}


# Port bindings of one expanded subsystem instance: port id ->
# {"tail": flat ids feeding the port, "head": flat ids fed from the port}.
_Ports = dict[str, dict[str, list[str]]]


def flatten(spec: SystemSpec, max_depth: int = DEFAULT_MAX_DEPTH) -> FlatGraph:
    """Expand a description into its atomic-level graph.

    Raises :class:`InvalidSpec`, carrying the validation report, when the
    description breaks any structural rule, splicing rules included.
    """
    report = validate(spec, max_depth)
    if not report.ok:
        raise InvalidSpec(report)
    node_counter: defaultdict[str, int] = defaultdict(int)
    edge_counter: defaultdict[str, int] = defaultdict(int)
    nodes: list[FlatNode] = []
    edges: list[Edge] = []
    env_seen: dict[str, EnvNode] = {}

    def number(counter: defaultdict[str, int], key: str) -> str:
        counter[key] += 1
        return f"{key}#{counter[key]}"

    def expand(s: SystemSpec, path: tuple[str, ...], is_root: bool) -> _Ports:
        env_nodes = {n.id: n for n in s.env_nodes}
        # The flat ids behind each actor, and each environment node (itself).
        flat_ids: dict[str, list[str]] = {env_id: [env_id] for env_id in env_nodes}
        subs: dict[str, list[_Ports]] = {}

        for comp in s.components:
            # Sized before any copy is numbered: a huge multiplicity fails at once.
            labels = [None] * comp.multiplicity
            if comp.variations:
                labels = [label for label, n in comp.variations for _ in range(n)]
            if comp.is_atomic:
                ids = flat_ids[comp.type_id] = []
                for label in labels:
                    iid = number(node_counter, comp.type_id)
                    nodes.append(FlatNode(iid, comp.body.role, comp.body.tier, path, label))
                    ids.append(iid)
            else:
                children = subs[comp.type_id] = []
                for _ in labels:
                    iid = number(node_counter, comp.type_id)
                    children.append(expand(comp.body, path + (iid,), False))

        def resolve(ref: str, side: str) -> list[str]:
            """Flat endpoints an edge endpoint stands for. side: tail|head."""
            base, port = split_endpoint(ref)
            if port is None:
                return flat_ids[base]
            return [iid for child_ports in subs[base] for iid in child_ports[port][side]]

        ports: _Ports = {}

        # Network edges go before interface edges, each in id order: the
        # order fixes the flat graph and with it the model hash.
        classified = sorted(
            ((_env_end(e, env_nodes), e) for e in s.edges), key=lambda c: c[0] is not None
        )
        for env_id, edge in classified:
            if env_id is not None and not is_root and isinstance(env_nodes[env_id], EntityNode):
                # Exported port: remember what stands behind it, emit nothing.
                binding = ports.setdefault(env_id, {"tail": [], "head": []})
                if edge.head == env_id:
                    binding["tail"].extend(resolve(edge.tail, "tail"))
                else:
                    binding["head"].extend(resolve(edge.head, "head"))
                continue
            heads = resolve(edge.head, "head")
            for tail in resolve(edge.tail, "tail"):
                for head in heads:
                    edges.append(Edge(number(edge_counter, edge.id), tail, head, edge.knowledge))

        # Declared environment objects survive flattening, with or without
        # edges; only bound ports splice away.
        for node in s.env_nodes:
            if node.id not in ports:
                env_seen.setdefault(node.id, node)

        return ports

    expand(spec, (), True)
    return FlatGraph(
        id=spec.id,
        nodes=tuple(nodes),
        edges=tuple(edges),
        env_nodes=tuple(sorted(env_seen.values(), key=lambda n: n.id)),
        history_policy=spec.history_policy,
        conserved=spec.boundary.conserved_substances,
    )
