"""JSON and Graphviz renderings of descriptions and flattened graphs."""

from __future__ import annotations

from typing import Any

from .flatten import FlatGraph
from .model import (
    BoundarySpec,
    EnvNode,
    SinkNode,
    SourceNode,
    SystemSpec,
    _env_end,
    _identifier,
)
from .sdl import fmt_qty

__all__ = ["export_json", "flat_graph_json", "export_dot"]


def _env_json(node: EnvNode) -> dict[str, Any]:
    if isinstance(node, SourceNode):
        return {"id": node.id, "kind": "source", "rate": node.rate, "substance": node.substance}
    if isinstance(node, SinkNode):
        return {"id": node.id, "kind": "sink", "scope": node.scope.value}
    return {"id": node.id, "kind": "entity"}


def _boundary_json(boundary: BoundarySpec) -> dict[str, Any]:
    return {
        "allow": None
        if boundary.allowed_substances is None
        else sorted(boundary.allowed_substances),
        "conserve": sorted(boundary.conserved_substances),
        "permitted_env": None
        if boundary.permitted_env_ids is None
        else sorted(boundary.permitted_env_ids),
    }


def export_json(spec: SystemSpec) -> dict[str, Any]:
    """Mirror a description as a JSON-ready document.

    Each level's edges go under "network" or "interface" by their
    endpoints. Key order is fixed and every list is sorted by id, so
    distinct descriptions produce distinct documents and equal ones
    identical documents.
    """
    env_ids = {n.id for n in spec.env_nodes}
    network: list[dict[str, str]] = []
    interface: list[dict[str, str]] = []
    for e in spec.edges:
        side = network if _env_end(e, env_ids) is None else interface
        side.append({"id": e.id, "tail": e.tail, "head": e.head})
    components = []
    for comp in spec.components:
        entry: dict[str, Any] = {
            "type": comp.type_id,
            "multiplicity": comp.multiplicity,
            "variations": [
                {"label": label, "count": count} for label, count in comp.variations
            ],
        }
        if comp.is_atomic:
            entry["atomic"] = {"role": comp.body.role.value, "tier": comp.body.tier}
        else:
            entry["subsystem"] = export_json(comp.body)
        components.append(entry)
    return {
        "id": spec.id,
        "level": spec.level,
        "components": components,
        "network": {
            "nodes": [comp.type_id for comp in spec.components],
            "edges": network,
        },
        "interface": {
            "env_nodes": [_env_json(n) for n in spec.env_nodes],
            "edges": interface,
        },
        "boundary": _boundary_json(spec.boundary),
        "knowledge": [
            {
                "edge": e.id,
                "substance": e.knowledge.substance,
                "capacity": e.knowledge.capacity,
                "strength": e.knowledge.strength,
            }
            for e in spec.edges
        ],
        "history_policy": spec.history_policy.value,
    }


def flat_graph_json(flat: FlatGraph) -> dict[str, Any]:
    """JSON-ready document for a flattened graph (also the hashing form)."""
    return {
        "id": flat.id,
        "nodes": [
            {
                "id": n.id,
                "role": n.role.value,
                "tier": n.tier,
                "path": list(n.path),
                "variation": n.variation,
            }
            for n in flat.nodes
        ],
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "substance": e.knowledge.substance,
                "capacity": e.knowledge.capacity,
                "strength": e.knowledge.strength,
            }
            for e in flat.edges
        ],
        "env_nodes": [_env_json(n) for n in flat.env_nodes],
        "history_policy": flat.history_policy.value,
        "conserved": sorted(flat.conserved),
    }


# DOT reads these keywords in any case, so an id spelled like one is quoted.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_id(name: str) -> str:
    if _identifier(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(flat: FlatGraph) -> str:
    """Graphviz digraph: sources as houses, end markets as inverted houses,
    actors labeled with role and tier. Zero-capacity edges draw dashed so
    weak links stand out."""
    lines = [f"digraph {_dot_id(flat.id)} {{"]
    for node in flat.nodes:
        label = f"{node.id}\\n{node.role.value}:{node.tier}"
        lines.append(f'  {_dot_id(node.id)} [shape=box label="{label}"]')
    for env in flat.env_nodes:
        if isinstance(env, SourceNode):
            lines.append(f'  {_dot_id(env.id)} [shape=house label="{env.id}"]')
        elif isinstance(env, SinkNode):
            lines.append(f'  {_dot_id(env.id)} [shape=invhouse label="{env.id}"]')
        else:
            lines.append(f'  {_dot_id(env.id)} [shape=note label="{env.id}"]')
    for edge in flat.edges:
        label = f"{edge.knowledge.substance} cap={fmt_qty(edge.knowledge.capacity)}"
        style = " style=dashed" if edge.knowledge.capacity == 0 else ""
        lines.append(
            f'  {_dot_id(edge.tail)} -> {_dot_id(edge.head)} [label="{label}"{style}]'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
