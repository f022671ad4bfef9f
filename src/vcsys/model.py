"""Core data model for hierarchical value-chain systems.

A system description bundles six things: the multiset of components, the
internal connection network (the level's edges among its components),
the interface to the surrounding environment, the boundary conditions
that keep the system's identity, per-connection flow attributes (what
the system knows about its own interactions), and a history policy
saying whether simulation runs keep a transition record. Network and
interface share one edge tuple: an edge's endpoints say which it is in.
The flow attributes have no table of their own: each :class:`Edge`
carries its :class:`EdgeKnowledge`, here and in the flattened graph alike.

Descriptions nest. A component is either atomic (a chain actor with a role
and a tier position) or a whole subsystem one level further down, and the
nesting bottoms out where every component is atomic. ``validate`` checks
every structural rule, the port wiring that splicing needs included, and
reports violations as data rather than raising; ``depth`` and
``subsystem_at`` navigate the component tree. Expansion into a runnable
graph lives in :mod:`vcsys.flatten`.

Everything here is immutable after construction. A description is built
with the :class:`SystemSpec` constructor, which takes any iterables of
components, edges and environment nodes and stores each as a tuple sorted
by id, so that structurally equal descriptions compare equal regardless
of declaration order, and so that downstream output is deterministic.
Constructors check nothing else: one may raise ``TypeError`` for a value
it cannot sort or store, such as ids of mixed types at one level or a
record of the wrong kind, or ``ValueError`` for a quantity ``float``
cannot read.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Container, Iterable, Union

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "VcsysError",
    "DepthExceeded",
    "PathNotFound",
    "PathHitsAtomic",
    "Role",
    "Scope",
    "HistoryPolicy",
    "Atomic",
    "EdgeKnowledge",
    "Edge",
    "SourceNode",
    "SinkNode",
    "EntityNode",
    "EnvNode",
    "BoundarySpec",
    "ComponentDecl",
    "SystemSpec",
    "Violation",
    "ValidationReport",
    "InvalidSpec",
    "validate",
    "depth",
    "subsystem_at",
]

DEFAULT_MAX_DEPTH = 8


class VcsysError(Exception):
    """Base class for all errors raised by this package."""


class DepthExceeded(VcsysError):
    """Component nesting goes past the configured maximum depth."""


class PathNotFound(VcsysError):
    """A component path names a type that is not declared."""


class PathHitsAtomic(VcsysError):
    """A component path descends into an atomic component."""


class Role(enum.Enum):
    """Position a chain actor occupies in the value chain."""

    INPUT_SUPPLIER = "input_supplier"
    PRODUCER = "producer"
    PROCESSOR_TRADER = "processor_trader"
    BUYER = "buyer"
    EXPORTER = "exporter"
    SUPPORT_SERVICE = "support_service"
    BEE_FACTOR = "bee_factor"


class Scope(enum.Enum):
    """Geographic reach of an end market."""

    LOCAL = "local"
    NATIONAL = "national"
    REGIONAL = "regional"
    GLOBAL = "global"


class HistoryPolicy(enum.Enum):
    """Whether simulation runs keep a record of state transitions."""

    RECORD = "record"
    NULL = "null"


def _store_float(record: object, field: str) -> None:
    """Store a quantity field as a float; an int too large for one is a
    ValueError naming the field."""
    try:
        object.__setattr__(record, field, float(getattr(record, field)))
    except OverflowError as exc:
        raise ValueError(f"{field}: {exc}") from exc


@dataclass(frozen=True)
class Atomic:
    """Body of a component that needs no further decomposition."""

    role: Role
    tier: int


@dataclass(frozen=True)
class EdgeKnowledge:
    """Flow attributes of one edge: what moves, how much, how strongly."""

    capacity: float
    substance: str
    strength: float = 1.0

    def __post_init__(self) -> None:
        _store_float(self, "capacity")
        _store_float(self, "strength")


@dataclass(frozen=True)
class Edge:
    """One connection ``tail -> head`` with its flow attributes.

    Endpoints are references, not objects: a component type id, an
    environment node id, or a dotted ``subsystem.port`` pair addressing an
    exported port of a nested subsystem. A flattened graph uses the same
    record, with instance ids as endpoints.
    """

    id: str
    tail: str
    head: str
    knowledge: EdgeKnowledge


@dataclass(frozen=True)
class SourceNode:
    """Environment node that offers a substance at a fixed rate per tick."""

    id: str
    rate: float
    substance: str

    def __post_init__(self) -> None:
        _store_float(self, "rate")


@dataclass(frozen=True)
class SinkNode:
    """Environment node where a substance leaves the system: an end market."""

    id: str
    scope: Scope


@dataclass(frozen=True)
class EntityNode:
    """Environment node with no flow semantics.

    Doubles as an exported port when declared by a nested subsystem: parent
    edges attach to it via dotted ``subsystem.port`` references and the
    flattener splices the connection through.
    """

    id: str


EnvNode = Union[SourceNode, SinkNode, EntityNode]


def split_endpoint(ref: str) -> tuple[str, str | None]:
    """Split an edge endpoint into (base id, port or None)."""
    base, dot, port = ref.partition(".")
    return (base, port) if dot else (ref, None)


def _env_end(edge: Edge, env_ids: Container[str]) -> str | None:
    """The environment node an edge touches, which makes it an interface
    edge, or None for an edge of the network among the components."""
    for ref in (edge.tail, edge.head):
        base, _ = split_endpoint(ref)
        if base in env_ids:
            return base
    return None


@dataclass(frozen=True)
class BoundarySpec:
    """Conditions that keep the system's identity during a run.

    ``allowed_substances`` and ``permitted_env_ids`` use ``None`` to mean
    unrestricted; an explicit empty set means "nothing is allowed".
    """

    allowed_substances: frozenset[str] | None = None
    conserved_substances: frozenset[str] = frozenset()
    permitted_env_ids: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.allowed_substances is not None:
            object.__setattr__(
                self, "allowed_substances", frozenset(self.allowed_substances)
            )
        object.__setattr__(
            self, "conserved_substances", frozenset(self.conserved_substances)
        )
        if self.permitted_env_ids is not None:
            object.__setattr__(
                self, "permitted_env_ids", frozenset(self.permitted_env_ids)
            )

    def allows(self, substance: str) -> bool:
        return self.allowed_substances is None or substance in self.allowed_substances

    def permits_env(self, env_id: str) -> bool:
        return self.permitted_env_ids is None or env_id in self.permitted_env_ids


@dataclass(frozen=True)
class ComponentDecl:
    """One declared component: a type, how many of it, and its body.

    ``variations`` optionally partitions the multiplicity into labeled
    sub-populations; counts must sum to the multiplicity. An empty tuple
    means a single unlabeled variation covering every copy.
    """

    type_id: str
    body: Union[Atomic, "SystemSpec"]
    multiplicity: int = 1
    variations: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        try:
            variations = tuple(sorted(self.variations, key=lambda v: v[0]))
        except LookupError as exc:  # a variation without a label
            raise TypeError(f"variations must be (label, count) pairs: {exc}") from exc
        object.__setattr__(self, "variations", variations)

    @property
    def is_atomic(self) -> bool:
        return isinstance(self.body, Atomic)


@dataclass(frozen=True)
class SystemSpec:
    """A complete system description at one nesting level.

    ``components``, ``edges`` and ``env_nodes`` accept any iterables and
    hold tuples sorted by id. An edge with an environment endpoint is part
    of the interface; any other wires the network among the components.
    """

    id: str
    level: int = 0
    components: tuple[ComponentDecl, ...] = ()
    edges: tuple[Edge, ...] = ()
    env_nodes: tuple[EnvNode, ...] = ()
    boundary: BoundarySpec = BoundarySpec()
    history_policy: HistoryPolicy = HistoryPolicy.RECORD

    def __post_init__(self) -> None:
        for field, key in (("components", "type_id"), ("edges", "id"), ("env_nodes", "id")):
            try:
                items = tuple(sorted(getattr(self, field), key=attrgetter(key)))
            except AttributeError as exc:  # a record of the wrong kind
                raise TypeError(f"{field}: {exc}") from exc
            object.__setattr__(self, field, items)

    def component(self, type_id: str) -> ComponentDecl | None:
        for comp in self.components:
            if comp.type_id == type_id:
                return comp
        return None


@dataclass(frozen=True)
class Violation:
    """One structural rule broken, located by a slash path into the tree."""

    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Every rule a description breaks; ``ok`` when it breaks none."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class InvalidSpec(VcsysError):
    """A description breaks structural rules; ``report`` holds every one."""

    def __init__(self, report: ValidationReport) -> None:
        first, count = report.violations[0], len(report.violations)
        where = f"{first.path}: " if first.path else ""  # a root of the wrong kind has none
        more = f" (and {count - 1} more)" if count > 1 else ""
        super().__init__(f"{where}{first.message}{more}")
        self.report = report


def _is_quantity(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


# An SDL identifier: the only kind of name the text format can hold.
_identifier = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch


def _memo(fn: Callable) -> Callable:
    """Compute ``fn(obj, *args)`` once per object and arguments.

    As with :class:`functools.cached_property`, the result is kept in the
    object's ``__dict__``, so it lives exactly as long as the object. Its
    key holds a dot, which no field or property name can.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn, updated=())
    def memo(obj, *args):
        results = obj.__dict__.setdefault(key, {})
        return results[args] if args in results else results.setdefault(args, fn(obj, *args))

    return memo


def validate(spec: SystemSpec, max_depth: int = DEFAULT_MAX_DEPTH) -> ValidationReport:
    """Check every structural rule of a system description.

    Violations come back as data with tree paths; an empty report means the
    description is well-formed: all nesting, graph, boundary and knowledge
    invariants hold, every name is an identifier of the text format, every
    role, scope and history policy holds its enum, every boundary,
    environment node, edge and variation is a record of its kind, every
    edge's substance is allowed by the boundary, every nested system's id
    is its component type id, and every port splices:
    ``sub.port`` names an entity node of ``sub`` that is fed from inside
    when used as a tail and feeds inside when used as a head, and every
    binding edge inside is used so by the enclosing level.
    Arbitrary candidate descriptions are accepted and nothing raises: a
    root that is not a :class:`SystemSpec` is one violation at the empty
    path, and a description nested deeper than the interpreter's stack
    lets the check walk is one violation at the root's path.
    """
    if not isinstance(spec, SystemSpec):
        return ValidationReport((Violation("", f"description must be a SystemSpec, got {spec!r}"),))
    try:
        return _report(spec, max_depth)
    except RecursionError:
        return ValidationReport((Violation(f"{spec.id}", "nesting is too deep to validate"),))


@_memo  # so that flatten(parse(text).root) validates the root once
def _report(spec: SystemSpec, max_depth: int) -> ValidationReport:
    out: list[Violation] = []
    env_seen: dict[str, tuple[str, EnvNode]] = {}
    _validate_level(spec, f"{spec.id}", 0, max_depth, None, None, env_seen, out)
    return ValidationReport(tuple(out))


def _validate_level(
    spec: SystemSpec,
    path: str,
    depth: int,
    max_depth: int,
    parent_level: int | None,
    ports: dict[str, dict[str, bool]] | None,
    env_seen: dict[str, tuple[str, EnvNode]],
    out: list[Violation],
) -> None:
    # ports: this system's port index, filled in by the enclosing level;
    # None at the root, whose entity nodes are not ports.
    def bad(message: str, at: str | None = None) -> None:
        out.append(Violation(at or path, message))

    def name(value: object, what: str, at: str) -> None:
        if not (isinstance(value, str) and _identifier(value)):
            bad(f"{what} {value!r} is not an identifier", at)

    def claim(value: object, what: str, at: str, seen: dict, item: object) -> bool:
        # Reports a name declared twice or that is no identifier. Only a str
        # name goes into ``seen`` and the maps below: any other takes part
        # in no further check, and the result says which it is.
        keyed = isinstance(value, str)
        if keyed and value in seen:
            bad(f"duplicate {what} {value!r}", at)
        elif keyed:
            seen[value] = item
        name(value, what, at)
        return keyed

    if depth > max_depth:
        bad(f"nesting depth exceeds max_depth={max_depth}")
        return

    if not isinstance(spec.id, str):
        bad(f"system id must be a str, got {spec.id!r}")
    if not isinstance(spec.history_policy, HistoryPolicy):
        bad(f"history policy must be a HistoryPolicy, got {spec.history_policy!r}")
    # Integers are exact ints: bool and float are refused.
    if type(spec.level) is not int or spec.level < 0:
        bad(f"level must be a non-negative integer, got {spec.level!r}")
    if type(parent_level) is int and spec.level != parent_level + 1:
        bad(
            f"nested system level {spec.level} must be parent level + 1"
            f" (= {parent_level + 1})"
        )
    b = spec.boundary
    if not isinstance(b, BoundarySpec):
        bad(f"boundary must be a BoundarySpec, got {b!r}", f"{path}/boundary")
        b = BoundarySpec()  # restricts nothing, so checks nothing further

    # Component declarations.
    seen_types: dict[str, ComponentDecl] = {}
    atomics: set[str] = set()
    subsystems: dict[str, SystemSpec] = {}
    for comp in spec.components:
        cpath = f"{path}/{comp.type_id}"
        keyed = claim(comp.type_id, "component type", cpath, seen_types, comp)
        if type(comp.multiplicity) is not int or comp.multiplicity < 1:
            bad(f"multiplicity must be a positive integer, got {comp.multiplicity!r}", cpath)
        if comp.variations:
            pairs = []
            for variation in comp.variations:
                if isinstance(variation, tuple) and len(variation) == 2:
                    pairs.append(variation)
                else:
                    bad(f"variation must be a (label, count) pair, got {variation!r}", cpath)
            for label, _ in pairs:
                name(label, "variation label", cpath)
            labels = [label for label, _ in pairs if isinstance(label, str)]
            if len(set(labels)) != len(labels):
                bad("variation labels must be distinct", cpath)
            counts = [count for _, count in pairs if type(count) is int]
            for _, count in pairs:
                if type(count) is not int:
                    bad(f"variation count must be an integer, got {count!r}", cpath)
            if any(count < 1 for count in counts):
                bad("every variation count must be >= 1", cpath)
            total = sum(counts)
            if len(counts) == len(comp.variations) and total != comp.multiplicity:
                bad(
                    f"variation counts sum to {total}, expected multiplicity"
                    f" {comp.multiplicity}",
                    cpath,
                )
        if isinstance(comp.body, Atomic):
            if keyed:
                atomics.add(comp.type_id)
            if not isinstance(comp.body.role, Role):
                bad(f"role must be a Role, got {comp.body.role!r}", cpath)
            if type(comp.body.tier) is not int or comp.body.tier < 0:
                bad(f"tier must be a non-negative integer, got {comp.body.tier!r}", cpath)
        elif isinstance(comp.body, SystemSpec):
            if keyed:
                subsystems[comp.type_id] = comp.body
            if keyed and isinstance(comp.body.id, str) and comp.body.id != comp.type_id:
                bad(
                    f"nested system id {comp.body.id!r} must equal its component type"
                    f" {comp.type_id!r}",
                    cpath,
                )
        else:
            bad(f"body must be Atomic or SystemSpec, got {comp.body!r}", cpath)

    # Environment nodes.
    env_by_id: dict[str, EnvNode] = {}
    for node in spec.env_nodes:
        epath = f"{path}/env/{node.id}"
        if not isinstance(node, EnvNode):
            kinds = "a SourceNode, SinkNode or EntityNode"
            bad(f"environment node must be {kinds}, got {node!r}", epath)
            continue
        keyed = claim(node.id, "environment node", epath, env_by_id, node)
        if isinstance(node, SourceNode):
            name(node.substance, "substance", epath)
        if keyed and node.id in seen_types:
            bad(
                f"identifier {node.id!r} is declared as both a component and an"
                " environment node",
                epath,
            )
        if isinstance(node, SourceNode) and not _is_quantity(node.rate):
            bad(f"source rate must be a finite non-negative quantity, got {node.rate!r}", epath)
        if isinstance(node, SinkNode) and not isinstance(node.scope, Scope):
            bad(f"scope must be a Scope, got {node.scope!r}", epath)
        if not keyed:
            continue
        if not b.permits_env(node.id):
            bad(f"environment node {node.id!r} is not permitted by the boundary", epath)
        prior = env_seen.get(node.id)
        if prior is None:
            env_seen[node.id] = (epath, node)
        elif prior[1] != node:
            bad(
                f"environment node {node.id!r} conflicts with the definition at"
                f" {prior[0]}",
                epath,
            )

    # Boundary.
    names = {*(b.allowed_substances or ()), *b.conserved_substances, *(b.permitted_env_ids or ())}
    for value in sorted(names, key=repr):
        name(value, "boundary name", f"{path}/boundary")
    if b.allowed_substances is not None:
        stray = {s for s in b.conserved_substances - b.allowed_substances if isinstance(s, str)}
        if stray:
            bad(
                "conserved substances not allowed by the boundary: "
                + ", ".join(sorted(stray)),
                f"{path}/boundary",
            )

    # One port index per subsystem type: port id -> {side: used}, where an
    # enclosing edge may take the port as its "tail" when a binding edge
    # inside feeds the port, and as its "head" when the port feeds one.
    port_index: dict[str, dict[str, dict[str, bool]]] = {}
    for type_id, sub in subsystems.items():
        sides = {
            n.id: {} for n in sub.env_nodes if isinstance(n, EntityNode) and isinstance(n.id, str)
        }
        for edge in sub.edges:
            if not (
                isinstance(edge, Edge) and isinstance(edge.tail, str) and isinstance(edge.head, str)
            ):
                continue  # reported where the subsystem is validated
            head_base, _ = split_endpoint(edge.head)
            tail_base, _ = split_endpoint(edge.tail)
            if head_base in sides:
                sides[head_base]["tail"] = False
            if tail_base in sides:
                sides[tail_base]["head"] = False
        port_index[type_id] = sides

    def check_internal_ref(ref: str, side: str, epath: str) -> None:
        base, port = split_endpoint(ref)
        if base in atomics:
            if port is not None:
                bad(f"atomic component {base!r} has no port {port!r}", epath)
        elif base in subsystems:
            if port is None:
                bad(f"endpoint {base!r} is a subsystem and needs a port", epath)
            elif port not in port_index[base]:
                bad(f"subsystem {base!r} exports no port {port!r}", epath)
            elif side not in port_index[base][port]:
                inward = "feeds" if side == "tail" else "is fed from"
                bad(f"nothing inside {base!r} {inward} port {port!r}", epath)
            else:
                port_index[base][port][side] = True
        else:
            bad(f"unresolved endpoint {ref!r}", epath)

    # Edges. One between components wires the network; one with exactly one
    # environment endpoint is an interface edge: sources feed in, sinks
    # drain out.
    edge_ids: dict[str, Edge] = {}
    edges: list[Edge] = []
    for edge in spec.edges:
        epath = f"{path}/edges/{edge.id}"
        if not isinstance(edge, Edge):
            bad(f"edge must be an Edge, got {edge!r}", epath)
            continue
        edges.append(edge)
        claim(edge.id, "edge id", epath, edge_ids, edge)
        if not (isinstance(edge.tail, str) and isinstance(edge.head, str)):
            for ref in (edge.tail, edge.head):
                if not isinstance(ref, str):
                    bad(f"unresolved endpoint {ref!r}", epath)
            continue
        tail_base, _ = split_endpoint(edge.tail)
        head_base, _ = split_endpoint(edge.head)
        tail_env = tail_base in env_by_id
        head_env = head_base in env_by_id
        if not (tail_env or head_env):
            check_internal_ref(edge.tail, "tail", epath)
            check_internal_ref(edge.head, "head", epath)
            continue
        if tail_env and head_env:
            bad("interface edge has two environment endpoints", epath)
            continue
        env_ref, env_id, internal_ref, internal_side = (
            (edge.tail, tail_base, edge.head, "head")
            if tail_env
            else (edge.head, head_base, edge.tail, "tail")
        )
        if split_endpoint(env_ref)[1] is not None:
            bad(f"environment node {env_id!r} has no ports", epath)
        node = env_by_id[env_id]
        if isinstance(node, SourceNode) and not tail_env:
            bad(f"source {env_id!r} may only appear as an edge tail", epath)
        if isinstance(node, SinkNode) and not head_env:
            bad(f"sink {env_id!r} may only appear as an edge head", epath)
        # A port fed from inside (``plot -> out``) is a tail one level up.
        is_port = ports is not None and isinstance(node, EntityNode)
        if is_port and not ports[env_id][internal_side]:
            bad(
                f"port {env_id!r} is bound here but no edge of the enclosing"
                f" level uses it as a {internal_side}",
                epath,
            )
        check_internal_ref(internal_ref, internal_side, epath)

    # Flow attributes, in edge-id order.
    for edge in edges:
        kpath = f"{path}/knowledge/{edge.id}"
        entry = edge.knowledge
        if not isinstance(entry, EdgeKnowledge):
            bad(f"flow attributes must be EdgeKnowledge, got {entry!r}", kpath)
            continue
        name(entry.substance, "substance", kpath)
        if not _is_quantity(entry.capacity):
            bad(f"capacity must be a finite non-negative quantity, got {entry.capacity!r}", kpath)
        if not _is_quantity(entry.strength):
            bad(f"strength must be a finite non-negative number, got {entry.strength!r}", kpath)
        if isinstance(entry.substance, str) and not b.allows(entry.substance):
            bad(
                f"substance {entry.substance!r} is not allowed by the boundary",
                kpath,
            )

    # Recurse.
    for type_id, sub in sorted(subsystems.items()):
        _validate_level(
            sub,
            f"{path}/{type_id}",
            depth + 1,
            max_depth,
            spec.level,
            port_index[type_id],
            env_seen,
            out,
        )


def depth(spec: SystemSpec, max_depth: int = DEFAULT_MAX_DEPTH) -> int:
    """Number of nesting levels below this description.

    0 when every component is atomic. Raises :class:`DepthExceeded` when
    the nesting goes past ``max_depth``, which signals unbounded recursion
    in the input.
    """

    deepest, level = 0, [spec]
    while True:
        level = [c.body for s in level for c in s.components if not c.is_atomic]
        if not level:
            return deepest
        deepest += 1
        if deepest > max_depth:
            raise DepthExceeded(f"nesting in {spec.id!r} exceeds max_depth={max_depth}")


def subsystem_at(spec: SystemSpec, path: Iterable[str]) -> SystemSpec:
    """Resolve a path of component type ids to the nested description.

    The empty path is the description itself. Raises
    :class:`PathNotFound` for an undeclared type and
    :class:`PathHitsAtomic` when the path descends into an atomic
    component.
    """
    current = spec
    walked: list[str] = []
    for type_id in path:
        walked.append(type_id)
        decl = current.component(type_id)
        if decl is None:
            raise PathNotFound("/".join(walked))
        if decl.is_atomic:
            raise PathHitsAtomic("/".join(walked))
        current = decl.body
    return current
