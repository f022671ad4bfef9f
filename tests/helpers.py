"""Fixtures and seeded random model generators shared across the suite."""

from __future__ import annotations

import random
from hashlib import sha256
from itertools import count
from pathlib import Path

from vcsys import (
    Atomic,
    BoundarySpec,
    ComponentDecl,
    Edge,
    EdgeKnowledge,
    EntityNode,
    HistoryPolicy,
    Role,
    Scope,
    SinkNode,
    SourceNode,
    SystemSpec,
    parse,
    print_spec,
)
from vcsys.model import split_endpoint

ROLES = list(Role)
SCOPES = list(Scope)
SUBSTANCES = ["grain", "milk", "cloth"]


def demo_chain_spec(
    caps: tuple[float, float, float] = (4, 3, 5),
    rate: float = 4,
    history: HistoryPolicy = HistoryPolicy.RECORD,
    strength: float = 1.0,
) -> SystemSpec:
    """The reference chain: source S -> producer P -> trader T -> market M."""
    return SystemSpec(
        "demo",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1)),
        ],
        env_nodes=[SourceNode("S", rate, "grain"), SinkNode("M", Scope.NATIONAL)],
        edges=[
            Edge("e_sp", "S", "P", EdgeKnowledge(caps[0], "grain", strength)),
            Edge("e_pt", "P", "T", EdgeKnowledge(caps[1], "grain", strength)),
            Edge("e_tm", "T", "M", EdgeKnowledge(caps[2], "grain", strength)),
        ],
        boundary=BoundarySpec(frozenset({"grain"}), frozenset({"grain"})),
        history_policy=history,
    )


def diamond_spec() -> SystemSpec:
    """Two equally short routes from one source to one market."""
    return SystemSpec(
        "diamond",
        components=[
            ComponentDecl("A", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("B", Atomic(Role.PRODUCER, 0)),
        ],
        env_nodes=[SourceNode("S", 2, "grain"), SinkNode("M", Scope.LOCAL)],
        edges=[
            Edge("e1", "S", "A", EdgeKnowledge(1, "grain")),
            Edge("e2", "S", "B", EdgeKnowledge(1, "grain")),
            Edge("e3", "A", "M", EdgeKnowledge(1, "grain")),
            Edge("e4", "B", "M", EdgeKnowledge(1, "grain")),
        ],
    )


def two_sink_spec() -> SystemSpec:
    """One trader feeding a national and a global end market."""
    return SystemSpec(
        "twosink",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1)),
        ],
        env_nodes=[
            SourceNode("S", 4, "grain"),
            SinkNode("M1", Scope.NATIONAL),
            SinkNode("M2", Scope.GLOBAL),
        ],
        edges=[
            Edge("e_sp", "S", "P", EdgeKnowledge(4, "grain")),
            Edge("e_pt", "P", "T", EdgeKnowledge(3, "grain")),
            Edge("e_t1", "T", "M1", EdgeKnowledge(2, "grain")),
            Edge("e_t2", "T", "M2", EdgeKnowledge(2, "grain")),
        ],
    )


def fan_spec(producers: int, exporters: int) -> SystemSpec:
    """Sources -> producers -> one trader T -> parallel exporters -> market M.

    T lies on every route, so it is a cut vertex between supply and market.
    """
    components = [ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1))]
    env: list = [SinkNode("M", Scope.GLOBAL)]
    edges: list[Edge] = []
    for i in range(producers):
        components.append(ComponentDecl(f"P{i}", Atomic(Role.PRODUCER, 0)))
        env.append(SourceNode(f"S{i}", 1, "grain"))
        edges.append(Edge(f"e_s{i}", f"S{i}", f"P{i}", EdgeKnowledge(1, "grain")))
        edges.append(Edge(f"e_p{i}", f"P{i}", "T", EdgeKnowledge(1, "grain")))
    for j in range(exporters):
        components.append(ComponentDecl(f"X{j}", Atomic(Role.PROCESSOR_TRADER, 2)))
        edges.append(Edge(f"e_t{j}", "T", f"X{j}", EdgeKnowledge(1, "grain")))
        edges.append(Edge(f"e_x{j}", f"X{j}", "M", EdgeKnowledge(1, "grain")))
    return SystemSpec(
        f"fan{producers}x{exporters}", components=components, edges=edges, env_nodes=env
    )


def shared_traders_spec(sources: int) -> SystemSpec:
    """Many sources whose producers each sell to three of seven shared
    traders, which sell on to two of three markets: every trader's score
    sums many non-dyadic shares, one from each source."""
    traders, markets = 7, 3
    components = [
        ComponentDecl(f"T{j}", Atomic(Role.PROCESSOR_TRADER, 1)) for j in range(traders)
    ]
    env: list = [SinkNode(f"M{k}", Scope.NATIONAL) for k in range(markets)]
    edges: list[Edge] = []
    for i in range(sources):
        components.append(ComponentDecl(f"P{i}", Atomic(Role.PRODUCER, 0)))
        env.append(SourceNode(f"S{i}", 1, "grain"))
        edges.append(Edge(f"e_s{i}", f"S{i}", f"P{i}", EdgeKnowledge(1, "grain")))
        for step in (0, 1, 3):
            j = (i + step * (i % 3 + 1)) % traders
            edges.append(Edge(f"e_p{i}_{step}", f"P{i}", f"T{j}", EdgeKnowledge(1, "grain")))
    for j in range(traders):
        for k in sorted({j % markets, (j + 1) % markets}):
            edges.append(Edge(f"e_t{j}_{k}", f"T{j}", f"M{k}", EdgeKnowledge(1, "grain")))
    return SystemSpec(f"shared{sources}", components=components, edges=edges, env_nodes=env)


def nested_two_level_spec() -> SystemSpec:
    """A farm subsystem exporting through a port to a trader at the root."""
    farm = SystemSpec(
        "farm",
        level=1,
        components=[ComponentDecl("plot", Atomic(Role.PRODUCER, 0), multiplicity=2)],
        env_nodes=[EntityNode("out")],
        edges=[Edge("b_out", "plot", "out", EdgeKnowledge(2, "grain"))],
    )
    return SystemSpec(
        "estate",
        components=[
            ComponentDecl("farm", farm),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1)),
        ],
        env_nodes=[SinkNode("M", Scope.REGIONAL)],
        edges=[
            Edge("e_ft", "farm.out", "T", EdgeKnowledge(3, "grain")),
            Edge("e_tm", "T", "M", EdgeKnowledge(5, "grain")),
        ],
    )


def nested_mult_spec() -> SystemSpec:
    """Component A (x2) whose body holds two atomics: four leaves under A."""
    inner = SystemSpec(
        "A",
        level=1,
        components=[
            ComponentDecl("x", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("y", Atomic(Role.SUPPORT_SERVICE, 0)),
        ],
        env_nodes=[EntityNode("out")],
        edges=[Edge("b1", "x", "out", EdgeKnowledge(1, "grain"))],
    )
    return SystemSpec(
        "plant",
        components=[
            ComponentDecl("A", inner, multiplicity=2),
            ComponentDecl("B", Atomic(Role.BUYER, 1)),
        ],
        edges=[Edge("e1", "A.out", "B", EdgeKnowledge(1, "grain"))],
    )


def three_level_spec() -> SystemSpec:
    """Three nesting levels: depth(root) == 2 by hand count."""
    grange = SystemSpec(
        "grange",
        level=2,
        components=[ComponentDecl("h", Atomic(Role.PRODUCER, 0))],
        env_nodes=[EntityNode("out")],
        edges=[Edge("b_g", "h", "out", EdgeKnowledge(1, "grain"))],
    )
    farm = SystemSpec(
        "farm",
        level=1,
        components=[
            ComponentDecl("barn", Atomic(Role.SUPPORT_SERVICE, 0)),
            ComponentDecl("grange", grange),
        ],
        env_nodes=[EntityNode("out")],
        edges=[Edge("b_f", "grange.out", "out", EdgeKnowledge(1, "grain"))],
    )
    return SystemSpec(
        "country",
        components=[
            ComponentDecl("farm", farm),
            ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1)),
        ],
        env_nodes=[SinkNode("M", Scope.GLOBAL)],
        edges=[
            Edge("e_ft", "farm.out", "T", EdgeKnowledge(2, "grain")),
            Edge("e_tm", "T", "M", EdgeKnowledge(2, "grain")),
        ],
    )


DEMO_SDL = """\
# the reference chain
system "demo" {
  component P atomic role=producer tier=0
  component T atomic role=processor_trader tier=1
  source S rate=4 substance=grain
  sink M scope=national
  edge e_sp S -> P { substance=grain capacity=4 }
  edge e_pt P -> T { substance=grain capacity=3 }
  edge e_tm T -> M { substance=grain capacity=5 }
  boundary { allow=[grain] conserve=[grain] }
}
"""


# Port-wiring mistakes that only the splice rules catch: name -> (text,
# line and column of the offending edge's id, first diagnostic).
WIRING_PROBES = {
    "unbound_port": (
        """\
system "estate" {
  component farm {
    component plot atomic role=producer tier=0
    entity out
    edge b1 plot -> out { substance=grain capacity=1 }
  }
  component T atomic role=buyer tier=1
}
""",
        (5, 10),
    ),
    "wrong_direction": (
        """\
system "estate" {
  component farm {
    component plot atomic role=producer tier=0
    entity out
    edge b1 plot -> out { substance=grain capacity=1 }
  }
  component T atomic role=buyer tier=1
  edge e1 T -> farm.out { substance=grain capacity=1 }
}
""",
        (8, 8),
    ),
    "source_as_port": (
        """\
system "estate" {
  component farm {
    component plot atomic role=producer tier=0
    source S rate=1 substance=grain
    edge b1 S -> plot { substance=grain capacity=1 }
  }
  component T atomic role=buyer tier=1
  edge e1 farm.S -> T { substance=grain capacity=1 }
}
""",
        (8, 8),
    ),
}


def _split_total(rng: random.Random, total: int) -> list[int]:
    parts = rng.randint(1, min(3, total))
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_spec(
    rng: random.Random, max_depth: int = 3, max_components: int = 6
) -> SystemSpec:
    """A random valid description: nested, multiplicities, ports all wired."""
    counter = count(1)
    name = rng.choice(["web", "chain model", "mesh", "net_7"])
    return _random_system(
        rng, name, rng.choice([0, 0, 0, 1, 2]), max_depth, max_components, counter, True
    )


def _random_system(
    rng: random.Random,
    sys_id: str,
    level: int,
    depth_budget: int,
    max_components: int,
    counter,
    is_root: bool,
) -> SystemSpec:
    n_comps = rng.randint(1, max_components)
    components: list[ComponentDecl] = []
    atom_ids: list[str] = []
    sub_specs: dict[str, SystemSpec] = {}
    for i in range(n_comps):
        type_id = f"c{next(counter)}"
        mult = rng.randint(1, 4)
        variations: tuple[tuple[str, int], ...] = ()
        if mult > 1 and rng.random() < 0.25:
            variations = tuple(
                (f"v{j}", part)
                for j, part in enumerate(_split_total(rng, mult), start=1)
            )
        if i > 0 and depth_budget > 0 and rng.random() < 0.35:
            sub = _random_system(
                rng,
                type_id,
                level + 1,
                depth_budget - 1,
                max(2, max_components - 1),
                counter,
                False,
            )
            components.append(ComponentDecl(type_id, sub, mult, variations))
            sub_specs[type_id] = sub
        else:
            body = Atomic(rng.choice(ROLES), rng.randint(0, 3))
            components.append(ComponentDecl(type_id, body, mult, variations))
            atom_ids.append(type_id)

    substances = rng.sample(SUBSTANCES, rng.randint(1, 2))

    def knowledge() -> EdgeKnowledge:
        if rng.random() < 0.7:
            capacity: float = float(rng.randint(0, 9))
        else:
            capacity = round(rng.uniform(0, 9), 3)
        strength = 1.0 if rng.random() < 0.7 else round(rng.uniform(0.1, 3.0), 2)
        return EdgeKnowledge(capacity, rng.choice(substances), strength)

    edges: list[Edge] = []
    env: list = []

    # Non-root systems export ports; the enclosing level must wire them.
    if not is_root:
        out_port = f"po{next(counter)}"
        env.append(EntityNode(out_port))
        edges.append(
            Edge(f"b{next(counter)}", rng.choice(atom_ids), out_port, knowledge())
        )
        if rng.random() < 0.5:
            in_port = f"pi{next(counter)}"
            env.append(EntityNode(in_port))
            edges.append(
                Edge(f"b{next(counter)}", in_port, rng.choice(atom_ids), knowledge())
            )

    # Ports exported by the children, by direction.
    out_refs: list[str] = []
    in_refs: list[str] = []
    for type_id, sub in sub_specs.items():
        for edge in sub.edges:
            tail_base, _ = split_endpoint(edge.tail)
            head_base, _ = split_endpoint(edge.head)
            for node in sub.env_nodes:
                if not isinstance(node, EntityNode):
                    continue
                if head_base == node.id:
                    out_refs.append(f"{type_id}.{node.id}")
                if tail_base == node.id:
                    in_refs.append(f"{type_id}.{node.id}")

    tails = atom_ids + out_refs
    heads = atom_ids + in_refs

    # Every child port gets at least one connection, so flattening never
    # finds an orphan binding.
    for ref in out_refs:
        edges.append(Edge(f"g{next(counter)}", ref, rng.choice(atom_ids), knowledge()))
    for ref in in_refs:
        edges.append(Edge(f"g{next(counter)}", rng.choice(atom_ids), ref, knowledge()))

    for _ in range(rng.randint(0, n_comps)):
        edges.append(
            Edge(f"g{next(counter)}", rng.choice(tails), rng.choice(heads), knowledge())
        )

    env_chance = 0.7 if is_root else 0.2
    if rng.random() < env_chance:
        source = SourceNode(f"src{next(counter)}", float(rng.randint(1, 6)), substances[0])
        env.append(source)
        edges.append(Edge(f"g{next(counter)}", source.id, rng.choice(heads), knowledge()))
    if rng.random() < env_chance:
        sink = SinkNode(f"mkt{next(counter)}", rng.choice(SCOPES))
        env.append(sink)
        edges.append(Edge(f"g{next(counter)}", rng.choice(tails), sink.id, knowledge()))
    if is_root and rng.random() < 0.25:
        entity = EntityNode(f"bee{next(counter)}")
        env.append(entity)
        edges.append(Edge(f"g{next(counter)}", rng.choice(atom_ids), entity.id, knowledge()))

    allowed = None if rng.random() < 0.6 else frozenset(SUBSTANCES)
    conserved = frozenset(substances) if rng.random() < 0.4 else frozenset()
    permitted = None
    if rng.random() < 0.2:
        permitted = frozenset(node.id for node in env) | {f"spare{next(counter)}"}
    rng.random()  # a retired draw, kept so that later draws stay the same
    boundary = BoundarySpec(allowed, conserved, permitted)
    history = HistoryPolicy.RECORD
    if is_root and rng.random() < 0.3:
        history = HistoryPolicy.NULL
    return SystemSpec(
        sys_id,
        level=level,
        components=components,
        edges=edges,
        env_nodes=env,
        boundary=boundary,
        history_policy=history,
    )


def random_flow_model(
    rng: random.Random, integer_caps: bool = True, max_internal: int = 8
) -> SystemSpec:
    """A single-level model for simulator tests: <= 12 nodes, cycles allowed."""
    counter = count(1)
    n_nodes = rng.randint(1, max_internal)
    node_ids = [f"n{i}" for i in range(n_nodes)]
    components = [
        ComponentDecl(node_id, Atomic(rng.choice(ROLES), rng.randint(0, 3)))
        for node_id in node_ids
    ]
    substances = rng.sample(SUBSTANCES, rng.randint(1, 2))

    def quantity() -> float:
        if integer_caps:
            return float(rng.randint(0, 10))
        return round(rng.uniform(0, 10), 3)

    edges: list[Edge] = []
    for _ in range(rng.randint(0, 2 * n_nodes)):
        tail, head = rng.choice(node_ids), rng.choice(node_ids)
        edges.append(
            Edge(
                f"e{next(counter)}", tail, head, EdgeKnowledge(quantity(), rng.choice(substances))
            )
        )
    env: list = []
    for _ in range(rng.randint(1, 2)):
        source = SourceNode(f"s{next(counter)}", quantity(), rng.choice(substances))
        env.append(source)
        edges.append(
            Edge(
                f"e{next(counter)}",
                source.id,
                rng.choice(node_ids),
                EdgeKnowledge(quantity(), source.substance),
            )
        )
    for _ in range(rng.randint(1, 2)):
        sink = SinkNode(f"m{next(counter)}", rng.choice(SCOPES))
        env.append(sink)
        edges.append(
            Edge(
                f"e{next(counter)}",
                rng.choice(node_ids),
                sink.id,
                EdgeKnowledge(quantity(), rng.choice(substances)),
            )
        )
    return SystemSpec(
        f"flow{rng.randint(0, 999)}",
        components=components,
        edges=edges,
        env_nodes=env,
        boundary=BoundarySpec(None, frozenset(substances)),
    )


FIXTURES = Path(__file__).parent / "fixtures"


def wide_sdl(producers: int) -> str:
    """One wide level in text: producers fed by sources, selling to
    traders, traders to exporters, exporters to end markets."""
    traders, exporters = producers // 10, max(2, producers // 50)
    lines = ['system "wide" {']
    lines += [f"  component p{i} atomic role=producer tier=0" for i in range(producers)]
    lines += [f"  component t{i} atomic role=processor_trader tier=1" for i in range(traders)]
    lines += [f"  component x{i} atomic role=exporter tier=2" for i in range(exporters)]
    lines += [f"  source s{i} rate={1 + i % 6} substance=grain" for i in range(traders)]
    lines += [f"  sink m{i} scope={SCOPES[i % 4].value}" for i in range(traders)]
    links = [(f"s{i // 10}", f"p{i}") for i in range(producers)]
    links += [(f"p{i}", f"t{i // 10}") for i in range(producers)]
    links += [(f"t{i}", f"x{i % exporters}") for i in range(traders)]
    links += [(f"x{i % exporters}", f"m{i}") for i in range(traders)]
    for k, (tail, head) in enumerate(links):
        lines.append(f"  edge w{k} {tail} -> {head} {{ substance=grain capacity={1 + k % 4} }}")
    lines += ["  boundary { allow=[grain] conserve=[grain] }", "  history null", "}"]
    return "\n".join(lines) + "\n"


def nested_sdl(districts: int, coops: int, farms: int) -> str:
    """Three nesting levels with variations, and ports spliced in both
    directions at two of them."""
    return f"""\
system "region" {{
  component district * {districts} variations=[organic:1, plain:{districts - 1}] {{
    component coop * {coops} variations=[organic:1, plain:{coops - 1}] {{
      component farm * {farms} variations=[organic:1, plain:{farms - 1}] atomic role=producer tier=0
      component hub atomic role=processor_trader tier=1
      sink L scope=local
      entity feed
      entity out
      edge c_in feed -> farm {{ substance=grain capacity=2 }}
      edge c_fh farm -> hub {{ substance=grain capacity=3 }}
      edge c_fl farm -> L {{ substance=grain capacity=1 }}
      edge c_out hub -> out {{ substance=grain capacity=4 }}
    }}
    component mill atomic role=processor_trader tier=2
    entity supply
    entity ship
    edge d_in supply -> coop.feed {{ substance=grain capacity=3 }}
    edge d_cm coop.out -> mill {{ substance=grain capacity=2 }}
    edge d_out mill -> ship {{ substance=grain capacity=4 }}
  }}
  component X * 2 atomic role=exporter tier=3
  source S rate=4 substance=grain
  sink M scope=global
  edge r_in S -> district.supply {{ substance=grain capacity=2 }}
  edge r_dx district.ship -> X {{ substance=grain capacity=3 }}
  edge r_xm X -> M {{ substance=grain capacity=1 }}
  boundary {{ allow=[grain] conserve=[grain] }}
}}
"""


def deep_sdl(levels: int) -> str:
    """A chain of ``levels`` nested components around one atomic actor."""
    opening = [f"{'  ' * (k + 1)}component c{k} {{" for k in range(levels)]
    closing = [f"{'  ' * (k + 1)}}}" for k in reversed(range(levels))]
    leaf = f"{'  ' * (levels + 1)}component leaf atomic role=producer tier=0"
    return "\n".join(['system "deep" {', *opening, leaf, *closing, "}"]) + "\n"


# Texts spliced into a description by sdl_mutant: punctuation, keywords,
# literals, comment and string starts, and characters no token begins with.
# The golden corpus depends on this exact tuple, so "frozen=false", no
# longer a boundary attribute, stays.
_MUTANT_PIECES = (
    "{", "}", "[", "]", "=", "*", ",", ".", ":", "->", "-", '"', "#", "\n", " ", "\t",
    "@", "é", "0", "7", "1.5", "2e1", "3.0", "x", "_y", "component", "atomic", "edge",
    "source", "sink", "entity", "boundary", "history", "null", "level", "role=", "tier=",
    "scope=", "rate=", "substance=", "capacity=", "strength=", "variations=[a:1]",
    "allow=[grain]", "frozen=false", '"q"', "{ }", "# note\n",
)


def sdl_mutant_bases() -> list[str]:
    """The descriptions sdl_mutant starts from: the three .vcs fixtures, a
    small wide model and a small nested one."""
    fixtures = [(FIXTURES / f"{name}.vcs").read_text() for name in ("demo", "nested", "broken")]
    return fixtures + [wide_sdl(30), nested_sdl(2, 2, 3)]


def sdl_mutant(bases: list[str], seed: int) -> str:
    """One or two seeded insertions, deletions or (one time in ten)
    truncations of the base ``seed % len(bases)``."""
    rng = random.Random(seed)
    text = bases[seed % len(bases)]
    for _ in range(rng.randint(1, 2)):
        op, pos = rng.random(), rng.randrange(len(text) + 1)
        if op < 0.5:
            text = text[:pos] + rng.choice(_MUTANT_PIECES) + text[pos:]
        elif op < 0.9:
            text = text[:pos] + text[pos + rng.randint(1, 12):]
        else:
            text = text[:pos]
    return text


PARSE_CORPUS_SIZE = 2000


def parse_corpus_entry(bases: list[str], seed: int) -> dict:
    """What parse makes of mutant ``seed``: the sha256 of the canonical
    print of its root, or its diagnostics as [line, column, message]."""
    doc = parse(sdl_mutant(bases, seed))
    if doc.ok:
        return {"seed": seed, "sha256": sha256(print_spec(doc.root).encode()).hexdigest()}
    return {"seed": seed, "diagnostics": [[d.line, d.column, d.message] for d in doc.diagnostics]}
