"""Core model: validation, depth, navigation, flattening."""

import dataclasses
import random

import pytest

from vcsys import (
    Atomic,
    BoundarySpec,
    ComponentDecl,
    DepthExceeded,
    Edge,
    EdgeKnowledge,
    EntityNode,
    HistoryPolicy,
    InvalidSpec,
    PathHitsAtomic,
    PathNotFound,
    Role,
    SourceNode,
    depth,
    flatten,
    make_system,
    subsystem_at,
    validate,
)

from .helpers import (
    demo_chain_spec,
    nested_mult_spec,
    nested_two_level_spec,
    random_spec,
    three_level_spec,
)
from .oracles import (
    expected_edge_count,
    expected_env_ids,
    expected_node_count,
    expected_type_counts,
)


# --- validate ---------------------------------------------------------------

def test_validate_null_history_spec_is_clean():
    spec = demo_chain_spec(history=HistoryPolicy.NULL)
    assert validate(spec).ok


def test_validate_reports_unresolved_endpoint():
    spec = make_system(
        "dangling",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        edges=[(Edge("e1", "P", "x"), EdgeKnowledge(1, "grain"))],
    )
    report = validate(spec)
    assert len(report) == 1
    assert "unresolved endpoint 'x'" in report.violations[0].message


def test_validate_reports_boundary_substance():
    spec = make_system(
        "bound",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("Q", Atomic(Role.BUYER, 1)),
        ],
        edges=[(Edge("e1", "P", "Q"), EdgeKnowledge(1, "steel"))],
        boundary=BoundarySpec(allowed_substances=frozenset({"grain"})),
    )
    report = validate(spec)
    assert len(report) == 1
    assert "'steel' is not allowed by the boundary" in report.violations[0].message


def test_validate_multiplicity_and_variations():
    bad = make_system(
        "vars",
        components=[
            ComponentDecl(
                "P", Atomic(Role.PRODUCER, 0), multiplicity=3, variations=(("a", 1), ("b", 1))
            )
        ],
    )
    report = validate(bad)
    assert any("variation counts sum to 2" in v.message for v in report)

    good = make_system(
        "vars",
        components=[
            ComponentDecl(
                "P", Atomic(Role.PRODUCER, 0), multiplicity=3, variations=(("a", 2), ("b", 1))
            )
        ],
    )
    assert validate(good).ok


@pytest.mark.parametrize(
    "body", [Atomic("producer", 0), None], ids=["role_not_a_role", "body_none"]
)
def test_validate_rejects_malformed_component_body(body):
    spec = make_system("odd", components=[ComponentDecl("P", body)])
    report = validate(spec)
    assert not report.ok
    assert report.violations[0].path == "odd/P"
    with pytest.raises(InvalidSpec):
        flatten(spec)


def test_validate_source_direction_and_env_collisions():
    spec = make_system(
        "envy",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        env=[SourceNode("S", 1, "grain")],
        edges=[(Edge("e1", "P", "S"), EdgeKnowledge(1, "grain"))],
    )
    report = validate(spec)
    assert any("may only appear as an edge tail" in v.message for v in report)


def test_validate_missing_knowledge():
    import dataclasses

    spec = make_system(
        "nok",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("Q", Atomic(Role.BUYER, 1)),
        ],
        edges=[(Edge("e1", "P", "Q"), EdgeKnowledge(1, "grain"))],
    )
    stripped = dataclasses.replace(spec, knowledge=())
    report = validate(stripped)
    assert any("has no flow attributes" in v.message for v in report)


def test_validate_conflicting_env_definition_across_levels():
    inner = make_system(
        "farm",
        level=1,
        components=[ComponentDecl("plot", Atomic(Role.PRODUCER, 0))],
        env=[SourceNode("S", 5, "grain"), EntityNode("out")],
        edges=[
            (Edge("b1", "plot", "out"), EdgeKnowledge(1, "grain")),
            (Edge("b2", "S", "plot"), EdgeKnowledge(1, "grain")),
        ],
    )
    outer = make_system(
        "estate",
        components=[
            ComponentDecl("farm", inner),
            ComponentDecl("T", Atomic(Role.BUYER, 1)),
        ],
        env=[SourceNode("S", 4, "grain")],  # same id, different rate
        edges=[
            (Edge("e1", "farm.out", "T"), EdgeKnowledge(1, "grain")),
            (Edge("e2", "S", "T"), EdgeKnowledge(1, "grain")),
        ],
    )
    report = validate(outer)
    assert any("conflicts with the definition" in v.message for v in report)


def test_validate_level_sequence():
    inner = make_system(
        "farm",
        level=5,  # should be 1
        components=[ComponentDecl("plot", Atomic(Role.PRODUCER, 0))],
        env=[EntityNode("out")],
        edges=[(Edge("b1", "plot", "out"), EdgeKnowledge(1, "grain"))],
    )
    outer = make_system(
        "estate",
        components=[
            ComponentDecl("farm", inner),
            ComponentDecl("T", Atomic(Role.BUYER, 1)),
        ],
        edges=[(Edge("e1", "farm.out", "T"), EdgeKnowledge(1, "grain"))],
    )
    report = validate(outer)
    assert any("must be parent level + 1" in v.message for v in report)


# --- depth & navigation -----------------------------------------------------

def test_depth_base_and_single_nesting():
    assert depth(demo_chain_spec()) == 0
    assert depth(nested_two_level_spec()) == 1


def test_depth_three_levels_hand_counted():
    assert depth(three_level_spec()) == 2


def test_depth_exceeded_raises():
    with pytest.raises(DepthExceeded):
        depth(three_level_spec(), max_depth=1)


def test_depth_monotone_on_random_specs():
    rng = random.Random(7)
    for _ in range(25):
        spec = random_spec(rng)
        children = [c.body for c in spec.components if not c.is_atomic]
        if children:
            assert depth(spec) == 1 + max(depth(child) for child in children)
        else:
            assert depth(spec) == 0


def test_subsystem_at():
    spec = nested_two_level_spec()
    assert subsystem_at(spec, []) is spec
    farm = subsystem_at(spec, ["farm"])
    assert farm.id == "farm" and farm.level == 1
    with pytest.raises(PathHitsAtomic):
        subsystem_at(spec, ["farm", "plot"])
    with pytest.raises(PathNotFound):
        subsystem_at(spec, ["ranch"])


# --- flatten ----------------------------------------------------------------

def test_flatten_multiplicity_expansion():
    spec = make_system(
        "three",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0), multiplicity=3)],
    )
    flat = flatten(spec)
    assert [n.id for n in flat.nodes] == ["P#1", "P#2", "P#3"]
    assert flat.edges == ()


def test_flatten_nested_multiplicities():
    flat = flatten(nested_mult_spec())
    counts = expected_type_counts(nested_mult_spec())
    assert counts["x"] == 2 and counts["y"] == 2  # four leaves under A
    got: dict[str, int] = {}
    for node in flat.nodes:
        prefix = node.id.rsplit("#", 1)[0]
        got[prefix] = got.get(prefix, 0) + 1
    assert got == {"x": 2, "y": 2, "B": 1}


def test_flatten_demo_chain_counts():
    flat = flatten(demo_chain_spec())
    assert len(flat.nodes) == 2
    assert len(flat.env_nodes) == 2
    assert len(flat.edges) == 3


def test_flatten_variation_labels():
    spec = make_system(
        "vary",
        components=[
            ComponentDecl(
                "P",
                Atomic(Role.PRODUCER, 0),
                multiplicity=3,
                variations=(("organic", 2), ("plain", 1)),
            )
        ],
    )
    flat = flatten(spec)
    assert [n.variation for n in flat.nodes] == ["organic", "organic", "plain"]


def test_flatten_deterministic():
    spec = nested_two_level_spec()
    assert flatten(spec) == flatten(spec)
    rng = random.Random(13)
    for _ in range(10):
        s = random_spec(rng)
        assert flatten(s) == flatten(s)


def test_flatten_keeps_origin_paths():
    flat = flatten(nested_two_level_spec())
    plots = [n for n in flat.nodes if n.id.startswith("plot")]
    assert all(n.path == ("farm#1",) for n in plots)


def test_flatten_carries_knowledge_per_edge():
    flat = flatten(nested_two_level_spec())
    assert all(e.knowledge is not None for e in flat.edges)
    spliced = [e for e in flat.edges if e.id.startswith("e_ft")]
    # the enclosing edge's attributes govern the spliced connection
    assert all(e.knowledge.capacity == 3 for e in spliced)


def test_flatten_unwired_port_raises():
    inner = make_system(
        "farm",
        level=1,
        components=[ComponentDecl("plot", Atomic(Role.PRODUCER, 0))],
        env=[EntityNode("out")],
        edges=[(Edge("b1", "plot", "out"), EdgeKnowledge(1, "grain"))],
    )
    outer = make_system(
        "estate",
        components=[
            ComponentDecl("farm", inner),
            ComponentDecl("T", Atomic(Role.BUYER, 1)),
        ],
    )
    assert not validate(outer).ok
    with pytest.raises(InvalidSpec):
        flatten(outer)


@pytest.mark.parametrize(
    "spec",
    [
        dataclasses.replace(demo_chain_spec(), knowledge=()),
        make_system(
            "none", components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0), multiplicity=0)]
        ),
        make_system("untiered", components=[ComponentDecl("P", Atomic(Role.PRODUCER, None))]),
    ],
    ids=["no_knowledge", "multiplicity_zero", "no_tier"],
)
def test_flatten_rejects_invalid_spec_with_typed_error(spec):
    with pytest.raises(InvalidSpec) as exc:
        flatten(spec)
    assert exc.value.report == validate(spec)
    assert not exc.value.report.ok


def _levels(spec, path=()):
    """Every system in the tree with the component path leading to it."""
    yield path, spec
    for comp in spec.components:
        if not comp.is_atomic:
            yield from _levels(comp.body, path + (comp.type_id,))


def _replace_at(spec, path, new):
    if not path:
        return new
    return dataclasses.replace(
        spec,
        components=[
            dataclasses.replace(comp, body=_replace_at(comp.body, path[1:], new))
            if comp.type_id == path[0]
            else comp
            for comp in spec.components
        ],
    )


def _mutate(rng, spec):
    """Drop one edge (with its flow attributes), drop one flow-attribute
    entry, or swap the tail and head of one edge with a port reference,
    at a random level of the tree. (None, None) when there is no edge."""
    options = []
    for path, s in _levels(spec):
        for edge in s.all_edges():
            options.append(("drop_edge", path, s, edge))
            if "." in edge.tail or "." in edge.head:
                options.append(("swap_port", path, s, edge))
        for edge_id, _ in s.knowledge:
            options.append(("drop_knowledge", path, s, edge_id))
    kinds = sorted({kind for kind, *_ in options})
    if not kinds:
        return None, None
    kind = rng.choice(kinds)
    _, path, s, target = rng.choice([o for o in options if o[0] == kind])
    if kind == "drop_knowledge":
        level = dataclasses.replace(
            s, knowledge=[kv for kv in s.knowledge if kv[0] != target]
        )
    else:
        def edit(edges):
            if kind == "drop_edge":
                return [e for e in edges if e.id != target.id]
            return [Edge(e.id, e.head, e.tail) if e.id == target.id else e for e in edges]

        knowledge = s.knowledge
        if kind == "drop_edge":
            knowledge = [kv for kv in knowledge if kv[0] != target.id]
        level = dataclasses.replace(
            s,
            network=dataclasses.replace(s.network, edges=edit(s.network.edges)),
            interface=dataclasses.replace(s.interface, edges=edit(s.interface.edges)),
            knowledge=knowledge,
        )
    return kind, _replace_at(spec, path, level)


def test_flatten_agrees_with_validate_on_mutants():
    rng = random.Random(31)
    outcomes = {}
    while sum(outcomes.values()) < 200:
        kind, mutant = _mutate(rng, random_spec(rng, max_depth=3))
        if mutant is None:
            continue  # nothing to mutate: no edges at any level
        report = validate(mutant)
        if report.ok:
            flat = flatten(mutant)
            assert len(flat.nodes) == expected_node_count(mutant)
            assert len(flat.edges) == expected_edge_count(mutant)
        else:
            with pytest.raises(InvalidSpec):
                flatten(mutant)
        outcomes[kind, report.ok] = outcomes.get((kind, report.ok), 0) + 1
    assert {kind for kind, _ in outcomes} == {"drop_edge", "drop_knowledge", "swap_port"}
    assert {ok for _, ok in outcomes} == {True, False}


def test_flatten_keeps_unconnected_env_nodes():
    spec = make_system(
        "lonely",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        env=[SourceNode("S", 1, "grain"), EntityNode("regulator")],
    )
    flat = flatten(spec)
    assert {n.id for n in flat.env_nodes} == {"S", "regulator"}


def test_flatten_matches_tree_walk_oracle_on_fixtures():
    for spec in (
        demo_chain_spec(),
        nested_two_level_spec(),
        nested_mult_spec(),
        three_level_spec(),
    ):
        flat = flatten(spec)
        assert len(flat.nodes) == expected_node_count(spec)
        assert len(flat.edges) == expected_edge_count(spec)
        assert {n.id for n in flat.env_nodes} == expected_env_ids(spec)


def test_flatten_matches_tree_walk_oracle_on_random_specs():
    rng = random.Random(21)
    for _ in range(30):
        spec = random_spec(rng, max_depth=4)
        assert validate(spec).ok, validate(spec).violations
        flat = flatten(spec)
        assert len(flat.nodes) == expected_node_count(spec)
        assert len(flat.edges) == expected_edge_count(spec)
        per_type = expected_type_counts(spec)
        got: dict[str, int] = {}
        for node in flat.nodes:
            got[node.id.rsplit("#", 1)[0]] = got.get(node.id.rsplit("#", 1)[0], 0) + 1
        leaves = {
            t: c
            for t, c in per_type.items()
            if t in got  # subsystem types never materialize as flat nodes
        }
        assert got == leaves
