"""Core model: validation, depth, navigation, flattening."""

import dataclasses
import math
import random
import sys

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
    Scope,
    SinkNode,
    SourceNode,
    SystemSpec,
    depth,
    export_json,
    flatten,
    model_hash,
    parse,
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
    spec = SystemSpec(
        "dangling",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        edges=[Edge("e1", "P", "x", EdgeKnowledge(1, "grain"))],
    )
    report = validate(spec)
    assert len(report.violations) == 1
    assert "unresolved endpoint 'x'" in report.violations[0].message


def test_validate_reports_boundary_substance():
    spec = SystemSpec(
        "bound",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("Q", Atomic(Role.BUYER, 1)),
        ],
        edges=[Edge("e1", "P", "Q", EdgeKnowledge(1, "steel"))],
        boundary=BoundarySpec(allowed_substances=frozenset({"grain"})),
    )
    report = validate(spec)
    assert len(report.violations) == 1
    assert "'steel' is not allowed by the boundary" in report.violations[0].message


def test_validate_multiplicity_and_variations():
    bad = SystemSpec(
        "vars",
        components=[
            ComponentDecl(
                "P", Atomic(Role.PRODUCER, 0), multiplicity=3, variations=(("a", 1), ("b", 1))
            )
        ],
    )
    report = validate(bad)
    assert any("variation counts sum to 2" in v.message for v in report.violations)

    good = SystemSpec(
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
    spec = SystemSpec("odd", components=[ComponentDecl("P", body)])
    report = validate(spec)
    assert not report.ok
    assert report.violations[0].path == "odd/P"
    with pytest.raises(InvalidSpec):
        flatten(spec)


def test_validate_source_direction_and_env_collisions():
    spec = SystemSpec(
        "envy",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        env_nodes=[SourceNode("S", 1, "grain")],
        edges=[Edge("e1", "P", "S", EdgeKnowledge(1, "grain"))],
    )
    report = validate(spec)
    assert any("may only appear as an edge tail" in v.message for v in report.violations)


def test_validate_missing_knowledge():
    spec = SystemSpec(
        "nok",
        components=[
            ComponentDecl("P", Atomic(Role.PRODUCER, 0)),
            ComponentDecl("Q", Atomic(Role.BUYER, 1)),
        ],
        edges=[Edge("e1", "P", "Q", None)],
    )
    report = validate(spec)
    assert [(v.path, v.message) for v in report.violations] == [
        ("nok/knowledge/e1", "flow attributes must be EdgeKnowledge, got None")
    ]


def test_validate_conflicting_env_definition_across_levels():
    inner = SystemSpec(
        "farm",
        level=1,
        components=[ComponentDecl("plot", Atomic(Role.PRODUCER, 0))],
        env_nodes=[SourceNode("S", 5, "grain"), EntityNode("out")],
        edges=[
            Edge("b1", "plot", "out", EdgeKnowledge(1, "grain")),
            Edge("b2", "S", "plot", EdgeKnowledge(1, "grain")),
        ],
    )
    outer = SystemSpec(
        "estate",
        components=[
            ComponentDecl("farm", inner),
            ComponentDecl("T", Atomic(Role.BUYER, 1)),
        ],
        env_nodes=[SourceNode("S", 4, "grain")],  # same id, different rate
        edges=[
            Edge("e1", "farm.out", "T", EdgeKnowledge(1, "grain")),
            Edge("e2", "S", "T", EdgeKnowledge(1, "grain")),
        ],
    )
    report = validate(outer)
    assert any("conflicts with the definition" in v.message for v in report.violations)


def test_validate_level_sequence():
    inner = SystemSpec(
        "farm",
        level=5,  # should be 1
        components=[ComponentDecl("plot", Atomic(Role.PRODUCER, 0))],
        env_nodes=[EntityNode("out")],
        edges=[Edge("b1", "plot", "out", EdgeKnowledge(1, "grain"))],
    )
    outer = SystemSpec(
        "estate",
        components=[
            ComponentDecl("farm", inner),
            ComponentDecl("T", Atomic(Role.BUYER, 1)),
        ],
        edges=[Edge("e1", "farm.out", "T", EdgeKnowledge(1, "grain"))],
    )
    report = validate(outer)
    assert any("must be parent level + 1" in v.message for v in report.violations)


def _demo_with(**changes):
    """The demo chain (S -> P -> T -> M) with some fields replaced."""
    return dataclasses.replace(demo_chain_spec(), **changes)


def _sp_with(knowledge):
    """The demo chain's edges, with the flow attributes of ``e_sp``
    replaced."""
    return (_E_PT, dataclasses.replace(_E_SP, knowledge=knowledge), _E_TM)


_P = ComponentDecl("P", Atomic(Role.PRODUCER, 0))
_T = ComponentDecl("T", Atomic(Role.PROCESSOR_TRADER, 1))
_S = SourceNode("S", 4, "grain")
_M = SinkNode("M", Scope.NATIONAL)
_E_PT, _E_SP, _E_TM = demo_chain_spec().edges
_GRAIN = EdgeKnowledge(1, "grain")


def _replace_in_farm(**changes):
    """The two-level estate with some fields of its farm subsystem replaced."""
    estate = nested_two_level_spec()
    farm = dataclasses.replace(estate.component("farm").body, **changes)
    return dataclasses.replace(
        estate, components=[ComponentDecl("farm", farm), estate.component("T")]
    )


def _estate_body(system_id):
    """A one-producer system one level down, named `system_id`."""
    return SystemSpec(system_id, level=1, components=[ComponentDecl("g", _P.body)])


_FARM_WITHOUT_PORT = dataclasses.replace(
    nested_two_level_spec(),
    edges=(
        Edge("e_ft", "farm", "T", EdgeKnowledge(3, "grain")),
        Edge("e_tm", "T", "M", EdgeKnowledge(5, "grain")),
    ),
)

# Each validate rule no other test reaches: the spec and its exact report.
VALIDATE_RULES = {
    "negative_level": (
        _demo_with(level=-1),
        [("demo", "level must be a non-negative integer, got -1")],
    ),
    "non_int_level": (
        _demo_with(level=1.0),
        [("demo", "level must be a non-negative integer, got 1.0")],
    ),
    "bool_level": (
        _demo_with(level=True),
        [("demo", "level must be a non-negative integer, got True")],
    ),
    "string_level_above_a_nested_system": (
        dataclasses.replace(nested_two_level_spec(), level="x"),
        [("estate", "level must be a non-negative integer, got 'x'")],
    ),
    "bool_tier": (
        _demo_with(components=(ComponentDecl("P", Atomic(Role.PRODUCER, True)), _T)),
        [("demo/P", "tier must be a non-negative integer, got True")],
    ),
    "bool_multiplicity": (
        _demo_with(components=(dataclasses.replace(_P, multiplicity=True), _T)),
        [("demo/P", "multiplicity must be a positive integer, got True")],
    ),
    "float_variation_count": (
        _demo_with(components=(dataclasses.replace(_P, variations=(("a", 1.0),)), _T)),
        [("demo/P", "variation count must be an integer, got 1.0")],
    ),
    "bool_variation_count": (
        _demo_with(components=(dataclasses.replace(_P, variations=(("a", True),)), _T)),
        [("demo/P", "variation count must be an integer, got True")],
    ),
    "string_variation_count": (
        _demo_with(
            components=(
                dataclasses.replace(_P, multiplicity=2, variations=(("a", 1), ("b", "x"))),
                _T,
            )
        ),
        [("demo/P", "variation count must be an integer, got 'x'")],
    ),
    "duplicate_component_type": (
        _demo_with(components=(_P, _P, _T)),
        [("demo/P", "duplicate component type 'P'")],
    ),
    "repeated_variation_label": (
        _demo_with(
            components=(
                dataclasses.replace(_P, multiplicity=2, variations=(("a", 1), ("a", 1))),
                _T,
            )
        ),
        [("demo/P", "variation labels must be distinct")],
    ),
    "variation_count_below_one": (
        _demo_with(components=(dataclasses.replace(_P, variations=(("a", 1), ("b", 0))), _T)),
        [("demo/P", "every variation count must be >= 1")],
    ),
    "component_and_env_id": (
        _demo_with(
            components=(_P, _T, ComponentDecl("Q", Atomic(Role.BUYER, 1))),
            env_nodes=(_S, _M, EntityNode("Q")),
        ),
        [("demo/env/Q", "identifier 'Q' is declared as both a component and an environment node")],
    ),
    "infinite_source_rate": (
        _demo_with(env_nodes=(SourceNode("S", math.inf, "grain"), _M)),
        [("demo/env/S", "source rate must be a finite non-negative quantity, got inf")],
    ),
    "env_not_permitted": (
        _demo_with(boundary=BoundarySpec(permitted_env_ids=frozenset({"S"}))),
        [("demo/env/M", "environment node 'M' is not permitted by the boundary")],
    ),
    "duplicate_edge_id": (
        _demo_with(edges=(_E_PT, _E_PT, _E_SP, _E_TM)),
        [("demo/edges/e_pt", "duplicate edge id 'e_pt'")],
    ),
    "atomic_endpoint_with_port": (
        _demo_with(edges=(dataclasses.replace(_E_PT, tail="P.x"), _E_SP, _E_TM)),
        [("demo/edges/e_pt", "atomic component 'P' has no port 'x'")],
    ),
    "subsystem_endpoint_without_port": (
        _FARM_WITHOUT_PORT,
        [
            ("estate/edges/e_ft", "endpoint 'farm' is a subsystem and needs a port"),
            (
                "estate/farm/edges/b_out",
                "port 'out' is bound here but no edge of the enclosing level uses it as a tail",
            ),
        ],
    ),
    "interface_edge_between_envs": (
        _demo_with(edges=(Edge("e_sm", "S", "M", _GRAIN), _E_PT, _E_SP, _E_TM)),
        [("demo/edges/e_sm", "interface edge has two environment endpoints")],
    ),
    "port_on_env_node": (
        _demo_with(edges=(_E_PT, dataclasses.replace(_E_SP, tail="S.x"), _E_TM)),
        [("demo/edges/e_sp", "environment node 'S' has no ports")],
    ),
    "knowledge_not_edge_knowledge": (
        _demo_with(edges=_sp_with((4, "grain"))),
        [("demo/knowledge/e_sp", "flow attributes must be EdgeKnowledge, got (4, 'grain')")],
    ),
    "infinite_capacity": (
        _demo_with(edges=_sp_with(EdgeKnowledge(math.inf, "grain"))),
        [("demo/knowledge/e_sp", "capacity must be a finite non-negative quantity, got inf")],
    ),
    "nan_strength": (
        _demo_with(edges=_sp_with(EdgeKnowledge(4, "grain", math.nan))),
        [("demo/knowledge/e_sp", "strength must be a finite non-negative number, got nan")],
    ),
    # Names that are not str, and enum fields of the wrong type.
    "list_variation_label": (
        _demo_with(components=(dataclasses.replace(_P, variations=((["a"], 1),)), _T)),
        [("demo/P", "variation label ['a'] is not an identifier")],
    ),
    "list_entity_id": (
        SystemSpec("x", components=[_P], env_nodes=[EntityNode(["x"])]),
        [("x/env/['x']", "environment node ['x'] is not an identifier")],
    ),
    "list_entity_id_under_a_permitting_boundary": (
        SystemSpec(
            "x",
            components=[_P],
            env_nodes=[EntityNode(["x"])],
            boundary=BoundarySpec(permitted_env_ids=frozenset()),
        ),
        [("x/env/['x']", "environment node ['x'] is not an identifier")],
    ),
    "list_component_type": (
        SystemSpec("x", components=[ComponentDecl(["P"], Atomic(Role.PRODUCER, 0))]),
        [("x/['P']", "component type ['P'] is not an identifier")],
    ),
    "none_edge_tail": (
        _demo_with(edges=(dataclasses.replace(_E_PT, tail=None), _E_SP, _E_TM)),
        [("demo/edges/e_pt", "unresolved endpoint None")],
    ),
    "list_edge_head": (
        _demo_with(edges=(_E_PT, dataclasses.replace(_E_SP, head=["P"]), _E_TM)),
        [("demo/edges/e_sp", "unresolved endpoint ['P']")],
    ),
    "list_edge_tail_inside_a_subsystem": (
        _replace_in_farm(edges=(Edge("b_out", ["plot"], "out", _GRAIN),)),
        [
            ("estate/edges/e_ft", "nothing inside 'farm' feeds port 'out'"),
            ("estate/farm/edges/b_out", "unresolved endpoint ['plot']"),
        ],
    ),
    "int_conserved_beside_allow": (
        _demo_with(boundary=BoundarySpec(frozenset({"grain"}), frozenset({"grain", 3}))),
        [("demo/boundary", "boundary name 3 is not an identifier")],
    ),
    "string_history_policy": (
        _demo_with(history_policy="record"),
        [("demo", "history policy must be a HistoryPolicy, got 'record'")],
    ),
    "string_sink_scope": (
        _demo_with(env_nodes=(_S, SinkNode("M", "x"))),
        [("demo/env/M", "scope must be a Scope, got 'x'")],
    ),
    "none_system_id": (
        _demo_with(id=None),
        [("None", "system id must be a str, got None")],
    ),
    "nested_system_id_not_its_component_type": (
        SystemSpec("root", components=[ComponentDecl("farm", _estate_body("estate"))]),
        [("root/farm", "nested system id 'estate' must equal its component type 'farm'")],
    ),
    "int_nested_system_id": (
        SystemSpec("root", components=[ComponentDecl("farm", _estate_body(5))]),
        [("root/farm", "system id must be a str, got 5")],
    ),
    # Records of the wrong kind, each refused and then left out.
    "none_boundary": (
        SystemSpec("x", boundary=None),
        [("x/boundary", "boundary must be a BoundarySpec, got None")],
    ),
    "int_boundary": (
        _demo_with(boundary=5),
        [("demo/boundary", "boundary must be a BoundarySpec, got 5")],
    ),
    "variation_without_count": (
        _demo_with(components=(dataclasses.replace(_P, variations=(("a",),)), _T)),
        [("demo/P", "variation must be a (label, count) pair, got ('a',)")],
    ),
    "variation_of_three": (
        _demo_with(components=(dataclasses.replace(_P, variations=(("a", 1, 2),)), _T)),
        [("demo/P", "variation must be a (label, count) pair, got ('a', 1, 2)")],
    ),
    "source_among_edges": (
        SystemSpec("x", edges=[SourceNode("S", 1, "g")]),
        [("x/edges/S", "edge must be an Edge, got SourceNode(id='S', rate=1.0, substance='g')")],
    ),
    "edge_among_env_nodes": (
        SystemSpec("x", env_nodes=[Edge("e", "a", "b", EdgeKnowledge(1, "g"))]),
        [
            (
                "x/env/e",
                "environment node must be a SourceNode, SinkNode or EntityNode, got"
                " Edge(id='e', tail='a', head='b',"
                " knowledge=EdgeKnowledge(capacity=1.0, substance='g', strength=1.0))",
            )
        ],
    ),
    "source_among_edges_inside_a_subsystem": (
        _replace_in_farm(edges=(SourceNode("b_out", 1, "grain"),)),
        [
            ("estate/edges/e_ft", "nothing inside 'farm' feeds port 'out'"),
            (
                "estate/farm/edges/b_out",
                "edge must be an Edge, got SourceNode(id='b_out', rate=1.0, substance='grain')",
            ),
        ],
    ),
    # A root that is not a description at all.
    "none_root": (None, [("", "description must be a SystemSpec, got None")]),
    "string_root": ("x", [("", "description must be a SystemSpec, got 'x'")]),
    "atomic_root": (
        Atomic(Role.PRODUCER, 0),
        [
            (
                "",
                "description must be a SystemSpec,"
                " got Atomic(role=<Role.PRODUCER: 'producer'>, tier=0)",
            )
        ],
    ),
}


@pytest.mark.parametrize("rule", sorted(VALIDATE_RULES))
def test_validate_rule_reports_exact_path_and_message(rule):
    spec, expected = VALIDATE_RULES[rule]
    assert [(v.path, v.message) for v in validate(spec).violations] == expected
    with pytest.raises(InvalidSpec):
        flatten(spec)


def test_validate_reports_names_the_text_format_cannot_hold():
    """Every name must be an SDL identifier, reported where it is declared."""
    spec = SystemSpec(
        "odd",
        components=[ComponentDecl("a b", Atomic(Role.PRODUCER, 0), 2, (("x-1", 2),))],
        env_nodes=[SourceNode("S", 1, 'gr"ain'), SinkNode('M"q', Scope.LOCAL)],
        edges=[
            Edge("e_in", "S", "a b", EdgeKnowledge(1, 'gr"ain')),
            Edge("e.out", "a b", 'M"q', EdgeKnowledge(1, "grain")),
        ],
        boundary=BoundarySpec(conserved_substances=frozenset({'gr"ain', "grain", 7})),
    )
    assert [(v.path, v.message) for v in validate(spec).violations] == [
        ("odd/a b", "component type 'a b' is not an identifier"),
        ("odd/a b", "variation label 'x-1' is not an identifier"),
        ('odd/env/M"q', "environment node 'M\"q' is not an identifier"),
        ("odd/env/S", "substance 'gr\"ain' is not an identifier"),
        ("odd/boundary", "boundary name 'gr\"ain' is not an identifier"),
        ("odd/boundary", "boundary name 7 is not an identifier"),
        ("odd/edges/e.out", "edge id 'e.out' is not an identifier"),
        ("odd/knowledge/e_in", "substance 'gr\"ain' is not an identifier"),
    ]
    with pytest.raises(InvalidSpec):
        flatten(spec)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: SystemSpec("x", env_nodes=["S"]), "env_nodes"),
        (lambda: SystemSpec("x", components=[None]), "components"),
        (lambda: SystemSpec("x", edges=[None]), "edges"),
        (lambda: ComponentDecl("P", Atomic(Role.PRODUCER, 0), 1, ("",)), "variations"),
        (lambda: ComponentDecl("P", Atomic(Role.PRODUCER, 0), 1, ((),)), "variations"),
    ],
    ids=["str_env_node", "none_component", "none_edge", "str_variation", "empty_variation"],
)
def test_constructors_raise_type_error_naming_the_field(build, field):
    with pytest.raises(TypeError, match=f"^{field}"):
        build()


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: EdgeKnowledge(10**400, "grain"), "capacity"),
        (lambda: EdgeKnowledge(1, "grain", 10**400), "strength"),
        (lambda: SourceNode("S", 10**400, "grain"), "rate"),
    ],
    ids=["capacity", "strength", "rate"],
)
def test_constructors_raise_value_error_for_an_int_too_large_for_a_float(build, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        build()


# --- depth & navigation -----------------------------------------------------

def test_depth_base_and_single_nesting():
    assert depth(demo_chain_spec()) == 0
    assert depth(nested_two_level_spec()) == 1


def test_depth_three_levels_hand_counted():
    assert depth(three_level_spec()) == 2


def test_depth_exceeded_raises():
    with pytest.raises(DepthExceeded):
        depth(three_level_spec(), max_depth=1)


def _chain(levels: int) -> SystemSpec:
    """``levels`` nested components around one atomic actor, built in code."""
    spec = SystemSpec("leaf", components=[ComponentDecl("a", Atomic(Role.PRODUCER, 0))])
    for k in range(levels):
        spec = SystemSpec(f"c{k}", components=[ComponentDecl(f"c{k}", spec)])
    return spec


def test_validate_refuses_a_chain_too_deep_to_walk():
    spec = _chain(2000)
    report = validate(spec, max_depth=10**6)
    assert [(v.path, v.message) for v in report.violations] == [
        ("c1999", "nesting is too deep to validate")
    ]
    with pytest.raises(InvalidSpec, match="^c1999: nesting is too deep to validate$"):
        flatten(spec, 10**6)


def test_depth_of_a_chain_deeper_than_the_recursion_limit():
    spec = _chain(sys.getrecursionlimit() + 100)
    assert depth(spec, max_depth=10**6) == sys.getrecursionlimit() + 100
    with pytest.raises(DepthExceeded):
        depth(spec, max_depth=50)


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
    spec = SystemSpec(
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
    spec = SystemSpec(
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


def test_flatten_expands_network_edges_before_interface_edges():
    """Each group in id order: the flat graph, its hash and every log
    recorded against it depend on this order."""
    spec = demo_chain_spec()
    renamed = [dataclasses.replace(e, id="z_pt") if e.id == "e_pt" else e for e in spec.edges]
    spec = dataclasses.replace(spec, edges=renamed)
    flat = flatten(spec)
    assert [e.id for e in flat.edges] == ["z_pt#1", "e_sp#1", "e_tm#1"]
    assert model_hash(flat) == "e99c02e6bb09d86ac64102373b0ad118443521cf5c9930827bcae04eaee3394d"
    exported = export_json(spec)
    assert exported["network"]["edges"] == [{"id": "z_pt", "tail": "P", "head": "T"}]
    assert [e["id"] for e in exported["interface"]["edges"]] == ["e_sp", "e_tm"]


def test_flatten_keeps_origin_paths():
    flat = flatten(nested_two_level_spec())
    plots = [n for n in flat.nodes if n.id.startswith("plot")]
    assert all(n.path == ("farm#1",) for n in plots)


def test_flatten_numbers_each_subsystem_copy_before_its_body():
    """A level that repeats its container's type id shares its counter:
    each outer copy takes its number, then its body's copies take theirs."""
    doc = parse(
        """
        system "estate" {
          component farm * 2 {
            component farm * 2 atomic role=producer tier=0
            source S rate=4 substance=grain
            entity out
            edge e_sf S -> farm { substance=grain capacity=2 }
            edge b_out farm -> out { substance=grain capacity=2 }
          }
          component T atomic role=processor_trader tier=1
          edge e_ft farm.out -> T { substance=grain capacity=3 }
        }
        """
    )
    flat = flatten(doc.root)
    assert [(n.id, n.path) for n in flat.nodes] == [
        ("T#1", ()),
        ("farm#2", ("farm#1",)),
        ("farm#3", ("farm#1",)),
        ("farm#5", ("farm#4",)),
        ("farm#6", ("farm#4",)),
    ]
    assert [(e.id, e.tail, e.head) for e in flat.edges] == [
        ("e_sf#1", "S", "farm#2"),
        ("e_sf#2", "S", "farm#3"),
        ("e_sf#3", "S", "farm#5"),
        ("e_sf#4", "S", "farm#6"),
        ("e_ft#1", "farm#2", "T#1"),
        ("e_ft#2", "farm#3", "T#1"),
        ("e_ft#3", "farm#5", "T#1"),
        ("e_ft#4", "farm#6", "T#1"),
    ]
    assert [n.id for n in flat.env_nodes] == ["S"]


def test_flatten_carries_knowledge_per_edge():
    flat = flatten(nested_two_level_spec())
    assert all(e.knowledge is not None for e in flat.edges)
    spliced = [e for e in flat.edges if e.id.startswith("e_ft")]
    # the enclosing edge's attributes govern the spliced connection
    assert all(e.knowledge.capacity == 3 for e in spliced)


def test_flatten_unwired_port_raises():
    inner = SystemSpec(
        "farm",
        level=1,
        components=[ComponentDecl("plot", Atomic(Role.PRODUCER, 0))],
        env_nodes=[EntityNode("out")],
        edges=[Edge("b1", "plot", "out", EdgeKnowledge(1, "grain"))],
    )
    outer = SystemSpec(
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
        _demo_with(edges=(dataclasses.replace(_E_PT, knowledge=None), _E_SP, _E_TM)),
        SystemSpec(
            "none", components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0), multiplicity=0)]
        ),
        SystemSpec("untiered", components=[ComponentDecl("P", Atomic(Role.PRODUCER, None))]),
    ],
    ids=["no_knowledge", "multiplicity_zero", "no_tier"],
)
def test_flatten_rejects_invalid_spec_with_typed_error(spec):
    with pytest.raises(InvalidSpec) as exc:
        flatten(spec)
    assert exc.value.report == validate(spec)
    assert not exc.value.report.ok


def test_flatten_names_a_root_that_is_not_a_description_without_a_path():
    with pytest.raises(InvalidSpec, match=r"^description must be a SystemSpec, got None$"):
        flatten(None)


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
    """Drop one edge or swap the tail and head of one edge with a port
    reference, at a random level of the tree. (None, None) when there is
    no edge."""
    options = []
    for path, s in _levels(spec):
        for edge in s.edges:
            options.append(("drop_edge", path, s, edge))
            if "." in edge.tail or "." in edge.head:
                options.append(("swap_port", path, s, edge))
    kinds = sorted({kind for kind, *_ in options})
    if not kinds:
        return None, None
    kind = rng.choice(kinds)
    _, path, s, target = rng.choice([o for o in options if o[0] == kind])

    def edit(edges):
        if kind == "drop_edge":
            return [e for e in edges if e.id != target.id]
        swapped = dataclasses.replace(target, tail=target.head, head=target.tail)
        return [swapped if e.id == target.id else e for e in edges]

    return kind, _replace_at(spec, path, dataclasses.replace(s, edges=edit(s.edges)))


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
    assert {kind for kind, _ in outcomes} == {"drop_edge", "swap_port"}
    assert {ok for _, ok in outcomes} == {True, False}


def test_flatten_keeps_unconnected_env_nodes():
    spec = SystemSpec(
        "lonely",
        components=[ComponentDecl("P", Atomic(Role.PRODUCER, 0))],
        env_nodes=[SourceNode("S", 1, "grain"), EntityNode("regulator")],
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


_HOSTILE = (None, True, 3, math.nan, ["a"], {"a": 1}, b"a")


def _name_and_enum_sites(s):
    """Each name or enum field of one level: (what, its enum or None, put),
    where put(value) is the level with that one field replaced."""
    rep = dataclasses.replace

    def swap(field, old, make):
        """put for the record ``old`` in the tuple ``field``: make(value)
        is the record with the value in place."""
        return lambda v: rep(s, **{field: [make(v) if x is old else x for x in getattr(s, field)]})

    sites = [
        ("system id", None, lambda v: rep(s, id=v)),
        ("history policy", HistoryPolicy, lambda v: rep(s, history_policy=v)),
    ]
    for c in s.components:
        type_id = swap("components", c, lambda v, c=c: rep(c, type_id=v))
        sites.append(("component type", None, type_id))
        if c.is_atomic:
            role = swap("components", c, lambda v, c=c: rep(c, body=rep(c.body, role=v)))
            sites.append(("role", Role, role))
        for i in range(len(c.variations)):
            def relabel(v, c=c, i=i):
                pairs = list(c.variations)
                pairs[i] = (v, pairs[i][1])
                return rep(c, variations=pairs)

            sites.append(("variation label", None, swap("components", c, relabel)))
    for n in s.env_nodes:
        env_id = swap("env_nodes", n, lambda v, n=n: rep(n, id=v))
        sites.append(("environment node", None, env_id))
        if isinstance(n, SourceNode):
            substance = swap("env_nodes", n, lambda v, n=n: rep(n, substance=v))
            sites.append(("source substance", None, substance))
        if isinstance(n, SinkNode):
            scope = swap("env_nodes", n, lambda v, n=n: rep(n, scope=v))
            sites.append(("sink scope", Scope, scope))
    for e in s.edges:
        for field in ("id", "tail", "head"):
            end = swap("edges", e, lambda v, e=e, f=field: rep(e, **{f: v}))
            sites.append((f"edge {field}", None, end))
        knowledge = lambda v, e=e: rep(e, knowledge=rep(e.knowledge, substance=v))
        sites.append(("edge substance", None, swap("edges", e, knowledge)))
    for field in ("allowed_substances", "conserved_substances", "permitted_env_ids"):
        names = sorted(getattr(s.boundary, field) or ())
        if names:
            def rename(v, f=field, rest=names[1:]):
                return rep(s, boundary=rep(s.boundary, **{f: [v, *rest]}))

            sites.append(("boundary name", None, rename))
    return sites


def test_validate_refuses_hostile_names_and_enums():
    """One name or enum field of a random model replaced by a value of the
    wrong type: the constructor raises TypeError, or validate reports it."""
    rng = random.Random(47)
    reached, refused = set(), 0
    for _ in range(400):
        spec = random_spec(rng, max_depth=2)
        path, level = rng.choice(list(_levels(spec)))
        what, enum_type, put = rng.choice(_name_and_enum_sites(level))
        strings = tuple(member.value for member in enum_type) if enum_type else ()
        value = rng.choice(_HOSTILE + strings)
        try:
            mutant = _replace_at(spec, path, put(value))
        except TypeError:
            refused += 1  # a value the constructor cannot sort or store
            continue
        assert not validate(mutant).ok, (what, value)
        reached.add(what)
    assert refused
    assert reached == {
        "system id", "history policy", "component type", "role", "variation label",
        "environment node", "source substance", "sink scope", "edge id", "edge tail",
        "edge head", "edge substance", "boundary name",
    }
