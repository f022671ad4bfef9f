"""Text format: parsing, canonical printing, JSON/DOT export."""

import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcsys import (
    EdgeKnowledge,
    HistoryPolicy,
    depth,
    export_dot,
    export_json,
    flatten,
    parse,
    print_spec,
    validate,
)
from vcsys import model
from vcsys.flatten import FlatGraph

from .helpers import (
    DEMO_SDL,
    PARSE_CORPUS_SIZE,
    WIRING_PROBES,
    deep_sdl,
    demo_chain_spec,
    nested_two_level_spec,
    parse_corpus_entry,
    random_spec,
    sdl_mutant_bases,
)


# --- parse ------------------------------------------------------------------

def test_parse_empty_system():
    doc = parse('system "demo" { }')
    assert doc.ok
    spec = doc.root
    assert spec.id == "demo"
    assert spec.level == 0
    assert spec.components == ()
    assert spec.edges == ()
    assert spec.env_nodes == ()
    assert spec.boundary.allowed_substances is None
    assert spec.history_policy is HistoryPolicy.RECORD


def test_parse_demo_chain():
    doc = parse(DEMO_SDL)
    assert doc.ok, doc.diagnostics
    spec = doc.root
    assert len(spec.components) == 2
    assert len(spec.edges) == 3
    assert len(spec.env_nodes) == 2
    assert spec == demo_chain_spec()


def test_parse_unclosed_brace():
    text = 'system "demo" {\n  component P atomic role=producer tier=0\n'
    doc = parse(text)
    assert doc.root is None
    assert len(doc.diagnostics) == 1
    diag = doc.diagnostics[0]
    assert diag.line == 3  # the parser points at where the brace should be


def test_parse_takes_max_depth_by_keyword_only():
    with pytest.raises(TypeError):
        parse(DEMO_SDL, "demo.vcs")
    assert parse(DEMO_SDL, max_depth=0).ok


def test_parse_reports_position_of_bad_token():
    doc = parse('system "demo" {\n  edge e1 P -> { substance=x capacity=1 }\n}')
    assert doc.root is None
    assert doc.diagnostics[0].line == 2


def test_parse_semantic_violation_located():
    text = 'system "demo" {\n  component P atomic role=producer tier=0\n  edge e1 P -> Q { substance=g capacity=1 }\n}'
    doc = parse(text)
    assert doc.root is None
    assert any("unresolved endpoint" in d.message for d in doc.diagnostics)
    assert doc.diagnostics[0].line == 3


@pytest.mark.parametrize("probe", sorted(WIRING_PROBES))
def test_parse_locates_port_wiring_violation(probe):
    text, position = WIRING_PROBES[probe]
    doc = parse(text)
    assert doc.root is None
    first = doc.diagnostics[0]
    assert (first.line, first.column) == position
    assert text.splitlines()[first.line - 1].lstrip().startswith("edge ")


# Each case: text and the exact (line, column, message) of every diagnostic.
DIAGNOSTIC_POSITIONS = {
    "bad character after CRLF, tab and comment": (
        'system "d" {\r\n  # note\r\n\tcomponent P atomic role=producer tier=0 # ok\r\n\t$\r\n}\r\n',
        [(4, 2, "unexpected character '$'")],
    ),
    "unterminated string": (
        'system "d" {\n  source S rate=1 substance=g\n  entity "R\n}\n',
        [(3, 10, "unterminated string")],
    ),
    "end of input after a newline": (
        'system "d" {\n  component P atomic role=producer tier=0\n',
        [(3, 1, "expected }, found 'end of input'")],
    ),
    "end of input without a newline": (
        'system "d" {\n  component P atomic role=producer tier=0',
        [(2, 42, "expected }, found 'end of input'")],
    ),
    "violation at a nested component": (
        'system "d" {\n  component farm {\n    component P atomic role=producer tier=0\n'
        "    component Q * 2 variations=[a:1] atomic role=buyer tier=1\n  }\n}\n",
        [(4, 15, "d/farm/Q: variation counts sum to 1, expected multiplicity 2")],
    ),
    "violation at an env node": (
        'system "d" {\n  source S rate=1 substance=g\n  sink M scope=local\n'
        "    source S rate=2 substance=g\n}\n",
        [
            (4, 12, "d/env/S: duplicate environment node 'S'"),
            (4, 12, "d/env/S: environment node 'S' conflicts with the definition at d/env/S"),
        ],
    ),
    "violation at a boundary block": (
        'system "d" {\n  entity R\n    boundary { allow=[g] conserve=[h] }\n}\n',
        [(3, 5, "d/boundary: conserved substances not allowed by the boundary: h")],
    ),
    "retired boundary attribute": (
        'system "x" { boundary { frozen=false } }',
        [(1, 25, "unknown boundary attribute 'frozen'")],
    ),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSTIC_POSITIONS))
def test_parse_diagnostic_positions(case):
    text, expected = DIAGNOSTIC_POSITIONS[case]
    doc = parse(text)
    assert doc.root is None
    assert [(d.line, d.column, d.message) for d in doc.diagnostics] == expected


@pytest.mark.parametrize(
    "line",
    [
        "component P atomic role=V tier=0",
        "component P atomic role=producer tier=V",
        "component P atomic role=producer tier=0 extra=V",
        "source S rate=V substance=g",
        "source S rate=1 substance=V",
        "sink M scope=V",
        "edge e P -> M { substance=V capacity=1 }",
        "edge e P -> M { substance=g capacity=V }",
        "edge e P -> M { substance=g capacity=1 strength=V }",
    ],
)
@pytest.mark.parametrize("bad", ["@", "é", '"'])
def test_bad_character_as_attribute_value_is_the_reported_error(line, bad):
    body = "component P atomic role=producer tier=0\n  sink M scope=local\n  "
    text = f'system "d" {{\n  {body}{line.replace("V", bad)}\n}}\n'
    message = "unterminated string" if bad == '"' else f"unexpected character {bad!r}"
    doc = parse(text)
    assert doc.root is None
    assert [(d.line, d.column, d.message) for d in doc.diagnostics] == [
        (4, 3 + line.index("V"), message)
    ]


# Literals with a fraction or an exponent, and the integers they spell.
EXACT_FORMS = {
    "9007199254740993.0": 9007199254740993,
    "12345678901234567891e0": 12345678901234567891,
    "123456789012345678901234567890.000": 123456789012345678901234567890,
    "1e23": 10**23,
    "1.5e3": 1500,
    "1" + "0" * 400 + "e-399": 10,
    "0e999999999": 0,
    "0e99999999999999999999": 0,
}


def test_parse_reads_integer_literals_exactly():
    big = 12345678901234567891
    text = f'system "d" level {big} {{\n  component P atomic role=producer tier={big}\n}}\n'
    doc = parse(text)
    assert doc.ok, doc.diagnostics
    assert doc.root.level == big
    assert doc.root.components[0].body.tier == big
    assert print_spec(doc.root) == text
    for literal, value in EXACT_FORMS.items():
        doc = parse(LITERAL_SITES["level"].format(n=literal))
        assert doc.ok, (literal, doc.diagnostics)
        assert doc.root.level == value, literal
        doc = parse(LITERAL_SITES["tier"].format(n=literal))
        assert doc.ok, (literal, doc.diagnostics)
        assert doc.root.components[0].body.tier == value, literal


@pytest.mark.parametrize(
    "literal",
    ["12345678901234567.5", "3.000000000000000000001", "1e-999999999", "1e-99999999999999999999"],
)
def test_parse_refuses_integer_literals_with_a_fraction(literal):
    text = LITERAL_SITES["tier"].format(n=literal)
    doc = parse(text)
    assert [(d.line, d.column, d.message) for d in doc.diagnostics] == [
        (2, 41, "tier must be an integer")
    ]
    doc = parse(LITERAL_SITES["level"].format(n=literal))
    assert [(d.line, d.column, d.message) for d in doc.diagnostics] == [
        (1, 18, f"level must be an integer, got {literal}")
    ]


LITERAL_SITES = {
    "level": 'system "d" level {n} {{\n  component P atomic role=producer tier=0\n}}\n',
    "multiplicity": 'system "d" {{\n  component P * {n} atomic role=producer tier=0\n}}\n',
    "tier": 'system "d" {{\n  component P atomic role=producer tier={n}\n}}\n',
    "variation_count": (
        'system "d" {{\n  component P variations=[a:{n}] atomic role=producer tier=0\n}}\n'
    ),
}


@pytest.mark.parametrize("literal", ["9" * 309, "1" * 400, "7" * 5000, "1e308", "2.5e400"])
@pytest.mark.parametrize("site", sorted(LITERAL_SITES))
def test_parse_refuses_too_large_integer_literals(site, literal):
    text = LITERAL_SITES[site].format(n=literal)
    pos = text.index(literal)
    line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    doc = parse(text)
    assert doc.root is None
    assert [(d.line, d.column, d.message) for d in doc.diagnostics] == [
        (line, column, "integer literal is too large: at most 308 digits")
    ]


def test_parse_reads_308_digit_literals_exactly():
    largest = 10**308 - 1
    for zeros in ("000", "0" * 5000):
        doc = parse(LITERAL_SITES["tier"].format(n=zeros + str(largest)))
        assert doc.ok, doc.diagnostics
        assert doc.root.components[0].body.tier == largest


def test_parse_accepts_bytes_and_rejects_bad_utf8():
    assert parse(b'system "demo" { }').ok
    doc = parse(b'\xff\xfe system')
    assert doc.root is None and doc.diagnostics


def test_parse_never_shares_state():
    a = parse(DEMO_SDL)
    b = parse(DEMO_SDL)
    assert a.root == b.root


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_parse_is_total_on_arbitrary_text(text):
    doc = parse(text)
    assert doc.root is not None or doc.diagnostics
    _assert_positions_inside(text, doc)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_parse_is_total_on_arbitrary_bytes(blob):
    doc = parse(blob)
    assert doc.root is not None or doc.diagnostics
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        return
    _assert_positions_inside(text, doc)


def test_parse_is_total_on_nesting_around_the_recursion_limit():
    """Whichever of the parser and validate runs out of stack first, each
    depth ends in a document, never in a RecursionError. A lower limit
    keeps the texts small; the race is the same at any limit."""
    default, limit = sys.getrecursionlimit(), 250
    sys.setrecursionlimit(limit)
    try:
        for levels in range(limit - 100, limit + 10):
            doc = parse(deep_sdl(levels), max_depth=100000)
            assert doc.root is not None or doc.diagnostics, levels
    finally:
        sys.setrecursionlimit(default)


def _assert_positions_inside(text, doc):
    lines = text.split("\n")
    for d in doc.diagnostics:
        assert 1 <= d.line <= len(lines), d
        assert 1 <= d.column <= len(lines[d.line - 1]) + 1, d


CORPUS = Path(__file__).parent / "fixtures" / "parse_corpus.jsonl"


def test_parse_matches_the_golden_mutant_corpus():
    """Each golden line is ``json.dumps(parse_corpus_entry(sdl_mutant_bases(),
    seed))``, as the parser wrote it before tokens became plain strings.
    Rewrite the file only for a deliberate change of what parse reports."""
    golden = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(golden) == PARSE_CORPUS_SIZE
    bases = sdl_mutant_bases()
    for entry in golden:
        assert parse_corpus_entry(bases, entry["seed"]) == entry


LONG_RUNS = {
    "spaces between tokens and at the end": (
        'system "d" {' + " " * 10**6 + "}" + " " * 10**6,
        [],
    ),
    "a comment run": (
        'system "d" {\n' + "# one comment line\n" * 10**5 + "}\n",
        [],
    ),
    "a bad character after spaces": (
        'system "d" {' + " " * 10**6 + "@",
        [(1, 10**6 + 13, "unexpected character '@'")],
    ),
    "end of input after a comment run": (
        'system "d" {\n' + "# one comment line\n" * 10**5,
        [(10**5 + 2, 1, "expected }, found 'end of input'")],
    ),
}


@pytest.mark.parametrize("case", sorted(LONG_RUNS))
def test_parse_is_linear_in_whitespace_and_comments(case):
    text, expected = LONG_RUNS[case]
    start = time.perf_counter()
    doc = parse(text)
    assert time.perf_counter() - start < 5.0  # about 0.1 s on a 2-vCPU VM
    assert [(d.line, d.column, d.message) for d in doc.diagnostics] == expected


def test_flatten_of_a_parsed_root_validates_it_once(monkeypatch):
    roots = []
    inner = model._validate_level

    def counting(spec, path, depth, *rest):
        if depth == 0:
            roots.append(spec)
        inner(spec, path, depth, *rest)

    monkeypatch.setattr(model, "_validate_level", counting)
    root = parse(DEMO_SDL).root
    flatten(root)
    flatten(root)
    assert roots == [root]
    flatten(parse(DEMO_SDL).root, max_depth=3)
    assert len(roots) == 3  # a new description, then a new depth limit


# --- print ------------------------------------------------------------------

def test_print_empty_system_canonical_form():
    doc = parse('system  "demo"  {  }')
    assert print_spec(doc.root) == 'system "demo" {\n}\n'


def test_round_trip_demo_chain():
    spec = demo_chain_spec()
    doc = parse(print_spec(spec))
    assert doc.ok
    assert doc.root == spec


def test_round_trip_nested_fixture_depth():
    text = print_spec(nested_two_level_spec())
    doc = parse(text)
    assert doc.ok
    assert depth(doc.root) == 1
    assert doc.root == nested_two_level_spec()


def test_print_is_canonical_under_reparse():
    text = print_spec(nested_two_level_spec())
    again = print_spec(parse(text).root)
    assert text == again


def test_round_trip_random_specs():
    rng = random.Random(99)
    for _ in range(40):
        spec = random_spec(rng)
        doc = parse(print_spec(spec))
        assert doc.ok, (doc.diagnostics, print_spec(spec))
        assert doc.root == spec


def test_round_trip_preserves_float_quantities():
    spec = demo_chain_spec(caps=(0.1, 2.875, 1e-09), rate=3.25)
    doc = parse(print_spec(spec))
    assert doc.ok
    assert doc.root == spec


# --- export_json ------------------------------------------------------------

def test_export_json_schema_skeleton():
    doc = parse('system "demo" { }')
    payload = export_json(doc.root)
    assert list(payload) == [
        "id",
        "level",
        "components",
        "network",
        "interface",
        "boundary",
        "knowledge",
        "history_policy",
    ]
    assert payload["level"] == 0


def test_export_json_demo_knowledge():
    payload = export_json(demo_chain_spec())
    assert len(payload["knowledge"]) == 3
    for entry in payload["knowledge"]:
        assert {"edge", "substance", "capacity", "strength"} <= set(entry)


def test_export_json_null_history():
    payload = export_json(demo_chain_spec(history=HistoryPolicy.NULL))
    assert payload["history_policy"] == "null"


def test_export_json_injective_on_random_specs():
    rng = random.Random(5)
    seen = {}
    for _ in range(40):
        spec = random_spec(rng)
        blob = json.dumps(export_json(spec), sort_keys=True)
        if blob in seen:
            assert seen[blob] == spec
        seen[blob] = spec
    assert len(seen) >= 35  # generator collisions are possible but rare


# --- export_dot -------------------------------------------------------------

def test_export_dot_empty_graph():
    assert export_dot(FlatGraph(id="demo")) == "digraph demo {\n}\n"


def test_export_dot_demo_chain():
    dot = export_dot(flatten(demo_chain_spec()))
    lines = dot.splitlines()
    node_lines = [ln for ln in lines if "shape=" in ln]
    edge_lines = [ln for ln in lines if "->" in ln]
    assert len(node_lines) == 4
    assert len(edge_lines) == 3
    assert any("shape=house" in ln for ln in node_lines)
    assert any("shape=invhouse" in ln for ln in node_lines)
    assert any("producer:0" in ln for ln in node_lines)


def test_export_dot_quotes_ids_spelled_like_keywords():
    """DOT keywords are case-independent; an id spelled like one is quoted."""
    doc = parse(
        'system "Graph" {\n'
        "  component T atomic role=processor_trader tier=1\n"
        "  sink node scope=local\n"
        "  edge e_tn T -> node { substance=grain capacity=1 }\n"
        "}\n"
    )
    assert doc.ok, doc.diagnostics
    lines = export_dot(flatten(doc.root)).splitlines()
    assert lines[0] == 'digraph "Graph" {'
    assert '  "node" [shape=invhouse label="node"]' in lines
    assert '  "T#1" -> "node" [label="grain cap=1"]' in lines
    assert export_dot(FlatGraph(id="SUBGRAPH")).startswith('digraph "SUBGRAPH" {')
    assert export_dot(FlatGraph(id="nodes")).startswith("digraph nodes {")


def test_export_dot_zero_capacity_is_dashed():
    spec = demo_chain_spec(caps=(4, 0, 5))
    dot = export_dot(flatten(spec))
    dashed = [ln for ln in dot.splitlines() if "style=dashed" in ln]
    assert len(dashed) == 1
    assert "cap=0" in dashed[0]


def test_export_dot_valid_for_random_specs():
    rng = random.Random(3)
    for _ in range(10):
        flat = flatten(random_spec(rng))
        dot = export_dot(flat)
        assert dot.startswith("digraph ")
        assert dot.endswith("}\n")
        assert dot.count("->") == len(flat.edges)
