"""The system description language: text in, text out.

The format is keyword-led and brace-delimited, one construct per
statement, unambiguous with single-token lookahead::

    system "demo" {                       # optional: level N after the name
      component P atomic role=producer tier=0
      component farm * 2 variations=[organic:1, plain:1] {
        ...nested system body...
      }
      source S rate=4 substance=grain
      sink M scope=national
      entity R                             # environment object / exported port
      edge e_sp S -> P { substance=grain capacity=4 strength=1 }
      edge e_fp farm.out -> P { substance=grain capacity=2 }
      boundary { allow=[grain] conserve=[grain] permitted=[S, M] }
      history null                         # default: record
    }

Comments run from ``#`` to end of line. Identifiers are
``[A-Za-z_][A-Za-z0-9_]*``; quantities are non-negative decimals with an
optional exponent (``1e-09``). Where an integer is due (level, tier,
multiplicity, variation count) a literal is read exactly in any of those
forms, so ``1.5e3`` is 1500 and ``9007199254740993.0`` is itself; one
with a non-zero fraction is refused, and so is one of more than 308
digits or whose float is 1e308 or more.
``parse`` is total: any input (including arbitrary bytes) yields a
document whose diagnostics explain what went wrong, each an error at a
line and column, and a document has a root exactly when it has no
diagnostics. The caller knows where the text came from and names it when
it prints them. ``print_spec`` emits the canonical form (declarations
sorted by id, two-space indent), which reparses to an equal description.

The lexer is one regular expression whose every match is one token,
taken after the whitespace and comments before it; tokens are their
plain texts. The parser keeps token indices, which become offsets and
then 1-based line and column only for the diagnostics ``parse`` reports.

The textual form has one name per nested system, the component's type
id. ``validate`` requires each nested system's id to equal it, so a
valid description built in code reparses with the ids it was built with.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass

from .model import (
    DEFAULT_MAX_DEPTH,
    Atomic,
    BoundarySpec,
    ComponentDecl,
    Edge,
    EdgeKnowledge,
    EntityNode,
    EnvNode,
    HistoryPolicy,
    Role,
    Scope,
    SinkNode,
    SourceNode,
    SystemSpec,
    validate,
)

__all__ = ["Diagnostic", "SdlDocument", "parse", "print_spec"]

_ROLES = {r.value: r for r in Role}
_SCOPES = {s.value: s for s in Scope}

# Each match is one token, found after the whitespace and comments before
# it; group 1 is the token's text. At the end of the text the token is ""
# (once more after trailing whitespace), and a character that starts no
# token is a token of its own, which ``_kind`` calls "bad". The parser
# consumes no bad token: it takes tokens only through ``_Stream.expect``
# (which checks the kind), by exact text, or as attribute values, where
# ``_attr_pairs`` stops short of a bad one. So a bad token always makes the
# parse fail, and ``parse`` then reports the first one.
_TOKEN = re.compile(
    r"""
    (?:[ \t\r\n]|\#[^\n]*)*
    (   \d+(?:\.\d+)?(?:[eE][+-]?\d+)?
      | [A-Za-z_][A-Za-z0-9_]*
      | "(?:[^"\\\n]|\\.)*"
      | -> | [{}\[\]=*,.:]
      | \Z
      | .
    )
    """,
    re.VERBOSE,
)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCTUATION = frozenset(["", "->", "{", "}", "[", "]", "=", "*", ",", ".", ":"])


@dataclass(frozen=True)
class Diagnostic:
    """An error in the text, at a 1-based line and column."""

    line: int
    column: int
    message: str


@dataclass(frozen=True)
class SdlDocument:
    root: SystemSpec | None
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _ParseError(Exception):
    """A syntax error; ``args`` is (token index, message)."""


def _kind(tok: str) -> str:
    """"ident", "number", "string" or "bad", else the token itself:
    punctuation, or "" at the end of the text."""
    first = tok[:1]
    if first in _IDENT_START:
        return "ident"
    if first.isdecimal():
        return "number"
    if first == '"':
        return "string" if len(tok) > 1 else "bad"
    return tok if tok in _PUNCTUATION else "bad"


def _line_col(newlines: list[int], pos: int) -> tuple[int, int]:
    """1-based line and column of offset ``pos`` in a text whose newline
    characters sit at the sorted offsets ``newlines``."""
    line = bisect_left(newlines, pos)
    return line + 1, pos - (newlines[line - 1] if line else -1)


class _Stream:
    """The token texts, ending in "", and the index ``at`` of the next one."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.at = 0

    def error(self, message: str, at: int | None = None) -> _ParseError:
        return _ParseError(self.at if at is None else at, message)

    def expect(self, kind: str, what: str | None = None) -> str:
        tok = self.tokens[self.at]
        if _kind(tok) != kind:
            raise self.error(f"expected {what or kind}, found {tok or 'end of input'!r}")
        self.at += 1
        return tok

    def accept(self, tok: str) -> bool:
        """Consume the next token if it is ``tok``: punctuation or a keyword."""
        if self.tokens[self.at] != tok:
            return False
        self.at += 1
        return True


def _unescape(raw: str) -> str:
    return raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


_MAX_INT_DIGITS = 308  # integer literals stay below 10**308


def _integer(tok: str, at: int) -> int | None:
    """The exact integer a token spells, or None if it spells no integer;
    an all-digit literal of more than ``_MAX_INT_DIGITS`` digits, or any
    other whose float is 1e308 or more, is a syntax error."""
    if _kind(tok) != "number":
        return None
    exact = tok.isdecimal()
    if len(tok.lstrip("0")) > _MAX_INT_DIGITS if exact else float(tok) >= 1e308:
        raise _ParseError(at, f"integer literal is too large: at most {_MAX_INT_DIGITS} digits")
    if exact:  # without leading zeros, which count against int's digit limit
        return int(tok.lstrip("0") or "0")
    from decimal import Decimal, InvalidOperation  # only fractions and exponents need it

    try:
        value = Decimal(tok)
    except InvalidOperation:  # an exponent of 19 digits or more: an integer only at zero
        return None if Decimal(tok.lower().partition("e")[0]) else 0
    return int(value) if value == value.to_integral_value() else None


def _int_value(stream: _Stream, what: str) -> int:
    at = stream.at
    tok = stream.expect("number", f"an integer {what}")
    value = _integer(tok, at)
    if value is None:
        raise stream.error(f"{what} must be an integer, got {tok}", at)
    return value


def _endpoint(stream: _Stream) -> str:
    base = stream.expect("ident", "an endpoint")
    if stream.accept("."):
        return f"{base}.{stream.expect('ident', 'a port name')}"
    return base


def _ident_list(stream: _Stream) -> frozenset[str]:
    stream.expect("[")
    items: list[str] = []
    if stream.tokens[stream.at] != "]":
        items.append(stream.expect("ident", "an identifier"))
        while stream.accept(","):
            items.append(stream.expect("ident", "an identifier"))
    stream.expect("]")
    return frozenset(items)


def _attr_pairs(stream: _Stream) -> dict[str, int]:
    """key=value pairs up to the next non-assignment token or bad value,
    each key mapped to the index of its value token."""
    tokens, at = stream.tokens, stream.at
    pairs: dict[str, int] = {}
    while (
        _kind(tokens[at]) == "ident" and tokens[at + 1] == "=" and _kind(tokens[at + 2]) != "bad"
    ):
        key = tokens[at]
        if key in pairs:
            raise _ParseError(at, f"duplicate attribute {key!r}")
        pairs[key] = at + 2
        at += 3 if tokens[at + 2] else 2
    stream.at = at
    return pairs


def _parse_body(
    stream: _Stream,
    sys_id: str,
    level: int,
    path: str,
    positions: dict[str, int],
) -> SystemSpec:
    tokens = stream.tokens
    components: list[ComponentDecl] = []
    env: list[EnvNode] = []
    edges: list[Edge] = []
    boundary: BoundarySpec | None = None
    history: HistoryPolicy | None = None

    while True:
        at = stream.at
        tok = tokens[at]
        if tok == "}" or not tok:
            break
        stream.at = name_at = at + 1

        if tok == "component":
            name = stream.expect("ident", "a component name")
            positions[f"{path}/{name}"] = name_at
            multiplicity = 1
            if stream.accept("*"):
                multiplicity = _int_value(stream, "multiplicity")
            variations: list[tuple[str, int]] = []
            if stream.accept("variations"):
                stream.expect("=")
                stream.expect("[")
                while True:
                    label = stream.expect("ident", "a variation label")
                    stream.expect(":")
                    variations.append((label, _int_value(stream, "variation count")))
                    if not stream.accept(","):
                        break
                stream.expect("]")
            if stream.accept("atomic"):
                attrs = _attr_pairs(stream)
                role_at = attrs.pop("role", None)
                tier_at = attrs.pop("tier", None)
                if attrs:
                    extra = sorted(attrs)[0]
                    raise stream.error(f"unknown atomic attribute {extra!r}", attrs[extra])
                if role_at is None or tier_at is None:
                    raise stream.error(
                        f"atomic component {name!r} needs role= and tier=", name_at
                    )
                role = _ROLES.get(tokens[role_at])
                if role is None:
                    raise stream.error(
                        f"unknown role {tokens[role_at]!r}; one of: "
                        + ", ".join(sorted(_ROLES)),
                        role_at,
                    )
                tier = _integer(tokens[tier_at], tier_at)
                if tier is None:
                    raise stream.error("tier must be an integer", tier_at)
                body: Atomic | SystemSpec = Atomic(role, tier)
            elif stream.accept("{"):
                body = _parse_body(stream, name, level + 1, f"{path}/{name}", positions)
                stream.expect("}")
            else:
                raise stream.error(
                    "expected 'atomic' or a nested body after the component name"
                )
            components.append(ComponentDecl(name, body, multiplicity, tuple(variations)))

        elif tok == "source":
            name = stream.expect("ident", "a source name")
            positions[f"{path}/env/{name}"] = name_at
            attrs = _attr_pairs(stream)
            rate_at = attrs.pop("rate", None)
            substance_at = attrs.pop("substance", None)
            if attrs or rate_at is None or substance_at is None:
                raise stream.error(
                    f"source {name!r} takes exactly rate= and substance=", name_at
                )
            if _kind(tokens[rate_at]) != "number":
                raise stream.error("rate must be a quantity", rate_at)
            if _kind(tokens[substance_at]) != "ident":
                raise stream.error("substance must be an identifier", substance_at)
            env.append(SourceNode(name, float(tokens[rate_at]), tokens[substance_at]))

        elif tok == "sink":
            name = stream.expect("ident", "a sink name")
            positions[f"{path}/env/{name}"] = name_at
            attrs = _attr_pairs(stream)
            scope_at = attrs.pop("scope", None)
            if attrs or scope_at is None:
                raise stream.error(f"sink {name!r} takes exactly scope=", name_at)
            scope = _SCOPES.get(tokens[scope_at])
            if scope is None:
                raise stream.error(
                    f"unknown scope {tokens[scope_at]!r}; one of: "
                    + ", ".join(sorted(_SCOPES)),
                    scope_at,
                )
            env.append(SinkNode(name, scope))

        elif tok == "entity":
            name = stream.expect("ident", "an entity name")
            positions[f"{path}/env/{name}"] = name_at
            env.append(EntityNode(name))

        elif tok == "edge":
            name = stream.expect("ident", "an edge id")
            positions[f"{path}/edges/{name}"] = name_at
            positions[f"{path}/knowledge/{name}"] = name_at
            tail = _endpoint(stream)
            stream.expect("->", "'->'")
            head = _endpoint(stream)
            stream.expect("{")
            attrs = _attr_pairs(stream)
            stream.expect("}")
            substance_at = attrs.pop("substance", None)
            capacity_at = attrs.pop("capacity", None)
            strength_at = attrs.pop("strength", None)
            if attrs:
                extra = sorted(attrs)[0]
                raise stream.error(f"unknown edge attribute {extra!r}", attrs[extra])
            if substance_at is None or _kind(tokens[substance_at]) != "ident":
                raise stream.error(f"edge {name!r} needs substance=<identifier>", name_at)
            if capacity_at is None or _kind(tokens[capacity_at]) != "number":
                raise stream.error(f"edge {name!r} needs capacity=<quantity>", name_at)
            strength = 1.0
            if strength_at is not None:
                if _kind(tokens[strength_at]) != "number":
                    raise stream.error("strength must be a quantity", strength_at)
                strength = float(tokens[strength_at])
            know = EdgeKnowledge(float(tokens[capacity_at]), tokens[substance_at], strength)
            edges.append(Edge(name, tail, head, know))

        elif tok == "boundary":
            if boundary is not None:
                raise stream.error("duplicate boundary block", at)
            positions[f"{path}/boundary"] = at
            stream.expect("{")
            allow: frozenset[str] | None = None
            conserve: frozenset[str] = frozenset()
            permitted: frozenset[str] | None = None
            seen: set[str] = set()
            while _kind(tokens[stream.at]) == "ident":
                key_at = stream.at
                key = stream.expect("ident")
                stream.expect("=")
                if key in seen:
                    raise stream.error(f"duplicate boundary attribute {key!r}", key_at)
                seen.add(key)
                if key == "allow":
                    allow = _ident_list(stream)
                elif key == "conserve":
                    conserve = _ident_list(stream)
                elif key == "permitted":
                    permitted = _ident_list(stream)
                else:
                    raise stream.error(f"unknown boundary attribute {key!r}", key_at)
            stream.expect("}")
            boundary = BoundarySpec(allow, conserve, permitted)

        elif tok == "history":
            if history is not None:
                raise stream.error("duplicate history statement", at)
            mode = stream.expect("ident", "'record' or 'null'")
            if mode == "record":
                history = HistoryPolicy.RECORD
            elif mode == "null":
                history = HistoryPolicy.NULL
            else:
                raise stream.error("history must be 'record' or 'null'", name_at)

        elif _kind(tok) != "ident":
            raise stream.error(f"expected a statement, found {tok!r}", at)
        else:
            raise stream.error(
                "expected component/source/sink/entity/edge/boundary/history,"
                f" found {tok!r}",
                at,
            )

    history = history or HistoryPolicy.RECORD
    return SystemSpec(sys_id, level, components, edges, env, boundary or BoundarySpec(), history)


def _position_for(positions: dict[str, int], violation_path: str) -> int | None:
    """Token index of the declaration nearest the violation path, if any."""
    path = violation_path
    while path:
        if path in positions:
            return positions[path]
        if "/" not in path:
            break
        path = path.rsplit("/", 1)[0]
    return None


def _lex_error(tokens: list[str]) -> tuple[int, str] | None:
    """Index and message of the first character that starts no token."""
    for at, tok in enumerate(tokens):
        if _kind(tok) == "bad":
            return at, "unterminated string" if tok == '"' else f"unexpected character {tok!r}"
    return None


def parse(text: str | bytes, *, max_depth: int = DEFAULT_MAX_DEPTH) -> SdlDocument:
    """Parse a description, never raising.

    The document has a root exactly when the text is syntactically well
    formed and the resulting description validates within ``max_depth``;
    otherwise the diagnostics say what failed and where (1-based
    line/column).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            message = f"input is not valid UTF-8: {exc.reason}"
            return SdlDocument(None, (Diagnostic(1, 1, message),))
    positions: dict[str, int] = {}
    errors: list[tuple[int | None, str]]  # (token index or None for offset 0, message)
    stream = _Stream(_TOKEN.findall(text))
    try:
        if not stream.accept("system"):
            found = stream.tokens[0] or "end of input"
            raise stream.error(f"expected 'system', found {found!r}")
        sys_id = _unescape(stream.expect("string", "a quoted system name"))
        positions[sys_id] = 1
        level = _int_value(stream, "level") if stream.accept("level") else 0
        stream.expect("{")
        root = _parse_body(stream, sys_id, level, sys_id, positions)
        stream.expect("}")
        if stream.tokens[stream.at]:
            raise stream.error("unexpected input after the closing brace")
    except (_ParseError, RecursionError) as exc:
        # A token that is no token at all comes before any other error.
        first = _lex_error(stream.tokens)
        if first is not None:
            errors = [first]
        elif isinstance(exc, RecursionError):
            errors = [(None, "input nests too deeply")]
        else:
            errors = [exc.args]
    else:
        report = validate(root, max_depth)
        if report.ok:
            return SdlDocument(root)
        errors = [
            (_position_for(positions, v.path), f"{v.path}: {v.message}")
            for v in report.violations
        ]
    starts = [m.start(1) for m in _TOKEN.finditer(text)]
    newlines = [m.start() for m in re.finditer("\n", text)]
    diagnostics = tuple(
        Diagnostic(*_line_col(newlines, 0 if at is None else starts[at]), message)
        for at, message in errors
    )
    return SdlDocument(None, diagnostics)


def fmt_qty(value: float) -> str:
    """Exact text for a quantity: integral values without a fraction,
    anything else as the shortest repr that reads back to the same float."""
    if float(value).is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def _print_body(spec: SystemSpec, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    for comp in spec.components:
        head = f"component {comp.type_id}"
        if comp.multiplicity != 1:
            head += f" * {comp.multiplicity}"
        if comp.variations:
            head += (
                " variations=["
                + ", ".join(f"{label}:{count}" for label, count in comp.variations)
                + "]"
            )
        if comp.is_atomic:
            lines.append(
                f"{pad}{head} atomic role={comp.body.role.value} tier={comp.body.tier}"
            )
        else:
            lines.append(f"{pad}{head} {{")
            _print_body(comp.body, lines, indent + 1)
            lines.append(f"{pad}}}")
    for node in spec.env_nodes:
        if isinstance(node, SourceNode):
            lines.append(
                f"{pad}source {node.id} rate={fmt_qty(node.rate)}"
                f" substance={node.substance}"
            )
        elif isinstance(node, SinkNode):
            lines.append(f"{pad}sink {node.id} scope={node.scope.value}")
        else:
            lines.append(f"{pad}entity {node.id}")
    for edge in spec.edges:
        know = edge.knowledge
        attrs = f"substance={know.substance} capacity={fmt_qty(know.capacity)}"
        if know.strength != 1.0:
            attrs += f" strength={fmt_qty(know.strength)}"
        lines.append(f"{pad}edge {edge.id} {edge.tail} -> {edge.head} {{ {attrs} }}")
    if spec.boundary != BoundarySpec():
        b = spec.boundary
        parts = []
        if b.allowed_substances is not None:
            parts.append("allow=[" + ", ".join(sorted(b.allowed_substances)) + "]")
        if b.conserved_substances:
            parts.append("conserve=[" + ", ".join(sorted(b.conserved_substances)) + "]")
        if b.permitted_env_ids is not None:
            parts.append("permitted=[" + ", ".join(sorted(b.permitted_env_ids)) + "]")
        lines.append(f"{pad}boundary {{ " + " ".join(parts) + " }")
    if spec.history_policy is HistoryPolicy.NULL:
        lines.append(f"{pad}history null")


def print_spec(spec: SystemSpec) -> str:
    """Render a description in canonical form.

    Declarations come out sorted by id with two-space indentation, and
    defaulted settings are omitted, so equal descriptions print
    identically and the output reparses to an equal description.
    """
    header = f'system "{_escape(spec.id)}"'
    if spec.level:
        header += f" level {spec.level}"
    lines = [header + " {"]
    _print_body(spec, lines, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"
