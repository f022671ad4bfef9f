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
      boundary { allow=[grain] conserve=[grain] frozen=true permitted=[S, M] }
      history null                         # default: record
    }

Comments run from ``#`` to end of line. Identifiers are
``[A-Za-z_][A-Za-z0-9_]*``; quantities are non-negative decimals with an
optional exponent (``1e-09``), and integers of up to 308 digits are
read exactly.
``parse`` is total: any input (including arbitrary bytes) yields a
document whose diagnostics explain what went wrong, and a document has a
root exactly when it has no diagnostics. ``print_spec`` emits the
canonical form (declarations sorted by id, two-space indent), which
reparses to an equal description.

Positions are token offsets into the text; they are turned into 1-based
line and column only for the diagnostics ``parse`` reports.

The textual form has one name per nested system (the component's type
id), so descriptions built in code round-trip exactly when each nested
system's id equals its component type id; the parser always produces
such descriptions.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

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
    make_system,
    validate,
)

__all__ = ["Diagnostic", "SdlDocument", "parse", "print_spec"]

_ROLES = {r.value: r for r in Role}
_SCOPES = {s.value: s for s in Scope}

_TOKEN = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+|\#[^\n]*)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<arrow>->)
    | (?P<punct>[{}\[\]=*,.:])
    | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    line: int
    column: int
    message: str


@dataclass(frozen=True)
class SdlDocument:
    source_name: str
    root: SystemSpec | None
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics


class _ParseError(Exception):
    """A syntax error; ``args`` is (offset, message)."""


class _Token(NamedTuple):
    kind: str  # "number" | "ident" | "string" | "eof" | literal text for punctuation
    text: str
    pos: int  # offset into the text


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        value = m.group()
        if kind == "bad":
            if value == '"':
                raise _ParseError(m.start(), "unterminated string")
            raise _ParseError(m.start(), f"unexpected character {value!r}")
        if kind in ("arrow", "punct"):
            kind = value
        tokens.append(_Token(kind, value, m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _line_col(newlines: list[int], pos: int) -> tuple[int, int]:
    """1-based line and column of offset ``pos`` in a text whose newline
    characters sit at the sorted offsets ``newlines``."""
    line = bisect_left(newlines, pos)
    return line + 1, pos - (newlines[line - 1] if line else -1)


class _Stream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        # Never past eof: next() stops there, and peek(1) follows an identifier.
        return self._tokens[self._pos + ahead]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> _ParseError:
        tok = tok or self.peek()
        return _ParseError(tok.pos, message)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what or kind}, found {tok.text or 'end of input'!r}")
        return self.next()

    def accept(self, kind: str) -> _Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_keyword(self, word: str) -> _Token:
        if not self.at_keyword(word):
            tok = self.peek()
            raise self.error(f"expected {word!r}, found {tok.text or 'end of input'!r}")
        return self.next()


def _unescape(raw: str) -> str:
    return raw[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


_MAX_INT_DIGITS = 308  # integer literals stay below 10**308


def _integer(tok: _Token) -> int | None:
    """The exact integer a number token spells, or None if it is no integer;
    a value of more than ``_MAX_INT_DIGITS`` digits is a syntax error."""
    if tok.kind != "number":
        return None
    text = tok.text
    exact = text.isdecimal()
    if len(text.lstrip("0")) > _MAX_INT_DIGITS if exact else float(text) >= 1e308:
        raise _ParseError(tok.pos, f"integer literal is too large: at most {_MAX_INT_DIGITS} digits")
    if exact:
        return int(text)
    value = float(text)
    return int(value) if value.is_integer() else None


def _int_value(stream: _Stream, what: str) -> int:
    tok = stream.expect("number", f"an integer {what}")
    value = _integer(tok)
    if value is None:
        raise stream.error(f"{what} must be an integer, got {tok.text}", tok)
    return value


def _endpoint(stream: _Stream) -> str:
    base = stream.expect("ident", "an endpoint").text
    if stream.accept("."):
        port = stream.expect("ident", "a port name").text
        return f"{base}.{port}"
    return base


def _ident_list(stream: _Stream) -> frozenset[str]:
    stream.expect("[")
    items: list[str] = []
    if stream.peek().kind != "]":
        items.append(stream.expect("ident", "an identifier").text)
        while stream.accept(","):
            items.append(stream.expect("ident", "an identifier").text)
    stream.expect("]")
    return frozenset(items)


def _attr_pairs(stream: _Stream) -> dict[str, _Token]:
    """key=value pairs up to the next non-assignment token."""
    pairs: dict[str, _Token] = {}
    while stream.peek().kind == "ident" and stream.peek(1).kind == "=":
        key = stream.next()
        stream.expect("=")
        value = stream.next()
        if key.text in pairs:
            raise stream.error(f"duplicate attribute {key.text!r}", key)
        pairs[key.text] = value
    return pairs


def _parse_body(
    stream: _Stream,
    sys_id: str,
    level: int,
    path: str,
    positions: dict[str, int],
) -> SystemSpec:
    components: list[ComponentDecl] = []
    env: list[EnvNode] = []
    edges: list[tuple[Edge, EdgeKnowledge]] = []
    boundary: BoundarySpec | None = None
    history: HistoryPolicy | None = None

    while True:
        tok = stream.peek()
        if tok.kind in ("}", "eof"):
            break
        if tok.kind != "ident":
            raise stream.error(f"expected a statement, found {tok.text!r}")

        if tok.text == "component":
            stream.next()
            name_tok = stream.expect("ident", "a component name")
            positions[f"{path}/{name_tok.text}"] = name_tok.pos
            multiplicity = 1
            if stream.accept("*"):
                multiplicity = _int_value(stream, "multiplicity")
            variations: list[tuple[str, int]] = []
            if stream.at_keyword("variations"):
                stream.next()
                stream.expect("=")
                stream.expect("[")
                while True:
                    label = stream.expect("ident", "a variation label").text
                    stream.expect(":")
                    variations.append((label, _int_value(stream, "variation count")))
                    if not stream.accept(","):
                        break
                stream.expect("]")
            if stream.at_keyword("atomic"):
                stream.next()
                attrs = _attr_pairs(stream)
                role_tok = attrs.pop("role", None)
                tier_tok = attrs.pop("tier", None)
                if attrs:
                    extra = sorted(attrs)[0]
                    raise stream.error(f"unknown atomic attribute {extra!r}", attrs[extra])
                if role_tok is None or tier_tok is None:
                    raise stream.error(
                        f"atomic component {name_tok.text!r} needs role= and tier=",
                        name_tok,
                    )
                role = _ROLES.get(role_tok.text)
                if role is None:
                    raise stream.error(
                        f"unknown role {role_tok.text!r}; one of: "
                        + ", ".join(sorted(_ROLES)),
                        role_tok,
                    )
                tier = _integer(tier_tok)
                if tier is None:
                    raise stream.error("tier must be an integer", tier_tok)
                body: Atomic | SystemSpec = Atomic(role, tier)
            elif stream.peek().kind == "{":
                stream.next()
                body = _parse_body(
                    stream,
                    name_tok.text,
                    level + 1,
                    f"{path}/{name_tok.text}",
                    positions,
                )
                stream.expect("}")
            else:
                raise stream.error(
                    "expected 'atomic' or a nested body after the component name"
                )
            components.append(
                ComponentDecl(name_tok.text, body, multiplicity, tuple(variations))
            )

        elif tok.text == "source":
            stream.next()
            name_tok = stream.expect("ident", "a source name")
            positions[f"{path}/env/{name_tok.text}"] = name_tok.pos
            attrs = _attr_pairs(stream)
            rate_tok = attrs.pop("rate", None)
            substance_tok = attrs.pop("substance", None)
            if attrs or rate_tok is None or substance_tok is None:
                raise stream.error(
                    f"source {name_tok.text!r} takes exactly rate= and substance=",
                    name_tok,
                )
            if rate_tok.kind != "number":
                raise stream.error("rate must be a quantity", rate_tok)
            if substance_tok.kind != "ident":
                raise stream.error("substance must be an identifier", substance_tok)
            env.append(SourceNode(name_tok.text, float(rate_tok.text), substance_tok.text))

        elif tok.text == "sink":
            stream.next()
            name_tok = stream.expect("ident", "a sink name")
            positions[f"{path}/env/{name_tok.text}"] = name_tok.pos
            attrs = _attr_pairs(stream)
            scope_tok = attrs.pop("scope", None)
            if attrs or scope_tok is None:
                raise stream.error(f"sink {name_tok.text!r} takes exactly scope=", name_tok)
            scope = _SCOPES.get(scope_tok.text)
            if scope is None:
                raise stream.error(
                    f"unknown scope {scope_tok.text!r}; one of: " + ", ".join(sorted(_SCOPES)),
                    scope_tok,
                )
            env.append(SinkNode(name_tok.text, scope))

        elif tok.text == "entity":
            stream.next()
            name_tok = stream.expect("ident", "an entity name")
            positions[f"{path}/env/{name_tok.text}"] = name_tok.pos
            env.append(EntityNode(name_tok.text))

        elif tok.text == "edge":
            stream.next()
            name_tok = stream.expect("ident", "an edge id")
            positions[f"{path}/edges/{name_tok.text}"] = name_tok.pos
            positions[f"{path}/knowledge/{name_tok.text}"] = name_tok.pos
            tail = _endpoint(stream)
            stream.expect("->", "'->'")
            head = _endpoint(stream)
            stream.expect("{")
            attrs = _attr_pairs(stream)
            stream.expect("}")
            substance_tok = attrs.pop("substance", None)
            capacity_tok = attrs.pop("capacity", None)
            strength_tok = attrs.pop("strength", None)
            if attrs:
                extra = sorted(attrs)[0]
                raise stream.error(f"unknown edge attribute {extra!r}", attrs[extra])
            if substance_tok is None or substance_tok.kind != "ident":
                raise stream.error(
                    f"edge {name_tok.text!r} needs substance=<identifier>", name_tok
                )
            if capacity_tok is None or capacity_tok.kind != "number":
                raise stream.error(
                    f"edge {name_tok.text!r} needs capacity=<quantity>", name_tok
                )
            strength = 1.0
            if strength_tok is not None:
                if strength_tok.kind != "number":
                    raise stream.error("strength must be a quantity", strength_tok)
                strength = float(strength_tok.text)
            edges.append(
                (
                    Edge(name_tok.text, tail, head),
                    EdgeKnowledge(float(capacity_tok.text), substance_tok.text, strength),
                )
            )

        elif tok.text == "boundary":
            if boundary is not None:
                raise stream.error("duplicate boundary block")
            positions[f"{path}/boundary"] = tok.pos
            stream.next()
            stream.expect("{")
            allow: frozenset[str] | None = None
            conserve: frozenset[str] = frozenset()
            frozen = True
            permitted: frozenset[str] | None = None
            seen: set[str] = set()
            while stream.peek().kind == "ident":
                key = stream.next()
                stream.expect("=")
                if key.text in seen:
                    raise stream.error(f"duplicate boundary attribute {key.text!r}", key)
                seen.add(key.text)
                if key.text == "allow":
                    allow = _ident_list(stream)
                elif key.text == "conserve":
                    conserve = _ident_list(stream)
                elif key.text == "permitted":
                    permitted = _ident_list(stream)
                elif key.text == "frozen":
                    flag = stream.expect("ident", "true or false")
                    if flag.text not in ("true", "false"):
                        raise stream.error("frozen must be true or false", flag)
                    frozen = flag.text == "true"
                else:
                    raise stream.error(f"unknown boundary attribute {key.text!r}", key)
            stream.expect("}")
            boundary = BoundarySpec(allow, conserve, frozen, permitted)

        elif tok.text == "history":
            if history is not None:
                raise stream.error("duplicate history statement")
            stream.next()
            mode = stream.expect("ident", "'record' or 'null'")
            if mode.text == "record":
                history = HistoryPolicy.RECORD
            elif mode.text == "null":
                history = HistoryPolicy.NULL
            else:
                raise stream.error("history must be 'record' or 'null'", mode)

        else:
            raise stream.error(
                f"expected component/source/sink/entity/edge/boundary/history,"
                f" found {tok.text!r}"
            )

    return make_system(
        sys_id,
        level=level,
        components=components,
        edges=edges,
        env=env,
        boundary=boundary or BoundarySpec(),
        history=history or HistoryPolicy.RECORD,
    )


def _position_for(positions: dict[str, int], violation_path: str) -> int:
    """Offset of the declaration nearest the violation path, else 0."""
    path = violation_path
    while path:
        if path in positions:
            return positions[path]
        if "/" not in path:
            break
        path = path.rsplit("/", 1)[0]
    return 0


def parse(
    text: str | bytes,
    source_name: str = "<sdl>",
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SdlDocument:
    """Parse a description, never raising.

    The document has a root exactly when the text is syntactically well
    formed and the resulting description validates; otherwise the
    diagnostics say what failed and where (1-based line/column).
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            return SdlDocument(
                source_name,
                None,
                (Diagnostic("error", 1, 1, f"input is not valid UTF-8: {exc.reason}"),),
            )
    positions: dict[str, int] = {}
    errors: list[tuple[int, str]]  # (offset, message)
    try:
        stream = _Stream(_lex(text))
        stream.expect_keyword("system")
        name_tok = stream.expect("string", "a quoted system name")
        sys_id = _unescape(name_tok.text)
        positions[sys_id] = name_tok.pos
        level = 0
        if stream.at_keyword("level"):
            stream.next()
            level = _int_value(stream, "level")
        stream.expect("{")
        root = _parse_body(stream, sys_id, level, sys_id, positions)
        stream.expect("}")
        if stream.peek().kind != "eof":
            raise stream.error("unexpected input after the closing brace")
    except _ParseError as exc:
        errors = [exc.args]
    except RecursionError:
        errors = [(0, "input nests too deeply")]
    else:
        report = validate(root, max_depth)
        if report.ok:
            return SdlDocument(source_name, root, ())
        errors = [
            (_position_for(positions, v.path), f"{v.path}: {v.message}")
            for v in report.violations
        ]
    newlines = [m.start() for m in re.finditer("\n", text)]
    diagnostics = tuple(
        Diagnostic("error", *_line_col(newlines, pos), message) for pos, message in errors
    )
    return SdlDocument(source_name, None, diagnostics)


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
    for node in spec.interface.env_nodes:
        if isinstance(node, SourceNode):
            lines.append(
                f"{pad}source {node.id} rate={fmt_qty(node.rate)}"
                f" substance={node.substance}"
            )
        elif isinstance(node, SinkNode):
            lines.append(f"{pad}sink {node.id} scope={node.scope.value}")
        else:
            lines.append(f"{pad}entity {node.id}")
    know = spec.knowledge_map()
    for edge in spec.all_edges():
        entry = know.get(edge.id)
        attrs = ""
        if entry is not None:
            attrs = f" substance={entry.substance} capacity={fmt_qty(entry.capacity)}"
            if entry.strength != 1.0:
                attrs += f" strength={fmt_qty(entry.strength)}"
            attrs += " "
        lines.append(f"{pad}edge {edge.id} {edge.tail} -> {edge.head} {{{attrs}}}")
    if spec.boundary != BoundarySpec():
        b = spec.boundary
        parts = []
        if b.allowed_substances is not None:
            parts.append("allow=[" + ", ".join(sorted(b.allowed_substances)) + "]")
        if b.conserved_substances:
            parts.append("conserve=[" + ", ".join(sorted(b.conserved_substances)) + "]")
        if not b.frozen_component_types:
            parts.append("frozen=false")
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
