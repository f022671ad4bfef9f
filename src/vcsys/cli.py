"""Batch command-line front end.

Results go to stdout (or --output), diagnostics to stderr, so commands
compose in pipelines. Exit codes: 0 success, 1 findings treated as
failures (--strict) or an unusable model, 2 usage errors, 3 I/O errors.
Every command reads standard input when the file argument is ``-``. The
``VCSYS_MAX_DEPTH`` environment variable overrides the nesting limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from . import analysis as ana
from . import sim
from .export import export_dot, export_json, flat_graph_json
from .flatten import FlatGraph, flatten
from .model import DEFAULT_MAX_DEPTH, HistoryPolicy, SinkNode, SourceNode, VcsysError, depth
from .sdl import SdlDocument, fmt_qty, parse

_EXIT_OK = 0
_EXIT_FINDINGS = 1
_EXIT_USAGE = 2
_EXIT_IO = 3


def _emit(text: str, output: str | None) -> None:
    text += "" if text.endswith("\n") else "\n"
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fp:
            fp.write(text)


def _print_diagnostics(path: str, doc: SdlDocument) -> None:
    for diag in doc.diagnostics:
        sys.stderr.write(f"{path}:{diag.line}:{diag.column}: error: {diag.message}\n")


def _load(path: str, max_depth: int) -> SdlDocument:
    if path == "-":
        return parse(sys.stdin.read(), max_depth=max_depth)
    with open(path, "r", encoding="utf-8") as fp:
        return parse(fp.read(), max_depth=max_depth)


def _json_dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2)


def _state_json(state: sim.SimulationState) -> dict[str, Any]:
    def nested(flat_map: dict[tuple[str, str], float]) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for (node, substance), value in sorted(flat_map.items()):
            out.setdefault(node, {})[substance] = value
        return out

    return {
        "tick": state.tick,
        "stocks": nested(state.stocks),
        "sink_received": nested(state.sink_received),
    }


def _flat_text(flat: FlatGraph) -> str:
    lines = []
    for node in flat.nodes:
        where = f" path={'/'.join(node.path)}" if node.path else ""
        variation = f" variation={node.variation}" if node.variation else ""
        lines.append(f"node {node.id} role={node.role.value} tier={node.tier}{where}{variation}")
    for env in flat.env_nodes:
        if isinstance(env, SourceNode):
            lines.append(f"env {env.id} source rate={fmt_qty(env.rate)} substance={env.substance}")
        elif isinstance(env, SinkNode):
            lines.append(f"env {env.id} sink scope={env.scope.value}")
        else:
            lines.append(f"env {env.id} entity")
    for edge in flat.edges:
        know = edge.knowledge
        lines.append(
            f"edge {edge.id} {edge.tail} -> {edge.head}"
            f" {know.substance} cap={fmt_qty(know.capacity)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _cmd_validate(args: argparse.Namespace, max_depth: int) -> int:
    doc = _load(args.file, max_depth)
    result = {
        "ok": doc.ok,
        "diagnostics": [{"severity": "error", **vars(d)} for d in doc.diagnostics],
    }
    _emit(_json_dumps(result), args.output)
    if doc.ok:
        sys.stderr.write("OK\n")
        return _EXIT_OK
    sys.stderr.write(f"INVALID: {len(doc.diagnostics)} finding(s)\n")
    _print_diagnostics(args.file, doc)
    return _EXIT_FINDINGS if args.strict else _EXIT_OK


def _require_model(args: argparse.Namespace, max_depth: int) -> SdlDocument:
    doc = _load(args.file, max_depth)
    if doc.root is None:
        _print_diagnostics(args.file, doc)
        raise SystemExit(_EXIT_FINDINGS)
    return doc


def _cmd_inspect(args: argparse.Namespace, max_depth: int) -> int:
    doc = _require_model(args, max_depth)
    spec = doc.root
    flat = flatten(spec, max_depth)
    summary = {
        "id": spec.id,
        "level": spec.level,
        "depth": depth(spec, max_depth),
        "history_policy": spec.history_policy.value,
        "components": [
            {
                "type": comp.type_id,
                "multiplicity": comp.multiplicity,
                "kind": "atomic" if comp.is_atomic else "subsystem",
            }
            for comp in spec.components
        ],
        "edges": len(spec.edges),
        "env_nodes": len(spec.env_nodes),
        "flat": {
            "nodes": len(flat.nodes),
            "edges": len(flat.edges),
            "env_nodes": len(flat.env_nodes),
        },
    }
    _emit(_json_dumps(summary), args.output)
    return _EXIT_OK


def _cmd_flatten(args: argparse.Namespace, max_depth: int) -> int:
    doc = _require_model(args, max_depth)
    flat = flatten(doc.root, max_depth)
    if args.json:
        _emit(_json_dumps(flat_graph_json(flat)), args.output)
    else:
        _emit(_flat_text(flat), args.output)
    return _EXIT_OK


def _cmd_simulate(args: argparse.Namespace, max_depth: int) -> int:
    if args.steps < 0:
        sys.stderr.write("--steps must be non-negative\n")
        return _EXIT_USAGE
    doc = _require_model(args, max_depth)
    flat = flatten(doc.root, max_depth)
    state, log = sim.run(flat, args.steps)
    if args.log is not None:
        sim.write_log(log, args.log)
    _emit(_json_dumps(_state_json(state)), args.output)
    exit_code = _EXIT_OK
    if flat.conserved and flat.history_policy is HistoryPolicy.RECORD:
        report = sim.conservation_check(flat, state, log)
        for entry in report.entries:
            if not entry.ok:
                sys.stderr.write(
                    f"conservation violated for {entry.substance}:"
                    f" emitted={entry.emitted} held={entry.in_stock}"
                    f" delivered={entry.delivered} error={entry.error}\n"
                )
        if not report.ok and args.strict:
            exit_code = _EXIT_FINDINGS
    return exit_code


def _cmd_analyze(args: argparse.Namespace, max_depth: int) -> int:
    if args.threshold is not None and args.metric != "weak":
        sys.stderr.write("--threshold applies only to --metric weak\n")
        return _EXIT_USAGE
    doc = _require_model(args, max_depth)
    flat = flatten(doc.root, max_depth)
    findings = False
    payload: Any
    if args.metric == "linkages":
        payload = {
            edge_id: cls.value
            for edge_id, cls in sorted(ana.classify_linkages(flat).items())
        }
    elif args.metric == "governance":
        scores = ana.governance_centrality(flat)
        payload = [{"node": s.node, "score": s.score} for s in scores]
        has_markets = any(isinstance(n, SinkNode) for n in flat.env_nodes)
        if has_markets and scores and all(s.score == 0.0 for s in scores):
            sys.stderr.write("no end market is reachable from any source\n")
            findings = True
    elif args.metric == "reachability":
        payload = {
            node: sorted(sinks)
            for node, sinks in sorted(ana.end_market_reachability(flat).items())
        }
    elif args.metric == "weak":
        try:
            threshold = 0.0 if args.threshold is None else args.threshold
            report = ana.weak_linkage_report(flat, threshold)
        except ValueError as exc:
            sys.stderr.write(f"--threshold: {exc}\n")
            return _EXIT_USAGE
        payload = {
            "threshold": report.threshold,
            "weak": [{"edge": w.edge, "capacity": w.capacity} for w in report.weak],
            "missing": [list(pair) for pair in report.missing],
        }
        findings = not report.clean
    else:  # value_added
        payload = dict(sorted(ana.value_added_profile(flat).items()))
    _emit(_json_dumps(payload), args.output)
    if findings and args.strict:
        return _EXIT_FINDINGS
    return _EXIT_OK


def _cmd_export(args: argparse.Namespace, max_depth: int) -> int:
    doc = _require_model(args, max_depth)
    if args.format == "dot":
        _emit(export_dot(flatten(doc.root, max_depth)), args.output)
    else:
        _emit(_json_dumps(export_json(doc.root)), args.output)
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcsys",
        description="Model, simulate and analyze hierarchical value-chain systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("file", help="description file (.vcs), or - for stdin")
        sub.add_argument("--output", "-o", default=None, help="write results here instead of stdout")

    sub = commands.add_parser("validate", help="check a description and report findings")
    common(sub)
    sub.add_argument("--strict", action="store_true", help="exit 1 when findings exist")
    sub.set_defaults(func=_cmd_validate)

    sub = commands.add_parser("inspect", help="summarize a description")
    common(sub)
    sub.set_defaults(func=_cmd_inspect)

    sub = commands.add_parser("flatten", help="expand to the atomic-level graph")
    common(sub)
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.set_defaults(func=_cmd_flatten)

    sub = commands.add_parser("simulate", help="run the flow dynamics")
    common(sub)
    sub.add_argument("--steps", type=int, required=True, help="number of ticks")
    sub.add_argument("--log", default=None, help="write the history log here (JSONL)")
    sub.add_argument("--strict", action="store_true", help="exit 1 on conservation findings")
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser("analyze", help="structural and dynamic diagnostics")
    common(sub)
    sub.add_argument(
        "--metric",
        required=True,
        choices=["linkages", "governance", "reachability", "weak", "value_added"],
    )
    sub.add_argument("--threshold", type=float, help="weak-linkage capacity threshold")
    sub.add_argument("--strict", action="store_true", help="exit 1 when findings exist")
    sub.set_defaults(func=_cmd_analyze)

    sub = commands.add_parser("export", help="render as DOT or JSON")
    common(sub)
    sub.add_argument("--format", required=True, choices=["dot", "json"])
    sub.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        max_depth = int(os.environ.get("VCSYS_MAX_DEPTH", DEFAULT_MAX_DEPTH))
        if max_depth < 0:
            raise ValueError
    except ValueError:
        sys.stderr.write("VCSYS_MAX_DEPTH must be a non-negative integer\n")
        return _EXIT_USAGE
    try:
        return args.func(args, max_depth)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return _EXIT_IO
    except VcsysError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_FINDINGS
    except RecursionError:
        sys.stderr.write("error: the model nests too deeply for this command\n")
        return _EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
