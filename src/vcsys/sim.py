"""Deterministic discrete-time flow dynamics with a replayable history.

Each tick is a synchronous update: every flow is computed from the
start-of-tick stocks and then applied, so the result does not depend on
any evaluation order. Sources push ``min(rate, edge capacity)`` onto each
of their edges; an actor's out-edges move up to their capacity, and when
several edges want the same substance from a stock that cannot cover them
all, the stock is split proportionally to capacities. For whole-number
stocks and capacities the split uses largest-remainder rounding (ties to
the ascending edge id), which keeps every quantity an integer and makes
conservation exact rather than approximate.

Runs append one record per positive flow to the history unless the model
was declared with a null history policy, in which case the trajectory is
identical but nothing is remembered. A record names a tick, an edge and
an amount; a log's header names the model by its hash, which pins down
everything else, and the number of ticks. A history replays against its
model to the final state bit for bit, one tick at a time in the order
it was written; a log whose ticks go down is refused. After each tick of
a run or a replay, a stock or delivery counter that is not finite raises
:class:`VcsysError` and a stock below zero :class:`NegativeStock`;
``step`` refuses a state that no run can reach.

Every entry point reads one plan of a graph's edges, and the graph's hash
is computed once: both are kept on the graph and dropped with it. The
plan also gives each stock and delivery counter a slot and ranks the
flows by edge id, so ``run`` keeps its whole state in one list of floats
and builds the state's dicts once, at the end; ``step`` and ``replay``
work on the dicts. Both apply a tick's flows in edge-id order, so their
float sums agree bit for bit.

Each log line is exactly ``json.dumps`` of the header's or the record's
fields with its defaults: keys in field order, ``", "`` and ``": "`` as
separators, ASCII-only strings, and ``NaN``/``Infinity`` for non-finite
amounts. ``write_log`` formats plain records directly and ``read_log``
matches lines of exactly that shape with one regular expression; any
other line goes through ``json.loads``, so the reader accepts any JSON
object lines that pass its type checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, replace
from itertools import chain, groupby
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .export import flat_graph_json
from .flatten import FlatGraph
from .model import HistoryPolicy, SinkNode, SourceNode, VcsysError, _memo

__all__ = [
    "InconsistentState",
    "HashMismatch",
    "NegativeStock",
    "NullHistory",
    "TransitionRecord",
    "LogHeader",
    "HistoryLog",
    "SimulationState",
    "model_hash",
    "init_state",
    "step",
    "run",
    "replay",
    "ConservationEntry",
    "ConservationReport",
    "conservation_check",
    "write_log",
    "read_log",
]


class InconsistentState(VcsysError):
    """State or history references nodes or edges the model does not have."""


class HashMismatch(VcsysError):
    """The history was recorded against a different model."""


class NegativeStock(VcsysError):
    """Applying a history drove a stock below zero: the log is corrupt."""


class NullHistory(VcsysError):
    """The requested operation needs records, but the history is null."""


@dataclass(frozen=True, slots=True)
class TransitionRecord:
    """One flow event: at `tick`, `amount` moved along `edge`."""

    tick: int
    edge: str
    amount: float


@dataclass(frozen=True)
class LogHeader:
    """The model a history was recorded against, and its number of ticks."""

    model_hash: str
    steps: int


@dataclass(frozen=True)
class HistoryLog:
    header: LogHeader
    records: tuple[TransitionRecord, ...] = ()


@dataclass(frozen=True)
class SimulationState:
    """Stocks per (actor, substance) and cumulative deliveries per end market."""

    tick: int
    stocks: dict[tuple[str, str], float]
    sink_received: dict[tuple[str, str], float]


@_memo
def model_hash(flat: FlatGraph) -> str:
    """Stable content hash of a flattened graph."""
    payload = json.dumps(flat_graph_json(flat), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _Route(NamedTuple):
    """Where a flow along one edge goes; a key is None where no stock is kept."""

    id: str
    substance: str
    most: float  # the most a run moves along the edge in one tick
    draw: tuple[str, str] | None  # the actor stock it empties
    fill: tuple[str, str] | None  # the actor stock it fills
    sink: tuple[str, str] | None  # the end-market counter it feeds


_Flow = tuple[_Route, float]
_Stocks = dict[tuple[str, str], float]


class _Plan:
    """A flattened graph's edges, classified once for all ticks.

    ``sources`` are the constant source flows. ``groups`` holds, per
    (tail, substance) stock in key order, its full-capacity flows sorted
    by edge id, their summed capacity and whether all are whole numbers.

    For ``run`` the plan also numbers the state: ``keys`` lists every stock
    key, then every delivery counter key, in ``zero_state``'s order, and a
    key's slot is its index there. One more slot, never checked, is the
    environment: source flows draw on it, and a flow with nowhere to go
    fills it. The flows are ranked by edge id: rank ``i`` moves along edge
    ``ids[i]`` from slot ``draws[i]`` into slot ``targets[i]``, and
    ``source_amounts[i]`` is its constant source amount, or zero for a
    flow drawing on a stock. ``slot_groups`` holds, per group in order, the
    slot it draws on, the rank of each of its flows, and the group, its
    summed capacity and its integrality as ``_ration`` takes them; a group
    whose stock has no slot never flows and is left out.
    """

    def __init__(self, flat: FlatGraph) -> None:
        env = flat.env_by_id
        internal = flat.nodes_by_id
        self.routes: dict[str, _Route] = {}
        self.sources: list[_Flow] = []
        contenders: dict[tuple[str, str], list[_Flow]] = {}
        for edge in flat.edges:
            substance, capacity = edge.knowledge.substance, edge.knowledge.capacity
            tail_env, head_env = env.get(edge.tail), env.get(edge.head)
            sink = (edge.head, substance) if isinstance(head_env, SinkNode) else None
            most = 0.0
            # Entities carry nothing; sources and sinks are one-way, so a
            # flow may end in the environment only at a sink.
            if capacity > 0 and (head_env is None or sink is not None):
                if isinstance(tail_env, SourceNode):
                    # The environment is not modeled: each source edge fills
                    # up to capacity, but only with the source's own substance.
                    if substance == tail_env.substance:
                        most = min(tail_env.rate, capacity)
                elif tail_env is None:  # edges drawing on one stock contend for it
                    most = capacity
            route = self.routes[edge.id] = _Route(
                edge.id,
                substance,
                most,
                (edge.tail, substance) if edge.tail in internal else None,
                (edge.head, substance) if edge.head in internal else None,
                sink,
            )
            if most > 0 and tail_env is None:
                contenders.setdefault((edge.tail, substance), []).append((route, most))
            elif most > 0:
                self.sources.append((route, most))
        self.groups = []
        for key, flows in sorted(contenders.items()):
            group = sorted(flows, key=_by_id)
            caps = [cap for _, cap in group]
            self.groups.append((key, group, sum(caps), all(c.is_integer() for c in caps)))
        zero = self.zero_state()
        self.keys = [*zero.stocks, *zero.sink_received]
        self.stock_count = len(zero.stocks)
        slot = {key: i for i, key in enumerate(self.keys)}
        environment = len(self.keys)
        contending = (flow for _, group, _, _ in self.groups for flow in group)
        ranked = sorted(chain(self.sources, contending), key=_by_id)
        self.ids = [route.id for route, _ in ranked]
        self.rank = {edge: i for i, edge in enumerate(self.ids)}
        self.draws = [slot.get(route.draw, environment) for route, _ in ranked]
        self.targets = [slot.get(route.fill or route.sink, environment) for route, _ in ranked]
        self.source_amounts = [0.0] * len(ranked)
        for route, most in self.sources:
            self.source_amounts[self.rank[route.id]] = most
        # A group drawing on a node the graph lacks has no stock and never flows.
        self.slot_groups = [
            (slot[key], [self.rank[route.id] for route, _ in group], group, wanted, integral)
            for key, group, wanted, integral in self.groups
            if key in slot
        ]

    def zero_state(self) -> SimulationState:
        routes = self.routes.values()
        stocks = dict.fromkeys((k for r in routes for k in (r.draw, r.fill) if k), 0.0)
        received = dict.fromkeys((r.sink for r in routes if r.sink), 0.0)
        return SimulationState(0, stocks, received)

    def tables(self, values: list[float]) -> tuple[_Stocks, _Stocks]:
        """The stocks and the delivery counters that slot values hold."""
        held = self.stock_count
        return dict(zip(self.keys, values[:held])), dict(zip(self.keys[held:], values[held:-1]))


_plan = _memo(_Plan)  # one plan per graph, for every entry point


def _by_id(flow: _Flow) -> str:
    return flow[0].id


def init_state(flat: FlatGraph) -> SimulationState:
    """Tick zero: every stock and every delivery counter at zero.

    Keys exist for each (node, substance) combination an incident edge can
    touch, so states from a run and from a replay carry identical key sets.
    """
    return _plan(flat).zero_state()


def _ration(pool: float, group: list[_Flow], total: float, integral: bool) -> list[_Flow]:
    """Split `pool` over competing flows proportionally to capacity.

    Integer pools with integer capacities stay integral: floor shares plus
    one leftover unit each to the largest remainders, ties broken by
    ascending edge id.
    """
    if pool.is_integer() and integral:
        pool_i, total_i = int(pool), int(total)
        base = [(pool_i * int(cap)) // total_i for _, cap in group]
        rems = [(pool_i * int(cap)) % total_i for _, cap in group]
        order = sorted(range(len(group)), key=lambda i: (-rems[i], group[i][0].id))
        for i in order[: pool_i - sum(base)]:
            base[i] += 1
        return [(group[i][0], float(share)) for i, share in enumerate(base) if share > 0]
    return [
        (route, pool * cap / total) for route, cap in group if pool * cap / total > 0
    ]


def _advance(flows: Iterable[_Flow], stocks: _Stocks, received: _Stocks, tick: int) -> None:
    """Move each flow out of its drawn stock and into its target, in order;
    then refuse the state the tick left: a value not finite or below zero."""
    for route, amount in flows:
        if route.draw is not None:
            stocks[route.draw] = stocks.get(route.draw, 0.0) - amount
        if route.fill is not None:
            stocks[route.fill] = stocks.get(route.fill, 0.0) + amount
        elif route.sink is not None:
            received[route.sink] = received.get(route.sink, 0.0) + amount
    # A sum and a min per table catch any inf, nan or negative; only then is each value read.
    for what, table in (("stock", stocks), ("delivery counter", received)):
        if not math.isfinite(sum(table.values())) or min(table.values(), default=0.0) < 0:
            for key, value in table.items():
                if not math.isfinite(value):
                    raise VcsysError(f"tick {tick}: {what} {key} overflowed to {value}")
                if value < 0:
                    raise NegativeStock(f"tick {tick}: {what} {key} fell to {value}")


def _tick(plan: _Plan, stocks: _Stocks, received: _Stocks, tick: int) -> list[_Flow]:
    """Advance `stocks` and `received` one tick in place; returns the flows.

    Every flow is computed from the start-of-tick stocks before any is
    applied, and flows are applied and returned in edge-id order.
    """
    flows = list(plan.sources)
    for key, group, wanted, integral in plan.groups:
        pool = stocks.get(key, 0.0)
        if wanted <= pool:
            flows.extend(group)
        elif pool > 0:
            flows.extend(_ration(pool, group, wanted, integral))
    flows.sort(key=_by_id)
    _advance(flows, stocks, received, tick)
    return flows


def step(
    state: SimulationState, flat: FlatGraph
) -> tuple[SimulationState, list[TransitionRecord]]:
    """Advance one tick; returns the new state and the positive-flow records.

    A stock key the state lacks counts as zero. The tick must be a
    non-negative int, as ``run``'s ``steps`` must.
    """
    if type(state.tick) is not int or state.tick < 0:
        raise InconsistentState(f"tick {state.tick!r} is not a non-negative int")
    stocks = _float_copy("stock", state.stocks)
    received = _float_copy("delivery counter", state.sink_received)
    for node, _ in stocks:
        if node not in flat.nodes_by_id:
            raise InconsistentState(f"stocked node {node!r} is not in the model")
    for sink, _ in received:
        if not isinstance(flat.env_by_id.get(sink), SinkNode):
            raise InconsistentState(f"delivery counter {sink!r} is not a sink")
    flows = _tick(_plan(flat), stocks, received, state.tick)
    records = [TransitionRecord(state.tick, r.id, a) for r, a in flows]
    return SimulationState(state.tick + 1, stocks, received), records


def _float_copy(what: str, table: _Stocks) -> _Stocks:
    """A state's table with float values, or InconsistentState naming a key
    that is not a (node, substance) pair or whose value is not a finite
    non-negative number."""
    for key, value in table.items():
        if type(key) is not tuple or len(key) != 2:
            raise InconsistentState(f"{what} key {key!r} is not a (node, substance) pair")
        if type(value) not in (int, float) or not 0 <= value < math.inf:
            raise InconsistentState(f"{what} {key} is {value!r}, not a finite quantity >= 0")
    return {key: float(value) for key, value in table.items()}


def run(flat: FlatGraph, steps: int) -> tuple[SimulationState, HistoryLog]:
    """Run `steps` ticks from a zero state.

    With a null history policy the trajectory is the same but the log
    stays empty. Raises :class:`VcsysError` on the first tick after which
    a stock or a delivery counter is no longer finite.
    """
    if type(steps) is not int or steps < 0:
        raise ValueError(f"steps must be non-negative and an int, got {steps!r}")
    plan = _plan(flat)
    held, rank, ids = plan.stock_count, plan.rank, plan.ids
    values = [0.0] * (len(plan.keys) + 1)  # one slot per key, then the environment's
    collected: list[TransitionRecord] = []
    recording = flat.history_policy is HistoryPolicy.RECORD
    for tick in range(steps):
        # _tick's flows, each at its rank, applied in rank order as _advance does.
        amounts = plan.source_amounts.copy()
        for slot, ranks, group, wanted, integral in plan.slot_groups:
            pool = values[slot]
            if wanted <= pool:
                for i, (_, cap) in zip(ranks, group):
                    amounts[i] = cap
            elif pool > 0:
                for route, share in _ration(pool, group, wanted, integral):
                    amounts[rank[route.id]] = share
        for draw, target, amount in zip(plan.draws, plan.targets, amounts):
            if amount:
                values[draw] -= amount
                values[target] += amount
        # _advance's check, on the slots; only a failure needs the keys for its message.
        for table in (values[:held], values[held:-1]):
            if not math.isfinite(sum(table)) or min(table, default=0.0) < 0:
                _advance((), *plan.tables(values), tick)
        if recording:
            collected.extend(TransitionRecord(tick, ids[i], a) for i, a in enumerate(amounts) if a)
    header = LogHeader(model_hash(flat), steps)
    return SimulationState(steps, *plan.tables(values)), HistoryLog(header, tuple(collected))


def replay(flat: FlatGraph, log: HistoryLog) -> SimulationState:
    """Reapply a recorded history to reproduce the run's final state.

    One pass in log order checks and applies each tick's records in turn.
    Every record must name an edge of the model, fall inside the logged
    ticks, come no earlier than the record before it and move a positive
    amount no larger than a run moves along that edge in one tick: the
    source's amount on a source edge, the capacity on an edge drawing on
    an actor's stock, and nothing on any other.
    """
    if log.header.model_hash != model_hash(flat):
        raise HashMismatch("history was recorded against a different model")
    if flat.history_policy is HistoryPolicy.NULL:
        raise NullHistory("a null history has no records to replay")
    plan = _plan(flat)
    end = log.header.steps
    state, last = plan.zero_state(), 0
    for tick, records in groupby(log.records, lambda record: record.tick):
        flows = []
        for record in records:
            try:
                route = plan.routes[record.edge]
            except (KeyError, TypeError):  # an unhashable edge names no edge either
                raise InconsistentState(f"record references unknown edge {record.edge!r}") from None
            if not 0 <= record.tick < end:
                problem = f"lies outside ticks [0, {end})"
            elif record.tick < last:
                problem = f"comes after tick {last}"
            elif not 0 < record.amount <= route.most:
                problem = f"has amount {record.amount}, outside (0, {route.most}]"
            else:
                flows.append((route, record.amount))
                continue
            raise InconsistentState(f"record at tick {record.tick} on edge {record.edge!r} {problem}")
        _advance(flows, state.stocks, state.sink_received, tick)
        last = tick
    return replace(state, tick=end)


@dataclass(frozen=True)
class ConservationEntry:
    substance: str
    emitted: float
    in_stock: float
    delivered: float
    error: float
    ok: bool


@dataclass(frozen=True)
class ConservationReport:
    entries: tuple[ConservationEntry, ...] = ()

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def conservation_check(
    flat: FlatGraph, state: SimulationState, log: HistoryLog
) -> ConservationReport:
    """Balance every conserved substance: emitted = still held + delivered.

    Integer runs must balance exactly; real-valued runs within
    ``1e-9 * max(1, |emitted|)``, as rounding grows with the amounts moved.
    Needs the complete history of the run that produced `state`, so a log
    recorded against another model or naming an edge the model lacks is
    refused, as :func:`replay` refuses it.
    """
    if log.header.model_hash != model_hash(flat):
        raise HashMismatch("history was recorded against a different model")
    if flat.history_policy is HistoryPolicy.NULL and log.header.steps > 0:
        raise NullHistory("conservation needs the complete flow history")
    plan = _plan(flat)
    emitting = {route.id for route, _ in plan.sources}
    # One pass over the records: per conserved substance, every amount and
    # the emitted ones, each in record order, which the float sums keep.
    # An edge of a conserved substance feeds its bucket's first list, and
    # the second too when it carries a source flow; any other edge feeds none.
    buckets: dict[str, tuple[list[float], list[float]]] = {
        substance: ([], []) for substance in flat.conserved
    }
    lists: dict[str, tuple[list[float], ...]] = {}
    for route in plan.routes.values():
        bucket = buckets.get(route.substance, ())
        lists[route.id] = bucket if route.id in emitting else bucket[:1]
    try:
        for record in log.records:
            for amounts in lists[record.edge]:
                amounts.append(record.amount)
    except (KeyError, TypeError):  # an unhashable edge names no edge either
        raise InconsistentState(f"record references unknown edge {record.edge!r}") from None
    entries = []
    for substance in sorted(buckets):
        amounts, emitted_amounts = buckets[substance]
        emitted = sum(emitted_amounts, 0.0)
        held_values = [v for (_, s), v in state.stocks.items() if s == substance]
        sunk_values = [v for (_, s), v in state.sink_received.items() if s == substance]
        held = sum(held_values, 0.0)
        delivered = sum(sunk_values, 0.0)
        error = emitted - held - delivered
        values = chain(amounts, held_values, sunk_values)
        integral = all(map(float.is_integer, map(float, values)))
        tolerance = 0.0 if integral else 1e-9 * max(1.0, abs(emitted))
        ok = abs(error) <= tolerance
        entries.append(ConservationEntry(substance, emitted, held, delivered, error, ok))
    return ConservationReport(tuple(entries))


def write_log(log: HistoryLog, target: str | Path | IO[str]) -> None:
    """Write a history as line-delimited JSON: header line, then records.

    Every line is exactly what ``json.dumps`` gives for the header's or the
    record's field dict. Lines are written one at a time: joining them
    into larger pieces first raised the peak memory of a 60k-record write
    and read by about 15 MiB.
    """
    own = isinstance(target, (str, Path))
    fp: IO[str] = open(target, "w", encoding="utf-8") if own else target
    try:
        fp.write(json.dumps(vars(log.header)) + "\n")
        fp.writelines(_record_lines(log.records))
    finally:
        if own:
            fp.close()


def _record_lines(records: Iterable[TransitionRecord]) -> Iterator[str]:
    """``json.dumps(asdict(record))`` and a newline, per record.

    For an exact int tick, a str edge and a finite float amount, json
    writes ``repr`` of the numbers, so such records are formatted directly,
    quoting each distinct edge once. Anything else (bools, int or
    non-finite amounts, subclasses) goes through json.
    """
    quoted: dict[str, str] = {}
    quote, inf = json.encoder.encode_basestring_ascii, math.inf
    for record in records:
        if type(record) is TransitionRecord:
            tick, edge, amount = record.tick, record.edge, record.amount
            if (type(tick), type(edge), type(amount)) == (int, str, float) and -inf < amount < inf:
                e = quoted.get(edge) or quoted.setdefault(edge, quote(edge))
                yield f'{{"tick": {tick!r}, "edge": {e}, "amount": {amount!r}}}\n'
                continue
        yield json.dumps(asdict(record)) + "\n"


# A record line of exactly the shape write_log gives a plain record, read
# without json.loads: a JSON int tick, which int() reads as json does,
# an edge of printable ASCII without escapes, and an amount with a
# fraction or an exponent, which json also reads with float(). Every other
# line, "amount": -0 included (json reads the int 0), goes through json.
_record_line = re.compile(
    r'\{"tick": (-?(?:0|[1-9][0-9]*)), '
    r'"edge": "([ !#-\[\]-~]*)", '
    r'"amount": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))\}\n?'
).fullmatch


def _parse_log_lines(lines: Iterable[str], source: str) -> HistoryLog:
    header: LogHeader | None = None
    records: list[TransitionRecord] = []
    edges: dict[str, str] = {}  # one string per distinct edge, shared by its records
    number = 0
    try:
        for number, line in enumerate(lines, 1):
            if header is not None and (fast := _record_line(line)):
                tick, edge, amount = fast.groups()
                edge = edges.setdefault(edge, edge)
                records.append(TransitionRecord(int(tick), edge, float(amount)))
                continue
            if not line.strip():
                continue
            raw = json.loads(line)
            # Exact type checks: JSON true/false load as bool, a subclass of int.
            if header is None:
                header = LogHeader(raw["model_hash"], raw["steps"])
                if type(header.model_hash) is not str or type(header.steps) is not int:
                    raise TypeError("model_hash must be a string, steps an int")
                if header.steps < 0:
                    raise ValueError("steps must be non-negative")
            else:
                tick, edge, amount = raw["tick"], raw["edge"], raw["amount"]
                if (type(tick), type(edge)) != (int, str) or type(amount) not in (float, int):
                    raise TypeError("tick must be an int, edge a str, amount a number")
                records.append(TransitionRecord(tick, edge, float(amount)))
    except KeyError as exc:
        raise InconsistentState(f"{source}: line {number} lacks the key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InconsistentState(f"{source}: line {number} is malformed: {exc}") from exc
    if header is None:
        raise InconsistentState(f"{source}: empty history file")
    return HistoryLog(header, tuple(records))


def read_log(source: str | Path | IO[str]) -> HistoryLog:
    """Read a history written by :func:`write_log`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fp:
            return _parse_log_lines(fp, str(source))
    return _parse_log_lines(source, "<stream>")
