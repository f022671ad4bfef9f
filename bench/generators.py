"""Seeded generators for the benchmark's model families, as ``.vcs`` text.

Every generator takes a ``random.Random`` and returns description text;
the program under test only ever sees that text. The seed changes
capacities, rates, variation splits and which extra links exist, never
the shape, so runs with different seeds do the same amount of work and
their timings can be compared.

Three families:

* ``dense_text`` (workloads ``sim_dense`` and ``log_audit``). Why: the
  per-tick step loop. Tiers ``P*35 -> T*22 -> X*10`` multiply out as
  Cartesian products, with ``T -> T`` self-links and a nested
  ``coop*3 { g*4 }`` spliced in through a port: about 3.5k flat edges from
  a 40-line description, so nearly all of a job is simulation. ``grain``
  has integer rates and capacities and ``milk`` fractional ones, so both
  rationing branches (largest remainder and proportional) run.
* ``wide_text`` (workload ``struct_wide`` and the growth ladder). Why: the
  structural layers. Every actor, source, sink and edge is its own
  declaration at one level, so parsing, validation and the analyses see
  thousands of items; each source reaches a bounded number of end
  markets, so an analysis that loops over (source, sink) pairs and then
  over every actor grows quadratically with the producer count.
* ``nested_text`` (workload ``cli_batch``). Why: the command-line process
  and nested flattening. ``region -> district*D -> coop*C -> farm*F``
  with variations and ports spliced at two levels in both directions;
  small enough (160-350 flat nodes) that interpreter start and import
  are a large share of each command.
"""

from __future__ import annotations

import random

GRAIN_CAPS = (1, 2, 3, 4)
# Milk moves in large fractional amounts: after 20 ticks its totals are
# about 5e5, where float rounding in the conservation sums exceeds 1e-9.
MILK_CAPS = (56.4, 67.2, 75.6, 86.4, 99.6)
MILK_RATES = (324.5, 402.25, 486.75)


def _milk(rng: random.Random) -> str:
    return f"{rng.choice(MILK_CAPS)!r}"


def dense_text(
    rng: random.Random,
    name: str,
    history: str,
    producers: int = 35,
    traders: int = 22,
    exporters: int = 10,
) -> str:
    """Dense tiers under one root; ``history`` is ``record`` or ``null``.

    Producers always hold less than their trader edges want, so every tick
    rations both substances; grain pools cover one unit per edge, so the
    number of positive flows, and with it the work, does not depend on
    the seed.
    """
    g = lambda: rng.choice(GRAIN_CAPS)  # noqa: E731
    lines = [
        f'system "{name}" {{',
        f"  component P * {producers} atomic role=producer tier=0",
        f"  component T * {traders} atomic role=processor_trader tier=1",
        f"  component X * {exporters} atomic role=exporter tier=2",
        "  component coop * 3 {",
        "    component g * 4 atomic role=producer tier=0",
        f"    source Sc rate={rng.randint(2, 5)} substance=grain",
        "    entity out",
        f"    edge b_in Sc -> g {{ substance=grain capacity={g()} }}",
        f"    edge b_out g -> out {{ substance=grain capacity={g()} }}",
        "  }",
    ]
    for k in range(1, 4):
        rate, cap = rng.randint(8, 14), rng.randint(8, 14)
        lines.append(f"  source Sg{k} rate={rate} substance=grain")
        lines.append(f"  edge e_sg{k} Sg{k} -> P {{ substance=grain capacity={cap} }}")
    for k in range(1, 3):
        rate = rng.choice(MILK_RATES)
        lines.append(f"  source Sm{k} rate={rate!r} substance=milk")
        lines.append(f"  edge e_sm{k} Sm{k} -> P {{ substance=milk capacity=604.5 }}")
    scopes = ("local", "national", "regional", "global")
    for k, scope in enumerate(scopes, start=1):
        lines.append(f"  sink M{k} scope={scope}")
        lines.append(f"  edge e_xg{k} X -> M{k} {{ substance=grain capacity={g()} }}")
        lines.append(f"  edge e_xm{k} X -> M{k} {{ substance=milk capacity={_milk(rng)} }}")
    lines += [
        f"  edge e_ptg P -> T {{ substance=grain capacity={g()} }}",
        f"  edge e_ptm P -> T {{ substance=milk capacity={_milk(rng)} }}",
        f"  edge e_txg T -> X {{ substance=grain capacity={g()} }}",
        f"  edge e_txm T -> X {{ substance=milk capacity={_milk(rng)} }}",
        f"  edge e_ttg T -> T {{ substance=grain capacity={g()} }}",
        f"  edge e_ttm T -> T {{ substance=milk capacity={_milk(rng)} }}",
        f"  edge e_ct coop.out -> T {{ substance=grain capacity={g()} }}",
        "  boundary { allow=[grain, milk] conserve=[grain, milk] }",
        f"  history {history}",
        "}",
    ]
    return "\n".join(lines) + "\n"


def wide_sizes(producers: int) -> dict[str, int]:
    """Actor and environment counts of one wide model."""
    return {
        "producers": producers,
        "traders": producers // 10,
        "exporters": producers // 50,
        "sources": producers // 10,
        "sinks": producers // 10,
    }


def wide_text(rng: random.Random, name: str, producers: int) -> str:
    """One wide level: every actor and edge declared on its own.

    Edges: each source feeds ten producers, each producer sells to its
    trader and 30% to a second one, each trader to two exporters, each
    exporter to five end markets (about 2.6 flat edges per producer).
    """
    n = wide_sizes(producers)
    lines = [f'system "{name}" {{']
    for i in range(n["producers"]):
        lines.append(f"  component p{i} atomic role=producer tier=0")
    for i in range(n["traders"]):
        lines.append(f"  component t{i} atomic role=processor_trader tier=1")
    for i in range(n["exporters"]):
        lines.append(f"  component x{i} atomic role=exporter tier=2")
    for i in range(n["sources"]):
        lines.append(f"  source s{i} rate={rng.randint(1, 6)} substance=grain")
    scopes = ("local", "national", "regional", "global")
    for i in range(n["sinks"]):
        lines.append(f"  sink m{i} scope={scopes[i % 4]}")
    edge = 0

    def connect(tail: str, head: str) -> None:
        nonlocal edge
        lines.append(
            f"  edge w{edge} {tail} -> {head}"
            f" {{ substance=grain capacity={rng.choice(GRAIN_CAPS)} }}"
        )
        edge += 1

    for i in range(n["producers"]):
        connect(f"s{i // 10}", f"p{i}")
    for i in range(n["producers"]):
        own = i // 10
        connect(f"p{i}", f"t{own}")
        if rng.random() < 0.3:
            other = rng.randrange(n["traders"] - 1)
            connect(f"p{i}", f"t{other + (other >= own)}")
    for i in range(n["traders"]):
        first = i % n["exporters"]
        second = rng.randrange(n["exporters"] - 1)
        connect(f"t{i}", f"x{first}")
        connect(f"t{i}", f"x{second + (second >= first)}")
    for i in range(n["exporters"]):
        for k in range(5):
            connect(f"x{i}", f"m{(5 * i + k) % n['sinks']}")
    lines += ["  boundary { allow=[grain] conserve=[grain] }", "  history null", "}"]
    return "\n".join(lines) + "\n"


# (districts, coops per district, farms per coop) of the cli_batch models:
# 166 to 296 flat nodes, 450 to 806 flat edges.
NESTED_SHAPES = ((4, 5, 7), (5, 5, 7), (5, 6, 7), (6, 6, 7))


def _variations(rng: random.Random, count: int) -> str:
    organic = rng.randint(1, count - 1)
    return f"variations=[organic:{organic}, plain:{count - organic}]"


def nested_text(rng: random.Random, name: str, shape: tuple[int, int, int]) -> str:
    """Three nesting levels; ports carry grain in and out at two of them."""
    districts, coops, farms = shape
    g = lambda: rng.choice(GRAIN_CAPS)  # noqa: E731
    return "\n".join(
        [
            f'system "{name}" {{',
            f"  component district * {districts} {_variations(rng, districts)} {{",
            f"    component coop * {coops} {_variations(rng, coops)} {{",
            f"      component farm * {farms} {_variations(rng, farms)}"
            " atomic role=producer tier=0",
            "      component hub atomic role=processor_trader tier=1",
            "      sink L scope=local",
            "      entity feed",
            "      entity out",
            f"      edge c_in feed -> farm {{ substance=grain capacity={g()} }}",
            f"      edge c_fh farm -> hub {{ substance=grain capacity={g()} }}",
            f"      edge c_fl farm -> L {{ substance=grain capacity={g()} }}",
            f"      edge c_out hub -> out {{ substance=grain capacity={g()} }}",
            "    }",
            "    component mill atomic role=processor_trader tier=2",
            "    entity supply",
            "    entity ship",
            f"    edge d_in supply -> coop.feed {{ substance=grain capacity={g()} }}",
            f"    edge d_cm coop.out -> mill {{ substance=grain capacity={g()} }}",
            f"    edge d_out mill -> ship {{ substance=grain capacity={g()} }}",
            "  }",
            "  component X * 2 atomic role=exporter tier=3",
            f"  source S rate={rng.randint(2, 5)} substance=grain",
            "  sink M scope=global",
            f"  edge r_in S -> district.supply {{ substance=grain capacity={g()} }}",
            f"  edge r_dx district.ship -> X {{ substance=grain capacity={g()} }}",
            f"  edge r_xm X -> M {{ substance=grain capacity={g()} }}",
            "  boundary { allow=[grain] conserve=[grain] }",
            "}",
        ]
    ) + "\n"
