"""The four workloads: graphs, query classes and op schedules.

Everything is a pure function of ``(workload, seed, scale)``; the
product receives only the generated graph and the generated texts.
``scale`` is ``"full"`` (what the benchmark measures) or ``"tiny"``
(the self-test: same shapes, seconds instead of minutes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.graph.generators import social_network, transport_network
from repro.graph.property_graph import PropertyGraph

#: A read is ``(class name, query text)``; a write is ``WRITE``, and the
#: client that draws it sends the next mutation of its own write cycle.
Op = tuple[str, str]
WRITE: Op = ("write", "")


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for BENCHMARK.json: why this traffic mix exists.
    why: str
    #: Read classes, in the order the tables print them.
    classes: tuple[str, ...]
    use_cache: bool
    build_graph: Callable[[int, str], PropertyGraph]
    build_schedule: Callable[[int, str], list[Op]]


# ---------------------------------------------------------------------------
# The bench_a9/a11 ring: disjoint `next` chains plus random `chord` edges
# ---------------------------------------------------------------------------

RING_SIZES = {
    # nodes, segment length, chord out-edges per node
    "full": (10_000, 250, 16),
    "tiny": (500, 50, 4),
}


def ring_graph(seed: int, scale: str) -> PropertyGraph:
    """Segments of ``next`` edges; each segment's first node is a
    ``Probe``, its seventh an ``Adj``, and ``k = 1`` exactly on its
    second. The seed moves only the chord targets, so the answer
    structure (one in-segment witness per probe) is seed-independent
    and the work per query nearly so."""
    nodes, segment, chords = RING_SIZES[scale]
    rng = random.Random(seed)
    graph = PropertyGraph()
    handles = []
    for i in range(nodes):
        labels = []
        if i % segment == 0:
            labels.append("Probe")
        if i % segment == 6:
            labels.append("Adj")
        handles.append(
            graph.add_node(f"n{i}", labels, {"k": 1 if i % segment == 1 else 0})
        )
    for i in range(nodes - 1):
        if (i + 1) % segment != 0:
            graph.add_edge(f"next{i}", handles[i], handles[i + 1], ["next"])
    for i in range(nodes):
        for c in range(chords):
            graph.add_edge(
                f"c{i}_{c}", handles[i], handles[rng.randrange(nodes)], ["chord"]
            )
    return graph


RING_SHORTEST = {
    "rpq_flat": "SHORTEST (x:Probe) -[:next]->{1,} (y:Adj)",
    "twovar_dense": (
        "SHORTEST [(x:Probe) -[:next]->{1,} (y:Adj)] << x.k = y.k >>"
    ),
    "cond_pushdown": (
        "SHORTEST [(x:Probe) -> (m) -[:next]->{1,} (y:Adj)] << m.k = 1 >>"
    ),
}

ANSWER_HEAVY = {
    "bounded8_flat": "SHORTEST (x:Probe) -[:next]->{1,8} (y)",
    "bounded8_group": "SHORTEST (x:Probe) -[e:next]->{1,8} (y)",
    "bounded10_flat": "SHORTEST (x:Probe) -[:next]->{1,10} (y)",
}


def _balanced_rounds(
    texts: dict[str, str], rounds: int, per_round: int, seed: int
) -> list[list[Op]]:
    """``rounds`` lists, each holding every class ``per_round`` times in
    a seed-shuffled order — equal class weights in any window."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        ops = [(name, text) for name, text in texts.items()] * per_round
        rng.shuffle(ops)
        out.append(ops)
    return out


def _fixed_text_schedule(texts: dict[str, str]) -> Callable[[int, str], list[Op]]:
    def build(seed: int, scale: str) -> list[Op]:
        return [op for ops in _balanced_rounds(texts, 40, 1, seed) for op in ops]

    return build


# ---------------------------------------------------------------------------
# social_serving: cached reads beside ~10 % writes
# ---------------------------------------------------------------------------

SOCIAL_PEOPLE = {"full": 200, "tiny": 40}

SOCIAL_SERVING = {
    "trail_edge": "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "simple_married": "SIMPLE (x:Person) ~[:married]~ (y:Person)",
    "join_city": (
        "TRAIL (x:Person) -[:knows]-> (y:Person), "
        "TRAIL (y:Person) -[:lives_in]-> (c:City)"
    ),
}


def social_graph(seed: int, scale: str) -> PropertyGraph:
    return social_network(
        num_people=SOCIAL_PEOPLE[scale], num_cities=8, friend_degree=3, seed=seed
    )


def social_schedule(seed: int, scale: str) -> list[Op]:
    """Rounds of nine reads (three per class) and one write."""
    rng = random.Random(seed + 1)
    schedule: list[Op] = []
    for ops in _balanced_rounds(SOCIAL_SERVING, 40, 3, seed):
        ops.insert(rng.randrange(len(ops) + 1), WRITE)
        schedule.extend(ops)
    return schedule


def write_cycle(client: int, seed: int, scale: str) -> list[dict]:
    """One client's four-step write cycle, as ``/mutate`` ops.

    Footprint-disjoint (``set_property`` of a key no class reads, so
    cached answers are re-stamped) alternates with footprint-
    intersecting (a ``knows`` edge added, later removed, so ``knows``
    readers are invalidated). The cycle returns the graph to its start,
    which keeps the work per read constant however long a run lasts;
    each client toggles its own edge, so clients never conflict.
    """
    people = SOCIAL_PEOPLE[scale]
    rng = random.Random(seed * 1000 + client)
    source, target = rng.sample(range(people), 2)
    moody = {"n": f"p{rng.randrange(people)}"}
    edge = f"bench_knows_{client}"
    return [
        {"op": "set_property", "element": moody, "key": "mood", "value": 1},
        {
            "op": "add_edge",
            "key": edge,
            "source": f"p{source}",
            "target": f"p{target}",
            "labels": ["knows"],
            "properties": {"since": 2024},
        },
        {"op": "set_property", "element": moody, "key": "mood", "value": 2},
        {"op": "remove_edge", "key": edge},
    ]


# ---------------------------------------------------------------------------
# point_lookup: 5 templates x 1000 constants, more texts than either cache
# ---------------------------------------------------------------------------

POINT_CONSTANTS = {"full": 1000, "tiny": 40}

POINT_LOOKUP = {
    "pl_shortest_anchor": (
        "SHORTEST [(x:Hub) -[:link]->{{1,}} (y:Station)] "
        '<< y.name = "{name}" >>'
    ),
    "pl_shortest_twoatom": (
        "SHORTEST [(x:Hub) -[:link]->{{1,}} (y:Station)] "
        '<< x.zone = 1 AND y.name = "{name}" >>'
    ),
    "pl_trail_hop": (
        "TRAIL [(x:Station) -[e:link]-> (y:Station)] << e.minutes = {c} >>"
    ),
    "pl_proven_empty": (
        "SIMPLE [(x:Station) -[e:link]-> (y:Station)] "
        "<< e.minutes = {c} AND e.minutes = 1099 >>"
    ),
    "pl_join": (
        "TRAIL [(x:Hub) -[e:link]-> (y:Station)] << e.minutes = {c} >>, "
        "TRAIL (y:Station) -[:link]-> (z:Station)"
    ),
}


def transport_graph(seed: int, scale: str) -> PropertyGraph:
    return transport_network(lines=6, stops_per_line=8, seed=seed)


def point_text(template: str, i: int) -> str:
    """Constant ``i`` of a template. Most constants match nothing, as
    most ad-hoc lookups do: ``minutes`` lies in 2..7, and only the
    first 18 names are stations (the three nearest the hub on each
    line — a far station costs the witness enumerator ~100 ms, which
    would make this workload about enumeration, not per-request cost).
    """
    line, stop = i % 6, i // 6
    if i >= 18:
        stop += 8
    return POINT_LOOKUP[template].format(name=f"L{line}-S{stop}", c=i)


def point_schedule(seed: int, scale: str) -> list[Op]:
    ops = [
        (template, point_text(template, i))
        for template in POINT_LOOKUP
        for i in range(POINT_CONSTANTS[scale])
    ]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ring_shortest",
            "few answers on a 10k-node graph, cache off: lowering and per-seed "
            "search dominate, wire and cache carry almost nothing; holds both "
            "search lanes",
            tuple(RING_SHORTEST),
            False,
            ring_graph,
            _fixed_text_schedule(RING_SHORTEST),
        ),
        Workload(
            "answer_heavy",
            "same ring, 320-400 answers per query, cache off: witness "
            "enumeration, span matching and wire encode dominate, the length "
            "search does little",
            tuple(ANSWER_HEAVY),
            False,
            ring_graph,
            _fixed_text_schedule(ANSWER_HEAVY),
        ),
        Workload(
            "social_serving",
            "cached reads beside ~10% writes: hits cost wire and decode, misses "
            "cost the bounded evaluator and join, writes cost derive and "
            "invalidation",
            tuple(SOCIAL_SERVING),
            True,
            social_graph,
            social_schedule,
        ),
        Workload(
            "point_lookup",
            "5000 distinct ad-hoc texts, more than either cache holds: every "
            "request parses, plans, compiles and evicts, so fixed per-request "
            "cost dominates",
            tuple(POINT_LOOKUP),
            True,
            transport_graph,
            point_schedule,
        ),
    )
}

ALL_CLASSES: tuple[str, ...] = tuple(
    name for workload in WORKLOADS.values() for name in workload.classes
)
