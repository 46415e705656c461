"""Pushed-atom masks are cached per constant the data carries, not per
constant a query names.

A ``(key, const)`` that no element carries gets the core's shared
all-zero mask and no cache entry — on the core and on overlay
snapshots alike — so a server fed ad-hoc constants keeps a bounded
number of masks, and answers stay the specification's where an overlay
makes a constant match (or stop matching).
"""

from __future__ import annotations

from reference import reference_answers
from repro.gpc.parser import parse_query
from repro.graph.generators import transport_network
from repro.service import GraphService

#: The five ad-hoc lookup templates: anchored ``shortest``, a two-atom
#: one, a one-hop ``trail`` and a join on an edge constant, and one the
#: analyzer proves empty.
TEMPLATES = (
    'SHORTEST [(x:Hub) -[:link]->{{1,}} (y:Station)] << y.name = "{name}" >>',
    "SHORTEST [(x:Hub) -[:link]->{{1,}} (y:Station)] "
    '<< x.zone = 1 AND y.name = "{name}" >>',
    "TRAIL [(x:Station) -[e:link]-> (y:Station)] << e.minutes = {c} >>",
    "SIMPLE [(x:Station) -[e:link]-> (y:Station)] "
    "<< e.minutes = {c} AND e.minutes = 1099 >>",
    "TRAIL [(x:Hub) -[e:link]-> (y:Station)] << e.minutes = {c} >>, "
    "TRAIL (y:Station) -[:link]-> (z:Station)",
)


def _text(template: str, i: int) -> str:
    line, stop = i % 6, i // 6
    return template.format(name=f"L{line}-S{stop if i < 18 else stop + 8}", c=i)


def test_five_thousand_ad_hoc_constants_keep_few_masks():
    service = GraphService(transport_network(lines=6, stops_per_line=8, seed=1))
    for i in range(1000):
        for template in TEMPLATES:
            service.evaluate(_text(template, i))
    core = service.graph.snapshot()._core
    assert len(core._prop_masks) + len(core._label_masks) <= 32


def test_overlays_decide_what_a_missing_constant_matches():
    graph = transport_network(lines=2, stops_per_line=3, seed=1)
    service = GraphService(graph)
    edges = sorted(graph.directed_edges)
    texts = [
        f"TRAIL [(x) -[e:link]-> (y)] << e.minutes = {c} >>" for c in (2, 99)
    ] + ['TRAIL [(x) -[:link]->{1,2} (y)] << y.name = "nowhere" >>']

    def check():
        for text in texts:
            query = parse_query(text)
            expected = reference_answers(service.graph, query, graph.num_edges)
            assert set(service.evaluate(text, use_cache=False)) == expected, text

    service.evaluate(texts[0])  # a core snapshot, then overlays on it
    check()
    service.set_property(edges[0], "minutes", 99)  # a constant only the overlay carries
    check()
    station = next(iter(graph.nodes_with_label("Station")))
    service.set_property(station, "name", "nowhere")
    check()
    assert service.evaluate(texts[1], use_cache=False)
    carriers = [e for e in edges if graph.get_property(e, "minutes") == 2]
    assert carriers
    for edge in carriers:  # removed, the constant's every carrier is gone
        service.remove_edge(edge)
    check()
    snapshot = service.graph.snapshot()
    assert snapshot.property_mask("minutes", 2) is snapshot._core.label_mask(-1)
    assert ("minutes", 2) not in snapshot._mask_cache
