"""repro — a reference implementation of GPC, the graph pattern
calculus underlying GQL and SQL/PGQ.

Reproduction of "GPC: A Pattern Calculus for Property Graphs"
(Francis et al., PODS 2023). The package provides:

- :mod:`repro.graph` — the property-graph data model (Section 2);
- :mod:`repro.gpc` — syntax, type system, and semantics of the
  calculus (Sections 3-5), plus GPC+ (Section 6);
- :mod:`repro.automata` — the regex/NFA substrate;
- :mod:`repro.baselines` — RPQ, 2RPQ, (U)C2RPQ, NRE and regular-query
  evaluators (the Section 6 comparison classes);
- :mod:`repro.translate` — the Theorem 11 constructive translations;
- :mod:`repro.enumeration` — answer enumeration and the Lemma 16/17
  bounds (Theorems 12-13);
- :mod:`repro.extensions` — Section 7 extensions (arithmetic
  conditions, the Proposition 14 gadget, mixed restrictors, label
  expressions, bag semantics);
- :mod:`repro.service` — the query-service runtime (prepared queries,
  versioned snapshots, plan/result caching, concurrent batches);
- :mod:`repro.cluster` — sharded scatter/gather serving (seed
  partitioning, serial and process executor backends, merged
  cluster stats).

Quickstart
----------
>>> from repro import GraphBuilder, parse_query, evaluate
>>> g = (GraphBuilder()
...      .node("a", "Person", name="Ann")
...      .node("b", "Person", name="Bob")
...      .edge("a", "b", "knows")
...      .build())
>>> answers = evaluate(parse_query("TRAIL (x:Person) -[:knows]-> (y:Person)"), g)
>>> len(answers)
1
"""

from repro.direction import Direction
from repro.errors import GPCError
from repro.graph import GraphBuilder, GraphSnapshot, Path, PropertyGraph
from repro.gpc import (
    CollectMode,
    EngineConfig,
    Evaluator,
    GPCPlusQuery,
    QueryPlan,
    Restrictor,
    Rule,
    evaluate,
    parse_pattern,
    parse_query,
    pretty,
)
from repro.cluster import ClusterService
from repro.service import GraphService, PreparedQuery, ServiceStats

__version__ = "1.2.0"

__all__ = [
    "Direction",
    "GPCError",
    "GraphBuilder",
    "PropertyGraph",
    "GraphSnapshot",
    "Path",
    "CollectMode",
    "EngineConfig",
    "Evaluator",
    "QueryPlan",
    "GPCPlusQuery",
    "Rule",
    "Restrictor",
    "evaluate",
    "parse_pattern",
    "parse_query",
    "pretty",
    "GraphService",
    "PreparedQuery",
    "ServiceStats",
    "ClusterService",
]
