"""The Graph Pattern Calculus (GPC) — the paper's primary contribution.

Subpackage map (mirroring the paper's sections):

- :mod:`repro.gpc.ast` — the Figure 1 grammar as immutable syntax trees;
- :mod:`repro.gpc.parser` / :mod:`repro.gpc.pretty` — concrete text
  syntax and a round-tripping printer;
- :mod:`repro.gpc.types` / :mod:`repro.gpc.typing` — the Section 4 type
  system (Figure 2 rules, schemas, well-typedness);
- :mod:`repro.gpc.values` / :mod:`repro.gpc.assignments` — Section 5
  values and assignments;
- :mod:`repro.gpc.conditions` — satisfaction of conditions ``mu |= theta``;
- :mod:`repro.gpc.collect` — the three ``collect`` approaches;
- :mod:`repro.gpc.minlength` — the Approach 1 syntactic analysis;
- :mod:`repro.gpc.engine` — the bounded compositional evaluator;
- :mod:`repro.gpc.planner` — cost-aware query planning (hash joins,
  endpoint pruning, cardinality estimation);
- :mod:`repro.gpc.gpc_plus` — GPC+ (projection + top-level union);
- :mod:`repro.gpc.analysis` — compositional static analysis: unsat
  proofs, condition simplification, and lint diagnostics.
"""

from repro.gpc.ast import (
    Concat,
    Conditioned,
    Direction,
    EdgePattern,
    Join,
    NodePattern,
    PatternQuery,
    Repeat,
    Restrictor,
    Union,
    backward,
    concat,
    edge,
    forward,
    node,
    undirected,
)
from repro.gpc.analysis import (
    Diagnostic,
    QueryAnalysis,
    analyze_query,
    lint_query,
    render_diagnostics,
    simplify_condition,
)
from repro.gpc.conditions_ast import (
    And,
    Condition,
    Not,
    Or,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)
from repro.gpc.engine import (
    CollectMode,
    EngineConfig,
    Evaluator,
    QueryPlan,
    evaluate,
)
from repro.gpc.explain import explain, explain_pattern, explain_query
from repro.gpc.planner import (
    EndpointConstraint,
    NodeConstraint,
    ShortestPlan,
    estimate_pattern_cardinality,
    estimate_query_cardinality,
    explain_plan,
    join_shared_variables,
    plan_shortest,
)
from repro.gpc.footprint import (
    QueryFootprint,
    pattern_footprint,
    query_footprint,
)
from repro.gpc.gpc_plus import GPCPlusQuery, Rule
from repro.gpc.parser import parse_pattern, parse_query
from repro.gpc.pretty import pretty
from repro.gpc.typing import check_condition, infer_schema, is_well_typed
from repro.gpc.types import (
    EdgeType,
    GroupType,
    MaybeType,
    NodeType,
    PathType,
)

__all__ = [
    # AST
    "Direction",
    "NodePattern",
    "EdgePattern",
    "Union",
    "Concat",
    "Conditioned",
    "Repeat",
    "Restrictor",
    "PatternQuery",
    "Join",
    "node",
    "edge",
    "forward",
    "backward",
    "undirected",
    "concat",
    # Conditions
    "Condition",
    "PropertyEqualsConst",
    "PropertyEqualsProperty",
    "And",
    "Or",
    "Not",
    # Types
    "NodeType",
    "EdgeType",
    "PathType",
    "MaybeType",
    "GroupType",
    "infer_schema",
    "is_well_typed",
    "check_condition",
    # Syntax
    "parse_pattern",
    "parse_query",
    "pretty",
    # Engine
    "Evaluator",
    "EngineConfig",
    "QueryPlan",
    "CollectMode",
    "evaluate",
    "explain",
    "explain_pattern",
    "explain_query",
    # Planner
    "NodeConstraint",
    "EndpointConstraint",
    "ShortestPlan",
    "plan_shortest",
    "join_shared_variables",
    "estimate_pattern_cardinality",
    "estimate_query_cardinality",
    "explain_plan",
    # Static analysis
    "Diagnostic",
    "QueryAnalysis",
    "analyze_query",
    "lint_query",
    "render_diagnostics",
    "simplify_condition",
    # Footprints
    "QueryFootprint",
    "pattern_footprint",
    "query_footprint",
    # GPC+
    "GPCPlusQuery",
    "Rule",
]
