"""Per-query read footprints for semantic cache invalidation.

The service layer caches query answers per graph version; a mutation
bumps the version, and — before this module — flushed *every* cached
answer, even when the mutation could not possibly change it. The
paper's static machinery says when that is provable: the Figure 2
typing rules fix exactly which variables a query binds, every answer's
path is matched atom by atom against the pattern, and conditions are
the only construct that reads property values. From those facts a
query's *read footprint* can be bounded syntactically:

- **node labels**: a node add/remove can only affect answers when the
  pattern can match a length-0 path — every node of a length >= 1 path
  is incident to an edge of the path, an added node has no incident
  edges yet, and a removed node's incident edges are removed in the
  same cascade delta (so the edge classes below already cover it).
  When length-0 matches are possible, the boundary node patterns (and
  zero-iteration repetitions, which match *any* single node) determine
  which labels are observable.
- **directed / undirected edge labels**: every edge of a matched path
  is consumed by exactly one edge-pattern atom, so the union of the
  atoms' label constraints bounds the observable edges; forward and
  backward traversals both read directed edges, ``~`` reads undirected
  ones. An unlabelled atom observes the whole class.
- **property keys**: answers bind identifiers, never values, so
  property mutations are observable only through conditions; the keys
  mentioned in a query's conditions bound the observable keys.

Constructs the analysis cannot see through (Section 7 extensions,
non-core queries) collapse to :data:`BOTTOM` — "reads everything" —
which reproduces the old per-version flush exactly.

:meth:`QueryFootprint.affected_by` intersects a footprint with the
:class:`~repro.graph.delta.DeltaSummary` of the mutations between two
versions: disjointness proves the cached answer is still exact, so the
cache re-stamps the entry to the new version instead of dropping it.

A footprint is also **path-local** when whether ``(p, mu)`` is an
answer depends on the elements of ``p`` alone (Section 5): ``mu`` binds
elements on ``p``, conditions read their properties, and ``trail`` /
``simple`` are predicates on ``p``. Removing elements then removes
exactly the answers whose paths contain one, so the cache can filter
an entry instead of dropping it. ``shortest`` is not path-local — it
compares ``p`` with every other matching path, and a removal can make
a longer one shortest — and neither is :data:`BOTTOM`, which every
Section 7 extension folds to. By the same argument adding elements
only adds answers, each with a path through an added element:
:meth:`QueryFootprint.extension_hops` says when the cache may keep an
entry and owe only those (see :mod:`repro.service.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from repro.direction import Direction
from repro.errors import DeadlineExceededError, EvaluationLimitError
from repro.gpc import ast
from repro.gpc.conditions_ast import (
    And,
    Not,
    Or,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)
from repro.gpc.minlength import max_path_length, min_path_length
from repro.graph.delta import DeltaSummary

__all__ = [
    "QueryFootprint",
    "BOTTOM",
    "pattern_footprint",
    "query_footprint",
]


@dataclass(frozen=True)
class QueryFootprint:
    """What a query can observe, per element class.

    Each label set is either a ``frozenset`` (only elements carrying
    one of these labels are observable; the empty set means *no*
    mutation of that class alone can change the answers) or ``None``
    (the whole class is observable). ``node_keys`` / ``edge_keys`` work
    the same way for condition-read property keys, split by the class
    of the variable each condition atom dereferences — so an
    edge-property mutation leaves answers (and cached entries) of
    queries that only read node keys provably intact, and vice versa.
    ``path_local`` is the module docstring's: set on queries whose
    answers removals can only filter. On those, ``reach`` is the longest
    path the leftmost pattern query can match (``None``: unbounded) and
    ``others`` the merged footprint of a join's other sides.
    """

    node_labels: Optional[frozenset[str]] = frozenset()
    dedge_labels: Optional[frozenset[str]] = frozenset()
    uedge_labels: Optional[frozenset[str]] = frozenset()
    node_keys: Optional[frozenset[str]] = frozenset()
    edge_keys: Optional[frozenset[str]] = frozenset()
    path_local: bool = False
    reach: Optional[int] = None
    others: Optional["QueryFootprint"] = None

    @property
    def is_bottom(self) -> bool:
        """Whether this footprint reads everything (no pruning)."""
        return (
            self.node_labels is None
            and self.dedge_labels is None
            and self.uedge_labels is None
            and self.node_keys is None
            and self.edge_keys is None
        )

    def merge(self, other: "QueryFootprint") -> "QueryFootprint":
        """Pointwise union (``None`` — the whole class — absorbs);
        path-local when both sides are."""
        return QueryFootprint(
            node_labels=_union(self.node_labels, other.node_labels),
            dedge_labels=_union(self.dedge_labels, other.dedge_labels),
            uedge_labels=_union(self.uedge_labels, other.uedge_labels),
            node_keys=_union(self.node_keys, other.node_keys),
            edge_keys=_union(self.edge_keys, other.edge_keys),
            path_local=self.path_local and other.path_local,
        )

    def affected_by(self, summary: DeltaSummary) -> bool:
        """Whether mutations with this summary could change answers.

        ``False`` is a guarantee (the cached answer set is still
        exact); ``True`` is conservative.
        """
        if summary.is_empty:
            return False
        if _intersects(
            self.node_labels, summary.nodes_changed, summary.node_labels
        ):
            return True
        if _intersects(
            self.dedge_labels, summary.dedges_changed, summary.dedge_labels
        ):
            return True
        if _intersects(
            self.uedge_labels, summary.uedges_changed, summary.uedge_labels
        ):
            return True
        return self.reads_keys(summary)

    def reads_keys(self, summary: DeltaSummary) -> bool:
        """Whether a condition can read a property ``summary`` wrote."""
        return _keys_intersect(
            self.node_keys, summary.node_property_keys
        ) or _keys_intersect(self.edge_keys, summary.edge_property_keys)

    def extension_hops(self, summary: DeltaSummary) -> Optional[int]:
        """How many hops from ``summary.touched`` the seeds of an
        extend span — a path of at most ``reach`` edges through an
        added element starts that close to one of its endpoints — or
        ``None`` when the answers after ``summary`` cannot be served as
        an extension: the query is not path-local, its leftmost side is
        unbounded, a property write may flip a condition, or another
        join side can see an addition."""
        if not self.path_local or self.reach is None or self.reads_keys(summary):
            return None
        additions = summary.rest or summary
        if self.others is not None and self.others.affected_by(additions):
            return None
        return max(self.reach - 1, 0)

    def describe(self) -> str:
        def _render(name: str, values: Optional[frozenset[str]]) -> str:
            if values is None:
                return f"{name}=*"
            if not values:
                return f"{name}=-"
            return f"{name}={{{', '.join(sorted(values))}}}"

        return " ".join(
            (
                _render("nodes", self.node_labels),
                _render("directed", self.dedge_labels),
                _render("undirected", self.uedge_labels),
                _render("node-keys", self.node_keys),
                _render("edge-keys", self.edge_keys),
            )
        )


#: The conservative "reads everything" footprint: every mutation
#: invalidates, which is exactly the old global per-version flush.
BOTTOM = QueryFootprint(None, None, None, None, None)


def _union(
    left: Optional[frozenset[str]], right: Optional[frozenset[str]]
) -> Optional[frozenset[str]]:
    if left is None or right is None:
        return None
    return left | right


def _intersects(
    footprint_labels: Optional[frozenset[str]],
    class_changed: bool,
    delta_labels: frozenset[str],
) -> bool:
    if not class_changed:
        return False
    if footprint_labels is None:
        return True
    return not footprint_labels.isdisjoint(delta_labels)


def _keys_intersect(
    footprint_keys: Optional[frozenset[str]],
    delta_keys: frozenset[str],
) -> bool:
    if not delta_keys:
        return False
    if footprint_keys is None:
        return True
    return not footprint_keys.isdisjoint(delta_keys)


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


#: Sentinel class for variables whose element class the walk could not
#: pin down (conflicting bind sites, or an extension construct).
_UNKNOWN = "unknown"


def _variable_classes(pattern: ast.Pattern) -> dict[str, str]:
    """Map each variable bound in ``pattern`` to ``'node'``/``'edge'``.

    Variables bound at conflicting sites (or inside extension
    constructs the walk cannot see through) map to :data:`_UNKNOWN`,
    which routes their condition keys into *both* key classes.
    """
    classes: dict[str, str] = {}

    def _note(variable: Optional[str], element_class: str) -> None:
        if variable is None:
            return
        seen = classes.get(variable)
        if seen is None:
            classes[variable] = element_class
        elif seen != element_class:
            classes[variable] = _UNKNOWN

    for sub in ast.iter_subpatterns(pattern):
        if isinstance(sub, ast.NodePattern):
            _note(sub.variable, "node")
        elif isinstance(sub, ast.EdgePattern):
            _note(sub.variable, "edge")
        # A variable an extension construct binds itself stays absent;
        # the caller treats absent variables as _UNKNOWN, which is what
        # a hidden bind site deserves.
    return classes


def _condition_footprint(
    condition, var_classes: dict[str, str]
) -> QueryFootprint:
    """Property keys a condition reads (``BOTTOM`` for unknown nodes).

    ``var_classes`` (from :func:`_variable_classes`) routes each key to
    the class of the variable dereferencing it; keys read through a
    variable of unknown class land in both sets.
    """
    node_keys: set[str] = set()
    edge_keys: set[str] = set()

    def _note(variable: str, key: str) -> None:
        element_class = var_classes.get(variable, _UNKNOWN)
        if element_class in ("node", _UNKNOWN):
            node_keys.add(key)
        if element_class in ("edge", _UNKNOWN):
            edge_keys.add(key)

    stack = [condition]
    while stack:
        current = stack.pop()
        if isinstance(current, PropertyEqualsConst):
            _note(current.variable, current.key)
        elif isinstance(current, PropertyEqualsProperty):
            _note(current.left_variable, current.left_key)
            _note(current.right_variable, current.right_key)
        elif isinstance(current, (And, Or)):
            stack.append(current.left)
            stack.append(current.right)
        elif isinstance(current, Not):
            stack.append(current.inner)
        else:  # an extension condition we cannot see through
            return BOTTOM
    return QueryFootprint(
        node_keys=frozenset(node_keys), edge_keys=frozenset(edge_keys)
    )


def _footprint_step(
    var_classes: dict[str, str],
    pattern: ast.Pattern,
    parts: tuple[QueryFootprint, ...],
) -> QueryFootprint:
    """The footprint of ``pattern`` from its subpatterns' footprints."""
    if isinstance(pattern, ast.NodePattern):
        if pattern.label is not None:
            return QueryFootprint(node_labels=frozenset((pattern.label,)))
        return QueryFootprint(node_labels=None)
    if isinstance(pattern, ast.EdgePattern):
        labels = (
            frozenset((pattern.label,)) if pattern.label is not None else None
        )
        if pattern.direction is Direction.UNDIRECTED:
            return QueryFootprint(uedge_labels=labels)
        return QueryFootprint(dedge_labels=labels)
    if isinstance(pattern, (ast.Union, ast.Concat)):
        return parts[0].merge(parts[1])
    if isinstance(pattern, ast.Conditioned):
        return parts[0].merge(
            _condition_footprint(pattern.condition, var_classes)
        )
    if isinstance(pattern, ast.Repeat):
        if pattern.lower == 0:
            # Zero iterations match a single-node path at *any* node.
            return parts[0].merge(QueryFootprint(node_labels=None))
        return parts[0]
    # Extension constructs (Section 7): no syntactic bound.
    return BOTTOM


def pattern_footprint(pattern: ast.Pattern) -> QueryFootprint:
    """The read footprint of one restricted pattern.

    Applies the length-0 refinement from the module docstring: when the
    pattern cannot match a length-0 path, node additions/removals alone
    can never change its answers (their incident-edge deltas are what
    the edge classes observe), so the node-label set collapses to the
    empty — maximally prunable — set. The refinement is skipped when
    the walk hit a construct it cannot bound.
    """
    footprint = ast.fold(
        pattern, partial(_footprint_step, _variable_classes(pattern))
    )
    if footprint.is_bottom:
        # Some construct defeated the analysis (merging BOTTOM floods
        # every class); the length-0 refinement is not justified then.
        return footprint
    try:
        edgeless_possible = min_path_length(pattern) == 0
    except (DeadlineExceededError, EvaluationLimitError):
        # Resource budgets must propagate — swallowing one here would
        # let a cancelled request keep running on a stale footprint.
        raise
    except Exception:  # pragma: no cover - lint: allow-broad-except
        edgeless_possible = True
    if not edgeless_possible:
        footprint = QueryFootprint(
            node_labels=frozenset(),
            dedge_labels=footprint.dedge_labels,
            uedge_labels=footprint.uedge_labels,
            node_keys=footprint.node_keys,
            edge_keys=footprint.edge_keys,
        )
    return footprint


def query_footprint(query: ast.Query) -> QueryFootprint:
    """The read footprint of a whole query (joins merge their sides),
    path-local when no ``shortest`` restrictor and no extension is in it,
    with its ``reach`` and ``others`` (see :class:`QueryFootprint`).

    Total: anything unrecognised yields :data:`BOTTOM`, never an
    exception — a wrong footprint would serve stale answers, an
    over-wide one only costs a recomputation.
    """
    try:
        if isinstance(query, ast.PatternQuery):
            footprint = pattern_footprint(query.pattern)
            if footprint.is_bottom or query.restrictor.shortest:
                return footprint
            return replace(
                footprint, path_local=True, reach=max_path_length(query.pattern)
            )
        if isinstance(query, ast.Join):
            left, right = query_footprint(query.left), query_footprint(query.right)
            others = right if left.others is None else left.others.merge(right)
            return replace(left.merge(right), reach=left.reach, others=others)
    except (DeadlineExceededError, EvaluationLimitError):
        # See pattern_footprint: budget errors are control flow, not
        # analysis failures, and must reach the caller.
        raise
    except Exception:  # pragma: no cover - lint: allow-broad-except
        return BOTTOM
    return BOTTOM
