"""Exception hierarchy for the GPC reproduction library.

Every error raised by ``repro`` derives from :class:`GPCError`, so callers
can catch library failures with a single ``except`` clause while still
being able to distinguish the broad failure classes below.
"""

from __future__ import annotations

__all__ = [
    "GPCError",
    "GraphError",
    "DuplicateIdError",
    "UnknownIdError",
    "PathError",
    "ParseError",
    "GPCTypeError",
    "UnboundVariableError",
    "TypeMismatchError",
    "IllegalJoinError",
    "EvaluationError",
    "CollectError",
    "DeadlineExceededError",
    "EvaluationLimitError",
    "RestrictorError",
    "TranslationError",
    "DatalogError",
    "WorkloadError",
    "ClusterError",
    "WireError",
]


class GPCError(Exception):
    """Base class for all errors raised by the library."""


# ---------------------------------------------------------------------------
# Graph / data model errors
# ---------------------------------------------------------------------------


class GraphError(GPCError):
    """A property-graph construction or access failed."""


class DuplicateIdError(GraphError):
    """An id was registered twice, or reused across the disjoint id sorts.

    The paper assumes the sets of node ids, directed-edge ids, and
    undirected-edge ids are pairwise disjoint; this error enforces it.
    """


class UnknownIdError(GraphError):
    """An operation referenced a node or edge id not present in the graph."""


class PathError(GraphError):
    """A path is structurally invalid or a concatenation is undefined."""


# ---------------------------------------------------------------------------
# Syntax errors
# ---------------------------------------------------------------------------


class ParseError(GPCError):
    """The concrete GPC syntax could not be parsed.

    Attributes
    ----------
    position:
        Zero-based character offset of the offending token, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# Type system errors (Section 4 of the paper)
# ---------------------------------------------------------------------------


class GPCTypeError(GPCError):
    """An expression is not well-typed under the Figure 2 rules."""


class UnboundVariableError(GPCTypeError):
    """A condition or projection referenced a variable with no derived type."""


class TypeMismatchError(GPCTypeError):
    """Two occurrences of a variable received incompatible types."""


class IllegalJoinError(GPCTypeError):
    """Concatenation or join shares a variable that is not a singleton.

    The typing rules only allow implicit joins over ``Node``/``Edge``
    variables; sharing ``Group``, ``Maybe`` or ``Path`` variables is an
    error (Figure 2, last two rule groups).
    """


# ---------------------------------------------------------------------------
# Evaluation errors (Section 5)
# ---------------------------------------------------------------------------


class EvaluationError(GPCError):
    """Evaluation of a well-typed expression failed."""


class CollectError(EvaluationError):
    """``collect`` was undefined for the given factorization.

    Raised under Approach 1 (syntactic restriction) when a repeated
    pattern may match an edgeless path, and under Approach 2 (run-time
    restriction) when an edgeless factor is encountered.
    """


class EvaluationLimitError(EvaluationError):
    """A configured engine safety limit was exceeded during evaluation."""


class DeadlineExceededError(EvaluationError):
    """The request's deadline passed while evaluation was in progress.

    Raised by :func:`repro.obs.deadline.check_deadline` from the
    engine's long-running loops; the HTTP front end maps it to 504
    (and records the partial span tree for post-mortems).
    """


class RestrictorError(EvaluationError):
    """A query was evaluated without a restrictor, or with an invalid one."""


# ---------------------------------------------------------------------------
# Baseline / translation errors (Section 6)
# ---------------------------------------------------------------------------


class TranslationError(GPCError):
    """A Theorem 11 translation received an unsupported input."""


class DatalogError(GPCError):
    """A Datalog program (regular-query substrate) is malformed."""


class WorkloadError(GPCError):
    """A benchmark workload specification is invalid."""


class ClusterError(GPCError):
    """One or more shards of a scattered evaluation failed.

    Raised by the cluster service after *all* shards have been gathered,
    so sibling shards complete (and their latencies are recorded) even
    when one worker raises. ``failures`` holds ``ShardFailure`` entries
    (shard index, worker tag, original exception); the first original
    exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class WireError(GPCError):
    """A wire payload cannot be encoded or decoded.

    Raised by :mod:`repro.server.wire` when an answer contains a value
    the JSON encoding cannot represent, or when an incoming payload is
    malformed (bad tag, broken path alternation, wrong shape).
    """
