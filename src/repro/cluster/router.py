"""Scatter/gather routing: shard construction, merge, failure surfacing.

The router owns the protocol between :class:`ClusterService` and its
executor backend:

- **scatter**: one :class:`~repro.cluster.backends.ShardCall` per
  partition cell, all against the same immutable snapshot;
- **gather**: shard outcomes are walked *in shard order* and their
  answer frozensets unioned. GPC's set semantics makes the merge
  deterministic regardless of worker scheduling — disjoint seed cells
  yield disjoint answer sets, and frozenset union is order-insensitive
  — so the fixed gather order exists purely to make latency accounting
  and failure reporting reproducible;
- **failure surfacing**: a failing shard never aborts its siblings.
  All outcomes are gathered first (the cluster service has recorded
  the latency of every shard that ran by then), then a
  :class:`repro.errors.ClusterError` is raised carrying one
  :class:`ShardFailure` per failed shard with the worker tag and
  original exception (a deadline that expired in every failed shard
  stays a :class:`repro.errors.DeadlineExceededError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ClusterError, DeadlineExceededError
from repro.gpc.answers import Answer
from repro.cluster.backends import ShardCall, ShardOutcome
from repro.graph.ids import NodeId
from repro.obs import current_carrier, remaining

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpc.engine import EngineConfig

__all__ = ["ShardFailure", "ScatterGatherRouter"]


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard: which cell, which worker, what it raised."""

    shard: int
    worker: str
    error: Exception

    def describe(self) -> str:
        return (
            f"shard {self.shard} on worker {self.worker}: "
            f"{type(self.error).__name__}: {self.error}"
        )


class ScatterGatherRouter:
    """Builds shard calls and merges their outcomes."""

    def scatter(
        self,
        query,
        config: "EngineConfig",
        cells: Sequence[frozenset[NodeId]],
    ) -> list[ShardCall]:
        """One call per partition cell.

        Each call captures the caller's ambient trace context (as an
        explicit carrier, since contextvars stop at the executor
        boundary) and the remaining request-deadline budget, so shard
        evaluation is traced and deadline-bounded wherever it runs.
        """
        carrier = current_carrier()
        deadline_s = remaining()
        return [
            ShardCall(
                query, config, cell, carrier=carrier, deadline_s=deadline_s
            )
            for cell in cells
        ]

    def gather(self, outcomes: Sequence[ShardOutcome]) -> frozenset[Answer]:
        """Union the shard answers in shard order; raise after the
        full gather when any shard failed."""
        failures = [
            ShardFailure(index, outcome.worker, outcome.error)
            for index, outcome in enumerate(outcomes)
            if not outcome.ok
        ]
        if failures:
            raise self.failure_error(failures)
        return frozenset().union(
            *(outcome.result for outcome in outcomes)
        ) if outcomes else frozenset()

    def failure_error(self, failures: Sequence[ShardFailure]) -> Exception:
        """A :class:`ClusterError` summarising ``failures`` — or, when
        every one of them is the request's deadline expiring inside its
        shard, a :class:`DeadlineExceededError` (the request timed out;
        the cluster did not fail) — chained to the first original
        exception."""
        summary = f"{len(failures)} shard(s) failed: " + "; ".join(
            f.describe() for f in failures
        )
        if all(isinstance(f.error, DeadlineExceededError) for f in failures):
            error: Exception = DeadlineExceededError(summary)
        else:
            error = ClusterError(summary, failures=failures)
        error.__cause__ = failures[0].error
        return error
