"""Regression tests for ``__contains__`` exception narrowing.

``x in graph`` swallows :class:`TypeError` (an unhashable probe is
simply "not an element") but must *not* swallow anything else — most
importantly the deadline/limit errors the engine uses as control flow.
These used to be eaten by a broad ``except Exception`` on
:class:`PropertyGraph` and :class:`GraphSnapshot`, turning a fired
deadline into a silent ``False``. The same narrowing applies to the footprint module's
defensive guards around ``min_path_length``.
"""

from __future__ import annotations

import pytest

from repro.errors import DeadlineExceededError, EvaluationLimitError
from repro.gpc import footprint as footprint_module
from repro.gpc.footprint import pattern_footprint, query_footprint
from repro.gpc.parser import parse_query
from repro.graph import GraphBuilder


class _ExplodingHash:
    """A probe whose ``__hash__`` raises like a fired deadline."""

    def __init__(self, exception: Exception):
        self.exception = exception

    def __hash__(self):
        raise self.exception


def _graph():
    return GraphBuilder().node("a", "P").edge("a", "a", "r").build()


def _views():
    graph = _graph()
    return [graph, graph.snapshot()]


class TestContainsNarrowing:
    def test_unhashable_probe_is_not_an_element(self):
        for view in _views():
            assert ([] in view) is False

    def test_arbitrary_object_is_not_an_element(self):
        for view in _views():
            assert ("not-an-id" in view) is False

    def test_deadline_error_propagates(self):
        for view in _views():
            with pytest.raises(DeadlineExceededError):
                _ExplodingHash(DeadlineExceededError("deadline")) in view

    def test_limit_error_propagates(self):
        for view in _views():
            with pytest.raises(EvaluationLimitError):
                _ExplodingHash(EvaluationLimitError("limit")) in view


class TestFootprintNarrowing:
    QUERY = "TRAIL (x:P) -[:r]-> (y)"

    def test_deadline_error_propagates_from_pattern_footprint(
        self, monkeypatch
    ):
        def explode(pattern):
            raise DeadlineExceededError("deadline")

        monkeypatch.setattr(footprint_module, "min_path_length", explode)
        pattern = parse_query(self.QUERY).pattern
        with pytest.raises(DeadlineExceededError):
            pattern_footprint(pattern)

    def test_limit_error_propagates_from_query_footprint(self, monkeypatch):
        def explode(pattern):
            raise EvaluationLimitError("limit")

        monkeypatch.setattr(footprint_module, "min_path_length", explode)
        with pytest.raises(EvaluationLimitError):
            query_footprint(parse_query(self.QUERY))

    def test_other_failures_stay_conservative(self, monkeypatch):
        # The broad guard is deliberate for non-control-flow errors:
        # a wrong footprint would be a correctness bug, so unknown
        # analysis failures degrade to the conservative footprint.
        def explode(pattern):
            raise RuntimeError("boom")

        monkeypatch.setattr(footprint_module, "min_path_length", explode)
        footprint = query_footprint(parse_query(self.QUERY))
        # The length-0 refinement would collapse node_labels to the
        # empty set (the pattern needs an edge); when the bound
        # analysis fails, the refinement is skipped, not the footprint.
        assert footprint.node_labels != frozenset()
