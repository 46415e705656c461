"""The three observability surfaces say after the metrics-model change
what they said before it.

``golden_session.json`` is what ``golden_session.py`` printed when run
against the parent of that change; this asserts the same script still
observes the same thing through every façade — ``/stats`` key sets and
values, the ``/metrics`` line set, the shapes of ``/insights`` — with
clock- and scheduling-dependent values masked on both sides. JSON key
order is not part of the contract (the comparison is of dicts); the
exposition is compared as a sorted line set.

Two rows were corrected by hand since (PR 23): a deadline that expires
inside a cluster shard is a timeout of its fingerprint, so the
``cluster-thread`` insights entry of the ``SHORTEST`` text says
``timeouts: 1`` and its ``/metrics`` holds the matching line.
Four more were added by hand when ``/query`` learned to revalidate:
``repro_server_bodies_not_modified`` in every façade's ``/metrics``
(0 for the probe servers, 2 for ``server``, whose client revalidates
the hit and the restamp) and ``bodies_not_modified: 2`` in the
``server`` row's ``http_stats``.
When the length search learned to prune by the end candidates,
``search_states_pruned: 0`` was added beside every
``nfa_transitions`` (18 engine counter dicts) and
``repro_engine_search_states_pruned 0`` to every façade's
``/metrics``: the session's one ``SHORTEST`` blows its deadline before
it searches.
When the server lost its ``/query`` coalescer, the file was
regenerated from the tree (the parent's output was byte-identical to
it): ``coalesced`` and ``max_batch`` left ``/stats`` and ``/metrics``,
and the ``server`` row's ``dispatches`` went 7 → 8, because a
``/batch`` is a worker-thread hop too.
When an added edge began to extend a path-local entry instead of
invalidating it, the file was regenerated from the tree: every cache
outcome dict and every cache's ``/metrics`` gained ``extends``; the
read after the ``add_edge`` became an extend (``hits`` +1, ``misses``
−1, ``invalidations`` 1 → 0 in each façade's result cache and in the
``CHEAP`` insights entry); and that read's evaluation, restricted to
the new edge's endpoints, accepts 20 fewer witnesses (``witnesses`` and
``witness_steps`` −20 in the ``CHEAP`` entry and the engine totals).
The script then gained a read of a bounded ``SHORTEST`` text before
and after the ``add_edge``, so every façade still shows an
invalidation (``SHORTEST`` is not path-local), and the file was
regenerated again (the previous tree's output was byte-identical to
it): a ``NEAREST`` insights entry with ``misses: 2`` and
``invalidations: 1``, its work in the engine totals, two more queries
and one more plan miss per façade. A cluster extend became one shard
call over its seeds, so ``cluster-thread``'s ``scatters`` dropped by
one and its ``CHEAP`` entry prunes 4 fewer seeds.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import golden_session

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_session.json").read_text("utf-8")
)


def test_the_golden_covers_every_facade():
    assert sorted(GOLDEN) == sorted(golden_session.FACADES)


@pytest.mark.parametrize("facade", golden_session.FACADES)
def test_session_observes_what_the_parent_commit_observed(facade):
    # Through JSON and back, as the golden went: tuples become lists.
    observed = json.loads(json.dumps(golden_session.run(facade)))
    expected = GOLDEN[facade]
    assert sorted(observed) == sorted(expected)
    for surface in expected:
        assert observed[surface] == expected[surface], surface


def test_the_session_exercises_what_it_claims_to():
    """Guards the golden itself: a script that stopped restamping or
    timing out would still compare equal to a golden that never did."""
    for facade in golden_session.FACADES:
        cache = GOLDEN[facade]["stats"]["result_cache"]
        for outcome in (
            "hits", "misses", "restamps", "extends", "invalidations", "bypasses"
        ):
            assert cache[outcome] >= 1, (facade, outcome)
        entries = GOLDEN[facade]["insights"]
        assert sum(entry["errors"] for entry in entries) >= 1, facade
        for outcome in ("extends", "invalidations"):
            assert any(entry["cache"][outcome] for entry in entries), outcome
            assert any(
                re.fullmatch(rf"repro_\w+_result_cache_{outcome} [1-9]\d*", line)
                for line in GOLDEN[facade]["metrics"]
            ), (facade, outcome)
        assert GOLDEN[facade]["stats"]["snapshots_derived"] >= 1, facade
    assert GOLDEN["server"]["http_stats"]["timeouts"] == 1
    assert GOLDEN["server"]["http_stats"]["mutations"] == 2
    assert GOLDEN["server"]["http_stats"]["bodies_not_modified"] == 2
    assert GOLDEN["cluster-thread"]["stats"]["shard_failures"] >= 1
