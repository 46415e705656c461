"""Deterministic JSON wire encoding for GPC answers.

GPC's set semantics is what makes its results transportable: an answer
set is a frozenset of immutable :class:`~repro.gpc.answers.Answer`
values (path tuples plus assignments), so serialising it is a pure
function of the set — no cursors, no iteration state, no server-side
affinity. This module fixes one canonical JSON form for that function:

- **ids** are single-key tagged objects — ``{"n": key}`` (node),
  ``{"d": key}`` (directed edge), ``{"u": key}`` (undirected edge) —
  whose key is a JSON scalar or a tagged tuple ``{"t": [...]}``, so
  non-string keys round-trip exactly;
- **paths** are ``{"p": [id, id, ...]}`` with the alternating
  node/edge element sequence (re-validated on decode);
- **values** add ``{"nothing": true}`` and groups
  ``{"g": [[path, value], ...]}``;
- **answers** are ``{"paths": [...], "mu": {var: value}}``;
- **answer sets** serialise in :func:`~repro.gpc.answers.sort_answers`
  order, so equal frozensets produce byte-identical payloads (cacheable
  and diffable) regardless of hash seeds or worker scheduling.

:func:`decode_answers` is the exact inverse of :func:`encode_answers`:
``decode_answers(encode_answers(s)) == s`` for every answer set the
engine can produce.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import EvaluationError, PathError, WireError
from repro.gpc.answers import Answer, sort_answers
from repro.gpc.assignments import Assignment
from repro.gpc.values import GroupValue, Nothing, NothingType, Value
from repro.graph.ids import (
    DirectedEdgeId,
    GraphElementId,
    NodeId,
    UndirectedEdgeId,
)
from repro.graph.paths import Path

__all__ = [
    "FORMAT",
    "encode_id",
    "decode_id",
    "encode_value",
    "decode_value",
    "encode_answer",
    "decode_answer",
    "encode_answers",
    "decode_answers",
]

#: Format marker carried by full answer-set payloads.
FORMAT = "repro/answers@1"

_ID_TAGS = {NodeId: "n", DirectedEdgeId: "d", UndirectedEdgeId: "u"}
_TAG_IDS = {tag: sort for sort, tag in _ID_TAGS.items()}


# ---------------------------------------------------------------------------
# Id keys: JSON scalars pass through, tuples are tagged
# ---------------------------------------------------------------------------


def _encode_key(key: Any) -> Any:
    if key is None or isinstance(key, (str, bool, int, float)):
        return key
    if isinstance(key, tuple):
        return {"t": [_encode_key(item) for item in key]}
    raise WireError(f"cannot encode id key {key!r} ({type(key).__name__})")


def _decode_key(data: Any) -> Any:
    if data is None or isinstance(data, (str, bool, int, float)):
        return data
    if isinstance(data, dict) and set(data) == {"t"}:
        items = data["t"]
        if not isinstance(items, list):
            raise WireError(f"tagged tuple key must hold a list: {data!r}")
        return tuple(_decode_key(item) for item in items)
    raise WireError(f"cannot decode id key {data!r}")


# ---------------------------------------------------------------------------
# Ids, paths, values
# ---------------------------------------------------------------------------


def encode_id(element: GraphElementId) -> dict[str, Any]:
    """One graph element id as a single-key tagged object."""
    tag = _ID_TAGS.get(type(element))
    if tag is None:
        raise WireError(f"not a graph element id: {element!r}")
    return {tag: _encode_key(element.key)}


def decode_id(data: Any) -> GraphElementId:
    if not (isinstance(data, dict) and len(data) == 1):
        raise WireError(f"malformed id: {data!r}")
    tag, key = next(iter(data.items()))
    sort = _TAG_IDS.get(tag)
    if sort is None:
        raise WireError(f"unknown id tag {tag!r} in {data!r}")
    return sort(_decode_key(key))


def _encode_path(path: Path) -> dict[str, Any]:
    return {"p": [encode_id(element) for element in path.elements]}


def _decode_path(data: Any) -> Path:
    if not (isinstance(data, dict) and set(data) == {"p"}):
        raise WireError(f"malformed path: {data!r}")
    elements = data["p"]
    if not isinstance(elements, list):
        raise WireError(f"path elements must be a list: {data!r}")
    try:
        return Path([decode_id(element) for element in elements])
    except PathError as exc:  # broken alternation, empty path
        raise WireError(f"invalid path {data!r}: {exc}") from exc


def encode_value(value: Value) -> Any:
    """One semantic value (Definition 7) in canonical wire form."""
    if isinstance(value, (NodeId, DirectedEdgeId, UndirectedEdgeId)):
        return encode_id(value)
    if isinstance(value, Path):
        return _encode_path(value)
    if isinstance(value, NothingType):
        return {"nothing": True}
    if isinstance(value, GroupValue):
        return {
            "g": [
                [_encode_path(path), encode_value(inner)]
                for path, inner in value.entries
            ]
        }
    raise WireError(f"cannot encode value {value!r} ({type(value).__name__})")


def decode_value(data: Any) -> Value:
    if not (isinstance(data, dict) and data):
        raise WireError(f"malformed value: {data!r}")
    if "nothing" in data:
        return Nothing
    if "p" in data:
        return _decode_path(data)
    if "g" in data:
        entries = data["g"]
        if not isinstance(entries, list):
            raise WireError(f"group entries must be a list: {data!r}")
        decoded = []
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise WireError(f"group entry must be a pair: {entry!r}")
            decoded.append((_decode_path(entry[0]), decode_value(entry[1])))
        return GroupValue(tuple(decoded))
    return decode_id(data)


# ---------------------------------------------------------------------------
# Answers and answer sets
# ---------------------------------------------------------------------------


def encode_answer(answer: Answer) -> dict[str, Any]:
    """One ``(p-bar, mu)`` pair in canonical wire form."""
    return {
        "paths": [_encode_path(path) for path in answer.paths],
        "mu": {
            variable: encode_value(value)
            for variable, value in sorted(answer.assignment.items())
        },
    }


def decode_answer(data: Any) -> Answer:
    if not (isinstance(data, dict) and "paths" in data and "mu" in data):
        raise WireError(f"malformed answer: {data!r}")
    paths = data["paths"]
    mu = data["mu"]
    if not isinstance(paths, list) or not isinstance(mu, dict):
        raise WireError(f"malformed answer: {data!r}")
    try:
        return Answer(
            tuple(_decode_path(path) for path in paths),
            Assignment(
                {variable: decode_value(value) for variable, value in mu.items()}
            ),
        )
    except EvaluationError as exc:  # zero paths
        raise WireError(f"invalid answer {data!r}: {exc}") from exc


def encode_answers(answers: Iterable[Answer]) -> dict[str, Any]:
    """A whole answer set, deterministically ordered.

    Equal frozensets encode to identical payloads: answers are listed
    in :func:`~repro.gpc.answers.sort_answers` order (radix order on
    the path tuple, then assignment repr), which is independent of set
    iteration order.
    """
    ordered = sort_answers(answers)
    return {
        "format": FORMAT,
        "count": len(ordered),
        "answers": [encode_answer(answer) for answer in ordered],
    }


def decode_answers(data: Any) -> frozenset[Answer]:
    """Inverse of :func:`encode_answers` (format-checked)."""
    if not isinstance(data, dict):
        raise WireError(f"malformed answer set: {data!r}")
    if data.get("format") != FORMAT:
        raise WireError(f"unsupported answer format {data.get('format')!r}")
    answers = data.get("answers")
    if not isinstance(answers, list):
        raise WireError(f"answer set must hold a list: {data!r}")
    return frozenset(decode_answer(answer) for answer in answers)
