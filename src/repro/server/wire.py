"""Deterministic JSON wire encoding for GPC answers (``repro/answers@2``).

GPC's set semantics is what makes its results transportable: an answer
set is a frozenset of immutable :class:`~repro.gpc.answers.Answer`
values (path tuples plus assignments), so serialising it is a pure
function of the set — no cursors, no iteration state, no server-side
affinity. And every value in an answer is drawn from the paths of that
answer set (Definition 7), so the wire form *references* graph elements
instead of copying them:

- **elements** — one table per answer set listing each distinct node
  or edge id once, as a single-key tagged object ``{"n": key}`` (node),
  ``{"d": key}`` (directed edge) or ``{"u": key}`` (undirected edge)
  whose key is a JSON scalar or a tagged tuple ``{"t": [...]}``, so
  non-string keys round-trip exactly. Everything below names an
  element by its index in this table;
- **paths** are index lists ``[i, j, k, ...]`` in the alternating
  node/edge order (re-validated on decode through the public
  :class:`~repro.graph.paths.Path` constructor);
- **values** are an index (a node or edge), ``{"p": [i, ...]}`` (a
  path), ``{"nothing": true}`` or a group
  ``{"g": [[[i, ...], value], ...]}``;
- **answers** are ``{"paths": [[i, ...], ...], "mu": {var: value}}``;
- **answer sets** serialise in :func:`~repro.gpc.answers.sort_answers`
  order and the table in first-appearance order of that listing, so
  equal frozensets produce byte-identical payloads (cacheable and
  diffable) regardless of hash seeds or worker scheduling.

:func:`decode_answers` is the exact inverse of :func:`encode_answers`:
``decode_answers(encode_answers(s)) == s`` for every answer set the
engine can produce. It trusts nothing: indices must be ``int`` (not
``bool``) within the table, ``count`` must match, keys must be finite.

Because the encoding is a function of the set alone,
:func:`render_answers` — the payload's bytes *without* ``"version"`` —
can be computed once and kept beside a cached answer set
(:meth:`repro.service.GraphService.rendered`); :func:`with_version`
splices the one field that changes between replies onto those bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence, Union

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
    "render_answers",
    "with_version",
]

#: Format marker carried by full answer-set payloads.
FORMAT = "repro/answers@2"

_IdSort = Union[type[NodeId], type[DirectedEdgeId], type[UndirectedEdgeId]]
_ID_TAGS: dict[_IdSort, str] = {
    NodeId: "n",
    DirectedEdgeId: "d",
    UndirectedEdgeId: "u",
}
_TAG_IDS: dict[str, _IdSort] = {tag: sort for sort, tag in _ID_TAGS.items()}

#: The encoder's element table: each distinct id to its index, in
#: first-appearance order (which is the order the payload lists them).
ElementIndex = dict[GraphElementId, int]


# ---------------------------------------------------------------------------
# Id keys: JSON scalars pass through, tuples are tagged
# ---------------------------------------------------------------------------


def _checked_key(key: Any, direction: str) -> Any:
    """``key`` if it is a scalar both JSON and ``==`` can carry."""
    if isinstance(key, float) and not math.isfinite(key):
        raise WireError(f"cannot {direction} non-finite id key {key!r}")
    if key is None or isinstance(key, (str, bool, int, float)):
        return key
    raise WireError(
        f"cannot {direction} id key {key!r} ({type(key).__name__})"
    )


def _encode_key(key: Any) -> Any:
    if isinstance(key, tuple):
        return {"t": [_encode_key(item) for item in key]}
    return _checked_key(key, "encode")


def _decode_key(data: Any) -> Any:
    if isinstance(data, dict) and set(data) == {"t"}:
        items = data["t"]
        if not isinstance(items, list):
            raise WireError(f"tagged tuple key must hold a list: {data!r}")
        return tuple(_decode_key(item) for item in items)
    return _checked_key(data, "decode")


# ---------------------------------------------------------------------------
# Ids (the table's rows; also what /mutate speaks)
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


# ---------------------------------------------------------------------------
# Paths and values, as references into the element table
# ---------------------------------------------------------------------------


def _encode_path(path: Path, index: ElementIndex) -> list[int]:
    return [index.setdefault(element, len(index)) for element in path.elements]


def _decode_path(data: Any, elements: Sequence[GraphElementId]) -> Path:
    if not isinstance(data, list):
        raise WireError(f"path must be a list of element indices: {data!r}")
    size = len(elements)
    for item in data:
        # ``type is int`` keeps ``true`` and ``1.0`` out; the range
        # check keeps ``-1`` from wrapping around to the last element.
        if type(item) is not int or not 0 <= item < size:
            raise WireError(f"bad element index {item!r} in path {data!r}")
    try:
        return Path([elements[item] for item in data])
    except PathError as exc:  # broken alternation, empty path
        raise WireError(f"invalid path {data!r}: {exc}") from exc


def encode_value(value: Value, index: ElementIndex) -> Any:
    """One semantic value (Definition 7) in canonical wire form,
    entering the ids it mentions into ``index``."""
    if isinstance(value, (NodeId, DirectedEdgeId, UndirectedEdgeId)):
        return index.setdefault(value, len(index))
    if isinstance(value, Path):
        return {"p": _encode_path(value, index)}
    if isinstance(value, NothingType):
        return {"nothing": True}
    if isinstance(value, GroupValue):
        return {
            "g": [
                [_encode_path(path, index), encode_value(inner, index)]
                for path, inner in value.entries
            ]
        }
    raise WireError(f"cannot encode value {value!r} ({type(value).__name__})")


def decode_value(data: Any, elements: Sequence[GraphElementId]) -> Value:
    if type(data) is int:
        if not 0 <= data < len(elements):
            raise WireError(f"element index {data!r} out of range")
        return elements[data]
    if not (isinstance(data, dict) and len(data) == 1):
        raise WireError(f"malformed value: {data!r}")
    tag, body = next(iter(data.items()))
    if tag == "p":
        return _decode_path(body, elements)
    if tag == "nothing" and body is True:
        return Nothing
    if tag == "g" and isinstance(body, list):
        entries = []
        for entry in body:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise WireError(f"group entry must be a pair: {entry!r}")
            entries.append(
                (
                    _decode_path(entry[0], elements),
                    decode_value(entry[1], elements),
                )
            )
        return GroupValue(tuple(entries))
    raise WireError(f"malformed value: {data!r}")


# ---------------------------------------------------------------------------
# Answers and answer sets
# ---------------------------------------------------------------------------


def encode_answer(answer: Answer, index: ElementIndex) -> dict[str, Any]:
    """One ``(p-bar, mu)`` pair in canonical wire form."""
    return {
        "paths": [_encode_path(path, index) for path in answer.paths],
        "mu": {
            variable: encode_value(value, index)
            for variable, value in sorted(answer.assignment.items())
        },
    }


def decode_answer(data: Any, elements: Sequence[GraphElementId]) -> Answer:
    if not (isinstance(data, dict) and "paths" in data and "mu" in data):
        raise WireError(f"malformed answer: {data!r}")
    paths = data["paths"]
    mu = data["mu"]
    if not isinstance(paths, list) or not isinstance(mu, dict):
        raise WireError(f"malformed answer: {data!r}")
    try:
        return Answer(
            tuple([_decode_path(path, elements) for path in paths]),
            Assignment(
                {
                    variable: decode_value(value, elements)
                    for variable, value in mu.items()
                }
            ),
        )
    except EvaluationError as exc:  # zero paths
        raise WireError(f"invalid answer {data!r}: {exc}") from exc


def encode_answers(answers: Iterable[Answer]) -> dict[str, Any]:
    """A whole answer set, deterministically ordered.

    Equal frozensets encode to identical payloads: answers are listed
    in :func:`~repro.gpc.answers.sort_answers` order (radix order on
    the path tuple, then assignment repr), which is independent of set
    iteration order, and the element table follows that listing.
    """
    index: ElementIndex = {}
    encoded = [encode_answer(answer, index) for answer in sort_answers(answers)]
    return {
        "format": FORMAT,
        "count": len(encoded),
        "elements": [encode_id(element) for element in index],
        "answers": encoded,
    }


def decode_answers(data: Any) -> frozenset[Answer]:
    """Inverse of :func:`encode_answers` (format- and count-checked)."""
    if not isinstance(data, dict):
        raise WireError(f"malformed answer set: {data!r}")
    if data.get("format") != FORMAT:
        raise WireError(f"unsupported answer format {data.get('format')!r}")
    table = data.get("elements")
    answers = data.get("answers")
    if not isinstance(table, list) or not isinstance(answers, list):
        raise WireError("answer set must hold an element table and a list")
    count = data.get("count")
    if type(count) is not int or count != len(answers):
        raise WireError(
            f"answer set announces {count!r} answers, carries {len(answers)}"
        )
    elements = [decode_id(element) for element in table]
    return frozenset([decode_answer(answer, elements) for answer in answers])


# ---------------------------------------------------------------------------
# Rendered bytes: the part of a reply that only depends on the set
# ---------------------------------------------------------------------------


def render_answers(answers: Iterable[Answer]) -> bytes:
    """The answer set's payload as JSON bytes, without ``"version"``."""
    return json.dumps(encode_answers(answers), sort_keys=True).encode("utf-8")


def with_version(rendered: bytes, version: int) -> bytes:
    """``rendered`` plus ``"version"``: the bytes ``json.dumps(...,
    sort_keys=True)`` gives for the payload with that field set
    (``"version"`` sorts after every key :func:`encode_answers` emits)."""
    return b'%b, "version": %d}' % (memoryview(rendered)[:-1], version)
