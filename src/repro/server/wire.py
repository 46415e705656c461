"""Columnar JSON wire encoding for GPC answers (``repro/answers@3``).

An answer set is a frozenset of immutable :class:`~repro.gpc.answers.Answer`
values, so its payload is a pure function of the set. The answers of one
expression share its arity (one path per joined pattern) and its schema's
variables (Section 5), so the set ships as a binding table; and every
value is drawn from the answer's own paths (Definition 7), so the payload
*references* elements:

- ``elements`` — each distinct id once, as typed key columns ``{"n":
  [...], "d": [...], "u": [...]}``; indices count through the nodes, then
  the directed, then the undirected edges. A key is a JSON scalar or a
  tagged tuple ``{"t": [...]}``, so non-string keys round-trip exactly;
- ``paths`` — every path as one flat index list, ``lengths`` the element
  count of each, ``arity`` the paths per answer;
- ``mu`` — one column per variable, one entry per answer: an index;
  ``null`` for ``Nothing``; a group as the run ``[begin, end, offset]``
  when its entries are the consecutive one-edge portions of
  ``window[begin:end]``, each valued by its element at ``offset`` (what
  ``-[e]->{1,8}`` binds). An answer's *window* is its paths' indices end
  to end. Any other group is ``[[[i, ...], value], ...]`` and a path is
  ``{"p": [i, ...]}``: index lists keep the codec total.

Indices follow each sort's sorted keys (a rank per distinct element) and
answers the ranks of their paths, so equal frozensets give byte-identical
payloads, and exact etags, whatever the hash seed. :func:`decode_answers`
trusts nothing and checks in bulk: indices are ``int`` (not ``bool`` or
``float``) in range, nodes sit where each path's alternation puts them,
``lengths`` are odd and sum to the flat list, ``count`` and ``arity``
match. Every failure is a :class:`~repro.errors.WireError`.

:func:`render_answers` (the bytes without ``"version"``) is computed once
per cached answer set (:meth:`repro.service.GraphService.rendered`);
:func:`with_version` splices the one field that changes between replies.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, chain, groupby
from operator import attrgetter
from typing import Any, Callable, Iterable

from repro.errors import PathError, WireError
from repro.gpc.answers import Answer
from repro.gpc.assignments import Assignment
from repro.gpc.values import GroupValue, Nothing, NothingType, Value
from repro.graph.ids import DirectedEdgeId, GraphElementId, NodeId, UndirectedEdgeId
from repro.graph.paths import Path

__all__ = ["FORMAT", "encode_id", "decode_id", "encode_answers", "decode_answers",
           "render_answers", "with_version"]

#: Format marker carried by full answer-set payloads.
FORMAT = "repro/answers@3"

#: Tag per id sort, in the order the table's indices count through them.
_ID_TAGS: dict[type, str] = {NodeId: "n", DirectedEdgeId: "d", UndirectedEdgeId: "u"}
_TAG_IDS: dict[str, type] = {tag: sort for sort, tag in _ID_TAGS.items()}
_INT = frozenset({int})
_STR = frozenset({str})
_KEY = attrgetter("key")


def _checked_key(key: Any, direction: str) -> Any:
    """``key`` if it is a scalar both JSON and ``==`` can carry."""
    if isinstance(key, float) and not math.isfinite(key):
        raise WireError(f"cannot {direction} non-finite id key {key!r}")
    if key is None or isinstance(key, (str, bool, int, float)):
        return key
    raise WireError(f"cannot {direction} id key {key!r} ({type(key).__name__})")


def _encode_key(key: Any) -> Any:
    # An id is a tuple too; it is no key, and _checked_key refuses it.
    if isinstance(key, tuple) and type(key) not in _ID_TAGS:
        return {"t": [_encode_key(item) for item in key]}
    return _checked_key(key, "encode")


def _decode_key(data: Any) -> Any:
    if isinstance(data, dict) and set(data) == {"t"}:
        items = data["t"]
        if not isinstance(items, list):
            raise WireError(f"tagged tuple key must hold a list: {data!r}")
        return tuple(_decode_key(item) for item in items)
    return _checked_key(data, "decode")


def encode_id(element: GraphElementId) -> dict[str, Any]:
    """One graph element id as a single-key tagged object (``/mutate``)."""
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


def _indices(items: Any, size: int, what: str) -> list[int]:
    """``items`` if it is a list of ints (not ``true``, not ``1.0``) below ``size``."""
    if isinstance(items, list) and _INT.issuperset(map(type, items)):
        if not items or (min(items) >= 0 and max(items) < size):
            return items
    raise WireError(f"{what} must be a list of ints below {size}")


def _encode_table(objects: Iterable[Any]) -> tuple[dict[str, list], dict[Any, int]]:
    """Typed key columns over the distinct ids among ``objects``, each
    sort ordered by key (by ``repr`` unless all ``str`` or all ``int``),
    and each id's index."""
    canon: dict[Any, Any] = {}
    for obj in objects:
        kept = canon.setdefault(obj, obj)
        if kept is not obj and repr(obj) < repr(kept):
            canon[obj] = obj  # equal ids whose keys differ (1, 1.0): pick one
    by_sort: dict[type, list] = {sort: [] for sort in _ID_TAGS}
    for element in canon.values():
        if type(element) not in by_sort:
            raise WireError(f"not a graph element id: {element!r}")
        by_sort[type(element)].append(element)
    columns: dict[str, list] = {}
    position: dict[Any, int] = {}
    for sort, elements in by_sort.items():
        kinds = set(map(type, map(_KEY, elements)))
        elements.sort(key=_KEY if kinds == _STR or kinds == _INT else repr)
        keys = list(map(_KEY, elements))
        columns[_ID_TAGS[sort]] = keys if kinds <= {str, int} else list(map(_encode_key, keys))
        position.update(zip(elements, range(len(position), len(position) + len(keys))))
    return columns, position


def _encode_value(value: Value, window: tuple, index: Callable[[Any], int]) -> Any:
    """One value; ``index`` maps an element to its table index."""
    if type(value) in _ID_TAGS:
        return index(value)
    if isinstance(value, NothingType):
        return None
    if isinstance(value, Path):
        return {"p": list(map(index, value.elements))}
    if not isinstance(value, GroupValue):
        raise WireError(f"cannot encode value {value!r} ({type(value).__name__})")
    parts = [path.elements for path in value.paths]
    if parts and len(parts[0]) == 3 and value[0][1] in parts[0]:
        offset = parts[0].index(value[0][1])
        begin = next((b for b in range(len(window) - 2) if window[b : b + 3] == parts[0]), -1)
        end = begin + 2 * len(parts) + 1  # if the portions are window[begin:end]
        values = window[begin + offset : end : 2][: len(parts)]  # one per portion
        if begin >= 0 and end <= len(window) and value.values == values:
            if parts == [window[i : i + 3] for i in range(begin, end - 1, 2)]:
                return [begin, end, offset]
    return [
        [list(map(index, part)), _encode_value(inner, window, index)]
        for part, inner in zip(parts, value.values)
    ]


def encode_answers(answers: Iterable[Answer]) -> dict[str, Any]:
    """A whole answer set as a binding table, deterministically ordered.
    The answers must share arity and variables, as one expression's do."""
    rows = list(answers)
    arity = len(rows[0].paths) if rows else 1
    domain = rows[0].assignment.domain if rows else frozenset()
    if any(len(a.paths) != arity or a.assignment.domain != domain for a in rows):
        raise WireError("the answers of one set must share arity and variables")
    windows = [a.paths[0].elements for a in rows] if arity == 1 else [
        tuple(chain.from_iterable(p.elements for p in a.paths)) for a in rows
    ]
    every = list(chain.from_iterable(windows))
    seen = dict(zip(map(id, every), every))
    try:
        return _encode_rows(rows, windows, every, sorted(domain), seen)
    except KeyError:  # a value names an element outside every path: table all of them
        for value in chain.from_iterable(a.assignment.values() for a in rows):
            _encode_value(value, (), lambda obj: id(seen.setdefault(id(obj), obj)))
        return _encode_rows(rows, windows, every, sorted(domain), seen)


def _encode_rows(rows: list, windows: list, every: list, names: list, seen: dict) -> dict:
    columns, position = _encode_table(seen.values())
    by_id = {ident: position[obj] for ident, obj in seen.items()}.__getitem__
    ranks, bounds = list(map(by_id, map(id, every))), list(accumulate(map(len, windows), initial=0))
    ranked = [ranks[a:b] for a, b in zip(bounds, bounds[1:])]
    keys = [([len(p.elements) for p in a.paths], r) for a, r in zip(rows, ranked)]
    order: list[int] = []
    for _, run in groupby(sorted(range(len(rows)), key=keys.__getitem__), keys.__getitem__):
        tied = list(run)  # several share one path tuple (rare): order by assignment
        order.extend(sorted(tied, key=lambda i: repr(rows[i].assignment)) if tied[1:] else tied)
    mu: dict[str, list] = {}
    for name in names:
        values = [rows[i].assignment[name] for i in order]
        if _ID_TAGS.keys() >= set(map(type, values)):
            mu[name] = list(map(by_id, map(id, values)))
        else:
            index = lambda obj: by_id(id(obj))
            mu[name] = [_encode_value(v, windows[i], index) for v, i in zip(values, order)]
    return {
        "format": FORMAT,
        "count": len(rows),
        "arity": len(rows[0].paths) if rows else 1,
        "elements": columns,
        "lengths": [n for i in order for n in keys[i][0]],
        "paths": list(chain.from_iterable(map(ranked.__getitem__, order))),
        "mu": mu,
    }


def decode_answers(data: Any) -> frozenset[Answer]:
    """Inverse of :func:`encode_answers`; every failure is a ``WireError``."""
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise WireError(f"not a {FORMAT} answer set: {type(data).__name__}")
    count, arity, lengths, mu = map(data.get, ("count", "arity", "lengths", "mu"))
    if not (
        type(count) is int and type(arity) is int and arity >= 1 and isinstance(mu, dict)
        and isinstance(lengths, list) and len(lengths) == count * arity
    ):
        raise WireError(f"answer set announces {count!r} answers of arity {arity!r}")
    columns = data.get("elements")
    if not (isinstance(columns, dict) and columns.keys() == _TAG_IDS.keys()):
        raise WireError("the element table must hold exactly the columns n, d, u")
    table: list[GraphElementId] = []
    for tag, sort in _TAG_IDS.items():
        keys = columns[tag]
        if not isinstance(keys, list):
            raise WireError(f"element column {tag!r} must be a list")
        if not _STR.issuperset(map(type, keys)):  # str keys need no check
            keys = list(map(_decode_key, keys))
        table.extend(map(sort, keys))
    flat = _indices(data.get("paths"), len(table), "paths")
    _indices(lengths, len(flat) + 1, "lengths")
    if sum(lengths) != len(flat) or not all(map((1).__and__, lengths)):
        raise WireError("path lengths must be odd and sum to the flat list")
    kinds = bytes(map(len(columns["n"]).__le__, flat))  # 0 for a node, 1 for an edge
    alternation = b"\0\1" * (len(flat) // 2 + 1)
    if kinds != b"".join([alternation[:n] for n in lengths]):
        raise WireError("paths must alternate node, edge, ..., node")
    ids = tuple(map(table.__getitem__, flat))
    offsets = list(accumulate(lengths, initial=0))
    paths = [Path._trusted(ids[a:b]) for a, b in zip(offsets, offsets[1:])]

    def listed(items: Any) -> Path:
        try:
            return Path([table[i] for i in _indices(items, len(table), "a path")])
        except PathError as exc:  # broken alternation, empty path
            raise WireError(f"invalid path {items!r}: {exc}") from exc

    def value(item: Any, lo: int, hi: int) -> Value:
        if type(item) is int and 0 <= item < len(table):
            return table[item]
        if item is None:
            return Nothing
        if type(item) is dict and item.keys() == {"p"}:
            return listed(item["p"])
        if type(item) is list and len(item) == 3 and _INT.issuperset(map(type, item)):
            begin, end, offset = lo + item[0], lo + item[1], item[2]  # a run
            if lo <= begin < end <= hi and (end - begin) & 1 and 0 <= offset <= 2:
                if kinds[begin:end] == alternation[: end - begin]:  # a path of the window
                    return GroupValue(tuple([
                        (Path._trusted(ids[i : i + 3]), ids[i + offset])
                        for i in range(begin, end - 1, 2)
                    ]))
        elif type(item) is list and all(type(each) is list and len(each) == 2 for each in item):
            return GroupValue(tuple([(listed(p), value(v, lo, hi)) for p, v in item]))
        raise WireError(f"malformed value: {item!r}")

    rows: list[list[Any]] = []  # one decoded column per variable
    try:
        for name, column in mu.items():
            if type(name) is not str or not isinstance(column, list) or len(column) != count:
                raise WireError(f"mu column {name!r} must be a list of {count} values")
            if _INT.issuperset(map(type, column)):
                rows.append(list(map(table.__getitem__, _indices(column, len(table), name))))
            else:  # answer i's window is flat[bounds[i]:bounds[i + 1]]
                bounds = offsets[::arity]
                rows.append([value(v, bounds[i], bounds[i + 1]) for i, v in enumerate(column)])
    except RecursionError as exc:
        raise WireError("answer set nests too deeply") from exc
    tuples = zip(*[iter(paths)] * arity)  # each answer's ``arity`` paths
    bindings = [Assignment(zip(mu, row)) for row in zip(*rows)] if rows else [Assignment()] * count
    return frozenset(map(Answer, tuples, bindings))


def render_answers(answers: Iterable[Answer]) -> bytes:
    """The answer set's payload as JSON bytes, without ``"version"``."""
    return json.dumps(encode_answers(answers), sort_keys=True).encode("utf-8")


def with_version(rendered: bytes, version: int) -> bytes:
    """``rendered`` plus ``"version"``: the bytes ``json.dumps(...,
    sort_keys=True)`` gives for the payload with that field set
    (``"version"`` sorts after every key :func:`encode_answers` emits)."""
    return b'%b, "version": %d}' % (memoryview(rendered)[:-1], version)
