"""Prometheus text-exposition rendering for the stats surfaces.

The serving layers keep their counters in trees of
:class:`~repro.obs.counters.Counters` records. :func:`tree_lines` walks
such a tree into the `Prometheus text format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
``name value`` lines with ``# TYPE`` metadata — without the layers
having to know anything about Prometheus:

- a record gives one sample per field and derived value, nested
  records with ``_``-joined names (``result_cache.hits`` of the
  service's stats → ``repro_service_result_cache_hits 3``);
- a :class:`~repro.obs.counters.LatencyRecorder` gives a true
  fixed-bucket histogram ``<name>_seconds`` (cumulative ``le`` buckets
  plus ``_sum``/``_count``), not its windowed summary;
- a :class:`~repro.obs.counters.Keyed` mapping — per worker, per
  fingerprint — gives *labeled* series (``…{worker="pid-123"}``)
  instead of per-key metric names, the idiomatic Prometheus shape for
  a dynamic key set;
- a plain mapping of numbers flattens like a record.

Everything emitted is a gauge-or-counter snapshot; no state is kept
here.
"""

from __future__ import annotations

import re
from typing import Mapping, Optional

from repro.obs.counters import (
    Counters,
    Keyed,
    LatencyRecorder,
    SharedCounters,
    rendered,
)

__all__ = [
    "sanitize",
    "histogram_lines",
    "labeled_summary_lines",
    "tree_lines",
    "render_metrics",
]

_INVALID = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def sanitize(name: str) -> str:
    """A valid Prometheus metric-name fragment."""
    cleaned = _INVALID.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def _format_value(value) -> Optional[str]:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return None


def histogram_lines(name: str, histogram: Mapping) -> list[str]:
    """Render one histogram payload (``buckets``/``sum``/``count`` as
    produced by :meth:`LatencyRecorder.histogram`) with *cumulative*
    bucket counts and the trailing ``+Inf`` bucket, per the format."""
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for upper, count in histogram["buckets"]:
        cumulative += count
        lines.append(f'{name}_bucket{{le="{upper}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {histogram["count"]}')
    lines.append(f"{name}_sum {repr(float(histogram['sum']))}")
    lines.append(f"{name}_count {histogram['count']}")
    return lines


def labeled_summary_lines(
    name: str, label: str, per_key: Mapping[str, Mapping]
) -> list[str]:
    """Render one labeled series per key from per-key summary dicts —
    e.g. cluster per-worker shard latencies as
    ``…_count{worker="pid-7"}``."""
    lines: list[str] = []
    for key in sorted(per_key):
        summary = per_key[key]
        tag = f'{{{label}="{_escape_label(str(key))}"}}'
        for field in sorted(summary):
            formatted = _format_value(summary[field])
            if formatted is not None:
                lines.append(f"{name}_{sanitize(field)}{tag} {formatted}")
    return lines


def tree_lines(
    name: str, node, names: Optional[Mapping[str, str]] = None
) -> list[str]:
    """The exposition lines of one stats subtree rooted at ``name``.

    ``names`` renames subtrees whose series predate the tree
    (``{"repro_service_engine": "repro_engine"}``): the key is the
    ``_``-joined path the walk would use, the value what to emit.
    """
    names = names or {}
    name = names.get(name, name)
    if isinstance(node, LatencyRecorder):
        return histogram_lines(f"{name}_seconds", node.histogram())
    if isinstance(node, Keyed):
        return labeled_summary_lines(name, node.label, rendered(node))
    if isinstance(node, SharedCounters):
        # The root of a tree other threads update: walk it under the
        # lock that guards it (recorders are read raw, not via as_dict).
        with node.lock:
            return _record_lines(name, node, names)
    if isinstance(node, Counters):
        return _record_lines(name, node, names)
    if not isinstance(node, Mapping):
        formatted = _format_value(node)
        return [] if formatted is None else [f"{name} {formatted}"]
    lines: list[str] = []
    for key in sorted(node):
        lines.extend(tree_lines(f"{name}_{sanitize(str(key))}", node[key], names))
    return lines


def _record_lines(name: str, record: Counters, names) -> list[str]:
    """One sample per field and derived value of ``record``."""
    lines: list[str] = []
    for key, value in sorted(record.items()):
        lines.extend(tree_lines(f"{name}_{sanitize(key)}", value, names))
    return lines


def render_metrics(
    sections: Mapping[str, object], names: Optional[Mapping[str, str]] = None
) -> str:
    """One exposition body from ``{prefix: stats subtree}`` sections
    (:func:`tree_lines` each, in the order given)."""
    lines: list[str] = []
    for prefix in sections:
        lines.extend(tree_lines(prefix, sections[prefix], names))
    return "\n".join(lines) + "\n"
