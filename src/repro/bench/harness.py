"""Tiny experiment harness used by the ``benchmarks/`` suite.

Each benchmark regenerates one of the paper's formal results as a
printed table (the analogue of the paper's "figures"); pytest-benchmark
supplies the timing machinery, and :class:`Table` renders the measured
series so the run log doubles as the experiment report.

For machine-readable tracking across PRs, set the environment variable
``REPRO_BENCH_JSON`` to a directory: every :meth:`Table.show` then also
writes ``BENCH_<slug>.json`` there (series as a list of row dicts),
so CI can archive the perf trajectory without scraping stdout.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId

__all__ = ["Table", "time_call", "emit_json"]

_ID_SORTS = (NodeId, DirectedEdgeId, UndirectedEdgeId)

#: Directory for machine-readable benchmark results ("" disables).
JSON_ENV_VAR = "REPRO_BENCH_JSON"


def _slug(title: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", title).strip("_").lower()


def emit_json(name: str, payload: Any) -> Path | None:
    """Write ``BENCH_<name>.json`` into ``$REPRO_BENCH_JSON``.

    No-op (returns ``None``) when the variable is unset or empty, so
    interactive runs stay file-free.
    """
    target_dir = os.environ.get(JSON_ENV_VAR, "")
    if not target_dir:
        return None
    directory = Path(target_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{_slug(name)}.json"
    path.write_text(json.dumps(_plain(payload), indent=2, default=str) + "\n")
    return path


def _plain(value: Any) -> Any:
    """``value`` with every graph element id written as its ``str``.
    ``json`` writes any tuple, an id included, as a list before
    ``default`` sees it."""
    if isinstance(value, _ID_SORTS):
        return str(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


@dataclass
class Table:
    """A fixed-width ASCII table accumulated row by row."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values for {len(self.headers)} headers"
            )
        self.rows.append(values)

    def render(self) -> str:
        cells = [[str(h) for h in self.headers]] + [
            [_fmt(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.headers))
        ]
        lines = [self.title, "-" * len(self.title)]
        for index, row in enumerate(cells):
            lines.append(
                "  ".join(value.rjust(width) for value, width in zip(row, widths))
            )
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """A JSON-serialisable form: title plus one dict per row."""
        return {
            "title": self.title,
            "rows": [
                dict(zip(self.headers, row)) for row in self.rows
            ],
        }

    def show(self) -> None:
        print("\n" + self.render())
        emit_json(self.title, self.as_dict())


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100 or value == 0:
            return f"{value:.1f}"
        if value >= 0.01:
            return f"{value:.3f}"
        return f"{value:.2e}"
    return str(value)


def time_call(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` once, returning ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start
