#!/usr/bin/env python3
"""Compare two result sets of the `layers` benchmark.

    python3 benchmarks/layers/compare.py BASE NEW
    python3 benchmarks/layers/compare.py --summarise RUNS BASELINE_DIR --commit HASH

A result set is a directory of result files written by ``run.py --out``
(or of summaries written by ``--summarise``, such as ``baseline/``),
holding at least three runs per workload and mode. For every (metric,
workload) pair this prints both medians with their quartiles and the
ratio NEW / BASE; end-to-end metrics also get a verdict from the
bounds in ``BENCHMARK.json``:

- ``unresolved`` — BASE's own quartile spread exceeds the bound, so a
  difference of that size cannot be told from noise;
- ``worse`` / ``better`` — NEW's median differs from BASE's by more
  than the bound, in that direction;
- ``same`` — otherwise.

Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

MIN_RUNS = 3


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """``(workload, trace) -> [run, ...]`` from every JSON file in
    ``directory``; a summary file contributes each of its ``runs``."""
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        document = json.loads(path.read_text())
        for run in document.get("runs", [document]):
            key = (run.get("workload", document.get("workload")), run["trace"])
            runs.setdefault(key, []).append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """The distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    if spread(base) > bound:
        return "unresolved"
    base_median, new_median = statistics.median(base), statistics.median(new)
    if not base_median:
        return "same" if not new_median else "unresolved"
    change = (new_median - base_median) / base_median
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base_dir: Path, new_dir: Path) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    base_runs, new_runs = load(base_dir), load(new_dir)
    worse = 0
    header = (
        f"{'workload':<15} {'metric':<46} {'base q1/med/q3':>30} "
        f"{'new q1/med/q3':>30} {'new/base':>9}  verdict"
    )
    print(header)
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, _trace = key
        base, new = base_runs[key], new_runs[key]
        if min(len(base), len(new)) < MIN_RUNS:
            sys.exit(
                f"{workload}: need {MIN_RUNS} runs per set, "
                f"got {len(base)} and {len(new)}"
            )
        for name in base[0]["metrics"]:
            if any(name not in run["metrics"] for run in base + new):
                continue
            b = [run["metrics"][name] for run in base]
            n = [run["metrics"][name] for run in new]
            if not any(b) and not any(n):
                continue  # a layer this workload never enters
            bq, nq = quartiles(b), quartiles(n)
            ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "-"
            if name in end_to_end:
                metric = end_to_end[name]
                result = verdict(b, n, metric["better"], metric["bound"])
                worse += result == "worse"
            else:
                result = "-"
            print(
                f"{workload:<15} {name:<46} "
                f"{bq[0]:>9.3f} {bq[1]:>9.3f} {bq[2]:>9.3f}  "
                f"{nq[0]:>9.3f} {nq[1]:>9.3f} {nq[2]:>9.3f} {ratio:>9}  {result}"
            )
    return 1 if worse else 0


def summarise(runs_dir: Path, baseline_dir: Path, commit: str) -> int:
    """Write ``baseline_dir/<workload>.json``: each run's metrics (not
    its raw spans or samples), plus the first traced run's per-class
    table and the environment the runs were made in."""
    by_workload: dict[str, list[dict]] = {}
    for (workload, _trace), runs in load(runs_dir).items():
        by_workload.setdefault(workload, []).extend(runs)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for workload, runs in by_workload.items():
        first = runs[0]
        traced = [run for run in runs if run["trace"]]
        summary = {
            "workload": workload,
            "commit": commit,
            "nproc": first["nproc"],
            "python": first["python"],
            "seconds": first["seconds"],
            "per_class": traced[0]["per_class"] if traced else {},
            "runs": [
                {
                    "trace": run["trace"],
                    "seed": run["seed"],
                    "attempted": run["attempted"],
                    "failed": run["failed"],
                    "samples": run["samples"],
                    "speed_factors": run["speed_factors"],
                    "metrics": run["metrics"],
                }
                for run in runs
            ],
        }
        (baseline_dir / f"{workload}.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument(
        "--summarise",
        action="store_true",
        help="treat BASE as a directory of runs and NEW as the baseline directory to write",
    )
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args(argv)
    if args.summarise:
        return summarise(args.base, args.new, args.commit)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
