#!/usr/bin/env python3
"""Run the `layers` benchmark.

    python3 benchmarks/layers/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR] [--scale full|tiny]

Without ``--workload`` every workload runs; without ``--trace`` each
runs untraced (end-to-end metrics) and then traced (per-layer metrics).
Every metric is printed by name with its unit, answers are checked, and
with ``--out`` each run's full result is written there as JSON. The
last line of standard output is the last run's result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a checkout of the repository")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layersbench import loadgen, metrics  # noqa: E402
from layersbench.probe import Probe, Speed  # noqa: E402
from layersbench.replay import Replayer  # noqa: E402
from layersbench.workloads import WORKLOADS  # noqa: E402


#: The served phases' share of a traced run: enough for phase A of
#: ``point_lookup`` to pass the 1000 samples a p99 needs.
TRACED_SERVED_SHARE = 0.6


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """One workload, one mode. Untraced: set up one to three times
    (``setup_s`` is their median) and spend all of ``seconds`` on the
    served phases. Traced: set up once, serve for 60 % of ``seconds``,
    replay in process for about the rest."""
    workload = WORKLOADS[name]
    nproc = os.cpu_count() or 1
    server_cpu, driver_cpus = loadgen.split_cpus()
    inherited = os.sched_getaffinity(0)
    os.sched_setaffinity(0, driver_cpus)
    speed = Speed(Probe(HERE, server_cpu), Probe(HERE, min(driver_cpus)))
    try:
        oracle = loadgen.Oracle(workload, seed, scale)
        replayer = None
        if trace:
            schedule = workload.build_schedule(seed, scale)
            replayer = Replayer(workload, oracle.service.graph, schedule, nproc)
            replayer.cold_start()
        served = loadgen.serve_and_measure(
            workload,
            seed,
            scale,
            TRACED_SERVED_SHARE * seconds if trace else seconds,
            1 if trace else 3,
            oracle,
            nproc,
            server_cpu,
            speed,
        )
        if trace:
            replayer.run(oracle, (1 - TRACED_SERVED_SHARE) * seconds, seed, scale)
            replayer.at_reference_speed(
                speed.driver.factor(*replayer.windows["cold"]),
                speed.driver.factor(*replayer.windows["replay"]),
            )
    finally:
        speed.stop()
        os.sched_setaffinity(0, inherited)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "nproc": nproc,
        "python": platform.python_version(),
        "attempted": served["attempted"],
        "failed": served["failed"],
        "samples": served["samples"],
        "speed_factors": served["speed_factors"],
        "phase_a_ms": served["phase_a_ms"],
        "problems": served["problems"],
    }
    if not trace:
        result["metrics"] = served["end_to_end"]
        result["units"] = {k: v[0] for k, v in metrics.END_TO_END.items()}
        return result
    wrong = [c.name for c in replayer.classes.values() if not c.equal]
    result["failed"] += len(wrong)
    result["problems"] += [f"{name}: replayed answers differ" for name in wrong]
    result["metrics"] = metrics.per_layer(workload, served, replayer)
    result["units"] = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    result["end_to_end_while_traced"] = served["end_to_end"]
    result["unresolved"] = metrics.unresolved_classes(replayer)
    result["notes"] = replayer.notes + [
        f"{c.name}: {note}" for c in replayer.classes.values() for note in c.notes
    ]
    start, end = replayer.windows["replay"]
    result["replay_s"] = end - start
    result["spans"] = replayer.recorder.spans
    result["per_class"] = {
        c.name: {
            "text": c.text,
            "reps": c.reps,
            "answers": c.answers,
            "http_p50_ms": served["class_p50_ms"][c.name],
            "service_ms": replayer.passes["service"]["class_ms"].get(c.name, 0.0),
            "eval_ms": c.eval_ms,
            "staged_ms": c.staged_ms,
            "replay_gap": c.gap,
            "join_ms": c.join_ms,
            "stages_ms": c.stages,
            "counts": c.counts,
            "prepare": c.prepare,
            "wire": c.wire,
        }
        for c in replayer.classes.values()
    }
    return result


def report(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(
        f"\n== {result['workload']} ({mode}, seed {result['seed']}, "
        f"{result['seconds']} s, {result['nproc']} cores) =="
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<46} {value:>14.4f} {result['units'][name]}")
    print(f"  samples: {result['samples']}")
    print(f"  machine slowness while measured: {result['speed_factors']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    if result["trace"]:
        # The staged replay's excess over the un-staged run is what
        # tracing costs.
        for name, row in result["per_class"].items():
            print(
                f"  {name}: un-staged {row['eval_ms']:.3f} ms, staged "
                f"{row['staged_ms']:.3f} ms (gap {row['replay_gap']:.2f}, "
                f"{row['reps']} reps)"
            )
    for line in result.get("unresolved", []):
        print(f"  UNRESOLVED {line}")
    for line in result.get("notes", []) + result["problems"]:
        print(f"  note: {line}")


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="directory for result JSON files")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    result = {}
    for name in names:
        for trace in modes:
            result = run_one(name, args.seed, args.seconds, trace, args.scale)
            # Raw spans (name, start ns, end ns, parent index, op id) go
            # to their own ``.spans`` file (JSON): too bulky for the result.
            spans = result.pop("spans", None)
            report(result)
            if args.out:
                args.out.mkdir(parents=True, exist_ok=True)
                stem = f"{name}.seed{args.seed}.trace{int(trace)}"
                taken = len(list(args.out.glob(f"{stem}.run*.json")))
                target = args.out / f"{stem}.run{taken}.json"
                target.write_text(json.dumps(result, indent=1, sort_keys=True))
                if spans:
                    (args.out / f"{stem}.run{taken}.spans").write_text(
                        json.dumps(spans)
                    )
    units = result["units"]
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
