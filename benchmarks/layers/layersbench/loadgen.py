"""The served path: server subprocess, closed-loop clients, answer oracle.

One process (this one) is the only load generator. Callers wait for
replies, so the loop is closed: phase A runs one client, phase B runs
``nproc`` clients, each a thread with its own keep-alive connection and
its own slice of the schedule. Latency is the wall time of
``HttpServiceClient.query`` — send to decoded frozenset — because the
client's decode is part of what a user waits for.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path

from repro.errors import WireError
from repro.graph.ids import DirectedEdgeId, NodeId
from repro.server import HttpServiceClient
from repro.service import GraphService

from layersbench.probe import Speed
from layersbench.spans import blocked_percentile, median, percentile
from layersbench.workloads import WRITE, Op, Workload, write_cycle

BENCH_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = BENCH_DIR.parent.parent / "src"

#: One read in this many is compared with the mirror, outside the timed
#: section.
CHECK_EVERY = 4

#: Phase A's share of the measuring time. More than half: one client
#: gathers latency samples slowly on the heavy workloads, and their
#: percentiles need every one; throughput needs fewer.
PHASE_A_SHARE = 0.6

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def split_cpus() -> tuple[int, set[int]]:
    """``(the server's CPU, the load generator's CPUs)``.

    The cores of a shared sandbox speed up and slow down independently,
    so the server is pinned to one core with a probe beside it, and the
    load generator keeps off that core (when there is another)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], set(cpus[1:] or cpus)


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------


class Server:
    """``layersbench.serve`` in a subprocess, observed through /proc."""

    def __init__(self, workload: str, seed: int, scale: str, cpu: int):
        # A fixed hash seed: set and dict-of-str iteration orders, and
        # with them a few percent of the server's speed, would otherwise
        # differ from one server process to the next.
        env = dict(
            os.environ,
            PYTHONPATH=f"{BENCH_DIR}{os.pathsep}{SRC_DIR}",
            PYTHONHASHSEED="0",
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "layersbench.serve", workload, str(seed), scale],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=BENCH_DIR,
            text=True,
        )
        # One core for the server (it is GIL-bound) and its probe, the
        # others for the load generator: see split_cpus.
        os.sched_setaffinity(self._proc.pid, {cpu})
        ready = self._proc.stdout.readline().split()
        if len(ready) != 4 or ready[0] != "READY":
            self.stop()
            raise RuntimeError(f"server did not start: {ready!r}")
        self.address = (ready[1], int(ready[2]))
        self.pid = int(ready[3])

    def peak_rss_mib(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        # Fields 14 and 15 (utime, stime) count from after the
        # parenthesised command name, which may itself hold spaces.
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        """Close stdin (the serve loop's stop signal) and wait."""
        proc = self._proc
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout:
            proc.stdout.close()


# ---------------------------------------------------------------------------
# The answer oracle
# ---------------------------------------------------------------------------


def reference_evaluate(graph, text: str):
    """``text`` under the engine with every optimisation off, or
    ``None`` when this engine no longer has those switches."""
    from repro.gpc.engine import EngineConfig, Evaluator
    from repro.gpc.parser import parse_query

    try:
        config = EngineConfig(
            use_planner=False, use_pushdown=False, use_analysis=False
        )
    except TypeError:
        return None
    return Evaluator(graph, config).evaluate(parse_query(text))


class Oracle:
    """A mirror of the served graph that receives the same mutations.

    ``writes_started`` / ``writes_done`` let a reader prove that no
    write overlapped its query, so the mirror's state is exactly the
    state the server answered from; only such reads are compared.
    """

    def __init__(self, workload: Workload, seed: int, scale: str):
        self.service = GraphService(workload.build_graph(seed, scale))
        self.lock = threading.Lock()
        self.writes_started = 0
        self.writes_done = 0

    def expected(self, text: str):
        return self.service.evaluate(text)

    def apply(self, op: dict) -> None:
        apply_mutation(self.service, op)


def apply_mutation(service, op: dict) -> None:
    """One ``/mutate`` op of a write cycle, applied in process."""
    if op["op"] == "set_property":
        service.set_property(NodeId(op["element"]["n"]), op["key"], op["value"])
    elif op["op"] == "add_edge":
        service.add_edge(
            op["key"],
            NodeId(op["source"]),
            NodeId(op["target"]),
            op["labels"],
            op["properties"],
        )
    elif op["op"] == "remove_edge":
        service.remove_edge(DirectedEdgeId(op["key"]))
    else:
        raise ValueError(f"the mirror has no {op['op']!r}")


# ---------------------------------------------------------------------------
# Clients and phases
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """What one client thread saw in one phase."""

    #: ``class name -> [(end time, seconds)]`` for operations that succeeded.
    latencies: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: int = 0
    #: Non-200 replies, transport errors, timeouts and wrong answers.
    failed: int = 0
    checked: int = 0
    last_end: float = 0.0
    errors: list[str] = field(default_factory=list)


class Client:
    """One connection plus this client's position in its write cycle
    (the toggled edge outlives a phase, so the position must too)."""

    def __init__(self, index: int, address, workload: Workload, seed: int, scale: str):
        self.http = HttpServiceClient(*address, timeout=60.0)
        self.use_cache = workload.use_cache
        self.writes = write_cycle(index, seed, scale)
        self._next_write = 0

    def close(self) -> None:
        self.http.close()

    def read(self, text: str):
        return self.http.query(text, use_cache=self.use_cache)

    def write(self, oracle: Oracle) -> float:
        """Send this client's next mutation, then mirror it; returns
        when the server's reply arrived (the mirror is not timed)."""
        op = self.writes[self._next_write % len(self.writes)]
        with oracle.lock:
            oracle.writes_started += 1
        replied = None
        try:
            self.http.mutate([op])
            replied = time.perf_counter()
        finally:
            with oracle.lock:
                if replied is not None:
                    oracle.apply(op)
                    self._next_write += 1
                oracle.writes_done += 1
        return replied

    def run(self, ops: list[Op], oracle: Oracle, deadline: float) -> Tally:
        tally = Tally(last_end=time.perf_counter())
        position = 0
        while time.perf_counter() < deadline:
            name, text = ops[position % len(ops)]
            position += 1
            tally.attempted += 1
            done_before = oracle.writes_done
            started_before = oracle.writes_started
            began = time.perf_counter()
            try:
                if (name, text) == WRITE:
                    answers, ended = None, self.write(oracle)
                else:
                    answers, ended = self.read(text), time.perf_counter()
            except (WireError, OSError, HTTPException) as exc:
                tally.failed += 1
                tally.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                self.http.close()
                continue
            if answers is not None and position % CHECK_EVERY == 0:
                with oracle.lock:
                    undisturbed = (
                        done_before
                        == started_before
                        == oracle.writes_started
                        == oracle.writes_done
                    )
                    if undisturbed:
                        tally.checked += 1
                        if answers != oracle.expected(text):
                            tally.failed += 1
                            tally.errors.append(f"{name}: wrong answer")
                            continue
            tally.latencies.setdefault(name, []).append((ended, ended - began))
            tally.last_end = ended
        return tally


def run_phase(
    clients: list[Client], schedule: list[Op], oracle: Oracle, seconds: float
) -> tuple[list[Tally], tuple[float, float]]:
    """All ``clients`` in a closed loop for ``seconds``; client ``j`` of
    ``n`` cycles through ``schedule[j::n]``. The caller rotates the
    schedule so that a phase goes on where the last one stopped (the
    point-lookup cycle must not revisit a text while a cache holds it).
    Returns the tallies and the ``(start, end)`` of the window, which
    ends with the last completed operation."""
    tallies: list[Tally | None] = [None] * len(clients)
    start = time.perf_counter() + 0.05
    deadline = start + seconds

    def body(index: int) -> None:
        while time.perf_counter() < start:
            time.sleep(0.001)
        tallies[index] = clients[index].run(
            schedule[index :: len(clients)], oracle, deadline
        )

    threads = [
        threading.Thread(target=body, args=(i,), name=f"client-{i}")
        for i in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    done = [t for t in tallies if t is not None]
    if len(done) != len(clients):
        raise RuntimeError("a client thread died")
    return done, (start, max(t.last_end for t in done))


# ---------------------------------------------------------------------------
# Set-up and the measured run
# ---------------------------------------------------------------------------


def warm_up(
    client: Client, schedule: list[Op], oracle: Oracle, expectations: dict[str, tuple]
) -> list[str]:
    """One full pass over every class, answers verified; returns the
    mismatches. Writes (one whole cycle) go first so the reads leave
    the caches warm."""
    problems = []
    if WRITE in schedule:
        for _ in client.writes:
            client.write(oracle)
    for text, (name, expected, reference) in expectations.items():
        answers = client.read(text)
        if answers != expected:
            problems.append(f"{name}: HTTP answer differs from GraphService.evaluate")
        if reference is not None and answers != reference:
            problems.append(f"{name}: HTTP answer differs from the reference engine")
    return problems


def warm_up_expectations(schedule: list[Op], oracle: Oracle) -> dict[str, tuple]:
    """``text -> (class, in-process answer, reference answer)`` for the
    first text of every class, computed before any server starts so the
    oracle's own cost stays out of ``setup_s``."""
    out: dict[str, tuple] = {}
    seen = set()
    for name, text in schedule:
        if name in seen or (name, text) == WRITE:
            continue
        seen.add(name)
        out[text] = (
            name,
            oracle.expected(text),
            reference_evaluate(oracle.service.graph, text),
        )
    return out


def set_up(workload: Workload, seed: int, scale: str, cpu: int, schedule, oracle, expectations):
    """Start a server and warm it; returns it with its first client,
    the ``(start, end)`` of the set-up and any warm-up mismatches."""
    began = time.perf_counter()
    server = Server(workload.name, seed, scale, cpu)
    try:
        client = Client(0, server.address, workload, seed, scale)
        problems = warm_up(client, schedule, oracle, expectations)
    except BaseException:
        server.stop()
        raise
    return server, client, (began, time.perf_counter()), problems


def _merge(tallies: list[Tally], speed: Speed, server_share: float) -> dict[str, list[float]]:
    """``class name -> [seconds at the reference speed]``, plus under
    ``"reads"`` every class but the writes, in the order they ended."""
    timed: dict[str, list[tuple[float, float]]] = {}
    for tally in tallies:
        for name, latencies in tally.latencies.items():
            ends = [ended for ended, _ in latencies]
            timed.setdefault(name, []).extend(
                zip(ends, speed.each(latencies, server_share))
            )
    merged = {name: [s for _, s in pairs] for name, pairs in timed.items()}
    merged["reads"] = [
        s
        for _, s in sorted(
            pair for name, pairs in timed.items() if name != WRITE[0] for pair in pairs
        )
    ]
    return merged


def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _share(server_cpu_s: float, driver_cpu_s: float) -> float:
    """The server's share of the CPU time two processes used."""
    total = server_cpu_s + driver_cpu_s
    return server_cpu_s / total if total > 0 else 1.0


def serve_and_measure(
    workload: Workload,
    seed: int,
    scale: str,
    seconds: float,
    setups: int,
    oracle: Oracle,
    nproc: int,
    server_cpu: int,
    speed: Speed,
) -> dict:
    """Set up at most ``setups`` times (the last server is the one
    measured; ``setup_s`` is the median), run phase A then phase B for
    ``seconds`` in all, and return the served measurements at the
    reference speed."""
    schedule = workload.build_schedule(seed, scale)
    expectations = warm_up_expectations(schedule, oracle)
    setup_times = []
    problems: list[str] = []
    server = None
    clients: list[Client] = []
    began = time.perf_counter()
    try:
        # Up to ``setups`` set-ups, as long as those so far have used
        # less than a quarter of the measuring time: three on a small
        # graph, one on the 10k-node ring, where each takes 5 s and the
        # driver's cap on the total run time leaves no room for more.
        while not setup_times or (
            len(setup_times) < setups
            and time.perf_counter() - began < 0.25 * seconds
        ):
            if server is not None:
                clients.pop().close()
                server.stop()
            mine = time.process_time()
            server, client, window, found = set_up(
                workload, seed, scale, server_cpu, schedule, oracle, expectations
            )
            clients.append(client)
            share = _share(server.cpu_seconds(), time.process_time() - mine)
            setup_times.append((window[1] - window[0]) / speed.window(*window, share))
            problems.extend(found)
        clients += [
            Client(i, server.address, workload, seed, scale) for i in range(1, nproc)
        ]
        stats_0 = client.http.stats()
        cpu_0, mine_0 = server.cpu_seconds(), time.process_time()
        tallies_a, window_a = run_phase(
            clients[:1], schedule, oracle, PHASE_A_SHARE * seconds
        )
        stats_a = client.http.stats()
        cpu_a, mine_a = server.cpu_seconds(), time.process_time()
        resume = tallies_a[0].attempted % len(schedule)
        tallies_b, window_b = run_phase(
            clients,
            schedule[resume:] + schedule[:resume],
            oracle,
            (1 - PHASE_A_SHARE) * seconds,
        )
        stats_b = client.http.stats()
        cpu_b, mine_b = server.cpu_seconds(), time.process_time()
        peak_rss = server.peak_rss_mib()
    finally:
        for each in clients:
            each.close()
        if server is not None:
            server.stop()

    # Every time below is divided by how slow the machine was while it
    # was taken (see layersbench.probe): latencies one by one in _merge,
    # windows as a whole here. The windows' factors are reported.
    share_a = _share(cpu_a - cpu_0, mine_a - mine_0)
    share_b = _share(cpu_b - cpu_a, mine_b - mine_a)
    slow_a = speed.window(*window_a, share_a)
    slow_b = speed.window(*window_b, share_b)
    slow_server = speed.server.factor(window_a[0], window_b[1])
    tallies = tallies_a + tallies_b
    failed = sum(t.failed for t in tallies) + len(problems)  # warm-up mismatches
    for tally in tallies:
        problems.extend(tally.errors[:5])
    by_class_a = _merge(tallies_a, speed, share_a)
    by_class_b = _merge(tallies_b, speed, share_b)
    reads_a, reads_b = by_class_a.pop("reads"), by_class_b.pop("reads")
    writes_a = by_class_a.get(WRITE[0], [])
    completed_b = sum(len(v) for v in by_class_b.values())
    completed = completed_b + sum(len(v) for v in by_class_a.values())
    service_0, service_b = stats_0["service"], stats_b["service"]
    cache = {
        name: _delta(service_b, service_0, "result_cache", name)
        for name in ("hits", "misses", "restamps", "invalidations", "evictions")
    }
    lookups = cache["hits"] + cache["misses"]
    dispatches_b = _delta(stats_b, stats_a, "dispatches")
    return {
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "problems": problems,
        "samples": {
            "phase_a_reads": len(reads_a),
            "phase_a_writes": len(writes_a),
            "phase_b_reads": len(reads_b),
            "phase_b_ops": completed_b,
            "checked": sum(t.checked for t in tallies),
            "setups": len(setup_times),
        },
        "speed_factors": {
            "phase_a": slow_a,
            "phase_b": slow_b,
            "server_core": slow_server,
            "server_share_of_cpu": {"phase_a": share_a, "phase_b": share_b},
        },
        #: Every phase A latency, for whoever wants another statistic.
        "phase_a_ms": {
            name: [round(s * 1e3, 3) for s in values]
            for name, values in by_class_a.items()
        },
        "end_to_end": {
            "setup_s": median(setup_times),
            "query_p50_ms": blocked_percentile(reads_a, 50) * 1e3,
            "query_p90_ms": blocked_percentile(reads_a, 90) * 1e3,
            "throughput_ops": completed_b / (window_b[1] - window_b[0]) * slow_b,
            "peak_rss_mb": peak_rss,
        },
        "class_p50_ms": {
            name: median(by_class_a.get(name, [])) * 1e3
            for name in workload.classes
        },
        "served_layers": {
            "host.speed_factor": slow_server,
            "server.app.loaded_p50_ms": blocked_percentile(reads_b, 50) * 1e3,
            # p99 needs ten samples beyond it.
            "server.app.query_p99_ms": (
                percentile(reads_a, 99) * 1e3 if len(reads_a) >= 1000 else 0.0
            ),
            "server.app.cpu_ms_per_op": (
                (cpu_b - cpu_0) * 1e3 / completed / slow_server if completed else 0.0
            ),
            "server.app.avg_batch": (
                _delta(stats_b, stats_a, "queries") / dispatches_b
                if dispatches_b
                else 0.0
            ),
            "server.app.rejected": _delta(stats_b, stats_0, "rejected"),
            "server.app.mutate_p50_ms": median(writes_a) * 1e3,
            "service.cache.hit_rate": cache["hits"] / lookups if lookups else 0.0,
            "service.cache.restamps": cache["restamps"],
            "service.cache.invalidations": cache["invalidations"],
            "service.cache.evictions": cache["evictions"],
            "service.cache.plan_evictions": _delta(
                service_b, service_0, "plan_cache", "evictions"
            ),
            "graph.snapshot.csr_rows_patched": _delta(
                service_b, service_0, "csr_rows_patched"
            ),
        },
    }
