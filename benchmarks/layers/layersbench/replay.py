"""The traced pass: each class replayed stage by stage, in process.

Every layer is timed from outside, through its public functions, under
the span recorder in :mod:`layersbench.spans`. For ``shortest`` classes
the replay mirrors the control flow of ``Evaluator._eval_shortest``
(plan -> starts/ends -> lower -> per-seed search -> per-pair witnesses
-> ``match_on_path``); for ``trail``/``simple`` classes it calls the
bounded evaluator and filters; joins replay their sides and take the
join itself by difference. The replayed answer set must equal the
un-staged one.

Entry points are resolved by name. One that a later refactor removed
resolves to ``None``: the stages that need it report 0 and a note, and
the rest of the replay still runs — deleting a lane never breaks the
referee. This duplication of the engine's control flow is the known
limit of measuring from outside; it ends when in-engine stage timings
land (ROADMAP item 1, second half).
"""

from __future__ import annotations

import asyncio
import gc
import importlib
import json
import time
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from layersbench.loadgen import apply_mutation
from layersbench.spans import Recorder, mean, median, self_time_by_op
from layersbench.workloads import WRITE, Op, Workload, write_cycle

ENTRY_POINTS = {
    "PreparedQuery": "repro.service.prepared:PreparedQuery",
    "GraphService": "repro.service:GraphService",
    "ClusterService": "repro.cluster:ClusterService",
    "parse_query": "repro.gpc.parser:parse_query",
    "infer_schema": "repro.gpc.typing:infer_schema",
    "analyze_query": "repro.gpc.analysis:analyze_query",
    "plan_shortest": "repro.gpc.planner:plan_shortest",
    "estimate_query_cardinality": "repro.gpc.planner:estimate_query_cardinality",
    "compile_register_nfa": "repro.gpc.register_nfa:compile_register_nfa",
    "compile_dense_program": "repro.gpc.register_nfa:compile_dense_program",
    "compile_flat_program": "repro.gpc.register_nfa:compile_flat_program",
    "dense_search": "repro.gpc.register_nfa:dense_shortest_pair_lengths",
    "flat_search": "repro.gpc.register_nfa:flat_shortest_pair_lengths",
    "enumerate_walks": "repro.gpc.register_nfa:enumerate_exact_length_walks",
    "match_on_path": "repro.enumeration.span_matcher:match_on_path",
    "BoundedEvaluator": "repro.gpc.semantics:BoundedEvaluator",
    "is_trail": "repro.graph.paths:is_trail",
    "is_simple": "repro.graph.paths:is_simple",
    "Answer": "repro.gpc.answers:Answer",
    "EvalCounters": "repro.obs.counters:EvalCounters",
    "use_counters": "repro.obs.counters:use_counters",
    "encode_answers": "repro.server.wire:encode_answers",
    "decode_answers": "repro.server.wire:decode_answers",
    "read_request": "repro.server.protocol:read_request",
    "json_body": "repro.server.protocol:json_body",
    "render_response": "repro.server.protocol:render_response",
    "PreRendered": "repro.server.protocol:PreRendered",
}

#: The un-staged time a replay gap is taken relative to is floored
#: here, so a 10 us class cannot flag itself with timer noise.
GAP_FLOOR_MS = 0.05

#: Above this gap a class's layer numbers are reported as unresolved.
GAP_LIMIT = 0.25


def resolve(target: str):
    module_name, _, attribute = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attribute, None)


class Unreplayable(Exception):
    """The class cannot be staged with the entry points that exist."""


@dataclass
class ClassReplay:
    """What replaying one class found (times in ms, medians over reps)."""

    name: str
    text: str
    reps: int = 0
    answers: int = 0
    #: Replayed answers == un-staged answers == the oracle's.
    equal: bool = True
    eval_ms: float = 0.0
    staged_ms: float = 0.0
    gap: float = 0.0
    #: ``span name -> self time per op``.
    stages: dict[str, float] = field(default_factory=dict)
    #: Exact work per op (identical on every rep).
    counts: dict[str, int] = field(default_factory=dict)
    join_ms: float = 0.0
    first_lower_ms: float = 0.0
    prepare: dict[str, float] = field(default_factory=dict)
    wire: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: The recorder's op ids of this class's staged evaluations.
    op_ids: list[int] = field(default_factory=list)


class Replayer:
    """Replays one workload's classes against the mirror graph."""

    def __init__(self, workload: Workload, graph, schedule: list[Op], nproc: int):
        self.workload = workload
        self.graph = graph
        self.schedule = schedule
        self.nproc = nproc
        self.E = SimpleNamespace(
            **{name: resolve(target) for name, target in ENTRY_POINTS.items()}
        )
        self.notes = [
            f"{target} is gone: its stages report 0"
            for name, target in ENTRY_POINTS.items()
            if getattr(self.E, name) is None
        ]
        self.recorder = Recorder()
        self.texts: dict[str, str] = {}
        for name, text in schedule:
            if (name, text) != WRITE:
                self.texts.setdefault(name, text)
        self.classes = {
            name: ClassReplay(name, self.texts[name]) for name in workload.classes
        }
        self.prepared: dict[str, object] = {}
        self.snapshot_build_ms = 0.0
        self.passes: dict[str, float] = {}
        #: ``(start, end)`` of the cold start and of the replay proper.
        self.windows: dict[str, tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Before anything else touches the snapshot
    # ------------------------------------------------------------------

    def cold_start(self) -> None:
        """Time the first snapshot and, per ``shortest`` class, the first
        lowering on it: the lazily built label/property masks and
        filtered CSR rows are what ``graph.columns.mask_build_ms`` is."""
        E = self.E
        began = perf_counter()
        view = self.graph.snapshot()
        self.snapshot_build_ms = (perf_counter() - began) * 1e3
        self.windows["cold"] = (began, perf_counter())
        if E.PreparedQuery is None:
            return
        for name, text in self.texts.items():
            prepared = self.prepared[name] = E.PreparedQuery(text)
            for pattern_query in _leaves(_target_query(E, prepared)):
                if _kind(pattern_query) != "shortest":
                    continue
                rnfa = prepared.plan.register_nfa(pattern_query.pattern)
                if rnfa is None:
                    continue
                began = perf_counter()
                if E.compile_dense_program is not None:
                    E.compile_dense_program(rnfa, view)
                if E.compile_flat_program is not None:
                    E.compile_flat_program(rnfa, view)
                self.classes[name].first_lower_ms += (perf_counter() - began) * 1e3

    # ------------------------------------------------------------------
    # Staged evaluation
    # ------------------------------------------------------------------

    def _staged_shortest(self, pattern, plan, view, config, counts) -> list:
        E, span = self.E, self.recorder.span
        if E.enumerate_walks is None or E.match_on_path is None:
            raise Unreplayable("witness enumeration or span matching is gone")
        with span("gpc.planner.candidates"):
            rnfa = plan.register_nfa(pattern)
            if rnfa is None:
                raise Unreplayable("no register NFA: the engine falls back")
            shortest_plan = plan.shortest_plan(pattern)
            starts = shortest_plan.start.candidate_nodes(view)
            ends = shortest_plan.end.candidate_nodes(view)
            if starts is None:
                starts = view.nodes
            end_filter = None if ends is None else frozenset(ends)
        with span("gpc.register_nfa.lower"):
            program = (
                E.compile_dense_program(rnfa, view)
                if E.compile_dense_program is not None
                else None
            )
            flat = (
                E.compile_flat_program(rnfa, view)
                if E.compile_flat_program is not None and E.flat_search is not None
                else None
            )
        if flat is None and (program is None or E.dense_search is None):
            raise Unreplayable("neither search lane applies")
        matches = []
        for start in starts:
            with span("gpc.register_nfa.search"):
                if flat is not None:
                    best = E.flat_search(view, flat, start)
                    counts["flat_seeds"] += 1
                else:
                    best = E.dense_search(view, rnfa, start, program=program)
            counts["seeds"] += 1
            for end in sorted(best):
                if end_filter is not None and end not in end_filter:
                    continue
                counts["pairs"] += 1
                length = best[end]
                found = False
                # As in the engine: a run whose every factorisation
                # fails collect unification makes the search
                # under-estimate, so probe upward.
                while not found and length <= config.shortest_deepening_limit:
                    with span("gpc.register_nfa.witness"):
                        witnesses = E.enumerate_walks(view, rnfa, start, end, length)
                    for witness in witnesses:
                        counts["witnesses"] += 1
                        with span("enumeration.span_matcher.match"):
                            assignments = E.match_on_path(
                                pattern, witness, view, config.collect_mode
                            )
                        for mu in assignments:
                            counts["matches"] += 1
                            matches.append((witness, mu))
                            found = True
                    length += 1
        return matches

    def _staged_bounded(self, pattern, mode, view, bounded, counts) -> list:
        E = self.E
        if bounded is None or E.is_trail is None or E.is_simple is None:
            raise Unreplayable("the bounded evaluator or the path filters are gone")
        bound, keep = (
            (view.num_edges, E.is_trail) if mode == "trail" else (view.num_nodes, E.is_simple)
        )
        with self.recorder.span("gpc.semantics.bounded"):
            examined = bounded.evaluate(pattern, bound)
        kept = [match for match in examined if keep(match[0])]
        counts["bounded_examined"] += len(examined)
        counts["bounded_kept"] += len(kept)
        return kept

    def _staged_leaf(self, pattern_query, plan, view, config, bounded, counts):
        kind = _kind(pattern_query)
        if kind == "shortest":
            matches = self._staged_shortest(
                pattern_query.pattern, plan, view, config, counts
            )
        elif kind == "bounded":
            matches = self._staged_bounded(
                pattern_query.pattern,
                pattern_query.restrictor.mode,
                view,
                bounded,
                counts,
            )
        else:
            raise Unreplayable(f"restrictor {pattern_query.restrictor!r} is not staged")
        out = []
        for path, mu in matches:
            if pattern_query.name is not None:
                mu = mu.bind(pattern_query.name, path)
            out.append(self.E.Answer((path,), mu))
        return frozenset(out)

    def _evaluated_leaves(self, query, plan, view) -> list:
        """The pattern queries of ``query`` in the engine's order: a
        join takes its cheaper-estimated side first (and skips the
        other when the first comes back empty, which the caller learns
        by evaluating)."""
        if not hasattr(query, "left"):
            return [query]
        estimate = self.E.estimate_query_cardinality
        if estimate is None:
            raise Unreplayable("the join order estimate is gone")
        left_first = estimate(query.left, view, plan) <= estimate(
            query.right, view, plan
        )
        ordered = (query.left, query.right) if left_first else (query.right, query.left)
        if any(hasattr(side, "left") for side in ordered):
            raise Unreplayable("nested joins are not staged")
        return list(ordered)

    def _staged(self, name: str, view) -> tuple[frozenset, dict[str, int], list]:
        """One staged evaluation: answers, exact counts, and the leaf
        queries the engine evaluated (for the join-by-difference)."""
        E = self.E
        prepared = self.prepared[name]
        config, plan = prepared.config, prepared.plan
        counts = dict.fromkeys(
            (
                "seeds",
                "flat_seeds",
                "pairs",
                "witnesses",
                "matches",
                "bounded_examined",
                "bounded_kept",
            ),
            0,
        )
        with self.recorder.span("gpc.engine"):
            query = _target_query(E, prepared)
            if query is None:  # proven empty: the engine touches nothing
                return frozenset(), counts, []
            bounded = (
                E.BoundedEvaluator(view, collect_mode=config.collect_mode)
                if E.BoundedEvaluator is not None
                else None
            )
            results: dict = {}
            for leaf in self._evaluated_leaves(query, plan, view):
                results[leaf] = self._staged_leaf(
                    leaf, plan, view, config, bounded, counts
                )
                if not results[leaf]:
                    break
        evaluated = list(results)
        if not hasattr(query, "left"):
            return results[query], counts, evaluated
        if not all(results.values()) or len(results) < 2:
            return frozenset(), counts, evaluated
        # Outside the root span: the join itself is taken by difference
        # (un-staged join minus un-staged sides); this nested loop only
        # rebuilds the answer set to check it.
        combined = (
            a.combine(b) for a in results[query.left] for b in results[query.right]
        )
        return frozenset(c for c in combined if c is not None), counts, evaluated

    # ------------------------------------------------------------------
    # Per-class replay
    # ------------------------------------------------------------------

    def replay_class(self, name: str, expected, budget_s: float, max_reps: int) -> None:
        E = self.E
        result = self.classes[name]
        if E.PreparedQuery is None or E.EvalCounters is None or E.use_counters is None:
            result.notes.append("PreparedQuery or the counters are gone: not replayed")
            return
        view = self.graph.snapshot()
        prepared = self.prepared.get(name) or E.PreparedQuery(result.text)
        self.prepared[name] = prepared
        is_join = hasattr(_target_query(E, prepared), "left")
        sides: dict = {}
        unstaged, join_extra, op_ids = [], [], []
        counters = counts = None
        began = perf_counter()
        while result.reps < max_reps and (
            result.reps < 3 or perf_counter() - began < budget_s
        ):
            counters = E.EvalCounters()
            t0 = perf_counter_ns()
            with E.use_counters(counters):
                answers = prepared.execute(view)
            unstaged.append((perf_counter_ns() - t0) / 1e6)
            op_ids.append(self.recorder.next_op())
            try:
                replayed, counts, leaves = self._staged(name, view)
            except Unreplayable as exc:
                result.notes.append(f"not staged: {exc}")
                counts = None
                break
            result.equal &= answers == expected and replayed == expected
            if is_join:
                # The join itself, by difference: the un-staged join
                # minus the un-staged sides the engine evaluated.
                spent = 0.0
                for leaf in leaves:
                    side = sides.get(leaf) or sides.setdefault(
                        leaf, E.PreparedQuery(leaf)
                    )
                    t0 = perf_counter_ns()
                    side.execute(view)
                    spent += (perf_counter_ns() - t0) / 1e6
                join_extra.append(unstaged[-1] - spent)
            result.reps += 1
        result.answers = len(expected)
        result.eval_ms = median(unstaged)
        if counters is not None:
            result.counts.update(
                states_expanded=counters.nfa_states_expanded,
                transitions=counters.nfa_transitions,
                mask_probes=counters.mask_probes,
                join_probe_rows=counters.join_probe_rows,
                condition_evals=counters.condition_evals,
            )
        if counts is None:
            return
        result.counts.update(counts)
        result.join_ms = max(0.0, median(join_extra))
        result.op_ids = op_ids

    def _summarise_stages(self) -> None:
        """Per class: each stage's self time (median over its replayed
        ops), the staged total and the gap to the un-staged run."""
        by_op = self_time_by_op(self.recorder.spans)
        for result in self.classes.values():
            ops = [by_op.get(op, {}) for op in result.op_ids]
            if not ops:
                continue
            names = {name for op in ops for name in op}
            result.stages = {
                name: median([op.get(name, 0.0) for op in ops]) for name in names
            }
            # Self times sum to the root span: the staged wall time.
            result.staged_ms = result.join_ms + median([sum(op.values()) for op in ops])
            result.gap = abs(result.staged_ms - result.eval_ms) / max(
                result.eval_ms, GAP_FLOOR_MS
            )

    # ------------------------------------------------------------------
    # Prepare, wire and protocol, per class
    # ------------------------------------------------------------------

    def time_prepare(self, name: str, reps: int = 10) -> None:
        """``PreparedQuery(text)`` on an unseen text, whole and in parts.
        The analyzer memoises per AST at module level, so its cache is
        cleared before each rep to keep the text unseen."""
        E = self.E
        result = self.classes[name]
        text = result.text
        needed = (E.PreparedQuery, E.parse_query, E.infer_schema, E.analyze_query)
        if any(entry is None for entry in needed):
            result.notes.append("a prepare entry point is gone: prepare not timed")
            return
        clear = getattr(E.analyze_query, "cache_clear", lambda: None)
        config = E.PreparedQuery(text).config
        whole, parts = [], {k: [] for k in ("parse", "infer", "analyze", "plan", "compile")}
        for _ in range(reps):
            clear()
            t0 = perf_counter_ns()
            E.PreparedQuery(text)
            whole.append((perf_counter_ns() - t0) / 1e6)
            clear()
            t0 = perf_counter_ns()
            query = E.parse_query(text)
            t1 = perf_counter_ns()
            E.infer_schema(query)
            t2 = perf_counter_ns()
            analysis = E.analyze_query(query)
            t3 = perf_counter_ns()
            parts["parse"].append((t1 - t0) / 1e3)
            parts["infer"].append((t2 - t1) / 1e3)
            parts["analyze"].append((t3 - t2) / 1e3)
            plan_us = compile_us = 0.0
            if not analysis.provably_empty:
                for leaf in _leaves(analysis.simplified):
                    if _kind(leaf) != "shortest":
                        continue
                    t0 = perf_counter_ns()
                    if E.plan_shortest is not None:
                        E.plan_shortest(leaf.pattern)
                    t1 = perf_counter_ns()
                    if E.compile_register_nfa is not None:
                        E.compile_register_nfa(
                            leaf.pattern,
                            state_limit=config.automaton_state_limit,
                            pushdown=config.use_pushdown,
                        )
                    t2 = perf_counter_ns()
                    plan_us += (t1 - t0) / 1e3
                    compile_us += (t2 - t1) / 1e3
            parts["plan"].append(plan_us)
            parts["compile"].append(compile_us)
        result.prepare = {"prepare_ms": median(whole)}
        result.prepare.update({f"{k}_us": median(v) for k, v in parts.items()})

    def time_wire(self, name: str, expected, reps: int = 10) -> None:
        """Encode, render, parse and decode on this class's real bytes."""
        E = self.E
        result = self.classes[name]
        needed = (
            E.encode_answers,
            E.decode_answers,
            E.read_request,
            E.json_body,
            E.render_response,
            E.PreRendered,
        )
        if any(entry is None for entry in needed):
            result.notes.append("a wire or protocol entry point is gone: not timed")
            return
        request_body = json.dumps(
            {"query": result.text, "use_cache": self.workload.use_cache}
        ).encode()
        request = (
            b"POST /query HTTP/1.1\r\nHost: 127.0.0.1:8000\r\n"
            b"Accept-Encoding: identity\r\nContent-Length: %d\r\n"
            b"Content-Type: application/json\r\n\r\n%s"
        ) % (len(request_body), request_body)

        async def parse_many() -> list[float]:
            took = []
            for _ in range(reps):
                reader = asyncio.StreamReader()
                reader.feed_data(request)
                reader.feed_eof()
                t0 = perf_counter_ns()
                E.json_body(await E.read_request(reader))
                took.append((perf_counter_ns() - t0) / 1e3)
            return took

        encode, render, decode = [], [], []
        body = b""
        for _ in range(reps):
            t0 = perf_counter_ns()
            payload = E.encode_answers(expected)
            payload["version"] = 1
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            t1 = perf_counter_ns()
            E.render_response(
                200, E.PreRendered(body), headers={"X-Trace-Id": "0" * 16}
            )
            t2 = perf_counter_ns()
            decoded = E.decode_answers(json.loads(body))
            t3 = perf_counter_ns()
            encode.append((t1 - t0) / 1e6)
            render.append((t2 - t1) / 1e3)
            decode.append((t3 - t2) / 1e6)
            result.equal &= decoded == expected
        result.wire = {
            "parse_us": median(asyncio.run(parse_many())),
            "render_us": median(render),
            "encode_ms": median(encode),
            "decode_ms": median(decode),
            "body_bytes": len(body),
        }

    # ------------------------------------------------------------------
    # The service and cluster passes over the schedule
    # ------------------------------------------------------------------

    def service_pass(self, budget_s: float, seed: int, scale: str) -> dict:
        """The schedule — writes included — through an in-process
        ``GraphService``: per-class evaluate p50 (what the HTTP path
        adds is the difference), and the write path stage by stage."""
        E = self.E
        out = {"class_ms": {}, "mutate_us": 0.0, "derive_ms": 0.0, "hit_us": 0.0}
        if E.GraphService is None:
            self.notes.append("GraphService is gone: no service pass")
            return out
        use_cache = self.workload.use_cache
        writes = write_cycle(99, seed, scale)
        by_class: dict[str, list[float]] = {}
        mutate, derive, hits = [], [], []
        with E.GraphService(self.graph) as service:
            began, position, written = perf_counter(), 0, 0
            # Whole write cycles only: the mirror graph is the oracle's
            # too and must end where it started.
            while (
                perf_counter() - began < budget_s
                or position < len(self.workload.classes) * 4
                or written % len(writes)
            ):
                name, text = self.schedule[position % len(self.schedule)]
                position += 1
                if (name, text) == WRITE:
                    op = writes[written % len(writes)]
                    written += 1
                    t0 = perf_counter_ns()
                    apply_mutation(service, op)
                    t1 = perf_counter_ns()
                    service.snapshot()
                    t2 = perf_counter_ns()
                    mutate.append((t1 - t0) / 1e3)
                    derive.append((t2 - t1) / 1e6)
                    continue
                t0 = perf_counter_ns()
                service.evaluate(text, use_cache=use_cache)
                by_class.setdefault(name, []).append((perf_counter_ns() - t0) / 1e6)
            for text in self.texts.values():
                service.evaluate(text)
                for _ in range(20):
                    t0 = perf_counter_ns()
                    service.evaluate(text)
                    hits.append((perf_counter_ns() - t0) / 1e3)
        out["class_ms"] = {name: median(v) for name, v in by_class.items()}
        out["mutate_us"] = median(mutate)
        out["derive_ms"] = median(derive)
        out["hit_us"] = median(hits)
        return out

    def cluster_pass(self, budget_s: float) -> float:
        """The reads through an in-process thread-backed
        ``ClusterService``, cache off: the facade ROADMAP item 3 merges."""
        E = self.E
        if E.ClusterService is None:
            self.notes.append("ClusterService is gone: no cluster pass")
            return 0.0
        by_class: dict[str, list[float]] = {}
        reads = [op for op in self.schedule if op != WRITE]
        cluster = E.ClusterService(self.graph, backend="thread", num_workers=self.nproc)
        try:
            began, position = perf_counter(), 0
            while (
                perf_counter() - began < budget_s
                or position < len(self.workload.classes) * 4
            ):
                name, text = reads[position % len(reads)]
                position += 1
                t0 = perf_counter_ns()
                cluster.evaluate(text, use_cache=False)
                by_class.setdefault(name, []).append((perf_counter_ns() - t0) / 1e6)
        finally:
            cluster.close()
        return mean([median(v) for v in by_class.values()])

    # ------------------------------------------------------------------

    def run(self, oracle, budget_s: float, seed: int, scale: str) -> None:
        """Everything after :meth:`cold_start`, within about
        ``budget_s`` seconds; results land on ``self``.

        The collector is off while this runs, as ``timeit`` has it: this
        process holds the mirror graph and a growing list of spans, and
        a full collection of that heap (~100 ms) landing in two of five
        replayed ops would be charged to whatever stage it interrupted.
        Layer times are therefore free of GC; the served phases are not.
        """
        classes = self.workload.classes
        began = time.perf_counter()
        gc.disable()
        try:
            for name in classes:
                expected = oracle.expected(self.texts[name])
                self.replay_class(name, expected, 0.5 * budget_s / len(classes), 30)
                self.time_prepare(name)
                self.time_wire(name, expected)
            self._summarise_stages()
            self.passes["service"] = self.service_pass(0.2 * budget_s, seed, scale)
            self.passes["cluster_eval_ms"] = self.cluster_pass(0.2 * budget_s)
        finally:
            gc.enable()
        self.windows["replay"] = (began, time.perf_counter())

    def at_reference_speed(self, cold: float, replay: float) -> None:
        """Divide every time by how slow the machine was while it was
        taken (see :mod:`layersbench.probe`)."""
        self.snapshot_build_ms /= cold
        for c in self.classes.values():
            c.first_lower_ms /= cold
            c.eval_ms /= replay
            c.staged_ms /= replay
            c.join_ms /= replay
            c.stages = {k: v / replay for k, v in c.stages.items()}
            c.prepare = {k: v / replay for k, v in c.prepare.items()}
            c.wire = {
                k: v if k == "body_bytes" else v / replay for k, v in c.wire.items()
            }
        service = self.passes["service"]
        service["class_ms"] = {k: v / replay for k, v in service["class_ms"].items()}
        for key in ("mutate_us", "derive_ms", "hit_us"):
            service[key] /= replay
        self.passes["cluster_eval_ms"] /= replay


# ---------------------------------------------------------------------------
# Query shape, duck-typed so an AST refactor does not break the referee
# ---------------------------------------------------------------------------


def _target_query(E, prepared):
    """The query the engine evaluates for ``prepared``: the analyzer's
    simplification, or ``None`` when it proved the query empty."""
    if E.analyze_query is None or not prepared.config.use_analysis:
        return prepared.query
    analysis = prepared.plan.analysis(prepared.query)
    return None if analysis.provably_empty else analysis.simplified


def _leaves(query) -> list:
    if query is None:
        return []
    if hasattr(query, "left"):
        return _leaves(query.left) + _leaves(query.right)
    return [query]


def _kind(pattern_query) -> str:
    restrictor = pattern_query.restrictor
    if restrictor.shortest and restrictor.mode is None:
        return "shortest"
    if not restrictor.shortest:
        return "bounded"
    return "shortest-" + restrictor.mode
