"""The traced run: spans around calls into each layer, and what they add up to.

Spans are recorded from the benchmark's own code around the calls it
makes -- wire requests through the client, and an in-process replay of
the same requests through the service and engine entry points
(``AnnotationService.submit`` / ``mutate``, ``enumerate_candidates``,
``execute_mutation``).  Each span has a name, start, end and parent;
spans of one request share its id.  Spans stay in memory and are written
out once, when the run ends.  A span's self time is its duration minus
the part of it its children cover.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np


@dataclass
class Span:
    span_id: int
    name: str
    request: int
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """An in-memory span list, shared by the load threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def open(self, name: str, request: int, parent: Optional[int] = None,
             start: Optional[float] = None, **attrs) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, request,
                        time.perf_counter() if start is None else start,
                        parent=parent, attrs=attrs)
            self.spans.append(span)
        return span

    def add(self, name: str, request: int, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> Span:
        span = self.open(name, request, parent, start, **attrs)
        span.end = end
        return span

    def wire(self, op, request: int, parent: Optional[int] = None) -> None:
        stats = getattr(op.result, "stats", None) or {}
        self.add(f"wire.{op.kind}", request, op.sent, op.done, parent,
                 server_elapsed_s=stats.get("elapsed_seconds"),
                 error=op.error)

    def step(self, ops, step: int) -> None:
        root = self.add("wire.step", step, ops[0].sent, ops[-1].done)
        for op in ops:
            self.wire(op, step, root.span_id)

    def self_times(self) -> dict[int, float]:
        """Span id -> seconds not covered by its children."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.span_id, ())):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.span_id] = (span.end - span.start) - covered
        return result

    def write(self, path: Path) -> None:
        own = self.self_times()
        origin = min((span.start for span in self.spans), default=0.0)
        by_name: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            by_name[span.name].append(own[span.span_id])
        payload = {
            "self_ms_median": {name: statistics.median(values) * 1e3
                               for name, values in sorted(by_name.items())},
            "spans": [{"id": span.span_id, "name": span.name,
                       "request": span.request, "parent": span.parent,
                       "start_ms": (span.start - origin) * 1e3,
                       "end_ms": (span.end - origin) * 1e3,
                       "self_ms": own[span.span_id] * 1e3,
                       **({"attrs": span.attrs} if span.attrs else {})}
                      for span in self.spans],
        }
        path.write_text(json.dumps(payload, default=str))


def replay(database, options: dict, sequence, tracer: Tracer) -> dict:
    """Replay ``sequence`` in process, timing each layer's entry point.

    ``sequence`` holds ``(kind, request, request_id, timed)`` in the order
    the server saw them; ``options`` are the server's ``ServiceOptions``
    fields.  Two services configured like the server see every entry, so
    their caches hold what the server's held.  On a timed read, ``a``
    answers with one ``submit`` and ``b`` splits it in two:
    ``enumerate_candidates`` on its columnar snapshot, then
    ``submit(candidates=...)`` -- the decide phase alone.  A timed write
    runs ``execute_mutation`` on ``a``'s snapshot before ``a.mutate``.
    """
    try:
        return _replay(database, options, sequence, tracer)
    finally:
        release_process_pool()


def release_process_pool() -> None:
    """Stop the process pool and resource tracker a replay may have forked.

    Configured like the server, the in-process services can run sharded
    enumeration on the program's shared process pool, which forks workers
    and a ``multiprocessing`` resource tracker under the benchmark
    process.  Left alone, the tracker outlives the benchmark; both are
    ended here, and waited for.
    """
    from multiprocessing import resource_tracker

    from repro.service.executor import shutdown_pools

    shutdown_pools()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker,
                                                               "_stop"):
        tracker._stop()  # closes its pipe, then reaps it


def _replay(database, options: dict, sequence, tracer: Tracer) -> dict:
    from repro.engine.candidates import enumerate_candidates
    from repro.engine.mutate import execute_mutation
    from repro.engine.sql.parser import parse_sql, parse_statement
    from repro.obs import Recorder
    from repro.service import AnnotationService, ServiceOptions

    services = []
    for _ in range(2):
        service = AnnotationService(database, ServiceOptions(**options))
        service.use_recorder(Recorder())
        services.append(service)
    a, b = services
    timings: dict[str, list[float]] = defaultdict(list)
    clock = time.perf_counter
    for kind, request, request_id, timed in sequence:
        if not timed:
            for service in services:
                if kind == "read":
                    service.submit(request.sql, **request.options())
                else:
                    service.mutate(request)
            continue
        root = tracer.open(f"replay.{kind}", request_id)
        if kind == "read":
            read_options = request.options()
            t0 = clock()
            a.submit(request.sql, **read_options)
            t1 = clock()
            select = parse_sql(request.sql)
            t2 = clock()
            candidates = enumerate_candidates(select, b.database)
            t3 = clock()
            b.submit(request.sql, candidates=candidates, **read_options)
            t4 = clock()
            spans = (("service.submit", t0, t1), ("engine.enumerate", t2, t3),
                     ("service.decide", t3, t4))
            timings["candidates"].append(len(candidates))
        else:
            statement = parse_statement(request)
            t0 = clock()
            execute_mutation(statement, a.database)
            t1 = clock()
            a.mutate(statement)
            t2 = clock()
            b.mutate(statement)
            spans = (("engine.mutate", t0, t1), ("service.mutate", t1, t2))
        root.end = clock()
        for name, start, end in spans:
            tracer.add(name, request_id, start, end, root.span_id)
            timings[name].append(end - start)
    return timings


def _cache(stats: dict, name: str) -> tuple[int, int]:
    for cache in stats["service"]["caches"]:
        if cache["name"] == name:
            return cache["hits"], cache["misses"]
    raise KeyError(f"no cache {name!r} in stats")


def counter_deltas(pairs, door: str) -> dict:
    """Server counters summed over ``(before, after)`` stats pairs.

    ``door`` is the payload section of the process clients talk to
    (``server``, or ``coordinator`` in front of a cluster).
    """
    total: dict[str, int] = defaultdict(int)
    for before, after in pairs:
        for key in ("requests", "coalesced"):
            total[key] += after[door][key] - before[door][key]
        total["results_evicted"] += (after["service"]["results_evicted"]
                                     - before["service"]["results_evicted"])
        for name in ("certainty", "candidates"):
            (hits0, misses0), (hits1, misses1) = (_cache(before, name),
                                                  _cache(after, name))
            total[f"{name}.hits"] += hits1 - hits0
            total[f"{name}.lookups"] += (hits1 - hits0) + (misses1 - misses0)
    total["results_retained"] = pairs[-1][1]["service"]["results_retained"]
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def coalesced_reads(ops) -> set[int]:
    """Ids of reads that overlapped an identical read (possibly coalesced
    by the server, whose reply then carries another request's elapsed)."""
    by_request = defaultdict(list)
    for op in ops:
        if op.kind == "read":
            by_request[op.request].append(op)
    overlapping = set()
    for group in by_request.values():
        group.sort(key=lambda op: op.sent)
        for first, second in zip(group, group[1:]):
            if second.sent < first.done:
                overlapping.update((id(first), id(second)))
    return overlapping


def layer_metrics(traced_ops, stat_pairs, timings: dict, lags,
                  read_hop_ms: float, is_cluster: bool) -> dict:
    """The per-layer metrics of the traced slices (values only)."""
    reads = [op for op in traced_ops if op.kind == "read" and op.error is None]
    writes = [op for op in traced_ops
              if op.kind == "write" and op.error is None]
    coalesced = coalesced_reads(traced_ops)
    frontdoor = [(op.done - op.sent) - op.result.stats["elapsed_seconds"]
                 for op in reads if id(op) not in coalesced]
    stats = [op.result.stats for op in reads]
    groups = sum(entry["groups"] for entry in stats)
    kernels = sum(entry["kernels_launched"] for entry in stats)
    samples = [sum(answer.certainty.samples for answer in op.result.answers)
               for op in reads]
    counters = counter_deltas(stat_pairs,
                              "coordinator" if is_cluster else "server")
    evicted = counters["results_evicted"]
    service_mutate_ms = _median_ms(timings.get("service.mutate"))
    write_rt_ms = _median_ms([op.done - op.sent for op in writes])
    return {
        "server.frontdoor_ms": _median_ms(frontdoor),
        "server.coalesced_ratio": _ratio(counters["coalesced"],
                                         counters["requests"]),
        "service.submit_ms": _median_ms(timings.get("service.submit")),
        "service.result_cache_hit_ratio": _ratio(
            counters["certainty.hits"], counters["certainty.lookups"]),
        "service.plan_cache_hit_ratio": _ratio(
            counters["candidates.hits"], counters["candidates.lookups"]),
        "engine.enumerate_ms": _median_ms(timings.get("engine.enumerate")),
        "engine.candidates_per_req": float(np.mean(timings["candidates"]))
        if timings.get("candidates") else 0.0,
        "service.decide_ms": _median_ms(timings.get("service.decide")),
        "service.groups_per_req": _ratio(groups, len(stats)),
        "service.estimates_reused_ratio": _ratio(
            sum(entry["groups_from_cache"] for entry in stats), groups),
        "compile.kernels_per_req": _ratio(kernels, len(stats)),
        "compile.tuples_per_kernel": _ratio(
            sum(entry["tuples_fused"] for entry in stats), kernels),
        "certainty.samples_per_req": float(np.mean(samples))
        if samples else 0.0,
        "engine.mutate_ms": _median_ms(timings.get("engine.mutate")),
        "service.mutate_ms": service_mutate_ms,
        "service.results_evicted_ratio": _ratio(
            evicted, evicted + counters["results_retained"]),
        # A single server has no coordinator: its hops cost nothing.
        "cluster.read_hop_ms": read_hop_ms if is_cluster else 0.0,
        "cluster.write_hop_ms":
            write_rt_ms - service_mutate_ms if is_cluster else 0.0,
        # Closed loops send on completion, never on a schedule.
        "loadgen.lag_p99_ms":
            float(np.percentile(lags, 99)) * 1e3 if lags else 0.0,
    }
