"""The server application: admission, coalescing, and streamed execution.

:class:`ServerApp` is the transport-independent middle of the network
server -- both the TCP listener and the HTTP adapter reduce a query to
"iterate :meth:`query_events`", and everything the acceptance criteria care
about lives here:

* **admission control** -- at most ``max_pending`` computations may be
  queued or running; request ``max_pending + 1`` is rejected immediately
  with the typed ``overloaded`` error instead of joining an unbounded queue
  (clients see backpressure, the event loop never hides it);
* **single-flight coalescing** -- requests are keyed by
  :func:`~repro.server.protocol.request_key` *before* any work happens;
  arrivals matching an in-flight key subscribe to the leader's flight and
  receive replayed history plus live events, so N concurrent identical
  queries cost one computation and one cache fill (the service underneath
  additionally single-flights *estimates* on the canonical lineage digest,
  which coalesces structurally identical work across different query
  texts);
* **streaming** -- ``adaptive`` requests push every tightened interval to
  every subscriber as it lands: the service's ``on_update`` callback fires
  on a worker thread and is marshalled onto the event loop with
  ``call_soon_threadsafe``, which preserves per-lineage monotonic order;
* **mutations** -- :meth:`mutate` applies INSERT/DELETE/UPDATE statements
  through the service's MVCC commit path; writers are serialised behind a
  gate and counted as in-flight work, while readers keep streaming from
  the snapshot they pinned (no reader/writer blocking);
* **drain** -- :meth:`begin_drain` stops admitting, :meth:`wait_idle`
  resolves once every in-flight flight (queries and mutations alike) has
  delivered its terminal event.

Compute runs on a dedicated thread pool via ``run_in_executor``; the
service's own ``jobs``/``executor``/``shards`` options apply unchanged
inside each ``submit`` call.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, AsyncIterator, Optional

from repro import package_version
from repro.engine.sql.lexer import SqlSyntaxError
from repro.engine.translate_sql import SqlTranslationError
from repro.obs.alerts import AlertEvaluator, disabled_report, server_slos
from repro.obs.metrics import counters_family
from repro.obs.profiler import DEFAULT_INTERVAL, profile_payload
from repro.obs.propagate import extract_context
from repro.obs.recorder import (
    NULL_RECORDER,
    Recorder,
    process_collector,
    service_stats_collector,
)
from repro.obs.trace import spans_to_chrome
from repro.obs.tsdb import TimeSeriesStore
from repro.relational.mutation import MutationError
from repro.relational.schema import SchemaError
from repro.service.executor import blas_threads
from repro.server.protocol import (
    OverloadError,
    ProtocolError,
    error_event,
    mutation_event,
    parse_mutation_request,
    parse_query_request,
    request_key,
    result_event,
    update_event,
)

#: Exceptions that indicate a problem with the query, not with the server.
_QUERY_ERRORS = (SqlSyntaxError, SqlTranslationError, SchemaError, ValueError)

#: Terminal event types: after one of these, a flight is over.
_TERMINAL = ("result", "error")


class Flight:
    """One in-flight computation with its subscribers.

    ``history`` keeps every event already broadcast so a follower that
    coalesces onto the flight mid-stream sees the full sequence -- replayed
    history first, then live events, in the order the leader produced them.
    Events are stored without a request id; each subscriber stamps its own.
    """

    __slots__ = ("key", "history", "queues")

    def __init__(self, key: bytes) -> None:
        self.key = key
        self.history: list[dict] = []
        self.queues: list[asyncio.Queue] = []

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.history:
            queue.put_nowait(event)
        self.queues.append(queue)
        return queue

    def publish(self, event: dict) -> None:
        self.history.append(event)
        for queue in self.queues:
            queue.put_nowait(event)


class ServerApp:
    """Transport-independent query serving over one annotation service."""

    def __init__(self, service, *, max_pending: int = 64,
                 workers: int = 4, recorder: Optional[Recorder] = None,
                 observe: bool = True) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {max_pending}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self._service = service
        self._observe = observe
        self._tsdb: Optional[TimeSeriesStore] = None
        self._alert_evaluator: Optional[AlertEvaluator] = None
        if observe:
            # Serving observes by default: reuse the service's live recorder
            # if one is attached, otherwise create one and attach it, so
            # request latency histograms and the slow-query log are
            # populated without any extra configuration.  Scrape-time
            # collectors export the service's and the server's lifetime
            # counters with zero cost on the request hot path.
            existing = getattr(service, "recorder", None)
            if recorder is None:
                recorder = (existing
                            if existing is not None and existing.enabled
                            else Recorder())
            self._recorder = recorder
            if existing is not recorder and hasattr(service, "use_recorder"):
                service.use_recorder(recorder)
            recorder.metrics.register_collector(
                service_stats_collector(service))
            recorder.metrics.register_collector(process_collector())
            recorder.metrics.register_collector(self._server_collector)
            # Periodic registry snapshots feed ``/history`` and the SLO
            # burn-rate evaluation; the sampler thread starts with the
            # server (NetworkServer.start calls ``app.start``).
            self._tsdb = TimeSeriesStore(recorder.metrics)
            self._alert_evaluator = AlertEvaluator(server_slos())
        else:
            # ``observe=False`` is the bare half of the overhead benchmark:
            # no recorder, no collectors, no sampler thread, no tracing.
            self._recorder = NULL_RECORDER
        self._max_pending = max_pending
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-server")
        self._flights: dict[bytes, Flight] = {}
        #: Strong references to leader tasks -- the loop only keeps weak
        #: ones, and a GC'd leader would strand every subscriber.
        self._flight_tasks: set[asyncio.Future] = set()
        self._started = time.monotonic()
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        # Writers apply strictly one at a time; readers never wait on this
        # (MVCC snapshots -- a query pins whatever version is current when
        # its submit starts).
        self._mutation_gate = asyncio.Lock()
        self._mutations_inflight = 0
        # Lifetime counters, all mutated on the event loop only.
        self._requests = 0
        self._launched = 0
        self._coalesced = 0
        self._overloads = 0
        self._query_errors = 0
        self._internal_errors = 0
        self._mutations = 0
        self._mutation_errors = 0

    # -- request defaults ----------------------------------------------------

    @property
    def service(self):
        return self._service

    @property
    def draining(self) -> bool:
        return self._draining

    def request_defaults(self) -> dict[str, Any]:
        """The option values a request inherits when it omits them."""
        options = self._service.options
        seed = options.seed
        return {
            "epsilon": options.epsilon,
            "delta": options.delta,
            "method": options.method,
            "limit": None,
            "seed": seed if isinstance(seed, int) else None,
            "adaptive": options.adaptive,
            "planner": options.planner,
        }

    # -- the query path ------------------------------------------------------

    async def query_events(self, message: dict) -> AsyncIterator[dict]:
        """Serve one query message as a stream of wire events.

        Always yields at least one event and always ends with a terminal
        one (``result`` or ``error``); protocol violations, overload and
        engine errors all surface as typed error events rather than
        exceptions, so transports can forward events verbatim.
        """
        self._requests += 1
        try:
            sql, options = parse_query_request(message, self.request_defaults())
        except ProtocolError as error:
            self._query_errors += 1
            yield error.as_event()
            return
        if self._draining:
            yield error_event(None, "draining",
                              "server is draining; not accepting new queries")
            return

        key = request_key(sql, options)
        flight = self._flights.get(key)
        if flight is None:
            if len(self._flights) >= self._max_pending:
                self._overloads += 1
                yield OverloadError(
                    f"server is at its admission limit "
                    f"({self._max_pending} pending computations); retry later"
                ).as_event()
                return
            flight = Flight(key)
            self._flights[key] = flight
            self._idle.clear()
            self._launched += 1
            # The leader's trace context wins: coalesced followers share
            # the leader's flight, computation, and therefore trace id.
            task = asyncio.ensure_future(self._lead(
                flight, sql, options, context=extract_context(message)))
            self._flight_tasks.add(task)
            task.add_done_callback(self._flight_tasks.discard)
        else:
            self._coalesced += 1

        queue = flight.subscribe()
        while True:
            event = await queue.get()
            yield event
            if event.get("type") in _TERMINAL:
                return

    async def _lead(self, flight: Flight, sql: str, options: dict,
                    context=None) -> None:
        """Run the flight's one computation and broadcast its events."""
        loop = asyncio.get_running_loop()
        # A live recorder traces every request (that is what feeds phase
        # histograms and the slow log); an inbound ``traceparent`` makes
        # this trace one hop of a distributed one -- same trace id, local
        # root spans parented onto the sender's span.
        tr = (self._recorder.start_trace(context=context)
              if self._recorder.enabled else None)

        def on_update(group, update) -> None:
            # Fires on a service worker thread mid-submit; marshal onto the
            # loop.  call_soon_threadsafe is FIFO, so updates always land
            # before the executor future's completion callback below.
            loop.call_soon_threadsafe(
                flight.publish,
                update_event(None, group.canonical.digest.hex(), update))

        def submit():
            return self._service.submit(
                sql,
                epsilon=options["epsilon"], delta=options["delta"],
                method=options["method"], limit=options["limit"],
                seed=options["seed"], adaptive=options["adaptive"],
                planner=options.get("planner"), trace=tr,
                on_update=on_update if options["adaptive"] else None)

        try:
            response = await loop.run_in_executor(self._executor, submit)
            terminal = result_event(None, response)
        except _QUERY_ERRORS as error:
            self._query_errors += 1
            terminal = error_event(None, "invalid_query", str(error))
        except BaseException as error:  # noqa: BLE001 - reported, not hidden
            self._internal_errors += 1
            terminal = error_event(None, "internal",
                                   f"{type(error).__name__}: {error}")
        if tr is not None and tr.trace_id is not None:
            terminal["trace_id"] = tr.trace_id
        del self._flights[flight.key]
        self._maybe_idle()
        flight.publish(terminal)

    def _maybe_idle(self) -> None:
        if not self._flights and self._mutations_inflight == 0:
            self._idle.set()

    # -- the mutation path ---------------------------------------------------

    async def mutate(self, message: dict) -> dict:
        """Apply one mutation statement; returns its terminal event.

        Writers are serialised behind a single gate and counted as
        in-flight work, so a drain waits for a mutation that is mid-commit
        exactly as it waits for queries.  Readers never queue here: a
        query pins the snapshot current at its start, and the commit swaps
        the service's database reference atomically.
        """
        self._requests += 1
        try:
            sql = parse_mutation_request(message)
        except ProtocolError as error:
            self._mutation_errors += 1
            return error.as_event()
        if self._draining:
            return error_event(None, "draining",
                               "server is draining; not accepting mutations")
        # Honor a propagated trace context (the coordinator injects one on
        # broadcast mutations); purely local mutations stay untraced.
        context = extract_context(message)
        tr = (self._recorder.start_trace("mutation", context=context)
              if self._recorder.enabled and context is not None else None)
        span = tr.span("mutate") if tr is not None else None
        loop = asyncio.get_running_loop()
        self._mutations_inflight += 1
        self._idle.clear()
        try:
            async with self._mutation_gate:
                outcome = await loop.run_in_executor(
                    self._executor, self._service.mutate, sql)
        except MutationError as error:
            # Typed statement failures: "validation" and "conflict" --
            # checked before _QUERY_ERRORS since MutationError is a
            # ValueError too.
            self._mutation_errors += 1
            event = error_event(None, error.code, str(error))
        except _QUERY_ERRORS as error:
            self._mutation_errors += 1
            event = error_event(None, "invalid_query", str(error))
        except BaseException as error:  # noqa: BLE001 - reported, not hidden
            self._internal_errors += 1
            event = error_event(None, "internal",
                                f"{type(error).__name__}: {error}")
        else:
            self._mutations += 1
            event = mutation_event(None, outcome)
        finally:
            self._mutations_inflight -= 1
            self._maybe_idle()
        if tr is not None:
            if event.get("type") == "error":
                span.set("error", event.get("code", "error"))
            span.__exit__(None, None, None)
            self._recorder.trace_store.put(tr)
            event["trace_id"] = tr.trace_id
        return event

    # -- auxiliary operations ------------------------------------------------

    @property
    def recorder(self) -> Recorder:
        return self._recorder

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "active": len(self._flights),
            "max_pending": self._max_pending,
            "uptime_seconds": time.monotonic() - self._started,
            "version": package_version(),
            "blas_threads": blas_threads(),
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /metrics`` / the TCP
        ``metrics`` op: live instruments plus every registered collector."""
        if self._recorder.metrics is None:
            return "# observability disabled\n"
        return self._recorder.metrics.render()

    def history(self, seconds: Optional[float] = None) -> dict:
        """The tsdb window for ``GET /history`` / the TCP ``history`` op."""
        if self._tsdb is None:
            return {"interval_seconds": None, "capacity": 0,
                    "retention_seconds": 0.0, "snapshots": []}
        return self._tsdb.history(seconds)

    async def profile(self, seconds: float = 1.0,
                      interval: Optional[float] = None) -> dict:
        """Run the sampling profiler for ``seconds``; collapsed stacks.

        Blocking sampling runs on the default executor, never on the
        bounded compute pool -- a profile must not occupy a slot the
        queries it is observing are waiting for.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, profile_payload, float(seconds),
            float(interval) if interval else DEFAULT_INTERVAL)

    def trace_payload(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One stored trace's spans (latest when ``trace_id`` is None)."""
        store = getattr(self._recorder, "trace_store", None)
        if store is None:
            return None
        trace = store.get(trace_id) if trace_id else store.latest()
        if trace is None:
            return None
        return {
            "trace_id": trace.trace_id,
            "name": trace.name,
            "process": f"server:{os.getpid()}",
            "spans": trace.span_dicts(),
        }

    def trace_export(self, trace_id: Optional[str] = None) -> Optional[dict]:
        """One stored trace as a ready-to-write Chrome trace document."""
        payload = self.trace_payload(trace_id)
        if payload is None:
            return None
        chrome = spans_to_chrome(payload["trace_id"],
                                 [(payload["process"], payload["spans"])])
        return {
            "trace_id": payload["trace_id"],
            "processes": [payload["process"]],
            "span_count": len(payload["spans"]),
            "chrome": chrome,
        }

    def alerts_report(self) -> dict:
        """SLO burn-rate alert states evaluated over the tsdb window."""
        if self._tsdb is None or self._alert_evaluator is None:
            return disabled_report()
        history = self._tsdb.history(self._alert_evaluator.max_window_seconds)
        return self._alert_evaluator.report(history["snapshots"])

    def _server_collector(self):
        """Scrape-time export of the app's own event-loop counters."""
        return [
            counters_family(
                "repro_server_requests_total",
                "Query requests received (before admission/coalescing)",
                [({}, self._requests)]),
            counters_family(
                "repro_server_flights_total",
                "Computations launched vs. requests coalesced onto one",
                [({"outcome": "launched"}, self._launched),
                 ({"outcome": "coalesced"}, self._coalesced)]),
            counters_family(
                "repro_server_overloads_total",
                "Requests rejected at the admission limit",
                [({}, self._overloads)]),
            counters_family(
                "repro_server_errors_total",
                "Terminal error events by kind",
                [({"kind": "query"}, self._query_errors),
                 ({"kind": "mutation"}, self._mutation_errors),
                 ({"kind": "internal"}, self._internal_errors)]),
            counters_family(
                "repro_server_mutations_total",
                "Mutation statements committed",
                [({}, self._mutations)]),
            counters_family(
                "repro_server_data_version",
                "Data version of the service's current snapshot",
                [({}, getattr(getattr(self._service, "database", None),
                              "data_version", 0))],
                kind="gauge"),
            counters_family(
                "repro_server_active_flights",
                "Computations currently in flight",
                [({}, len(self._flights))], kind="gauge"),
            counters_family(
                "repro_server_uptime_seconds",
                "Seconds since the server app started",
                [({}, time.monotonic() - self._started)], kind="gauge"),
        ]

    def stats(self) -> dict:
        """The ``/stats`` payload: server counters, the service report,
        current SLO alert states, and the process's BLAS thread count
        (``None`` when unknown)."""
        return {
            "alerts": self.alerts_report()["alerts"],
            "blas_threads": blas_threads(),
            "server": {
                "requests": self._requests,
                "launched": self._launched,
                "coalesced": self._coalesced,
                "overloads": self._overloads,
                "query_errors": self._query_errors,
                "mutations": self._mutations,
                "mutation_errors": self._mutation_errors,
                "internal_errors": self._internal_errors,
                "active": len(self._flights),
                "max_pending": self._max_pending,
                "draining": self._draining,
            },
            "service": self._service.stats().as_dict(),
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start background observability (the tsdb sampler thread).

        Called by :meth:`NetworkServer.start`; apps driven directly in
        tests never need it -- ``history()`` samples on demand.
        """
        if self._tsdb is not None:
            self._tsdb.start()

    def begin_drain(self) -> None:
        """Stop admitting queries; in-flight ones keep running."""
        self._draining = True

    async def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Resolve once every flight has delivered its terminal event."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def close(self) -> None:
        """Release the compute pool and sampler thread (after draining)."""
        if self._tsdb is not None:
            self._tsdb.stop()
        self._executor.shutdown(wait=False, cancel_futures=True)
