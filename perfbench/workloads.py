"""The three workloads: seeded inputs and the load generators.

Inputs are a pure function of the workload seed.  The server receives
only what is generated here (data files, SQL text, per-request options);
it never sees the seed itself except as a request option.

* ``warm_repeat`` -- 120 distinct requests drawn from the server load
  generator's 5-template mix (``benchmarks/loadgen.py``) on the
  120/120/12 sales database, replayed open-loop at a fixed offered rate.
  Every working set fits the service caches, so after warm-up each
  request is a certainty-cache hit.
* ``fresh_estimate`` -- the three Figure-1 queries on a 400/400/30
  database, closed-loop over two connections; every request carries a
  fresh seed, so each one runs Monte-Carlo estimation.
* ``write_mix`` -- a 1-worker cluster on the same data; each step commits
  one write (mostly INSERTs into Orders, every ``MIX_EVERY``-th an
  UPDATE/DELETE from :func:`repro.datagen.mutations.random_statement`)
  and then reads the three Figure-1 queries at a fixed seed.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

#: Table sizes (products, orders, markets) and null rate of the data.
WARM_SCALE = (120, 120, 12)
ESTIMATE_SCALE = (400, 400, 30)
NULL_RATE = 0.15
#: ``repro generate`` seed.  The data is fixed: which rows carry nulls
#: sets the lineage sizes, and with them the Monte-Carlo cost of every
#: answer, so a data seed that followed the workload seed would make the
#: spread between runs measure the dataset rather than the program.  The
#: workload seed varies everything sent to the server.
DATA_SEED = 7

#: The load generator's template mix (mirrors ``benchmarks/loadgen.py``,
#: kept here so the benchmark's inputs cannot drift with that script).
_TEMPLATES = (
    "SELECT M.seg FROM Market M WHERE M.rrp >= {t} LIMIT {k}",
    "SELECT P.id FROM Products P WHERE P.rrp <= {t} LIMIT {k}",
    "SELECT P.id FROM Products P WHERE P.rrp * P.dis <= {t} LIMIT {k}",
    "SELECT O.id FROM Orders O WHERE O.q * O.dis >= {t} LIMIT {k}",
    "SELECT P.seg FROM Products P, Market M "
    "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp LIMIT {k}",
)
_THRESHOLDS = (10, 20, 30, 40)
_LIMITS = (3, 5, 8)
_WARM_EPSILONS = (0.1, 0.2)
_WARM_ADAPTIVE_SHARE = 0.1
#: Distinct warm requests: under every service cache capacity
#: (parse 256, plan 128, certainty 4096).
WARM_DISTINCT = 120

#: Figure-1 request mix of ``fresh_estimate``.
ESTIMATE_EPSILONS = (0.05, 0.1)
ESTIMATE_ADAPTIVE_SHARE = 0.25

#: ``write_mix``: every MIX_EVERY-th write is an UPDATE/DELETE on Products
#: whose WHERE pins one product id, so a run keeps the database's shape.
MIX_EVERY = 10
_PINS_ONE_PRODUCT = re.compile(r"\bid = 'p\d+'")
MIX_READ_EPSILON = 0.05
#: Steps generated per run; a run that exhausts them stops early.
MIX_CAPACITY = 2000
#: Null rate of the literals in generated INSERT rows.
_INSERT_NULL_RATE = 0.15
#: Seconds the client waits for one reply: far above any answer's
#: latency, so only a stuck server reaches it.
REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class Read:
    sql: str
    epsilon: float
    seed: int
    adaptive: bool

    def options(self) -> dict:
        return {"epsilon": self.epsilon, "seed": self.seed,
                "adaptive": self.adaptive}


@dataclass
class Op:
    """One wire operation as sent and answered."""

    kind: str                  # "read" or "write"
    request: object            # a Read, or the write's SQL text
    step: int                  # write_mix step, else the stream index
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    result: object = None      # QueryResult / MutationResult when answered
    error: Optional[str] = None
    refused: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Window:
    """The operations of one measured window and its wall time."""

    ops: list[Op] = field(default_factory=list)
    seconds: float = 0.0
    #: Open loop only: how late each request was sent, in seconds.
    lags: list[float] = field(default_factory=list)
    #: Whether spans were recorded during this window.
    traced: bool = False


# -- inputs ------------------------------------------------------------------


def warm_requests(seed: int) -> list[Read]:
    """The 120 distinct requests of ``warm_repeat``, in first-draw order."""
    rng = np.random.default_rng([seed, 1])
    seen: dict[Read, None] = {}
    def pick(choices):
        return choices[int(rng.integers(len(choices)))]

    for _ in range(100_000):
        sql = pick(_TEMPLATES).format(t=pick(_THRESHOLDS), k=pick(_LIMITS))
        read = Read(sql, pick(_WARM_EPSILONS), seed,
                    bool(rng.random() < _WARM_ADAPTIVE_SHARE))
        seen.setdefault(read)
        if len(seen) == WARM_DISTINCT:
            return list(seen)
    raise RuntimeError("template mix has too few distinct requests")


def warm_stream(seed: int, requests: list[Read], count: int) -> list[Read]:
    """The open-loop request order: uniform draws over the distinct set."""
    rng = np.random.default_rng([seed, 2])
    return [requests[int(index)]
            for index in rng.integers(len(requests), size=count)]


def fresh_request(seed: int, index: int) -> Read:
    """Request ``index`` of ``fresh_estimate``: its own never-reused seed."""
    from repro.datagen.experiments import EXPERIMENT_QUERIES

    rng = np.random.default_rng([seed, 3, index])
    names = sorted(EXPERIMENT_QUERIES)
    name = names[int(rng.integers(len(names)))]
    return Read(EXPERIMENT_QUERIES[name],
                ESTIMATE_EPSILONS[int(rng.integers(len(ESTIMATE_EPSILONS)))],
                seed * 10_000_000 + index,
                bool(rng.random() < ESTIMATE_ADAPTIVE_SHARE))


def fresh_warmup(seed: int) -> list[Read]:
    """Every query x epsilon x adaptive combination, at warm-up-only seeds."""
    from repro.datagen.experiments import EXPERIMENT_QUERIES

    combos = [(sql, epsilon, adaptive)
              for sql in EXPERIMENT_QUERIES.values()
              for epsilon in ESTIMATE_EPSILONS for adaptive in (False, True)]
    return [Read(sql, epsilon, seed * 10_000_000 + 9_000_000 + index, adaptive)
            for index, (sql, epsilon, adaptive) in enumerate(combos)]


def mix_reads(seed: int) -> list[Read]:
    """The three Figure-1 reads issued after every ``write_mix`` write."""
    from repro.datagen.experiments import EXPERIMENT_QUERIES

    return [Read(EXPERIMENT_QUERIES[name], MIX_READ_EPSILON, seed, False)
            for name in sorted(EXPERIMENT_QUERIES)]


def _literal(rng: np.random.Generator, low: float, high: float) -> str:
    if rng.random() < _INSERT_NULL_RATE:
        return "NULL"
    return f"{float(rng.uniform(low, high)):.3f}"


def order_insert(seed: int, index: int, products: int) -> str:
    """One INSERT INTO Orders with a never-reused id."""
    rng = np.random.default_rng([seed, 4, index])
    return (f"INSERT INTO Orders VALUES ('wm{index}', "
            f"'p{int(rng.integers(products))}', {_literal(rng, 1.0, 50.0)}, "
            f"{_literal(rng, 0.5, 20.0)})")


def mix_writes(seed: int, database, capacity: int = MIX_CAPACITY) -> list[str]:
    """The ``write_mix`` write sequence.

    Every ``MIX_EVERY``-th write is an UPDATE or DELETE on Products drawn
    with ``random_statement`` and kept only if its WHERE pins a product id
    and, applied to a shadow of the Products version chain, the engine
    accepts it and it touches one or two rows -- so no write of the run
    fails and the table keeps its size.  The rest are Orders INSERTs, which
    never change which of those statements are valid, so the shadow skips
    them.
    """
    from repro.datagen.experiments import SEGMENTS, sales_schema
    from repro.datagen.mutations import random_statement
    from repro.engine.mutate import execute_mutation
    from repro.engine.sql.parser import parse_statement
    from repro.relational.mutation import MutationError

    products = len(database.relation("Products"))
    schema = sales_schema()
    pool = list(SEGMENTS) + [f"p{index}" for index in range(products)]
    rng = np.random.default_rng([seed, 5])
    shadow = database
    writes = []
    for index in range(capacity):
        if index % MIX_EVERY != MIX_EVERY - 1:
            writes.append(order_insert(seed, index, products))
            continue
        for _ in range(10_000):
            sql = random_statement(rng, schema, pool, table="Products")
            predicate = sql.partition(" WHERE ")[2]
            if sql.startswith("INSERT") or not _PINS_ONE_PRODUCT.search(
                    predicate):
                continue
            try:
                candidate, _, outcome = execute_mutation(
                    parse_statement(sql), shadow)
            except MutationError:
                continue
            if 1 <= outcome.deleted <= 2:
                shadow = candidate
                writes.append(sql)
                break
        else:
            raise RuntimeError("no acceptable UPDATE/DELETE drawn")
    return writes


# -- load generation -------------------------------------------------------


def issue(client, op: Op) -> None:
    """Send one op on ``client`` and record its outcome on ``op``."""
    from repro.client import ClientError, OverloadedError

    op.sent = time.perf_counter()
    try:
        if op.kind == "read":
            op.result = client.query(op.request.sql, **op.request.options())
        else:
            op.result = client.mutate(op.request)
    except OverloadedError as error:
        op.refused = True
        op.error = f"refused: {error}"
    except ClientError as error:
        op.error = f"{type(error).__name__}: {error}"
    op.done = time.perf_counter()


def _connect(port: int, connections: int) -> list:
    from repro.client import ReproClient

    clients = []
    try:
        for _ in range(connections):
            clients.append(ReproClient("127.0.0.1", port,
                                       timeout=REQUEST_TIMEOUT))
    except BaseException:
        for client in clients:
            client.close()
        raise
    return clients


def _run_threads(target: Callable[[int], None], connections: int) -> None:
    errors: list[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # reported by the caller's thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(index,), daemon=True)
               for index in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(port: int, stream: list[Read], rate: float, seconds: float,
              connections: int, tracer=None, first_id: int = 0) -> Window:
    """Send ``stream[i]`` at ``start + i / rate`` over ``connections``.

    Each request's latency counts from its due time, so a stall shows in
    the requests queued behind it; ``lags`` records how late each was sent.
    """
    window = Window()
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    clients = _connect(port, connections)
    start = time.perf_counter() + 0.01
    end = start + seconds

    def drive(slot: int) -> None:
        client = clients[slot]
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            if due >= end:
                return
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            op = Op("read", stream[index], index, due=due)
            issue(client, op)
            with lock:
                window.ops.append(op)
                window.lags.append(op.sent - due)
            if tracer is not None:
                tracer.wire(op, first_id + index)

    try:
        _run_threads(drive, connections)
    finally:
        for client in clients:
            client.close()
    window.seconds = time.perf_counter() - start
    return window


def closed_loop(port: int, request: Callable[[int], Read], first: int,
                seconds: float, connections: int, tracer=None) -> Window:
    """Each connection sends its next request when the previous returns."""
    window = Window()
    lock = threading.Lock()
    counter = itertools.count(first)
    clients = _connect(port, connections)
    start = time.perf_counter()
    end = start + seconds

    def drive(slot: int) -> None:
        client = clients[slot]
        while time.perf_counter() < end:
            with lock:
                index = next(counter)
            op = Op("read", request(index), index)
            issue(client, op)
            op.due = op.sent
            with lock:
                window.ops.append(op)
            if tracer is not None:
                tracer.wire(op, index)

    try:
        _run_threads(drive, connections)
    finally:
        for client in clients:
            client.close()
    window.seconds = time.perf_counter() - start
    return window


def write_steps(port: int, writes: list[str], reads: list[Read], first: int,
                seconds: float, tracer=None) -> tuple[Window, int]:
    """From step ``first``: commit one write, then issue every read.

    One connection, so the version order the server sees is exactly the
    order here.  Returns the window and the next unused step.
    """
    from repro.client import ReproClient

    window = Window()
    step = first
    with ReproClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT) as client:
        start = time.perf_counter()
        end = start + seconds
        while time.perf_counter() < end and step < len(writes):
            ops = [Op("write", writes[step], step)]
            ops += [Op("read", read, step) for read in reads]
            for op in ops:
                issue(client, op)
                op.due = op.sent
            window.ops.extend(ops)
            if tracer is not None:
                tracer.step(ops, step)
            step += 1
        window.seconds = time.perf_counter() - start
    return window, step


def serial(port: int, ops: list[Op]) -> list[Op]:
    """Issue ``ops`` one after another on one connection (the warm-up)."""
    from repro.client import ReproClient

    with ReproClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT) as client:
        for op in ops:
            issue(client, op)
            op.due = op.sent
    return ops
