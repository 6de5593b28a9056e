#!/usr/bin/env python3
"""The repository benchmark: one workload against the real server or cluster.

Run from the root of a checkout::

    python3 perfbench/run.py --backend columnar --planner auto \\
        --warm-rate 300 --workload warm_repeat --seed 1 --seconds 10 --trace 0

Each run generates its data with ``repro generate``, starts ``repro
server`` (or a 1-worker ``repro cluster start``) as subprocesses with the
given flags, drives one workload at it for ``--seconds``, checks every
answer against the in-process oracle (``oracle.py``), stops and reaps
every process it started, and prints a report.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics with ``--trace 0``; with ``--trace 1`` a
separate traced run's per-layer metrics (``tracing.py``).  A result file
with the host record goes to ``.bench_work/results/``, and a traced run
also writes its span file there.

Exit codes: 0 ok; 1 a failed or refused operation, an oracle mismatch, a
leftover process or an invalid result (the result is marked failed and is
not eligible as a baseline); 2 the benchmark could not run or passed its
deadline; 130 interrupted.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import host  # noqa: E402
import procs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import OracleError  # noqa: E402
from workloads import Op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

WORKLOADS = ("warm_repeat", "fresh_estimate", "write_mix")
CONNECTIONS = {"warm_repeat": 2, "fresh_estimate": 2, "write_mix": 1}
#: Set-ups per untraced run; ``setup_s`` is their median, and the window
#: is measured on the last.
SETUPS = 3
#: Reads of the traced window replayed in process (every write is).
REPLAY_READS = 200
#: Coordinator-vs-direct read rounds behind ``cluster.read_hop_ms``.
HOP_ROUNDS = 40
#: Seconds between samples of the server's CPU time in the window.
CPU_INTERVAL = 1.0
#: Seconds a run may work before it is abandoned.  A run must end within
#: 180 s; what is left then goes to stopping every process it started,
#: with ``ABORT_STOP_TIMEOUT`` for each.
DEADLINE = 140
ABORT_STOP_TIMEOUT = 2.0

END_TO_END = {"setup_s": "s", "server_cpu_per_read": "calib_loops",
              "server_rss_mb": "MB"}
#: Metrics an untraced run prints and records but does not gate (see
#: README.md): on a shared virtual machine wall-clock figures follow the
#: hypervisor's steal share, and raw CPU time the host's speed.
UNGATED = {"setup_wall_s": "s", "server_cpu_ms_per_read": "ms",
           "read_p50_ms": "ms", "read_p99_ms": "ms", "read_qps": "1/s",
           "write_p50_ms": "ms", "write_p99_ms": "ms"}
PER_LAYER = {
    "server.frontdoor_ms": "ms", "server.coalesced_ratio": "ratio",
    "service.submit_ms": "ms", "service.result_cache_hit_ratio": "ratio",
    "service.plan_cache_hit_ratio": "ratio", "engine.enumerate_ms": "ms",
    "engine.candidates_per_req": "count", "service.decide_ms": "ms",
    "service.groups_per_req": "count",
    "service.estimates_reused_ratio": "ratio",
    "compile.kernels_per_req": "count", "compile.tuples_per_kernel": "count",
    "certainty.samples_per_req": "count", "engine.mutate_ms": "ms",
    "service.mutate_ms": "ms", "service.results_evicted_ratio": "ratio",
    "cluster.read_hop_ms": "ms", "cluster.write_hop_ms": "ms",
    "loadgen.lag_p99_ms": "ms", "bench.trace_overhead_ratio": "ratio",
    "host.calib_ms": "ms", "wire.read_p99_ms": "ms", "wire.write_p99_ms": "ms",
}


class DeadlineExceeded(BaseException):
    """Raised in the main thread once a run passes ``DEADLINE``.  Not an
    ``Exception``, so no handler on the way swallows it."""


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload against the real server.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", required=True,
                        help="the server's --backend flag")
    parser.add_argument("--planner", required=True,
                        help="the server's --planner flag")
    parser.add_argument("--warm-rate", type=float, required=True,
                        help="warm_repeat offered rate, requests/s")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.warm_rate <= 0:
        parser.error("--seed must be >= 0; --seconds, --warm-rate > 0")
    return args


@contextlib.contextmanager
def paused_gc():
    """Pause the benchmark's own garbage collector while it measures, so
    its pauses do not land in the server's latencies."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def percentile_ms(ops, q: float) -> float:
    """The ``q``-th latency percentile of ``ops``; 0 when there are none
    (writes outside ``write_mix``)."""
    import numpy as np

    if not ops:
        return 0.0
    return float(np.percentile([op.latency for op in ops], q)) * 1e3


def answered(ops, kind: str) -> list[Op]:
    return [op for op in ops if op.kind == kind and op.error is None]


def intervals(samples: list[tuple[float, float]], reads: list[Op],
              pace: list[tuple[float, float]]) -> list[dict]:
    """Per sampling interval: its seconds, the server's CPU milliseconds,
    the reads answered and the pacer loop's least CPU milliseconds."""
    done = sorted(op.done for op in reads)
    result = []
    for (start, cpu_start), (end, cpu_end) in zip(samples, samples[1:]):
        loops = [cpu for when, cpu in pace if start <= when < end]
        result.append({
            "seconds": end - start, "cpu_ms": (cpu_end - cpu_start) * 1e3,
            "reads": bisect.bisect_left(done, end) - bisect.bisect_left(
                done, start),
            "loop_ms": min(loops) if loops else None})
    return result


def cpu_per_read(samples: list[tuple[float, float]], reads: list[Op],
                 pace: list[tuple[float, float]]) -> tuple[float, float]:
    """The server's CPU time over the window per answered read: in
    milliseconds, and in calibration loops.

    For the second figure each interval's CPU milliseconds are divided by
    the pacer loop's CPU milliseconds in that interval (those of the
    interval before, for one too short to hold a loop), so a change in the
    host's speed during the window cancels out.  The loop's fastest run in
    an interval is taken: a run can be slowed by the core waking up from
    the pacer's sleep, never sped up.
    """
    spans = intervals(samples, reads, pace)
    cpu_ms = sum(span["cpu_ms"] for span in spans)
    loops = 0.0
    loop_ms = min(cpu for _, cpu in pace)
    for span in spans:
        loop_ms = span["loop_ms"] or loop_ms
        loops += span["cpu_ms"] / loop_ms
    return cpu_ms / len(reads), loops / len(reads)


def planned(reads: list[Op]) -> dict:
    """How often the server's planner chose each execution configuration,
    from the ``planned`` section of the replies' stats."""
    choices: dict[str, int] = {}
    for op in reads:
        plan = op.result.stats.get("planned") or {}
        key = " ".join(f"{knob}={plan.get(knob)}" for knob in
                       ("backend", "shards", "executor", "jobs"))
        choices[key] = choices.get(key, 0) + 1
    return choices


class Instance:
    """A running server or coordinator, measured over its process tree:
    the cluster worker and any process pool included."""

    def __init__(self, fleet: procs.Fleet, process, port: int,
                 worker_port=None) -> None:
        self.fleet = fleet
        self.process = process
        self.port = port
        self.worker_port = worker_port

    def rss_mb(self) -> float:
        return sum(procs.peak_rss_mb(pid)
                   for pid in self.fleet.tree(self.process))

    def cpu_seconds(self) -> float:
        return sum(procs.cpu_seconds(pid)
                   for pid in self.fleet.tree(self.process))

    def processes(self) -> list[dict]:
        return [procs.describe(pid) for pid in self.fleet.tree(self.process)]

    def stats(self) -> dict:
        from repro.client import ReproClient

        with ReproClient("127.0.0.1", self.port,
                         timeout=workloads.REQUEST_TIMEOUT) as client:
            return client.stats()


class CpuSampler:
    """Samples ``(time, server CPU seconds)`` every ``CPU_INTERVAL`` on a
    background thread, from entry to exit."""

    def __init__(self, instance: Instance) -> None:
        self._instance = instance
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.samples: list[tuple[float, float]] = []

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(),
                             self._instance.cpu_seconds()))

    def _run(self) -> None:
        while not self._stop.wait(CPU_INTERVAL):
            self._sample()

    def __enter__(self) -> "CpuSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


@dataclass
class Part:
    """One set-up of a run, and the window if it was measured on it."""

    #: When the set-up started and ended (``perf_counter``).
    setup_span: tuple[float, float]
    #: Share of the host's CPU time the hypervisor took during the set-up.
    setup_steal: float
    warm: list[Op]
    windows: list[workloads.Window] = field(default_factory=list)
    #: ``(time, server CPU seconds)`` over the window.
    cpu: list[tuple[float, float]] = field(default_factory=list)
    #: ``(time, CPU milliseconds)`` of every pacer loop of the run.
    pace: list[tuple[float, float]] = field(default_factory=list)
    steal: float = 0.0
    rss_mb: float = 0.0
    processes: list[dict] = field(default_factory=list)
    hop_ms: float = 0.0
    hops: list[Op] = field(default_factory=list)

    @property
    def measured(self) -> list[Op]:
        return [op for window in self.windows for op in window.ops]

    @property
    def ops(self) -> list[Op]:
        """Every op sent to this set-up's server, in issue order."""
        return self.warm + self.measured + self.hops

    def cpu_per_read(self) -> tuple[float, float]:
        return cpu_per_read(self.cpu, answered(self.measured, "read"),
                            self.pace)

    @property
    def setup_wall_s(self) -> float:
        return self.setup_span[1] - self.setup_span[0]

    def setup_s(self) -> float:
        """The set-up's seconds, scaled to the reference host speed: less
        the share of the time the hypervisor stole, and times the reference
        over the pacer loop's fastest CPU time during the set-up."""
        start, end = self.setup_span
        during = [cpu for when, cpu in self.pace if start <= when < end]
        loop_ms = min(during or [cpu for _, cpu in self.pace])
        return (self.setup_wall_s * (1.0 - self.setup_steal)
                * host.PACE_REFERENCE_MS / loop_ms)

    def record(self) -> dict:
        setup = {"setup_s": self.setup_s(), "setup_wall_s": self.setup_wall_s,
                 "setup_steal_share": self.setup_steal}
        if not self.windows:
            return setup
        return {**setup, "steal_share": self.steal,
                "server_rss_mb": self.rss_mb,
                "window_seconds": [window.seconds
                                   for window in self.windows],
                "server_processes": self.processes,
                "intervals": intervals(self.cpu,
                                       answered(self.measured, "read"),
                                       self.pace)}


def end_to_end(parts: list[Part]) -> dict:
    """The end-to-end metrics of an untraced run.

    ``setup_s`` and ``setup_wall_s`` are medians over the set-ups;
    everything else comes from the last set-up, the one measured.  Latency
    percentiles cover every answered op; read throughput is the answered
    reads over the span from the first read's due time to the last reply.
    """
    measured = parts[-1]
    reads = answered(measured.measured, "read")
    writes = answered(measured.measured, "write")
    raw, scaled = measured.cpu_per_read()
    span = max(op.done for op in reads) - min(op.due for op in reads)
    return {
        "setup_s": statistics.median(part.setup_s() for part in parts),
        "setup_wall_s": statistics.median(part.setup_wall_s
                                          for part in parts),
        "server_cpu_per_read": scaled,
        "server_cpu_ms_per_read": raw,
        "server_rss_mb": measured.rss_mb,
        "read_p50_ms": percentile_ms(reads, 50),
        "read_p99_ms": percentile_ms(reads, 99),
        "read_qps": len(reads) / span,
        "write_p50_ms": percentile_ms(writes, 50),
        "write_p99_ms": percentile_ms(writes, 99),
    }


class Bench:
    """One run of one workload."""

    def __init__(self, args, fleet: procs.Fleet, env: dict,
                 workdir: Path) -> None:
        self.args = args
        self.seed = args.seed
        self.fleet = fleet
        self.env = env
        self.workdir = workdir
        self.data = workdir / "data"
        self.cluster = args.workload == "write_mix"
        self.scale = (workloads.WARM_SCALE if args.workload == "warm_repeat"
                      else workloads.ESTIMATE_SCALE)
        self.flags = ["--seed", str(args.seed), "--backend", args.backend,
                      "--planner", args.planner]
        #: The generated data, loaded once after the first set-up.
        self.database = None
        #: ``write_mix``'s write sequence, drawn once from the data.
        self.writes: list[str] = []
        #: (before, after) server stats around each traced slice.
        self.stat_pairs: list[tuple[dict, dict]] = []

    # -- set-up ------------------------------------------------------------

    @staticmethod
    def _repro(*argv: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli", *argv]

    def generate(self) -> None:
        shutil.rmtree(self.data, ignore_errors=True)
        products, orders, markets = self.scale
        done = subprocess.run(
            self._repro("generate", "--out", str(self.data),
                        "--products", str(products), "--orders", str(orders),
                        "--markets", str(markets),
                        "--null-rate", str(workloads.NULL_RATE),
                        "--seed", str(workloads.DATA_SEED)),
            env=self.env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise procs.BenchError(
                f"repro generate failed:\n{done.stderr[-2000:]}")

    def server_argv(self) -> list[str]:
        if self.cluster:
            return self._repro("cluster", "start", "--data", str(self.data),
                               "--workers", "1", "--port", "0", "--no-http",
                               *self.flags)
        return self._repro("server", "--data", str(self.data), "--port", "0",
                           "--no-http", *self.flags)

    def start(self, name: str) -> Instance:
        process = self.fleet.spawn(name, self.server_argv())
        port = process.wait_port()
        status = procs.wait_healthy("127.0.0.1", port,
                                    workers=1 if self.cluster else None)
        if not self.cluster:
            return Instance(self.fleet, process, port)
        worker = status["workers"][0]
        return Instance(self.fleet, process, port,
                        int(worker["addr"].rpartition(":")[2]))

    def warmup_ops(self) -> list[Op]:
        if self.args.workload == "warm_repeat":
            reads = workloads.warm_requests(self.seed)
        elif self.args.workload == "fresh_estimate":
            reads = workloads.fresh_warmup(self.seed)
        else:
            reads = workloads.mix_reads(self.seed)
        return [Op("read", read, -1 - index)
                for index, read in enumerate(reads)]

    def setup(self, index: int) -> tuple[Instance, Part]:
        """Generate the data, start the server until healthy, warm it up;
        returns the server and the set-up's part of the run."""
        cpu_before = host.cpu_times()
        started = time.perf_counter()
        self.generate()
        instance = self.start(f"server{index}")
        warm = workloads.serial(instance.port, self.warmup_ops())
        span = (started, time.perf_counter())
        return instance, Part(span, host.steal_share(cpu_before,
                                                     host.cpu_times()), warm)

    # -- measured windows --------------------------------------------------

    def windows(self, instance: Instance, tracers: list,
                seconds: float) -> tuple[list[workloads.Window], list]:
        """Drive ``seconds`` of load, split into one slice per entry of
        ``tracers`` (a Tracer or None).

        Server stats are taken around every traced slice, and the server's
        CPU time is sampled throughout.  Returns the slices and the CPU
        samples.
        """
        args = self.args
        share = seconds / len(tracers)
        connections = CONNECTIONS[args.workload]
        result = []
        if args.workload == "warm_repeat":
            per_window = int(args.warm_rate * share) + 1
            stream = workloads.warm_stream(
                self.seed, workloads.warm_requests(self.seed),
                per_window * len(tracers))
        position = 0
        with CpuSampler(instance) as sampler:
            for tracer in tracers:
                if tracer is not None:
                    before = instance.stats()
                with paused_gc():
                    if args.workload == "warm_repeat":
                        window = workloads.open_loop(
                            instance.port,
                            stream[position:position + per_window],
                            args.warm_rate, share, connections, tracer,
                            first_id=position)
                        position += per_window
                    elif args.workload == "fresh_estimate":
                        window = workloads.closed_loop(
                            instance.port,
                            lambda index: workloads.fresh_request(self.seed,
                                                                  index),
                            position, share, connections, tracer)
                        position = max(op.step for op in window.ops) + 1
                    else:
                        window, position = workloads.write_steps(
                            instance.port, self.writes,
                            workloads.mix_reads(self.seed), position, share,
                            tracer)
                if tracer is not None:
                    window.traced = True
                    self.stat_pairs.append((before, instance.stats()))
                result.append(window)
        return result, sampler.samples

    def part(self, index: int, tracers: list, seconds: float) -> Part:
        """Set up once and, if ``tracers`` names any slice, measure the
        window on it."""
        from repro.datagen.experiments import sales_schema
        from repro.relational.csv_io import load_database

        instance, part = self.setup(index)
        if not tracers:
            self.fleet.stop(instance.process)
            return part
        if self.database is None:
            self.database = load_database(sales_schema(), self.data)
            if self.cluster:
                self.writes = workloads.mix_writes(self.seed, self.database)
        cpu_before = host.cpu_times()
        part.windows, part.cpu = self.windows(instance, tracers, seconds)
        part.steal = host.steal_share(cpu_before, host.cpu_times())
        part.rss_mb = instance.rss_mb()
        part.processes = instance.processes()
        if tracers[-1] is not None and self.cluster:
            part.hop_ms, part.hops = self.hop_ops(instance)
        self.fleet.stop(instance.process)
        return part

    def hop_ops(self, instance: Instance) -> tuple[float, list[Op]]:
        """``cluster.read_hop_ms``: median coordinator round trip minus
        median direct round trip to the worker's own port, on the same warm
        reads.  The reads are returned for the oracle check."""
        from repro.client import ReproClient

        via, direct = [], []
        timeout = workloads.REQUEST_TIMEOUT
        with ReproClient("127.0.0.1", instance.port,
                         timeout=timeout) as coordinator, \
                ReproClient("127.0.0.1", instance.worker_port,
                            timeout=timeout) as worker:
            for _ in range(HOP_ROUNDS):
                for read in workloads.mix_reads(self.seed):
                    for client, sink in ((coordinator, via),
                                         (worker, direct)):
                        op = Op("read", read, -1)
                        workloads.issue(client, op)
                        sink.append(op)
        hop_ms = (statistics.median(op.done - op.sent for op in via)
                  - statistics.median(op.done - op.sent for op in direct))
        return hop_ms * 1e3, via + direct

    # -- the run -------------------------------------------------------------

    def run(self) -> dict:
        from oracle import check

        calib_ms = host.calibrate()
        tracer = tracing.Tracer() if self.args.trace else None
        # The pacer times its calibration loop through every set-up and
        # window; ``setup_s`` and ``server_cpu_per_read`` are scaled by it.
        pacer = self.fleet.spawn("pacer", [sys.executable, host.__file__])
        if tracer is not None:
            # One set-up; untraced and traced slices alternate on it, so
            # drift over the run cancels out of the tracing overhead.
            parts = [self.part(0, [None, tracer] * 2, self.args.seconds)]
        else:
            # Only the last set-up is measured; the others are timed.
            parts = [self.part(index, [None] if index == SETUPS - 1 else [],
                               self.args.seconds)
                     for index in range(SETUPS)]
        self.fleet.stop(pacer)
        pace = host.read_pace(pacer.log.read_text())
        for part in parts:
            part.pace = pace
        measured = [op for part in parts for op in part.measured]
        ops = [op for part in parts for op in part.ops]
        failed = [op for op in ops if op.error is not None]
        mismatches = check([part.ops for part in parts], self.data,
                           self.seed, self.workdir)
        reads = answered(measured, "read")
        writes = answered(measured, "write")
        if tracer is not None:
            metrics = self.layer_metrics(parts[0], tracer)
            metrics["host.calib_ms"] = calib_ms
        elif reads:
            metrics = end_to_end(parts)
        else:
            metrics = {}
        return {
            "attempted": len(ops),
            "failed": len(failed) + len(mismatches),
            "failed_ops": len(failed),
            "refused": sum(op.refused for op in ops),
            "mismatched": len(mismatches),
            "errors": [op.error for op in failed][:20],
            "mismatches": mismatches[:20],
            "samples": {"reads": len(reads), "writes": len(writes),
                        "setups": len(parts)},
            # Whether the work ran in the server process, a cluster worker
            # or a process pool: the planner's choices, and (per set-up)
            # each process of the tree when its slice ended.
            "planned": planned(reads),
            "parts": [part.record() for part in parts],
            "metrics": metrics,
            "calib_ms": calib_ms,
            "steal_share": parts[-1].steal,
            "scale": dict(zip(("products", "orders", "markets"), self.scale)),
            "tracer": tracer,
        }

    def layer_metrics(self, part: Part, tracer) -> dict:
        """Per-layer metrics of the traced slices."""
        windows = part.windows
        traced = [op for window in windows if window.traced
                  for op in window.ops]
        sequence = [("read", op.request, op.step, False) for op in part.warm]
        if self.cluster:
            # Writes change what later reads see: replay every step in
            # order, timing only the traced slices'.
            sequence += [(op.kind, op.request, op.step, window.traced)
                         for window in windows for op in window.ops]
        else:
            ordered = sorted(traced, key=lambda op: op.step)
            sequence += [("read", op.request, op.step, True)
                         for op in ordered[:REPLAY_READS]]
        options = {"seed": self.seed, "backend": self.args.backend,
                   "planner": self.args.planner}
        timings = tracing.replay(self.database, options, sequence, tracer)
        lags = [lag for window in windows if window.traced
                for lag in window.lags]
        metrics = tracing.layer_metrics(traced, self.stat_pairs, timings,
                                        lags, part.hop_ms, self.cluster)

        def read_p50(was_traced: bool) -> float:
            return statistics.median(
                op.latency for window in windows
                if window.traced == was_traced
                for op in answered(window.ops, "read"))

        metrics["bench.trace_overhead_ratio"] = (read_p50(True)
                                                 / read_p50(False))
        metrics["wire.read_p99_ms"] = percentile_ms(answered(traced, "read"),
                                                    99)
        metrics["wire.write_p99_ms"] = percentile_ms(
            answered(traced, "write"), 99)
        return metrics


# -- result handling ---------------------------------------------------------


def validate(outcome: dict, expected: dict, workload: str) -> list[str]:
    """Problems that make a result ineligible as a baseline."""
    problems = []
    metrics = outcome["metrics"]
    for name in expected:
        value = metrics.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite: {value!r}")
    kinds = ("reads", "writes") if workload == "write_mix" else ("reads",)
    for kind in kinds:
        if outcome["samples"][kind] < 1:
            problems.append(f"no {kind} answered in the measured window")
    if outcome["attempted"] < 1:
        problems.append("no operation attempted")
    if outcome["failed_ops"]:
        problems.append(f"{outcome['failed_ops']} operations failed "
                        f"({outcome['refused']} refused)")
    if outcome["mismatched"]:
        problems.append(f"{outcome['mismatched']} answers differ from the "
                        "oracle")
    return problems


def finite_or_none(value):
    """JSON has no NaN: a missing or non-finite metric is written as null."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return value
    return None


def report(args, outcome: dict, expected: dict, problems: list[str]) -> None:
    samples = outcome["samples"]
    window = sum(seconds for part in outcome["parts"]
                 for seconds in part.get("window_seconds", ()))
    counts = {"setup_s": samples["setups"],
              "setup_wall_s": samples["setups"],
              "read_p50_ms": samples["reads"],
              "server_cpu_per_read": samples["reads"],
              "server_cpu_ms_per_read": samples["reads"],
              "read_p99_ms": samples["reads"], "read_qps": samples["reads"],
              "write_p50_ms": samples["writes"],
              "write_p99_ms": samples["writes"]}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  window {window:.2f}s  "
          f"steal {outcome['steal_share']:.2%}")
    shown = dict(expected, **({} if args.trace else UNGATED))
    for name, unit in shown.items():
        value = outcome["metrics"].get(name, float("nan"))
        count = counts.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        if name not in expected:
            suffix += "  not gated"
        print(f"  {name:<34} {value:>14.4f} {unit}{suffix}")
    attempted = outcome["attempted"]
    print(f"  ops attempted {attempted}, failed {outcome['failed_ops']} "
          f"(refused {outcome['refused']}), oracle mismatches "
          f"{outcome['mismatched']}; ops_failed_ratio "
          f"{outcome['failed'] / max(attempted, 1):.6f}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    for line in outcome["errors"] + outcome["mismatches"]:
        print(f"    {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Servers, ``repro generate`` and the oracle's worker processes all
    # import the program from this checkout.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(Path(__file__).resolve().parent)]
        + ([inherited] if inherited else []))
    # A server that does not drain is sent SIGABRT before SIGKILL: the
    # fault handler writes its threads' stacks to its log, which a failed
    # run keeps, and no core file is written.
    env = dict(os.environ, PYTHONFAULTHANDLER="1")
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{run_name}-{os.getpid()}"
    results = WORK / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    def expire(signum, frame):
        raise DeadlineExceeded()

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE)
    fleet = procs.Fleet(env, workdir)
    code = 0
    outcome = None
    stop_timeout = procs.STOP_TIMEOUT
    try:
        outcome = Bench(args, fleet, env, workdir).run()
    except (procs.BenchError, OracleError) as error:
        print(f"error: {error}", file=sys.stderr)
        code = 2
    except DeadlineExceeded:
        print(f"error: the run passed its {DEADLINE}s deadline",
              file=sys.stderr)
        code = 2
        stop_timeout = ABORT_STOP_TIMEOUT
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = 130
    finally:
        signal.alarm(0)
        leftovers = fleet.close(stop_timeout)
        if leftovers:
            print(f"error: processes still alive at exit, killed: "
                  f"{leftovers}", file=sys.stderr)
            code = code or 1
        if code or outcome is None or outcome["failed"]:
            # Keep the servers' logs of a failed run for diagnosis.
            kept = results / f"{run_name}-logs"
            kept.mkdir(exist_ok=True)
            for log in workdir.glob("*.log"):
                shutil.copy(log, kept / log.name)
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        return code

    expected = PER_LAYER if args.trace else END_TO_END
    problems = validate(outcome, expected, args.workload)
    if leftovers:
        problems.append(f"leftover processes {leftovers}")
    ok = not problems
    tracer = outcome.pop("tracer")
    if tracer is not None:
        tracer.write(results / f"spans-{args.workload}-seed{args.seed}.json")
    record = {
        "status": "ok" if ok else "failed",
        "baseline_eligible": ok,
        "problems": problems,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": ("open" if args.workload == "warm_repeat" else "closed"),
        "connections": CONNECTIONS[args.workload],
        "warm_rate": args.warm_rate,
        "host": host.host_record(
            ["--backend", args.backend, "--planner", args.planner],
            outcome["calib_ms"]),
        **outcome,
        "all_metrics": outcome["metrics"],
        "metrics": {name: {"value": finite_or_none(
            outcome["metrics"].get(name)), "unit": unit}
            for name, unit in expected.items()},
    }
    (results / f"{run_name}.json").write_text(
        json.dumps(record, indent=2, default=str))
    report(args, outcome, expected, problems)
    print(json.dumps({
        "correct": ok,
        "attempted": outcome["attempted"],
        # An invalid result with no failed op still counts as one failure.
        "failed": outcome["failed"] or int(not ok),
        "metrics": record["metrics"],
    }))
    return 0 if ok else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
