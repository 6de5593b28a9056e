"""What every result file records about the host it ran on.

The benchmark inherits the environment and pins no BLAS threads itself,
so oversubscription from the default BLAS thread count stays visible in
the numbers -- and a later fix shows as a gain.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

#: Environment variables that set BLAS / OpenMP thread counts.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


#: Iterations of one pacer loop: a few milliseconds of CPU time.
PACE_ITERATIONS = 50_000
#: Seconds the pacer sleeps between loops, so it takes a few percent of
#: one CPU.
PACE_PAUSE = 0.1
#: CPU milliseconds of one pacer loop at the reference host speed that
#: ``setup_s`` is scaled to (about a quiet run on the 2-vCPU host the
#: benchmark was built on).
PACE_REFERENCE_MS = 4.0


def _spin(iterations: int) -> int:
    """The fixed pure-Python loop every host-speed figure times."""
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return total


def calibrate(repeats: int = 7) -> float:
    """Median milliseconds of a fixed pure-Python loop (host speed)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _spin(200_000)
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def pace() -> None:
    """Time the pacer loop over and over, until killed.

    Prints one ``<perf_counter> <CPU milliseconds>`` line per loop.  The
    clock is the system's monotonic clock, so the times line up with the
    benchmark's own.  Neighbours on a shared host slow every process on
    it alike: the loop's CPU time tracks how much CPU time a fixed amount
    of the server's work takes at that moment.
    """
    while True:
        started = time.process_time()
        _spin(PACE_ITERATIONS)
        spent = time.process_time() - started
        print(f"{time.perf_counter():.6f} {spent * 1e3:.6f}", flush=True)
        time.sleep(PACE_PAUSE)


def read_pace(text: str) -> list[tuple[float, float]]:
    """The ``(time, CPU milliseconds)`` lines a pacer printed."""
    samples = []
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 2:
            samples.append((float(fields[0]), float(fields[1])))
    return samples


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``, in clock ticks."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took away between two samples.

    A shared virtual machine loses cycles to its neighbours; a run with a
    high share measured the host as much as the program.
    """
    delta = [end - start for start, end in zip(before, after)]
    total = sum(delta[:8])  # user .. steal; guest time is inside user
    return delta[7] / total if total else 0.0


def host_record(server_flags: list[str], calib_ms: float) -> dict:
    import numpy

    config = numpy.show_config(mode="dicts") or {}
    blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_thread_env": {name: os.environ.get(name)
                            for name in _THREAD_VARS},
        "server_flags": list(server_flags),
        "calib_ms": calib_ms,
    }


if __name__ == "__main__":
    pace()
