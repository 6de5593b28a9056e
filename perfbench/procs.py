"""Server processes the benchmark spawns: start until healthy, measure,
stop, audit.

A server is measured as its whole process tree: a coordinator and the
workers it supervises, and any process pool the program's executor forks.
Stopping is ordered: the spawned process (for a cluster, the coordinator,
which runs the worker supervisor) gets SIGTERM first and is reaped, and
only then is anything it left behind signalled -- a worker stopped first
would be respawned by the still-running supervisor.  Anything that
ignores SIGTERM past the timeout gets SIGKILL.

Every process stays in the benchmark's process group, so a signal to the
group reaches them all.  The benchmark is the child subreaper of its
tree: a process whose parent exits is re-parented to it rather than to
init, so :meth:`Fleet.close` can find, stop and reap everything that is
left, down to the last orphan.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import re
import signal
import subprocess
import time
from pathlib import Path
from typing import Optional

#: Seconds a process may take to announce its port.
ANNOUNCE_TIMEOUT = 90.0
#: Seconds a SIGTERM drain may take before SIGKILL.
STOP_TIMEOUT = 10.0
#: Seconds a stuck process gets to write its stacks before SIGKILL.
ABORT_DUMP_SECONDS = 1.0
#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (``PR_SET_CHILD_SUBREAPER``, see prctl(2)).
_PR_SET_CHILD_SUBREAPER = 36

_ANNOUNCE = re.compile(rb"listening tcp=([^\s:]+):(\d+)")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to measuring a failure)."""


def _stat_fields(pid: int) -> Optional[list[str]]:
    """Fields 3.. of ``/proc/<pid>/stat`` (see proc(5)), or None if gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return stat.rpartition(")")[2].split()


def start_time(pid: int) -> Optional[int]:
    """When ``pid`` started, in clock ticks since boot; with the pid it
    names one process even after the pid is reused."""
    fields = _stat_fields(pid)
    return None if fields is None else int(fields[19])


def pid_alive(pid: int, started: Optional[int] = None) -> bool:
    """True while ``pid`` exists, is not a zombie and, if ``started`` is
    given, is still the process that started then."""
    fields = _stat_fields(pid)
    if fields is None or fields[0] in ("Z", "X"):
        return False
    return started is None or int(fields[19]) == started


def become_subreaper() -> bool:
    """Make this process the reaper of its orphaned descendants; False
    where the kernel does not offer it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children(pid: int) -> list[int]:
    """The direct children of ``pid``, zombies included."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except (FileNotFoundError, ProcessLookupError):
        return found
    for task in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        found.extend(int(child) for child in text.split())
    return found


def reap_zombies(keep: set[int]) -> None:
    """Reap this process's exited children, except those in ``keep`` (the
    ones a ``Popen`` still has to wait for)."""
    for child in children(os.getpid()):
        fields = _stat_fields(child)
        if child not in keep and fields is not None and fields[0] == "Z":
            with contextlib.suppress(ChildProcessError):
                os.waitpid(child, 0)


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, parents before children.

    Covers what a server forks behind its own pid: a coordinator's
    workers, and the process pool and resource tracker of the program's
    process executor.
    """
    tree = [pid]
    for parent in tree:  # grows while it is walked
        tree.extend(children(parent))
    return tree


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB; 0 once
    it has exited."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
    return 0.0 if match is None else int(match.group(1)) / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` and its reaped children; 0 once
    it has exited.

    A live child's time is its own, not yet its parent's, so summed over a
    process tree every CPU second counts once.  CPU time only accrues while
    a process runs, so unlike wall-clock latency it does not grow when the
    hypervisor steals the CPU.
    """
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    ticks = sum(int(field) for field in fields[11:15])  # utime..cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def describe(pid: int) -> dict:
    """What the result file records about one process of a server tree."""
    try:
        argv = Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")
    except (FileNotFoundError, ProcessLookupError):
        argv = []
    fields = _stat_fields(pid)
    return {"pid": pid, "ppid": int(fields[1]) if fields else None,
            "argv": " ".join(arg.decode("utf-8", "replace")
                             for arg in argv[1:7] if arg)[:120],
            "cpu_s": cpu_seconds(pid), "peak_rss_mb": peak_rss_mb(pid)}


class Spawned:
    """One ``repro`` subprocess with its output captured to a log file."""

    def __init__(self, name: str, argv: list[str], env: dict,
                 workdir: Path) -> None:
        self.name = name
        self.log = workdir / f"{name}.log"
        self._log_file = open(self.log, "wb")
        try:
            self.process = subprocess.Popen(
                argv, stdout=self._log_file, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=env)
        except OSError:
            self._log_file.close()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def tail(self, lines: int = 12) -> str:
        text = self.log.read_bytes().decode("utf-8", "replace")
        return "\n".join(text.splitlines()[-lines:])

    def wait_port(self) -> int:
        """Block until the process prints its ``listening tcp=`` line."""
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT
        while time.monotonic() < deadline:
            match = _ANNOUNCE.search(self.log.read_bytes())
            if match:
                return int(match.group(2))
            if self.process.poll() is not None:
                raise BenchError(f"{self.name} exited with code "
                                 f"{self.process.returncode}:\n{self.tail()}")
            time.sleep(0.005)
        raise BenchError(f"{self.name} did not announce a port within "
                         f"{ANNOUNCE_TIMEOUT:.0f}s:\n{self.tail()}")

    def stop(self, timeout: float = STOP_TIMEOUT) -> None:
        """SIGTERM, reap; SIGKILL the whole tree after ``timeout``."""
        if self.process.poll() is None:
            try:
                self.process.send_signal(signal.SIGTERM)
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill_tree()
        self.process.wait()
        self._log_file.close()

    def kill_tree(self) -> None:
        """Kill the process and each descendant it had; the orphans are
        re-parented to the benchmark, which reaps them.

        Each process first gets SIGABRT, on which Python's fault handler
        (enabled by the benchmark's environment) writes every thread's
        stack to the log -- a record of where a stuck server hung -- and
        then SIGKILL.
        """
        tree = [(pid, start_time(pid)) for pid in process_tree(self.pid)]
        for sig, pause in ((signal.SIGABRT, ABORT_DUMP_SECONDS),
                           (signal.SIGKILL, 0.0)):
            for pid, started in tree:
                if pid_alive(pid, started):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, sig)
            time.sleep(pause)
        self.process.wait()


class Fleet:
    """Every process one benchmark run started, torn down as a unit.

    Besides the processes it spawned, the fleet remembers every descendant
    it has seen under them, by pid and start time.  Stopping a spawned
    process leaves its descendants to it: a server shuts its process pool
    down, a coordinator (the worker supervisor) stops its workers.  A
    descendant still alive ``GRACE`` seconds after its root was reaped is a
    leftover: it is killed and reported.
    """

    #: Seconds a descendant may outlive its reaped root.
    GRACE = 5.0

    def __init__(self, env: dict, workdir: Path) -> None:
        become_subreaper()
        self._env = env
        self._workdir = workdir
        self._spawned: list[Spawned] = []
        #: (pid, start time) -> the spawned process it was found under.
        self._seen: dict[tuple[int, int], Spawned] = {}
        #: Pids that outlived their root and had to be killed.
        self.leftovers: list[int] = []

    def spawn(self, name: str, argv: list[str]) -> Spawned:
        process = Spawned(name, argv, self._env, self._workdir)
        self._spawned.append(process)
        return process

    def tree(self, process: Spawned) -> list[int]:
        """The live process tree under ``process``, remembered for the
        leftover audit."""
        pids = process_tree(process.pid)
        for pid in pids[1:]:
            started = start_time(pid)
            if started is not None:
                self._seen.setdefault((pid, started), process)
        return pids

    def stop(self, process: Spawned, timeout: float = STOP_TIMEOUT) -> None:
        """Stop one process, then audit the descendants it had."""
        self.tree(process)
        process.stop(timeout)
        mine = [key for key, owner in self._seen.items() if owner is process]
        deadline = time.monotonic() + min(self.GRACE, timeout)
        for pid, started in mine:
            del self._seen[(pid, started)]
            while (pid_alive(pid, started)
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            if pid_alive(pid, started):
                self.leftovers.append(pid)
                _stop_foreign(pid, started, timeout)
        self._spawned.remove(process)
        reap_zombies({spawned.pid for spawned in self._spawned})

    def close(self, timeout: float = STOP_TIMEOUT) -> list[int]:
        """Stop everything, then stop and reap every child the benchmark
        process still has -- an orphan of a server tree, or anything the
        benchmark process forked itself; returns the pids that had to be
        killed because they outlived their root."""
        for process in list(self._spawned):
            self.stop(process, timeout)
        while True:
            left = children(os.getpid())
            if not left:
                return self.leftovers
            for pid in left:
                started = start_time(pid)
                if pid_alive(pid, started):
                    self.leftovers.append(pid)
                    _stop_foreign(pid, started, timeout)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _stop_foreign(pid: int, started: Optional[int],
                  timeout: float = STOP_TIMEOUT) -> None:
    """SIGTERM a process we did not start, then SIGKILL it past ``timeout``."""
    for sig, wait in ((signal.SIGTERM, timeout), (signal.SIGKILL, 5.0)):
        if not pid_alive(pid, started):
            return
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + wait
        while pid_alive(pid, started) and time.monotonic() < deadline:
            time.sleep(0.02)


def wait_healthy(host: str, port: int, workers: Optional[int] = None,
                 timeout: float = ANNOUNCE_TIMEOUT) -> dict:
    """Poll ``health`` (and, for a coordinator, ``cluster``) until ready.

    Returns the last ``cluster`` payload for a coordinator, else ``{}``.
    """
    from repro.client import ClientError, ReproClient

    deadline = time.monotonic() + timeout
    last_error = "no attempt"
    while time.monotonic() < deadline:
        try:
            with ReproClient(host, port, timeout=10.0) as client:
                if client.health().get("status") != "ok":
                    last_error = "status not ok"
                elif workers is None:
                    return {}
                else:
                    status = client.cluster()
                    healthy = status["coordinator"]["workers_healthy"]
                    if healthy == workers:
                        return status
                    last_error = f"{healthy}/{workers} workers healthy"
        except ClientError as error:
            last_error = str(error)
        time.sleep(0.01)
    raise BenchError(f"server on port {port} not healthy: {last_error}")
