"""The reference oracle every wire answer is checked against.

An in-process :class:`~repro.service.AnnotationService` on the simplest
configuration the program has -- the row-at-a-time ``rows`` backend, the
``manual`` planner, no kernel fusion, one job -- loaded from the same
data files and fed the same writes in the same order.  Served answers
must equal its answers bit for bit: the same rows, in the same order,
with certainty values whose IEEE-754 bits agree.

The oracle runs after the measured window, never inside it.  Ops come
in one segment per server the run started; each segment starts again
from the generated data.  The reads are split over ``PROCESSES`` worker
processes (this file run as a script); each replays every write, which
is cheap, so that it answers its share of the reads at the right data
version.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

#: The reference configuration.
ORACLE_OPTIONS = {"backend": "rows", "planner": "manual", "fusion": 0,
                  "jobs": 1}
#: Oracle worker processes (the host's core count).
PROCESSES = 2
#: Seconds the oracle workers may take.
TIMEOUT = 150.0


class OracleError(RuntimeError):
    """An oracle worker failed; no answer could be checked."""


def fingerprint(answers) -> tuple:
    """What must match bit for bit: wire-encoded values, certainty bits."""
    from repro.server.protocol import encode_value

    return tuple((tuple(encode_value(value) for value in answer.values),
                  float(answer.certainty.value).hex())
                 for answer in answers)


def _outcome(result) -> tuple:
    return (result.operation, result.table, result.inserted, result.deleted,
            result.data_version)


def reference(data_dir: str, seed: int, sequence: list, share: int,
              shares: int) -> dict:
    """Expected results for the ops of ``sequence`` whose index is
    ``share`` modulo ``shares``; a ``reset`` entry starts a new segment."""
    from repro.datagen.experiments import sales_schema
    from repro.relational.csv_io import load_database
    from repro.service import AnnotationService, ServiceOptions

    database = load_database(sales_schema(), Path(data_dir))
    expected = {}
    for index, kind, request in sequence:
        mine = index % shares == share
        if kind == "reset":
            service = AnnotationService(
                database, ServiceOptions(seed=seed, **ORACLE_OPTIONS))
            version = 0
            answers: dict[tuple, tuple] = {}
        elif kind == "write":
            outcome = service.mutate(request)
            version = outcome.data_version
            if mine:
                expected[index] = _outcome(outcome)
        elif mine:
            key = (version, request)
            if key not in answers:
                response = service.submit(request.sql, **request.options())
                answers[key] = fingerprint(response.answers)
            expected[index] = answers[key]
    return expected


def check(segments, data_dir: Path, seed: int,
          workdir: Path) -> list[str]:
    """Compare answered ops with the oracle, one segment of ops (in issue
    order) per server the run started.

    Returns one message per mismatch.  Ops that already failed on the wire
    are counted as failures elsewhere and left out here (a failed write
    was not applied by the server, so the oracle does not apply it either).
    """
    sequence = []
    answered = []
    for ops in segments:
        sequence.append((len(sequence), "reset", None))
        for op in ops:
            if op.error is None:
                answered.append((len(sequence), op))
                sequence.append((len(sequence), op.kind, op.request))
    task = workdir / "oracle-task.pickle"
    task.write_bytes(pickle.dumps((str(data_dir), seed, sequence)))
    outputs = [workdir / f"oracle-{share}.pickle"
               for share in range(PROCESSES)]
    workers = [subprocess.Popen([sys.executable, __file__, str(task),
                                 str(share), str(PROCESSES), str(output)],
                                stdout=subprocess.DEVNULL)
               for share, output in enumerate(outputs)]
    try:
        for worker in workers:
            if worker.wait(TIMEOUT) != 0:
                raise OracleError(f"oracle worker exited with "
                                  f"{worker.returncode}")
    except subprocess.TimeoutExpired:
        raise OracleError(f"oracle took longer than {TIMEOUT:.0f}s")
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
    expected = {}
    for output in outputs:
        expected.update(pickle.loads(output.read_bytes()))
    mismatches = []
    for index, op in answered:
        served = (_outcome(op.result) if op.kind == "write"
                  else fingerprint(op.result.answers))
        if served != expected[index]:
            mismatches.append(
                f"{op.kind} step {op.step}: {str(op.request)[:120]!r} "
                f"served {str(served)[:160]} "
                f"expected {str(expected[index])[:160]}")
    return mismatches


if __name__ == "__main__":
    # A worker: ``oracle.py TASK SHARE SHARES OUTPUT``; both files are
    # written by ``check`` in this run's scratch directory.
    task_path, share_text, shares_text, output_path = sys.argv[1:]
    data, seed_value, ops_sequence = pickle.loads(
        Path(task_path).read_bytes())
    Path(output_path).write_bytes(pickle.dumps(reference(
        data, seed_value, ops_sequence, int(share_text), int(shares_text))))
