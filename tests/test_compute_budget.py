"""The BLAS thread budget of serving processes.

``repro server`` runs BLAS on one thread unless the operator sized the
pool through the environment, and reports the count in effect on
``/healthz`` and in the ``stats`` payload.  Both cases are checked on a
real server subprocess, since the pin is process state set at start-up.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.client import ReproClient
from repro.service import available_cpus, blas_threads

SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS loaded: the count is unknown")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("budget") / "data"
    assert main(["generate", "--out", str(out), "--products", "20",
                 "--orders", "20", "--markets", "4", "--seed", "3"]) == 0
    return str(out)


def _serve_and_probe(data_dir: str, **env_overrides: str) -> tuple[dict, dict]:
    """Start ``repro server``, return its ``/healthz`` and TCP ``stats``."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(env_overrides)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "server", "--data", data_dir,
         "--port", "0", "--epsilon", "0.2", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        announce = process.stdout.readline().strip()
        assert announce.startswith("listening tcp="), announce
        addresses = dict(part.split("=") for part in announce.split()[1:])
        tcp_port = int(addresses["tcp"].rsplit(":", 1)[1])
        http = "http://" + addresses["http"]
        health = json.loads(urllib.request.urlopen(http + "/healthz",
                                                   timeout=30).read())
        with ReproClient("127.0.0.1", tcp_port) as client:
            stats = client.stats()
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()
        process.stderr.close()
    return health, stats


def test_server_runs_blas_on_one_thread(data_dir):
    health, stats = _serve_and_probe(data_dir)
    assert health["blas_threads"] == 1
    assert stats["blas_threads"] == 1


@pytest.mark.skipif(available_cpus() < 2,
                    reason="OpenBLAS caps its pool at the CPU count")
def test_operator_environment_wins(data_dir):
    health, stats = _serve_and_probe(data_dir, OPENBLAS_NUM_THREADS="2")
    assert health["blas_threads"] == 2
    assert stats["blas_threads"] == 2
