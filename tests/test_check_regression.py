"""The perf-regression gate rejects bench data from failing runs.

A headline entry with a non-finite number or protocol errors records a
run that did not serve what it measured.  In a fresh file it fails the
gate; in a baseline it is reported as not baseline-eligible and never
becomes a floor.  ``BENCH_PR9.json``'s ``cluster_headline`` (``NaN``
latencies, 192 protocol errors) is the committed instance of the second
case.  The bench harness also records the host it ran on.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import check_regression  # noqa: E402
from check_regression import compare, invalid_reasons  # noqa: E402


def _entry(speedup: float, **extra) -> dict:
    return {"config": {"seed": 1}, "speedup": speedup, **extra}


def _bench(**entries) -> dict:
    return {"benchmark": "unit", **entries}


class TestFreshRunValidity:
    def test_valid_run_passes(self):
        fresh = _bench(headline=_entry(10.0, protocol_errors=0))
        assert compare(fresh, _bench(headline=_entry(10.0)), 0.2) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_fails_the_gate(self, bad):
        fresh = _bench(headline=_entry(10.0),
                       cluster_headline=_entry(
                           1.0, curve=[{"workers": 1, "p50_ms": bad}]))
        baseline = _bench(headline=_entry(10.0),
                          cluster_headline=_entry(1.0))
        failures = compare(fresh, baseline, 0.2)
        assert len(failures) == 1
        assert failures[0].startswith("cluster_headline: invalid bench data")
        assert "curve[0].p50_ms" in failures[0]

    def test_protocol_errors_fail_the_gate(self):
        fresh = _bench(headline=_entry(10.0),
                       server_headline=_entry(2.0, protocol_errors=3))
        failures = compare(fresh, _bench(headline=_entry(10.0)), 0.2)
        assert failures == ["server_headline: invalid bench data in the "
                            "fresh run (protocol_errors is 3)"]

    def test_headline_without_speedup_is_validated_too(self):
        fresh = _bench(headline=_entry(10.0),
                       obs_headline={"overhead_ratio": math.nan})
        failures = compare(fresh, _bench(headline=_entry(10.0)), 0.2)
        assert [failure.split(":")[0] for failure in failures] == \
            ["obs_headline"]


class TestBaselineEligibility:
    def test_invalid_baseline_entry_is_never_a_floor(self, capsys):
        # A 100x floor from a failing run would reject the honest 1x.
        baseline = _bench(headline=_entry(10.0),
                          cluster_headline=_entry(100.0, protocol_errors=5))
        fresh = _bench(headline=_entry(10.0), cluster_headline=_entry(1.0))
        assert compare(fresh, baseline, 0.2) == []
        out = capsys.readouterr().out
        assert "cluster_headline     not baseline-eligible: " \
            "protocol_errors is 5" in out
        assert "fresh     1.00x" not in out

    def test_only_invalid_baselines_leave_nothing_to_vouch_for(self):
        baseline = _bench(headline=_entry(math.nan))
        failures = compare(_bench(headline=_entry(10.0)), baseline, 0.2)
        assert failures and "no shared headline" in failures[0]

    def test_committed_pr9_cluster_headline_is_not_baseline_eligible(
            self, capsys):
        baseline = json.loads((ROOT / "BENCH_PR9.json").read_text())
        assert invalid_reasons(baseline["cluster_headline"])
        fresh = json.loads((ROOT / "BENCH_PR10.json").read_text())
        assert compare(fresh, baseline, 0.2) == []
        out = capsys.readouterr().out
        assert "cluster_headline     not baseline-eligible" in out
        assert all(not line.startswith("cluster_headline") or
                   "not baseline-eligible" in line
                   for line in out.splitlines())

    def test_latest_committed_baseline_is_valid(self):
        baseline = json.loads(check_regression.latest_baseline().read_text())
        assert {name: invalid_reasons(entry) for name, entry
                in check_regression.headlines(baseline).items()
                if invalid_reasons(entry)} == {}


def test_bench_host_record_reports_blas_threads():
    from run_bench import host_record

    from repro.service import blas_threads

    host = host_record()
    assert "blas_threads" in host
    assert host["blas_threads"] == blas_threads()
    assert host["blas_threads"] is None or host["blas_threads"] >= 1
    assert host["cpu_count"] >= 1
