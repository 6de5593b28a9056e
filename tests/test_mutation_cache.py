"""Stale-cache detector: delta-driven invalidation never serves stale state.

The service keeps three mutation-sensitive caches: plan/candidate caches
(keyed by per-table versions), the frontier cache (epoch-checked), and
the certainty result cache with recorded lineage provenance (evicted
when a mutation deletes rows whose nulls the cached lineage mentions).
These property tests mutate *exactly* the rows a cached result's lineage
references and assert that

* the next identical query reflects the new data -- its answers equal a
  fresh service's answers on the same snapshot content, bit for bit;
* a query whose lineage does not touch the mutated rows stays warm
  (served from the result cache, no new estimate computed);
* the stats counters account for every eviction and retention;
* an alternate-layout view built by a request that raced a write is
  never served to the requests after it.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.values import NumNull
from repro.service.service import AnnotationService, ServiceOptions


def _schema() -> DatabaseSchema:
    return DatabaseSchema.of(RelationSchema.of("t", key="base", x="num"),
                             RelationSchema.of("u", key="base", y="num"))


def _database(backend: str = "columnar") -> Database:
    # One null per table, so each query's lineage references exactly one
    # table's rows and cross-eviction is observable.
    return Database.from_dict(_schema(), {
        "t": [("a", 1.0), ("b", NumNull("n0")), ("c", 4.0)],
        "u": [("a", NumNull("n1")), ("b", 6.0)],
    }, backend=backend)


def _service(database: Database) -> AnnotationService:
    return AnnotationService(database, ServiceOptions(seed=7, epsilon=0.2))


Q_T = "SELECT t.key FROM t WHERE t.x > 2"
Q_U = "SELECT u.key FROM u WHERE u.y > 3"


def _snapshot(answers):
    return [(answer.values, answer.certainty.value, answer.witnesses,
             answer.lineage_digest) for answer in answers]


class TestDeltaDrivenInvalidation:
    @pytest.mark.parametrize("backend", ["rows", "columnar"])
    def test_mutating_referenced_rows_evicts_only_their_results(self, backend):
        service = _service(_database(backend))
        service.submit(Q_T)
        service.submit(Q_U)
        computed_before = service.stats().estimates_computed

        # Delete the row whose null Q_T's cached lineage references.
        service.mutate("DELETE FROM t WHERE key = 'b'")
        stats = service.stats()
        assert stats.results_evicted == 1
        assert stats.results_retained >= 1

        # Q_U's lineage references only u rows: served warm, no recompute.
        service.submit(Q_U)
        assert service.stats().estimates_computed == computed_before

    def test_next_query_never_replays_stale_certainty(self):
        service = _service(_database())
        before = _snapshot(service.submit(Q_T).answers)
        assert any(0.0 < certainty < 1.0
                   for _, certainty, _, _ in before), \
            "the case must have an uncertain answer to make staleness visible"

        # Pin down the null: the certainly-uncertain row becomes concrete.
        service.mutate("UPDATE t SET x = 9 WHERE key = 'b'")
        after = service.submit(Q_T).answers
        fresh = _service(_rebuild(service)).submit(Q_T)
        assert _snapshot(after) == _snapshot(fresh.answers)
        assert all(answer.certainty.value == 1.0 for answer in after), \
            "every surviving answer is now certain; stale cache would not be"

    def test_randomised_mutations_match_fresh_service(self):
        """Property form: after any script, warm service == cold service."""
        rng = np.random.default_rng(42)
        statements = (
            "INSERT INTO t VALUES ('d', 0.5)",
            "INSERT INTO t VALUES ('e', NULL)",
            "DELETE FROM t WHERE key = 'b'",
            "UPDATE t SET x = x + 1 WHERE key = 'a'",
            "DELETE FROM u WHERE y > 3",
            "UPDATE u SET y = NULL WHERE key = 'b'",
        )
        for trial in range(8):
            service = _service(_database())
            service.submit(Q_T)
            service.submit(Q_U)
            script = rng.choice(len(statements), size=3, replace=False)
            for index in script:
                try:
                    service.mutate(statements[int(index)])
                except ValueError:
                    continue  # conflicts depend on order; skipping is fine
            for sql in (Q_T, Q_U):
                warm = service.submit(sql).answers
                cold = _service(_rebuild(service)).submit(sql).answers
                assert _snapshot(warm) == _snapshot(cold), \
                    f"trial {trial}: {sql!r} after {list(script)}"

    def test_untouched_table_plans_stay_warm(self):
        service = _service(_database())
        service.submit(Q_T)
        service.submit(Q_U)
        candidates = {c.name: c for c in service.stats().caches}["candidates"]
        misses_before = candidates.misses

        service.mutate("INSERT INTO t VALUES ('z', 7)")
        service.submit(Q_U)  # untouched table: plan cache key unchanged
        candidates = {c.name: c for c in service.stats().caches}["candidates"]
        assert candidates.misses == misses_before
        service.submit(Q_T)  # touched table: version in the key moved
        candidates = {c.name: c for c in service.stats().caches}["candidates"]
        assert candidates.misses == misses_before + 1

    def test_frontier_cache_counters_track_eligibility(self):
        service = _service(_database())
        service.submit(Q_T)  # miss: cold
        service.submit(Q_T)  # warm result cache, but same snapshot
        service.mutate("INSERT INTO t VALUES ('z', 7)")
        service.submit(Q_T)  # hit: append-only, delta-maintained
        service.mutate("DELETE FROM t WHERE key = 'z'")
        service.submit(Q_T)  # miss: epoch moved past the cached entry
        frontier = {c.name: c for c in service.stats().caches}["frontier"]
        assert frontier.hits >= 1
        assert frontier.misses >= 2

    def test_invalidate_clears_provenance_and_frontier(self):
        service = _service(_database())
        service.submit(Q_T)
        service.invalidate()
        stats = service.stats()
        assert stats.results_retained == 0
        frontier = {c.name: c for c in stats.caches}["frontier"]
        assert frontier.size == 0


class _WriteOnViewLookup:
    """Stands in for the service's views lock.  The first time a request
    looks up an alternate-layout view, a write commits just before the
    lock is taken -- after the request pinned its snapshot."""

    def __init__(self, inner, write) -> None:
        self.inner = inner
        self.write = write
        self.fired = False

    def __enter__(self):
        if (not self.fired
                and sys._getframe(1).f_code.co_name == "_database_for"):
            self.fired = True
            self.write()
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


class TestLayoutViewsFollowTheSnapshot:
    def test_view_built_across_a_write_is_not_served_afterwards(
            self, monkeypatch):
        from repro.datagen.experiments import (
            ExperimentScale,
            generate_sales_database,
        )

        database = generate_sales_database(
            ExperimentScale(products=20, orders=20, markets=4), rng=2)
        service = AnnotationService(
            database, ServiceOptions(seed=3, epsilon=0.2, backend="rows"))
        # The planner routes every request to a layout the base is not in.
        planner = service._get_planner()
        monkeypatch.setattr(planner, "plan_enumeration",
                            lambda cardinalities: ("columnar", 2))
        insert = "INSERT INTO Products VALUES ('p9001', 'seg1', 39.0, 0.5)"
        service._views_lock = _WriteOnViewLookup(
            service._views_lock, lambda: service.mutate(insert))
        sql = "SELECT P.id FROM Products P WHERE P.id = 'p9001'"
        request = dict(planner="auto", jobs=1, executor="thread", fusion=0)

        racing = service.submit(sql, **request)
        assert service._views_lock.fired
        assert racing.answers == (), "the racing request read its snapshot"
        after = service.submit(sql, **request)
        assert [answer.values for answer in after.answers] == [("p9001",)]


def _rebuild(service: AnnotationService) -> Database:
    """The service's current snapshot content on a fresh, cacheless chain."""
    database = service.database
    return Database.from_dict(
        database.schema,
        {name: database.relation(name).tuples()
         for name in database.relation_names()},
        backend=database.backend)
