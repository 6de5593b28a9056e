"""Stale-cache detector: delta-driven invalidation never serves stale state.

The service keeps three mutation-sensitive caches: plan/candidate caches
(keyed by per-table versions), the frontier cache (remapped onto every
new version at commit), and
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
  never served to the requests after it, and a frontier stored by such
  a request never replaces the one the write carried forward.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.engine.candidates import enumerate_candidates
from repro.engine.mutate import execute_mutation
from repro.engine.sql.parser import parse_sql, parse_statement
from repro.engine.vectorized import FrontierCache
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
        service.submit(Q_T)  # warm result cache, same snapshot: no lookup
        service.mutate("INSERT INTO t VALUES ('z', 7)")
        service.submit(Q_T)  # hit: the tail row is delta-joined
        service.mutate("DELETE FROM t WHERE key = 'z'")
        service.submit(Q_T)  # hit: the commit remapped the entry
        service.mutate("UPDATE t SET x = 5 WHERE key = 'a'")
        service.submit(Q_T)  # hit: remapped, the new row joins as tail
        assert _frontier_counts(service) == (3, 1)

        # Equal content on another version chain never matches.
        assert service._frontier_cache.lookup(
            parse_sql(Q_T), _rebuild(service)) is None
        assert _frontier_counts(service) == (3, 2)
        service.invalidate()
        service.submit(Q_T)  # miss: invalidate() dropped every entry
        assert _frontier_counts(service) == (3, 3)

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


class _WriteBeforeStore:
    """Stands in for the frontier cache's ``store``.  The first time a
    request stores a frontier, a write commits just before -- after the
    request pinned its snapshot and computed the frontier on it."""

    def __init__(self, store, write) -> None:
        self.store = store
        self.write = write
        self.fired = False

    def __call__(self, *args, **kwargs):
        if not self.fired:
            self.fired = True
            self.write()
        return self.store(*args, **kwargs)


class TestStaleReaderKeepsTheAdvance:
    def test_store_from_an_older_version_does_not_replace_the_advance(
            self, monkeypatch):
        service = _service(_database())
        frontier_cache = service._frontier_cache
        before = _snapshot(service.submit(Q_T).answers)  # stores at v0
        racer = _WriteBeforeStore(
            frontier_cache.store,
            lambda: service.mutate("INSERT INTO t VALUES ('z', 7)"))
        monkeypatch.setattr(frontier_cache, "store", racer)

        # A new plan key on the same select: enumerates at v0, and the
        # write's advance runs between its lookup and its store.
        racing = service.submit(Q_T, limit=10)
        assert racer.fired
        assert _snapshot(racing.answers) == before, \
            "the racing request read its snapshot"
        entry = frontier_cache._cache.peek(parse_sql(Q_T))
        assert entry.data_version == service.database.data_version == 1

        after = service.submit(Q_T)  # hit: the advanced entry survived
        assert _frontier_counts(service) == (2, 1)
        fresh = _service(_rebuild(service)).submit(Q_T)
        assert _snapshot(after.answers) == _snapshot(fresh.answers)


    def test_concurrent_readers_never_move_an_entry_back(self):
        """Readers on whatever snapshot is current race a writer that
        advances the cache at every commit: every answer equals a cold
        enumeration of the reader's snapshot, and the cached entry's
        version never goes back."""
        select = parse_sql("SELECT t.key, u.y FROM t, u "
                           "WHERE t.key = u.key AND t.x + u.y > 5")
        frontier_cache = FrontierCache()
        versions: list[int] = []
        put = frontier_cache._cache.put

        def recording_put(key, entry):
            # Both store() and advance() call put under the cache's lock,
            # so the recorded order is the order the entries landed in.
            versions.append(entry.data_version)
            put(key, entry)

        frontier_cache._cache.put = recording_put
        statements = []
        for index in range(12):
            statements.append(f"INSERT INTO t VALUES ('a', {index + 100})")
            statements.append(f"UPDATE t SET x = {index + 50} WHERE x = "
                              f"{index + 100}")
            statements.append(f"DELETE FROM t WHERE x = {index + 50}")
        published = [_database()]
        # Seal the buffered rows before sharing, as the service does when
        # it pins a snapshot: the first read flushes them, unlocked.
        for relation in published[0]:
            relation.tuples()
        done = threading.Event()
        mismatches: list[int] = []

        def writer() -> None:
            chain = published[0]
            for statement in statements:
                parent = chain
                chain, deltas, _ = execute_mutation(
                    parse_statement(statement), parent)
                frontier_cache.advance(parent, chain, deltas)
                published[0] = chain

        def reader() -> None:
            while not done.is_set():
                snapshot = published[0]
                warm = enumerate_candidates(select, snapshot,
                                            frontier_cache=frontier_cache)
                cold = enumerate_candidates(select,
                                            _copy_content(snapshot))
                if [(c.values, c.witnesses, c.lineage.formula)
                        for c in warm] != \
                        [(c.values, c.witnesses, c.lineage.formula)
                         for c in cold]:
                    mismatches.append(snapshot.data_version)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in readers:
                thread.start()
            writing = threading.Thread(target=writer)
            writing.start()
            writing.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not writing.is_alive()
        assert not any(thread.is_alive() for thread in readers)
        assert published[0].data_version == len(statements)
        assert mismatches == []
        assert versions == sorted(versions)


def _frontier_counts(service: AnnotationService) -> tuple[int, int]:
    frontier = {c.name: c for c in service.stats().caches}["frontier"]
    return frontier.hits, frontier.misses


def _rebuild(service: AnnotationService) -> Database:
    """The service's current snapshot content on a fresh, cacheless chain."""
    return _copy_content(service.database)


def _copy_content(database: Database) -> Database:
    """``database``'s content on a fresh, cacheless chain."""
    return Database.from_dict(
        database.schema,
        {name: database.relation(name).tuples()
         for name in database.relation_names()},
        backend=database.backend)
