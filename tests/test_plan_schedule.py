"""Schedules are built once per plan, not once per request.

A plan-cache entry holds the candidates, their canonical-lineage schedule
and each group's lineage null names.  These tests count calls to the
canonicaliser to show that a request on a cached plan does no
canonicalisation, that a write moving a table's version rebuilds the
schedule, and that plans of different versions share one canonical object
per lineage.
"""

from __future__ import annotations

import pytest

import repro.service.scheduler as scheduler
import repro.service.service as service_module
from repro.datagen.experiments import ExperimentScale, generate_sales_database
from repro.service import AnnotationService, ServiceOptions, build_plan

QUERY = "SELECT P.id FROM Products P WHERE P.rrp * (1 - P.dis) <= 45"


@pytest.fixture
def canonicalise_calls(monkeypatch) -> list:
    """Every lineage the scheduler canonicalises, in call order."""
    calls: list = []
    original = scheduler.canonicalise_lineage

    def counting(lineage):
        calls.append(lineage)
        return original(lineage)

    monkeypatch.setattr(scheduler, "canonicalise_lineage", counting)
    return calls


@pytest.fixture
def built_plans(monkeypatch) -> list:
    """Every plan the service builds, in build order."""
    plans: list = []

    def recording(candidates):
        plan = build_plan(candidates)
        plans.append(plan)
        return plan

    monkeypatch.setattr(service_module, "build_plan", recording)
    return plans


def _service(**overrides) -> AnnotationService:
    database = generate_sales_database(
        ExperimentScale(products=30, orders=30, markets=5, null_rate=0.3),
        rng=4)
    options = dict(epsilon=0.2, seed=9, backend="columnar")
    options.update(overrides)
    return AnnotationService(database, ServiceOptions(**options))


def _snapshot(answers):
    return [(answer.values, answer.certainty.value, answer.lineage_digest)
            for answer in answers]


def test_cached_plan_request_does_not_canonicalise(canonicalise_calls):
    service = _service()
    first = service.submit(QUERY)
    assert canonicalise_calls, "the cold request must build a schedule"
    del canonicalise_calls[:]

    second = service.submit(QUERY, seed=10)  # plan hit, certainty misses
    assert canonicalise_calls == []
    assert second.stats.groups == first.stats.groups
    assert second.stats.groups_computed == second.stats.groups


def test_independent_estimates_reuse_the_plans_canonicals(canonicalise_calls):
    service = _service()
    shared = service.submit(QUERY)
    del canonicalise_calls[:]
    independent = service.submit(QUERY, reuse_results=False)
    assert canonicalise_calls == []
    assert independent.stats.groups == len(independent.answers)
    assert independent.stats.groups >= shared.stats.groups
    # Same lineages, so the same digests answer for the same tuples.
    assert [a.lineage_digest for a in independent.answers] == \
        [a.lineage_digest for a in shared.answers]


def test_write_bumping_a_table_version_rebuilds_the_schedule(
        canonicalise_calls, built_plans):
    service = _service()
    service.submit(QUERY)
    service.submit(QUERY)
    assert len(built_plans) == 1

    service.mutate("INSERT INTO Products VALUES ('p9001', 'seg1', 39.0, 0.5)")
    del canonicalise_calls[:]
    after = service.submit(QUERY)
    assert len(built_plans) == 2
    assert canonicalise_calls, "the new version's plan must be scheduled"
    assert ("p9001",) in [answer.values for answer in after.answers]


def test_plans_across_versions_share_canonical_objects(built_plans):
    service = _service()
    service.submit(QUERY)
    service.mutate("INSERT INTO Products VALUES ('p9001', 'seg1', 39.0, 0.5)")
    service.submit(QUERY)
    old, new = built_plans
    old_by_digest = {group.canonical.digest: group.canonical
                     for group in old.schedule}
    shared = [group.canonical for group in new.schedule
              if group.canonical.digest in old_by_digest]
    assert shared, "the versions must have lineages in common"
    assert all(canonical is old_by_digest[canonical.digest]
               for canonical in shared)


def test_plan_null_names_cover_each_groups_lineages(built_plans):
    service = _service()
    service.submit(QUERY)
    (plan,) = built_plans
    assert len(plan.null_names) == len(plan.schedule)
    for group, names in zip(plan.schedule, plan.null_names):
        expected = {lineage.null_by_variable[variable].name
                    for lineage in (plan.candidates[m].lineage
                                    for m in group.members)
                    for variable in lineage.relevant_variables}
        assert names == expected


def test_caller_supplied_candidates_match_the_planned_path():
    from repro.engine.candidates import enumerate_candidates
    from repro.engine.sql.parser import parse_sql

    planned = _service()
    reference = planned.submit(QUERY)
    candidates = list(enumerate_candidates(parse_sql(QUERY), planned.database))
    supplied = _service().submit(QUERY, candidates=candidates)
    assert _snapshot(supplied.answers) == _snapshot(reference.answers)
