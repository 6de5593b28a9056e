"""Random mutation scripts for the versioned differential harness.

The live data plane's correctness claim is *differential*: replaying a
script of INSERT/DELETE/UPDATE statements through the incremental MVCC
path must be observationally identical -- candidates, witness order,
lineage digests, certainties -- to rebuilding the database from scratch
at every version.  This module generates the scripts: random statements
over a generated schema, drawn from the same value pools as the data so
predicates actually match rows and inserts actually join.

Statements are plain SQL text (the harness feeds them through
:func:`repro.engine.sql.parse_statement` / the service), so the same
scripts also exercise the parser and the wire path.  All randomness
flows from the caller's generator: a fixed seed replays the exact same
script, which is what makes failures reproducible one case at a time.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.relational.schema import DatabaseSchema, RelationSchema

__all__ = ["random_mutation_script", "random_statement"]

#: How often a generated literal is NULL (a fresh marked null).
_NULL_RATE = 0.15

_COMPARATORS = ("=", "<>", "<", "<=", ">", ">=")


def _numeric_literal(rng: np.random.Generator) -> str:
    return f"{float(rng.uniform(-5.0, 8.0)):.3f}"


def _column_literal(rng: np.random.Generator, numeric: bool,
                    pool: Sequence[str]) -> str:
    if rng.random() < _NULL_RATE:
        return "NULL"
    if numeric:
        return _numeric_literal(rng)
    return f"'{rng.choice(pool)}'"


def _where_clause(rng: np.random.Generator, relation: RelationSchema,
                  pool: Sequence[str]) -> str:
    """A random predicate over the relation's own columns (possibly none).

    Biased toward predicates that match *some* rows: equality on pool
    values and loose numeric bounds.  A missing WHERE (full-table match)
    stays in rotation with low probability -- it exercises the rebuild of
    an emptied table and the frontier remap that drops every witness.
    """
    if rng.random() < 0.08:
        return ""
    conditions = []
    for attribute in relation.attributes:
        if rng.random() > 0.45:
            continue
        if attribute.is_numeric:
            operator = str(rng.choice(_COMPARATORS))
            conditions.append(
                f"{attribute.name} {operator} {_numeric_literal(rng)}")
        else:
            operator = "=" if rng.random() < 0.7 else "<>"
            conditions.append(f"{attribute.name} {operator} '{rng.choice(pool)}'")
    if not conditions:
        attribute = relation.attributes[int(rng.integers(0, len(relation.attributes)))]
        if attribute.is_numeric:
            conditions.append(f"{attribute.name} <= {_numeric_literal(rng)}")
        else:
            conditions.append(f"{attribute.name} = '{rng.choice(pool)}'")
    return " WHERE " + " AND ".join(conditions)


def random_statement(rng: np.random.Generator, schema: DatabaseSchema,
                     pool: Sequence[str],
                     table: Optional[str] = None) -> str:
    """One random INSERT/DELETE/UPDATE statement against ``schema``.

    ``pool`` supplies the base-column values (use the pools the data was
    generated from, so predicates hit).  Inserts are weighted heaviest:
    appends keep the incremental frontier path -- the expensive claim --
    in rotation more often than the rebuild paths deletes force.
    """
    names = schema.names()
    if table is None:
        table = str(names[int(rng.integers(0, len(names)))])
    relation = schema.relation(table)
    kind = rng.random()
    if kind < 0.5:  # INSERT, possibly multi-row
        rows = []
        for _ in range(int(rng.integers(1, 4))):
            values = ", ".join(
                _column_literal(rng, attribute.is_numeric, pool)
                for attribute in relation.attributes)
            rows.append(f"({values})")
        return f"INSERT INTO {table} VALUES {', '.join(rows)}"
    if kind < 0.75:  # DELETE
        return f"DELETE FROM {table}{_where_clause(rng, relation, pool)}"
    # UPDATE: one or two SET targets; occasionally arithmetic over the
    # row's own numeric column (``SET x0 = x0 + 1``).
    attributes = list(relation.attributes)
    count = min(len(attributes), int(rng.integers(1, 3)))
    picked = [attributes[int(index)] for index in
              rng.choice(len(attributes), size=count, replace=False)]
    assignments = []
    for attribute in picked:
        if attribute.is_numeric and rng.random() < 0.3:
            delta = f"{float(rng.uniform(0.1, 2.0)):.3f}"
            operator = "+" if rng.random() < 0.5 else "-"
            assignments.append(
                f"{attribute.name} = {attribute.name} {operator} {delta}")
        else:
            assignments.append(
                f"{attribute.name} = "
                f"{_column_literal(rng, attribute.is_numeric, pool)}")
    return (f"UPDATE {table} SET {', '.join(assignments)}"
            f"{_where_clause(rng, relation, pool)}")


def random_mutation_script(rng: np.random.Generator, schema: DatabaseSchema,
                           pool: Sequence[str],
                           statements: int = 6) -> list[str]:
    """A script of ``statements`` random mutations over ``schema``."""
    return [random_statement(rng, schema, pool)
            for _ in range(max(0, statements))]
