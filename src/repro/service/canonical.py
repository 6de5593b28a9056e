"""Null-renaming-invariant canonical forms of lineage formulae.

The measure of certainty ``nu(phi)`` only depends on the *shape* of the
constraint formula: it is the asymptotic fraction of the unit ball satisfying
``phi``, and the uniform measure on the ball is invariant under permuting or
renaming coordinates.  Two candidate answers whose lineages are identical up
to renaming the numerical nulls therefore have exactly the same certainty --
a situation that arises constantly in practice, because every tuple of a
generated table carries its own nulls but the query applies the same
arithmetic pattern to each of them.

This module computes a canonical representative: the relevant variables are
renamed positionally (``v0, v1, ...`` in the order of the candidate's
``relevant_variables`` tuple, which follows the database's ambient null
order) and the formula is rebuilt over the new names.  Lineages that agree
after this renaming share one cache entry, one compiled kernel, and one
Monte-Carlo estimate.  The renaming is order-preserving, so the key is
*sound* for any pair it identifies; pairs that only match under a
non-monotone permutation of the variables are treated as distinct (a cache
miss, never a wrong answer).

The canonical form also carries a SHA-256 digest of a deterministic
serialisation.  The digest is stable across processes (Python's salted
``hash()`` is never used) and doubles as the spawn key of the per-task RNG
streams -- see :mod:`repro.service.rng`.  It is also the identity the
service keys its certainty cache, provenance table and schedule grouping
by: a 32-byte string hashes and compares in constant time, where the
formula tree would be walked on every lookup.  Canonical forms are interned
by digest, so every live plan that mentions a lineage shares one object.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from dataclasses import dataclass
from typing import Mapping

from repro.constraints.atoms import Constraint
from repro.constraints.formula import (
    And,
    Atom,
    ConstraintFormula,
    FalseFormula,
    Not,
    Or,
    TrueFormula,
)
from repro.constraints.polynomials import Polynomial
from repro.constraints.translate import TranslationResult
from repro.relational.values import NumNull


class CanonicalisationError(ValueError):
    """Raised when a formula mentions variables outside the relevant tuple."""


@dataclass(frozen=True)
class CanonicalLineage:
    """A lineage formula rebuilt over positional variable names.

    ``digest`` identifies the pair ``(formula, variables)``: it keys the
    service's caches and the RNG spawn, so the Monte-Carlo estimate of a
    canonical lineage is a pure function of ``(digest, seed, epsilon,
    delta, method)`` regardless of which request, group index, or worker
    thread computes it.
    """

    formula: ConstraintFormula
    variables: tuple[str, ...]
    digest: bytes

    @property
    def short(self) -> str:
        """Eight-hex-character digest prefix for logs and wire payloads."""
        return self.digest.hex()[:8]

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def translation(self) -> TranslationResult:
        """A self-contained translation over the canonical variables.

        The estimators only consume the formula and the variable tuple; the
        ambient dimension of the *database* is patched back onto the result
        by the service, since it is the same for every group.
        """
        return TranslationResult(
            formula=self.formula,
            all_variables=self.variables,
            relevant_variables=self.variables,
            null_by_variable={name: NumNull(name) for name in self.variables},
        )


def _rename_polynomial(polynomial: Polynomial, mapping: Mapping[str, str]) -> Polynomial:
    renamed: dict = {}
    for monomial, coefficient in polynomial.coefficients.items():
        try:
            new_monomial = tuple(sorted((mapping[name], exponent)
                                        for name, exponent in monomial))
        except KeyError as error:
            raise CanonicalisationError(
                f"formula variable {error.args[0]!r} is not in the relevant tuple")
        renamed[new_monomial] = renamed.get(new_monomial, 0.0) + coefficient
    return Polynomial(renamed)


def _rename_formula(formula: ConstraintFormula,
                    mapping: Mapping[str, str]) -> ConstraintFormula:
    if isinstance(formula, (TrueFormula, FalseFormula)):
        return formula
    if isinstance(formula, Atom):
        constraint = formula.constraint
        return Atom(Constraint(polynomial=_rename_polynomial(constraint.polynomial, mapping),
                               op=constraint.op))
    if isinstance(formula, Not):
        return Not(_rename_formula(formula.child, mapping))
    if isinstance(formula, And):
        return And(tuple(_rename_formula(child, mapping) for child in formula.children))
    if isinstance(formula, Or):
        return Or(tuple(_rename_formula(child, mapping) for child in formula.children))
    raise CanonicalisationError(f"unexpected formula node: {type(formula).__name__}")


def _serialise(formula: ConstraintFormula, parts: list[str]) -> None:
    """Append a deterministic textual form of ``formula`` to ``parts``.

    Floats are serialised with ``repr`` (shortest round-trip form), monomials
    in sorted order; the result depends only on the formula's value, never on
    interpreter identity or hash randomisation.
    """
    if isinstance(formula, TrueFormula):
        parts.append("T")
    elif isinstance(formula, FalseFormula):
        parts.append("F")
    elif isinstance(formula, Atom):
        constraint = formula.constraint
        parts.append(f"A{constraint.op.value}(")
        for monomial, coefficient in sorted(constraint.polynomial.coefficients.items()):
            terms = ",".join(f"{name}^{exponent}" for name, exponent in monomial)
            parts.append(f"{terms}:{coefficient!r};")
        parts.append(")")
    elif isinstance(formula, Not):
        parts.append("!(")
        _serialise(formula.child, parts)
        parts.append(")")
    elif isinstance(formula, (And, Or)):
        parts.append("&(" if isinstance(formula, And) else "|(")
        for child in formula.children:
            _serialise(child, parts)
            parts.append(",")
        parts.append(")")
    else:
        raise CanonicalisationError(f"unexpected formula node: {type(formula).__name__}")


#: digest -> the live canonical form with that digest.
_interned: "weakref.WeakValueDictionary[bytes, CanonicalLineage]" = \
    weakref.WeakValueDictionary()
_interned_lock = threading.Lock()


def canonicalise(formula: ConstraintFormula,
                 relevant_variables: tuple[str, ...]) -> CanonicalLineage:
    """Canonical form of ``(formula, relevant_variables)`` under null renaming.

    ``relevant_variables`` must cover every variable of the formula (it does
    for any :class:`TranslationResult`); position ``i`` is renamed to
    ``v{i}``.  Equal canonical forms come back as one shared object while
    any holder keeps it alive.
    """
    mapping = {name: f"v{index}" for index, name in enumerate(relevant_variables)}
    renamed = _rename_formula(formula, mapping)
    variables = tuple(mapping[name] for name in relevant_variables)
    parts: list[str] = [f"d{len(variables)}:"]
    _serialise(renamed, parts)
    digest = hashlib.sha256("".join(parts).encode("utf-8")).digest()
    canonical = CanonicalLineage(formula=renamed, variables=variables,
                                 digest=digest)
    with _interned_lock:
        return _interned.setdefault(digest, canonical)


def canonicalise_lineage(lineage: TranslationResult) -> CanonicalLineage:
    """Canonicalise a translated candidate's lineage."""
    return canonicalise(lineage.formula, tuple(lineage.relevant_variables))
