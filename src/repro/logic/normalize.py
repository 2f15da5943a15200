"""Negation normal form and disjunctive normal form.

Negation is pushed to the atoms and *dissolved* there — over the
integers every negated atom has a positive rewriting:

* ¬(e ≥ 0)        →  −e − 1 ≥ 0
* ¬(e = 0)        →  (e − 1 ≥ 0) ∨ (−e − 1 ≥ 0)
* ¬(e ≡ 0 mod m)  →  ⋁_{r=1}^{m−1}  e − r ≡ 0 (mod m)
* ¬∃x.φ → ∀x.¬φ,  ¬∀x.φ → ∃x.¬φ

so NNF formulas contain no :class:`Not` nodes at all.  DNF conversion
applies to quantifier-free NNF formulas and is guarded by a size limit
(the paper controls the same blow-up by simplifying at junction points
during VC generation).
"""

from __future__ import annotations

from typing import List, Tuple

from repro import budget
from repro.errors import ProverError
from repro.logic.formula import (
    And, Cong, Eq, Exists, FALSE, FalseFormula, Forall, Formula, Geq, Not,
    Or, TRUE, TrueFormula, conj, disj,
)
from repro.logic.memo import BoundedCache

#: Guard against exponential DNF blow-up.
MAX_DNF_CONJUNCTS = 50_000

#: Memo caches keyed on interned nodes (hashing is O(1)); bounded.
_NNF_CACHE = BoundedCache()
_DNF_CACHE = BoundedCache(1 << 12)
_SIZE_CACHE = BoundedCache()


def to_nnf(f: Formula) -> Formula:
    """Negation normal form with negations dissolved into atoms."""
    return _nnf(f, negate=False)


def _nnf(f: Formula, negate: bool) -> Formula:
    if isinstance(f, (And, Or, Not, Exists, Forall)):
        key = (f, negate)
        cached = _NNF_CACHE.get(key)
        if cached is None:
            budget.check()
            cached = _nnf_uncached(f, negate)
            _NNF_CACHE.put(key, cached)
        return cached
    return _nnf_uncached(f, negate)


def _nnf_uncached(f: Formula, negate: bool) -> Formula:
    if isinstance(f, TrueFormula):
        return FALSE if negate else TRUE
    if isinstance(f, FalseFormula):
        return TRUE if negate else FALSE
    if isinstance(f, Geq):
        if not negate:
            return f
        return Geq(f.term.scale(-1) - 1)
    if isinstance(f, Eq):
        if not negate:
            return f
        return disj(Geq(f.term - 1), Geq(f.term.scale(-1) - 1))
    if isinstance(f, Cong):
        if not negate:
            return f
        return disj(*(Cong(f.term - r, f.modulus)
                      for r in range(1, f.modulus)))
    if isinstance(f, Not):
        return _nnf(f.part, not negate)
    if isinstance(f, And):
        parts = tuple(_nnf(p, negate) for p in f.parts)
        return disj(*parts) if negate else conj(*parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(p, negate) for p in f.parts)
        return conj(*parts) if negate else disj(*parts)
    if isinstance(f, Exists):
        body = _nnf(f.body, negate)
        return Forall(f.variables, body) if negate \
            else Exists(f.variables, body)
    if isinstance(f, Forall):
        body = _nnf(f.body, negate)
        return Exists(f.variables, body) if negate \
            else Forall(f.variables, body)
    raise TypeError("unexpected formula %r" % (f,))


#: A DNF conjunct: just a tuple of atoms (Geq / Eq / Cong).
Conjunct = Tuple[Formula, ...]


def to_dnf(f: Formula) -> List[Conjunct]:
    """Disjunctive normal form of a quantifier-free NNF formula.

    Returns a list of conjuncts; the empty list means *false*, and a
    conjunct with no atoms means *true*.  Raises :class:`ProverError`
    where :func:`dnf_length` does, before building any conjunct.
    Results for composite nodes are memoized and shared — callers must
    treat the returned list as immutable (every caller in the tree only
    iterates it).
    """
    dnf_length(f)
    return _dnf(f)


def _dnf(f: Formula) -> List[Conjunct]:
    if isinstance(f, (And, Or)):
        cached = _DNF_CACHE.get(f)
        if cached is None:
            budget.check()
            cached = _dnf_uncached(f)
            _DNF_CACHE.put(f, cached)
        return cached
    return _dnf_uncached(f)


def _dnf_uncached(f: Formula) -> List[Conjunct]:
    if isinstance(f, TrueFormula):
        return [()]
    if isinstance(f, FalseFormula):
        return []
    if isinstance(f, (Geq, Eq, Cong)):
        return [(f,)]
    if isinstance(f, Or):
        out: List[Conjunct] = []
        for part in f.parts:
            out.extend(_dnf(part))
        return out
    if isinstance(f, And):
        product: List[Conjunct] = [()]
        for part in f.parts:
            branches = _dnf(part)
            product = [existing + branch
                       for existing in product for branch in branches]
        return product
    raise TypeError("unexpected formula %r" % (f,))


def dnf_length(f: Formula) -> int:
    """``len(to_dnf(f))``, computed without building a conjunct.

    This is the one bound rule of DNF expansion: it raises
    :class:`ProverError` when *f* has a quantifier or a ``Not``, or when
    the expansion would pass :data:`MAX_DNF_CONJUNCTS` on the way —
    a running disjunct count or an intermediate conjunction product,
    even one a later *false* child would empty again."""
    length, peak = _dnf_size(f)
    if peak > MAX_DNF_CONJUNCTS:
        raise ProverError("DNF blow-up: more than %d conjuncts"
                          % MAX_DNF_CONJUNCTS)
    return length


def _dnf_size(f: Formula) -> Tuple[int, int]:
    """``(length, peak)`` of *f*'s DNF: its exact conjunct count, and
    the largest count the left-to-right expansion reaches (an Or's
    running sums, an And's running products, and its parts' peaks).
    Exact integers, so the memo stays valid whatever the bound."""
    if isinstance(f, (And, Or)):
        cached = _SIZE_CACHE.get(f)
        if cached is None:
            cached = _dnf_size_uncached(f)
            _SIZE_CACHE.put(f, cached)
        return cached
    if isinstance(f, (Geq, Eq, Cong, TrueFormula)):
        return 1, 0
    if isinstance(f, FalseFormula):
        return 0, 0
    if isinstance(f, (Exists, Forall, Not)):
        raise ProverError(
            "to_dnf requires a quantifier-free NNF formula, got %r"
            % type(f).__name__)
    raise TypeError("unexpected formula %r" % (f,))


def _dnf_size_uncached(f: Formula) -> Tuple[int, int]:
    peak = 0
    if isinstance(f, Or):
        total = 0
        for part in f.parts:
            length, part_peak = _dnf_size(part)
            total += length
            peak = max(peak, part_peak, total)
        return total, peak
    product = 1
    for part in f.parts:
        length, part_peak = _dnf_size(part)
        product *= length
        peak = max(peak, part_peak, product)
    return product, peak


def dnf_to_formula(conjuncts: List[Conjunct]) -> Formula:
    """Rebuild a formula from DNF conjuncts."""
    return disj(*(conj(*parts) for parts in conjuncts))
