"""Canonical forms for prover caching (paper Section 5.2.3).

"The first [enhancement] is to implement caching in the theorem prover
… represent formulas in a canonical form and use previous results
whenever possible."  This module is that canonical form:

* **atom normalization** — every atom is gcd-reduced and sign-fixed by
  :func:`repro.logic.simplify.normalize_atom` (``2x + 5 ≥ 0`` and
  ``4x + 10 ≥ 0`` become the same ``x + 2 ≥ 0``; equalities get a
  positive leading coefficient; congruences fold modulo m);
* **commutative sorting** — the children of ∧ / ∨ are sorted into a
  deterministic order (the precomputed node hashes make the sort key
  O(1) per child), so ``A ∧ B`` and ``B ∧ A`` coincide;
* **De Bruijn-style alpha-renaming** — bound variables are renamed to
  ``$canon_<depth>_<index>`` positional names, so quantified formulas
  that differ only in the fresh variables the pipeline invented
  (``$c17`` vs ``$c23``) coincide.

:func:`canonicalize` is equivalence-preserving: the result is a real
:class:`Formula` usable as a cache key whose ``__eq__``/``__hash__``
are O(1)-ish thanks to interning.  :func:`canonical_conjunct` is the
same idea specialized to the per-conjunct satisfiability cache of the
prover's DNF loop, where most of the repeated work lives, and
:func:`conjunct_keys` yields those keys for a whole quantifier-free
formula straight from its NNF tree, without building the DNF.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.logic.formula import (
    And, Cong, Eq, Exists, FalseFormula, Forall, Formula, Geq, Not, Or,
    TrueFormula, conj, disj, neg,
)
from repro.logic.memo import BoundedCache
from repro.logic.normalize import dnf_length
from repro.logic.simplify import normalize_atom

#: Stem for canonical bound-variable names; nothing else in the
#: pipeline generates names with this prefix (the fresh-variable stems
#: in use are ``$v``, ``$r``, ``$c``, ``$h``, ``$q``, ``$k``).
_BOUND_STEM = "$canon"

_CANON_CACHE = BoundedCache()

#: A canonical conjunct key: None for a trivially unsatisfiable
#: conjunct, else its frozenset of normalized atoms.
ConjunctKey = Optional[FrozenSet[Formula]]

#: Nodes whose DNF has at most this many conjuncts keep their key list
#: memoized: sub-formulas recur across queries, and their lists are
#: short.  Larger nodes are enumerated on demand and keep nothing.
_SMALL_NODE_KEYS = 32

_KEYS_CACHE = BoundedCache(1 << 12)

_RANK: Dict[type, int] = {
    FalseFormula: 0, TrueFormula: 1, Geq: 2, Eq: 3, Cong: 4,
    And: 5, Or: 6, Not: 7, Exists: 8, Forall: 9,
}


def _order_key(f: Formula) -> Tuple[int, int]:
    # Hash is precomputed at construction, so this key is O(1).  Hash
    # ties between distinct formulas merely make the child order
    # input-dependent — a missed cache hit at worst, never a wrong one,
    # because cache lookups compare canonical formulas structurally.
    return (_RANK[f.__class__], hash(f))


def canonicalize(f: Formula) -> Formula:
    """An equivalence-preserving canonical form of *f*.

    Alpha-variants, commutative reorderings, and gcd/sign variants of
    the same formula map to the same (interned) result, which the
    prover uses as its cache key."""
    cached = _CANON_CACHE.get(f)
    if cached is None:
        cached = _canon(f, {}, 0)
        _CANON_CACHE.put(f, cached)
    return cached


def _canon(f: Formula, env: Dict[str, str], depth: int) -> Formula:
    if isinstance(f, (TrueFormula, FalseFormula)):
        return f
    if isinstance(f, (Geq, Eq)):
        term = f.term.rename(env) if env else f.term
        return normalize_atom(f.__class__(term))
    if isinstance(f, Cong):
        term = f.term.rename(env) if env else f.term
        return normalize_atom(Cong(term, f.modulus))
    if isinstance(f, And):
        parts = sorted((_canon(p, env, depth) for p in f.parts),
                       key=_order_key)
        return conj(*parts)
    if isinstance(f, Or):
        parts = sorted((_canon(p, env, depth) for p in f.parts),
                       key=_order_key)
        return disj(*parts)
    if isinstance(f, Not):
        return neg(_canon(f.part, env, depth))
    if isinstance(f, (Exists, Forall)):
        inner = dict(env)
        fresh = tuple("%s_%d_%d" % (_BOUND_STEM, depth, index)
                      for index in range(len(f.variables)))
        for old, new in zip(f.variables, fresh):
            inner[old] = new
        body = _canon(f.body, inner, depth + 1)
        return f.__class__(fresh, body)
    raise TypeError("unexpected formula %r" % (f,))


def canonical_conjunct(atoms: Iterable[Formula]) -> ConjunctKey:
    """Canonical key of one DNF conjunct (a bag of quantifier-free
    atoms): gcd/sign-normalized, deduplicated, order-independent.

    Returns ``None`` when an atom normalizes to *false* (the conjunct
    is trivially unsatisfiable); an empty frozenset means trivially
    satisfiable."""
    out = set()
    for atom in atoms:
        normalized = normalize_atom(atom)
        if isinstance(normalized, FalseFormula):
            return None
        if isinstance(normalized, TrueFormula):
            continue
        out.add(normalized)
    return frozenset(out)


def conjunct_keys(f: Formula) -> Iterable[ConjunctKey]:
    """The canonical keys of *f*'s DNF conjuncts, in DNF order:
    ``[canonical_conjunct(c) for c in to_dnf(f)]``, without building
    a conjunct tuple.

    *f* must be quantifier-free NNF.  The key of a conjunction is the
    union of its parts' keys (None if any is None), so an And yields
    the product of its parts' key streams, first part outermost, and an
    Or the concatenation of its parts' streams.  Raises
    :class:`~repro.errors.ProverError` exactly where ``to_dnf`` would,
    before yielding anything; past that check, keys are built only as
    the caller reads them."""
    return _keys(f, dnf_length(f))


def _keys(f: Formula, length: int) -> Iterable[ConjunctKey]:
    if length > _SMALL_NODE_KEYS:
        if isinstance(f, Or):
            return _or_keys(f.parts)
        if isinstance(f, And):
            return _and_keys(f.parts)
    return _small_keys(f)


def _small_keys(f: Formula) -> List[ConjunctKey]:
    if isinstance(f, (And, Or)):
        cached = _KEYS_CACHE.get(f)
        if cached is None:
            cached = _small_keys_uncached(f)
            _KEYS_CACHE.put(f, cached)
        return cached
    if isinstance(f, TrueFormula):
        return [frozenset()]
    if isinstance(f, FalseFormula):
        return []
    return [canonical_conjunct((f,))]


def _small_keys_uncached(f: Formula) -> List[ConjunctKey]:
    if isinstance(f, Or):
        out: List[ConjunctKey] = []
        for part in f.parts:
            out.extend(_small_keys(part))
        return out
    if dnf_length(f) == 0:
        return []  # a part is false; the other parts may be large
    product: List[ConjunctKey] = [frozenset()]
    for part in f.parts:
        branches = _small_keys(part)
        product = [None if left is None or right is None else left | right
                   for left in product for right in branches]
    return product


def _or_keys(parts: Tuple[Formula, ...]) -> Iterator[ConjunctKey]:
    for part in parts:
        yield from _keys(part, dnf_length(part))


def _and_keys(parts: Tuple[Formula, ...]) -> Iterator[ConjunctKey]:
    # ``rest[i]`` counts the conjuncts of ``parts[i:]``: a None key of
    # part i-1 stands for that many None keys of the whole product.
    lengths = [dnf_length(part) for part in parts]
    rest = [1] * (len(parts) + 1)
    for index in range(len(parts) - 1, -1, -1):
        rest[index] = rest[index + 1] * lengths[index]
    last = len(parts) - 1

    def walk(index: int, acc: FrozenSet[Formula]
             ) -> Iterator[ConjunctKey]:
        branches = _keys(parts[index], lengths[index])
        if index == last:
            for key in branches:
                yield None if key is None else acc | key
            return
        for key in branches:
            if key is None:
                yield from repeat(None, rest[index + 1])
            else:
                yield from walk(index + 1, acc | key)

    return walk(0, frozenset())
