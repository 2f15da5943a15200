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
same idea specialized to the prover's per-conjunct satisfiability
cache, where most of the repeated work lives.  :func:`leaf_keys` is
the prover's branch-and-prune search: a depth-first walk of a
quantifier-free NNF tree that folds atoms into one running conjunct
key, branches at each ∨, and drops every branch whose partial key a
caller-supplied check refutes — the DNF conjuncts that survive, in DNF
order, without building the DNF.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple,
)

from repro import budget
from repro.logic.formula import (
    And, Cong, Eq, Exists, FalseFormula, Forall, Formula, Geq, Not,
    NotCong, Or, TrueFormula, conj, disj, neg,
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

#: The key of the empty conjunction (trivially satisfiable).
EMPTY_KEY: FrozenSet[Formula] = frozenset()

#: A prune check of :func:`leaf_keys`: True if a partial key is
#: satisfiable, False if it is not, None if it could not be decided.
PruneCheck = Callable[[FrozenSet[Formula]], Optional[bool]]

_RANK: Dict[type, int] = {
    FalseFormula: 0, TrueFormula: 1, Geq: 2, Eq: 3, Cong: 4,
    And: 5, Or: 6, Not: 7, Exists: 8, Forall: 9, NotCong: 10,
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
    if isinstance(f, (Cong, NotCong)):
        term = f.term.rename(env) if env else f.term
        return normalize_atom(f.__class__(term, f.modulus))
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


def leaf_keys(f: Formula, start: FrozenSet[Formula] = EMPTY_KEY,
              check: Optional[PruneCheck] = None
              ) -> Iterator[Tuple[FrozenSet[Formula], bool]]:
    """Branch-and-prune search of quantifier-free NNF *f*'s DNF.

    Yields ``(key, known)`` per surviving leaf, in DNF order: *key* is
    ``start | canonical_conjunct(conjunct)``, and *known* is True when
    *check* already found that very key satisfiable.  A conjunct with
    an atom that normalizes to false is never reached.

    One running key per path: an ∧ folds its atom children in at once
    and queues the rest; an ∨ branches, parts left to right.  Before
    branching, *check* decides the key if an atom joined it since the
    last check; False prunes the subtree (every extension of an
    unsatisfiable conjunction is unsatisfiable), None descends.  The
    check is skipped at a path's last ∨ with at most two leaves below:
    there it saves at most one decision, and costs one whenever the key
    is satisfiable.  No *check* yields every leaf.

    Iterative (a stack of branch points, each with a linked list of the
    nodes still to conjoin), so depth costs no recursion; polls the
    check budget per ∧/∨.  The caller bounds *f* with
    :func:`~repro.logic.normalize.dnf_length`."""
    # A branch point: the key so far, the nodes still to conjoin as a
    # (node, rest) linked list, whether atoms joined the key since the
    # last check, and whether the key is known satisfiable.
    stack = [(start, (f, None), bool(start), not start)]
    while stack:
        key, todo, fresh, known = stack.pop()
        new = []
        while todo is not None:
            node, todo = todo
            cls = node.__class__
            if cls is Or:
                budget.check()
                if new:
                    key, new, fresh, known = key.union(new), [], True, False
                if fresh and check is not None and (
                        todo is not None or dnf_length(node) > 2):
                    verdict = check(key)
                    if verdict is False:
                        break
                    fresh, known = False, verdict is True
                parts = node.parts
                for index in range(len(parts) - 1, 0, -1):
                    stack.append((key, (parts[index], todo), fresh, known))
                todo = (parts[0], todo)
                continue
            if cls is And:
                budget.check()
                parts = node.parts
            else:
                parts = (node,)
            for part in reversed(parts):
                cls = part.__class__
                if cls is And or cls is Or:
                    todo = (part, todo)
                    continue
                atom = normalize_atom(part)
                cls = atom.__class__
                if cls is FalseFormula:
                    break
                if cls is not TrueFormula and atom not in key:
                    new.append(atom)
            else:
                continue
            break  # a false atom: no leaf below this branch point
        else:
            if new:
                yield key.union(new), False
            else:
                yield key, known
