"""The theorem prover: validity and satisfiability of Presburger
formulas, plus full quantifier elimination.

The paper checks verification conditions "in a demand-driven fashion …
one at a time" with a prover based on the Omega library.  This module
is that prover: formulas go through NNF → quantifier elimination
(exact integer projection, :mod:`repro.logic.omega`) → a search for a
satisfiable DNF conjunct, each decided by the Omega test.

There is one query path.  :meth:`Prover.is_satisfiable` is
:meth:`~repro.logic.incremental.PrefixSession.satisfiable_with` on the
prover's own empty-prefix session, so the session is the one place
that counts a query, memoizes its answer, applies the DNF bound,
turns a resource failure into the conservative fallback, and emits
the ``prover:query`` trace event.

Result caching follows the paper's Section 5.2.3 enhancement
("caching in the theorem prover … represent formulas in a canonical
form and use previous results whenever possible") at two levels:

1. a **raw memo** per session keyed on the query formula itself (with
   hash-consed nodes the lookup is a pointer-identity dict probe);
2. a **conjunct cache** per prover keyed on the canonicalized atom set
   of each conjunction decided — alpha-variants, commutative
   reorderings and gcd/sign variants of a decided conjunction hit
   here, and the same conjunctions reappear across hundreds of
   queries during induction iteration, so each hit skips an entire
   Omega-test (or difference-solver) run.

A query is decided by the **branch-and-prune search**
(:func:`repro.logic.canonical.leaf_keys`, :meth:`Prover._search`)
over its quantifier-free NNF tree: at each ∨ the conjunction built so
far is decided first, and when it is unsatisfiable so is every DNF
conjunct extending it, so the subtree is pruned; the leaves left are
decided in DNF order.  Every key is decided through obligation
slicing (independent variable components, each decided and cached on
its own) and the difference-solver fast path before the general Omega
test.  Both levels are bounded caches from
:meth:`Prover.result_cache`; ``Prover(enable_cache=False)`` is the
paper's one cache ablation, which hands out caches that store nothing
(:class:`~repro.logic.memo.NullCache`) and decides through the same
search.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import FrozenSet, List, Optional

from repro import budget
from repro.errors import ProverError
from repro.logic.canonical import leaf_keys
from repro.logic.diffsolver import try_satisfiable
from repro.logic.formula import (
    TRUE, And, Exists, Forall, Formula, Not, Or, conj, disj,
    has_quantifier, neg, )
from repro.logic.memo import BoundedCache, NullCache
from repro.logic.normalize import to_dnf, to_nnf
from repro.logic.omega import (
    Constraints, constraints_to_formula, project, satisfiable,
)
from repro.trace import NULL_TRACER


@dataclass
class ProverStats:
    """Counters for the evaluation tables."""

    validity_queries: int = 0
    satisfiability_queries: int = 0
    #: Raw-memo hits (the same session already decided the exact
    #: query formula).
    cache_hits: int = 0
    #: Conjunct keys decided (search leaves and prune checks), and how
    #: many were answered from the per-conjunct satisfiability cache.
    conjunct_queries: int = 0
    conjunct_cache_hits: int = 0
    difference_fast_path_hits: int = 0
    #: Conjuncts decided as several independent variable-components
    #: (obligation slicing), and how many components that produced.
    sliced_conjuncts: int = 0
    slice_components: int = 0
    #: Satisfiability queries asked of a
    #: :class:`repro.logic.incremental.PrefixSession` other than the
    #: prover's own root session (the plain queries).
    incremental_queries: int = 0
    #: Queries answered conservatively ("may be satisfiable") because
    #: the decision procedure hit a resource limit (DNF blow-up or
    #: elimination step cap).
    resource_fallbacks: int = 0

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, spec.default)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of satisfiability queries answered by a raw memo
        (0.0 when no queries ran)."""
        if not self.satisfiability_queries:
            return 0.0
        return self.cache_hits / self.satisfiability_queries

    @property
    def conjunct_hit_rate(self) -> float:
        if not self.conjunct_queries:
            return 0.0
        return self.conjunct_cache_hits / self.conjunct_queries

    def as_dict(self) -> dict:
        out = {spec.name: getattr(self, spec.name)
               for spec in fields(self)}
        out["cache_hit_rate"] = self.cache_hit_rate
        out["conjunct_hit_rate"] = self.conjunct_hit_rate
        return out


#: Entry limits for the per-prover result caches.
_RESULT_CACHE_LIMIT = 1 << 16

#: Failures that make a query a resource fallback: the prover's own
#: limits, and nesting deeper than the recursive passes can follow.
RESOURCE_ERRORS = (ProverError, RecursionError)


class Prover:
    """Decision procedure for Presburger formulas with ∃/∀."""

    def __init__(self, enable_cache: bool = True):
        #: The result-cache type: bounded, or one that stores nothing
        #: under the paper's cache ablation (``enable_cache=False``).
        self._cache_type = BoundedCache if enable_cache else NullCache
        #: Tracing sink (:mod:`repro.trace`); the shared no-op tracer
        #: by default.  Set (and reset) by the checker per run; every
        #: trace-only computation is gated on ``tracer.enabled`` so an
        #: untraced run does zero extra work.
        self.tracer = NULL_TRACER
        self.stats = ProverStats()
        self._conjunct_cache = self.result_cache()
        #: The empty-prefix session that answers :meth:`is_satisfiable`
        #: (None until the first query); it holds the raw memo.
        self._root = None

    def result_cache(self) -> BoundedCache:
        """A fresh per-prover result cache (the conjunct cache, each
        session's memo)."""
        return self._cache_type(_RESULT_CACHE_LIMIT, registered=False)

    def reset_stats(self) -> None:
        """Zero the statistics counters *without* dropping any cache —
        the service's long-lived warm prover reports per-job stats
        while keeping its caches."""
        self.stats.reset()

    def clear_caches(self) -> None:
        """Empty the result caches: the conjunct cache, and the raw
        memo with the root session that holds it."""
        self._conjunct_cache.clear()
        self._root = None

    def reset(self) -> None:
        """Clear all result caches and statistics — lets a shared
        prover (e.g. the module-level :data:`DEFAULT_PROVER`) be reused
        across checks without leaking state between them."""
        self.clear_caches()
        self.reset_stats()

    # -- public queries ------------------------------------------------------

    def is_satisfiable(self, f: Formula) -> bool:
        """Is there an integer assignment of the free variables making
        *f* true?"""
        return (self._root or self._root_session()).satisfiable_with(f)

    def _root_session(self):
        """The prover's own empty-prefix session, built on first use
        (after any subclass has set its state)."""
        from repro.logic.incremental import PrefixSession
        self._root = PrefixSession(self, TRUE)
        return self._root

    def is_valid(self, f: Formula) -> bool:
        """Is *f* true for every integer assignment of its free
        variables?"""
        self.stats.validity_queries += 1
        return not self.is_satisfiable(neg(f))

    def implies(self, antecedent: Formula, consequent: Formula) -> bool:
        """Validity of antecedent → consequent."""
        return self.is_valid(disj(neg(antecedent), consequent))

    def equivalent(self, a: Formula, b: Formula) -> bool:
        return self.implies(a, b) and self.implies(b, a)

    # -- engine ------------------------------------------------------------------

    def _search(self, qf: Formula, start: FrozenSet[Formula]) -> bool:
        """Is ``start ∧ qf`` satisfiable?  *qf* is quantifier-free NNF,
        *start* a canonical conjunct key.  A leaf's resource failure
        propagates, to become the caller's fallback."""
        for key, known in leaf_keys(qf, start, self._prune_check):
            if known:
                return True
            self.stats.conjunct_queries += 1
            if self._conjunct_decide_key(key):
                return True
        return False

    def _prune_check(self, key: FrozenSet[Formula]) -> Optional[bool]:
        """Decide a partial conjunction of the search, or None on a
        resource failure: the search then descends as if satisfiable."""
        self.stats.conjunct_queries += 1
        try:
            return self._conjunct_decide_key(key)
        except RESOURCE_ERRORS:
            return None

    def _conjunct_decide_key(self, key) -> bool:
        """Decide a conjunct given its canonical frozenset key, through
        the per-conjunct cache.  Every leaf and prune check of
        :meth:`_search` comes here, so every session hits the same
        cache with the same keys."""
        if not key:
            return True  # every atom folded to true
        return self._conjunct_lookup(key, None)

    def _conjunct_lookup(self, key, component) -> bool:
        """The one conjunct-cache lookup.  *component* is None for a
        whole conjunct: its hit is counted, and a miss is decided in a
        process-stable atom order — a frozenset iterates in an order
        that depends on the hash seed and its insertion history, so
        sorting makes the component split and the short-circuit below
        do the same work in every process.  Otherwise *component* is
        one slice of a conjunct, already in that order; its hit is not
        counted."""
        cached = self._conjunct_cache.get(key)
        if cached is not None:
            if component is None:
                self.stats.conjunct_cache_hits += 1
            return cached
        if component is None:
            result = self._conjunct_satisfiable(
                tuple(sorted(key, key=_atom_order)))
        else:
            result = self._component_satisfiable(component)
        self._conjunct_cache.put(key, result)
        return result

    def _conjunct_satisfiable(self, atoms) -> bool:
        """Satisfiability of one conjunction of quantifier-free atoms.

        Obligation slicing: the conjunct is first decomposed into
        independent variable components (no variable chain connects
        them), each decided on its own — the conjunction is satisfiable
        iff every component is.  A component of a sliced conjunct is a
        conjunction too, and goes through the conjunct cache on its own
        key: the search's leaf below a satisfiable prune check then
        re-decides only the component its new atoms joined.
        Section 5.2.3's difference-solver fast path decides a component
        that is a difference system by negative-cycle detection; the
        rest go to the Omega test."""
        components = _split_components(atoms)
        if len(components) == 1:
            return self._component_satisfiable(components[0])
        self.stats.sliced_conjuncts += 1
        self.stats.slice_components += len(components)
        return all(self._cached_component(component)
                   for component in components)

    def _cached_component(self, atoms) -> bool:
        return self._conjunct_lookup(frozenset(atoms), atoms)

    def _component_satisfiable(self, atoms) -> bool:
        fast = try_satisfiable(atoms)
        if fast is not None:
            self.stats.difference_fast_path_hits += 1
            return fast
        return satisfiable(Constraints.from_atoms(atoms))

    def prefix_session(self, prefix: Formula):
        """A :class:`~repro.logic.incremental.PrefixSession` that keeps
        *prefix* in eliminated-and-expanded form and decides each query
        by conjoining only the delta (the induction BFS and the
        function-entry discharge path conjoin a fixed context with a
        small changing part on every query)."""
        from repro.logic.incremental import PrefixSession
        return PrefixSession(self, prefix)

    def eliminate_quantifiers(self, f: Formula) -> Formula:
        """Return an equivalent quantifier-free formula."""
        return self._eliminate(to_nnf(f))

    def _eliminate(self, f: Formula) -> Formula:
        if not has_quantifier(f):
            return f
        if isinstance(f, And):
            return conj(*(self._eliminate(p) for p in f.parts))
        if isinstance(f, Or):
            return disj(*(self._eliminate(p) for p in f.parts))
        if isinstance(f, Exists):
            body = self._eliminate(f.body)
            bound = frozenset(f.variables)
            pieces: List[Formula] = []
            for atoms in to_dnf(body):
                budget.check()
                # ∃x.(A ∧ B) = (∃x.A) ∧ B when B is x-free: keep the
                # x-free residue out of the projection, which shrinks
                # the Omega system and preserves exactness.
                inner = []
                outer = []
                for atom in atoms:
                    if bound.intersection(atom.free_variables()):
                        inner.append(atom)
                    else:
                        outer.append(atom)
                if not inner:
                    pieces.append(conj(*outer))
                    continue
                projected = project(Constraints.from_atoms(inner),
                                    f.variables)
                pieces.append(
                    conj(constraints_to_formula(projected), *outer))
            return disj(*pieces)
        if isinstance(f, Forall):
            inner = to_nnf(neg(f.body))
            eliminated = self._eliminate(Exists(f.variables, inner))
            return to_nnf(neg(eliminated))
        if isinstance(f, Not):  # NNF leaves no Not nodes
            raise AssertionError("negation survived NNF: %r" % (f,))
        raise TypeError("unexpected formula %r" % (f,))


def _atom_order(atom: Formula) -> tuple:
    """A process-stable sort key for the quantifier-free atoms of a
    canonical conjunct key (distinct atoms get distinct keys)."""
    return (atom.__class__.__name__, getattr(atom, "modulus", 0),
            atom.term.key())


def _split_components(atoms) -> List[tuple]:
    """Partition a conjunct into variable-connected components.

    Two atoms land in the same component iff a chain of shared
    variables connects them; ground atoms (no variables) are collected
    into one component of their own.  A conjunction of independent
    components is satisfiable iff each component is, so deciding them
    separately is exact — and much cheaper, because Omega cost is
    super-linear in system size.  Component order, and the atom order
    within each component, follow the order of *atoms*: the split is
    as deterministic as its input order, so callers holding an
    unordered key sort it first."""
    roots: dict = {}

    def find(v):
        root = v
        while roots[root] is not root:
            root = roots[root]
        while roots[v] is not root:
            roots[v], v = root, roots[v]
        return root

    atom_vars = []
    for atom in atoms:
        vs = atom.free_variables()
        atom_vars.append(vs)
        anchor = None
        for v in vs:
            if v not in roots:
                roots[v] = v
            if anchor is None:
                anchor = find(v)
            else:
                root = find(v)
                if root is not anchor:
                    roots[root] = anchor
    groups: dict = {}
    order = []
    ground = []
    for atom, vs in zip(atoms, atom_vars):
        if not vs:
            ground.append(atom)
            continue
        root = find(next(iter(vs)))
        bucket = groups.get(root)
        if bucket is None:
            bucket = groups[root] = []
            order.append(root)
        bucket.append(atom)
    components = [tuple(groups[root]) for root in order]
    if ground:
        components.append(tuple(ground))
    return components


#: A module-level default prover for casual use; analyses construct
#: their own to get isolated statistics.  ``DEFAULT_PROVER.reset()``
#: clears its caches and counters between unrelated uses.
DEFAULT_PROVER = Prover()


def is_valid(f: Formula) -> bool:
    """Module-level convenience using the default prover."""
    return DEFAULT_PROVER.is_valid(f)


def is_satisfiable(f: Formula) -> bool:
    return DEFAULT_PROVER.is_satisfiable(f)
