"""The theorem prover: validity and satisfiability of Presburger
formulas, plus full quantifier elimination.

The paper checks verification conditions "in a demand-driven fashion …
one at a time" with a prover based on the Omega library.  This module
is that prover: formulas go through NNF → quantifier elimination
(exact integer projection, :mod:`repro.logic.omega`) → DNF → per-
conjunction Omega-test satisfiability.

Result caching follows the paper's Section 5.2.3 enhancement
("caching in the theorem prover … represent formulas in a canonical
form and use previous results whenever possible") at two levels:

1. a **raw cache** keyed on the query formula itself (with hash-consed
   nodes the lookup is a pointer-identity dict probe);
2. a **conjunct cache** keyed on the canonicalized atom set of each
   DNF conjunct — alpha-variants, commutative reorderings and gcd/sign
   variants of a decided conjunction hit here, and the same
   conjunctions reappear across hundreds of queries during induction
   iteration, so each hit skips an entire Omega-test (or
   difference-solver) run.  The keys are enumerated
   lazily from the quantifier-free NNF tree, in DNF order
   (:func:`repro.logic.canonical.conjunct_keys`), so a satisfiable
   query builds only the keys up to its first satisfiable conjunct and
   no DNF tuple at all; the DNF bound is checked first, without
   building anything (:func:`repro.logic.normalize.dnf_length`).

Every conjunct is decided through obligation slicing (independent
variable components, each decided on its own) and the difference-solver
fast path before the general Omega test.  ``Prover(enable_cache=False)``
is the paper's one cache ablation: it turns off every result cache
(the two levels above and the per-session memo of
:class:`~repro.logic.incremental.PrefixSession`) while deciding through
the same lazy conjunct-key path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import List

from repro import budget
from repro.errors import ProverError
from repro.logic.canonical import canonicalize, conjunct_keys
from repro.logic.diffsolver import try_satisfiable
from repro.logic.formula import (
    And, Cong, Eq, Exists, FalseFormula, Forall, Formula, Geq, Not, Or,
    TrueFormula, conj, disj, formula_size, neg, )
from repro.logic.memo import BoundedCache
from repro.logic.normalize import to_dnf, to_nnf
from repro.logic.omega import (
    Constraints, constraints_to_formula, project, satisfiable,
)
from repro.logic.serialize import canonical_digest
from repro.trace import NULL_TRACER


@dataclass
class ProverStats:
    """Counters for the evaluation tables."""

    validity_queries: int = 0
    satisfiability_queries: int = 0
    #: Raw-cache hits (exact formula already decided).
    cache_hits: int = 0
    #: DNF conjuncts examined, and how many were answered from the
    #: per-conjunct satisfiability cache.
    conjunct_queries: int = 0
    conjunct_cache_hits: int = 0
    difference_fast_path_hits: int = 0
    #: Conjuncts decided as several independent variable-components
    #: (obligation slicing), and how many components that produced.
    sliced_conjuncts: int = 0
    slice_components: int = 0
    #: Satisfiability queries answered through a
    #: :class:`repro.logic.incremental.PrefixSession` delta path
    #: instead of a full from-scratch decision.
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
        """Fraction of satisfiability queries answered by the raw
        cache (0.0 when no queries ran)."""
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


class Prover:
    """Decision procedure for Presburger formulas with ∃/∀."""

    def __init__(self, enable_cache: bool = True):
        #: Result caching (raw, per-conjunct, and the per-session
        #: memo); off is the paper's cache ablation.
        self.enable_cache = enable_cache
        #: Tracing sink (:mod:`repro.trace`); the shared no-op tracer
        #: by default.  Set (and reset) by the checker per run; every
        #: trace-only computation is gated on ``tracer.enabled`` so an
        #: untraced run does zero extra work.
        self.tracer = NULL_TRACER
        self.stats = ProverStats()
        self._sat_cache = BoundedCache(_RESULT_CACHE_LIMIT,
                                       registered=False)
        self._conjunct_cache = BoundedCache(_RESULT_CACHE_LIMIT,
                                            registered=False)

    def reset_stats(self) -> None:
        """Zero the statistics counters *without* dropping any cache —
        the service's long-lived warm prover reports per-job stats
        while keeping its caches."""
        self.stats.reset()

    def clear_caches(self) -> None:
        """Empty the result caches."""
        self._sat_cache.clear()
        self._conjunct_cache.clear()

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
        budget.check()
        self.stats.satisfiability_queries += 1
        if not self.tracer.enabled:
            return self._query(f)[0]
        t0 = time.perf_counter()
        result, source = self._query(f)
        seconds = time.perf_counter() - t0
        self.tracer.event("prover:query",
                          digest=canonical_digest(canonicalize(f)),
                          cache=source,
                          formula_size=formula_size(f),
                          seconds=seconds,
                          result=result)
        return result

    def _query(self, f: Formula):
        """The cache-ladder body of :meth:`is_satisfiable`.

        Returns ``(result, source)`` where *source* names the cache
        level that answered ("raw", "decided", or "fallback")."""
        cache = self.enable_cache
        if cache:
            cached = self._sat_cache.get(f)
            if cached is not None:
                self.stats.cache_hits += 1
                return cached, "raw"
        try:
            result = self._decide_satisfiable(f)
        except ProverError:
            # Resource blow-up (DNF or elimination limits): answer
            # conservatively — "may be satisfiable" makes every
            # validity query fail safe.  Recorded (not silent) and
            # never cached: the fallback is not a semantic result.
            self.stats.resource_fallbacks += 1
            return True, "fallback"
        if cache:
            self._sat_cache.put(f, result)
        return result, "decided"

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

    def _decide_satisfiable(self, f: Formula) -> bool:
        qf = self.eliminate_quantifiers(f)
        if isinstance(qf, TrueFormula):
            return True
        if isinstance(qf, FalseFormula):
            return False
        # Keys come lazily off the NNF tree, so a satisfiable query
        # builds only the keys up to its first satisfiable conjunct.
        for key in conjunct_keys(qf):
            self.stats.conjunct_queries += 1
            if key is not None and self._conjunct_decide_key(key):
                return True
        return False

    def _conjunct_decide_key(self, key) -> bool:
        """Decide a conjunct given its canonical frozenset key, through
        the per-conjunct cache.  Shared by the from-scratch path above
        and the delta path of
        :class:`~repro.logic.incremental.PrefixSession`, so both hit the
        same cache with the same keys."""
        if not key:
            return True  # every atom folded to true
        if self.enable_cache:
            cached = self._conjunct_cache.get(key)
            if cached is not None:
                self.stats.conjunct_cache_hits += 1
                return cached
        # A frozenset iterates in an order that depends on the hash
        # seed and on its insertion history; decide its atoms in a
        # process-stable order so the component split and the
        # short-circuit below do the same work in every process.
        result = self._conjunct_satisfiable(
            tuple(sorted(key, key=_atom_order)))
        if self.enable_cache:
            self._conjunct_cache.put(key, result)
        return result

    def _conjunct_satisfiable(self, atoms) -> bool:
        """Satisfiability of one conjunction of quantifier-free atoms.

        Obligation slicing: the conjunct is first decomposed into
        independent variable components (no variable chain connects
        them), each decided on its own — the conjunction is satisfiable
        iff every component is.  Section 5.2.3's difference-solver fast
        path decides a component that is a difference system by
        negative-cycle detection; the rest go to the Omega test."""
        components = _split_components(atoms)
        if len(components) > 1:
            self.stats.sliced_conjuncts += 1
            self.stats.slice_components += len(components)
        return all(self._component_satisfiable(component)
                   for component in components)

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
        if isinstance(f, (TrueFormula, FalseFormula, Geq, Eq, Cong)):
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
