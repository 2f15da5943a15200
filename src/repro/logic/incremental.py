"""Incremental constraint addition: the persistent-prefix prover API.

The induction-iteration BFS and the WLP discharge path share one
query shape: a **fixed context** conjoined with a **small changing
delta** — ``facts ∧ chain ∧ ¬candidate`` with the same loop-header
facts on every query, or ``initial_constraints ∧ ¬q`` with the same
function-entry constraints for every obligation ``q``.  The from-
scratch pipeline re-eliminates and re-expands the whole conjunction
each time, then re-canonicalizes every atom of every prefix conjunct.

A :class:`PrefixSession` does that work once.  At construction it
runs quantifier elimination on the prefix and keeps each prefix
conjunct as its canonical frozenset key (the per-conjunct cache key of
:class:`~repro.logic.prover.Prover`).  A query then only eliminates
its delta and runs the prover's branch-and-prune search over it once
per prefix key, starting from that key.  The leaves are the keys
``key(p ∪ d) = key(p) | key(d)``, prefix-major: the conjuncts of
``to_dnf(prefix ∧ delta)`` in order, since canonical conjunct keys are
unions over atoms.  So both paths share the prover's conjunct cache
and agree on every verdict by construction.  Resource limits mirror
the plain path: the pairwise product is bounded by the same
``MAX_DNF_CONJUNCTS`` before the search, and a resource failure
degrades to the conservative "may be satisfiable" fallback, never
cached.

The one exception is a prefix whose own elimination or expansion
fails on a resource limit: such a session routes every
query through ``Prover.is_satisfiable`` on the full conjunction, which
may still decide it or hit its own resource fallback.  With the
prover's result caching off (``Prover(enable_cache=False)``, the
cache ablation) the session keeps no memo either.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro import budget
from repro.errors import ProverError
from repro.logic.canonical import canonicalize, leaf_keys
from repro.logic.formula import (
    Formula, TrueFormula, conj, formula_size, neg,
)
from repro.logic import normalize
from repro.logic.prover import RESOURCE_ERRORS
from repro.logic.serialize import canonical_digest

__all__ = ["PrefixSession"]


class PrefixSession:
    """A prover session with a persistent, pre-processed prefix.

    ``satisfiable_with(extra)`` decides ``prefix ∧ extra``;
    ``implies(goal, extra=None)`` decides ``prefix ∧ extra → goal``;
    ``refutes(extra)`` decides whether ``prefix ∧ extra`` is
    unsatisfiable (the candidate-filter shape ``atom → body`` with
    ``prefix = ¬body``).  Results are memoized per session keyed on the
    interned delta formula, unless the prover's caching is off."""

    def __init__(self, prover, prefix: Formula):
        self.prover = prover
        self.prefix = prefix
        self._memo: Dict[Formula, bool] = {}
        #: Canonical frozenset keys of the prefix DNF conjuncts
        #: (trivially-false conjuncts dropped); None when the prefix
        #: was too big to pre-process.
        self._prefix_keys: Optional[List[FrozenSet[Formula]]] = None
        try:
            qf = prover.eliminate_quantifiers(prefix)
            normalize.dnf_length(qf)  # the bound, before any key
            self._prefix_keys = [key for key, _ in leaf_keys(qf)]
        except RESOURCE_ERRORS:
            # Run every query through the plain path instead, which
            # may still decide it or hit its own resource fallback.
            pass

    # -- public queries ------------------------------------------------------

    def implies(self, goal: Formula, extra: Optional[Formula] = None
                ) -> bool:
        """Validity of ``prefix ∧ extra → goal``."""
        self.prover.stats.validity_queries += 1
        if extra is None or isinstance(extra, TrueFormula):
            delta = neg(goal)
        else:
            delta = conj(extra, neg(goal))
        return not self.satisfiable_with(delta)

    def refutes(self, extra: Formula) -> bool:
        """Is ``prefix ∧ extra`` unsatisfiable?  (``extra → body`` is
        valid iff ``¬body ∧ extra`` is unsatisfiable.)"""
        self.prover.stats.validity_queries += 1
        return not self.satisfiable_with(extra)

    def satisfiable_with(self, extra: Formula) -> bool:
        """Satisfiability of ``prefix ∧ extra``."""
        prover = self.prover
        if self._prefix_keys is None:
            return prover.is_satisfiable(conj(self.prefix, extra))
        budget.check()
        prover.stats.satisfiability_queries += 1
        prover.stats.incremental_queries += 1
        t0 = time.perf_counter() if prover.tracer.enabled else 0.0
        cached = self._memo.get(extra) if prover.enable_cache else None
        if cached is not None:
            prover.stats.cache_hits += 1
            result, source = cached, "raw"
        else:
            result, source = self._decide_delta(extra)
            if source != "fallback" and prover.enable_cache:
                self._memo[extra] = result
        if prover.tracer.enabled:
            self._trace_query(extra, result, source,
                              time.perf_counter() - t0)
        return result

    # -- internals -----------------------------------------------------------

    def _decide_delta(self, extra: Formula) -> Tuple[bool, str]:
        prover = self.prover
        prefix_keys = self._prefix_keys
        if not prefix_keys:
            return False, "decided"  # unsatisfiable prefix
        try:
            qf = prover.eliminate_quantifiers(extra)
            bound = normalize.MAX_DNF_CONJUNCTS
            if len(prefix_keys) * normalize.dnf_length(qf) > bound:
                raise ProverError("DNF blow-up: more than %d conjuncts"
                                  % bound)
            return any(prover._search(qf, key)
                       for key in prefix_keys), "decided"
        except RESOURCE_ERRORS:
            # Same conservative degradation as Prover._query: "may be
            # satisfiable" fails safe for validity, and is not cached.
            prover.stats.resource_fallbacks += 1
            return True, "fallback"

    def _trace_query(self, extra: Formula, result: bool, source: str,
                     seconds: float) -> None:
        """Emit the same ``prover:query`` event the plain path would,
        for the full conjunction the session decided."""
        full = conj(self.prefix, extra)
        self.prover.tracer.event(
            "prover:query",
            digest=canonical_digest(canonicalize(full)),
            cache=source,
            formula_size=formula_size(full),
            seconds=seconds,
            result=result)

