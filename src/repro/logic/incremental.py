"""Prover sessions: the one satisfiability query path.

The induction-iteration BFS and the WLP discharge path share one
query shape: a **fixed context** conjoined with a **small changing
delta** — ``facts ∧ chain ∧ ¬candidate`` with the same loop-header
facts on every query, or ``initial_constraints ∧ ¬q`` with the same
function-entry constraints for every obligation ``q``.  Re-eliminating
and re-expanding the whole conjunction each time would redo the
prefix's work, then re-canonicalize every atom of every prefix
conjunct.

A :class:`PrefixSession` does that work once.  At construction it
runs quantifier elimination on the prefix and keeps each prefix
conjunct as its canonical frozenset key (the per-conjunct cache key of
:class:`~repro.logic.prover.Prover`).  A query then only eliminates
its delta and runs the prover's branch-and-prune search over it once
per prefix key, starting from that key.  The leaves are the keys
``key(p ∪ d) = key(p) | key(d)``, prefix-major: the conjuncts of
``to_dnf(prefix ∧ delta)`` in order, since canonical conjunct keys are
unions over atoms.

A plain query is the empty-prefix case: ``Prover.is_satisfiable(f)``
is ``satisfiable_with(f)`` on the prover's own root session (prefix
true, one empty prefix key).  So :meth:`PrefixSession.satisfiable_with`
is the only place that counts a satisfiability query, answers it from
the session's raw memo (a result cache from
``Prover.result_cache``, which stores nothing under the cache
ablation), bounds the pairwise DNF product by ``MAX_DNF_CONJUNCTS``,
turns a resource failure into the conservative "may be satisfiable"
fallback (counted, never cached), and emits ``prover:query``.  Only
queries of sessions other than the root count as
``incremental_queries``.

A prefix whose own elimination or expansion fails on a resource limit
makes a session that routes every query through
``Prover.is_satisfiable`` on the full conjunction, which may still
decide it or hit its own resource fallback.
"""

from __future__ import annotations

import time
from typing import FrozenSet, List, Optional, Tuple

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
    interned delta formula."""

    def __init__(self, prover, prefix: Formula):
        self.prover = prover
        self.prefix = prefix
        self._memo = prover.result_cache()
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
        stats = prover.stats
        stats.satisfiability_queries += 1
        if self is not prover._root:
            stats.incremental_queries += 1
        t0 = time.perf_counter() if prover.tracer.enabled else 0.0
        result = self._memo.get(extra)
        if result is not None:
            stats.cache_hits += 1
            source = "raw"
        else:
            result, source = self._decide_delta(extra)
            if source != "fallback":
                self._memo.put(extra, result)
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
            # Conservative degradation: "may be satisfiable" fails safe
            # for validity, and is not cached.
            prover.stats.resource_fallbacks += 1
            return True, "fallback"

    def _trace_query(self, extra: Formula, result: bool, source: str,
                     seconds: float) -> None:
        """Emit the ``prover:query`` event for the full conjunction the
        session decided."""
        full = conj(self.prefix, extra)
        self.prover.tracer.event(
            "prover:query",
            digest=canonical_digest(canonicalize(full)),
            cache=source,
            formula_size=formula_size(full),
            seconds=seconds,
            result=result)

