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
its delta and decides the pairwise unions

    key(p ∪ d) = key(p) | key(d)

— the same keys, in the same order, that the from-scratch path would
compute for the conjuncts of ``to_dnf(prefix ∧ delta)``, less the
trivially false ones: concatenating
DNF conjuncts gives the DNF of the conjunction, canonical conjunct
keys are unions over atoms, and the pairs are walked prefix-major.  So
both paths share the prover's conjunct cache and agree on every
verdict by construction.  The delta's keys come lazily off its NNF
tree (:func:`~repro.logic.canonical.conjunct_keys`) and are read once,
during the first prefix key: a satisfiable query stops at its first
satisfiable pair without building the rest of the delta's keys.
Resource limits mirror the plain path: the pairwise product is
bounded by the same ``MAX_DNF_CONJUNCTS``, checked from
:func:`~repro.logic.normalize.dnf_length` before any key is built, and
any :class:`~repro.errors.ProverError` degrades to the conservative
"may be satisfiable" fallback, never cached.

The one exception is a prefix whose own elimination or expansion
raises :class:`~repro.errors.ProverError`: such a session routes every
query through ``Prover.is_satisfiable`` on the full conjunction, which
may still decide it or hit its own resource fallback.  With the
prover's result caching off (``Prover(enable_cache=False)``, the
cache ablation) the session keeps no memo either.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ProverError
from repro.logic.canonical import (
    ConjunctKey, canonicalize, conjunct_keys,
)
from repro.logic.formula import (
    Formula, TrueFormula, conj, formula_size, neg,
)
from repro.logic.normalize import MAX_DNF_CONJUNCTS, dnf_length
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
            self._prefix_keys = [key for key in conjunct_keys(qf)
                                 if key is not None]
        except ProverError:
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
        prover.check_deadline()
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
            delta_keys = conjunct_keys(qf)
            if len(prefix_keys) * dnf_length(qf) > MAX_DNF_CONJUNCTS:
                raise ProverError("DNF blow-up: more than %d conjuncts"
                                  % MAX_DNF_CONJUNCTS)
            for key in _unions(prefix_keys, delta_keys):
                prover.stats.conjunct_queries += 1
                if prover._conjunct_decide_key(key):
                    return True, "decided"
            return False, "decided"
        except ProverError:
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


def _unions(prefix_keys: List[FrozenSet[Formula]],
            delta_keys: Iterable[ConjunctKey]
            ) -> Iterator[FrozenSet[Formula]]:
    """``p | d`` for every prefix key *p* and every non-None delta key
    *d*, prefix-major: the conjunct order of ``to_dnf(prefix ∧ delta)``.
    The delta stream is read once, lazily, during the first prefix key;
    its keys are kept only while more prefix keys remain to pair."""
    first = prefix_keys[0]
    if len(prefix_keys) == 1:
        for key in delta_keys:
            if key is not None:
                yield first | key
        return
    read = []
    for key in delta_keys:
        if key is not None:
            read.append(key)
            yield first | key
    for prefix_key in prefix_keys[1:]:
        for key in read:
            yield prefix_key | key
