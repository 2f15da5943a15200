"""Tunable knobs of the safety-checking analysis.

Defaults match the paper's prototype; the ablation benchmarks flip the
enhancement flags to measure their effect (paper Sections 5.2.1, 5.2.3,
and 6 discuss each).  The prover's own performance features (obligation
slicing, incremental prefix sessions, the canonical and per-conjunct
caches, the difference-solver fast path, formula memoization) are
always on; ``enable_prover_cache`` is the one switch left, the paper's
cache ablation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Tuple


def _default_jobs() -> int:
    """Honor ``REPRO_JOBS`` (used by the CI matrix) when set."""
    value = os.environ.get("REPRO_JOBS", "").strip()
    try:
        return int(value) if value else 1
    except ValueError:
        return 1


def _default_cache_path() -> Optional[str]:
    """Honor ``REPRO_CACHE`` when set ("" / unset means no cache)."""
    return os.environ.get("REPRO_CACHE") or None


def _default_trace_path() -> Optional[str]:
    """Honor ``REPRO_TRACE`` when set ("" / unset means no trace)."""
    return os.environ.get("REPRO_TRACE") or None


@dataclass
class CheckerOptions:
    """Configuration for :class:`repro.analysis.checker.SafetyChecker`."""

    #: MAX_NUMBER_OF_ITERATIONS of the induction-iteration algorithm
    #: (paper Section 5.2.3: "it seems to be sufficient to set the
    #: maximum allowable number of iterations to three").
    max_induction_iterations: int = 3

    #: Enhancement 3: try the disjuncts of wlp(loop-body, W(i−1)) as
    #: W(i) candidates, breadth-first.
    enable_disjunct_candidates: bool = True

    #: Enhancement 4: generalization via Fourier–Motzkin elimination,
    #: ``generalize(f) = ¬(eliminate(¬f))``.
    enable_generalization: bool = True

    #: Enhancement 5: simplify formulas at junction points during
    #: backward VC generation.
    enable_junction_simplification: bool = True

    #: Enhancement 6: group comparable formulas at loop entries and
    #: prove only the strongest of each group.
    enable_formula_grouping: bool = True

    #: Planned enhancement implemented here (paper Section 5.2.3:
    #: "represent formulas in a canonical form and use previous results
    #: whenever possible"): the prover's raw, canonical-form and
    #: per-conjunct result caches and its per-session memo.  Off
    #: decides every query from scratch.
    enable_prover_cache: bool = True

    #: Section 6 extension: forward propagation of linear facts
    #: (Cousot–Halbwachs style); loop headers get ambient invariants
    #: that discharge conditions without induction iteration.
    enable_forward_bounds: bool = True

    #: Upper bound on candidate invariants explored per loop by the
    #: breadth-first search.
    max_invariant_candidates: int = 24

    #: Recursion guard for interprocedural wlp walks.
    max_call_depth: int = 8

    #: Worklist iteration guard for typestate propagation.
    max_propagation_steps: int = 200_000

    #: Worker processes for parallel proof discharge: 1 = serial
    #: (always bitwise-identical results), N > 1 = a process pool of N
    #: provers, 0/negative = one per CPU core.  Defaults to
    #: ``$REPRO_JOBS`` when set.
    jobs: int = field(default_factory=_default_jobs)

    #: Path of the persistent cross-run prover cache (SQLite); None
    #: disables it.  Defaults to ``$REPRO_CACHE`` when set.
    cache_path: Optional[str] = field(default_factory=_default_cache_path)

    #: Function-granular verdict reuse: when a persistent cache is
    #: configured, store per-function proved-obligation summaries keyed
    #: on (function-body digest, reaching typestate/spec context,
    #: verdict-affecting options) and replay them on re-checks whose
    #: digests match (``--no-unit-cache`` disables just this layer
    #: while keeping the formula-level cache).  Verdict-neutral by
    #: construction: replay is parity-gated and aborts back to a full
    #: fresh run whenever independence cannot be established.
    enable_unit_cache: bool = True

    #: Test-only fault injection for the differential fuzzer's
    #: self-test: obligation categories (e.g. ``"array-bounds"``) that
    #: the prover *assumes* instead of proving.  This deliberately
    #: makes the checker unsound so the fuzzing harness can demonstrate
    #: that it detects and reduces the resulting soundness violations.
    #: Never set outside tests; listed in
    #: ``repro.analysis.units.VERDICT_AFFECTING_OPTIONS`` so weakened
    #: runs can never pollute or replay against honest unit caches.
    unsound_assume_categories: Tuple[str, ...] = ()

    #: Wall-clock budget for one check, in seconds; None means no
    #: limit.  A check that exceeds it aborts discharge cleanly and
    #: reports the distinct "undecided: timeout" verdict
    #: (``CheckResult.timed_out``) instead of certifying or rejecting.
    timeout_s: Optional[float] = None

    #: Internal: the absolute ``time.time()`` deadline derived from
    #: ``timeout_s`` when a check starts.  Threaded through the pickled
    #: options payload so pool workers observe the same wall-clock
    #: budget as the parent; callers never set it directly.  This is
    #: the *only* epoch-seconds deadline in the pipeline: monotonic
    #: clocks are per-process, so the budget crosses the pool boundary
    #: as epoch time and each worker translates it back to its own
    #: ``time.monotonic()`` on arrival (see ``build_engine``).
    deadline_epoch: Optional[float] = None

    #: JSONL trace output path (``repro check --trace``); None disables
    #: tracing.  Defaults to ``$REPRO_TRACE`` when set.  Tracing is
    #: verdict-neutral: it never changes results or prover counters.
    trace_path: Optional[str] = field(default_factory=_default_trace_path)

    #: Record the exact query formula on every ``prover:query`` trace
    #: event (``repro check --trace-formulas``) in the portable form of
    #: :func:`repro.logic.serialize.formula_to_obj`, enabling
    #: ``repro bench --prover-replay`` on the resulting trace.  Off by
    #: default: formulas dominate trace size.
    trace_formulas: bool = False

    #: Internal: pool workers cannot share the parent's trace file, so
    #: when the parent is tracing it sets this flag in the pickled
    #: worker options; workers then trace into an in-memory buffer and
    #: ship the records back inside their result pickles.  Callers
    #: never set it directly.
    trace_spans: bool = False
