"""Tunable knobs of the safety-checking analysis.

Defaults match the paper's prototype; the ablation benchmarks flip the
enhancement flags to measure their effect (paper Sections 5.2.1, 5.2.3,
and 6 discuss each).  The prover's own performance features (obligation
slicing, incremental prefix sessions, the difference-solver fast path,
formula memoization) are always on; ``enable_prover_cache`` is the one
switch left, the paper's cache ablation: the raw and per-conjunct
caches plus the session memo.
"""

from __future__ import annotations

import os
import sys
from dataclasses import InitVar, dataclass, field
from typing import Optional, Tuple


def _default_cache_path() -> Optional[str]:
    """Honor ``REPRO_CACHE`` when set ("" / unset means no cache)."""
    return os.environ.get("REPRO_CACHE") or None


def _default_trace_path() -> Optional[str]:
    """Honor ``REPRO_TRACE`` when set ("" / unset means no trace)."""
    return os.environ.get("REPRO_TRACE") or None


def valid_timeout(value) -> bool:
    """The one rule for a check budget (``timeout_s``): a finite number
    of seconds greater than zero.  The upper bound also rejects NaN
    (every comparison with it is false), infinity, and integers too
    large for a float."""
    return isinstance(value, (int, float)) \
        and not isinstance(value, bool) \
        and 0 < value <= sys.float_info.max


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
    #: whenever possible"): the prover's raw and per-conjunct result
    #: caches and its per-session memo.  Off decides every query from
    #: scratch.
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

    #: Path of the replay store (SQLite): phase 2–4 results and
    #: phase-5 verdict groups of earlier checks, replayed when their
    #: content digests match (:mod:`repro.analysis.units`); None
    #: disables it.  Replay is verdict-neutral by construction: it is
    #: parity-gated and aborts back to a full fresh run whenever
    #: independence cannot be established.  Defaults to
    #: ``$REPRO_CACHE`` when set.
    cache_path: Optional[str] = field(default_factory=_default_cache_path)

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
    #: limit, anything else must pass :func:`valid_timeout` (the
    #: constructor raises ``ValueError``).  A check that exceeds it
    #: aborts discharge cleanly and reports the distinct "undecided:
    #: timeout" verdict (``CheckResult.timed_out``) instead of
    #: certifying or rejecting.
    timeout_s: Optional[float] = None

    #: JSONL trace output path (``repro check --trace``); None disables
    #: tracing.  Defaults to ``$REPRO_TRACE`` when set.  Tracing is
    #: verdict-neutral: it never changes results or prover counters.
    trace_path: Optional[str] = field(default_factory=_default_trace_path)

    #: Constructor-only, not a field: phase 5 always runs in one
    #: process.  ``jobs=1`` is still accepted from callers that pass
    #: it; any other value raises ``ValueError``.
    jobs: InitVar[int] = 1

    def __post_init__(self, jobs: int) -> None:
        if jobs != 1:
            raise ValueError("jobs=%r: phase 5 runs in one process; "
                             "only jobs=1 is accepted" % (jobs,))
        if self.timeout_s is not None and not valid_timeout(self.timeout_s):
            raise ValueError("timeout_s=%r: a check budget is a finite "
                             "number of seconds > 0" % (self.timeout_s,))
