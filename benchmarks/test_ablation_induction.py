"""Ablations of the induction-iteration enhancements (paper Sections
5.2.1 and 6: "There are several strategies that makes the
induction-iteration method more effective").

Each ablation flips one CheckerOptions flag and measures its effect on
the examples that exercise it:

* *generalization off* — the sum upper bound becomes unprovable (the
  chain can never learn %o1 ≤ n);
* *prover cache off* — same verdicts, no query answered from a cache;
* *formula grouping off* — same verdicts, more induction runs.
"""

import pytest

from repro.analysis.options import CheckerOptions
from repro.programs import BUBBLE_SORT, SUM


def _options(**overrides):
    options = CheckerOptions()
    # These ablations isolate the induction-iteration enhancements, so
    # the forward-bounds extension (which can discharge the same
    # conditions on its own — see test_ablation_forward_bounds) is
    # pinned off: this is the paper's base configuration.
    options.enable_forward_bounds = False
    for key, value in overrides.items():
        setattr(options, key, value)
    return options


class TestGeneralizationAblation:
    def test_sum_fails_without_generalization(self, benchmark):
        result = benchmark.pedantic(
            SUM.check, args=(_options(enable_generalization=False),),
            rounds=1, iterations=1)
        assert not result.safe
        assert any(v.category == "array-bounds"
                   for v in result.violations)

    def test_sum_verifies_with_generalization(self, benchmark):
        result = benchmark.pedantic(
            SUM.check, args=(_options(enable_generalization=True),),
            rounds=1, iterations=1)
        assert result.safe

    def test_bubble_sort_fails_without_generalization(self, benchmark):
        result = benchmark.pedantic(
            BUBBLE_SORT.check,
            args=(_options(enable_generalization=False),),
            rounds=1, iterations=1)
        assert not result.safe


#: The prover_stats counters of queries and conjuncts answered from a
#: result cache (the session memo counts as a raw-cache hit).
CACHE_HITS = ("cache_hits", "conjunct_cache_hits")


class TestCacheAblation:
    def test_cache_off_answers_nothing_from_a_cache(self, benchmark):
        cached = SUM.check(_options(enable_prover_cache=True))
        uncached = benchmark.pedantic(
            SUM.check, args=(_options(enable_prover_cache=False),),
            rounds=1, iterations=1)
        assert cached.safe and uncached.safe
        assert cached.violations == uncached.violations
        assert [(p.uid, p.proved) for p in cached.proofs] \
            == [(p.uid, p.proved) for p in uncached.proofs]
        assert sum(cached.prover_stats[k] for k in CACHE_HITS) > 0
        assert all(uncached.prover_stats[k] == 0 for k in CACHE_HITS)


class TestGroupingAblation:
    def test_grouping_reduces_induction_runs(self, benchmark):
        grouped = BUBBLE_SORT.check(
            _options(enable_formula_grouping=True))
        ungrouped = benchmark.pedantic(
            BUBBLE_SORT.check,
            args=(_options(enable_formula_grouping=False),),
            rounds=1, iterations=1)
        assert grouped.safe and ungrouped.safe
        assert grouped.induction_runs <= ungrouped.induction_runs
        print("\ninduction runs: grouped=%d, ungrouped=%d"
              % (grouped.induction_runs, ungrouped.induction_runs))


class TestJunctionSimplificationAblation:
    def test_verdicts_stable_without_simplification(self, benchmark):
        # Correctness must not depend on the formula-size optimization.
        result = benchmark.pedantic(
            SUM.check,
            args=(_options(enable_junction_simplification=False),),
            rounds=1, iterations=1)
        assert result.safe
