"""The prover caches are pure optimization: a cache-enabled checker
must return exactly the same verdict (safety, flagged instructions,
proof outcomes) as a cache-disabled one on every benchmark program.

The fast programs run in tier-1; the heavyweight rows (heap sorts,
stack-smashing, MD5) carry the ``bench`` marker and are exercised by
the benchmark CI job / ``pytest -m bench``.
"""

import pytest

from repro.analysis.options import CheckerOptions
from repro.programs import all_programs, fast_programs

#: The prover's result caches on (the defaults).
ENHANCED = CheckerOptions()

#: The paper's cache ablation: every query decided from scratch.
UNCACHED = CheckerOptions(enable_prover_cache=False)

#: Queries and conjuncts answered from a result cache.
CACHE_HITS = ("cache_hits", "canonical_cache_hits", "conjunct_cache_hits")

_FAST = {p.name for p in fast_programs()}


def _verdict(result):
    return (
        result.safe,
        tuple(sorted((v.index, v.category, v.phase)
                     for v in result.violations)),
        tuple(sorted((p.index, p.proved) for p in result.proofs)),
    )


def _check_equivalence(program):
    enhanced = program.check(options=ENHANCED)
    uncached = program.check(options=UNCACHED)
    assert _verdict(enhanced) == _verdict(uncached), \
        "cache-enabled and cache-disabled checkers disagree on %s" \
        % program.name
    assert enhanced.safe == program.expect_safe
    assert all(uncached.prover_stats[k] == 0 for k in CACHE_HITS)


@pytest.mark.parametrize(
    "program", fast_programs(), ids=lambda p: p.name)
def test_fast_programs_cache_on_off_equivalent(program):
    _check_equivalence(program)


@pytest.mark.bench
@pytest.mark.parametrize(
    "program",
    [p for p in all_programs() if p.name not in _FAST],
    ids=lambda p: p.name)
def test_heavy_programs_cache_on_off_equivalent(program):
    _check_equivalence(program)
