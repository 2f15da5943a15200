"""The Omega-overhaul features (obligation slicing, incremental
sessions) are pure optimizations: every ablation must return exactly
the same verdict, proof outcomes, and violations on the benchmark
corpus.

The fast programs run in tier-1; the heavyweight rows carry the
``bench`` marker, mirroring ``test_cache_equivalence.py``.  The
``benchmarks/parity_check.py --ablations`` gate covers the same
configurations from the CLI side.
"""

import pytest

from repro.analysis.options import CheckerOptions
from repro.programs import all_programs, fast_programs

ABLATIONS = {
    "no-slicing": dict(enable_slicing=False),
    "no-incremental": dict(enable_incremental=False),
    "all-off": dict(enable_slicing=False, enable_incremental=False),
}

_FAST = {p.name for p in fast_programs()}


def _verdict(result):
    return (
        result.safe,
        tuple(sorted((v.index, v.category, v.phase)
                     for v in result.violations)),
        tuple(sorted((p.index, p.proved) for p in result.proofs)),
    )


def _check_ablations(program):
    reference = _verdict(program.check(options=CheckerOptions()))
    for name, overrides in ABLATIONS.items():
        result = program.check(options=CheckerOptions(**overrides))
        assert _verdict(result) == reference, \
            "%s changed the verdict on %s" % (name, program.name)


@pytest.mark.parametrize(
    "program", fast_programs(), ids=lambda p: p.name)
def test_fast_programs_ablation_equivalent(program):
    _check_ablations(program)


@pytest.mark.bench
@pytest.mark.parametrize(
    "program",
    [p for p in all_programs() if p.name not in _FAST],
    ids=lambda p: p.name)
def test_heavy_programs_ablation_equivalent(program):
    _check_ablations(program)
