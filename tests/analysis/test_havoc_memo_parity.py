"""The phase-5 wlp memos change no verdict and no prover counter.

``repro.analysis.wlp`` memoizes quantifier-free havoc eliminations and
edge-condition formulas (``_HAVOC_CACHE``, ``_CONDITION_CACHE``).  Below
both are patched out with a cache that never stores, so every havoc is
eliminated and every condition built afresh, as before the memos; each
check must come out with a byte-identical verdict projection and
identical integer ``prover_stats``.  All checks are store-free and
unlimited.
"""

import json

import pytest

import repro.analysis.wlp as wlp
from repro.analysis.checker import SafetyChecker
from repro.analysis.options import CheckerOptions
from repro.analysis.report import result_to_json, verdict_projection
from repro.logic.memo import NullCache, clear_all_caches
from repro.policy.parser import parse_spec


@pytest.fixture
def unmemoized(monkeypatch):
    """A context that patches both memos out while it is open."""
    def patch():
        monkeypatch.setattr(wlp, "_HAVOC_CACHE",
                            NullCache(registered=False))
        monkeypatch.setattr(wlp, "_CONDITION_CACHE",
                            NullCache(registered=False))
    return patch


def _figure9(name):
    from repro.programs import all_programs
    program = next(p for p in all_programs() if p.name == name)
    return program.source, program.spec_text, "sparc"


def _fuzz(seed, arch):
    from repro.fuzz.generator import generate_sketch, lower, spec_text
    sketch = generate_sketch(seed)
    return lower(sketch, arch), spec_text(sketch, arch), arch


def _outcome(source, spec_text, arch):
    """Verdict projection, integer prover counters and havoc-memo hits
    of one cold check."""
    clear_all_caches()
    hits = wlp._HAVOC_CACHE.hits
    checker = SafetyChecker(source, parse_spec(spec_text),
                            options=CheckerOptions(), arch=arch)
    try:
        result = checker.check()
    finally:
        checker.close()
    projection = json.dumps(verdict_projection(result_to_json(result)),
                            sort_keys=True)
    counters = {name: value for name, value in result.prover_stats.items()
                if isinstance(value, int) and not isinstance(value, bool)}
    return projection, counters, wlp._HAVOC_CACHE.hits - hits


def _assert_parity(case, memo_hits, unmemoized):
    memoized = _outcome(*case)
    unmemoized()
    reference = _outcome(*case)
    assert memoized[0] == reference[0]
    assert memoized[1] == reference[1]
    assert reference[2] == 0
    # The case exercises the havoc memo (or, where it says so, has no
    # repeated havoc to reuse).
    assert (memoized[2] > 0) == memo_hits


@pytest.mark.parametrize("case, memo_hits", [
    pytest.param(_figure9("sum"), False, id="sum"),
    pytest.param(_figure9("hash"), False, id="hash"),
    pytest.param(_figure9("heapsort"), True, id="heapsort"),
])
def test_verdicts_match_without_memo(case, memo_hits, unmemoized):
    _assert_parity(case, memo_hits, unmemoized)


@pytest.mark.bench
@pytest.mark.parametrize("case, memo_hits", [
    pytest.param(_figure9("stack-smashing"), True, id="stack-smashing"),
    pytest.param(_figure9("md5"), False, id="md5"),
    pytest.param(_fuzz(41, "riscv"), False, id="fuzz-41-riscv"),
])
def test_verdicts_match_without_memo_heavy(case, memo_hits, unmemoized):
    _assert_parity(case, memo_hits, unmemoized)
