"""The branch-and-prune search changes no verdict and no query counter.

The prover decides by a depth-first search that prunes every
extension of an unsatisfiable partial conjunction
(:func:`repro.logic.canonical.leaf_keys`).  The eager recipe — expand
``to_dnf``, canonicalize every conjunct with ``canonical_conjunct``,
then decide every key in turn, pairwise and prefix-major — is copied
below and patched into :class:`~repro.logic.incremental.PrefixSession`,
the one decide path (a plain query is its empty-prefix case).  Every
check must come out with a byte-identical verdict projection and
identical query-level ``prover_stats``: queries, raw-memo hits,
session queries and ``resource_fallbacks``.  The conjunct-level
counters count the keys decided, prune checks included, so they are
free to differ.  All checks are store-free and unlimited.
"""

import json

import pytest

from repro.analysis.checker import SafetyChecker
from repro.analysis.options import CheckerOptions
from repro.analysis.report import result_to_json, verdict_projection
from repro.errors import ProverError
from repro.logic.canonical import canonical_conjunct
from repro.logic.formula import FalseFormula, TrueFormula
from repro.logic.incremental import PrefixSession
from repro.logic.memo import clear_all_caches
from repro.logic.normalize import MAX_DNF_CONJUNCTS, to_dnf
from repro.logic.prover import RESOURCE_ERRORS
from repro.policy.parser import parse_spec


# -- the eager reference recipe ---------------------------------------------


def _eager_decide_delta(self, extra):
    prover = self.prover
    if not self._prefix_keys:
        return False, "decided"
    try:
        qf = prover.eliminate_quantifiers(extra)
        if isinstance(qf, FalseFormula):
            return False, "decided"
        if isinstance(qf, TrueFormula):
            delta_dnf = [()]
        else:
            delta_dnf = to_dnf(qf)
        if len(self._prefix_keys) * len(delta_dnf) > MAX_DNF_CONJUNCTS:
            raise ProverError("DNF blow-up")
        delta_keys = [key for key in map(canonical_conjunct, delta_dnf)
                      if key is not None]
        if not delta_keys:
            return False, "decided"
        for prefix_key in self._prefix_keys:
            for delta_key in delta_keys:
                prover.stats.conjunct_queries += 1
                if prover._conjunct_decide_key(prefix_key | delta_key):
                    return True, "decided"
        return False, "decided"
    except RESOURCE_ERRORS:
        prover.stats.resource_fallbacks += 1
        return True, "fallback"


@pytest.fixture
def eager(monkeypatch):
    """A context that patches the eager recipe in while it is open."""
    def patch():
        monkeypatch.setattr(PrefixSession, "_decide_delta",
                            _eager_decide_delta)
    return patch


# -- the checks ---------------------------------------------------------------


def _figure9(name):
    from repro.programs import all_programs
    program = next(p for p in all_programs() if p.name == name)
    return program.source, program.spec_text, "sparc"


def _fuzz(seed, arch):
    from repro.fuzz.generator import generate_sketch, lower, spec_text
    sketch = generate_sketch(seed)
    return lower(sketch, arch), spec_text(sketch, arch), arch


def _outcome(source, spec_text, arch):
    clear_all_caches()
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
    return projection, counters


#: Counters of whole queries, which only the answers drive.
QUERY_COUNTERS = ("validity_queries", "satisfiability_queries",
                  "cache_hits", "incremental_queries",
                  "resource_fallbacks")


def _assert_parity(case, eager):
    search = _outcome(*case)
    eager()
    reference = _outcome(*case)
    assert search[0] == reference[0]
    for name in QUERY_COUNTERS:
        assert search[1][name] == reference[1][name], name
    assert search[1]["conjunct_queries"] > 0


@pytest.mark.parametrize("case", [
    pytest.param(_figure9("sum"), id="sum"),
    pytest.param(_figure9("hash"), id="hash"),
    pytest.param(_fuzz(47, "riscv"), id="fuzz-47-riscv"),
])
def test_counters_match_eager_recipe(case, eager):
    _assert_parity(case, eager)


@pytest.mark.bench
@pytest.mark.parametrize("case", [
    pytest.param(_figure9("md5"), id="md5"),
    pytest.param(_fuzz(41, "riscv"), id="fuzz-41-riscv"),
])
def test_counters_match_eager_recipe_heavy(case, eager):
    _assert_parity(case, eager)
