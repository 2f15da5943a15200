"""Lazy canonical conjunct keys are the eager recipe, read on demand.

:func:`repro.logic.canonical.conjunct_keys` must yield exactly
``[canonical_conjunct(c) for c in to_dnf(f)]``, element by element and
in order, and :func:`repro.logic.normalize.dnf_length` must raise
exactly where ``to_dnf`` raises and otherwise return ``len(to_dnf(f))``
— those two facts are what keep every prover counter unchanged.  The
formulas are built with the raw ``And``/``Or`` constructors, so they
keep the TRUE/FALSE children and duplicates that ``conj``/``disj``
would fold away.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.logic.canonical as canonical
import repro.logic.incremental as incremental
import repro.logic.normalize as normalize
from repro.errors import ProverError
from repro.logic.canonical import canonical_conjunct, conjunct_keys
from repro.logic.formula import (
    And, Cong, Eq, FALSE, Geq, Or, TRUE, disj, exists, ge,
)
from repro.logic.memo import clear_all_caches
from repro.logic.normalize import dnf_length, to_dnf
from repro.logic.prover import Prover
from repro.logic.terms import Linear

_VARS = ["x", "y", "z"]

_atoms = st.builds(
    lambda coeffs, const, kind, mod: (
        Geq(Linear(coeffs, const)) if kind == 0
        else Eq(Linear(coeffs, const)) if kind == 1
        else Cong(Linear(coeffs, const), mod)),
    # Empty coefficient maps make ground atoms, which normalize to
    # TRUE (dropped from a key) or FALSE (a None key).
    st.dictionaries(st.sampled_from(_VARS), st.integers(-3, 3),
                    max_size=2),
    st.integers(-4, 4),
    st.integers(0, 2),
    st.sampled_from([2, 3]),
)

_leaves = st.one_of(_atoms, st.just(TRUE), st.just(FALSE))

_qf_nnf = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(lambda parts: And(tuple(parts)),
                  st.lists(children, min_size=1, max_size=4)),
        st.builds(lambda parts: Or(tuple(parts)),
                  st.lists(children, min_size=1, max_size=4))),
    max_leaves=24)


def _eager_keys(f):
    return [canonical_conjunct(c) for c in to_dnf(f)]


def _outcome(fn, f):
    try:
        return fn(f)
    except ProverError:
        return ProverError


@pytest.fixture(params=[0, 2, canonical._SMALL_NODE_KEYS],
                ids=["all-lazy", "tiny-lists", "default"])
def small_node_keys(request, monkeypatch):
    """Run with every node enumerated lazily, with tiny memoized lists,
    and at the shipped threshold, so both paths meet at every depth.
    (The setting is the same for every example, so a function-scoped
    fixture under ``@given`` is safe here.)"""
    monkeypatch.setattr(canonical, "_SMALL_NODE_KEYS", request.param)
    return request.param


class TestDnfLength:
    @given(_qf_nnf, st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_where_to_dnf_raises(self, f, bound):
        saved = normalize.MAX_DNF_CONJUNCTS
        normalize.MAX_DNF_CONJUNCTS = bound
        try:
            expected = _outcome(lambda g: len(to_dnf(g)), f)
            assert _outcome(dnf_length, f) == expected
        finally:
            normalize.MAX_DNF_CONJUNCTS = saved

    def test_false_last_child_after_oversized_product(self, monkeypatch):
        # 4 × 4 = 16 passes a bound of 10 before the FALSE child empties
        # the product again: to_dnf gives up on the intermediate
        # product, so dnf_length must too — not report 0.
        monkeypatch.setattr(normalize, "MAX_DNF_CONJUNCTS", 10)
        four = [Or(tuple(ge(v, k) for k in range(4))) for v in "xy"]
        f = And((four[0], four[1], FALSE))
        with pytest.raises(ProverError):
            to_dnf(f)
        with pytest.raises(ProverError):
            dnf_length(f)
        # The same parts in the other order never pass the bound.
        g = And((FALSE, four[0], four[1]))
        assert to_dnf(g) == [] and dnf_length(g) == 0

    def test_quantifier_raises(self):
        f = Or((ge("x", 0), exists(["q"], ge("q", 1))))
        with pytest.raises(ProverError):
            to_dnf(f)
        with pytest.raises(ProverError):
            dnf_length(f)

    def test_exact_length_beyond_the_bound_is_never_built(self):
        f = And(tuple(Or((ge("x%d" % i, 0), ge("y%d" % i, 0)))
                      for i in range(40)))
        with pytest.raises(ProverError):
            dnf_length(f)
        assert normalize._dnf_size(f)[0] == 2 ** 40


class TestKeyStream:
    @given(f=_qf_nnf)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stream_equals_eager_keys(self, small_node_keys, f):
        expected = _outcome(_eager_keys, f)
        assert _outcome(lambda g: list(conjunct_keys(g)), f) == expected

    @given(f=_qf_nnf)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stream_equals_eager_keys_without_memoization(
            self, small_node_keys, f):
        # From empty memo caches (nothing memoized yet), then warm.
        expected = _outcome(_eager_keys, f)
        clear_all_caches()
        lazy = lambda g: list(conjunct_keys(g))  # noqa: E731
        assert _outcome(lazy, f) == expected
        assert _outcome(lazy, f) == expected

    def test_raises_before_yielding(self, monkeypatch):
        monkeypatch.setattr(normalize, "MAX_DNF_CONJUNCTS", 3)
        f = And((Or((ge("x", 0), ge("x", 1))), Or((ge("y", 0),
                                                   ge("y", 1)))))
        with pytest.raises(ProverError):
            conjunct_keys(f)


def _counting(source, counter):
    def wrapper(f):
        for key in source(f):
            counter[0] += 1
            yield key
    return wrapper


class TestSessionReadsLazily:
    def test_satisfiable_query_builds_under_one_percent(self, monkeypatch):
        # prefix x ≥ 0; delta (∨ y ≥ k) ∧ (∨ z ≥ k) over 40 × 40 = 1,600
        # conjuncts.  The very first pair is satisfiable, so the session
        # needs one delta key; the eager recipe built all 1,600.
        built = [0]
        monkeypatch.setattr(incremental, "conjunct_keys",
                            _counting(incremental.conjunct_keys, built))
        prover = Prover()
        session = prover.prefix_session(ge("x", 0))
        built[0] = 0
        delta = And(tuple(disj(*(ge(v, k) for k in range(40)))
                          for v in "yz"))
        assert dnf_length(delta) >= 1000
        assert session.satisfiable_with(delta)
        assert prover.stats.incremental_queries == 1
        assert prover.stats.conjunct_queries == 1
        assert 0 < built[0] < dnf_length(delta) / 100

    def test_unsatisfiable_query_reads_every_key_once(self, monkeypatch):
        built = [0]
        monkeypatch.setattr(incremental, "conjunct_keys",
                            _counting(incremental.conjunct_keys, built))
        prover = Prover()
        # Two prefix conjuncts, both contradicting every delta conjunct.
        session = prover.prefix_session(
            disj(ge(Linear({"y": -1}, -100), 0),
                 ge(Linear({"y": -1}, -200), 0)))
        built[0] = 0
        delta = And(tuple(disj(*(ge(v, k) for k in range(40)))
                          for v in "yz"))
        assert not session.satisfiable_with(delta)
        assert built[0] == dnf_length(delta)
        assert prover.stats.conjunct_queries == 2 * dnf_length(delta)
