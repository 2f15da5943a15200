"""The branch-and-prune search decides exactly what DNF enumeration
decides.

:func:`repro.logic.canonical.leaf_keys` walks a quantifier-free NNF
tree depth first.  With no prune check, or one that never refutes, it
must yield exactly the non-None keys of
``[canonical_conjunct(c) for c in to_dnf(f)]``, in order; a refuting
check may only drop keys.  :func:`repro.logic.normalize.dnf_length`
must raise exactly where ``to_dnf`` raises and otherwise return
``len(to_dnf(f))``: that bound, checked before the search, is what
keeps every resource fallback where it was.  The prover built on the
search is checked against a decision of every DNF conjunct by the
Omega test, plainly and through a prefix session.  The formulas are
built with the raw ``And``/``Or`` constructors, so they keep the
TRUE/FALSE children and duplicates that ``conj``/``disj`` would fold
away.
"""

import time

import pytest
from hypothesis import (
    HealthCheck, assume, example, given, settings, strategies as st,
)

import repro.logic.normalize as normalize
from repro import budget
from repro.errors import ProverError, ProverTimeout
from repro.logic.canonical import EMPTY_KEY, canonical_conjunct, leaf_keys
from repro.logic.formula import (
    And, Cong, Eq, FALSE, Geq, Or, TRUE, conj, disj, exists, ge,
)
from repro.logic.memo import clear_all_caches
from repro.logic.normalize import dnf_length, to_dnf
from repro.logic.omega import Constraints, satisfiable
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
                    max_size=3),
    st.integers(-4, 4),
    st.integers(0, 2),
    st.sampled_from([2, 3]),
)

_leaves = st.one_of(_atoms, st.just(TRUE), st.just(FALSE))


def _nested(depth):
    """Quantifier-free NNF formulas nested at most *depth* levels."""
    if depth == 0:
        return _leaves
    children = _nested(depth - 1)
    return st.one_of(
        _leaves,
        st.builds(lambda parts: And(tuple(parts)),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda parts: Or(tuple(parts)),
                  st.lists(children, min_size=1, max_size=3)))


_qf_nnf = _nested(4)

#: Largest DNF the Omega oracle below enumerates.
_ORACLE_CONJUNCTS = 400


def _eager_keys(f):
    return [key for key in map(canonical_conjunct, to_dnf(f))
            if key is not None]


def _leaf_list(f, start=EMPTY_KEY, check=None):
    return [key for key, _ in leaf_keys(f, start, check)]


def _oracle(f):
    """Satisfiability by the Omega test on every DNF conjunct."""
    return any(satisfiable(Constraints.from_atoms(atoms))
               for atoms in to_dnf(f))


def _small(f):
    try:
        return dnf_length(f) <= _ORACLE_CONJUNCTS
    except ProverError:
        return False


def _outcome(fn, f):
    try:
        return fn(f)
    except ProverError:
        return ProverError


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


#: Prune checks that never refute: the stream must stay the eager keys.
_CHECKS = {
    "no-check": None,
    "never-refutes": lambda key: True,
    "check-fails": lambda key: None,
}


@pytest.fixture(params=list(_CHECKS.values()), ids=list(_CHECKS))
def check(request):
    return request.param


class TestKeyStream:
    @given(f=_qf_nnf)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stream_equals_eager_keys(self, check, f):
        assume(_small(f))
        assert _leaf_list(f, check=check) == _eager_keys(f)

    @given(f=_qf_nnf)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stream_equals_eager_keys_without_memoization(self, check, f):
        # From empty memo caches (nothing memoized yet), then warm.
        assume(_small(f))
        expected = _eager_keys(f)
        clear_all_caches()
        assert _leaf_list(f, check=check) == expected
        assert _leaf_list(f, check=check) == expected

    def test_raises_before_yielding(self, monkeypatch):
        # The DNF bound is checked before the search decides any key.
        monkeypatch.setattr(normalize, "MAX_DNF_CONJUNCTS", 3)
        f = And((Or((ge("x", 0), ge("x", 1))), Or((ge("y", 0),
                                                   ge("y", 1)))))
        prover = Prover()
        assert prover.is_satisfiable(f)
        assert prover.stats.resource_fallbacks == 1
        assert prover.stats.conjunct_queries == 0
        session = prover.prefix_session(ge("z", 0))
        assert session.satisfiable_with(f)
        assert prover.stats.resource_fallbacks == 2
        assert prover.stats.conjunct_queries == 0

    @given(f=_qf_nnf, start=st.lists(_atoms, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_leaves_extend_the_start_key(self, f, start):
        assume(_small(f))
        key = canonical_conjunct(start)
        assume(key is not None)
        assert _leaf_list(f, key) == [key | leaf for leaf in _eager_keys(f)]

    @given(f=_qf_nnf, refuted=_atoms)
    @settings(max_examples=200, deadline=None)
    def test_a_refuting_check_only_drops_refuted_extensions(
            self, f, refuted):
        # The check refutes every key holding one chosen atom: the
        # survivors are the eager keys in order, less some that hold it.
        atom = canonical_conjunct((refuted,))
        assume(_small(f) and atom)
        leaves = _leaf_list(f, check=lambda key: not atom <= key)
        eager = _eager_keys(f)
        survivors = iter(eager)
        assert all(leaf in survivors for leaf in leaves)  # a subsequence
        dropped = [key for key in eager if key not in leaves]
        assert all(atom <= key for key in dropped)

    def test_known_marks_a_leaf_the_check_already_decided(self):
        # Two of the last ∨'s alternatives add no atom, so the check's
        # verdict on the key at that ∨ is theirs.
        x0, x5 = ge("x", 0), ge("x", -5)
        f = And((x0, Or((TRUE, x0, x5))))
        assert list(leaf_keys(f, check=lambda key: True)) == [
            (frozenset({x0}), True), (frozenset({x0}), True),
            (frozenset({x0, x5}), False)]
        assert [known for _, known in
                leaf_keys(f, check=lambda key: None)] == [False] * 3

    def test_no_check_where_it_cannot_pay(self):
        # A path's last ∨ with two leaves below it: a check would save
        # at most one decision.  With a third leaf, or another ∨ still
        # to come, the key is checked.
        checked = []

        def check(key):
            checked.append(key)
            return True
        two = Or((ge("y", 0), ge("y", 1)))
        three = Or((ge("y", 0), ge("y", 1), ge("y", 2)))
        _leaf_list(And((ge("x", 0), two)), check=check)
        assert checked == []
        _leaf_list(And((ge("x", 0), three)), check=check)
        assert checked == [frozenset({ge("x", 0)})]
        checked.clear()
        _leaf_list(And((ge("x", 0), two, two.parts[0])), check=check)
        assert checked == []
        _leaf_list(And((ge("x", 0), two, Or((ge("z", 0), ge("z", 1))))),
                   check=check)
        assert checked == [frozenset({ge("x", 0)})]

    def test_a_false_atom_prunes_before_any_check(self):
        calls = []
        f = And((Or((ge("x", 0), ge("y", 0))), Geq(Linear({}, -1)),
                 Or((ge("z", 0), ge("z", 1)))))
        assert _leaf_list(f, check=calls.append) == []
        assert calls == []

    def test_deep_nesting_needs_no_recursion(self):
        f = ge("x", 0)
        for depth in range(3000):
            f = (And if depth % 2 else Or)((ge("y%d" % depth, 0), f))
        assert len(_leaf_list(f)) == 1501

    def test_an_expired_budget_stops_the_walk(self):
        f = And((Or((ge("x", 0), ge("x", 1))), Or((ge("y", 0),
                                                   ge("y", 1)))))
        with budget.limit(1e-9):
            time.sleep(0.01)
            with pytest.raises(ProverTimeout):
                _leaf_list(f)
            with pytest.raises(ProverTimeout):
                Prover()._search(f, EMPTY_KEY)


#: 1 ≤ x ≤ 0: unsatisfiable with no ∨ to check at.
_X_BETWEEN_1_AND_0 = And((ge("x", 1), Geq(Linear({"x": -1}, 0))))


class TestSearchDecides:
    @given(f=_qf_nnf)
    @example(f=_X_BETWEEN_1_AND_0)
    @example(f=And((ge("y", 0), _X_BETWEEN_1_AND_0)))
    @example(f=Or((_X_BETWEEN_1_AND_0, And((ge("y", 0), ge("x", 1))))))
    @settings(max_examples=300, deadline=None)
    def test_is_satisfiable_equals_the_omega_oracle(self, f):
        assume(_small(f))
        expected = _oracle(f)
        for cache in (True, False):
            prover = Prover(enable_cache=cache)
            assert prover.is_satisfiable(f) == expected
            assert prover.is_satisfiable(f) == expected
            assert prover.stats.resource_fallbacks == 0

    @given(prefix=_nested(2), deltas=st.lists(_nested(3), min_size=1,
                                              max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_a_session_query_equals_the_plain_query(self, prefix, deltas):
        assume(_small(prefix) and all(map(_small, deltas)))
        session = Prover().prefix_session(prefix)
        plain = Prover()
        for delta in deltas:
            assert session.satisfiable_with(delta) \
                == plain.is_satisfiable(conj(prefix, delta))

    @given(f=_qf_nnf)
    @settings(max_examples=200, deadline=None)
    def test_a_failing_prune_check_does_not_change_the_answer(self, f):
        assume(_small(f))
        prover = _FailingPruneProver()
        assert prover.is_satisfiable(f) == _oracle(f)
        assert prover.stats.resource_fallbacks == 0
        session = _FailingPruneProver().prefix_session(ge("x", 0))
        assert session.satisfiable_with(f) \
            == _oracle(conj(ge("x", 0), f))
        assert session.prover.stats.resource_fallbacks == 0

    def test_a_failing_leaf_is_the_query_fallback(self):
        prover = _FailingLeafProver()
        f = conj(ge("x", 0), disj(ge("y", 0), ge("z", 0)))
        assert prover.is_satisfiable(f)
        assert prover.is_satisfiable(f)  # the fallback is not cached
        assert prover.stats.resource_fallbacks == 2
        assert prover.stats.cache_hits == 0


    def test_a_leaf_reuses_the_components_its_prune_check_decided(self):
        # The check at the ∨ decides {x ≥ 0} and {y ≥ 0} apart; the
        # first leaf adds y ≥ 1, so only its y component is new.
        x0 = ge("x", 0)
        f = And((x0, ge("y", 0), Or(tuple(ge("y", k) for k in (1, 2, 3)))))
        for cache, x_decisions in ((True, 1), (False, 2)):
            prover = _ComponentLog(enable_cache=cache)
            assert prover.is_satisfiable(f)
            assert prover.decided.count(frozenset({x0})) == x_decisions


class _ComponentLog(Prover):
    """Records every variable component it decides."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.decided = []

    def _component_satisfiable(self, atoms):
        self.decided.append(frozenset(atoms))
        return super()._component_satisfiable(atoms)


class _FailingPruneProver(Prover):
    """Every prune check hits a resource limit; leaves decide normally."""

    def _prune_check(self, key):
        self._pruning = True
        try:
            return super()._prune_check(key)
        finally:
            self._pruning = False

    def _conjunct_decide_key(self, key):
        if getattr(self, "_pruning", False):
            raise ProverError("prune check too big")
        return super()._conjunct_decide_key(key)


class _FailingLeafProver(Prover):
    """Every decision of a two-atom key hits a resource limit."""

    def _conjunct_decide_key(self, key):
        if len(key) == 2:
            raise ProverError("leaf too big")
        return super()._conjunct_decide_key(key)


def _forty_by_forty():
    """(∨ y ≥ k) ∧ (∨ z ≥ k) for k < 40: 1,600 DNF conjuncts."""
    return And(tuple(disj(*(ge(v, k) for k in range(40))) for v in "yz"))


class TestSessionReadsLazily:
    def test_satisfiable_query_builds_under_one_percent(self):
        # prefix x ≥ 0: the prefix key, then it with y ≥ 0 at the z
        # disjunction, then the first leaf — 3 decisions of 1,600.
        prover = Prover()
        session = prover.prefix_session(ge("x", 0))
        delta = _forty_by_forty()
        assert session.satisfiable_with(delta)
        assert prover.stats.incremental_queries == 1
        assert prover.stats.conjunct_queries <= 3
        assert prover.stats.conjunct_queries < dnf_length(delta) / 100

    def test_unsatisfiable_query_is_linear_in_the_or_widths(self):
        # Both prefix conjuncts contradict every y alternative: per
        # prefix key, one check at the y disjunction and one per y
        # alternative at the z disjunction prune all 1,600 products.
        prover = Prover()
        session = prover.prefix_session(
            disj(ge(Linear({"y": -1}, -100), 0),
                 ge(Linear({"y": -1}, -200), 0)))
        delta = _forty_by_forty()
        assert not session.satisfiable_with(delta)
        assert prover.stats.conjunct_queries <= 2 * (1 + 40)
