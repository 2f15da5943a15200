"""Tests of the performance layer: hash-consing of terms and formulas,
the bounded memo caches, the canonical form used for prover caching,
and the prover's cache/fallback bookkeeping."""

import pytest

from repro.errors import ProverError
from repro.logic.canonical import canonical_conjunct, canonicalize
from repro.logic.formula import (
    And, Cong, Eq, Exists, FALSE, Forall, Geq, Not, Or, TRUE,
    conj, disj, eq, exists, forall, formula_interning_enabled,
    formula_size, ge, has_quantifier, neg, set_formula_interning,
)
from repro.logic.memo import BoundedCache, clear_all_caches
from repro.logic.normalize import to_nnf
from repro.logic.prover import Prover
from repro.logic.terms import (
    Linear, linear, set_term_interning, term_interning_enabled,
)


def v(name):
    return linear(name)


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


class TestInterning:
    def test_equal_terms_are_identical(self):
        a = Linear({"x": 2, "y": -3}, 7)
        b = Linear({"y": -3, "x": 2}, 7)
        assert a is b

    def test_zero_coefficients_are_dropped_before_interning(self):
        assert Linear({"x": 1, "y": 0}, 0) is Linear({"x": 1}, 0)

    def test_equal_formulas_are_identical(self):
        a = conj(ge(v("x"), 0), ge(v("y"), 1))
        b = conj(ge(v("x"), 0), ge(v("y"), 1))
        assert a is b

    def test_distinct_formulas_are_distinct(self):
        assert ge(v("x"), 0) is not ge(v("x"), 1)
        assert Geq(Linear({"x": 1}, 0)) is not Eq(Linear({"x": 1}, 0))

    def test_quantifiers_intern(self):
        a = Exists(("x",), ge(v("x"), 0))
        b = Exists(("x",), ge(v("x"), 0))
        assert a is b
        assert a is not Forall(("x",), ge(v("x"), 0))

    def test_structural_equality_survives_interning_off(self):
        set_term_interning(False)
        set_formula_interning(False)
        try:
            a = conj(ge(v("x"), 0), eq(v("y"), v("x")))
            b = conj(ge(v("x"), 0), eq(v("y"), v("x")))
            assert a is not b
            assert a == b
            assert hash(a) == hash(b)
        finally:
            set_term_interning(True)
            set_formula_interning(True)
        assert term_interning_enabled()
        assert formula_interning_enabled()

    def test_interned_and_uninterned_nodes_compare_equal(self):
        interned = ge(v("x"), 5)
        set_formula_interning(False)
        set_term_interning(False)
        try:
            plain = ge(v("x"), 5)
        finally:
            set_term_interning(True)
            set_formula_interning(True)
        assert interned == plain and hash(interned) == hash(plain)

    def test_cong_still_validates_modulus(self):
        with pytest.raises(ValueError):
            Cong(Linear({"x": 1}, 0), 1)


# ---------------------------------------------------------------------------
# Eager structure metadata
# ---------------------------------------------------------------------------


class TestStructureMetadata:
    def test_formula_size_counts_atoms(self):
        f = conj(ge(v("a"), 0), disj(ge(v("b"), 0), ge(v("c"), 0)),
                 Not(eq(v("d"), v("e"))))
        assert formula_size(f) == 4
        assert formula_size(TRUE) == 1

    def test_has_quantifier(self):
        plain = conj(ge(v("a"), 0), ge(v("b"), 0))
        assert not has_quantifier(plain)
        assert has_quantifier(exists(("a",), plain))
        assert has_quantifier(conj(ge(v("c"), 0),
                                   forall(("a",), plain)))
        assert has_quantifier(Not(exists(("a",), plain)))


# ---------------------------------------------------------------------------
# Bounded caches
# ---------------------------------------------------------------------------


class TestBoundedCache:
    def test_eviction_keeps_newest_half(self):
        cache = BoundedCache(limit=8, registered=False)
        for i in range(8):
            cache.put(i, i)
        cache.put(8, 8)  # triggers eviction of 0..3
        assert len(cache) == 5
        assert cache.get(0) is None
        assert cache.get(7) == 7
        assert cache.get(8) == 8

    def test_clear_all_caches_runs(self):
        # Registered caches start cold again; a private (unregistered)
        # cache keeps its entries.
        shared = BoundedCache(limit=8)
        private = BoundedCache(limit=8, registered=False)
        shared.put("k", "v")
        private.put("k", "v")
        clear_all_caches()
        assert shared.get("k") is None
        assert private.get("k") == "v"

    def test_results_identical_cold_and_warm(self):
        f = exists(("t",), conj(ge(v("t"), v("a")), ge(v("b"), v("t")),
                                Cong(Linear({"t": 1}), 4)))
        clear_all_caches()
        cold = (to_nnf(neg(f)), canonicalize(f), Prover().is_satisfiable(f))
        warm = (to_nnf(neg(f)), canonicalize(f), Prover().is_satisfiable(f))
        assert cold == warm


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalize:
    def test_commutative_reordering_coincides(self):
        a = conj(ge(v("x"), 0), ge(v("y"), 1))
        b = conj(ge(v("y"), 1), ge(v("x"), 0))
        assert canonicalize(a) is canonicalize(b)

    def test_gcd_variants_coincide(self):
        a = Geq(Linear({"x": 2}, 4))
        b = Geq(Linear({"x": 3}, 6))
        assert canonicalize(a) is canonicalize(b)

    def test_alpha_variants_coincide(self):
        a = exists(("t",), conj(ge(v("t"), 0), eq(v("t"), v("n"))))
        b = exists(("u",), conj(ge(v("u"), 0), eq(v("u"), v("n"))))
        assert canonicalize(a) is canonicalize(b)

    def test_free_variables_are_not_renamed(self):
        a = exists(("t",), eq(v("t"), v("n")))
        b = exists(("t",), eq(v("t"), v("m")))
        assert canonicalize(a) is not canonicalize(b)

    def test_nested_quantifiers_distinguished_by_depth(self):
        inner = lambda x, y: conj(ge(v(x), 0), ge(v(y), 0))
        a = exists(("x",), exists(("y",), inner("x", "y")))
        b = exists(("y",), exists(("x",), inner("y", "x")))
        assert canonicalize(a) is canonicalize(b)

    def test_canonicalize_preserves_verdict(self):
        prover = Prover()
        f = exists(("t",), conj(ge(v("t"), 3),
                                ge(Linear({"t": -1}, 10), 0)))
        assert prover.is_satisfiable(f) \
            == prover.is_satisfiable(canonicalize(f))


class TestCanonicalConjunct:
    def test_order_and_scale_independent(self):
        a = (Geq(Linear({"x": 2}, 4)), Geq(Linear({"y": 1}, 0)))
        b = (Geq(Linear({"y": 3}, 0)), Geq(Linear({"x": 1}, 2)))
        assert canonical_conjunct(a) == canonical_conjunct(b)

    def test_ground_false_atom_returns_none(self):
        atoms = (Geq(Linear({}, -1)), Geq(Linear({"x": 1}, 0)))
        assert canonical_conjunct(atoms) is None

    def test_all_true_atoms_give_empty_key(self):
        assert canonical_conjunct((Geq(Linear({}, 5)),)) == frozenset()


# ---------------------------------------------------------------------------
# Prover caching and bookkeeping
# ---------------------------------------------------------------------------


class TestProverCaches:
    def test_raw_cache_hit_on_repeat(self):
        prover = Prover()
        f = conj(ge(v("x"), 0), ge(Linear({"x": -1}, 5), 0))
        assert prover.is_satisfiable(f)
        assert prover.is_satisfiable(f)
        assert prover.stats.cache_hits == 1

    def test_canonical_cache_hit_on_variant(self):
        # An alpha/reordering variant misses the raw cache but its
        # eliminated conjunct has the same canonical key, so the
        # per-conjunct cache answers it without another decision.
        prover = Prover()
        a = exists(("t",), conj(ge(v("t"), 0), eq(v("t"), v("n"))))
        b = exists(("s",), conj(eq(v("s"), v("n")), ge(v("s"), 0)))
        assert a is not b
        assert prover.is_satisfiable(a) == prover.is_satisfiable(b)
        assert prover.stats.cache_hits == 0
        assert prover.stats.conjunct_queries == 2
        assert prover.stats.conjunct_cache_hits == 1

    def test_verdicts_identical_with_and_without_caches(self):
        queries = [
            conj(ge(v("x"), 0), ge(Linear({"x": -1}, 5), 0)),
            conj(ge(v("x"), 1), ge(Linear({"x": -1}, -2), 0)),  # unsat
            exists(("t",), conj(ge(v("t"), 0), eq(v("t"), v("n")))),
            conj(eq(v("a"), v("b")), ge(Linear({"a": 1, "b": -1}, -1), 0)),
        ]
        cached = Prover()
        plain = Prover(enable_cache=False)
        for f in queries + queries:  # second pass exercises the caches
            assert cached.is_satisfiable(f) == plain.is_satisfiable(f)
        assert cached.stats.cache_hits == len(queries)
        assert plain.stats.cache_hits \
            == plain.stats.conjunct_cache_hits == 0

    def test_reset_clears_stats_and_caches(self):
        prover = Prover()
        f = ge(v("x"), 0)
        prover.is_satisfiable(f)
        prover.is_satisfiable(f)
        assert prover.stats.cache_hits == 1
        prover.reset()
        assert prover.stats.satisfiability_queries == 0
        assert prover.stats.cache_hits == 0
        prover.is_satisfiable(f)
        assert prover.stats.cache_hits == 0  # cache really was emptied

    def test_resource_fallback_is_counted_not_silent(self):
        prover = Prover()
        # A conjunction of many disjunctions blows past the DNF limit.
        big = conj(*(disj(ge(v("x%d" % i), 0), ge(v("y%d" % i), 0))
                     for i in range(20)))
        import repro.logic.normalize as normalize
        old = normalize.MAX_DNF_CONJUNCTS
        normalize.MAX_DNF_CONJUNCTS = 16
        try:
            assert prover.is_satisfiable(big) is True
        finally:
            normalize.MAX_DNF_CONJUNCTS = old
        assert prover.stats.resource_fallbacks == 1

    def test_stats_as_dict_has_rates(self):
        prover = Prover()
        prover.is_satisfiable(ge(v("x"), 0))
        d = prover.stats.as_dict()
        assert "cache_hit_rate" in d and "conjunct_hit_rate" in d
        assert d["satisfiability_queries"] == 1
