"""Prover tests: validity, quantifiers, caching, and the paper's
Section 5.2.2 derivation."""

from hypothesis import given, settings, strategies as st

from repro.logic import (
    Prover, conj, congruent, disj, eq, exists, forall, ge, gt, implies,
    le, lt, ne, neg, TRUE, FALSE,
)
from repro.logic.memo import clear_all_caches
from repro.logic.terms import Linear


def v(name):
    return Linear.var(name)


class TestValidity:
    def setup_method(self):
        self.prover = Prover()

    def test_reflexivity(self):
        assert self.prover.is_valid(ge(v("x"), v("x")))

    def test_trichotomy(self):
        x, y = v("x"), v("y")
        assert self.prover.is_valid(disj(lt(x, y), eq(x, y), gt(x, y)))

    def test_transitivity(self):
        x, y, z = v("x"), v("y"), v("z")
        assert self.prover.is_valid(
            implies(conj(lt(x, y), lt(y, z)), lt(x, z)))

    def test_integer_density_gap(self):
        # Over the integers there is nothing strictly between x and x+1.
        x, y = v("x"), v("y")
        assert not self.prover.is_satisfiable(
            conj(lt(x, y), lt(y, x + 1)))

    def test_not_valid_with_free_variables(self):
        assert not self.prover.is_valid(lt(v("x"), v("n")))

    def test_congruence_validity(self):
        x = v("x")
        assert self.prover.is_valid(
            implies(congruent(x, 4), congruent(x, 2)))
        assert not self.prover.is_valid(
            implies(congruent(x, 2), congruent(x, 4)))

    def test_scaled_congruence(self):
        x = v("x")
        assert self.prover.is_valid(congruent(x.scale(4), 4))


class TestQuantifiers:
    def setup_method(self):
        self.prover = Prover()

    def test_forall_exists_alternation(self):
        assert self.prover.is_valid(
            forall(["x"], exists(["y"], gt(v("y"), v("x")))))

    def test_exists_forall_unsatisfiable(self):
        assert not self.prover.is_satisfiable(
            exists(["x"], forall(["y"], ge(v("x"), v("y")))))

    def test_exists_witness(self):
        assert self.prover.is_valid(
            exists(["x"], conj(ge(v("x"), 3), le(v("x"), 3))))

    def test_forall_vacuous_guard(self):
        # forall h: (h >= 1 and h <= 0) -> false  is valid.
        h = v("h")
        assert self.prover.is_valid(
            forall(["h"], implies(conj(ge(h, 1), le(h, 0)), FALSE)))

    def test_quantifier_elimination_produces_equivalent(self):
        f = exists(["x"], conj(ge(v("x"), v("y")), le(v("x"), v("z"))))
        qf = self.prover.eliminate_quantifiers(f)
        # exists x in [y, z] iff y <= z.
        assert self.prover.equivalent(qf, le(v("y"), v("z")))

    def test_guarded_havoc_shape(self):
        # The wlp encoding of srl: forall q: 4q <= x <= 4q+3 -> q >= 0,
        # valid exactly when x >= 0 cannot be contradicted... check a
        # concrete instance: x = 7 -> q = 1.
        x, q = v("x"), v("q")
        f = forall(["q"], implies(
            conj(le(q.scale(4), x), le(x, q.scale(4) + 3)), ge(q, 0)))
        assert self.prover.is_valid(f.substitute("x", Linear.const(7)))
        assert not self.prover.is_valid(
            f.substitute("x", Linear.const(-5)))

    def test_alpha_variants_of_a_residue_forall_are_equivalent(self):
        # wlp of `and %o0,7,%o0` under %o0 >= 0.  is_valid meets each
        # variant only negated (a small ∃); equivalent also meets the ∀
        # itself, whose elimination negates the congruence guard twice:
        # one NotCong atom and back, not a 7-way residue fan per pass.
        o0 = v("%o0")

        def variant(h):
            bound = v(h)
            return forall([h], disj(
                neg(conj(congruent(bound - o0, 8), ge(bound, 0),
                         le(bound, 7))),
                ge(bound, 0)))

        a, b = variant("$h1"), variant("$h2")
        assert self.prover.is_valid(a) and self.prover.is_valid(b)
        assert self.prover.equivalent(a, b)
        assert self.prover.stats.resource_fallbacks == 0


class TestPaperDerivation:
    """The Section 5.2.2 worked example at the logic level."""

    def setup_method(self):
        self.prover = Prover()

    def test_invariant_implies_bound(self):
        g3, o1, n = v("%g3"), v("%o1"), v("n")
        invariant = conj(lt(g3, n), le(o1, n))
        assert self.prover.implies(invariant, lt(g3, n))

    def test_w0_does_not_imply_w1(self):
        g3, o1, n = v("%g3"), v("%o1"), v("n")
        w0 = lt(g3, n)
        w1 = implies(lt(g3 + 1, o1), lt(g3 + 1, n))
        assert not self.prover.implies(w0, w1)

    def test_generalized_w1_closes_the_chain(self):
        g3, o1, n = v("%g3"), v("%o1"), v("n")
        w0 = lt(g3, n)
        w1g = le(o1, n)  # the generalization %o1 <= n
        w2 = w1g         # o1, n loop-invariant
        assert self.prover.implies(conj(w0, w1g), w2)

    def test_entry_condition(self):
        o0, o1, n = v("%o0"), v("%o1"), v("n")
        init = conj(ge(n, 1), eq(n, o1), ge(o0, 1), congruent(o0, 4))
        # W(0) on entry: 0 < n after the clr.
        assert self.prover.implies(init, gt(n, 0))


class TestCaching:
    def test_cache_hits_counted(self):
        prover = Prover(enable_cache=True)
        f = lt(v("x"), v("y"))
        prover.is_valid(f)
        before = prover.stats.cache_hits
        prover.is_valid(f)
        assert prover.stats.cache_hits > before

    def test_cache_can_be_disabled(self):
        prover = Prover(enable_cache=False)
        f = lt(v("x"), v("y"))
        prover.is_valid(f)
        prover.is_valid(f)
        assert prover.stats.cache_hits == 0

    def test_query_counters(self):
        prover = Prover()
        prover.is_valid(TRUE)
        assert prover.stats.validity_queries == 1
        assert prover.stats.satisfiability_queries == 1


def _root_memo(prover):
    return (prover._root or prover._root_session())._memo


class TestStatsSplit:
    def test_reset_stats_keeps_caches(self):
        # The service worker's warm prover resets its stats per job
        # and keeps answering from the same root memo.
        prover = Prover()
        f = conj(ge(v("x"), 0), ge(v("y"), 2))
        prover.is_satisfiable(f)
        prover.reset_stats()
        assert prover.stats.satisfiability_queries == 0
        assert len(_root_memo(prover)) == 1
        prover.is_satisfiable(f)  # still answered from the root memo
        assert prover.stats.cache_hits == 1

    def test_clear_caches_keeps_stats(self):
        prover = Prover()
        prover.is_satisfiable(ge(v("x"), 0))
        queries = prover.stats.satisfiability_queries
        prover.clear_caches()
        assert prover.stats.satisfiability_queries == queries
        assert len(_root_memo(prover)) == 0
        assert len(prover._conjunct_cache) == 0
        prover.is_satisfiable(ge(v("x"), 0))
        assert prover.stats.cache_hits == 0  # cache really was dropped


class TestOneQueryPath:
    """``Prover.is_satisfiable`` is the prover's own empty-prefix
    session; every query goes through ``PrefixSession.satisfiable_with``
    and its result caches."""

    MIXED = [
        ("plain", conj(ge(v("x"), 0), le(v("x"), 5))),
        ("session", le(v("y"), 3)),
        ("plain", conj(ge(v("x"), 1), le(v("x"), 0))),  # unsat
        ("session", disj(lt(v("y"), 0), eq(v("x"), v("y")))),
        ("plain", exists(("t",), conj(ge(v("t"), 0), eq(v("t"), v("n"))))),
        ("session", conj(gt(v("x"), 7), le(v("x"), 9))),
    ]

    def _answers(self, prover, session):
        return [prover.is_satisfiable(f) if kind == "plain"
                else session.satisfiable_with(f)
                for kind, f in self.MIXED]

    def test_ablated_prover_keeps_nothing(self):
        prover = Prover(enable_cache=False)
        session = prover.prefix_session(ge(v("y"), 0))
        first = self._answers(prover, session)
        assert self._answers(prover, session) == first
        assert first == self._answers(Prover(), Prover().prefix_session(
            ge(v("y"), 0)))
        stats = prover.stats
        assert stats.cache_hits == stats.conjunct_cache_hits == 0
        assert stats.conjunct_queries > 0
        assert len(_root_memo(prover)) == 0
        assert len(session._memo) == 0
        assert len(prover._conjunct_cache) == 0

    def test_root_session_queries_are_not_incremental(self):
        prover = Prover()
        prover.is_satisfiable(ge(v("x"), 0))
        assert prover.stats.incremental_queries == 0
        # Any other session counts, a true prefix included.
        prover.prefix_session(TRUE).satisfiable_with(ge(v("x"), 0))
        assert prover.stats.incremental_queries == 1
        assert prover.stats.satisfiability_queries == 2

    def test_session_memo_is_bounded(self, monkeypatch):
        import repro.logic.prover as prover_module
        monkeypatch.setattr(prover_module, "_RESULT_CACHE_LIMIT", 8)
        prover = Prover()
        session = prover.prefix_session(ge(v("x"), 0))
        for k in range(40):
            session.satisfiable_with(le(v("x"), k))
            assert len(session._memo) <= 8
        for k in range(40):
            prover.is_satisfiable(le(v("y"), k))
        assert len(_root_memo(prover)) <= 8
        assert len(prover._conjunct_cache) <= 8


def _deep_chain(depth):
    """``a1 ∨ (b1 ∧ (a2 ∨ (b2 ∧ …)))``: *depth* ∨/∧ links, 2·depth
    nodes deep."""
    f = ge(v("x0"), 0)
    for i in range(1, depth + 1):
        f = disj(ge(v("x%d" % i), i), conj(ge(v("y%d" % i), -i), f))
    return f


class TestDeepNesting:
    """A formula nested past what the recursive normal-form passes can
    follow is a resource fallback, not a traceback."""

    def setup_method(self):
        clear_all_caches()  # no memoized subformula shortens the walk

    def test_plain_query_is_an_uncached_fallback(self):
        prover = Prover()
        f = _deep_chain(200)
        assert prover.is_satisfiable(f)
        assert prover.is_satisfiable(f)
        assert prover.stats.resource_fallbacks == 2
        assert prover.stats.cache_hits == 0

    def test_session_delta_is_an_uncached_fallback(self):
        prover = Prover()
        session = prover.prefix_session(ge(v("x0"), 0))
        f = _deep_chain(200)
        assert session.satisfiable_with(f)
        assert session.satisfiable_with(f)
        assert prover.stats.resource_fallbacks == 2
        assert prover.stats.cache_hits == 0

    def test_session_prefix_routes_through_the_plain_path(self):
        prover = Prover()
        session = prover.prefix_session(_deep_chain(200))
        assert session.satisfiable_with(ge(v("z"), 0))
        assert prover.stats.incremental_queries == 0
        assert prover.stats.resource_fallbacks == 1


_small_formula = st.recursive(
    st.builds(
        lambda coeffs, const, rel: rel(Linear(coeffs, const), 0),
        st.dictionaries(st.sampled_from(["p", "q"]),
                        st.integers(-4, 4), min_size=1, max_size=2),
        st.integers(-8, 8),
        st.sampled_from([ge, le, eq, lt, gt])),
    lambda children: st.one_of(
        st.builds(lambda a, b: conj(a, b), children, children),
        st.builds(lambda a, b: disj(a, b), children, children),
        st.builds(neg, children)),
    max_leaves=6)


class TestProverProperties:
    @given(_small_formula)
    @settings(max_examples=100, deadline=None)
    def test_excluded_middle(self, f):
        prover = Prover()
        assert prover.is_valid(disj(f, neg(f)))

    @given(_small_formula)
    @settings(max_examples=100, deadline=None)
    def test_not_both_valid(self, f):
        prover = Prover()
        assert not (prover.is_valid(f) and prover.is_valid(neg(f)))

    @given(_small_formula)
    @settings(max_examples=60, deadline=None)
    def test_valid_implies_satisfiable(self, f):
        prover = Prover()
        if prover.is_valid(f):
            assert prover.is_satisfiable(f)

    @given(_small_formula)
    @settings(max_examples=60, deadline=None)
    def test_qe_of_closed_exists_matches_satisfiability(self, f):
        prover = Prover()
        free = sorted(f.free_variables())
        closed = exists(free, f) if free else f
        assert prover.is_satisfiable(closed) == prover.is_satisfiable(f)
