"""Formula construction, NNF/DNF, and simplifier tests."""

from hypothesis import given, settings, strategies as st

from repro.logic import Prover
from repro.logic.formula import (
    And, Cong, Eq, Exists, FALSE, Forall, Geq, Not, NotCong, Or, TRUE,
    conj, congruent, disj, eq, exists, forall, formula_size, ge, gt,
    implies, le, lt, ne, neg,
)
from repro.logic.normalize import to_dnf, to_nnf
from repro.logic.simplify import simplify
from repro.logic.terms import Linear


def v(name):
    return Linear.var(name)


class TestSmartConstructors:
    def test_conj_flattens_and_dedupes(self):
        a, b = ge(v("x"), 0), ge(v("y"), 0)
        f = conj(a, conj(b, a))
        assert isinstance(f, And) and len(f.parts) == 2

    def test_conj_absorbs_constants(self):
        a = ge(v("x"), 0)
        assert conj(a, TRUE) == a
        assert conj(a, FALSE) == FALSE
        assert conj() == TRUE

    def test_disj_absorbs_constants(self):
        a = ge(v("x"), 0)
        assert disj(a, FALSE) == a
        assert disj(a, TRUE) == TRUE
        assert disj() == FALSE

    def test_double_negation(self):
        a = ge(v("x"), 0)
        assert neg(neg(a)) == a

    def test_ground_atoms_fold(self):
        assert ge(3, 1) == TRUE
        assert ge(1, 3) == FALSE
        assert eq(2, 2) == TRUE
        assert congruent(Linear.const(8), 4) == TRUE
        assert congruent(Linear.const(7), 4) == FALSE

    def test_strict_comparisons_use_integer_slack(self):
        f = lt(v("x"), v("y"))
        assert isinstance(f, Geq)
        assert f.term == v("y") - v("x") - 1

    def test_exists_drops_unused_binders(self):
        body = ge(v("x"), 0)
        assert exists(["z"], body) == body
        assert isinstance(exists(["x"], body), Exists)

    def test_quantifier_collapse(self):
        inner = exists(["y"], ge(v("x") + v("y"), 0))
        outer = exists(["x"], inner)
        assert isinstance(outer, Exists)
        assert set(outer.variables) == {"x", "y"}


class TestCaptureAvoidance:
    def test_substitution_into_quantifier_renames(self):
        # (exists y. x <= y)[x := y] must not capture y.
        f = exists(["y"], le(v("x"), v("y")))
        out = f.substitute("x", v("y"))
        prover = Prover()
        # The result says: exists y'. y <= y' — valid for every y.
        assert prover.is_valid(out)

    def test_substitution_under_forall(self):
        f = forall(["y"], implies(ge(v("y"), v("x")), ge(v("y"), v("x"))))
        assert Prover().is_valid(f.substitute("x", v("y")))


class TestNNF:
    def test_negated_geq(self):
        f = to_nnf(neg(ge(v("x"), 0)))
        assert f == Geq(v("x").scale(-1) - 1)

    def test_negated_eq_becomes_disjunction(self):
        f = to_nnf(neg(eq(v("x"), 0)))
        assert isinstance(f, Or) and len(f.parts) == 2

    def test_negated_congruence_is_one_atom(self):
        f = to_nnf(neg(congruent(v("x"), 4)))
        assert f == NotCong(v("x"), 4)
        assert to_nnf(neg(f)) == congruent(v("x"), 4)
        # Mod 2 the negation is the other residue.
        assert to_nnf(neg(congruent(v("x"), 2))) == congruent(v("x"), 2, 1)

    def test_no_not_nodes_remain(self):
        f = neg(conj(ge(v("x"), 0), neg(disj(eq(v("y"), 1),
                                             congruent(v("z"), 2)))))
        def scan(g):
            assert not isinstance(g, Not)
            for child in getattr(g, "parts", ()):
                scan(child)
        scan(to_nnf(f))

    def test_quantifiers_flip(self):
        f = to_nnf(neg(forall(["x"], ge(v("x"), 0))))
        assert isinstance(f, Exists)


class TestDNF:
    def test_distribution(self):
        a, b, c = ge(v("x"), 0), ge(v("y"), 0), ge(v("z"), 0)
        dnf = to_dnf(conj(disj(a, b), c))
        assert len(dnf) == 2
        assert all(len(conjunct) == 2 for conjunct in dnf)

    def test_true_and_false(self):
        assert to_dnf(TRUE) == [()]
        assert to_dnf(FALSE) == []


class TestSimplify:
    def test_strongest_inequality_kept_in_conjunction(self):
        x = v("x")
        f = simplify(conj(ge(x, 1), ge(x, 5)))
        assert f == ge(x, 5)

    def test_weakest_inequality_kept_in_disjunction(self):
        x = v("x")
        f = simplify(disj(ge(x, 1), ge(x, 5)))
        assert f == ge(x, 1)

    def test_direct_contradiction_detected(self):
        x = v("x")
        assert simplify(conj(ge(x, 3), le(x, 1))) == FALSE

    def test_integer_covering_disjunction_is_true(self):
        x = v("x")
        assert simplify(disj(ge(x, 2), le(x, 1))) == TRUE

    def test_complementary_guard_merge(self):
        # (c -> X) and (not c -> X)  simplifies to X.
        c = ge(v("i"), 0)
        x = ge(v("n"), 1)
        f = simplify(conj(implies(c, x), implies(neg(c), x)))
        assert f == x

    def test_gcd_normalization_of_atoms(self):
        f = simplify(Geq(Linear({"x": 2}, 4)))
        assert f == Geq(Linear({"x": 1}, 2))

    def test_negated_congruence_atoms_fold(self):
        assert simplify(NotCong(Linear({"x": 9}, 10), 4)) \
            == NotCong(Linear({"x": 1}, 2), 4)
        # Mod 2, x + 3 is odd exactly when x is even.
        assert simplify(NotCong(Linear({"x": 1}, 3), 2)) == Cong(v("x"), 2)
        assert simplify(NotCong(Linear({"x": 4}, 8), 4)) == FALSE
        assert simplify(NotCong(Linear({"x": 4}, 9), 4)) == TRUE


_formulas = st.recursive(
    st.builds(
        lambda coeffs, const, rel: rel(Linear(coeffs, const), 0),
        st.dictionaries(st.sampled_from(["p", "q"]),
                        st.integers(-4, 4), min_size=1, max_size=2),
        st.integers(-9, 9),
        st.sampled_from([ge, le, eq, ne])),
    lambda children: st.one_of(
        st.builds(lambda a, b: conj(a, b), children, children),
        st.builds(lambda a, b: disj(a, b), children, children),
        st.builds(neg, children)),
    max_leaves=5)


_congruence_formulas = st.recursive(
    st.builds(
        lambda coeffs, const, modulus: congruent(
            Linear(coeffs, const), modulus),
        st.dictionaries(st.sampled_from(["p", "q"]),
                        st.integers(-4, 4), min_size=1, max_size=2),
        st.integers(-9, 9),
        st.integers(2, 8)) | _formulas,
    lambda children: st.one_of(
        st.builds(lambda a, b: conj(a, b), children, children),
        st.builds(lambda a, b: disj(a, b), children, children),
        st.builds(neg, children)),
    max_leaves=5)


class TestSimplifyProperties:
    @given(_congruence_formulas)
    @settings(max_examples=80, deadline=None)
    def test_negation_builds_no_residue_fan(self, f):
        # Negation dissolves an atom into at most two (the halves of a
        # ≠); a negated congruence is one NotCong atom.
        negated = to_nnf(neg(f))
        assert formula_size(negated) <= 2 * formula_size(f)
        assert Prover().equivalent(neg(f), negated)

    @given(_formulas)
    @settings(max_examples=80, deadline=None)
    def test_simplify_preserves_equivalence(self, f):
        prover = Prover()
        assert prover.equivalent(f, simplify(f))

    @given(_formulas)
    @settings(max_examples=80, deadline=None)
    def test_nnf_preserves_equivalence(self, f):
        prover = Prover()
        assert prover.equivalent(f, to_nnf(f))
