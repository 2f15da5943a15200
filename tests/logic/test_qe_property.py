"""Property tests of quantifier elimination: the eliminated formula is
equivalent to the original on every ground instance."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.logic import Prover, conj, disj, eq, exists, forall, ge, le, lt
from repro.logic.formula import Cong, Eq, Formula, Geq, NotCong
from repro.logic.normalize import to_nnf
from repro.logic.terms import Linear

_VARS = ["x", "y", "q"]

_atoms = st.builds(
    lambda coeffs, const, kind, mod: (
        Geq(Linear(coeffs, const)) if kind == 0
        else Eq(Linear(coeffs, const)) if kind == 1
        else Cong(Linear(coeffs, const), mod)),
    st.dictionaries(st.sampled_from(_VARS), st.integers(-3, 3),
                    min_size=1, max_size=2),
    st.integers(-6, 6),
    st.integers(0, 2),
    st.sampled_from([2, 3, 4]),
)

_qf = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(lambda a, b: conj(a, b), children, children),
        st.builds(lambda a, b: disj(a, b), children, children)),
    max_leaves=4)


def _evaluate(f: Formula, env) -> bool:
    from repro.logic.formula import (
        And, Exists, FalseFormula, Forall, Not, Or, TrueFormula,
    )
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Geq):
        return f.term.evaluate(env) >= 0
    if isinstance(f, Eq):
        return f.term.evaluate(env) == 0
    if isinstance(f, Cong):
        return f.term.evaluate(env) % f.modulus == 0
    if isinstance(f, NotCong):
        return f.term.evaluate(env) % f.modulus != 0
    if isinstance(f, And):
        return all(_evaluate(p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(_evaluate(p, env) for p in f.parts)
    if isinstance(f, Not):
        return not _evaluate(f.part, env)
    raise TypeError(f)


class TestExistsElimination:
    @given(_qf)
    @settings(max_examples=80, deadline=None)
    def test_exists_q_eliminated_matches_ground_truth(self, body):
        prover = Prover()
        quantified = exists(["q"], body)
        eliminated = prover.eliminate_quantifiers(quantified)
        assert "q" not in eliminated.free_variables()
        # Spot-check on a grid of (x, y): the eliminated formula holds
        # iff some q in a wide window satisfies the body (window chosen
        # far larger than any coefficient/constant in play).
        for x, y in itertools.product(range(-4, 5), repeat=2):
            env = {"x": x, "y": y}
            got = _evaluate(eliminated, {**env, "q": 0})
            witness = any(_evaluate(body, {**env, "q": q})
                          for q in range(-60, 61))
            assert got == witness, (x, y)

    @given(_qf)
    @settings(max_examples=60, deadline=None)
    def test_forall_q_eliminated_matches_ground_truth(self, body):
        prover = Prover()
        quantified = forall(["q"], body)
        eliminated = prover.eliminate_quantifiers(quantified)
        assert "q" not in eliminated.free_variables()
        for x, y in itertools.product(range(-3, 4), repeat=2):
            env = {"x": x, "y": y}
            got = _evaluate(to_nnf(eliminated), {**env, "q": 0})
            truth = all(_evaluate(body, {**env, "q": q})
                        for q in range(-60, 61))
            # ∀ over the window is only an approximation of ∀ over ℤ in
            # the unsat→sat direction: if QE says valid, the window
            # must agree; if QE says not, a window counterexample may
            # lie outside.  Check the sound direction exactly:
            if got:
                assert truth, (x, y)


class TestEliminationIdempotent:
    @given(_qf)
    @settings(max_examples=60, deadline=None)
    def test_qf_input_unchanged_semantically(self, f):
        prover = Prover()
        eliminated = prover.eliminate_quantifiers(f)
        assert prover.equivalent(f, eliminated)
        # Quantifier-free input comes back as its NNF, not rebuilt.
        assert eliminated is to_nnf(f)
