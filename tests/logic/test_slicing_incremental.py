"""Obligation slicing and incremental prover sessions are pure
optimizations: they must agree with a plain decision on every verdict.

Covers the union-find component splitter (:func:`_split_components`),
randomized satisfiability parity of the sliced prover against an
unsliced decision made directly on the Omega kernel, and randomized
:class:`PrefixSession` parity against the from-scratch pipeline —
including the sessions that run without their memo (the cache
ablation) or route through the plain path (a prefix whose
pre-processing raises :class:`~repro.errors.ProverError`).
"""

import random

import pytest

from repro.errors import ProverError
from repro.logic.formula import (
    And, Cong, Eq, Exists, FalseFormula, Forall, Geq, Or, TRUE,
    TrueFormula, conj, congruent, disj, eq, exists, ge, le, neg,
)
from repro.logic.normalize import to_dnf, to_nnf
from repro.logic.omega import (
    Constraints, constraints_to_formula, project, satisfiable,
)
from repro.logic.prover import Prover, _split_components
from repro.logic.terms import Linear

var = Linear.var


def _atom_set(atoms):
    return [set(map(str, component))
            for component in _split_components(atoms)]


class TestSplitComponents:
    def test_independent_atoms_split(self):
        atoms = (ge("x", 0), ge("y", 1), ge("z", 2))
        assert len(_split_components(atoms)) == 3

    def test_shared_variable_merges(self):
        a, b, c = ge(var("x") + var("y"), 0), ge("y", 1), ge("z", 0)
        components = _split_components((a, b, c))
        assert _atom_set((a, b, c)) == [{str(a), str(b)}, {str(c)}]
        assert len(components) == 2

    def test_transitive_chain_merges(self):
        atoms = (ge(var("a") + var("b"), 0),
                 ge(var("b") + var("c"), 0),
                 ge(var("c") + var("d"), 0))
        assert len(_split_components(atoms)) == 1

    def test_ground_atoms_form_one_component(self):
        atoms = (ge(Linear.const(1), 0), ge("x", 0),
                 ge(Linear.const(-1), 0))
        components = _split_components(atoms)
        assert len(components) == 2
        assert _atom_set(atoms)[-1] == {str(atoms[0]), str(atoms[2])}

    def test_component_order_is_first_appearance(self):
        atoms = (ge("q", 0), ge("a", 0), ge(var("q") + var("z"), 1))
        components = _split_components(atoms)
        assert str(components[0][0]) == str(atoms[0])
        assert str(components[1][0]) == str(atoms[1])


def _random_atom(rng, variables):
    kind = rng.random()
    term = Linear(
        {v: rng.randint(-4, 4) for v in
         rng.sample(variables, rng.randint(1, min(3, len(variables))))},
        rng.randint(-20, 20))
    if kind < 0.6:
        return ge(term, 0)
    if kind < 0.85:
        return eq(term, 0)
    return congruent(term, rng.choice([2, 4]))


def _random_formula(rng, variables, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return _random_atom(rng, variables)
    op = rng.random()
    parts = [_random_formula(rng, variables, depth - 1)
             for _ in range(rng.randint(2, 3))]
    if op < 0.45:
        return conj(*parts)
    if op < 0.9:
        return disj(*parts)
    return exists([rng.choice(variables)], parts[0])


def _unsliced_eliminate(f):
    """Quantifier elimination that projects every DNF conjunct whole,
    quantifier-free residue included."""
    if isinstance(f, (TrueFormula, FalseFormula, Geq, Eq, Cong)):
        return f
    if isinstance(f, And):
        return conj(*map(_unsliced_eliminate, f.parts))
    if isinstance(f, Or):
        return disj(*map(_unsliced_eliminate, f.parts))
    if isinstance(f, Exists):
        body = _unsliced_eliminate(f.body)
        return disj(*(constraints_to_formula(
            project(Constraints.from_atoms(atoms), f.variables))
            for atoms in to_dnf(body)))
    assert isinstance(f, Forall)
    inner = _unsliced_eliminate(Exists(f.variables, to_nnf(neg(f.body))))
    return to_nnf(neg(inner))


def _unsliced_satisfiable(f):
    """The reference decision: each DNF conjunct of the eliminated
    formula goes to the Omega test whole, with no component split, no
    difference-solver fast path and no cache."""
    qf = _unsliced_eliminate(to_nnf(f))
    return any(satisfiable(Constraints.from_atoms(atoms))
               for atoms in to_dnf(qf))


@pytest.mark.parametrize("seed", range(250))
def test_slicing_preserves_satisfiability(seed):
    rng = random.Random(31_000 + seed)
    f = _random_formula(rng, ["x", "y", "z", "u", "v", "w"], depth=3)
    assert Prover().is_satisfiable(f) == _unsliced_satisfiable(f)


@pytest.mark.parametrize("seed", range(250))
def test_prefix_session_matches_from_scratch(seed):
    rng = random.Random(77_000 + seed)
    variables = ["x", "y", "z", "u", "v"]
    prefix = _random_formula(rng, variables, depth=2)
    deltas = [_random_formula(rng, variables, depth=2)
              for _ in range(4)]
    goal = _random_formula(rng, variables, depth=1)

    session_prover = Prover()
    session = session_prover.prefix_session(prefix)
    plain = Prover()
    for delta in deltas:
        assert session.satisfiable_with(delta) \
            == plain.is_satisfiable(conj(prefix, delta))
    assert session.implies(goal) \
        == plain.implies(prefix, goal)
    assert session.implies(goal, extra=deltas[0]) \
        == plain.implies(conj(prefix, deltas[0]), goal)
    assert session.refutes(deltas[1]) \
        == (not plain.is_satisfiable(conj(prefix, deltas[1])))


class _PrefixRaisingProver(Prover):
    """A prover whose quantifier elimination gives up on one formula:
    the session prefix, as if it were too big to pre-process."""

    def __init__(self, prefix):
        super().__init__()
        self._prefix = prefix

    def eliminate_quantifiers(self, f):
        if f is self._prefix:
            raise ProverError("prefix too big")
        return super().eliminate_quantifiers(f)


@pytest.mark.parametrize("seed", range(0, 250, 25))
@pytest.mark.parametrize("fallback_config", [
    dict(uncached=True),
    dict(prefix_raises=True),
])
def test_fallback_sessions_match_too(seed, fallback_config):
    rng = random.Random(44_000 + seed)
    variables = ["x", "y", "z"]
    prefix = _random_formula(rng, variables, depth=2)
    delta = _random_formula(rng, variables, depth=2)
    if fallback_config.get("uncached"):
        session_prover = Prover(enable_cache=False)
    else:
        session_prover = _PrefixRaisingProver(prefix)
    session = session_prover.prefix_session(prefix)
    plain = Prover()
    expected = plain.is_satisfiable(conj(prefix, delta))
    assert session.satisfiable_with(delta) == expected
    assert session.satisfiable_with(delta) == expected  # no memo reuse
    if fallback_config.get("prefix_raises"):
        # The plain path answered both queries, not the delta path.
        assert session_prover.stats.incremental_queries == 0
    else:
        assert session_prover.stats.incremental_queries == 2
        assert session_prover.stats.cache_hits == 0


class TestSessionBookkeeping:
    def test_counters_mirror_plain_queries(self):
        prover = Prover()
        session = prover.prefix_session(ge("x", 0))
        session.implies(ge("x", -1))
        assert prover.stats.validity_queries == 1
        assert prover.stats.satisfiability_queries == 1
        assert prover.stats.incremental_queries == 1

    def test_session_memo_hits(self):
        prover = Prover()
        session = prover.prefix_session(ge("x", 0))
        delta = le("x", 5)
        first = session.satisfiable_with(delta)
        hits = prover.stats.cache_hits
        assert session.satisfiable_with(delta) == first
        assert prover.stats.cache_hits == hits + 1

    def test_unsat_prefix_decides_everything_false(self):
        prover = Prover()
        session = prover.prefix_session(
            conj(ge("x", 1), le("x", 0)))
        assert not session.satisfiable_with(TRUE)
        assert session.implies(ge("y", 100))

    def test_true_extra_matches_none(self):
        prover = Prover()
        session = prover.prefix_session(ge("x", 3))
        goal = ge("x", 0)
        assert session.implies(goal) \
            == session.implies(goal, extra=TRUE)

    def test_negated_goal_is_not_double_negated(self):
        prover = Prover()
        session = prover.prefix_session(ge("x", 3))
        assert session.implies(ge("x", 1))
        assert not session.implies(ge("x", 4))
        assert session.implies(neg(le("x", 1)))
