"""The flat-row Omega kernel against enumeration, on 500 seeded systems.

Each system constrains x, y and z with random Geq, Eq and Cong atoms
(coefficients within ±5, moduli 2/3/4/8) inside the box [-4, 4]³, so
brute force over the box decides every question exactly.  The two
deciders compared are the kernel and that enumeration, and they must
agree on whole solution sets, not only on the sat/unsat bit:

* ``satisfiable(c)`` equals "some point of the box satisfies c";
* ``project(c, ["z"])`` holds at (x, y) exactly when some z does, over
  an (x, y) window wider than the box;
* ``project_real(c, ["z"])`` holds at every such (x, y) (a superset);
* ``eliminate_equalities`` is exact projection of the variables it
  removes.

Negated congruences (moduli 2-8) get their own seeded systems, alone
and with the atoms above, and their own formulas under ∃ and ∀ for
:meth:`Prover.eliminate_quantifiers`: a fixed set runs in tier-1 and a
wider seed range under the ``bench`` marker.

:func:`test_oracle_reaches_dark_shadow_and_splinters` keeps the suite
honest about coverage: the seeded systems must reach the dark-shadow/
splinter projection and the splinter branch of satisfiability.
"""

import itertools
import random

import pytest

from repro.errors import ProverError
from repro.logic import Prover, conj, disj, exists, forall, ge, le, omega
from repro.logic.formula import (
    And, Cong, Eq, FalseFormula, Geq, NotCong, Or, TrueFormula,
)
from repro.logic.omega import (
    Constraints, eliminate_equalities, from_constraints, project,
    project_real, satisfiable, to_constraints,
)
from repro.logic.terms import Linear

#: Enough cases to exercise every kernel path (equality gcd rule, unit
#: substitution, scale-out, congruence lowering, dark shadow and
#: splinters, real-shadow FM) while staying inside tier-1 budget.
CASES = 500

VARIABLES = ("x", "y", "z")
BOX = 4
_BOX_RANGE = range(-BOX, BOX + 1)
#: Wider than the box, so a projected piece admitting a point outside
#: it is caught too.
_WINDOW = range(-BOX - 2, BOX + 3)

#: Seeds of the negated-congruence systems and formulas: tier-1 and
#: the wider ``bench`` range.
NEGATED_SEEDS = range(200)
NEGATED_BENCH_SEEDS = range(200, 2000)


def _linear(rng):
    coefficients = {}
    while not coefficients:
        for v in VARIABLES:
            if rng.random() < 0.6:
                k = rng.randint(-5, 5)
                if k:
                    coefficients[v] = k
    return Linear(coefficients, rng.randint(-10, 10))


def _system(seed):
    rng = random.Random(987_000 + seed)
    c = Constraints()
    for __ in range(rng.randint(1, 5)):
        kind = rng.random()
        if kind < 0.6:
            c.geqs.append(_linear(rng))
        elif kind < 0.8:
            c.eqs.append(_linear(rng))
        else:
            c.congs.append((_linear(rng), rng.choice([2, 3, 4, 8])))
    c.geqs.extend(Linear({v: sign}, BOX)
                  for v in VARIABLES for sign in (1, -1))
    return c


def _negated_system(seed):
    """One to three negated congruences, moduli 2-8, alone in the box
    or added to a :func:`_system`."""
    rng = random.Random(613_000 + seed)
    if rng.random() < 0.3:
        c = Constraints(geqs=[Linear({v: sign}, BOX) for v in VARIABLES
                              for sign in (1, -1)])
    else:
        c = _system(seed)
    for __ in range(rng.randint(1, 3)):
        c.ncongs.append((_linear(rng), rng.randint(2, 8)))
    return c


def _holds(c, env):
    return (all(t.evaluate(env) >= 0 for t in c.geqs)
            and all(t.evaluate(env) == 0 for t in c.eqs)
            and all(t.evaluate(env) % m == 0 for t, m in c.congs)
            and all(t.evaluate(env) % m for t, m in c.ncongs))


def _solutions(c):
    return [dict(zip(VARIABLES, point))
            for point in itertools.product(_BOX_RANGE, repeat=3)
            if _holds(c, dict(zip(VARIABLES, point)))]


@pytest.mark.parametrize("seed", range(CASES))
def test_backends_agree_structurally(seed):
    assert _check_against_enumeration(_system(seed))


@pytest.mark.parametrize("seed", NEGATED_SEEDS)
def test_negated_congruences_agree_with_enumeration(seed):
    _check_against_enumeration(_negated_system(seed))


@pytest.mark.bench
@pytest.mark.parametrize("seed", NEGATED_BENCH_SEEDS)
def test_negated_congruences_agree_with_enumeration_wide(seed):
    _check_against_enumeration(_negated_system(seed))


def test_negated_projections_rarely_reach_the_step_cap():
    """Three negated congruences on z with coefficients up to 5 can
    need more projection pieces than ``MAX_ELIMINATION_STEPS`` allows
    one ``project`` call (a resource failure, which the prover turns
    into its conservative fallback): 2 of the 200 tier-1 systems, 22 of
    seeds 0-1999."""
    capped = [seed for seed in NEGATED_SEEDS
              if not _check_against_enumeration(_negated_system(seed))]
    assert len(capped) <= 2, capped


def _check_against_enumeration(c):
    """Satisfiability, exact projection of z and the real shadow of *c*
    against enumeration.  False when ``project`` stops at its step cap
    (satisfiability and the real shadow are still checked)."""
    solutions = _solutions(c)
    assert satisfiable(c) == bool(solutions)

    shadow = {(p["x"], p["y"]) for p in solutions}
    try:
        pieces = project(c, ["z"])
    except ProverError as error:
        assert "did not terminate" in str(error)
        pieces = None
    real = project_real(c, ["z"])
    for piece in pieces or ():
        assert piece.variables() <= {"x", "y"}
    assert real.variables() <= {"x", "y"}
    for vx, vy in itertools.product(_WINDOW, repeat=2):
        env = {"x": vx, "y": vy}
        want = (vx, vy) in shadow
        if pieces is not None:
            assert any(_holds(p, env) for p in pieces) == want, (vx, vy)
        if want:
            assert _holds(real, env), (vx, vy)
    return pieces is not None


@pytest.mark.parametrize("seed", range(0, CASES, 10))
def test_equality_elimination_agrees(seed):
    c = _system(seed)
    rng = random.Random(550_000 + seed)
    eliminable = {v for v in VARIABLES if rng.random() < 0.6}
    solved = eliminate_equalities(from_constraints(c), eliminable)
    solutions = _solutions(c)
    if solved is None:
        assert not solutions
        return
    result = to_constraints(solved)
    kept = sorted(result.variables())
    assert not set(kept) - set(VARIABLES)
    assert set(VARIABLES) - set(kept) <= eliminable
    projected = {tuple(p[v] for v in kept) for p in solutions}
    for point in itertools.product(_WINDOW, repeat=len(kept)):
        got = _holds(result, dict(zip(kept, point)))
        assert got == (point in projected), point


def test_roundtrip_preserves_structure():
    def key(c):
        return (tuple(str(g) for g in c.geqs),
                tuple(str(e) for e in c.eqs),
                tuple((str(t), m) for t, m in c.congs))

    for seed in range(200):
        c = _system(seed)
        assert key(to_constraints(from_constraints(c))) == key(c)


def test_oracle_reaches_dark_shadow_and_splinters(monkeypatch):
    """The seeded systems must keep covering the inexact paths: the
    dark-shadow/splinter projection and the splinter branch of
    satisfiability."""
    calls = {"hard_split": 0, "splinters": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(omega, "_hard_split",
                        counting("hard_split", omega._hard_split))
    for seed in range(CASES):
        project(_system(seed), ["z"])
    # Projection splinters run inside _hard_split; count only the ones
    # satisfiability reaches.
    monkeypatch.setattr(omega, "_splinters",
                        counting("splinters", omega._splinters))
    for seed in range(CASES):
        satisfiable(_system(seed))
    assert calls["hard_split"] > 0
    assert calls["splinters"] > 0


def _atom(rng):
    term = _linear(rng)
    kind = rng.random()
    if kind < 0.5:
        return NotCong(term, rng.randint(2, 8))
    if kind < 0.7:
        return Cong(term, rng.randint(2, 8))
    return Geq(term)


def _negated_formula(seed):
    """A random ∧/∨ of two to four atoms over x, y, z, half of them
    negated congruences."""
    rng = random.Random(721_000 + seed)
    f = _atom(rng)
    for __ in range(rng.randint(1, 3)):
        f = (conj if rng.random() < 0.5 else disj)(f, _atom(rng))
    return f


def _evaluate(f, env):
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
    raise TypeError(f)


def _check_quantified(seed):
    """∃z and ∀z over the box, eliminated, against enumeration of z at
    every (x, y) of the window.  False when an elimination stops at the
    projection step cap."""
    body = _negated_formula(seed)
    in_box = conj(ge(Linear.var("z"), -BOX), le(Linear.var("z"), BOX))
    try:
        some = Prover().eliminate_quantifiers(
            exists(["z"], conj(in_box, body)))
        every = Prover().eliminate_quantifiers(
            forall(["z"], disj(~in_box, body)))
    except ProverError as error:
        assert "did not terminate" in str(error)
        return False
    for f in (some, every):
        assert "z" not in f.free_variables()
    for vx, vy in itertools.product(_WINDOW, repeat=2):
        values = [_evaluate(body, {"x": vx, "y": vy, "z": vz})
                  for vz in _BOX_RANGE]
        env = {"x": vx, "y": vy}
        assert _evaluate(some, env) == any(values), (vx, vy)
        assert _evaluate(every, env) == all(values), (vx, vy)
    return True


@pytest.mark.parametrize("seed", NEGATED_SEEDS)
def test_negated_congruences_under_quantifiers(seed):
    assert _check_quantified(seed)


@pytest.mark.bench
@pytest.mark.parametrize("seed", NEGATED_BENCH_SEEDS)
def test_negated_congruences_under_quantifiers_wide(seed):
    _check_quantified(seed)
