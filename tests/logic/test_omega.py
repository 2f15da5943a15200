"""Omega-test core: satisfiability, projection, and exactness against
brute force (hypothesis)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.logic.formula import Cong, Eq, Geq
from repro.logic.omega import (
    Constraints, from_constraints, normalize, project, project_real,
    satisfiable, to_constraints,
)
from repro.logic.terms import Linear


def sat(*atoms):
    return satisfiable(Constraints.from_atoms(atoms))


def x(coeff=1):
    return Linear.var("x", coeff)


def y(coeff=1):
    return Linear.var("y", coeff)


class TestSatisfiability:
    def test_trivial_true(self):
        assert sat()

    def test_ground_contradiction(self):
        assert not sat(Geq(Linear.const(-1)))

    def test_simple_interval(self):
        assert sat(Geq(x() - 2), Geq(2 - x()))          # x == 2
        assert not sat(Geq(x() - 3), Geq(2 - x()))      # 3 <= x <= 2

    def test_integrality_of_equalities(self):
        assert not sat(Eq(x(2) - 1))                    # 2x = 1
        assert sat(Eq(x(2) - 4))                        # 2x = 4

    def test_linear_diophantine(self):
        assert sat(Eq(x(3) + y(5) - 1))                 # 3x + 5y = 1
        assert not sat(Eq(x(6) + y(10) - 3))            # gcd 2 does not divide 3

    def test_dark_shadow_gap(self):
        # 0 < 4x < 4 has no integer solution although rationals exist.
        assert not sat(Geq(x(4) - 1), Geq(3 - x(4)))

    def test_congruence_window(self):
        # x ≡ 0 (mod 4), 1 <= x <= 3: unsat; widen to 4: sat.
        assert not sat(Cong(x(), 4), Geq(x() - 1), Geq(3 - x()))
        assert sat(Cong(x(), 4), Geq(x() - 1), Geq(4 - x()))

    def test_congruence_with_coefficient(self):
        # 2x ≡ 1 (mod 4) has no solution (2x is always even).
        assert not sat(Cong(x(2) - 1, 4))
        # 3x ≡ 1 (mod 4) does (x = 3).
        assert sat(Cong(x(3) - 1, 4))

    def test_unbounded_direction(self):
        assert sat(Geq(x() - 1000000))

    def test_two_variable_system(self):
        # x + y >= 10, x <= 2, y <= 3 -> max sum 5: unsat.
        assert not sat(Geq(x() + y() - 10), Geq(2 - x()), Geq(3 - y()))


def normalized(c):
    """The kernel's normalization of *c*, back as Constraints."""
    s = normalize(from_constraints(c))
    return None if s is None else to_constraints(s)


class TestNormalize:
    def test_gcd_tightening(self):
        # 2x - 1 >= 0 tightens to x - 1 >= 0 (x >= 0.5 -> x >= 1).
        c = normalized(Constraints(geqs=[x(2) - 1]))
        assert c.geqs == [x() - 1]

    def test_unsat_equality_detected(self):
        assert normalized(Constraints(eqs=[x(2) - 1])) is None

    def test_duplicate_removal(self):
        c = normalized(Constraints(geqs=[x(), x()]))
        assert len(c.geqs) == 1


class TestProjection:
    def test_project_away_bounded_variable(self):
        # exists x: y <= x <= y+5  -> true for all y.
        c = Constraints(geqs=[x() - y(), y() + 5 - x()])
        pieces = project(c, ["x"])
        assert any(p.is_trivially_true for p in pieces)

    def test_project_transfers_bounds(self):
        # exists x: 0 <= x, x <= y - 1  ->  y >= 1.
        c = Constraints(geqs=[x(), y() - 1 - x()])
        pieces = project(c, ["x"])
        assert pieces
        # Every piece must imply y >= 1: check satisfiability with y = 0.
        for piece in pieces:
            zeroed = piece.substitute("y", Linear.const(0))
            assert not satisfiable(zeroed)

    def test_unsat_projects_to_empty(self):
        c = Constraints(geqs=[x() - 3, 2 - x()])
        assert project(c, ["x"]) == []

    def test_project_real_is_fm(self):
        # Real shadow of 2 <= 3x <= y: y >= 6... for rationals y > 5;
        # FM gives 3*y - 3*2 >= 0 style constraints without x.
        c = Constraints(geqs=[x(3) - 2, y() - x(3)])
        out = project_real(c, ["x"])
        assert "x" not in out.variables()
        assert satisfiable(out.substitute("y", Linear.const(6)))


def _evaluate(atom, env):
    value = atom.term.evaluate(env)
    if isinstance(atom, Geq):
        return value >= 0
    if isinstance(atom, Eq):
        return value == 0
    return value % atom.modulus == 0


_atom = st.builds(
    lambda coeffs, const, kind, mod: (
        Geq(Linear(coeffs, const)) if kind == 0
        else Eq(Linear(coeffs, const)) if kind == 1
        else Cong(Linear(coeffs, const), mod)),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(-5, 5),
                    min_size=1, max_size=2),
    st.integers(-12, 12),
    st.integers(0, 2),
    st.sampled_from([2, 3, 4, 5]),
)


class TestExactnessProperty:
    @given(st.lists(_atom, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force_on_boxed_systems(self, atoms):
        # Add a box so brute force over the box is complete.
        box = [Geq(Linear({"x": 1}, 8)), Geq(Linear({"x": -1}, 8)),
               Geq(Linear({"y": 1}, 8)), Geq(Linear({"y": -1}, 8))]
        all_atoms = [a for a in atoms if not isinstance(a, bool)] + box
        got = satisfiable(Constraints.from_atoms(all_atoms))
        brute = any(
            all(_evaluate(a, {"x": vx, "y": vy}) for a in all_atoms)
            for vx, vy in itertools.product(range(-8, 9), repeat=2))
        assert got == brute

    @given(st.lists(_atom, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_projection_preserves_satisfiability(self, atoms):
        c = Constraints.from_atoms(atoms)
        direct = satisfiable(c)
        pieces = project(c, ["x"])
        projected = any(satisfiable(p) for p in pieces)
        assert direct == projected


_BOX = 4


def _holds(c, env):
    return (all(t.evaluate(env) >= 0 for t in c.geqs)
            and all(t.evaluate(env) == 0 for t in c.eqs)
            and all(t.evaluate(env) % m == 0 for t, m in c.congs))


_atom3 = st.builds(
    lambda coeffs, const, kind, mod: (
        Geq(Linear(coeffs, const)) if kind == 0
        else Eq(Linear(coeffs, const)) if kind == 1
        else Cong(Linear(coeffs, const), mod)),
    st.dictionaries(st.sampled_from(["x", "y", "z"]), st.integers(-4, 4),
                    min_size=1, max_size=3),
    st.integers(-10, 10),
    st.integers(0, 2),
    st.sampled_from([2, 3, 4]),
)


class TestExactProjection:
    """``project(c, ["z"])`` is exactly ``∃z: c``, checked against
    enumeration (an oracle independent of the Omega kernel)."""

    @given(st.lists(_atom3, min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_on_boxed_systems(self, atoms):
        box = [Geq(Linear({v: sign}, _BOX))
               for v in ("x", "y", "z") for sign in (1, -1)]
        c = Constraints.from_atoms(atoms + box)
        pieces = project(c, ["z"])
        for piece in pieces:
            assert piece.variables() <= {"x", "y"}
        # The (x, y) window is wider than the box, so a piece that
        # admits a point outside it fails too.
        window = range(-_BOX - 2, _BOX + 3)
        for vx, vy in itertools.product(window, repeat=2):
            want = any(_holds(c, {"x": vx, "y": vy, "z": vz})
                       for vz in range(-_BOX, _BOX + 1))
            got = any(_holds(p, {"x": vx, "y": vy}) for p in pieces)
            assert got == want, (vx, vy)
