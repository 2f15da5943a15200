"""Difference-constraint fast path: unit tests plus an exactness
property against the full Omega solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Prover
from repro.logic.diffsolver import (
    as_difference_system, solve_difference_system, try_satisfiable,
)
from repro.logic.formula import Cong, Eq, Geq
from repro.logic.omega import Constraints, satisfiable
from repro.logic.terms import Linear


def geq(coeffs, const=0):
    return Geq(Linear(coeffs, const))


class TestFragmentRecognition:
    def test_difference_atom(self):
        system = as_difference_system([geq({"x": 1, "y": -1}, 3)])
        assert system == [("x", "y", 3)]

    def test_single_variable_bounds(self):
        lower = as_difference_system([geq({"x": 1}, 2)])   # x >= -2
        upper = as_difference_system([geq({"x": -1}, 5)])  # x <= 5
        assert lower == [("x", "$zero", 2)]
        assert upper == [("$zero", "x", 5)]

    def test_equality_becomes_two_edges(self):
        system = as_difference_system([Eq(Linear({"x": 1, "y": -1}))])
        assert len(system) == 2

    def test_scaled_coefficients_rejected(self):
        assert as_difference_system([geq({"x": 2, "y": -1})]) is None
        assert as_difference_system([geq({"x": 2})]) is None

    def test_three_variables_rejected(self):
        assert as_difference_system(
            [geq({"x": 1, "y": -1, "z": 1})]) is None

    def test_congruence_rejected(self):
        assert as_difference_system([Cong(Linear({"x": 1}), 4)]) is None


class TestSolving:
    def test_consistent_chain(self):
        # x <= y <= z <= x is satisfiable (all equal).
        atoms = [geq({"y": 1, "x": -1}), geq({"z": 1, "y": -1}),
                 geq({"x": 1, "z": -1})]
        assert try_satisfiable(atoms) is True

    def test_negative_cycle_detected(self):
        # x < y < x: unsatisfiable.
        atoms = [geq({"y": 1, "x": -1}, -1), geq({"x": 1, "y": -1}, -1)]
        assert try_satisfiable(atoms) is False

    def test_window_too_tight(self):
        # 3 <= x <= 2.
        atoms = [geq({"x": 1}, -3), geq({"x": -1}, 2)]
        assert try_satisfiable(atoms) is False

    def test_window_exact(self):
        atoms = [geq({"x": 1}, -2), geq({"x": -1}, 2)]
        assert try_satisfiable(atoms) is True

    def test_empty_system(self):
        assert try_satisfiable([]) is True

    def test_ground_contradiction(self):
        assert try_satisfiable([Geq(Linear({}, -1))]) is False


_diff_atom = st.builds(
    lambda pair, const, single: (
        geq({pair[0]: 1}, const) if single == 1
        else geq({pair[0]: -1}, const) if single == 2
        else geq({pair[0]: 1, pair[1]: -1}, const)),
    st.sampled_from([("a", "b"), ("b", "c"), ("a", "c")]),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=2),
)


class TestExactness:
    @given(st.lists(_diff_atom, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_omega(self, atoms):
        fast = try_satisfiable(atoms)
        assert fast is not None
        full = satisfiable(Constraints.from_atoms(atoms))
        assert fast == full


class TestProverIntegration:
    def test_fast_path_hit_counted(self):
        prover = Prover()
        x, y = Linear.var("x"), Linear.var("y")
        from repro.logic import conj, ge, lt
        prover.is_satisfiable(conj(lt(x, y), lt(y, x)))
        assert prover.stats.difference_fast_path_hits >= 1
