"""Presburger-arithmetic substrate: linear terms, formulas, the Omega
test, quantifier elimination, and the theorem prover."""

from repro.logic.canonical import canonical_conjunct, canonicalize
from repro.logic.formula import (
    And, Cong, Eq, Exists, FALSE, Forall, Formula, Geq, Not, NotCong, Or,
    TRUE,
    congruent, conj, disj, eq, exists, forall, formula_size,
    fresh_variable, ge, gt, has_quantifier, implies, le, lt, ne, neg,
)
from repro.logic.normalize import to_dnf, to_nnf
from repro.logic.omega import (
    Constraints, project, project_real, satisfiable,
)
from repro.logic.prover import (
    DEFAULT_PROVER, Prover, ProverStats, is_satisfiable, is_valid,
)
from repro.logic.simplify import simplify
from repro.logic.terms import Linear, ONE, ZERO, linear

__all__ = [
    "And", "Cong", "Eq", "Exists", "FALSE", "Forall", "Formula", "Geq",
    "Not", "NotCong", "Or", "TRUE",
    "canonical_conjunct", "canonicalize",
    "congruent", "conj", "disj", "eq", "exists", "forall",
    "formula_size", "fresh_variable", "ge", "gt", "has_quantifier",
    "implies", "le", "lt", "ne", "neg",
    "to_dnf", "to_nnf",
    "Constraints", "project", "project_real", "satisfiable",
    "DEFAULT_PROVER", "Prover", "ProverStats", "is_satisfiable",
    "is_valid",
    "simplify",
    "Linear", "ONE", "ZERO", "linear",
]
