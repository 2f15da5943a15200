"""Weakest liberal preconditions of machine operations (paper Section
5.2).

``node_transfer(node, Q)`` returns the condition that must hold *before*
an instruction occurrence so that Q holds after it.  Register
assignments are handled by substitution (Dijkstra); loads and stores go
through a select/update view of the abstract store (Morris's general
axiom of assignment): a load from a single non-summary abstract
location substitutes that location's value variable, anything less
determinate universally quantifies a fresh value (sound havoc).

The SPARC condition codes are modeled by the single variable ``$icc``
(paper Section 5.2.2): ``subcc a, b`` binds ``$icc := a − b`` and each
CFG edge out of a conditional branch carries a sign constraint on
``$icc``.  ISAs that compare registers directly (RISC-V) put the
register operands on the branch condition instead; both reach
:func:`condition_formula` as a relation over two IR operands.
``andcc`` with a ``2^k − 1`` mask and constant right shifts get exact
guarded-havoc encodings with congruences, which is what makes
hash-mask bounds and alignment conditions provable.

Unsigned branch relations are mapped to their signed counterparts; this
is exact for values in [0, 2³¹), which the checked extensions satisfy
(sizes, indices, and addresses are non-negative) and is recorded in
DESIGN.md as a modeling assumption.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.cfg.graph import BranchCondition, Node
from repro.errors import ProverError
from repro.ir.ops import (
    CC_VAR, Assign, BinOp, ConstOp, Load, OpVisitor, Store,
)
from repro.logic.formula import (
    Cong, Formula, TRUE, conj, eq, forall, fresh_drawn, fresh_variable,
    ge, gt, has_quantifier, implies, le, lt, ne, neg, skip_fresh,
)
from repro.logic.memo import BoundedCache
from repro.logic.terms import Linear
from repro.typesys.locations import LocationTable
from repro.typesys.store import AbstractStore
from repro.analysis.semantics import Usage, resolve_memory

#: The condition-code pseudo-variable.
ICC = CC_VAR


def operand_term(operand) -> Linear:
    """Linear term of an operand.  Accepts IR operands
    (:class:`~repro.ir.ops.RegOp`/:class:`~repro.ir.ops.ConstOp`) and,
    duck-typed on ``.name``/``.value``, raw frontend operands."""
    if operand is None:
        return Linear.const(0)
    name = getattr(operand, "name", None)
    if name is not None:
        return Linear.const(0) if name == "%g0" else Linear.var(name)
    return Linear.const(operand.value)


_RELATION_FORMULA = {
    "==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge,
}


#: BranchCondition -> its formula.  Conditions are frozen and hashable,
#: and every sweep across an edge asks for the same formula again.
_CONDITION_CACHE = BoundedCache()


def condition_formula(condition: BranchCondition) -> Formula:
    """The linear constraint a CFG edge imposes."""
    formula = _CONDITION_CACHE.get(condition)
    if formula is None:
        formula = _condition_formula(condition)
        _CONDITION_CACHE.put(condition, formula)
    return formula


def _condition_formula(condition: BranchCondition) -> Formula:
    if condition.relation is None:
        # Overflow tests (bvs/bvc) carry no linear information; both
        # edges get TRUE, which makes the wlp require both paths.
        return TRUE
    diff = operand_term(condition.lhs) - operand_term(condition.rhs)
    base = _RELATION_FORMULA[condition.relation](diff, 0)
    return base if condition.taken else neg(base)


#: Universal havocs over bodies up to this size are eliminated eagerly
#: (exact QE), which keeps backward-substitution formulas small instead
#: of accumulating quantifiers until one giant elimination at the end.
EAGER_QE_LIMIT = 80


def _eager_eliminate(f: Formula) -> Formula:
    from repro.logic.prover import DEFAULT_PROVER
    from repro.logic.simplify import simplify
    if _size(f) > EAGER_QE_LIMIT:
        return f
    try:
        return simplify(DEFAULT_PROVER.eliminate_quantifiers(f))
    except ProverError:
        return f


def _size(f: Formula) -> int:
    parts = getattr(f, "parts", None)
    if parts is not None:
        return sum(_size(p) for p in parts)
    body = getattr(f, "body", None)
    if body is not None:
        return _size(body)
    part = getattr(f, "part", None)
    if part is not None:
        return _size(part)
    return 1


def havoc(q: Formula, var: str) -> Formula:
    """∀v. Q[var ↦ v] — the value becomes unknown."""
    return _havoc(q, var, None)


def guarded_havoc(q: Formula, var: str, guard_of) -> Formula:
    """∀v. guard(v) → Q[var ↦ v] for partially known results."""
    return _havoc(q, var, guard_of)


#: (q, var, guard on :data:`_GUARD_PLACEHOLDER` or None) -> (the
#: quantifier-free elimination, how many fresh names it drew).  Each
#: havoc binds a new ``$h`` name, so ∀$hN.Q[var ↦ $hN] is a new formula
#: every time and no formula memo ever sees it twice; this one is keyed
#: on the inputs instead.  A result that keeps its ∀ (the body is over
#: :data:`EAGER_QE_LIMIT` or the elimination gave up) still carries the
#: fresh name and is not stored.
_HAVOC_CACHE = BoundedCache()

#: Stands for the havocked value in a guard's cache key; drawn names
#: always end in a number, so it never occurs in a formula.
_GUARD_PLACEHOLDER = Linear.var("$h")


def _havoc(q: Formula, var: str, guard_of) -> Formula:
    if var not in q.free_variables():
        return q
    # Drawn on a hit too, and a hit replays the elimination's own draws
    # (Omega's quotient variables), so every later fresh name is the
    # one recomputing would give.
    fresh = fresh_variable("$h")
    key = (q, var, None if guard_of is None
           else guard_of(_GUARD_PLACEHOLDER))
    cached = _HAVOC_CACHE.get(key)
    if cached is not None:
        result, draws = cached
        skip_fresh(draws)
        return result
    drawn = fresh_drawn()
    value = Linear.var(fresh)
    if guard_of is None:
        body = q.substitute(var, value)
    else:
        body = implies(guard_of(value), q.substitute(var, value))
    result = _eager_eliminate(forall([fresh], body))
    if not has_quantifier(result):
        _HAVOC_CACHE.put(key, (result, fresh_drawn() - drawn))
    return result


def _mask_width(operand) -> Optional[int]:
    """k when *operand* is the constant 2^k − 1 with k ≥ 1: an and-mask
    that keeps the low k bits."""
    if not isinstance(operand, ConstOp):
        return None
    value = operand.value + 1
    if value > 1 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _is_zero(operand) -> bool:
    return isinstance(operand, ConstOp) and operand.value == 0


class WlpTransfer(OpVisitor):
    """Per-node wlp transfer, resolved against the typestate-propagation
    fixpoint (needed to know which abstract locations a memory access
    touches)."""

    def __init__(self, stores: Dict[int, AbstractStore],
                 locations: LocationTable):
        self._stores = stores
        self._locations = locations

    # -- entry point ---------------------------------------------------------

    def node_transfer(self, node: Node, q: Formula) -> Formula:
        inst = node.instruction
        if inst is None or q is TRUE:
            return q
        return self.visit(inst, node, q)

    def writes(self, node: Node) -> FrozenSet[str]:
        """The variables the node's wlp can rewrite: ``node_transfer``
        returns Q itself whenever none of them is free in Q."""
        inst = node.instruction
        if inst is None:
            return frozenset()
        if isinstance(inst, Store):
            resolution = self._resolve(node, inst)
            if resolution is None:
                return frozenset(location.name for location
                                 in self._locations.memory_locations())
            return frozenset(resolution.targets)
        out = set()
        register = inst.defined_register()
        if register is not None:
            out.add(register)
        if inst.sets_cc:
            out.add(ICC)
        return frozenset(out)

    # -- register assignment -----------------------------------------------------

    @staticmethod
    def _assign(q: Formula, dest: Optional[str],
                value: Optional[Linear]) -> Formula:
        if dest not in q.free_variables():
            return q
        if value is None:
            return havoc(q, dest)
        return q.substitute(dest, value)

    def visit_assign(self, op: Assign, node: Node, q: Formula) -> Formula:
        # An op that writes nothing free in Q leaves Q as it is; skip
        # building its operand terms and rebuilding Q.
        free = q.free_variables()
        if op.dest not in free and not (op.sets_cc and ICC in free):
            return q
        return self._assign_op(op, q)

    def _assign_op(self, op: Assign, q: Formula) -> Formula:
        """wlp of an ALU op by substitution or havoc of dest, then
        $icc."""
        rs1 = operand_term(op.src1)
        op2 = operand_term(op.src2)

        # Value computed into dest (None = not linearly expressible).
        result: Optional[Linear] = None
        guard = None  # (guard_of) for guarded havoc
        if op.op is BinOp.ADD:
            result = rs1 + op2
        elif op.op is BinOp.SUB:
            result = rs1 - op2
        elif op.op is BinOp.OR:
            if _is_zero(op.src1):
                result = op2
            elif _is_zero(op.src2):
                result = rs1
        elif op.op is BinOp.AND:
            k = _mask_width(op.src2)
            if _is_zero(op.src2):
                result = Linear.const(0)
            elif k is not None:
                # dest = src1 mod 2^k (for non-negative src1): exact
                # characterization v ≡ src1 (mod 2^k), 0 ≤ v < 2^k.
                modulus = 1 << k
                guard = lambda v, rs1=rs1, modulus=modulus: conj(
                    Cong((v - rs1), modulus) if not (v - rs1).is_constant
                    else TRUE,
                    ge(v, 0), lt(v, modulus))
        elif op.op is BinOp.SLL:
            if isinstance(op.src2, ConstOp):
                result = rs1.scale(1 << (op.src2.value & 31))
        elif op.op in (BinOp.SRL, BinOp.SRA):
            if isinstance(op.src2, ConstOp):
                factor = 1 << (op.src2.value & 31)
                guard = lambda v, rs1=rs1, factor=factor: conj(
                    le(v.scale(factor), rs1),
                    le(rs1, v.scale(factor) + (factor - 1)))
        elif op.op in (BinOp.UMUL, BinOp.MUL):
            if isinstance(op.src2, ConstOp):
                result = rs1.scale(op.src2.value)
        # xor/andn/orn/xnor/div and register-shift forms: havoc.

        out = q
        # dest first (old-value semantics), then $icc; see module doc.
        if result is not None:
            out = self._assign(out, op.dest, result)
        elif guard is not None and op.dest is not None:
            out = guarded_havoc(out, op.dest, guard)
        else:
            out = self._assign(out, op.dest, None)

        if op.sets_cc:
            out = self._set_icc(out, op, rs1, op2, result)
        return out

    def _set_icc(self, q: Formula, op: Assign,
                 rs1: Linear, op2: Linear,
                 result: Optional[Linear]) -> Formula:
        if ICC not in q.free_variables():
            return q
        if op.op is BinOp.SUB:
            return q.substitute(ICC, rs1 - op2)
        if op.op is BinOp.ADD:
            return q.substitute(ICC, rs1 + op2)
        if op.op is BinOp.OR:
            # tst: or 0, rs — icc reflects rs.  A true bitwise or of
            # two unknown values is not linear.
            if _is_zero(op.src1):
                return q.substitute(ICC, op2)
            if _is_zero(op.src2):
                return q.substitute(ICC, rs1)
        if op.op is BinOp.AND:
            k = _mask_width(op.src2)
            if k is not None:
                modulus = 1 << k
                return guarded_havoc(
                    q, ICC,
                    lambda v, rs1=rs1, modulus=modulus: conj(
                        Cong(v - rs1, modulus), ge(v, 0), lt(v, modulus)))
        if result is not None:
            return q.substitute(ICC, result)
        return havoc(q, ICC)

    # -- other register writers ----------------------------------------------

    def visit_set_const(self, op, node: Node, q: Formula) -> Formula:
        if op.dest not in q.free_variables():
            return q
        return q.substitute(op.dest, Linear.const(op.value))

    def visit_call(self, op, node: Node, q: Formula) -> Formula:
        if op.link is not None:
            return havoc(q, op.link)
        return q

    def visit_indirect_jump(self, op, node: Node, q: Formula) -> Formula:
        if op.link is not None:
            return havoc(q, op.link)
        return q

    # -- memory -----------------------------------------------------------------

    def visit_load(self, op: Load, node: Node, q: Formula) -> Formula:
        if op.dest is None:
            return q
        if op.dest not in q.free_variables():
            return q
        resolution = self._resolve(node, op)
        if resolution is not None \
                and resolution.usage in (Usage.FIELD_ACCESS,
                                         Usage.POINTER_ACCESS) \
                and len(resolution.targets) == 1 \
                and not self._locations.is_summary(resolution.targets[0]):
            return q.substitute(op.dest,
                                Linear.var(resolution.targets[0]))
        return havoc(q, op.dest)

    def visit_store(self, op: Store, node: Node, q: Formula) -> Formula:
        resolution = self._resolve(node, op)
        if resolution is None:
            return self._havoc_all_memory(q)
        targets = resolution.targets
        if (resolution.usage in (Usage.FIELD_ACCESS, Usage.POINTER_ACCESS)
                and len(targets) == 1
                and not self._locations.is_summary(targets[0])):
            return q.substitute(targets[0], operand_term(op.src))
        out = q
        for target in targets:
            out = havoc(out, target)
        return out

    def _resolve(self, node: Node, op):
        store = self._stores.get(node.uid)
        if store is None:
            return None
        return resolve_memory(op, store, self._locations)

    def _havoc_all_memory(self, q: Formula) -> Formula:
        out = q
        for location in self._locations.memory_locations():
            out = havoc(out, location.name)
        return out

    # -- everything else is wlp-neutral ---------------------------------------

    def visit_default(self, op, node: Node, q: Formula) -> Formula:
        return q
