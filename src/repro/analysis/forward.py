"""Forward propagation of linear facts (paper Sections 5.2.3 and 6).

The paper reports: "Simple experiments that we carried out demonstrated
substantial speedups in the induction-iteration method by selectively
pushing conditions involving array bounds down in the program's
control-flow graph" — a forward pass in the style of Cousot & Halbwachs
that discovers facts like ``%o0 ≥ 1``, ``%o0 ≡ 0 (mod 4)``, or
``%g6 = len`` at loop headers, so the backward engine does not have to
re-derive them through entry sweeps and generalization.

The domain here is a conjunction of affine atoms over registers and
spec symbols, kept as a normalized set:

* inequalities ``d·x⃗ ≥ −c`` keyed by their direction vector (joins keep
  the weaker bound);
* congruences ``t ≡ r (mod m)`` keyed by their term (joins weaken the
  modulus to gcd(m, r₁ − r₂));
* equalities are represented as two opposite inequalities.

Transfer is exact for the invertible assignments (``x := x ± k``) and
copies, uses the mask/shift ranges for ``and``/``srl``, and kills facts
about registers whose new value is not affine.  The join is a widening-
free intersection — the atom set only shrinks, so the fixpoint
terminates without further machinery.

The pass computes facts only at the nodes that reach a loop header:
the engine reads them nowhere else, and an unrolled callee body that
control leaves only by a RETURN edge (md5's ``MD5Transform``) would
otherwise be most of the work.
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro import budget
from repro.cfg.graph import CFG, Edge, EdgeKind, Node
from repro.ir.ops import (
    Assign, BinOp, ConstOp, Load, MachineOp, OpVisitor,
)
from repro.logic.formula import Cong, Formula, Geq, conj
from repro.logic.memo import BoundedCache
from repro.logic.terms import Linear
from repro.analysis.wlp import ICC, condition_formula, operand_term

#: Direction key: sorted (variable, coefficient) pairs.
Direction = Tuple[Tuple[str, int], ...]

#: Worklist steps after which the fixpoint gives up.  A run stopped
#: with work still queued has not converged: its facts may be stronger
#: than what holds, so none are published.
MAX_FORWARD_STEPS = 100_000


class FactSet:
    """A normalized conjunction of affine atoms.

    ``lower[d]`` holds the constant c of the strongest known fact
    ``d·x⃗ + c ≥ 0``; ``congruences[(d, m)]`` the residue r of
    ``d·x⃗ ≡ r (mod m)``.  Every write to ``lower`` goes through a
    method of this class, which drops the cached equality map.
    """

    __slots__ = ("lower", "congruences", "_eq")

    def __init__(self) -> None:
        self.lower: Dict[Direction, int] = {}
        self.congruences: Dict[Tuple[Direction, int], int] = {}
        #: :meth:`_equalities` of ``lower``, or None until asked for.
        self._eq: Optional[Dict[Direction, int]] = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_formula(f: Formula) -> "FactSet":
        facts = FactSet()
        for atom in _conjunctive_atoms(f):
            facts.add_atom(atom)
        return facts

    def copy(self) -> "FactSet":
        out = FactSet()
        out.lower = dict(self.lower)
        out.congruences = dict(self.congruences)
        out._eq = self._eq
        return out

    def add_atom(self, atom: Formula) -> None:
        from repro.logic.formula import Eq
        if isinstance(atom, Geq):
            self._add_geq(atom.term)
        elif isinstance(atom, Eq):
            self._add_geq(atom.term)
            self._add_geq(atom.term.scale(-1))
        elif isinstance(atom, Cong):
            self._add_cong(atom.term, atom.modulus)

    def _add_geq(self, term: Linear) -> None:
        direction, constant = _normalize_geq(term)
        if direction is None:
            return
        best = self.lower.get(direction)
        # term + c >= 0 is stronger for smaller c... d·x ≥ −c: smaller c
        # means a larger right-hand side: keep the minimum.
        if best is None or constant < best:
            self.lower[direction] = constant
            self._eq = None

    def _add_cong(self, term: Linear, modulus: int) -> None:
        direction, residue, modulus = _normalize_cong(term, modulus)
        if direction is None or modulus < 2:
            return
        key = (direction, modulus)
        known = self.congruences.get(key)
        if known is None:
            self.congruences[key] = residue
        elif known != residue:
            # Contradictory congruence facts: weaken to their gcd.
            del self.congruences[key]
            weaker = gcd(modulus, abs(known - residue))
            if weaker >= 2:
                self._add_cong(
                    Linear(dict(direction), -(residue % weaker)), weaker)

    # -- lattice join (control-flow merge) -------------------------------------

    def join(self, other: "FactSet", widen: bool = False) -> "FactSet":
        """Control-flow merge.  With ``widen`` (applied after a few
        visits of the same node), bounds that are still *changing* are
        dropped instead of weakened — the standard widening that makes
        counter loops converge instead of drifting one step per
        iteration."""
        out = FactSet()
        self_equalities = self._equalities()
        other_equalities = other._equalities()
        for direction, c1 in self.lower.items():
            c2 = other.lower.get(direction)
            if c2 is None:
                continue
            if widen and c2 > c1:
                continue  # still weakening: widen it away
            out.lower[direction] = max(c1, c2)  # the weaker bound
        for key, r1 in self.congruences.items():
            r2 = other.congruences.get(key)
            if r2 is None:
                # Retention: a side that pins the direction to a single
                # value consistent with the congruence still implies it.
                direction, modulus = key
                pinned = other_equalities.get(direction)
                if pinned is not None and pinned % modulus == r1:
                    out.congruences[key] = r1
                continue
            if r1 == r2:
                out.congruences[key] = r1
            else:
                direction, modulus = key
                weaker = gcd(modulus, abs(r1 - r2))
                if weaker >= 2:
                    out._add_cong(Linear(dict(direction), -(r1 % weaker)),
                                  weaker)
        # Retention in the other direction as well.
        for key, r2 in other.congruences.items():
            if key in self.congruences or key in out.congruences:
                continue
            direction, modulus = key
            pinned = self_equalities.get(direction)
            if pinned is not None and pinned % modulus == r2:
                out.congruences[key] = r2
        # Congruence synthesis: two sides that pin the same direction to
        # *different* constants (d·x⃗ = v₁ vs = v₂) agree modulo their
        # difference — how a stride-4 counter learns x ≡ 0 (mod 4).
        for direction, v1 in self_equalities.items():
            v2 = other_equalities.get(direction)
            if v2 is not None and v1 != v2 and abs(v1 - v2) >= 2:
                out._add_cong(Linear(dict(direction), -v1),
                              abs(v1 - v2))
        return out

    def _equalities(self) -> Dict[Direction, int]:
        """Directions pinned to a single value: d·x⃗ = v (both the d and
        −d bounds present and tight).  Computed once per ``lower``; the
        map is shared, never changed in place."""
        out = self._eq
        if out is None:
            out = {}
            lower = self.lower
            for direction, constant in lower.items():
                opposite = lower.get(_negated(direction))
                if opposite is not None and constant + opposite == 0:
                    out[direction] = -constant
            self._eq = out
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FactSet):
            return NotImplemented
        return (self.lower == other.lower
                and self.congruences == other.congruences)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    # -- transfer --------------------------------------------------------------

    def kill(self, var: str) -> None:
        if any(var in _variables(d) for d in self.lower):
            self.lower = {d: c for d, c in self.lower.items()
                          if var not in _variables(d)}
            self._eq = None
        if any(var in _variables(k[0]) for k in self.congruences):
            self.congruences = {k: r for k, r in self.congruences.items()
                                if var not in _variables(k[0])}

    def substitute(self, var: str, replacement: Linear) -> "FactSet":
        """Exact inverse-assignment transfer: every fact's occurrences
        of *var* are rewritten (used for x := x ± k with the shift
        x ↦ x ∓ k)."""
        out = FactSet()
        for direction, constant in self.lower.items():
            term = Linear(dict(direction), constant)
            out._add_geq(term.substitute(var, replacement))
        for (direction, modulus), residue in self.congruences.items():
            term = Linear(dict(direction), -residue)
            rewritten = term.substitute(var, replacement)
            out._add_cong(rewritten, modulus)
        return out

    def assign(self, var: str, value: Optional[Linear]) -> "FactSet":
        """x := value (None = unknown).  Exact for affine values."""
        if value is None:
            out = self.copy()
            out.kill(var)
            return out
        coefficient = value.coefficient(var)
        if coefficient == 1:
            # x := x + k: facts shift by substitution x -> x − k.
            shift = value - Linear.var(var)
            if shift.is_constant:
                return self.substitute(var,
                                       Linear.var(var) - shift.constant)
            out = self.copy()
            out.kill(var)
            return out
        if coefficient != 0:
            out = self.copy()
            out.kill(var)
            return out
        out = self.copy()
        out.kill(var)
        out._add_geq(Linear.var(var) - value)          # x − e ≥ 0
        out._add_geq(value - Linear.var(var))          # e − x ≥ 0
        return out

    # -- output -----------------------------------------------------------------

    def atoms(self) -> List[Formula]:
        out: List[Formula] = []
        for direction, constant in sorted(self.lower.items()):
            out.append(Geq(Linear(dict(direction), constant)))
        for (direction, modulus), residue in sorted(
                self.congruences.items()):
            out.append(Cong(Linear(dict(direction), -residue), modulus))
        return out

    def to_formula(self) -> Formula:
        return conj(*self.atoms())

    def __repr__(self) -> str:
        return "FactSet(%s)" % ", ".join(str(a) for a in self.atoms())


# ---------------------------------------------------------------------------
# normalization helpers
# ---------------------------------------------------------------------------


def _normalize_geq(term: Linear):
    coeffs = dict(term.coefficients)
    if not coeffs:
        return None, 0
    g = term.content()
    constant = term.constant
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        constant = constant // g  # floor: sound tightening
    return tuple(sorted(coeffs.items())), constant


def _normalize_cong(term: Linear, modulus: int):
    coeffs = {v: c % modulus for v, c in term.coefficients.items()
              if c % modulus}
    if not coeffs:
        return None, 0, 0
    residue = (-term.constant) % modulus
    return tuple(sorted(coeffs.items())), residue, modulus


#: Direction -> its negation (the key of the opposite bound).
_NEGATED = BoundedCache()

#: Direction -> the set of its variables.
_VARIABLES = BoundedCache()


def _negated(direction: Direction) -> Direction:
    negated = _NEGATED.get(direction)
    if negated is None:
        negated = tuple(sorted((var, -coeff) for var, coeff in direction))
        _NEGATED.put(direction, negated)
    return negated


def _variables(direction: Direction) -> FrozenSet[str]:
    names = _VARIABLES.get(direction)
    if names is None:
        names = frozenset(name for name, __ in direction)
        _VARIABLES.put(direction, names)
    return names


def _conjunctive_atoms(f: Formula) -> List[Formula]:
    from repro.logic.formula import And, Eq
    if isinstance(f, And):
        out: List[Formula] = []
        for part in f.parts:
            out.extend(_conjunctive_atoms(part))
        return out
    if isinstance(f, (Geq, Eq, Cong)):
        return [f]
    return []  # disjunctions etc. contribute nothing (sound)


def _is_zero(operand) -> bool:
    return isinstance(operand, ConstOp) and operand.value == 0


# ---------------------------------------------------------------------------
# the forward pass
# ---------------------------------------------------------------------------


class _FactTransfer(OpVisitor):
    """Per-op transfer on fact sets, one method per IR op."""

    def visit_assign(self, op: Assign, facts: FactSet) -> FactSet:
        rs1 = operand_term(op.src1)
        op2 = operand_term(op.src2)
        value: Optional[Linear] = None
        extra: List[Formula] = []
        target = op.dest

        if op.op is BinOp.ADD:
            value = rs1 + op2
        elif op.op is BinOp.SUB:
            value = rs1 - op2
        elif op.op is BinOp.OR and _is_zero(op.src1):
            value = op2
        elif op.op is BinOp.SLL and isinstance(op.src2, ConstOp):
            value = rs1.scale(1 << (op.src2.value & 31))
        elif op.op in (BinOp.UMUL, BinOp.MUL) \
                and isinstance(op.src2, ConstOp):
            value = rs1.scale(op.src2.value)
        elif op.op is BinOp.AND and isinstance(op.src2, ConstOp) \
                and op.src2.value > 0 \
                and (op.src2.value + 1) & op.src2.value == 0 \
                and target is not None:
            mask = op.src2.value
            extra = [Geq(Linear.var(target)),
                     Geq(Linear({target: -1}, mask))]
        out = facts
        if target is not None:
            out = out.assign(target, value)
            for atom in extra:
                out.add_atom(atom)
        if op.sets_cc:
            icc_value = None
            if op.op is BinOp.SUB:
                icc_value = rs1 - op2
            elif op.op is BinOp.ADD:
                icc_value = rs1 + op2
            elif op.op is BinOp.OR and _is_zero(op.src1):
                icc_value = op2
            out = out.assign(ICC, icc_value)
        return out

    def visit_set_const(self, op, facts: FactSet) -> FactSet:
        if op.dest is not None:
            return facts.assign(op.dest, Linear.const(op.value))
        return facts

    def visit_load(self, op: Load, facts: FactSet) -> FactSet:
        if op.dest is None:
            return facts
        out = facts.assign(op.dest, None)
        bound = op.unsigned_range
        if bound is not None:
            # Unsigned sub-word loads are range-bounded.
            out._add_geq(Linear.var(op.dest))
            out._add_geq(Linear({op.dest: -1}, bound - 1))
        return out

    def visit_call(self, op, facts: FactSet) -> FactSet:
        return self._kill_link(op, facts)

    def visit_indirect_jump(self, op, facts: FactSet) -> FactSet:
        return self._kill_link(op, facts)

    @staticmethod
    def _kill_link(op, facts: FactSet) -> FactSet:
        if op.link is None:
            return facts
        out = facts.copy()
        out.kill(op.link)
        return out

    def visit_default(self, op: MachineOp, facts: FactSet) -> FactSet:
        # Stores, branches, nops: no register facts change.
        return facts


def _reaching(cfg: CFG, targets: Iterable[int]) -> Set[int]:
    """The nodes from which some node of *targets* is reachable (the
    targets included), along every edge kind the forward pass follows:
    all but RETURN."""
    seen = set(targets)
    stack = list(seen)
    while stack:
        for edge in cfg.predecessors(stack.pop()):
            if edge.kind is not EdgeKind.RETURN and edge.src not in seen:
                seen.add(edge.src)
                stack.append(edge.src)
    return seen


class ReplayedForward:
    """A ``facts_at`` provider reconstructed from stored loop-header
    facts (the phase 2–4 replay path).  The verification engine only
    ever consults the forward pass at loop headers, so per-header
    formulas are the whole observable surface; any other uid yields the
    empty conjunction, exactly like an unreached node in a fresh run."""

    def __init__(self, facts: Dict[int, Formula]):
        self._facts = dict(facts)

    def facts_at(self, uid: int) -> Formula:
        return self._facts.get(uid, conj())


class ForwardBounds:
    """Worklist forward propagation of :class:`FactSet` over the CFG.

    Produces, per node that reaches a loop header, facts that hold
    whenever control reaches it — in particular at the *headers*, where
    the verification engine uses them as ambient invariants.  Nodes
    that reach no header are never computed: a node's facts depend only
    on its predecessors, and every predecessor of a node that reaches a
    header reaches it too, so the headers' facts are those of the pass
    over the whole CFG.  Every worklist step polls the check's budget,
    so a pathological fixpoint aborts with
    :class:`~repro.errors.ProverTimeout` instead of overrunning it.
    """

    def __init__(self, cfg: CFG, initial: Formula, headers: Iterable[int]):
        self.cfg = cfg
        self.before: Dict[int, FactSet] = {}
        self._transfer_visitor = _FactTransfer()
        self._run(initial, _reaching(cfg, headers))

    def facts_at(self, uid: int) -> Formula:
        facts = self.before.get(uid)
        return facts.to_formula() if facts is not None else conj()

    # -- engine ------------------------------------------------------------

    #: Recomputations of one node before widening kicks in.
    WIDENING_DELAY = 3

    def _run(self, initial: Formula, kept: Set[int]) -> None:
        """Pull-style fixpoint over the *kept* nodes: each node's facts
        are recomputed as the join over its predecessors' *current*
        outputs, so stale path contributions are replaced rather than
        accumulated.

        The worklist is FIFO.  Widening depends on how often a node was
        recomputed, so the visit order shapes the facts themselves, not
        just the time to reach them: a reverse-postorder worklist gives
        different facts at 375 of the 2,195 Figure-9 nodes.  Leaving
        the other nodes off the queue does not reorder the kept ones, so
        their visit counts, and with them the widening, are those of
        the pass over every node."""
        entry = self.cfg.entry_uid
        if entry not in kept:
            return
        self.before[entry] = FactSet.from_formula(initial)
        after: Dict[int, FactSet] = {}
        visits: Dict[int, int] = {}
        worklist = deque([entry])
        queued = {entry}
        steps = 0
        while worklist and steps < MAX_FORWARD_STEPS:
            steps += 1
            budget.check()
            uid = worklist.popleft()
            queued.discard(uid)
            if uid != entry:
                combined: Optional[FactSet] = None
                for edge in self.cfg.predecessors(uid):
                    if edge.kind is EdgeKind.RETURN:
                        continue  # summarized through SUMMARY edges
                    source = after.get(edge.src)
                    if source is None:
                        continue
                    flowed = self._along_edge(edge, source)
                    combined = flowed if combined is None \
                        else combined.join(flowed)
                if combined is None:
                    continue
                old = self.before.get(uid)
                if old is not None:
                    # Iteration-to-iteration narrowing with widening:
                    # only ever lose facts relative to the previous
                    # value, dropping bounds that keep weakening.
                    count = visits.get(uid, 0)
                    combined = old.join(
                        combined, widen=count >= self.WIDENING_DELAY)
                    if combined == old:
                        # after[uid] is already transfer(old).
                        continue
                self.before[uid] = combined
                visits[uid] = visits.get(uid, 0) + 1
            out_facts = self._transfer(self.cfg.node(uid),
                                       self.before[uid])
            if after.get(uid) == out_facts:
                continue
            after[uid] = out_facts
            for edge in self.cfg.successors(uid):
                if edge.kind is EdgeKind.RETURN or edge.dst not in kept:
                    continue
                if edge.dst not in queued:
                    queued.add(edge.dst)
                    worklist.append(edge.dst)
        if worklist:
            # Stopped short of the fixpoint: publish nothing, as if the
            # pass were off.
            self.before = {}

    def _along_edge(self, edge: Edge, facts: FactSet) -> FactSet:
        out = facts
        if edge.condition is not None:
            formula = condition_formula(edge.condition)
            out = out.copy()
            for atom in _conjunctive_atoms(formula):
                out.add_atom(atom)
        if edge.kind is EdgeKind.SUMMARY:
            # Crossing a call: drop facts about everything a callee may
            # write (conservative; returns are not modeled here).
            out = out.copy()
            registers = self.cfg.arch.registers if self.cfg.arch else ()
            for name in registers:
                out.kill(name)
            out.kill(ICC)
        if edge.kind is EdgeKind.CALL:
            out = out.copy()
            out.kill(ICC)
        return out

    def _transfer(self, node: Node, facts: FactSet) -> FactSet:
        inst = node.instruction
        if inst is None:
            return facts
        return self._transfer_visitor.visit(inst, facts)
