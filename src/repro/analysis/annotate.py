"""Phase 3 — Annotation (paper Sections 3, 4.3; Table 2, Figure 3).

Walks the untrusted code and attaches to each instruction occurrence:

* **assertions** — facts derivable from the typestate-propagation
  results ("%o2 holds the base address of an integer array of size n");
* **local safety preconditions** — conditions checkable from typestate
  information alone (operability, followability, readability/
  writability, assignability, field lookup success, static alignment of
  named locations, stack discipline);
* **global safety preconditions** — linear-arithmetic conditions that
  Phase 5 must prove (null-pointer checks, array-bounds checks,
  address-alignment of computed addresses, trusted-function
  preconditions, the host's safety postcondition).

The default safety conditions (paper Section 2) are always attached:
array out-of-bounds, address alignment, uses of uninitialized values,
null-pointer dereferences, and stack-manipulation violations; the
host's access policy contributes the permission-based conditions.

Dispatch is per IR op (:mod:`repro.ir.ops`); the stack-discipline check
is parametrized by the CFG's :class:`~repro.ir.arch.ArchInfo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro import budget
from repro.cfg.graph import CFG, Node, NodeRole
from repro.ir.ops import (
    Assign, BinOp, ConstOp, Load, MachineOp, OpVisitor, RegOp, Store,
)
from repro.logic.formula import (
    Formula, TRUE, congruent, ge, lt, ne,
)
from repro.logic.terms import Linear
from repro.policy.model import HostSpec
from repro.typesys.access import AccessSet
from repro.typesys.locations import LocationTable
from repro.typesys.store import AbstractStore
from repro.typesys.types import (
    ArrayBaseType, ArrayMidType, GroundType, sizeof,
)
from repro.typesys.typestate import Typestate
from repro.analysis.semantics import (
    Usage, classify_alu, operand_typestate,
    resolve_memory,
)

#: Category names used in reports.
CAT_BOUNDS = "array-bounds"
CAT_NULL = "null-pointer"
CAT_ALIGN = "address-alignment"
CAT_UNINIT = "uninitialized-value"
CAT_PERM = "access-permission"
CAT_STACK = "stack-manipulation"
CAT_CALL = "trusted-call"
CAT_POST = "host-postcondition"
CAT_RESOLVE = "unresolved-access"


@dataclass
class LocalPredicate:
    """A condition checkable from typestate information alone."""

    description: str
    category: str
    holds: bool


@dataclass
class GlobalPredicate:
    """A linear-arithmetic condition for Phase 5."""

    formula: Formula
    description: str
    category: str


@dataclass
class NodeAnnotation:
    uid: int
    index: int
    usage: Usage
    assertions: List[str] = field(default_factory=list)
    local: List[LocalPredicate] = field(default_factory=list)
    global_: List[GlobalPredicate] = field(default_factory=list)

    def render_figure3(self) -> str:
        """Render one instruction's annotation like paper Figure 3."""
        lines = ["Assertions:"]
        lines += ["  %s" % a for a in self.assertions] or ["  (none)"]
        lines.append("Local Safety Preconditions:")
        lines += ["  %s [%s]" % (p.description,
                                 "ok" if p.holds else "VIOLATED")
                  for p in self.local] or ["  (none)"]
        lines.append("Global Safety Preconditions:")
        lines += ["  %s" % p.formula for p in self.global_] or ["  (none)"]
        return "\n".join(lines)


def annotate(cfg: CFG, stores: Dict[int, AbstractStore], spec: HostSpec,
             locations: LocationTable) -> Dict[int, NodeAnnotation]:
    """Run Phase 3: one annotation per reachable CFG node.

    Every node polls the check's budget, so a check over a huge
    program respects it even before the prover runs."""
    annotator = _Annotator(cfg, stores, spec, locations)
    out: Dict[int, NodeAnnotation] = {}
    for uid in sorted(stores):
        budget.check()
        node = cfg.node(uid)
        if node.instruction is None:
            continue
        out[uid] = annotator.annotate_node(node, stores[uid])
    return out


class _Annotator(OpVisitor):
    def __init__(self, cfg: CFG, stores: Dict[int, AbstractStore],
                 spec: HostSpec, locations: LocationTable):
        self.cfg = cfg
        self.stores = stores
        self.spec = spec
        self.locations = locations

    # -- dispatch ------------------------------------------------------------

    def annotate_node(self, node: Node,
                      store: AbstractStore) -> NodeAnnotation:
        inst = node.instruction
        assert inst is not None
        ann = NodeAnnotation(uid=node.uid, index=node.index,
                             usage=Usage.UNKNOWN)
        self.visit(inst, ann, node, store)
        self._check_stack_discipline(ann, inst)
        return ann

    # -- ALU ------------------------------------------------------------------

    def visit_assign(self, op: Assign, ann: NodeAnnotation, node: Node,
                     store: AbstractStore) -> None:
        usage = classify_alu(op, store)
        ann.usage = usage
        ts1 = operand_typestate(op.src1, store)
        ts2 = operand_typestate(op.src2, store)
        if usage in (Usage.SCALAR_OP, Usage.COMPARE, Usage.MOVE,
                     Usage.ARRAY_INDEX_CALC):
            if isinstance(op.src1, RegOp):
                self._require_operable(ann, op.src1.name, ts1)
            if isinstance(op.src2, RegOp):
                self._require_operable(ann, op.src2.name, ts2)
        if usage is Usage.ARRAY_INDEX_CALC:
            pointer_ts, index = (ts1, op.src2) \
                if isinstance(ts1.type, (ArrayBaseType, ArrayMidType)) \
                else (ts2, op.src1)
            atype = pointer_ts.type
            assert isinstance(atype, (ArrayBaseType, ArrayMidType))
            ann.assertions.append(
                "%s holds a pointer to an array %s"
                % (op.src1, atype))
            base = op.src1 if pointer_ts is ts1 else op.src2
            assert isinstance(base, RegOp)
            ann.global_.append(GlobalPredicate(
                formula=ne(Linear.var(base.name), 0),
                description="%s != NULL" % base.name,
                category=CAT_NULL))
            # Only base pointers support bounds reasoning on the offset;
            # mid-pointer displacement is checked at the access.
            if isinstance(atype, ArrayBaseType):
                self._bounds_predicates(ann, atype, _operand_term(index))

    # -- other register writers ------------------------------------------------

    def visit_set_const(self, op, ann: NodeAnnotation, node: Node,
                        store: AbstractStore) -> None:
        ann.usage = Usage.SETHI

    def visit_nop(self, op, ann: NodeAnnotation, node: Node,
                  store: AbstractStore) -> None:
        ann.usage = Usage.SETHI

    # -- memory ---------------------------------------------------------------

    def visit_load(self, op: Load, ann: NodeAnnotation, node: Node,
                   store: AbstractStore) -> None:
        self._annotate_memory(ann, op, store)

    def visit_store(self, op: Store, ann: NodeAnnotation, node: Node,
                    store: AbstractStore) -> None:
        self._annotate_memory(ann, op, store)

    def _annotate_memory(self, ann: NodeAnnotation,
                         op: Union[Load, Store],
                         store: AbstractStore) -> None:
        resolution = resolve_memory(op, store, self.locations)
        ann.usage = resolution.usage
        is_store = isinstance(op, Store)
        if resolution.usage is Usage.UNKNOWN:
            ann.local.append(LocalPredicate(
                description="memory access resolves to known abstract "
                            "locations (%s)" % resolution.problem,
                category=CAT_RESOLVE, holds=False))
            return
        base = op.addr.base
        base_ts = resolution.base_typestate
        # Local: followable + operable pointer, F non-empty, r/w on the
        # target locations (paper Table 2).
        ann.local.append(LocalPredicate(
            description="followable(%s)" % base,
            category=CAT_PERM, holds=base_ts.followable))
        ann.local.append(LocalPredicate(
            description="operable(%s)" % base,
            category=CAT_UNINIT, holds=base_ts.operable))
        ann.local.append(LocalPredicate(
            description="F != {} for %s" % op.addr,
            category=CAT_RESOLVE, holds=bool(resolution.targets)))
        for target in resolution.targets:
            location = self.locations.get(target)
            if location is None:
                ann.local.append(LocalPredicate(
                    description="%s is a known location" % target,
                    category=CAT_RESOLVE, holds=False))
                continue
            if is_store:
                ann.local.append(LocalPredicate(
                    description="writable(%s)" % target,
                    category=CAT_PERM, holds=location.writable))
                self._require_assignable(ann, op, store, target)
            else:
                ann.local.append(LocalPredicate(
                    description="readable(%s)" % target,
                    category=CAT_PERM, holds=location.readable))
        # Global: null check always (default safety condition).
        ann.global_.append(GlobalPredicate(
            formula=ne(Linear.var(base), 0),
            description="%s != NULL" % base, category=CAT_NULL))
        size = op.width
        if resolution.usage is Usage.ARRAY_ACCESS:
            atype = base_ts.type
            assert isinstance(atype, (ArrayBaseType, ArrayMidType))
            ann.assertions.append(
                "%s holds the %s address of an array %s"
                % (base, "base" if isinstance(atype, ArrayBaseType)
                   else "interior", atype))
            if isinstance(atype, ArrayBaseType):
                self._bounds_predicates(ann, atype,
                                        _operand_term(_index_operand(op)),
                                        access_size=size)
            if size > 1:
                ann.global_.append(GlobalPredicate(
                    formula=congruent(
                        Linear.var(base)
                        + _operand_term(_index_operand(op)), size),
                    description="(%s + index) aligned to %d"
                                % (base, size),
                    category=CAT_ALIGN))
        else:
            # Field / plain pointer accesses: alignment via the target
            # locations' known alignments.
            offset = resolution.index or 0
            for target in resolution.targets:
                location = self.locations.get(target)
                if location is None:
                    continue
                aligned = location.align == 0 or (
                    size <= 1 or location.align % size == 0)
                ann.local.append(LocalPredicate(
                    description="align(%s) compatible with %d-byte "
                                "access" % (target, size),
                    category=CAT_ALIGN, holds=aligned))
            if resolution.usage is Usage.FIELD_ACCESS:
                ann.assertions.append(
                    "%s points to an aggregate; offset %s selects %s"
                    % (base, offset,
                       ", ".join(resolution.targets) or "nothing"))

    def _require_assignable(self, ann: NodeAnnotation, op: Store,
                            store: AbstractStore, target: str) -> None:
        """Paper Table 2: assignable(rs, l) — value type/size compatible
        with the destination location."""
        value_ts = store[op.src.name] if isinstance(op.src, RegOp) \
            else None
        location = self.locations.get(target)
        size = op.width
        holds = location is not None and location.size == size
        if holds and value_ts is not None \
                and isinstance(value_ts.type, GroundType):
            holds = sizeof(value_ts.type) <= size or size >= 4
        ann.local.append(LocalPredicate(
            description="assignable(%s, %s)" % (op.src, target),
            category=CAT_PERM, holds=bool(holds)))

    def _bounds_predicates(self, ann: NodeAnnotation,
                           atype: ArrayBaseType, index: Linear,
                           access_size: int = 0) -> None:
        """``inbounds`` (paper Table 2), generalized to accesses wider
        than the element (e.g. word loads from a byte buffer): the last
        accessed byte must stay inside the array."""
        size = _element_size(atype)
        access_size = access_size or size
        limit = (Linear.const(atype.size * size)
                 if isinstance(atype.size, int)
                 else Linear.var(atype.size, size))
        slack = max(access_size - size, 0)
        ann.global_.append(GlobalPredicate(
            formula=ge(index, 0),
            description="array lower bound: 0 <= %s" % index,
            category=CAT_BOUNDS))
        ann.global_.append(GlobalPredicate(
            formula=lt(index + slack, limit),
            description="array upper bound: %s + %d < %s"
                        % (index, slack, limit) if slack
                        else "array upper bound: %s < %s" % (index, limit),
            category=CAT_BOUNDS))
        stride = max(size, 1)
        if stride > 1:
            ann.global_.append(GlobalPredicate(
                formula=congruent(index, stride),
                description="index %s aligned to element size %d"
                            % (index, stride),
                category=CAT_ALIGN))

    # -- calls / returns ----------------------------------------------------------

    def visit_call(self, op, ann: NodeAnnotation, node: Node,
                   store: AbstractStore) -> None:
        ann.usage = Usage.CALL
        label = op.target_label
        internal = op.target > 0 \
            and not (label and label in self.spec.functions)
        if internal:
            return  # untrusted callee: analyzed directly
        fn = self.spec.functions.get(label or "")
        if fn is None:
            ann.local.append(LocalPredicate(
                description="call target %r has a host specification"
                            % (label,),
                category=CAT_CALL, holds=False))
            return
        ann.assertions.append("call to trusted function %s" % fn.name)
        # The delay slot executes before the callee is entered, and on
        # SPARC the slot routinely sets the last argument — check the
        # arguments in the post-slot state.
        slot_node, at_entry = self._post_slot_state(node, store)
        for reg, required in fn.params.items():
            actual = at_entry[reg]
            ann.local.append(LocalPredicate(
                description="argument %s : %s satisfies %s"
                            % (reg, actual, required),
                category=CAT_CALL,
                holds=_satisfies(actual, required)))
        if fn.precondition is not TRUE:
            # Likewise, the precondition must hold on entry to the
            # callee: anchor it at the call but pull it backward across
            # the delay slot.
            formula = fn.precondition
            if slot_node is not None:
                from repro.analysis.wlp import WlpTransfer
                transfer = WlpTransfer(self.stores, self.locations)
                formula = transfer.node_transfer(slot_node, formula)
            ann.global_.append(GlobalPredicate(
                formula=formula,
                description="precondition of %s" % fn.name,
                category=CAT_CALL))

    def _post_slot_state(self, call_node: Node, store: AbstractStore):
        """The abstract store after the call's delay slot (= on entry to
        the callee), plus the slot node itself.  With no delay slot the
        call-site store is already the entry state."""
        from repro.analysis.semantics import transfer as apply_transfer
        for edge in self.cfg.successors(call_node.uid):
            slot = self.cfg.node(edge.dst)
            if slot.role not in (NodeRole.SLOT_TAKEN, NodeRole.SLOT_FALL):
                continue
            if slot.instruction is None:
                continue
            slot_in = self.stores.get(slot.uid)
            if slot_in is None:
                continue
            try:
                return slot, apply_transfer(slot.instruction, slot_in,
                                            self.locations)
            except Exception:
                return slot, slot_in
        return None, store

    def visit_indirect_jump(self, op, ann: NodeAnnotation, node: Node,
                            store: AbstractStore) -> None:
        ann.usage = Usage.RETURN
        if not op.is_return:
            ann.local.append(LocalPredicate(
                description="indirect jump is a recognized return",
                category=CAT_STACK, holds=False))
            return
        # Stack discipline: the return must go through a genuine return
        # address (the host's continuation or a call-written link
        # register), not through arbitrary computed data.
        from repro.analysis.semantics import RETADDR_TYPE
        link = store[op.base]
        ann.local.append(LocalPredicate(
            description="%s holds a valid return address" % op.base,
            category=CAT_STACK, holds=link.type == RETADDR_TYPE))
        if node.function == CFG.MAIN \
                and self.spec.postcondition is not TRUE:
            ann.global_.append(GlobalPredicate(
                formula=self.spec.postcondition,
                description="host safety postcondition",
                category=CAT_POST))

    def visit_cond_branch(self, op, ann: NodeAnnotation, node: Node,
                          store: AbstractStore) -> None:
        ann.usage = Usage.BRANCH

    def visit_default(self, op: MachineOp, ann: NodeAnnotation,
                      node: Node, store: AbstractStore) -> None:
        # Unsupported ops carry no annotations; propagation reports them.
        return None

    # -- stack discipline ------------------------------------------------------------

    def _check_stack_discipline(self, ann: NodeAnnotation,
                                op: MachineOp) -> None:
        """Default condition: stack-manipulation violations.

        The stack/frame pointers may only move by a compile-time
        constant that preserves the architecture's stack alignment; the
        return-address registers may only be written by call/jmpl."""
        arch = self.cfg.arch
        protected = arch.protected_registers if arch else ("%o6", "%i6")
        align = arch.stack_align if arch else 8
        name = op.defined_register()
        if name is None or name not in protected:
            return
        ok = (isinstance(op, Assign)
              and op.op in (BinOp.ADD, BinOp.SUB)
              and op.src1 == RegOp(name)
              and isinstance(op.src2, ConstOp)
              and op.src2.value % align == 0)
        ann.local.append(LocalPredicate(
            description="%s adjusted only by %d-byte-aligned "
                        "constants" % (name, align),
            category=CAT_STACK, holds=ok))

    # -- helpers ----------------------------------------------------------------------

    def _require_operable(self, ann: NodeAnnotation, name: str,
                          ts: Typestate) -> None:
        ann.local.append(LocalPredicate(
            description="operable(%s)" % name,
            category=CAT_UNINIT, holds=ts.operable))


def _operand_term(operand) -> Linear:
    """Linear term of an IR operand, register name, or constant."""
    if isinstance(operand, RegOp):
        return Linear.var(operand.name)
    if isinstance(operand, ConstOp):
        return Linear.const(operand.value)
    if isinstance(operand, str):
        return Linear.var(operand)
    if isinstance(operand, int):
        return Linear.const(operand)
    return Linear.const(0)


def _index_operand(op: Union[Load, Store]):
    assert op.addr is not None
    if op.addr.index is not None:
        return op.addr.index
    return op.addr.offset


def _element_size(atype: ArrayBaseType) -> int:
    try:
        return sizeof(atype.element)
    except ValueError:
        return 4


def _satisfies(actual: Typestate, required: Typestate) -> bool:
    """actual ⊒ required in every component: the argument is at least as
    defined/permitted as the trusted function demands."""
    from repro.typesys.types import is_ground_subtype
    type_ok = actual.type.meet(required.type) == required.type \
        or actual.type == required.type \
        or is_ground_subtype(actual.type, required.type)
    state_ok = required.state.meet(actual.state) == required.state
    access_ok = True
    if isinstance(actual.access, AccessSet) \
            and isinstance(required.access, AccessSet):
        access_ok = required.access.perms <= actual.access.perms
    return bool(type_ok and state_ok and access_ok)
