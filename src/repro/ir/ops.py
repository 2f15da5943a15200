"""Architecture-neutral machine operations (the analysis IR).

The five analysis phases of the paper — typestate propagation,
annotation, local verification, and the two global-verification
passes — are conceptually ISA-independent.  This module defines the
small RTL-style operation set they consume:

========================  ====================================================
op                        meaning
========================  ====================================================
:class:`Assign`           ``dest <- src1 BINOP src2`` (may set condition codes)
:class:`SetConst`         ``dest <- constant`` (sethi, lui, li)
:class:`Load`             ``dest <- memory[addr]`` with width and signedness
:class:`Store`            ``memory[addr] <- src`` with width
:class:`CondBranch`       conditional/unconditional relative branch
:class:`Call`             direct call that links the return address
:class:`IndirectJump`     register-indirect jump (returns, jmpl)
:class:`Nop`              no architectural effect
:class:`Unsupported`      decoded but outside the analyzed subset
========================  ====================================================

Each lowered op keeps a back-pointer (``raw``) to the frontend's
decoded instruction for diagnostics and listings; the analysis core
never inspects ``raw``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

#: The condition-code pseudo-variable threaded through branch reasoning.
#: SPARC lowers ``subcc``/``orcc``/... to an :class:`Assign` with
#: ``sets_cc=True``, and branches test this variable against zero.
CC_VAR = "$icc"


class BinOp(enum.Enum):
    """Binary ALU operators (condition-code variants map to the same
    base operator; ``sets_cc`` on :class:`Assign` records the side
    effect)."""

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    ANDN = "andn"
    ORN = "orn"
    XNOR = "xnor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    MUL = "mul"
    UMUL = "umul"
    DIV = "div"
    UDIV = "udiv"


# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegOp:
    """A register operand, identified by its canonical frontend name
    (e.g. ``%o0`` on SPARC, ``a0`` on RISC-V)."""

    name: str = ""

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConstOp:
    """An immediate constant operand.  Frontends canonicalize reads of
    a hardwired zero register (``%g0``, ``zero``) to ``ConstOp(0)``."""

    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class AddrExpr:
    """A memory address ``base + index + offset`` where *base* and the
    optional *index* are register names and *offset* is a constant.
    At most one of *index*/*offset* is meaningful per op (RISC loads
    and stores address either ``[reg+reg]`` or ``[reg+imm]``)."""

    base: str = ""
    index: Optional[str] = None
    offset: int = 0

    def __str__(self) -> str:
        if self.index is not None:
            return "[%s+%s]" % (self.base, self.index)
        if self.offset > 0:
            return "[%s+%d]" % (self.base, self.offset)
        if self.offset < 0:
            return "[%s-%d]" % (self.base, -self.offset)
        return "[%s]" % self.base


Operand = Union[RegOp, ConstOp]


def reindexed(item, index: int):
    """*item*, a frozen dataclass with an ``index`` field, at one-based
    *index*: the item itself when it is already there, else a shallow
    copy with only ``index`` changed (``dataclasses.replace`` would run
    ``__init__`` on every field again)."""
    if item.index == index:
        return item
    copy = object.__new__(item.__class__)
    copy.__dict__.update(item.__dict__)
    copy.__dict__["index"] = index
    return copy


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineOp:
    """Base class for all IR operations.

    ``index`` is the one-based instruction index (shared with the raw
    instruction), ``raw`` the frontend's decoded instruction (opaque to
    the analysis), and ``text`` a rendering of the original source for
    listings.
    """

    index: int = 0
    raw: Optional[object] = None
    text: str = ""

    # Plain class attributes (not dataclass fields): subclasses either
    # inherit the default or redeclare them as fields.
    opname = "op"
    sets_cc = False
    is_control_transfer = False
    is_return = False
    delay_slots = 0

    def defined_register(self) -> Optional[str]:
        """Name of the register this op writes, or ``None``."""
        return None

    def describe(self) -> str:
        return self.opname

    def render(self, canonical: bool = False) -> str:
        if canonical and self.raw is not None \
                and hasattr(self.raw, "render"):
            return self.raw.render(canonical=True)
        if self.text:
            return self.text
        return self.describe()

    def with_index(self, index: int) -> "MachineOp":
        return reindexed(self, index)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Assign(MachineOp):
    """``dest <- src1 op src2``.  ``dest`` is ``None`` when the result
    is architecturally discarded (SPARC writes to ``%g0``) but the
    operands must still be checked for operability."""

    dest: Optional[str] = None
    op: BinOp = BinOp.ADD
    src1: Optional[Operand] = None
    src2: Optional[Operand] = None
    sets_cc: bool = False

    opname = "assign"

    def defined_register(self) -> Optional[str]:
        return self.dest

    def describe(self) -> str:
        return "%s <- %s %s %s" % (self.dest or "_", self.src1,
                                   self.op.value, self.src2)


@dataclass(frozen=True)
class SetConst(MachineOp):
    """``dest <- value`` (sethi / lui / li)."""

    dest: Optional[str] = None
    value: int = 0

    opname = "set_const"

    def defined_register(self) -> Optional[str]:
        return self.dest

    def describe(self) -> str:
        return "%s <- %d" % (self.dest or "_", self.value)


@dataclass(frozen=True)
class Load(MachineOp):
    """``dest <- memory[addr]`` reading ``width`` bytes, sign- or
    zero-extending to 32 bits per ``signed``."""

    dest: Optional[str] = None
    addr: Optional[AddrExpr] = None
    width: int = 4
    signed: bool = True

    opname = "load"

    @property
    def unsigned_range(self) -> Optional[int]:
        """Exclusive upper bound on the loaded value for zero-extending
        loads (``256`` for byte loads, ``65536`` for halfword loads),
        or ``None`` when the load can produce any 32-bit pattern."""
        if self.signed or self.width >= 4:
            return None
        return 1 << (8 * self.width)

    def defined_register(self) -> Optional[str]:
        return self.dest

    def describe(self) -> str:
        return "%s <- mem%d%s" % (self.dest or "_", self.width, self.addr)


@dataclass(frozen=True)
class Store(MachineOp):
    """``memory[addr] <- src`` writing ``width`` bytes."""

    src: Optional[Operand] = None
    addr: Optional[AddrExpr] = None
    width: int = 4

    opname = "store"

    def describe(self) -> str:
        return "mem%d%s <- %s" % (self.width, self.addr, self.src)


@dataclass(frozen=True)
class CondBranch(MachineOp):
    """A (conditional) branch to instruction index ``target``.

    ``relation`` is one of ``== != < <= > >=`` comparing ``lhs`` with
    ``rhs`` (on SPARC: the condition-code variable against zero); it is
    ``None`` for branches the analysis treats as nondeterministic
    (overflow tests).  ``unconditional`` marks always-taken branches,
    ``never`` branch-never, and ``annul`` the SPARC annul bit.
    """

    relation: Optional[str] = None
    lhs: Optional[Operand] = None
    rhs: Optional[Operand] = None
    target: int = 0
    target_label: Optional[str] = None
    unconditional: bool = False
    annul: bool = False
    never: bool = False
    delay_slots: int = 0

    opname = "cond_branch"
    is_control_transfer = True


@dataclass(frozen=True)
class Call(MachineOp):
    """A direct call to instruction index ``target`` (0 when the target
    lies outside the program, i.e. a call into the trusted host),
    writing the return address to ``link``."""

    target: int = 0
    target_label: Optional[str] = None
    link: Optional[str] = None
    delay_slots: int = 0

    opname = "call"
    is_control_transfer = True

    def defined_register(self) -> Optional[str]:
        return self.link


@dataclass(frozen=True)
class IndirectJump(MachineOp):
    """A register-indirect jump to ``base + offset``; ``is_return``
    marks the return idiom (``retl``/``ret`` on SPARC, ``jalr zero,
    0(ra)`` on RISC-V).  ``link``, when set, receives the address of
    this instruction."""

    base: str = ""
    offset: int = 0
    link: Optional[str] = None
    is_return: bool = False
    delay_slots: int = 0

    opname = "indirect_jump"
    is_control_transfer = True

    def defined_register(self) -> Optional[str]:
        return self.link


@dataclass(frozen=True)
class Nop(MachineOp):
    """No architectural effect."""

    opname = "nop"


@dataclass(frozen=True)
class Unsupported(MachineOp):
    """An instruction outside the analyzed subset.  Lowering keeps it
    so the error fires only if the analysis actually reaches it."""

    reason: str = ""

    opname = "unsupported"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


class OpVisitor:
    """Single-method-per-op dispatch: ``visit(op)`` calls
    ``visit_<opname>`` when defined, else :meth:`visit_default`."""

    def visit(self, op: MachineOp, *args, **kwargs):
        cls = type(self)
        # Per-visitor-class dispatch cache: visit() sits in the wlp /
        # propagation hot paths, so resolve "visit_<opname>" once.
        cache = cls.__dict__.get("_visit_dispatch")
        if cache is None:
            cache = {}
            cls._visit_dispatch = cache
        method = cache.get(op.opname)
        if method is None:
            method = getattr(cls, "visit_" + op.opname, None) \
                or cls.visit_default
            cache[op.opname] = method
        return method(self, op, *args, **kwargs)

    def visit_default(self, op: MachineOp, *args, **kwargs):
        raise NotImplementedError(
            "%s does not handle %r" % (type(self).__name__, op.opname))
