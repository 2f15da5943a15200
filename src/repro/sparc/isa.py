"""SPARC V8 instruction-set model.

This module defines the operand and instruction representations shared by
the assembler, encoder, decoder, emulator, and the safety-checking
analysis.  The subset covered is the integer unit of SPARC V8 — the same
subset exercised by the PLDI 2000 paper's examples (ALU ops, shifts,
``sethi``, loads/stores of bytes/halfwords/words, ``Bicc`` branches with
optional annul bit, ``call``/``jmpl``, and ``save``/``restore``).

Instructions are immutable dataclasses.  Synthetic mnemonics (``mov``,
``cmp``, ``clr``, ``inc``, ``set``, ``retl`` …) are expanded by the
assembler into these canonical operations, but the original mnemonic is
preserved for round-trip printing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.ir.ops import reindexed
from repro.sparc import registers


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    """An integer register operand, identified by number 0..31."""

    number: int

    def __post_init__(self) -> None:
        if not 0 <= self.number < registers.NUM_REGISTERS:
            raise ValueError("bad register number %r" % (self.number,))

    @property
    def name(self) -> str:
        return registers.register_name(self.number)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate operand (signed 13-bit in format-3 instructions)."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


#: The second ALU operand: either a register or a 13-bit immediate.
Operand2 = Union[Reg, Imm]


@dataclass(frozen=True)
class Mem:
    """A memory address operand: ``[base + index]`` or ``[base + offset]``.

    Exactly one of *index*/*offset* is meaningful: when *index* is None the
    address is ``base + offset`` (offset may be zero, giving ``[base]``).
    """

    base: Reg
    index: Optional[Reg] = None
    offset: int = 0

    def __post_init__(self) -> None:
        if self.index is not None and self.offset:
            raise ValueError("memory operand cannot have both index and offset")

    def __str__(self) -> str:
        if self.index is not None:
            return "[%s+%s]" % (self.base, self.index)
        if self.offset > 0:
            return "[%s+%d]" % (self.base, self.offset)
        if self.offset < 0:
            return "[%s%d]" % (self.base, self.offset)
        return "[%s]" % (self.base,)


@dataclass(frozen=True)
class Target:
    """A control-transfer target.

    The paper's figures use absolute instruction numbers as branch targets
    (``bge 12``); real assembly uses labels.  Both are supported: after
    assembly, *index* is always resolved to the one-based index of the
    target instruction; *label* is kept when the source used one.
    """

    index: int
    label: Optional[str] = None

    def __str__(self) -> str:
        return self.label if self.label else str(self.index)


# ---------------------------------------------------------------------------
# Instruction classification
# ---------------------------------------------------------------------------


class Kind(enum.Enum):
    """Coarse classification used by the CFG builder and the analysis."""

    ALU = "alu"          # add/sub/logical/shift/mul, cc-setting variants
    SETHI = "sethi"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"    # Bicc
    CALL = "call"        # pc-relative call
    JMPL = "jmpl"        # jump-and-link (covers retl/ret)
    SAVE = "save"
    RESTORE = "restore"


#: ALU operations and whether they write the integer condition codes.
ALU_OPS = {
    "add": False, "sub": False, "and": False, "or": False, "xor": False,
    "andn": False, "orn": False, "xnor": False,
    "umul": False, "smul": False, "udiv": False, "sdiv": False,
    "sll": False, "srl": False, "sra": False,
    "addcc": True, "subcc": True, "andcc": True, "orcc": True,
    "xorcc": True, "umulcc": True, "smulcc": True,
}

#: op3 field values for format-3 arithmetic instructions (op = 2).
ALU_OP3 = {
    "add": 0b000000, "and": 0b000001, "or": 0b000010, "xor": 0b000011,
    "sub": 0b000100, "andn": 0b000101, "orn": 0b000110, "xnor": 0b000111,
    "umul": 0b001010, "smul": 0b001011, "udiv": 0b001110, "sdiv": 0b001111,
    "addcc": 0b010000, "andcc": 0b010001, "orcc": 0b010010,
    "xorcc": 0b010011, "subcc": 0b010100, "umulcc": 0b011010,
    "smulcc": 0b011011,
    "sll": 0b100101, "srl": 0b100110, "sra": 0b100111,
    "jmpl": 0b111000, "save": 0b111100, "restore": 0b111101,
}

#: op3 field values for format-3 memory instructions (op = 3).
MEM_OP3 = {
    "ld": 0b000000, "ldub": 0b000001, "lduh": 0b000010, "ldd": 0b000011,
    "st": 0b000100, "stb": 0b000101, "sth": 0b000110, "std": 0b000111,
    "ldsb": 0b001001, "ldsh": 0b001010,
}

#: Bytes moved by each memory operation.
MEM_SIZE = {
    "ld": 4, "st": 4, "ldd": 8, "std": 8,
    "ldub": 1, "ldsb": 1, "stb": 1,
    "lduh": 2, "ldsh": 2, "sth": 2,
}

#: Whether a sub-word load sign-extends.
LOAD_SIGNED = {"ld": True, "ldsb": True, "ldsh": True,
               "ldub": False, "lduh": False, "ldd": True}

#: Bicc condition-field encodings.
BRANCH_COND = {
    "bn": 0b0000, "be": 0b0001, "ble": 0b0010, "bl": 0b0011,
    "bleu": 0b0100, "bcs": 0b0101, "bneg": 0b0110, "bvs": 0b0111,
    "ba": 0b1000, "bne": 0b1001, "bg": 0b1010, "bge": 0b1011,
    "bgu": 0b1100, "bcc": 0b1101, "bpos": 0b1110, "bvc": 0b1111,
}

_COND_TO_BRANCH = {v: k for k, v in BRANCH_COND.items()}

#: Branch-mnemonic synonyms accepted by the assembler.
BRANCH_SYNONYMS = {
    "b": "ba", "bz": "be", "bnz": "bne", "blu": "bcs", "bgeu": "bcc",
}

#: Branches whose outcome is decided by a signed comparison of the two
#: operands of the preceding ``cmp``/``subcc`` (relation on lhs - rhs).
SIGNED_RELATION = {
    "be": "==", "bne": "!=", "bl": "<", "ble": "<=", "bg": ">", "bge": ">=",
    "bneg": "<", "bpos": ">=",
}

#: Branches decided by an unsigned comparison.
UNSIGNED_RELATION = {"bgu": ">", "bleu": "<=", "bcs": "<", "bcc": ">="}


def branch_name_for_cond(cond: int) -> str:
    """Map a Bicc condition field back to the canonical mnemonic."""
    return _COND_TO_BRANCH[cond]


def negate_branch(name: str) -> str:
    """Return the branch mnemonic testing the opposite condition."""
    return branch_name_for_cond(BRANCH_COND[name] ^ 0b1000)


# ---------------------------------------------------------------------------
# Instruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instruction:
    """One SPARC instruction in canonical form.

    Fields are populated according to *kind*:

    * ALU / SAVE / RESTORE: ``rs1``, ``op2``, ``rd``.
    * SETHI: ``op2`` (an :class:`Imm` holding the full 22-bit value,
      already shifted left by 10), ``rd``.
    * LOAD: ``mem`` (source address), ``rd``.
    * STORE: ``rs1`` (value source), ``mem`` (destination address).
    * BRANCH: ``op`` is the canonical mnemonic (``ba`` … ``bvc``),
      ``target``, ``annul``.
    * CALL: ``target``.
    * JMPL: ``rs1``, ``op2`` (address = rs1 + op2), ``rd``.
    """

    op: str
    kind: Kind
    rd: Optional[Reg] = None
    rs1: Optional[Reg] = None
    op2: Optional[Operand2] = None
    mem: Optional[Mem] = None
    target: Optional[Target] = None
    annul: bool = False
    #: One-based position in the program; assigned by the assembler.
    index: int = 0
    #: Symbolic label attached to this instruction, if any.
    label: Optional[str] = None
    #: The mnemonic as written in the source (e.g. ``cmp`` for ``subcc``).
    source_mnemonic: str = ""
    #: Original source text, for diagnostics.
    source_text: str = ""

    # -- predicates ---------------------------------------------------------

    @property
    def sets_cc(self) -> bool:
        """True if this instruction writes the integer condition codes."""
        return self.kind is Kind.ALU and ALU_OPS.get(self.op, False)

    @property
    def is_unconditional_branch(self) -> bool:
        return self.kind is Kind.BRANCH and self.op == "ba"

    @property
    def is_return(self) -> bool:
        """True for ``retl``/``ret`` (jmpl through %o7/%i7 with rd=%g0)."""
        return (
            self.kind is Kind.JMPL
            and self.rd is not None
            and self.rd.number == registers.G0
            and self.rs1 is not None
            and self.rs1.number in (registers.O7, registers.I7)
        )

    @property
    def is_control_transfer(self) -> bool:
        return self.kind in (Kind.BRANCH, Kind.CALL, Kind.JMPL)

    def defined_register(self) -> Optional[Reg]:
        """The integer register written by this instruction, or None.

        Writes to ``%g0`` are discarded by the hardware and reported as
        None here.
        """
        if self.kind in (Kind.ALU, Kind.SETHI, Kind.LOAD, Kind.JMPL,
                         Kind.SAVE, Kind.RESTORE):
            if self.rd is not None and self.rd.number != registers.G0:
                return self.rd
        if self.kind is Kind.CALL:
            return Reg(registers.O7)
        return None

    # -- printing -----------------------------------------------------------

    def __str__(self) -> str:
        return self.render()

    def render(self, canonical: bool = False) -> str:
        """Render assembly text.

        With ``canonical=True`` the expanded operation is printed (what a
        disassembler would show); otherwise the source mnemonic is used
        when available.
        """
        if not canonical and self.source_text:
            return self.source_text
        op = self.op
        if self.kind is Kind.BRANCH:
            suffix = ",a" if self.annul else ""
            return "%s%s %s" % (op, suffix, self.target)
        if self.kind is Kind.CALL:
            return "call %s" % (self.target,)
        if self.kind is Kind.SETHI:
            assert isinstance(self.op2, Imm)
            return "sethi %%hi(0x%x), %s" % (self.op2.value, self.rd)
        if self.kind is Kind.LOAD:
            return "%s %s, %s" % (op, self.mem, self.rd)
        if self.kind is Kind.STORE:
            return "%s %s, %s" % (op, self.rs1, self.mem)
        if self.kind is Kind.JMPL:
            return "jmpl %s+%s, %s" % (self.rs1, self.op2, self.rd)
        # ALU / SAVE / RESTORE
        return "%s %s, %s, %s" % (op, self.rs1, self.op2, self.rd)

    def with_index(self, index: int) -> "Instruction":
        return reindexed(self, index)


# Convenience constructors --------------------------------------------------


def alu(op: str, rs1: Reg, op2: Operand2, rd: Reg, **kw) -> Instruction:
    if op not in ALU_OPS:
        raise ValueError("unknown ALU op %r" % (op,))
    return Instruction(op=op, kind=Kind.ALU, rs1=rs1, op2=op2, rd=rd, **kw)


def load(op: str, mem: Mem, rd: Reg, **kw) -> Instruction:
    if op not in MEM_OP3 or op.startswith("st"):
        raise ValueError("unknown load op %r" % (op,))
    return Instruction(op=op, kind=Kind.LOAD, mem=mem, rd=rd, **kw)


def store(op: str, rs: Reg, mem: Mem, **kw) -> Instruction:
    if op not in MEM_OP3 or not op.startswith("st"):
        raise ValueError("unknown store op %r" % (op,))
    return Instruction(op=op, kind=Kind.STORE, rs1=rs, mem=mem, **kw)


def branch(op: str, target: Target, annul: bool = False, **kw) -> Instruction:
    op = BRANCH_SYNONYMS.get(op, op)
    if op not in BRANCH_COND:
        raise ValueError("unknown branch %r" % (op,))
    return Instruction(op=op, kind=Kind.BRANCH, target=target, annul=annul,
                       **kw)


def sethi(value: int, rd: Reg, **kw) -> Instruction:
    return Instruction(op="sethi", kind=Kind.SETHI, op2=Imm(value), rd=rd,
                       **kw)


def nop(**kw) -> Instruction:
    """``nop`` is ``sethi 0, %g0``."""
    inst = sethi(0, Reg(registers.G0), **kw)
    if not inst.source_mnemonic:
        inst = replace(inst, source_mnemonic="nop", source_text="nop")
    return inst
