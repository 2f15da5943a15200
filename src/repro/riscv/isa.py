"""The RV32I subset accepted by the second frontend.

A deliberately small slice of RV32I — integer register/immediate
arithmetic, loads/stores, conditional branches, ``lui``, ``jal``, and
``jalr`` — enough to compile the paper's array-manipulating extensions
for a second machine and demonstrate that the analysis core is
architecture-neutral.  Branches compare two registers directly (RISC-V
has no condition codes), which exercises the general
:class:`~repro.cfg.graph.BranchCondition` form; there are no delay
slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ir.ops import reindexed

#: R-type and I-type ALU mnemonics (shared name set; ``op`` selects).
ALU_OPS: Tuple[str, ...] = (
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra",
    "slt", "sltu",
)
ALU_IMM_OPS: Tuple[str, ...] = (
    "addi", "andi", "ori", "xori", "slli", "srli", "srai",
    "slti", "sltiu",
)

#: Memory access width and signedness by mnemonic.
MEM_SIZE: Dict[str, int] = {
    "lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4,
    "sb": 1, "sh": 2, "sw": 4,
}
LOAD_SIGNED: Dict[str, bool] = {
    "lb": True, "lbu": False, "lh": True, "lhu": False, "lw": True,
}

#: Branch mnemonic → relation between rs1 and rs2 on the taken edge.
#: Unsigned relations map to their signed counterparts — exact for
#: values in [0, 2³¹), the same modeling assumption the SPARC frontend
#: records for ``bgeu``/``blu``.
BRANCH_RELATION: Dict[str, str] = {
    "beq": "==", "bne": "!=", "blt": "<", "bge": ">=",
    "bltu": "<", "bgeu": ">=",
}

BRANCH_OPS: Tuple[str, ...] = tuple(BRANCH_RELATION)


@dataclass(frozen=True)
class RvInstruction:
    """One decoded/assembled RV32I instruction.

    Register fields hold canonical ABI names; ``target`` is the
    one-based index of a branch/jal destination instruction.
    """

    op: str
    rd: Optional[str] = None
    rs1: Optional[str] = None
    rs2: Optional[str] = None
    imm: int = 0
    target: Optional[int] = None
    target_label: Optional[str] = None
    index: int = 0
    label: Optional[str] = None
    source_text: str = ""

    def with_index(self, index: int) -> "RvInstruction":
        return reindexed(self, index)

    # -- structure ----------------------------------------------------------

    @property
    def is_branch(self) -> bool:
        return self.op in BRANCH_RELATION

    @property
    def is_control_transfer(self) -> bool:
        return self.is_branch or self.op in ("jal", "jalr")

    # -- rendering ----------------------------------------------------------

    def render(self, canonical: bool = False) -> str:
        if self.source_text and not canonical:
            return self.source_text
        op = self.op
        if op in ALU_OPS:
            return "%s %s,%s,%s" % (op, self.rd, self.rs1, self.rs2)
        if op in ALU_IMM_OPS:
            return "%s %s,%s,%d" % (op, self.rd, self.rs1, self.imm)
        if op in LOAD_SIGNED:
            return "%s %s,%d(%s)" % (op, self.rd, self.imm, self.rs1)
        if op in ("sb", "sh", "sw"):
            return "%s %s,%d(%s)" % (op, self.rs2, self.imm, self.rs1)
        if op in BRANCH_RELATION:
            where = self.target_label or str(self.target)
            return "%s %s,%s,%s" % (op, self.rs1, self.rs2, where)
        if op == "lui":
            return "lui %s,%d" % (self.rd, self.imm)
        if op == "jal":
            where = self.target_label or str(self.target)
            return "jal %s,%s" % (self.rd, where)
        if op == "jalr":
            return "jalr %s,%d(%s)" % (self.rd, self.imm, self.rs1)
        return op

    def __str__(self) -> str:
        return self.render()
