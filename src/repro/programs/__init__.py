"""The paper's 13 evaluation examples (Figure 9), re-created.

``all_programs()`` returns them in the paper's column order; each is a
:class:`~repro.programs.base.BenchmarkProgram` carrying the assembly
source, the host specification, the expected checking outcome, the
paper's reported numbers, and a concrete emulation oracle.
"""

from typing import List

from repro.programs.base import BenchmarkProgram, PaperRow
from repro.programs.sum_array import PROGRAM as SUM
from repro.programs.paging_policy import PROGRAM as PAGING_POLICY
from repro.programs.timers import START_TIMER, STOP_TIMER
from repro.programs.hash_lookup import PROGRAM as HASH
from repro.programs.bubble_sort import PROGRAM as BUBBLE_SORT
from repro.programs.btree import (
    PROGRAM_BTREE as BTREE, PROGRAM_BTREE2 as BTREE2,
)
from repro.programs.heap_sort import HEAPSORT, HEAPSORT2
from repro.programs.jpvm import PROGRAM as JPVM
from repro.programs.stack_smashing import PROGRAM as STACK_SMASHING
from repro.programs.md5 import PROGRAM as MD5


def all_programs() -> List[BenchmarkProgram]:
    """All 13 examples, in paper Figure 9 order."""
    return [
        SUM, PAGING_POLICY, START_TIMER, HASH, BUBBLE_SORT, STOP_TIMER,
        BTREE, BTREE2, HEAPSORT2, HEAPSORT, JPVM, STACK_SMASHING, MD5,
    ]


def fast_programs() -> List[BenchmarkProgram]:
    """The examples whose checks complete in a few seconds each (used
    by quick test runs; the heavyweight sorts and generated giants are
    exercised by ``bench``-marked tests, ``--full`` runs and
    perfbench)."""
    return [SUM, PAGING_POLICY, START_TIMER, HASH, BUBBLE_SORT,
            STOP_TIMER, BTREE, BTREE2, JPVM]


__all__ = [
    "BenchmarkProgram", "PaperRow", "all_programs", "fast_programs",
    "SUM", "PAGING_POLICY", "START_TIMER", "STOP_TIMER", "HASH",
    "BUBBLE_SORT", "BTREE", "BTREE2", "HEAPSORT", "HEAPSORT2", "JPVM",
    "STACK_SMASHING", "MD5",
]
