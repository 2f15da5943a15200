"""Benchmark entry points.

The measured benchmark of the whole checker is perfbench
(``perfbench/run.py``); the verdict-parity gates are
``benchmarks/parity_check.py``.  This module only re-exports the
multi-function chain program that perfbench's ``recheck`` workload
imports from here.
"""

from repro.programs.incremental import (  # noqa: F401
    INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
)
