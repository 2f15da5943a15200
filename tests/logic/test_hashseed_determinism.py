"""Prover work must not depend on Python's per-process hash seed.

Formula nodes hash through their variable-name strings, so any set or
frozenset iteration on the simplify/prover path orders work differently
in every process.  Verdicts never change, but query counts, traces and
prover-bound timings would not reproduce.  Each test runs the same
snippet under several ``PYTHONHASHSEED`` values and compares the
output byte for byte.
"""

import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

_MERGE_SNIPPET = """
import sys
sys.path.insert(0, %r)
from repro.logic import disj, ge
from repro.logic.simplify import _try_merge
from repro.logic.terms import Linear
x = Linear.var("x")
shared = [ge(Linear.var("y%%d" %% i), i) for i in range(12)]
a = disj(ge(x, 0), *shared)
b = disj(ge(x.scale(-1) - 1, 0), *reversed(shared))
print(_try_merge(a, b))
"""

_STATS_SNIPPET = """
import json, sys
sys.path.insert(0, %r)
from repro.analysis.checker import check_assembly
from repro.analysis.options import CheckerOptions
from repro.programs import all_programs
out = {}
for program in all_programs():
    if program.name in %r:
        result = check_assembly(program.source, program.spec_text,
                                name=program.name,
                                options=CheckerOptions())
        out[program.name] = {
            name: value for name, value in result.prover_stats.items()
            if isinstance(value, int)}
print(json.dumps(out, sort_keys=True))
"""


def _outputs(snippet: str, seeds=("1", "2", "3")):
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-c", snippet],
                             capture_output=True, text=True, env=env,
                             check=True)
        outputs.append(run.stdout)
    return outputs


def test_try_merge_part_order_independent_of_hash_seed():
    outputs = _outputs(_MERGE_SNIPPET % _SRC)
    assert outputs[0].startswith("(y0 >= 0 ∨ y1-1 >= 0")
    assert len(set(outputs)) == 1, outputs


def test_small_program_prover_stats_independent_of_hash_seed():
    # sum and btree2 split conjuncts into several components, so the
    # component order decides which ones the difference solver sees.
    outputs = _outputs(_STATS_SNIPPET % (_SRC, ("sum", "btree2")))
    assert '"sliced_conjuncts"' in outputs[0]
    assert len(set(outputs)) == 1, outputs


@pytest.mark.bench
def test_md5_prover_stats_independent_of_hash_seed():
    outputs = _outputs(_STATS_SNIPPET % (_SRC, ("md5",)), seeds=("1", "2"))
    assert '"satisfiability_queries"' in outputs[0]
    assert outputs[0] == outputs[1]
