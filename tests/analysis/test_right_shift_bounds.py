"""Right shifts keep array bounds.

``srl|sra %o1,k,%g1; sll %g1,2,%g1; ld [%o0+%g1],%g2`` with
``arr : int[n]``, ``%o1 = n`` and ``n >= 1`` loads ``arr[n >> k]``,
which is in bounds for every k ≥ 1.  The guarded havoc of the shift
binds its result v by ``2^k·v ≤ %o1 ≤ 2^k·v + 2^k − 1``; eliminating
it negates the load's alignment congruence twice and projects v out of
a stride pair whose dark shadow is exact, so the check must stay small
for wide shifts too.
"""

import time

import pytest

from repro.analysis.checker import SafetyChecker
from repro.analysis.options import CheckerOptions
from repro.policy.parser import parse_spec
from repro.programs.sum_array import SPEC as SUM_SPEC

SOURCE = """
{op} %o1,{k},%g1
sll %g1,2,%g1
ld [%o0+%g1],%g2
retl
nop
"""


@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("op", ["srl", "sra"])
def test_shifted_index_is_proved_in_bounds(op, k):
    t0 = time.monotonic()
    result = SafetyChecker(SOURCE.format(op=op, k=k), parse_spec(SUM_SPEC),
                           options=CheckerOptions(timeout_s=5.0)).check()
    elapsed = time.monotonic() - t0
    assert result.safe, [str(v) for v in result.violations]
    assert result.prover_stats["resource_fallbacks"] == 0
    assert elapsed < 1.0
