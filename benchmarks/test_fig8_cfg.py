"""Figure 8 — the control-flow graph of the running example with
delay-slot replication and labeled branch conditions; benchmarks CFG
construction.
"""

from repro.cfg import CFG, NodeRole, build_cfg, find_loops
from repro.programs.sum_array import SOURCE
from repro.sparc import assemble


def test_figure8_cfg(benchmark):
    program = assemble(SOURCE, name="sum")
    cfg = benchmark(build_cfg, program)

    print("\n--- Figure 8 (reproduced, dot format) ---")
    print(cfg.to_dot())

    # "The instructions at lines 5 and 11 are replicated to model the
    # semantics of delayed branches."
    assert len(cfg.nodes_for_index(5)) == 2
    assert len(cfg.nodes_for_index(11)) == 2
    # Each CFG edge out of a branch carries its icc condition: the
    # relation ``bge`` tests, and its negation on the fall-through.
    branch4 = next(n for n in cfg.nodes.values()
                   if n.index == 4 and n.role is NodeRole.NORMAL)
    conditions = sorted(str(e.condition)
                        for e in cfg.successors(branch4.uid))
    assert conditions == ["$icc >= 0", "not($icc >= 0)"]
    # One natural loop with header at line 6 and body 6..11.
    forest = find_loops(cfg, CFG.MAIN)
    assert forest.count == 1
    loop = forest.loops[0]
    assert cfg.node(loop.header).index == 6
    assert {cfg.node(u).index for u in loop.body} == {6, 7, 8, 9, 10, 11}
