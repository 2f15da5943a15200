"""The wall-clock budget must be honoured *inside* phases 2–4, not
just between them: the propagation fixpoint, the forward-bounds pass,
the annotation sweep, and the local-verification loop each poll
:func:`repro.budget.check` once per step, so a pathological input
aborts with the distinct ``undecided:timeout`` verdict promptly.
"""

import time

import pytest

from repro import budget

from repro.analysis.annotate import annotate
from repro.analysis.forward import ForwardBounds
from repro.analysis.options import CheckerOptions
from repro.analysis.prepare import prepare
from repro.analysis.propagate import propagate
from repro.analysis.verify import verify_local
from repro.cfg.builder import build_cfg
from repro.errors import ProverTimeout
from repro.programs.sum_array import PROGRAM

TINY = 1e-9


@pytest.fixture()
def phases():
    program = PROGRAM.program().lower()
    spec = PROGRAM.spec()
    preparation = prepare(spec, arch=program.arch)
    cfg = build_cfg(program, trusted_labels=set(spec.functions))
    return cfg, preparation, spec


def expired():
    """A budget that ran out a second ago."""
    return budget.limit(-1.0)


class TestPhaseHooks:
    def test_propagate_honours_the_deadline(self, phases):
        cfg, preparation, spec = phases
        with expired(), pytest.raises(ProverTimeout):
            propagate(cfg, preparation, spec, CheckerOptions())

    def test_forward_bounds_honours_the_deadline(self, phases):
        cfg, preparation, __ = phases
        with expired(), pytest.raises(ProverTimeout):
            ForwardBounds(cfg, preparation.initial_constraints, cfg.nodes)

    def test_annotate_honours_the_deadline(self, phases):
        cfg, preparation, spec = phases
        propagation = propagate(cfg, preparation, spec,
                                CheckerOptions())
        with expired(), pytest.raises(ProverTimeout):
            annotate(cfg, propagation.inputs, spec,
                     preparation.locations)

    def test_verify_local_honours_the_deadline(self, phases):
        cfg, preparation, spec = phases
        propagation = propagate(cfg, preparation, spec,
                                CheckerOptions())
        annotations = annotate(cfg, propagation.inputs, spec,
                               preparation.locations)
        with expired(), pytest.raises(ProverTimeout):
            verify_local(annotations)

    def test_hooks_are_optional(self, phases):
        # Outside any budget the phases run exactly as before.
        cfg, preparation, spec = phases
        propagation = propagate(cfg, preparation, spec,
                                CheckerOptions())
        annotations = annotate(cfg, propagation.inputs, spec,
                               preparation.locations)
        assert verify_local(annotations) == []


class TestEndToEnd:
    def test_tiny_budget_aborts_inside_phase_two(self):
        """With an already-expired budget the checker must return
        ``undecided:timeout`` promptly — the propagation worklist polls
        the deadline, so even a propagation-heavy program cannot run
        the whole fixpoint before noticing."""
        t0 = time.perf_counter()
        result = PROGRAM.check(CheckerOptions(timeout_s=TINY))
        elapsed = time.perf_counter() - t0
        assert result.verdict == "undecided:timeout"
        assert result.violations == []
        assert elapsed < 5.0

    def test_timeout_result_is_not_cached_as_a_verdict(self, tmp_path):
        """A timed-out run stores no pipeline payloads (phases 2–4
        never completed), and a later run with an ample budget on the
        same cache file certifies normally."""
        import os
        cache = os.path.join(str(tmp_path), "c.sqlite")
        timed_out = PROGRAM.check(
            CheckerOptions(timeout_s=TINY, cache_path=cache))
        assert timed_out.verdict == "undecided:timeout"
        fresh = PROGRAM.check(CheckerOptions(cache_path=cache))
        assert fresh.verdict == "certified"
        stats = fresh.prover_stats
        assert stats["unit_pipeline_hits"] == 0
        assert stats["unit_pipeline_stores"] > 0
