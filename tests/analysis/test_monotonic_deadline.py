"""Regression tests for the monotonic-clock deadline plumbing.

The historical bug: deadlines were stored as ``time.time()`` epoch
seconds and compared against the wall clock, so an NTP step (or a
suspend/resume) could expire a running check instantly — or extend it
indefinitely.  Deadlines are now ``time.monotonic()`` values
everywhere.
"""

import time

import pytest

from repro.analysis.options import CheckerOptions
from repro.cfg.loops import Loop
from repro.errors import ProverTimeout
from repro.analysis.induction import InductionIteration
from repro.logic.formula import TRUE, ge
from repro.logic.prover import Prover
from repro.programs.sum_array import PROGRAM as SUM_PROGRAM
from repro.service.metrics import ServiceMetrics


class TestProverDeadline:
    def test_wall_clock_step_does_not_expire_budget(self, monkeypatch):
        """An NTP step (time.time jumps forward an hour) must not
        expire a monotonic deadline that still has budget left."""
        prover = Prover()
        prover.deadline = time.monotonic() + 60.0
        real_time = time.time
        monkeypatch.setattr(time, "time",
                            lambda: real_time() + 3600.0)
        prover.check_deadline()  # must not raise
        assert prover.is_satisfiable(ge("x", 0)) is True

    def test_wall_clock_step_backward_does_not_extend_budget(
            self, monkeypatch):
        prover = Prover()
        prover.deadline = time.monotonic() - 0.001
        real_time = time.time
        monkeypatch.setattr(time, "time",
                            lambda: real_time() - 3600.0)
        with pytest.raises(ProverTimeout):
            prover.check_deadline()

    def test_expired_deadline_raises(self):
        prover = Prover()
        prover.deadline = time.monotonic() - 1.0
        with pytest.raises(ProverTimeout):
            prover.is_satisfiable(ge("x", 0))

    def test_no_deadline_never_raises(self):
        prover = Prover()
        assert prover.deadline is None
        prover.check_deadline()

    def test_checker_timeout_is_immune_to_wall_clock(self, monkeypatch):
        """End-to-end: a generous timeout_s survives a wall-clock jump
        taken mid-check (patched before the run so every time.time()
        call the checker might make sees the stepped clock)."""
        real_time = time.time
        monkeypatch.setattr(time, "time",
                            lambda: real_time() + 7200.0)
        result = SUM_PROGRAM.check(CheckerOptions(timeout_s=120.0))
        assert result.safe
        assert not result.timed_out


class _StallingProver(Prover):
    """A prover whose validity queries never consult the deadline —
    simulating long stretches of candidate generation between real
    queries.  Only the search loop's explicit check_deadline() calls
    can interrupt a run."""

    def __init__(self):
        super().__init__()
        self.queries = 0

    def is_valid(self, f):
        self.queries += 1
        return False

    def is_satisfiable(self, f):
        self.queries += 1
        return True

    def prefix_session(self, prefix):
        # Session queries must not consult the deadline either.
        return _StallingSession(self)


class _StallingSession:
    """A prefix session that answers through the stalling prover:
    every candidate fails and every query is satisfiable."""

    def __init__(self, prover):
        self.prover = prover

    def satisfiable_with(self, extra):
        return self.prover.is_satisfiable(extra)

    def implies(self, goal, extra=None):
        return not self.satisfiable_with(goal)

    def refutes(self, extra):
        return not self.satisfiable_with(extra)


class _StubEngine:
    """The slice of VerificationEngine that InductionIteration uses."""

    def __init__(self, prover, options):
        self.prover = prover
        self.options = options

    def header_facts(self, loop):
        return TRUE

    def facts_session(self, loop):
        return self.prover.prefix_session(TRUE)

    def quantifier_free(self, f):
        return f

    def loop_body_wlp(self, loop, w, trials, depth):
        return ge("x", 0)

    def modified_variables(self, loop):
        return {"x"}

    def true_on_entry(self, loop, w, trials, depth):
        return True


class TestInductionDeadline:
    def test_expired_deadline_interrupts_search_promptly(self):
        """Regression: the BFS used to check the deadline only inside
        prover queries, so a candidate space explored between queries
        could overrun a tiny budget unbounded.  The loop now checks at
        every iteration."""
        prover = _StallingProver()
        options = CheckerOptions(max_invariant_candidates=10 ** 6,
                                 max_induction_iterations=10 ** 6)
        engine = _StubEngine(prover, options)
        search = InductionIteration(engine, Loop(header=2, body={2, 3}),
                                    trials={}, depth=0)
        prover.deadline = time.monotonic() - 1.0
        t0 = time.monotonic()
        with pytest.raises(ProverTimeout):
            search.run(ge("x", 0))
        assert time.monotonic() - t0 < 5.0

    def test_live_deadline_lets_search_finish(self):
        prover = _StallingProver()
        prover.deadline = time.monotonic() + 60.0
        options = CheckerOptions(max_invariant_candidates=8)
        engine = _StubEngine(prover, options)
        search = InductionIteration(engine, Loop(header=2, body={2, 3}),
                                    trials={}, depth=0)
        outcome = search.run(ge("x", 0))
        assert not outcome.success  # prover refutes everything
        assert prover.queries > 0

    def test_sum_array_times_out_cleanly_with_tiny_budget(self):
        """A real program with an (effectively) expired budget reports
        undecided:timeout rather than hanging or crashing."""
        result = SUM_PROGRAM.check(CheckerOptions(timeout_s=1e-9))
        assert result.timed_out
        assert not result.safe


class TestServiceMetricsClock:
    def test_uptime_is_monotonic_not_wall_clock(self, monkeypatch):
        metrics = ServiceMetrics()
        real_time = time.time
        monkeypatch.setattr(time, "time",
                            lambda: real_time() + 86400.0)
        snapshot = metrics.snapshot()
        assert 0.0 <= snapshot["uptime_seconds"] < 60.0

    def test_cache_hit_rate_present_when_idle(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["prover"]["cache_hit_rate"] == 0.0
