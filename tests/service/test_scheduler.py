"""Unit tests for the service scheduler: dedup, backpressure, LRU
verdict cache, and drain — no HTTP, no worker threads (the test plays
the worker by calling next_job/finish directly)."""

import pytest

from repro.analysis.options import CheckerOptions
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    CheckRequest, QueueFull, Scheduler, ServiceUnavailable,
    options_digest,
)

CODE = "1: retl\n2: nop\n"
SPEC = "rule [V : int : ro]\n"


def request(code=CODE, spec=SPEC, **kwargs):
    return CheckRequest.build(code=code, spec=spec, **kwargs)


def scheduler(**kwargs):
    kwargs.setdefault("metrics", ServiceMetrics())
    return Scheduler(**kwargs)


class TestDigests:
    def test_identical_requests_share_a_key(self):
        assert request().key == request().key

    def test_code_spec_and_options_all_enter_the_key(self):
        base = request()
        assert request(code=CODE + "3: nop\n").key != base.key
        assert request(spec=SPEC + "assume n = 1\n").key != base.key
        timed = request(options=CheckerOptions(timeout_s=1.0))
        assert timed.key != base.key

    def test_cache_path_does_not_change_the_key(self):
        # The replay store is verdict-preserving, so it must dedup
        # onto the same key.
        base = request()
        assert request(
            options=CheckerOptions(cache_path="/tmp/x.sqlite")
        ).key == base.key

    def test_options_digest_is_process_stable(self):
        # Fixed expectation: a digest change means the dedup key
        # definition changed and cached verdicts silently invalidate.
        digest = options_digest(CheckerOptions())
        assert digest == options_digest(CheckerOptions())
        assert len(digest) == 64

    def test_options_digest_is_the_unit_digest_plus_the_budget(self):
        # Every option the replay store keys on moves the dedup key;
        # so does the budget, and nothing verdict-preserving does.
        base = options_digest(CheckerOptions())
        assert options_digest(CheckerOptions(max_call_depth=1)) != base
        assert options_digest(CheckerOptions(timeout_s=2.0)) != base
        assert options_digest(
            CheckerOptions(enable_prover_cache=False)) == base


class TestDedup:
    def test_verdict_cache_answers_resubmission(self):
        s = scheduler()
        job = s.submit(request())
        worker_job = s.next_job()
        assert worker_job is job
        s.finish(job, result={"verdict": "certified", "safe": True})
        again = s.submit(request())
        assert again.terminal
        assert again.dedup == "verdict-cache"
        assert again.result["verdict"] == "certified"
        assert again.id != job.id  # a fresh job record, instant answer
        assert s.queue_depth == 0  # the pipeline never re-ran

    def test_inflight_requests_coalesce(self):
        s = scheduler()
        first = s.submit(request())
        second = s.submit(request())
        assert second is first
        assert first.dedup == "in-flight"

    def test_timeout_verdicts_are_not_cached(self):
        s = scheduler()
        job = s.submit(request())
        s.next_job()
        s.finish(job, result={"verdict": "undecided:timeout",
                              "safe": False, "timed_out": True})
        again = s.submit(request())
        assert not again.terminal  # re-enqueued, not answered

    def test_failed_jobs_are_not_cached(self):
        s = scheduler()
        job = s.submit(request())
        s.next_job()
        s.finish(job, error="boom")
        assert job.state == "failed"
        assert not s.submit(request()).terminal

    def test_lru_eviction(self):
        s = scheduler(verdict_cache_size=1)
        for code in (CODE, CODE + "3: nop\n"):
            job = s.submit(request(code=code))
            s.next_job()
            s.finish(job, result={"verdict": "certified", "safe": True})
        # The first verdict was evicted by the second.
        assert not s.submit(request()).terminal


class TestBackpressure:
    def test_queue_full_raises_with_retry_hint(self):
        s = scheduler(queue_limit=1)
        s.submit(request())
        with pytest.raises(QueueFull) as exc:
            s.submit(request(code=CODE + "3: nop\n"))
        assert exc.value.retry_after_s >= 1.0

    def test_dedup_bypasses_the_full_queue(self):
        s = scheduler(queue_limit=1)
        first = s.submit(request())
        assert s.submit(request()) is first  # coalesces, no 429


class TestDrain:
    def test_drain_rejects_new_and_hands_out_queued(self):
        s = scheduler()
        job = s.submit(request())
        s.drain()
        with pytest.raises(ServiceUnavailable):
            s.submit(request(code=CODE + "3: nop\n"))
        assert s.next_job() is job      # accepted work still runs
        s.finish(job, result={"verdict": "certified", "safe": True})
        assert s.next_job() is None     # then workers are released


class TestMetrics:
    def test_counters_track_the_lifecycle(self):
        m = ServiceMetrics()
        s = scheduler(metrics=m)
        job = s.submit(request())
        s.next_job()
        s.finish(job, result={"verdict": "certified", "safe": True,
                              "times": {"total": 0.5},
                              "prover": {"satisfiability_queries": 10,
                                         "cache_hits": 4}})
        s.submit(request())
        snap = m.snapshot(queue_depth=s.queue_depth)
        assert snap["counters"]["jobs_accepted"] == 1
        assert snap["counters"]["jobs_certified"] == 1
        assert snap["counters"]["jobs_deduped_cache"] == 1
        assert snap["dedup_hits"] == 1
        assert snap["phase_seconds"]["total"] == pytest.approx(0.5)
        assert snap["prover"]["satisfiability_queries"] == 10
        assert snap["prover"]["cache_hit_rate"] == pytest.approx(0.4)
