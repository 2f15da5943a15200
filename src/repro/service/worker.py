"""The check-service worker pool.

Each worker thread owns a **warm prover** — raw and per-conjunct
result caches that survive across jobs.  Satisfiability depends only on
the formula, never on the submitting program, so reusing prover caches
across requests is sound and is precisely the cross-request payoff of a
resident service.  Workers hold no replay store: each job's checker
opens, flushes and closes its own handle on the server's
``cache_path`` (WAL journaling makes the file safely shared).

Isolation rules:

* a worker exception **fails the job, not the server** — the error is
  recorded on the job and the worker moves on;
* per-job wall-clock budgets ride on ``CheckerOptions.timeout_s``, a
  per-thread deadline (:mod:`repro.budget`), so concurrent jobs each
  abort on their own budget and report ``undecided:timeout``;
* a request whose options disable the prover caches gets a throwaway
  prover so it cannot poison or bypass the warm one.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import replace
from typing import List, Optional

from repro.analysis.checker import SafetyChecker
from repro.analysis.report import result_to_json
from repro.errors import ReproError
from repro.ir.frontend import get_frontend
from repro.logic.prover import Prover
from repro.policy.parser import parse_spec
from repro.service.scheduler import Job, Scheduler
from repro.trace import Tracer

log = logging.getLogger("repro.service")


class Worker(threading.Thread):
    """One worker: warm prover + job loop."""

    def __init__(self, index: int, scheduler: Scheduler,
                 trace_dir: Optional[str] = None):
        super().__init__(name="repro-worker-%d" % index, daemon=True)
        self.index = index
        self.scheduler = scheduler
        self.trace_dir = trace_dir
        self._warm: Optional[Prover] = None

    # -- warm state ----------------------------------------------------------

    def _warm_prover(self) -> Prover:
        if self._warm is None:
            self._warm = Prover()
        return self._warm

    def _prover_for(self, options) -> Prover:
        """The warm prover when the request runs with the default cache
        configuration; a throwaway prover otherwise."""
        if options.enable_prover_cache:
            prover = self._warm_prover()
            prover.reset_stats()  # per-job stats on a warm cache
            return prover
        return Prover(enable_cache=False)

    # -- job loop ------------------------------------------------------------

    def run(self) -> None:
        while True:
            job = self.scheduler.next_job()
            if job is None:
                break  # draining and the queue is empty
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        t0 = time.perf_counter()
        request = job.request
        log.info("job=%s worker=%d start program=%.12s spec=%.12s "
                 "arch=%s", job.id, self.index,
                 request.program_digest, request.spec_digest,
                 request.arch)
        tracer = None
        try:
            program = self._build_program(request)
            spec = parse_spec(request.spec)
            # Per-job tracing: one file per job keyed by the job id,
            # which doubles as the trace id echoed in the envelope.
            # options.trace_path is force-cleared so an inherited
            # REPRO_TRACE on the server process can never make every
            # worker thread write into one shared file.
            options = replace(request.options, trace_path=None)
            if self.trace_dir:
                tracer = Tracer.to_path(
                    os.path.join(self.trace_dir,
                                 "%s.jsonl" % job.id),
                    trace_id=job.id)
                job.trace_id = tracer.trace_id
            with SafetyChecker(program, spec, options=options,
                               name=request.name,
                               prover=self._prover_for(request.options),
                               tracer=tracer) as checker:
                result = checker.check()
            payload = result_to_json(result)
        except ReproError as error:
            self.scheduler.finish(job, error=str(error))
            log.warning("job=%s worker=%d failed after %.3fs: %s",
                        job.id, self.index, time.perf_counter() - t0,
                        error)
            return
        except Exception as error:  # crash isolation: job, not server
            self.scheduler.finish(
                job, error="internal error: %r" % (error,))
            log.exception("job=%s worker=%d crashed after %.3fs",
                          job.id, self.index, time.perf_counter() - t0)
            return
        finally:
            # The checker only closes tracers it opened; this one is
            # the worker's (an aborted job still leaves a valid,
            # truncated trace file).
            if tracer is not None:
                tracer.close()
        self.scheduler.finish(job, result=payload)
        log.info("job=%s worker=%d done verdict=%s trace=%s in %.3fs",
                 job.id, self.index, payload["verdict"],
                 job.trace_id or "-", time.perf_counter() - t0)

    @staticmethod
    def _build_program(request):
        frontend = get_frontend(request.arch)
        if request.binary:
            if frontend.decode is None:
                raise ReproError("the %s frontend has no decoder"
                                 % frontend.name)
            return frontend.decode(request.code, name=request.name)
        return frontend.assemble(request.code.decode("utf-8"),
                                 name=request.name)


class WorkerPool:
    """N workers sharing one scheduler."""

    def __init__(self, scheduler: Scheduler, workers: int = 2,
                 trace_dir: Optional[str] = None):
        self.scheduler = scheduler
        self.workers: List[Worker] = [
            Worker(index, scheduler, trace_dir=trace_dir)
            for index in range(max(1, workers))
        ]

    def start(self) -> None:
        for worker in self.workers:
            worker.start()

    def join(self, timeout_s: Optional[float] = None) -> bool:
        """Wait for every worker to exit (they do once the scheduler is
        draining and the queue is empty).  True when all joined."""
        deadline = None if timeout_s is None else \
            time.monotonic() + timeout_s
        for worker in self.workers:
            remaining = None if deadline is None else \
                max(0.0, deadline - time.monotonic())
            worker.join(remaining)
        return not any(worker.is_alive() for worker in self.workers)
