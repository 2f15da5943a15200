"""Job queue, request deduplication, and backpressure.

The scheduler is the admission layer between the HTTP surface and the
worker pool:

* **dedup** — requests are keyed on ``(program digest, spec digest,
  options digest)`` using the same process-stable SHA-256 digests as
  the replay store (:func:`repro.logic.serialize.text_digest`).  A key whose verdict is already in the LRU cache is
  answered instantly without touching the pipeline; a key currently
  queued or running coalesces onto the in-flight job instead of
  checking the same program twice;
* **bounded queue** — at most ``queue_limit`` jobs wait; beyond that
  :class:`QueueFull` is raised and the server answers HTTP 429 with a
  ``Retry-After`` hint rather than buffering without bound;
* **LRU verdict cache** — completed *decided* verdicts (certified or
  rejected) are kept for reuse; timeouts and worker failures are
  resource-dependent, not semantic, so they are never cached;
* **drain** — :meth:`Scheduler.drain` stops admission (new submissions
  raise :class:`ServiceUnavailable` → HTTP 503) while workers finish
  every job already accepted, which is what makes SIGTERM graceful.
"""

from __future__ import annotations

import collections
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.analysis.options import CheckerOptions
from repro.analysis import units
from repro.logic.serialize import text_digest

#: Request option keys a client may set; everything else (notably
#: ``cache_path``) is server-controlled.
CLIENT_OPTION_KEYS = ("timeout_s",)


def options_digest(options: CheckerOptions) -> str:
    """Process-stable digest of the verdict-relevant option fields: the
    function-unit store's digest plus ``timeout_s``, which a unit
    replay may ignore but a job result may not — a budget can turn a
    decided verdict into ``undecided:timeout``.  ``cache_path`` and
    the prover cache are verdict-preserving, so they are absent."""
    return text_digest(units.options_digest(options),
                       "timeout_s=%r" % (options.timeout_s,))


class QueueFull(Exception):
    """The bounded job queue is at capacity (HTTP 429)."""

    def __init__(self, retry_after_s: float):
        super().__init__("job queue is full")
        self.retry_after_s = retry_after_s


class ServiceUnavailable(Exception):
    """The server is draining and no longer admits jobs (HTTP 503)."""


@dataclass(frozen=True)
class CheckRequest:
    """One normalized check request plus its dedup digests."""

    code: bytes            #: assembly text (utf-8) or raw machine code
    spec: str
    arch: str = "sparc"
    binary: bool = False
    name: str = "request"
    options: CheckerOptions = field(default_factory=CheckerOptions)
    program_digest: str = ""
    spec_digest: str = ""
    options_digest: str = ""
    key: str = ""

    @classmethod
    def build(cls, code, spec: str, arch: str = "sparc",
              binary: bool = False, name: str = "request",
              options: Optional[CheckerOptions] = None) -> "CheckRequest":
        options = options or CheckerOptions()
        if isinstance(code, str):
            code = code.encode("utf-8")
        program_digest = text_digest(arch, "bin" if binary else "asm",
                                     code)
        spec_digest = text_digest(spec)
        odigest = options_digest(options)
        return cls(
            code=code, spec=spec, arch=arch, binary=binary, name=name,
            options=options, program_digest=program_digest,
            spec_digest=spec_digest, options_digest=odigest,
            key=text_digest(program_digest, spec_digest, odigest))


#: Job lifecycle states.
QUEUED, RUNNING, COMPLETED, FAILED = \
    "queued", "running", "completed", "failed"


class Job:
    """One admitted check request and its (eventual) outcome."""

    def __init__(self, job_id: str, request: CheckRequest):
        self.id = job_id
        self.request = request
        self.state = QUEUED
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: The ``result_to_json`` payload once completed.
        self.result: Optional[Dict] = None
        self.error: Optional[str] = None
        #: How this job was answered: None (checked by a worker),
        #: "verdict-cache" (LRU hit), or "in-flight" (coalesced).
        self.dedup: Optional[str] = None
        #: Id of the per-job trace captured by the worker, when the
        #: server runs with a trace directory (echoed in the envelope
        #: so a client can correlate job → trace file).
        self.trace_id: Optional[str] = None
        self.done = threading.Event()

    @property
    def terminal(self) -> bool:
        return self.state in (COMPLETED, FAILED)

    def as_dict(self) -> Dict:
        """The job envelope returned by the API (the ``result`` payload
        inside it is byte-identical to ``repro check --json``)."""
        doc = {
            "id": self.id,
            "state": self.state,
            "dedup": self.dedup,
            "program_digest": self.request.program_digest,
            "spec_digest": self.request.spec_digest,
            "options_digest": self.request.options_digest,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc


class Scheduler:
    """Bounded job queue + dedup + LRU verdict cache (all one lock)."""

    def __init__(self, queue_limit: int = 64,
                 verdict_cache_size: int = 256,
                 job_history: int = 1024,
                 metrics=None,
                 id_prefix: str = ""):
        self.queue_limit = queue_limit
        self.verdict_cache_size = verdict_cache_size
        self.job_history = job_history
        self.metrics = metrics
        #: Prepended to every job id.  The sharded server passes
        #: ``"s<shard>-"`` so a job id names its owning shard and any
        #: shard can route a ``GET /v1/jobs/<id>`` to the right peer.
        self.id_prefix = id_prefix
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._queue: Deque[Job] = collections.deque()
        self._jobs: "collections.OrderedDict[str, Job]" = \
            collections.OrderedDict()
        self._inflight: Dict[str, Job] = {}
        self._verdicts: "collections.OrderedDict[str, Dict]" = \
            collections.OrderedDict()
        self._draining = False
        self._ids = itertools.count(1)

    # -- admission (HTTP thread) ---------------------------------------------

    def submit(self, request: CheckRequest) -> Job:
        """Admit one request: answer it from the verdict cache, attach
        it to an identical in-flight job, or enqueue it.  Raises
        :class:`QueueFull` / :class:`ServiceUnavailable` instead of
        blocking — backpressure is the caller's to surface."""
        self._inc("requests_received")
        with self._lock:
            if self._draining:
                self._inc_locked("rejected_draining")
                raise ServiceUnavailable("server is draining")
            cached = self._verdicts.get(request.key)
            if cached is not None:
                self._verdicts.move_to_end(request.key)
                job = Job(self._new_id(), request)
                job.state = COMPLETED
                job.dedup = "verdict-cache"
                job.result = cached
                job.started_at = job.finished_at = time.time()
                job.done.set()
                self._remember(job)
                self._inc_locked("jobs_deduped_cache")
                return job
            running = self._inflight.get(request.key)
            if running is not None:
                self._inc_locked("jobs_deduped_inflight")
                running.dedup = running.dedup or "in-flight"
                return running
            if len(self._queue) >= self.queue_limit:
                self._inc_locked("rejected_queue_full")
                raise QueueFull(retry_after_s=self._retry_after())
            job = Job(self._new_id(), request)
            self._remember(job)
            self._inflight[request.key] = job
            self._queue.append(job)
            self._inc_locked("jobs_accepted")
            self._available.notify()
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # -- worker side ---------------------------------------------------------

    def next_job(self, poll_s: float = 0.5) -> Optional[Job]:
        """Block until a job is available; return None once the
        scheduler is draining and the queue is empty (worker exits)."""
        with self._lock:
            while True:
                if self._queue:
                    job = self._queue.popleft()
                    job.state = RUNNING
                    job.started_at = time.time()
                    return job
                if self._draining:
                    return None
                self._available.wait(poll_s)

    def finish(self, job: Job, result: Optional[Dict] = None,
               error: Optional[str] = None) -> None:
        """Record a terminal outcome and wake every waiter.  Decided
        verdicts enter the LRU cache; timeouts and failures do not."""
        with self._lock:
            job.finished_at = time.time()
            if error is not None:
                job.state = FAILED
                job.error = error
            else:
                job.state = COMPLETED
                job.result = result
                if result and not result.get("timed_out"):
                    self._verdicts[job.request.key] = result
                    self._verdicts.move_to_end(job.request.key)
                    while len(self._verdicts) > self.verdict_cache_size:
                        self._verdicts.popitem(last=False)
            self._inflight.pop(job.request.key, None)
            job.done.set()
        if self.metrics is not None:
            if error is not None:
                self.metrics.inc("jobs_failed")
            else:
                self.metrics.observe_result(result or {})

    # -- drain ---------------------------------------------------------------

    def drain(self) -> None:
        """Stop admitting; already-accepted jobs keep running."""
        with self._lock:
            self._draining = True
            self._available.notify_all()

    # -- internals -----------------------------------------------------------

    def _new_id(self) -> str:
        return "%sj%06d-%s" % (self.id_prefix, next(self._ids),
                               os.urandom(3).hex())

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self.job_history:
            stale_id, stale = next(iter(self._jobs.items()))
            if not stale.terminal:
                break  # never forget a live job
            self._jobs.pop(stale_id, None)

    def _retry_after(self) -> float:
        # A coarse hint: assume ~1s per queued job, capped for sanity.
        return min(30.0, max(1.0, 0.5 * len(self._queue)))

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    def _inc_locked(self, name: str) -> None:
        # Counter updates take the metrics lock; fine under ours (the
        # metrics object never calls back into the scheduler).
        if self.metrics is not None:
            self.metrics.inc(name)
