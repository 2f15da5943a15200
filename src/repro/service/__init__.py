"""Verification-as-a-service: the resident check server.

The paper's premise is on-demand admission of untrusted machine code
into a host; this package is that shape as a service.  ``repro serve``
starts a stdlib-only HTTP/JSON server that accepts (code, spec, arch,
options) requests, schedules them on a bounded job queue with request
deduplication, checks them on a pool of workers that keep warm provers
and a shared replay store, and exposes live metrics.  ``repro
submit`` is the matching client; its verdicts are byte-identical to
``repro check --json``.

Layers:

* :mod:`repro.service.metrics` — thread-safe counters and aggregates;
* :mod:`repro.service.scheduler` — job queue, dedup, LRU verdict
  cache, backpressure;
* :mod:`repro.service.worker` — the worker pool with warm provers,
  per-job timeouts, and crash isolation;
* :mod:`repro.service.server` — the HTTP surface and graceful drain;
* :mod:`repro.service.client` — the ``repro submit`` implementation.
"""

from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    CheckRequest, Job, QueueFull, Scheduler, ServiceUnavailable,
)
from repro.service.server import CheckServer, ServeConfig
from repro.service.worker import WorkerPool

__all__ = [
    "CheckRequest", "CheckServer", "Job", "QueueFull", "Scheduler",
    "ServeConfig", "ServiceMetrics", "ServiceUnavailable", "WorkerPool",
]
