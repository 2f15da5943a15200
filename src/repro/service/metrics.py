"""Live service metrics: thread-safe counters plus cross-request
aggregation of the checker's per-run statistics.

One :class:`ServiceMetrics` instance is shared by the scheduler, the
worker pool, and the HTTP surface; ``GET /metrics`` renders
:meth:`ServiceMetrics.snapshot` as JSON.  Aggregates sum the
``prover_stats`` counters and per-phase seconds of every completed
check, so a long-running server reports fleet-level cache hit rates —
the cross-request payoff the resident service exists for.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

#: Counter names, in reporting order.  Zero-initialized so a fresh
#: snapshot always carries the full schema.
COUNTERS = (
    # request admission
    "requests_received",      # POST /v1/check bodies parsed
    "batch_requests",         # POST /v1/batch bodies parsed
    "batch_items",            # individual items inside those batches
    "jobs_accepted",          # enqueued for a worker
    "jobs_deduped_cache",     # answered from the LRU verdict cache
    "jobs_deduped_inflight",  # coalesced onto a queued/running job
    "rejected_queue_full",    # HTTP 429 responses
    "rejected_bad_request",   # HTTP 400 responses
    "rejected_draining",      # HTTP 503 responses during drain
    # job outcomes
    "jobs_completed",         # terminal: verdict produced
    "jobs_certified",
    "jobs_rejected",
    "jobs_timed_out",         # the undecided:timeout verdict
    "jobs_failed",            # worker exception (crash-isolated)
)


class ServiceMetrics:
    """Monotonic counters + summed per-check statistics, all guarded by
    one lock (every operation is a handful of dict updates)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Monotonic, not epoch: uptime is an elapsed duration and must
        # not jump with NTP steps (same rule as the prover deadline).
        self._started = time.monotonic()
        self._counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._prover: Dict[str, float] = {}
        self._phase_seconds: Dict[str, float] = {
            "propagation": 0.0, "annotation_local": 0.0,
            "global": 0.0, "total": 0.0,
        }

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe_result(self, payload: Dict) -> None:
        """Fold one completed job's ``result_to_json`` payload into the
        cross-request aggregates."""
        with self._lock:
            self._counters["jobs_completed"] += 1
            verdict = payload.get("verdict")
            if verdict == "certified":
                self._counters["jobs_certified"] += 1
            elif verdict == "rejected":
                self._counters["jobs_rejected"] += 1
            elif verdict == "undecided:timeout":
                self._counters["jobs_timed_out"] += 1
            for phase, seconds in (payload.get("times") or {}).items():
                if isinstance(seconds, (int, float)):
                    self._phase_seconds[phase] = \
                        self._phase_seconds.get(phase, 0.0) + seconds
            for name, value in (payload.get("prover") or {}).items():
                if name.endswith("_rate"):
                    continue  # rates do not sum; recomputed below
                if isinstance(value, (int, float)):
                    self._prover[name] = \
                        self._prover.get(name, 0) + value

    # -- reporting -----------------------------------------------------------

    def snapshot(self, queue_depth: int = 0,
                 extra: Optional[Dict] = None) -> Dict:
        """One coherent metrics document for ``GET /metrics``."""
        with self._lock:
            counters = dict(self._counters)
            prover = dict(self._prover)
            phases = dict(self._phase_seconds)
            # Under the same lock as the counters it is reported with:
            # a snapshot is one coherent point in time.
            uptime = time.monotonic() - self._started
        # Rates are always present, 0.0 when idle — consumers must
        # never see the key disappear after a reset-or-idle window.
        _recompute_rates(prover)
        doc = {
            "uptime_seconds": uptime,
            "queue_depth": queue_depth,
            "counters": counters,
            "dedup_hits": (counters["jobs_deduped_cache"]
                           + counters["jobs_deduped_inflight"]),
            "phase_seconds": phases,
            "prover": prover,
        }
        if extra:
            doc.update(extra)
        return doc


# -- cross-shard aggregation -------------------------------------------------


def _recompute_rates(prover: Dict[str, float]) -> None:
    """Hit rates never sum across shards; rebuild them from the summed
    component counters (always present, 0.0 while idle)."""
    queries = prover.get("satisfiability_queries", 0)
    prover["cache_hit_rate"] = (
        prover.get("cache_hits", 0) / queries if queries else 0.0)
    lookups = prover.get("unit_lookups", 0)
    prover["unit_hit_rate"] = (
        prover.get("unit_hits", 0) / lookups if lookups else 0.0)


def aggregate_snapshots(per_shard: Dict[str, Dict]) -> Dict:
    """Merge per-shard :meth:`ServiceMetrics.snapshot` documents into
    one fleet view (the sharded server's ``GET /metrics``).

    The result keeps the single-server schema — counters, phase
    seconds, and prover counters summed, hit rates recomputed, queue
    depth summed, uptime the fleet maximum — and adds ``shard_count``
    plus a ``shards`` map carrying every local snapshot verbatim.  A
    shard that failed to answer contributes an ``{"error": ...}``
    entry and is skipped in the sums."""
    counters: Dict[str, int] = {name: 0 for name in COUNTERS}
    phases: Dict[str, float] = {}
    prover: Dict[str, float] = {}
    doc: Dict = {
        "uptime_seconds": 0.0,
        "queue_depth": 0,
        "dedup_hits": 0,
        "draining": False,
        "shard_count": len(per_shard),
        "shards": per_shard,
    }
    for snapshot in per_shard.values():
        if "counters" not in snapshot:
            continue  # unreachable shard: {"error": ...}
        doc["uptime_seconds"] = max(doc["uptime_seconds"],
                                    snapshot.get("uptime_seconds", 0.0))
        doc["queue_depth"] += snapshot.get("queue_depth", 0)
        doc["dedup_hits"] += snapshot.get("dedup_hits", 0)
        doc["draining"] = doc["draining"] \
            or bool(snapshot.get("draining"))
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for phase, seconds in (snapshot.get("phase_seconds")
                               or {}).items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        for name, value in (snapshot.get("prover") or {}).items():
            if name.endswith("_rate"):
                continue
            prover[name] = prover.get(name, 0) + value
    _recompute_rates(prover)
    doc["counters"] = counters
    doc["phase_seconds"] = phases
    doc["prover"] = prover
    return doc


# -- Prometheus text exposition ----------------------------------------------

#: HELP strings for the top-level gauges.
_GAUGE_HELP = {
    "repro_uptime_seconds": "Seconds since the service started "
                            "(monotonic clock).",
    "repro_queue_depth": "Jobs currently queued for a worker.",
    "repro_draining": "1 while the server refuses new jobs during "
                      "graceful shutdown.",
}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _sample(lines, name: str, kind: str, value,
            help_text: str = "", labels: str = "") -> None:
    if help_text:
        lines.append("# HELP %s %s" % (name, help_text))
    lines.append("# TYPE %s %s" % (name, kind))
    lines.append("%s%s %s" % (name, labels, _format_value(value)))


def render_prometheus(snapshot: Dict) -> str:
    """Render a :meth:`ServiceMetrics.snapshot` document in the
    Prometheus text exposition format (version 0.0.4) for
    ``GET /metrics?format=prometheus``.

    Counters get the conventional ``_total`` suffix; rates and the
    point-in-time values (uptime, queue depth, drain flag) are gauges;
    per-phase seconds become one ``repro_phase_seconds_total`` family
    with a ``phase`` label.

    An aggregated fleet snapshot (one carrying a ``shards`` map, see
    :func:`aggregate_snapshots`) renders the lifecycle counters and
    queue depth as one sample per shard with a ``shard`` label —
    fleet totals are a ``sum()`` away at query time — while the
    cross-shard aggregates (uptime, phase seconds, prover counters)
    stay unlabeled."""
    lines: List[str] = []
    shards = {
        label: snap for label, snap in
        (snapshot.get("shards") or {}).items() if "counters" in snap
    }
    _sample(lines, "repro_uptime_seconds", "gauge",
            snapshot.get("uptime_seconds", 0.0),
            _GAUGE_HELP["repro_uptime_seconds"])
    if shards:
        lines.append("# HELP repro_queue_depth %s"
                     % _GAUGE_HELP["repro_queue_depth"])
        lines.append("# TYPE repro_queue_depth gauge")
        for label in sorted(shards):
            lines.append('repro_queue_depth{shard="%s"} %s' % (
                label, _format_value(shards[label].get("queue_depth",
                                                       0))))
    else:
        _sample(lines, "repro_queue_depth", "gauge",
                snapshot.get("queue_depth", 0),
                _GAUGE_HELP["repro_queue_depth"])
    if "draining" in snapshot:
        _sample(lines, "repro_draining", "gauge",
                snapshot["draining"], _GAUGE_HELP["repro_draining"])
    for name, value in (snapshot.get("counters") or {}).items():
        if shards:
            lines.append("# TYPE repro_%s_total counter" % name)
            for label in sorted(shards):
                lines.append('repro_%s_total{shard="%s"} %s' % (
                    name, label, _format_value(
                        shards[label]["counters"].get(name, 0))))
        else:
            _sample(lines, "repro_%s_total" % name, "counter", value)
    _sample(lines, "repro_dedup_hits_total", "counter",
            snapshot.get("dedup_hits", 0),
            "Requests answered from the verdict cache or coalesced "
            "onto in-flight jobs.")
    phases = snapshot.get("phase_seconds") or {}
    if phases:
        lines.append("# HELP repro_phase_seconds_total Summed checker "
                     "phase seconds across completed jobs.")
        lines.append("# TYPE repro_phase_seconds_total counter")
        for phase, seconds in phases.items():
            lines.append('repro_phase_seconds_total{phase="%s"} %s'
                         % (phase, _format_value(seconds)))
    for name, value in (snapshot.get("prover") or {}).items():
        if name.endswith("_rate"):
            _sample(lines, "repro_prover_%s" % name, "gauge", value)
        else:
            _sample(lines, "repro_prover_%s_total" % name, "counter",
                    value)
    return "\n".join(lines) + "\n"
