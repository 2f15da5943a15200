"""The HTTP/JSON surface of the check service (stdlib only).

API (all bodies JSON):

* ``POST /v1/check`` — submit a program.  Fields: ``code`` (assembly
  text) or ``code_b64`` (base64 machine code with ``"binary": true``),
  ``spec``, optional ``arch`` ("sparc"/"riscv"), ``name``, ``options``
  (client-settable: ``timeout_s``), and ``wait`` (block
  until the verdict, bounded by the server's ``max_wait_s``).  Answers
  200 with the finished job envelope, 202 with the queued job, 400 on
  malformed input, 429 + ``Retry-After`` when the queue is full, 503
  while draining.
* ``POST /v1/batch`` — submit a list of check requests in one round
  trip: ``{"items": [<check bodies>], "wait": true}``.  Items sharing
  a dedup key are verified once (verdict cache or in-flight
  coalescing); each item answers with its own status (200/202/400/
  429/503) and job envelope, results byte-identical to single
  submissions.
* ``GET /v1/jobs/<id>`` — the job envelope (404 when unknown).  In a
  shard fleet the id's ``s<shard>-`` prefix routes the lookup to the
  owning shard.
* ``GET /healthz`` — liveness + queue depth.
* ``GET /metrics`` — the live :class:`ServiceMetrics` snapshot as
  JSON; ``GET /metrics?format=prometheus`` renders the same snapshot
  in the Prometheus text exposition format.

When the process is one shard of a pre-forked fleet (see
:mod:`repro.service.shards`), ``/metrics`` and ``/healthz`` aggregate
across every shard by fanning out to the per-shard control listeners;
``?scope=local`` restricts any endpoint to the answering shard.


The ``result`` object inside a completed envelope is produced by
:func:`repro.analysis.report.result_to_json` — the same function behind
``repro check --json`` — so service verdicts are byte-identical to
local ones.

Shutdown: :meth:`CheckServer.begin_drain` (wired to SIGTERM/SIGINT by
``repro serve``) stops admission, lets the workers finish every
accepted job, then stops the listener.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.analysis.options import CheckerOptions, valid_timeout
from repro.ir.frontend import frontend_names
from repro.service.metrics import (
    ServiceMetrics, aggregate_snapshots, render_prometheus,
)
from repro.service.scheduler import (
    CLIENT_OPTION_KEYS, CheckRequest, Job, QueueFull, Scheduler,
    ServiceUnavailable,
)
from repro.service.worker import WorkerPool

log = logging.getLogger("repro.service")

#: Upper bound on request bodies (code + spec are small; anything
#: larger is abuse, not a program).
MAX_BODY_BYTES = 8 << 20

#: Job ids minted by a shard carry this prefix (``s3-j000042-...``) so
#: any shard can route a lookup to the owner.
_SHARD_ID = re.compile(r"^s(\d+)-")


class BadRequest(Exception):
    """Client error → HTTP 400."""


@dataclass
class ServeConfig:
    """Knobs of one ``repro serve`` instance."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2
    queue_limit: int = 64
    verdict_cache_size: int = 256
    #: Pre-forked shard processes sharing the listening socket
    #: (0 = one per CPU core, 1 = classic single-process server).
    #: Consumed by :mod:`repro.service.shards` / ``repro serve``.
    shards: int = 1
    #: Upper bound on ``POST /v1/batch`` items per request.
    batch_limit: int = 256
    #: Replay store path shared by every job (None = no store).
    cache_path: Optional[str] = None
    #: Default per-job wall-clock budget (None = unlimited).
    default_timeout_s: Optional[float] = None
    #: Cap on how long one ``wait=true`` submission may block.
    max_wait_s: float = 300.0
    #: How long a drain waits for in-flight jobs before giving up.
    drain_timeout_s: float = 60.0
    #: Directory for per-job JSONL traces (None = tracing off).  Each
    #: job traces into ``<trace_dir>/<job id>.jsonl`` and its envelope
    #: echoes the ``trace_id``.
    trace_dir: Optional[str] = None


class _AdoptedHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer running on an already-listening socket.

    The sharded server binds one socket in the parent process and every
    forked shard adopts its inherited copy — the kernel then load-
    balances ``accept()`` across the shard processes (one shared accept
    queue, no SO_REUSEPORT races, ephemeral ports resolve once).

    One connection wakes the ``select()`` of every shard, and all but
    one lose the ``accept()`` race.  The shared socket is therefore
    non-blocking: a losing ``accept()`` raises ``BlockingIOError``,
    which ``socketserver`` swallows, and the loop returns to
    ``select()`` — where ``shutdown()`` can still reach it — instead of
    blocking until the next connection."""

    def __init__(self, sock: socket.socket, handler) -> None:
        address = sock.getsockname()[:2]
        super().__init__(address, handler, bind_and_activate=False)
        self.socket.close()  # replace the unbound default socket
        sock.setblocking(False)
        self.socket = sock
        self.server_address = address
        self.server_name, self.server_port = address

    def get_request(self):
        # Handlers do blocking reads and writes; whether an accepted
        # socket inherits O_NONBLOCK is platform-dependent.
        conn, address = self.socket.accept()
        conn.setblocking(True)
        return conn, address


class CheckServer:
    """The scheduler + worker pool + HTTP listener, wired together.

    A plain instance is the whole service.  Inside a pre-forked fleet
    (:mod:`repro.service.shards`) each shard process owns one instance
    adopting the shared listening socket, plus a private *control*
    listener on ``127.0.0.1`` used for shard-to-shard metrics fan-out,
    cross-shard job lookups, and shard-pinned test traffic."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 listen_socket: Optional[socket.socket] = None,
                 shard_index: Optional[int] = None):
        self.config = config or ServeConfig()
        self.shard_index = shard_index
        #: shard index -> control base URL; set on every fleet member
        #: once the parent has collected the control ports.
        self.shard_map: Optional[Dict[int, str]] = None
        self.metrics = ServiceMetrics()
        self.scheduler = Scheduler(
            queue_limit=self.config.queue_limit,
            verdict_cache_size=self.config.verdict_cache_size,
            metrics=self.metrics,
            id_prefix="" if shard_index is None else
            "s%d-" % shard_index)
        self.pool = WorkerPool(self.scheduler,
                               workers=self.config.workers,
                               trace_dir=self.config.trace_dir)
        if listen_socket is None:
            self.httpd = ThreadingHTTPServer(
                (self.config.host, self.config.port), _Handler)
        else:
            self.httpd = _AdoptedHTTPServer(listen_socket, _Handler)
        self.httpd.daemon_threads = True
        self.httpd.check_server = self  # handler back-pointer
        self.control_httpd: Optional[ThreadingHTTPServer] = None
        self._control_thread: Optional[threading.Thread] = None
        self._drain_thread: Optional[threading.Thread] = None
        self._serve_thread: Optional[threading.Thread] = None

    # -- addresses -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """Actual bound (host, port) — port 0 resolves here."""
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://%s:%d" % (host, port)

    @property
    def control_url(self) -> Optional[str]:
        if self.control_httpd is None:
            return None
        host, port = self.control_httpd.server_address[:2]
        return "http://%s:%d" % (host, port)

    # -- shard fleet ---------------------------------------------------------

    def start_control(self) -> None:
        """Open the shard's private control listener (full API surface,
        ephemeral port on the loopback) in a daemon thread."""
        self.control_httpd = ThreadingHTTPServer(("127.0.0.1", 0),
                                                 _Handler)
        self.control_httpd.daemon_threads = True
        self.control_httpd.check_server = self
        self._control_thread = threading.Thread(
            target=self.control_httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-control", daemon=True)
        self._control_thread.start()

    def set_shard_map(self, shard_map: Dict[int, str]) -> None:
        self.shard_map = dict(shard_map)

    @property
    def in_fleet(self) -> bool:
        return bool(self.shard_map) and self.shard_index is not None

    def peer_fetch(self, index: int, path: str,
                   timeout_s: float = 5.0) -> Dict:
        """GET *path* from shard *index*'s control listener."""
        url = self.shard_map[index] + path
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))

    def fleet_snapshots(self, path: str) -> Dict[str, Dict]:
        """One JSON document per shard for *path* (``?scope=local``
        appended), the local shard answered in-process.  Unreachable
        peers degrade to ``{"error": ...}`` entries instead of failing
        the aggregate."""
        joiner = "&" if "?" in path else "?"
        per_shard: Dict[str, Dict] = {}
        for index in sorted(self.shard_map or {}):
            if index == self.shard_index:
                continue  # filled in by the caller, no self-HTTP
            try:
                per_shard[str(index)] = self.peer_fetch(
                    index, path + joiner + "scope=local")
            except (urllib.error.URLError, OSError,
                    ValueError) as error:
                per_shard[str(index)] = {"error": str(error)}
        return per_shard

    def local_metrics_snapshot(self) -> Dict:
        snapshot = self.metrics.snapshot(
            queue_depth=self.scheduler.queue_depth,
            extra={"draining": self.scheduler.draining})
        if self.shard_index is not None:
            snapshot["shard"] = self.shard_index
        return snapshot

    def fleet_metrics_snapshot(self) -> Dict:
        per_shard = self.fleet_snapshots("/metrics")
        per_shard[str(self.shard_index)] = self.local_metrics_snapshot()
        return aggregate_snapshots(per_shard)

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Run in the calling thread until drained (CLI entry)."""
        self.pool.start()
        log.info("serving on %s (workers=%d queue_limit=%d cache=%s)",
                 self.url, self.config.workers, self.config.queue_limit,
                 self.config.cache_path or "-")
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        finally:
            self.httpd.server_close()

    def start_background(self) -> None:
        """Run the listener in a daemon thread (tests, embedding)."""
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-serve", daemon=True)
        self._serve_thread.start()

    def begin_drain(self) -> None:
        """Graceful shutdown: stop admission, finish accepted jobs,
        then stop the listener.  Idempotent; returns immediately (the
        drain runs on its own thread so signal handlers stay quick)."""
        if self._drain_thread is not None:
            return
        log.info("drain requested: refusing new jobs, finishing %d "
                 "queued", self.scheduler.queue_depth)
        self.scheduler.drain()
        self._drain_thread = threading.Thread(
            target=self._drain, name="repro-drain", daemon=True)
        self._drain_thread.start()

    def _drain(self) -> None:
        clean = self.pool.join(self.config.drain_timeout_s)
        log.info("drain %s; stopping listener",
                 "complete" if clean else "timed out")
        self.httpd.shutdown()
        if self.control_httpd is not None:
            self.control_httpd.shutdown()
            self.control_httpd.server_close()

    def wait_closed(self, timeout_s: Optional[float] = None) -> None:
        """Block until a background listener has stopped."""
        if self._serve_thread is not None:
            self._serve_thread.join(timeout_s)
            self.httpd.server_close()

    def close(self) -> None:
        """Hard teardown for tests: drain and stop everything."""
        self.begin_drain()
        if self._drain_thread is not None:
            self._drain_thread.join(self.config.drain_timeout_s)
        self.wait_closed(5.0)

    # -- request assembly ----------------------------------------------------

    def build_request(self, payload: dict) -> CheckRequest:
        """Validate one ``POST /v1/check`` body into a
        :class:`CheckRequest` (raises :class:`BadRequest`)."""
        if not isinstance(payload, dict):
            raise BadRequest("body must be a JSON object")
        spec = payload.get("spec")
        if not isinstance(spec, str) or not spec.strip():
            raise BadRequest("'spec' (string) is required")
        arch = payload.get("arch", "sparc")
        if arch not in frontend_names():
            raise BadRequest("unknown arch %r (expected one of %s)"
                             % (arch, ", ".join(frontend_names())))
        binary = bool(payload.get("binary", False))
        if binary:
            blob = payload.get("code_b64")
            if not isinstance(blob, str):
                raise BadRequest("'code_b64' (base64 string) is "
                                 "required when binary=true")
            try:
                code = base64.b64decode(blob, validate=True)
            except (binascii.Error, ValueError):
                raise BadRequest("'code_b64' is not valid base64")
        else:
            code = payload.get("code")
            if not isinstance(code, str) or not code.strip():
                raise BadRequest("'code' (assembly text) is required")
        name = payload.get("name", "request")
        if not isinstance(name, str) or len(name) > 200:
            raise BadRequest("'name' must be a short string")
        return CheckRequest.build(
            code=code, spec=spec, arch=arch, binary=binary, name=name,
            options=self._checker_options(payload.get("options")))

    def _checker_options(self, raw) -> CheckerOptions:
        """Server defaults + the client-settable option subset.  The
        replay store path is always the server's — clients must not
        choose server file paths."""
        options = CheckerOptions(
            cache_path=self.config.cache_path,
            timeout_s=self.config.default_timeout_s)
        if raw is None:
            return options
        if not isinstance(raw, dict):
            raise BadRequest("'options' must be a JSON object")
        unknown = set(raw) - set(CLIENT_OPTION_KEYS)
        if unknown:
            raise BadRequest("unsupported options: %s"
                             % ", ".join(sorted(unknown)))
        if "timeout_s" in raw:
            value = raw["timeout_s"]
            # Python's json accepts NaN and Infinity literals.
            if value is not None and not valid_timeout(value):
                raise BadRequest("'options.timeout_s' must be a "
                                 "finite number > 0 or null")
            options.timeout_s = float(value) if value is not None \
                else None
        return options


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CheckServer:
        return self.server.check_server  # type: ignore[attr-defined]

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parts = urlsplit(self.path)
        path, query = parts.path, parse_qs(parts.query)
        local = (query.get("scope") or ["fleet"])[-1] == "local"
        fleet = self.service.in_fleet and not local
        if path == "/healthz":
            self._respond(200, self._health(fleet))
        elif path == "/metrics":
            if fleet:
                snapshot = self.service.fleet_metrics_snapshot()
            else:
                snapshot = self.service.local_metrics_snapshot()
            fmt = (query.get("format") or ["json"])[-1]
            if fmt == "prometheus":
                self._respond_text(
                    200, render_prometheus(snapshot),
                    content_type="text/plain; version=0.0.4; "
                                 "charset=utf-8")
            elif fmt == "json":
                self._respond(200, snapshot)
            else:
                self._respond(400, {"error": "unknown metrics format "
                                             "%r" % fmt})
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            job = self.service.scheduler.get(job_id)
            if job is not None:
                self._respond(200, job.as_dict())
            elif fleet and self._proxy_job(job_id):
                pass  # answered from the owning shard
            else:
                self._respond(404, {"error": "unknown job %r" % job_id})
        else:
            self._respond(404, {"error": "no such endpoint"})

    def _proxy_job(self, job_id: str) -> bool:
        """Route a job lookup to the shard named by the id prefix.
        True when a response (of any status) was sent."""
        match = _SHARD_ID.match(job_id)
        if match is None:
            return False
        owner = int(match.group(1))
        shard_map = self.service.shard_map or {}
        if owner == self.service.shard_index or owner not in shard_map:
            return False
        url = "%s/v1/jobs/%s?scope=local" % (shard_map[owner], job_id)
        try:
            with urllib.request.urlopen(url, timeout=5.0) as response:
                self._respond_bytes(response.status, response.read(),
                                    "application/json")
        except urllib.error.HTTPError as error:
            self._respond_bytes(error.code, error.read(),
                                "application/json")
        except (urllib.error.URLError, OSError) as error:
            self._respond(502, {"error": "shard %d unreachable: %s"
                                         % (owner, error)})
        return True

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/v1/batch":
            self._post_batch()
            return
        if self.path != "/v1/check":
            self._respond(404, {"error": "no such endpoint"})
            return
        try:
            payload = self._read_json()
            request = self.service.build_request(payload)
        except BadRequest as error:
            self.service.metrics.inc("rejected_bad_request")
            self._respond(400, {"error": str(error)})
            return
        try:
            job = self.service.scheduler.submit(request)
        except QueueFull as error:
            self._respond(429, {"error": "job queue is full",
                                "retry_after_s": error.retry_after_s},
                          headers={"Retry-After":
                                   "%d" % max(1, round(
                                       error.retry_after_s))})
            return
        except ServiceUnavailable:
            self._respond(503, {"error": "server is draining"})
            return
        if payload.get("wait"):
            job.done.wait(self._wait_budget(payload))
        self._respond(200 if job.terminal else 202, job.as_dict())

    def _post_batch(self) -> None:
        """``POST /v1/batch``: submit every item through the ordinary
        scheduler admission path — duplicate digests inside the batch
        (or against earlier traffic) coalesce onto one verification —
        and answer a per-item status list in submission order."""
        service = self.service
        try:
            payload = self._read_json()
            items = payload.get("items")
            if not isinstance(items, list) or not items:
                raise BadRequest("'items' (non-empty list) is required")
            if len(items) > service.config.batch_limit:
                raise BadRequest(
                    "too many batch items (%d > %d)"
                    % (len(items), service.config.batch_limit))
        except BadRequest as error:
            service.metrics.inc("rejected_bad_request")
            self._respond(400, {"error": str(error)})
            return
        service.metrics.inc("batch_requests")
        service.metrics.inc("batch_items", len(items))
        entries: List[dict] = []
        jobs: List[Optional[Job]] = []
        seen_ids = set()
        accepted = deduped = rejected = 0
        for item in items:
            try:
                request = service.build_request(item)
            except BadRequest as error:
                service.metrics.inc("rejected_bad_request")
                entries.append({"status": 400, "error": str(error)})
                jobs.append(None)
                rejected += 1
                continue
            try:
                job = service.scheduler.submit(request)
            except QueueFull as error:
                entries.append({"status": 429,
                                "error": "job queue is full",
                                "retry_after_s": error.retry_after_s})
                jobs.append(None)
                rejected += 1
                continue
            except ServiceUnavailable:
                entries.append({"status": 503,
                                "error": "server is draining"})
                jobs.append(None)
                rejected += 1
                continue
            if job.id in seen_ids or job.dedup is not None:
                deduped += 1
            else:
                accepted += 1
            seen_ids.add(job.id)
            entries.append({"status": 0})  # patched below
            jobs.append(job)
        if payload.get("wait"):
            deadline = time.monotonic() + self._wait_budget(payload)
            for job in {job.id: job for job in jobs
                        if job is not None}.values():
                job.done.wait(max(0.0, deadline - time.monotonic()))
        for entry, job in zip(entries, jobs):
            if job is not None:
                entry["status"] = 200 if job.terminal else 202
                entry["job"] = job.as_dict()
        self._respond(200, {
            "items": entries,
            "accepted": accepted,
            "deduped": deduped,
            "rejected": rejected,
        })

    # -- helpers -------------------------------------------------------------

    def _wait_budget(self, payload: dict) -> float:
        return min(self.service.config.max_wait_s,
                   float(payload.get("wait_s")
                         or self.service.config.max_wait_s))

    def _health(self, fleet: bool = False) -> dict:
        scheduler = self.service.scheduler
        doc = {
            "status": "draining" if scheduler.draining else "ok",
            "queue_depth": scheduler.queue_depth,
            "workers": sum(w.is_alive()
                           for w in self.service.pool.workers),
        }
        if self.service.shard_index is not None:
            doc["shard"] = self.service.shard_index
        if not fleet:
            return doc
        shards = self.service.fleet_snapshots("/healthz")
        shards[str(self.service.shard_index)] = dict(doc)
        shard_map = self.service.shard_map or {}
        aggregate = {"status": "ok", "queue_depth": 0, "workers": 0,
                     "shard_count": len(shards), "shards": shards}
        for label, health in shards.items():
            health["control_url"] = shard_map.get(int(label))
            if "status" not in health:  # unreachable: {"error": ...}
                aggregate["status"] = "degraded"
                continue
            if health["status"] == "draining" \
                    and aggregate["status"] == "ok":
                aggregate["status"] = "draining"
            aggregate["queue_depth"] += health["queue_depth"]
            aggregate["workers"] += health["workers"]
        return aggregate

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise BadRequest("a JSON body is required")
        if length > MAX_BODY_BYTES:
            raise BadRequest("body too large")
        blob = self.rfile.read(length)
        try:
            return json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest("malformed JSON body: %s" % error)

    def _respond(self, status: int, payload: dict,
                 headers: Optional[dict] = None) -> None:
        self._respond_bytes(
            status, json.dumps(payload, indent=2).encode("utf-8"),
            "application/json", headers)

    def _respond_text(self, status: int, text: str,
                      content_type: str = "text/plain; charset=utf-8",
                      headers: Optional[dict] = None) -> None:
        self._respond_bytes(status, text.encode("utf-8"), content_type,
                            headers)

    def _respond_bytes(self, status: int, blob: bytes,
                       content_type: str,
                       headers: Optional[dict] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(blob)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to salvage

    def log_message(self, fmt: str, *args) -> None:
        log.debug("http %s " + fmt, self.address_string(), *args)
