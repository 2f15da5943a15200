"""Client for the check service (``repro submit``), stdlib-only.

Wraps the HTTP/JSON API in a handful of calls: :func:`submit` posts one
check request (waiting server-side for the verdict when asked),
:func:`submit_batch` posts many in one round trip, :func:`job_status`
polls a job, and :func:`fetch_json` reads any GET endpoint
(``/healthz``, ``/metrics``).  HTTP-level backpressure (429 +
``Retry-After``) is retried with bounded exponential backoff + jitter
(see :func:`submit`'s *retries*); other server errors surface as
:class:`ServiceError` with the status attached, so the CLI can map
them onto its documented exit codes.
"""

from __future__ import annotations

import base64
import json
import random
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError

#: Where ``repro serve`` listens by default.
DEFAULT_SERVER = "http://127.0.0.1:8642"


class ServiceError(ReproError):
    """An HTTP-level failure talking to the check service."""

    def __init__(self, message: str, status: int = 0,
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


def _request(url: str, payload: Optional[Dict] = None,
             timeout_s: float = 330.0) -> Dict:
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        try:
            body = json.loads(error.read().decode("utf-8"))
        except Exception:
            body = {}
        retry_after = None
        if error.headers.get("Retry-After"):
            try:
                retry_after = float(error.headers["Retry-After"])
            except ValueError:
                pass
        raise ServiceError(
            body.get("error", "HTTP %d from %s" % (error.code, url)),
            status=error.code, retry_after_s=retry_after)
    except urllib.error.URLError as error:
        raise ServiceError("cannot reach %s: %s" % (url, error.reason))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ServiceError("malformed response from %s: %s"
                           % (url, error))


def fetch_json(server: str, path: str, timeout_s: float = 10.0) -> Dict:
    """GET a JSON endpoint (``/healthz``, ``/metrics``, job URLs)."""
    return _request(server.rstrip("/") + path, timeout_s=timeout_s)


def job_status(server: str, job_id: str,
               timeout_s: float = 10.0) -> Dict:
    return fetch_json(server, "/v1/jobs/" + job_id,
                      timeout_s=timeout_s)


def build_payload(code, spec: str, arch: str = "sparc",
                  binary: bool = False, name: str = "request",
                  timeout_s: Optional[float] = None,
                  wait: bool = True) -> Dict:
    """The ``POST /v1/check`` body for one program."""
    payload: Dict = {"spec": spec, "arch": arch, "name": name,
                     "wait": wait}
    if binary:
        blob = code if isinstance(code, bytes) else code.encode("utf-8")
        payload["binary"] = True
        payload["code_b64"] = base64.b64encode(blob).decode("ascii")
    else:
        payload["code"] = code if isinstance(code, str) \
            else code.decode("utf-8")
    if timeout_s is not None:
        payload["options"] = {"timeout_s": timeout_s}
    return payload


#: Backoff bounds for 429 retries.  The schedule is
#: ``min(cap, max(server hint, base * 2**attempt)) * jitter`` with
#: jitter uniform in [0.5, 1.0] (full-jitter halves the thundering
#: herd when many clients were rejected together).
RETRY_BASE_S = 0.25
RETRY_CAP_S = 30.0


def backoff_delay(attempt: int,
                  retry_after_s: Optional[float] = None,
                  rng: Optional[random.Random] = None) -> float:
    """Delay before retry *attempt* (0-based), honoring the server's
    ``Retry-After`` hint as a floor under the exponential curve."""
    delay = min(RETRY_CAP_S, RETRY_BASE_S * (2.0 ** attempt))
    if retry_after_s is not None:
        delay = min(RETRY_CAP_S, max(delay, retry_after_s))
    jitter = (rng or random).uniform(0.5, 1.0)
    return delay * jitter


def _post_with_retries(url: str, payload: Dict, timeout_s: float,
                       deadline: float, retries: int,
                       sleep: Callable[[float], None]) -> Dict:
    """POST, retrying 429 responses up to *retries* times with
    exponential backoff + jitter, never past *deadline*."""
    attempt = 0
    while True:
        try:
            return _request(url, payload, timeout_s=timeout_s)
        except ServiceError as error:
            if error.status != 429 or attempt >= retries:
                raise
            delay = backoff_delay(attempt, error.retry_after_s)
            if time.monotonic() + delay > deadline:
                raise ServiceError(
                    "gave up after %d backpressure retries: %s"
                    % (attempt, error), status=429,
                    retry_after_s=error.retry_after_s)
            sleep(delay)
            attempt += 1


def submit(server: str, payload: Dict, poll_interval_s: float = 0.25,
           total_timeout_s: float = 600.0, retries: int = 0,
           sleep: Callable[[float], None] = time.sleep) -> Dict:
    """Submit one request and return the *terminal* job envelope.

    Uses server-side wait when the payload asks for it, then falls back
    to polling ``GET /v1/jobs/<id>`` until the job is terminal or
    *total_timeout_s* passes.  A 429 (queue full) is retried up to
    *retries* times with exponential backoff + jitter, honoring the
    server's ``Retry-After`` hint; *sleep* is injectable for tests."""
    deadline = time.monotonic() + total_timeout_s
    job = _post_with_retries(server.rstrip("/") + "/v1/check", payload,
                             total_timeout_s, deadline, retries, sleep)
    while job.get("state") not in ("completed", "failed"):
        if time.monotonic() > deadline:
            raise ServiceError("job %s still %s after %.0fs"
                               % (job.get("id"), job.get("state"),
                                  total_timeout_s))
        sleep(poll_interval_s)
        job = job_status(server, job["id"])
    return job


def submit_batch(server: str, items: List[Dict], wait: bool = True,
                 wait_s: Optional[float] = None,
                 total_timeout_s: float = 600.0, retries: int = 0,
                 sleep: Callable[[float], None] = time.sleep) -> Dict:
    """POST a list of check bodies to ``/v1/batch`` and return the
    batch response (``items`` / ``accepted`` / ``deduped`` /
    ``rejected``).  Retries only whole-request failures; per-item 429s
    are reported in the per-item statuses, not raised."""
    payload: Dict = {"items": items, "wait": wait}
    if wait_s is not None:
        payload["wait_s"] = wait_s
    deadline = time.monotonic() + total_timeout_s
    return _post_with_retries(server.rstrip("/") + "/v1/batch",
                              payload, total_timeout_s, deadline,
                              retries, sleep)
