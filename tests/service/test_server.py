"""End-to-end HTTP tests of the check service: a real
ThreadingHTTPServer on an ephemeral port, exercised through the
``repro.service.client`` helpers and the ``repro submit`` CLI."""

import http.server
import json
import socket
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.programs.sum_array import SOURCE, SPEC
from repro.service.client import (
    ServiceError, build_payload, fetch_json, submit,
)
from repro.service.server import (
    CheckServer, ServeConfig, _AdoptedHTTPServer,
)


@pytest.fixture(scope="module")
def server():
    server = CheckServer(ServeConfig(port=0, workers=2))
    server.start_background()
    yield server
    server.close()


@pytest.fixture(scope="module")
def url(server):
    return server.url


BUGGY = SOURCE.replace("bl 6", "ble 6")


class TestEndpoints:
    def test_healthz(self, url):
        health = fetch_json(url, "/healthz")
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_unknown_endpoint_404(self, url):
        with pytest.raises(ServiceError) as exc:
            fetch_json(url, "/nope")
        assert exc.value.status == 404

    def test_unknown_job_404(self, url):
        with pytest.raises(ServiceError) as exc:
            fetch_json(url, "/v1/jobs/never-existed")
        assert exc.value.status == 404

    def test_metrics_schema(self, url):
        metrics = fetch_json(url, "/metrics")
        assert "queue_depth" in metrics
        assert "counters" in metrics
        assert "dedup_hits" in metrics
        assert metrics["draining"] is False


class TestSubmission:
    def test_certified_verdict(self, url):
        job = submit(url, build_payload(SOURCE, SPEC, name="sum.s"))
        assert job["state"] == "completed"
        assert job["result"]["verdict"] == "certified"
        assert job["result"]["arch"] == "sparc"
        assert job["program_digest"] and job["spec_digest"]

    def test_rejected_verdict_with_violations(self, url):
        job = submit(url, build_payload(BUGGY, SPEC, name="buggy.s"))
        assert job["result"]["verdict"] == "rejected"
        assert job["result"]["violations"]

    def test_async_submit_then_poll(self, url):
        payload = build_payload(SOURCE, SPEC, name="sum-async.s",
                                wait=False)
        # Unique options so this cannot dedup onto earlier jobs.
        payload["options"] = {"timeout_s": 123.0}
        job = submit(url, payload)  # submit() polls to terminal
        assert job["state"] == "completed"
        assert job["result"]["verdict"] == "certified"

    def test_dedup_on_resubmission(self, url):
        payload = build_payload(SOURCE, SPEC, name="sum.s")
        submit(url, payload)
        before = fetch_json(url, "/metrics")["dedup_hits"]
        job = submit(url, payload)
        assert job["dedup"] == "verdict-cache"
        after = fetch_json(url, "/metrics")["dedup_hits"]
        assert after == before + 1

    def test_bad_spec_fails_job_not_server(self, url):
        job = submit(url, build_payload(SOURCE, "frobnicate",
                                        name="bad.s"))
        assert job["state"] == "failed"
        assert "error" in job
        # The server stays healthy for the next job.
        ok = submit(url, build_payload(SOURCE, SPEC, name="sum.s"))
        assert ok["result"]["verdict"] == "certified"

    def test_timeout_verdict_and_server_stays_healthy(self, url):
        tiny = build_payload(SOURCE, SPEC, name="sum.s",
                             timeout_s=1e-9)
        job = submit(url, tiny)
        assert job["result"]["verdict"] == "undecided:timeout"
        assert job["result"]["timed_out"] is True
        ok = submit(url, build_payload(BUGGY, SPEC, name="buggy.s"))
        assert ok["result"]["verdict"] == "rejected"


class TestValidation:
    def assert_400(self, url, payload):
        with pytest.raises(ServiceError) as exc:
            submit(url, payload)
        assert exc.value.status == 400
        return exc.value

    def test_missing_spec(self, url):
        self.assert_400(url, {"code": SOURCE})

    def test_missing_code(self, url):
        self.assert_400(url, {"spec": SPEC})

    def test_unknown_arch(self, url):
        error = self.assert_400(url, {"code": SOURCE, "spec": SPEC,
                                      "arch": "m68k"})
        assert "arch" in str(error)

    def test_bad_base64(self, url):
        self.assert_400(url, {"spec": SPEC, "binary": True,
                              "code_b64": "!!not-base64!!"})

    def test_unsupported_option(self, url):
        self.assert_400(url, {"code": SOURCE, "spec": SPEC,
                              "options": {"cache_path": "/etc/pwn"}})

    def test_negative_timeout(self, url):
        self.assert_400(url, {"code": SOURCE, "spec": SPEC,
                              "options": {"timeout_s": -1}})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_timeout(self, url, value):
        # Python's json writes and reads NaN/Infinity literals.
        error = self.assert_400(url, {"code": SOURCE, "spec": SPEC,
                                      "options": {"timeout_s": value}})
        assert "timeout_s" in str(error)

    def test_jobs_option_is_unsupported(self, url):
        error = self.assert_400(url, {"code": SOURCE, "spec": SPEC,
                                      "options": {"jobs": 2}})
        assert "unsupported options: jobs" in str(error)


class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self):
        server = CheckServer(ServeConfig(port=0, workers=1,
                                         queue_limit=0))
        # Workers never started: the queue can only reject.
        server.httpd.daemon_threads = True
        import threading
        threading.Thread(target=server.httpd.serve_forever,
                         kwargs={"poll_interval": 0.1},
                         daemon=True).start()
        try:
            with pytest.raises(ServiceError) as exc:
                submit(server.url,
                       build_payload(SOURCE, SPEC, wait=False))
            assert exc.value.status == 429
            assert exc.value.retry_after_s >= 1
            metrics = fetch_json(server.url, "/metrics")
            assert metrics["counters"]["rejected_queue_full"] == 1
        finally:
            server.httpd.shutdown()
            server.httpd.server_close()


class TestDrain:
    def test_drain_finishes_accepted_work_then_stops(self):
        server = CheckServer(ServeConfig(port=0, workers=1))
        server.start_background()
        url = server.url
        job = submit(url, build_payload(SOURCE, SPEC, name="sum.s"))
        assert job["result"]["verdict"] == "certified"
        server.begin_drain()
        server._drain_thread.join(30)
        server.wait_closed(10)
        # Workers exited and the listener is down.
        assert all(not w.is_alive() for w in server.pool.workers)
        with pytest.raises(ServiceError):
            fetch_json(url, "/healthz", timeout_s=2)


class TestSubmitCli:
    def test_submit_safe_exits_zero(self, url, tmp_path, capsys):
        code = tmp_path / "sum.s"
        code.write_text(SOURCE)
        spec = tmp_path / "sum.policy"
        spec.write_text(SPEC)
        rc = main(["submit", str(code), str(spec), "--server", url])
        assert rc == 0
        assert "SAFE" in capsys.readouterr().out

    def test_submit_unsafe_exits_one(self, url, tmp_path, capsys):
        code = tmp_path / "buggy.s"
        code.write_text(BUGGY)
        spec = tmp_path / "sum.policy"
        spec.write_text(SPEC)
        rc = main(["submit", str(code), str(spec), "--server", url])
        assert rc == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_submit_timeout_exits_three(self, url, tmp_path, capsys):
        code = tmp_path / "sum.s"
        code.write_text(SOURCE)
        spec = tmp_path / "sum.policy"
        spec.write_text(SPEC)
        rc = main(["submit", str(code), str(spec), "--server", url,
                   "--timeout", "0.000000001"])
        assert rc == 3
        assert "UNDECIDED" in capsys.readouterr().out

    def test_submit_bad_spec_exits_two(self, url, tmp_path, capsys):
        code = tmp_path / "sum.s"
        code.write_text(SOURCE)
        spec = tmp_path / "bad.policy"
        spec.write_text("frobnicate")
        rc = main(["submit", str(code), str(spec), "--server", url])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_two(self, tmp_path,
                                                 capsys):
        code = tmp_path / "sum.s"
        code.write_text(SOURCE)
        spec = tmp_path / "sum.policy"
        spec.write_text(SPEC)
        rc = main(["submit", str(code), str(spec), "--server",
                   "http://127.0.0.1:1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class _Hello(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        body = b"hello"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _Racing(_AdoptedHTTPServer):
    """Holds each server that select() woke until the other one has
    woken too, so both always try to accept the one connection."""

    def __init__(self, sock, handler, barrier):
        super().__init__(sock, handler)
        self.barrier = barrier

    def _handle_request_noblock(self):
        try:
            self.barrier.wait(timeout=5)
        except threading.BrokenBarrierError:
            pass
        super()._handle_request_noblock()


class TestSharedListenSocket:
    def test_shutdown_returns_after_a_lost_accept_race(self):
        """Two servers on one listening socket (the shard layout): one
        connection wakes both, one loses the accept() race, and
        shutdown() must still return on both."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(16)
        barrier = threading.Barrier(2)
        servers = [_Racing(listener, _Hello, barrier) for _ in range(2)]
        for httpd in servers:
            httpd.daemon_threads = True
            threading.Thread(target=httpd.serve_forever,
                             kwargs={"poll_interval": 0.05},
                             daemon=True).start()
        host, port = listener.getsockname()[:2]
        with urllib.request.urlopen(
                "http://%s:%d/" % (host, port), timeout=10) as response:
            assert response.read() == b"hello"
        stoppers = [threading.Thread(target=httpd.shutdown, daemon=True)
                    for httpd in servers]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join(timeout=10)
        hung = [stopper for stopper in stoppers if stopper.is_alive()]
        if hung:
            # Free the blocked accept() so the thread can exit.
            socket.create_connection((host, port), timeout=5).close()
        listener.close()
        assert not hung, "a server blocked in accept() after the race"

    def test_accepted_connections_are_blocking(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        httpd = _AdoptedHTTPServer(listener, _Hello)
        try:
            assert listener.getblocking() is False
            client = socket.create_connection(
                listener.getsockname()[:2], timeout=5)
            try:
                conn = None
                for _ in range(200):
                    try:
                        conn, _ = httpd.get_request()
                        break
                    except BlockingIOError:
                        threading.Event().wait(0.01)
                assert conn is not None
                assert conn.getblocking() is True
                conn.close()
            finally:
                client.close()
        finally:
            listener.close()
