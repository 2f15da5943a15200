"""Pre-forked multi-process sharding of the check service.

The checker is pure-Python CPU work, so one process — however many
worker *threads* it runs — saturates a single core.  This module
scales the service across cores the classic pre-fork way:

* the **parent** binds the listening socket once (ephemeral ports
  resolve here), forks ``shards`` child processes, and then only
  supervises — it never accepts a connection;
* each **shard** adopts the inherited socket; the kernel load-balances
  ``accept()`` across the shard processes through the one shared
  accept queue (no SO_REUSEPORT bind races, no dispatcher hop).  Every
  shard owns a full warm :class:`~repro.service.server.CheckServer`
  stack — scheduler, bounded queue, LRU verdict cache, worker threads
  with warm provers, and its jobs' own connections to the shared
  SQLite replay store (WAL journaling makes the file safe to share
  across processes);
* each shard also opens a private **control listener** on the loopback
  serving the same API; after the fork the parent collects the control
  ports over pipes and hands the full shard map back to every child.
  ``GET /metrics`` / ``GET /healthz`` on the public port then
  aggregate across shards by fanning out to the control listeners
  (``?scope=local`` for one shard), and ``GET /v1/jobs/<id>`` routes
  to the owning shard via the ``s<shard>-`` job-id prefix.

Dedup semantics across the fleet: request coalescing and the LRU
verdict cache are per shard (duplicate submissions that land on
different shards run twice at most), while the replay store is
shared through SQLite — a program checked by any shard replays on
every shard.

Shutdown: SIGTERM/SIGINT to the parent forwards SIGTERM to every
shard; each shard runs the ordinary graceful drain (stop admission,
finish accepted jobs, flush caches) and exits 0; the parent reaps them
all and exits 0.  A shard that dies *unexpectedly* makes the parent
terminate the rest and exit 1 — fail-stop, so a supervisor restarts
the whole fleet rather than limping with a partial accept queue.

Requires ``os.fork`` (POSIX).  ``repro serve`` falls back to the
single-process server elsewhere.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import sys
from typing import Dict, List, Optional, Tuple

from repro.service.server import CheckServer, ServeConfig

log = logging.getLogger("repro.service")


def fork_supported() -> bool:
    return hasattr(os, "fork")


def resolve_shards(requested: int) -> int:
    """``repro serve --shards`` semantics: 0 = one per CPU core."""
    if requested <= 0:
        return max(1, os.cpu_count() or 1)
    return requested


def _read_line(fd: int) -> bytes:
    """Read up to a newline from a pipe fd (EOF-tolerant)."""
    chunks = []
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        chunks.append(chunk)
        if chunk.endswith(b"\n"):
            break
    return b"".join(chunks)


def _shard_main(index: int, listen_socket: socket.socket,
                config: ServeConfig, up_fd: int, down_fd: int) -> None:
    """Body of one forked shard process.  Never returns."""
    code = 1
    try:
        # The parent's signal handlers are not ours; reset before the
        # drain handler goes in so an early SIGTERM cannot re-enter the
        # parent's forwarding logic from inside a child.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        server = CheckServer(config, listen_socket=listen_socket,
                             shard_index=index)
        server.start_control()
        os.write(up_fd, (json.dumps(
            {"index": index, "control": server.control_url})
            + "\n").encode("utf-8"))
        os.close(up_fd)
        shard_map = json.loads(_read_line(down_fd).decode("utf-8"))
        os.close(down_fd)
        server.set_shard_map({int(key): value
                              for key, value in shard_map.items()})

        def _drain(signum, frame):
            server.begin_drain()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        log.info("shard %d serving on %s (control %s, pid %d)",
                 index, server.url, server.control_url, os.getpid())
        server.serve_forever()  # returns once drained
        code = 0
    except Exception:  # pragma: no cover - crash path
        import traceback
        traceback.print_exc()
    finally:
        # _exit: never unwind into the parent's stack (atexit handlers,
        # pytest internals, ...) from a forked child.
        os._exit(code)


class ShardedServer:
    """Parent-side handle on a pre-forked shard fleet."""

    def __init__(self, config: ServeConfig):
        if not fork_supported():
            raise RuntimeError("sharded serving requires os.fork")
        self.config = config
        self.shards = resolve_shards(config.shards)
        self.children: List[int] = []
        self.shard_map: Dict[int, str] = {}
        self.address: Optional[Tuple[str, int]] = None
        self._draining = False

    @property
    def url(self) -> str:
        host, port = self.address
        return "http://%s:%d" % (host, port)

    # -- startup -------------------------------------------------------------

    def start(self) -> None:
        """Bind, fork every shard, and complete the control-port
        handshake.  On return the fleet is accepting connections."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.config.host, self.config.port))
        sock.listen(128)
        self.address = sock.getsockname()[:2]
        handshakes: List[Tuple[int, int, int]] = []
        parent_fds: List[int] = []
        for index in range(self.shards):
            up_read, up_write = os.pipe()
            down_read, down_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(up_read)
                os.close(down_write)
                for fd in parent_fds:  # earlier children's pipe ends
                    os.close(fd)
                _shard_main(index, sock, self.config, up_write,
                            down_read)
                raise AssertionError("unreachable")  # pragma: no cover
            os.close(up_write)
            os.close(down_read)
            self.children.append(pid)
            handshakes.append((index, up_read, down_write))
            parent_fds.extend((up_read, down_write))
        # The children keep their inherited copies; nothing accepts on
        # the parent's fd, so close it to keep the ownership story
        # clean (the shared accept queue lives on in the children).
        sock.close()
        for index, up_read, _ in handshakes:
            line = _read_line(up_read)
            os.close(up_read)
            if not line:
                self.shutdown()
                raise RuntimeError("shard %d died before the control "
                                   "handshake" % index)
            info = json.loads(line.decode("utf-8"))
            self.shard_map[info["index"]] = info["control"]
        blob = (json.dumps(self.shard_map) + "\n").encode("utf-8")
        for _, _, down_write in handshakes:
            os.write(down_write, blob)
            os.close(down_write)
        log.info("sharded service on %s: %d shards (pids %s)",
                 self.url, self.shards,
                 ", ".join(str(pid) for pid in self.children))

    # -- supervision ---------------------------------------------------------

    def shutdown(self, signum: int = signal.SIGTERM) -> None:
        """Forward a drain signal to every live shard (idempotent)."""
        self._draining = True
        for pid in self.children:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def wait(self) -> int:
        """Reap every shard; 0 when all drained cleanly.  A shard dying
        outside a drain fail-stops the fleet (exit 1)."""
        failures = 0
        remaining = set(self.children)
        while remaining:
            try:
                pid, status = os.wait()
            except InterruptedError:
                continue
            except ChildProcessError:
                break
            if pid not in remaining:
                continue
            remaining.discard(pid)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                failures += 1
            if not self._draining and (code != 0 or remaining):
                # Unexpected exit: a partial fleet still owns the
                # accept queue but with less capacity and a stale
                # shard map.  Fail-stop and let a supervisor restart.
                if code == 0:
                    failures += 1
                log.error("shard pid %d exited %d outside a drain; "
                          "stopping the fleet", pid, code)
                self.shutdown()
        return 1 if failures else 0


def serve_sharded(config: ServeConfig,
                  announce=None) -> int:
    """``repro serve --shards N`` entry: start the fleet, wire
    SIGTERM/SIGINT to a graceful fleet drain, supervise until every
    shard exits.  *announce* (url → None) runs once the socket is
    bound, before the handshake completes."""
    server = ShardedServer(config)
    # Install the forwarding handlers before forking so a SIGTERM in
    # the startup window still reaches every child already forked
    # (children re-install their own drain handlers immediately).
    def _forward(signum, frame):
        server.shutdown()

    previous_term = signal.signal(signal.SIGTERM, _forward)
    previous_int = signal.signal(signal.SIGINT, _forward)
    try:
        server.start()
        if announce is not None:
            announce(server.url)
        return server.wait()
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)


__all__ = ["ShardedServer", "serve_sharded", "fork_supported",
           "resolve_shards"]
