"""The replay store: phase 2–5 results reused across runs.

A small SQLite file (``.repro-cache/prover.sqlite`` by convention)
holds the payloads :mod:`repro.analysis.units` replays on warm
re-checks:

* **function units** (``kind='unit'``): phase-5 verdict groups keyed
  on a content digest of (function body, reaching typestate/spec
  context, verdict-affecting options), read and written through
  :meth:`PersistentProverCache.get_unit`/:meth:`~PersistentProverCache.
  put_unit` — one key may carry several rows, one per dependency
  context;
* **program payloads** (``kind='pipeline'``): one row per program
  holding its phase 2–4 artifacts (propagation fixpoint, annotations,
  local verdicts, forward facts), read and written through
  :meth:`~PersistentProverCache.get`/:meth:`~PersistentProverCache.put`
  with an empty ``deps_digest``.

Layout (schema version :data:`SCHEMA_VERSION`)::

    meta(key TEXT PRIMARY KEY, value TEXT)   -- {"schema_version": N}
    units(unit_key TEXT, deps_digest TEXT, function TEXT,
          payload TEXT, created REAL, last_used REAL, kind TEXT,
          PRIMARY KEY (unit_key, deps_digest))

``last_used`` is bumped whenever a row is looked up for replay, and
``gc`` evicts least-recently-used rows first — a row that keeps
pricing warm re-checks survives however old it is.  The bumps are
**write-behind**: lookups record them in an in-memory batch
(:attr:`PersistentProverCache._touched`) that :meth:`flush` applies and
commits, keeping UPDATE statements off the replay hot path.  Every
owner must therefore flush on close — :meth:`close` does — or a row
replayed just before shutdown looks cold to the next ``gc``.

Robustness rules:

* a non-empty file that does not start with the SQLite header is
  **refused** with a :class:`~repro.errors.ReproError` naming the path
  and left untouched — ``--cache`` pointed at the wrong file must
  never destroy it;
* a SQLite file that cannot be opened, or turns out corrupt while in
  use, is **discarded and rebuilt** (counted in ``invalidations``) — a
  corrupt store must never change verdicts, only cost a cold start;
* a file with any other recorded schema version keeps the file but
  drops every row (and the satisfiability table of schema 3 and
  earlier), and a table with any other column layout is dropped and
  recreated;
* concurrent readers/writers (the service's worker threads and shard
  processes sharing one file) are handled with WAL journaling and a
  busy timeout; any other SQLite error on an individual get/put
  degrades to a miss/no-op instead of failing the check;
* writes are batched (:data:`_COMMIT_EVERY`) and flushed explicitly by
  the owner at the end of each check.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

#: Bump when the table layout or a payload recipe changes; an existing
#: file with a different version keeps the file but drops its rows on
#: open.
SCHEMA_VERSION = 4

#: Default location, relative to the working directory.
DEFAULT_CACHE_PATH = os.path.join(".repro-cache", "prover.sqlite")

_COMMIT_EVERY = 64

#: The first 16 bytes of every SQLite 3 database file.
_SQLITE_HEADER = b"SQLite format 3\x00"

#: Expected column names per table, in order; used to detect files
#: whose tables exist but carry an incompatible layout.
_TABLE_COLUMNS = {
    "meta": ("key", "value"),
    "units": ("unit_key", "deps_digest", "function", "payload",
              "created", "last_used", "kind"),
}

_TABLE_DDL = {
    "meta": ("CREATE TABLE IF NOT EXISTS meta ("
             "key TEXT PRIMARY KEY, value TEXT)"),
    "units": ("CREATE TABLE IF NOT EXISTS units ("
              "unit_key TEXT NOT NULL, "
              "deps_digest TEXT NOT NULL, "
              "function TEXT NOT NULL, "
              "payload TEXT NOT NULL, "
              "created REAL NOT NULL, "
              "last_used REAL NOT NULL, "
              "kind TEXT NOT NULL DEFAULT 'unit', "
              "PRIMARY KEY (unit_key, deps_digest))"),
}

#: Rows evicted per gc round; small enough that a gc over a slightly-
#: over-budget store does not wipe it wholesale.
_GC_BATCH = 64


class PersistentProverCache:
    """The replay store shared across runs.

    All lookups and writes are total: a locked database never raises
    out of ``get``/``put``/``get_unit``/``put_unit`` — the store
    silently behaves as empty/read-only instead (``io_errors`` counts
    how often), and a corrupt one is rebuilt.  Only opening a file
    that is not a store raises."""

    def __init__(self, path: str):
        self.path = path
        #: ``get``/``get_unit`` lookups that did / did not find a row.
        self.hits = 0
        self.misses = 0
        #: Times a corrupt file was discarded or a stale version's rows
        #: were dropped.
        self.invalidations = 0
        self.io_errors = 0
        self._pending = 0
        #: Write-behind ``last_used`` bumps: unit_key → timestamp,
        #: applied and committed by :meth:`flush`.  Keeping the UPDATE
        #: off the lookup hot path is what makes a warm full-pipeline
        #: replay digest-computation + SELECT and nothing else.
        self._touched: Dict[str, float] = {}
        self._conn: Optional[sqlite3.Connection] = None
        self._open()

    # -- lifecycle -----------------------------------------------------------

    def _open(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError:
                # Unwritable/occupied location: run without a store.
                self.io_errors += 1
                return
        self._refuse_foreign_file()
        try:
            self._conn = self._connect()
        except sqlite3.Error:
            # A SQLite file that will not open (corrupt): discard it
            # and retry once with a fresh file.
            self._rebuild()

    def _refuse_foreign_file(self) -> None:
        """Raise unless the path is missing, empty, or a SQLite file."""
        try:
            with open(self.path, "rb") as handle:
                head = handle.read(len(_SQLITE_HEADER))
        except OSError:
            return  # missing (created on connect) or unreadable
        if head and head != _SQLITE_HEADER:
            raise ReproError("%s: not a repro cache (no SQLite header); "
                             "refusing to overwrite it" % self.path)

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=5.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            for table, columns in _TABLE_COLUMNS.items():
                info = conn.execute(
                    "PRAGMA table_info(%s)" % table).fetchall()
                if info and tuple(row[1] for row in info) != columns:
                    conn.execute("DROP TABLE %s" % table)
                conn.execute(_TABLE_DDL[table])
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None or row[0] != str(SCHEMA_VERSION):
                if row is not None:
                    # Stale rows from another schema: keep the file only.
                    self.invalidations += 1
                    conn.execute("DELETE FROM units")
                    conn.execute("DROP TABLE IF EXISTS results")
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES "
                    "('schema_version', ?)", (str(SCHEMA_VERSION),))
            conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _rebuild(self) -> None:
        """Replace a corrupt SQLite file with an empty store."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        self.invalidations += 1
        self._pending = 0
        self._touched.clear()
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except OSError:
                pass
        try:
            self._conn = self._connect()
        except sqlite3.Error:
            self.io_errors += 1

    def _failed(self, error: sqlite3.Error) -> None:
        """Account for a failed statement: a corrupt file is rebuilt
        empty, a busy or locked database is only counted."""
        self.io_errors += 1
        # SQLITE_CORRUPT and SQLITE_NOTADB raise the base class itself;
        # busy/locked/I-O errors raise its OperationalError subclass.
        if type(error) is sqlite3.DatabaseError:
            self._rebuild()

    def close(self) -> None:
        if self._conn is not None:
            self.flush()
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    # Context-manager support so owners release the SQLite handle
    # deterministically instead of leaking it until garbage collection.
    def __enter__(self) -> "PersistentProverCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- lookups and writes --------------------------------------------------

    def _select(self, sql: str, key: str) -> List[tuple]:
        """Rows of one lookup, counted as a hit or a miss."""
        if self._conn is None:
            return []
        try:
            rows = self._conn.execute(sql, (key,)).fetchall()
        except sqlite3.Error as error:
            self._failed(error)
            return []
        if not rows:
            self.misses += 1
            return []
        self.hits += 1
        # Replay lookups are what make a row *hot*; gc evicts in
        # last_used order so bumped rows survive.  The bump is
        # write-behind: recorded here, applied by flush().
        self._touched[key] = time.time()
        if len(self._touched) >= _COMMIT_EVERY:
            self.flush()
        return rows

    def _insert(self, unit_key: str, deps_digest: str, function: str,
                payload: Dict[str, Any], kind: str) -> None:
        if self._conn is None:
            return
        try:
            text = json.dumps(payload, sort_keys=True,
                              separators=(",", ":"))
        except (ValueError, TypeError):
            return
        now = time.time()
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO units VALUES "
                "(?, ?, ?, ?, ?, ?, ?)",
                (unit_key, deps_digest, function, text, now, now, kind))
        except sqlite3.Error as error:
            self._failed(error)
            return
        self._pending += 1
        if self._pending >= _COMMIT_EVERY:
            self.flush()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The program payload stored under ``key``, or None."""
        rows = self._select("SELECT payload FROM units WHERE unit_key=? "
                            "AND deps_digest=''", key)
        payloads = _decode(rows)
        return payloads[0] if payloads else None

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store (or replace) the program payload under ``key``."""
        self._insert(key, "", "", payload, "pipeline")

    def get_unit(self, unit_key: str) -> List[Dict[str, Any]]:
        """All stored payloads for ``unit_key`` (any deps context).

        A key can legitimately carry several rows — the same function
        body proved under different dependency contexts — so callers
        receive every candidate and validate its recorded dependencies
        against the current program.  Undecodable rows are skipped."""
        return _decode(self._select(
            "SELECT payload FROM units WHERE unit_key=? "
            "ORDER BY created DESC", unit_key))

    def put_unit(self, unit_key: str, deps_digest: str,
                 function: str, payload: Dict[str, Any]) -> None:
        self._insert(unit_key, deps_digest, function, payload, "unit")

    def flush(self) -> None:
        """Apply the write-behind ``last_used`` batch and commit every
        pending write.  Called by owners at the end of each check and
        on close."""
        if self._conn is None or not (self._pending or self._touched):
            return
        if self._touched:
            try:
                self._conn.executemany(
                    "UPDATE units SET last_used=? WHERE unit_key=?",
                    [(stamp, key)
                     for key, stamp in self._touched.items()])
            except sqlite3.Error:
                self.io_errors += 1
            self._touched.clear()
        try:
            self._conn.commit()
        except sqlite3.Error:
            self.io_errors += 1
        self._pending = 0

    # -- maintenance (``repro cache``) ---------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Inspection snapshot for ``repro cache stats``."""
        info: Dict[str, Any] = {
            "path": self.path,
            "exists": os.path.exists(self.path),
            "schema_version": SCHEMA_VERSION,
            "size_bytes": 0,
            "units": 0,
            "units_by_kind": {},
        }
        if self._conn is None:
            return info
        try:
            self.flush()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            info["units_by_kind"] = dict(self._conn.execute(
                "SELECT kind, COUNT(*) FROM units "
                "GROUP BY kind ORDER BY kind").fetchall())
            info["units"] = sum(info["units_by_kind"].values())
        except sqlite3.Error:
            self.io_errors += 1
        info["size_bytes"] = self._size()
        return info

    def clear(self) -> None:
        """Drop every stored row, keeping the file and layout."""
        if self._conn is None:
            return
        try:
            self._conn.execute("DELETE FROM units")
            self._conn.commit()
            self._conn.execute("VACUUM")
        except sqlite3.Error:
            self.io_errors += 1
        self._pending = 0
        self._touched.clear()

    def gc(self, max_mb: float) -> Dict[str, Any]:
        """Shrink the file to at most ``max_mb`` megabytes.

        Evicts the least-recently-*used* rows first (``last_used`` is
        bumped on every replay lookup, so rows that keep pricing warm
        re-checks survive) and vacuums.  Returns a summary of what was
        dropped."""
        summary = {"deleted_units": 0, "size_bytes": 0}
        if self._conn is None:
            return summary
        budget = int(max_mb * 1024 * 1024)
        try:
            self.flush()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            while self._size() > budget:
                rows = self._conn.execute(
                    "SELECT unit_key, deps_digest FROM units "
                    "ORDER BY last_used ASC, created ASC LIMIT ?",
                    (_GC_BATCH,)).fetchall()
                if not rows:
                    break
                self._conn.executemany(
                    "DELETE FROM units WHERE unit_key=? AND "
                    "deps_digest=?", rows)
                summary["deleted_units"] += len(rows)
                self._conn.commit()
                self._conn.execute("VACUUM")
                # Under WAL the vacuumed image lives in the -wal file
                # until a checkpoint; without one the main file never
                # shrinks and the loop overshoots to empty.
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            self.io_errors += 1
        summary["size_bytes"] = self._size()
        return summary

    def _size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0


def _decode(rows: List[tuple]) -> List[Dict[str, Any]]:
    """The JSON-object payloads among ``rows``; others are skipped."""
    payloads = []
    for (text,) in rows:
        try:
            payload = json.loads(text)
        except (ValueError, TypeError):
            continue
        if isinstance(payload, dict):
            payloads.append(payload)
    return payloads
