"""Persistent cross-run prover cache.

Satisfiability of a Presburger formula depends only on the formula, so
prover verdicts can be reused across programs, across runs, and across
the check service's worker threads and shard processes.  This module stores them in a small SQLite file
(``.repro-cache/prover.sqlite`` by convention) keyed on the
process-stable canonical digest (:func:`repro.logic.serialize.
formula_digest`).

The same file also stores *function units*: per-function verdict
summaries keyed on a content digest of (function body, reaching
typestate/spec context, verdict-affecting options), produced by
:mod:`repro.analysis.units` and replayed on warm incremental runs.
Since schema v3 the ``units`` table carries a ``kind`` column
distinguishing the phase-5 verdict rows (``'unit'``) from the phase
2–4 pipeline payload rows (``'pipeline'`` — propagation fixpoint,
annotations, local verdicts, forward facts).

Layout (schema version :data:`SCHEMA_VERSION`)::

    meta(key TEXT PRIMARY KEY, value TEXT)   -- {"schema_version": N}
    results(digest TEXT PRIMARY KEY, satisfiable INTEGER)
    units(unit_key TEXT, deps_digest TEXT, function TEXT,
          payload TEXT, created REAL, last_used REAL, kind TEXT,
          PRIMARY KEY (unit_key, deps_digest))

``last_used`` is bumped whenever a unit is looked up for replay, and
``gc`` evicts least-recently-used units first — a unit that keeps
pricing warm re-checks survives however old its proof is.  The bumps
are **write-behind**: lookups record them in an in-memory batch
(:attr:`PersistentProverCache._touched`) that :meth:`flush` applies and
commits, keeping UPDATE statements off the replay hot path.  Every
owner must therefore flush on close/drain — :meth:`close` does — or a
unit replayed just before shutdown looks cold to the next ``gc``.

Robustness rules:

* a file that is not a SQLite database is **discarded and rebuilt**
  (counted in ``invalidations``) — a corrupt cache must never change
  verdicts, only cost a cold start;
* a file recorded as schema v2 is migrated **in place with its rows
  kept** (counted in ``migrations``): v3 only added the ``kind``
  column, and the v2 digest recipes are unchanged, so stored proofs
  stay valid;
* a file with any *other* recorded schema version keeps the file but
  drops all rows: older processes wrote valid SQLite, only the row
  contents are stale;
* a ``units`` table from before the ``last_used`` or ``kind`` columns
  is migrated in place — ``ALTER TABLE ADD COLUMN`` with seeded
  defaults — so stored proofs survive the upgrade (counted in
  ``migrations``);
* any *other* wrong column layout (e.g. a half-written upgrade) is
  dropped and recreated individually without touching the other
  tables;
* concurrent readers/writers (the service's worker threads and shard
  processes sharing one file) are handled with WAL journaling and a busy timeout; any SQLite error on
  an individual get/put degrades to a miss/no-op instead of failing
  the check;
* writes are batched (:data:`_COMMIT_EVERY`) and flushed explicitly by
  the owner at the end of a run or service job.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the digest definition or the table layout changes; an
#: existing file with a different version keeps the file but drops the
#: stale rows on open — except v2, whose rows survive the v3 upgrade
#: (v2 added the ``units`` function-verdict table; v3 added its
#: ``kind`` column for the phase 2–4 pipeline payloads).
SCHEMA_VERSION = 3

#: Default location, relative to the working directory.
DEFAULT_CACHE_PATH = os.path.join(".repro-cache", "prover.sqlite")

_COMMIT_EVERY = 64

#: Expected column names per table, in order; used to detect files
#: whose tables exist but carry an incompatible layout.
_TABLE_COLUMNS = {
    "meta": ("key", "value"),
    "results": ("digest", "satisfiable"),
    "units": ("unit_key", "deps_digest", "function", "payload",
              "created", "last_used", "kind"),
}

#: The pre-``last_used`` layout of ``units``; recognized by
#: :meth:`PersistentProverCache._ensure_layout` and upgraded in place
#: instead of dropped.
_UNITS_LEGACY_COLUMNS = ("unit_key", "deps_digest", "function",
                         "payload", "created")

#: The v2 layout (``last_used`` but no ``kind``); likewise upgraded in
#: place.
_UNITS_V2_COLUMNS = ("unit_key", "deps_digest", "function",
                     "payload", "created", "last_used")

_TABLE_DDL = {
    "meta": ("CREATE TABLE IF NOT EXISTS meta ("
             "key TEXT PRIMARY KEY, value TEXT)"),
    "results": ("CREATE TABLE IF NOT EXISTS results ("
                "digest TEXT PRIMARY KEY, "
                "satisfiable INTEGER NOT NULL)"),
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

#: Units evicted per gc round; small enough that a gc over a slightly-
#: over-budget cache does not wipe it wholesale.
_GC_BATCH = 64


class PersistentProverCache:
    """Append-mostly digest → satisfiability store shared across runs.

    All methods are total: a broken underlying file or a locked
    database never raises out of ``get``/``put`` — the cache silently
    behaves as empty/read-only instead (``io_errors`` counts how
    often)."""

    def __init__(self, path: str,
                 schema_version: Optional[int] = None):
        self.path = path
        # Resolved at call time so a digest-definition change (a bump
        # of the module-level SCHEMA_VERSION) reaches every opener.
        self.schema_version = (SCHEMA_VERSION if schema_version is None
                               else schema_version)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Times a corrupt file was discarded or a stale version's rows
        #: were dropped.
        self.invalidations = 0
        #: Times a pre-``last_used`` units table was upgraded in place.
        self.migrations = 0
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
                # Unwritable/occupied location: run without a cache.
                self._conn = None
                self.io_errors += 1
                return
        try:
            self._conn = self._connect()
        except sqlite3.Error:
            # Not a database (corrupt/garbage file): discard and retry
            # once with a fresh file.
            self._discard_file()
            try:
                self._conn = self._connect()
            except sqlite3.Error:
                self._conn = None
                self.io_errors += 1

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=5.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            layout_migrated = self._ensure_layout(conn)
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES "
                    "('schema_version', ?)", (str(self.schema_version),))
                conn.commit()
            elif row[0] != str(self.schema_version):
                if row[0] == "2" and self.schema_version == 3:
                    # v2 → v3 is additive (the ``kind`` column, already
                    # added by the layout pass) and the v2 digest
                    # recipes are unchanged: keep every row.  One open
                    # counts one migration, even when the layout pass
                    # already tagged the column.
                    if not layout_migrated:
                        self.migrations += 1
                else:
                    # Any other version bump: drop the stale rows, keep
                    # the file.
                    self.invalidations += 1
                    conn.execute("DELETE FROM results")
                    conn.execute("DELETE FROM units")
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES "
                    "('schema_version', ?)", (str(self.schema_version),))
                conn.commit()
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    def _ensure_layout(self, conn: sqlite3.Connection) -> bool:
        """Create missing tables; drop and recreate incompatible ones.
        Returns True when a legacy ``units`` layout was migrated.

        A v1 file simply lacks the ``units`` table — its ``results``
        rows survive the layout pass untouched (the version check above
        then decides whether they are still trustworthy).  A ``units``
        table from before the ``last_used`` or ``kind`` columns is
        migrated in place rather than dropped: stored proofs are
        expensive, the new columns are not."""
        migrated = False
        for table, columns in _TABLE_COLUMNS.items():
            info = conn.execute(
                "PRAGMA table_info(%s)" % table).fetchall()
            present = tuple(row[1] for row in info)
            if table == "units" and present == _UNITS_LEGACY_COLUMNS:
                # Seed recency from creation time: gc ordering is then
                # identical to the old oldest-created-first until real
                # usage data accumulates.
                conn.execute("ALTER TABLE units ADD COLUMN "
                             "last_used REAL NOT NULL DEFAULT 0")
                conn.execute("UPDATE units SET last_used = created")
                conn.execute("ALTER TABLE units ADD COLUMN "
                             "kind TEXT NOT NULL DEFAULT 'unit'")
                self.migrations += 1
                migrated = True
                continue
            if table == "units" and present == _UNITS_V2_COLUMNS:
                # Pre-``kind`` rows are all phase-5 verdict units (the
                # only payload kind that existed before v3).
                conn.execute("ALTER TABLE units ADD COLUMN "
                             "kind TEXT NOT NULL DEFAULT 'unit'")
                self.migrations += 1
                migrated = True
                continue
            if info and present != columns:
                conn.execute("DROP TABLE %s" % table)
                info = []
            if not info:
                conn.execute(_TABLE_DDL[table])
        conn.commit()
        return migrated

    def _discard_file(self) -> None:
        self.invalidations += 1
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except OSError:
                pass

    def close(self) -> None:
        if self._conn is not None:
            self.flush()
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    # Context-manager support so owners (SafetyChecker, the service's
    # worker pool) release the SQLite handle deterministically instead
    # of leaking it until garbage collection.
    def __enter__(self) -> "PersistentProverCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- formula queries -----------------------------------------------------

    def get(self, digest: str) -> Optional[bool]:
        if self._conn is None:
            return None
        try:
            row = self._conn.execute(
                "SELECT satisfiable FROM results WHERE digest=?",
                (digest,)).fetchone()
        except sqlite3.Error:
            self.io_errors += 1
            return None
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return bool(row[0])

    def put(self, digest: str, satisfiable: bool) -> None:
        if self._conn is None:
            return
        try:
            self._conn.execute(
                "INSERT OR IGNORE INTO results VALUES (?, ?)",
                (digest, 1 if satisfiable else 0))
        except sqlite3.Error:
            self.io_errors += 1
            return
        self.stores += 1
        self._pending += 1
        if self._pending >= _COMMIT_EVERY:
            self.flush()

    # -- function-unit queries -----------------------------------------------

    def get_unit(self, unit_key: str) -> List[Dict[str, Any]]:
        """All stored payloads for ``unit_key`` (any deps context).

        A key can legitimately carry several rows — the same function
        body proved under different dependency contexts — so callers
        receive every candidate and validate its recorded dependencies
        against the current program.  Undecodable rows are skipped."""
        if self._conn is None:
            return []
        try:
            rows = self._conn.execute(
                "SELECT payload FROM units WHERE unit_key=? "
                "ORDER BY created DESC", (unit_key,)).fetchall()
        except sqlite3.Error:
            self.io_errors += 1
            return []
        if rows:
            # Replay lookups are what make a unit *hot*; gc evicts in
            # last_used order so bumped units survive.  The bump is
            # write-behind: recorded here, applied by flush() — owners
            # flush on close/drain so a unit replayed just before
            # shutdown is not evicted as cold by the next gc.
            self._touched[unit_key] = time.time()
            if len(self._touched) >= _COMMIT_EVERY:
                self.flush()
        payloads = []
        for (text,) in rows:
            try:
                payload = json.loads(text)
            except (ValueError, TypeError):
                continue
            if isinstance(payload, dict):
                payloads.append(payload)
        return payloads

    def put_unit(self, unit_key: str, deps_digest: str,
                 function: str, payload: Dict[str, Any],
                 kind: str = "unit") -> None:
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
        except sqlite3.Error:
            self.io_errors += 1
            return
        self._pending += 1
        if self._pending >= _COMMIT_EVERY:
            self.flush()

    def flush(self) -> None:
        """Apply the write-behind ``last_used`` batch and commit every
        pending write.  Called by owners on close, at the end of each
        check/worker job, and on graceful service drain."""
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

    def __len__(self) -> int:
        if self._conn is None:
            return 0
        try:
            return self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
        except sqlite3.Error:
            return 0

    # -- maintenance (``repro cache``) ---------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Inspection snapshot for ``repro cache stats``."""
        info: Dict[str, Any] = {
            "path": self.path,
            "exists": os.path.exists(self.path),
            "schema_version": self.schema_version,
            "size_bytes": 0,
            "results": 0,
            "units": 0,
            "units_by_kind": {},
        }
        if self._conn is None:
            return info
        try:
            self.flush()
            self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            info["results"] = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
            info["units"] = self._conn.execute(
                "SELECT COUNT(*) FROM units").fetchone()[0]
            info["units_by_kind"] = dict(self._conn.execute(
                "SELECT kind, COUNT(*) FROM units "
                "GROUP BY kind ORDER BY kind").fetchall())
        except sqlite3.Error:
            self.io_errors += 1
        try:
            info["size_bytes"] = os.path.getsize(self.path)
        except OSError:
            pass
        return info

    def clear(self) -> None:
        """Drop every stored row, keeping the file and layout."""
        if self._conn is None:
            return
        try:
            self._conn.execute("DELETE FROM results")
            self._conn.execute("DELETE FROM units")
            self._conn.commit()
            self._conn.execute("VACUUM")
        except sqlite3.Error:
            self.io_errors += 1
        self._pending = 0
        self._touched.clear()

    def gc(self, max_mb: float) -> Dict[str, Any]:
        """Shrink the file to at most ``max_mb`` megabytes.

        Evicts the least-recently-*used* function units first (they are
        the bulky rows; ``last_used`` is bumped on every replay lookup,
        so units that keep pricing warm re-checks survive), then the
        formula results wholesale if still over budget, and vacuums.
        Returns a summary of what was dropped."""
        summary = {"deleted_units": 0, "deleted_results": 0,
                   "size_bytes": 0}
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
            if self._size() > budget:
                summary["deleted_results"] = self._conn.execute(
                    "SELECT COUNT(*) FROM results").fetchone()[0]
                self._conn.execute("DELETE FROM results")
                self._conn.commit()
                self._conn.execute("VACUUM")
        except sqlite3.Error:
            self.io_errors += 1
        summary["size_bytes"] = self._size()
        return summary

    def _size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
