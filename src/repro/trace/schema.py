"""The trace record schema and its validator (stdlib only).

Every line of a trace file is one JSON object.  Two record shapes:

``span`` — a timed region::

    {"v": 1, "type": "span", "trace_id": "…", "span_id": "s3",
     "parent_id": "s1" | null, "name": "phase:preparation",
     "pid": 1234, "t_start": 12.3, "t_end": 12.4, "dur_s": 0.1,
     "attrs": {…}}

``event`` — a point in time (same envelope, ``t`` instead of the
``t_start``/``t_end``/``dur_s`` triple).

Timestamps are ``time.monotonic()`` seconds of the *emitting* process
(``pid``): they order records within a process and support durations,
but are meaningless across processes — compare ``dur_s``, not ``t_*``,
when traces from several processes are read together.

Well-known names carry required attributes (:data:`REQUIRED_ATTRS`);
unknown names are allowed (the schema is open for extension) but must
still match the envelope.  ``repro trace validate`` and the test suite
run :func:`validate_record` over every emitted line.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError

#: Bumped whenever the record envelope changes incompatibly.
SCHEMA_VERSION = 1


class TraceError(ReproError):
    """A trace file or record does not match the schema."""


#: Envelope fields common to both record types.
_ENVELOPE = {
    "v": int,
    "type": str,
    "trace_id": str,
    "span_id": str,
    "name": str,
    "pid": int,
    "attrs": dict,
}

#: Cache levels a prover query can be answered from.
QUERY_CACHE_LEVELS = (
    "raw", "decided", "fallback",
)

#: Required ``attrs`` per well-known record name.  The value is a tuple
#: of accepted types; ``type(None)`` marks an optional null.
REQUIRED_ATTRS: Dict[str, Dict[str, Tuple[type, ...]]] = {
    # The root span of one SafetyChecker.check() run.
    "check": {
        "program": (str,),
        "arch": (str,),
    },
    # One prover satisfiability query (event): the canonical-form
    # digest identifies the formula across runs and processes.
    "prover:query": {
        "digest": (str,),
        "cache": (str,),
        "formula_size": (int,),
        "seconds": (int, float),
        "result": (bool,),
    },
    # One function unit replayed from the replay store
    # (span); its child obligation spans carry ``replayed: True`` plus
    # the ordinary provenance, so incremental traces stay auditable.
    "function:replayed": {
        "function": (str,),
        "input_digest": (str,),
        "obligations": (int,),
        "proved": (int,),
    },
    # One proof obligation discharge (span), with provenance back to
    # the machine instruction it protects.
    "obligation": {
        "oid": (int,),
        "digest": (str,),
        "category": (str,),
        "description": (str,),
        "instruction": (int,),
        "address": (int,),
        "function": (str,),
        "loop_header": (int, type(None)),
        "proved": (bool, type(None)),
    },
    # One induction-iteration run (span) for a loop header.
    "induction:run": {
        "loop_header": (int,),
        "depth": (int,),
        "target_size": (int,),
    },
    # One candidate invariant explored by the BFS (event).
    "induction:candidate": {
        "level": (int,),
        "formula_size": (int,),
        "formula": (str,),
    },
    # One Fourier–Motzkin generalization batch (event).
    "induction:generalize": {
        "pieces": (int,),
    },
}

#: Span names of the paper's five phases, in pipeline order — the
#: coverage set the trace-smoke CI job asserts.
PHASE_SPANS = (
    "phase:preparation",
    "phase:typestate_propagation",
    "phase:annotation",
    "phase:local_verification",
    "phase:global_verification",
)


def _fail(message: str, record: Dict) -> None:
    raise TraceError("%s in trace record %s"
                     % (message, json.dumps(record, default=str)[:300]))


def validate_record(record: Dict) -> None:
    """Raise :class:`TraceError` unless *record* matches the schema."""
    if not isinstance(record, dict):
        raise TraceError("trace record is not an object: %r"
                         % (record,))
    for key, kind in _ENVELOPE.items():
        if key not in record:
            _fail("missing %r" % key, record)
        if not isinstance(record[key], kind) \
                or isinstance(record[key], bool):
            _fail("%r must be %s" % (key, kind.__name__), record)
    if record["v"] != SCHEMA_VERSION:
        _fail("unsupported schema version %r" % record["v"], record)
    parent = record.get("parent_id")
    if parent is not None and not isinstance(parent, str):
        _fail("'parent_id' must be a string or null", record)
    if record["type"] == "span":
        for key in ("t_start", "t_end", "dur_s"):
            value = record.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                _fail("span %r must be a number" % key, record)
        if record["t_end"] < record["t_start"]:
            _fail("span ends before it starts", record)
    elif record["type"] == "event":
        value = record.get("t")
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            _fail("event 't' must be a number", record)
    else:
        _fail("unknown record type %r" % record["type"], record)
    required = REQUIRED_ATTRS.get(record["name"])
    if required:
        attrs = record["attrs"]
        for key, kinds in required.items():
            if key not in attrs:
                _fail("%r record missing attr %r"
                      % (record["name"], key), record)
            value = attrs[key]
            if isinstance(value, bool):
                if bool not in kinds:
                    _fail("attr %r must not be a bool" % key, record)
            elif not isinstance(value, kinds):
                _fail("attr %r has the wrong type" % key, record)
    if record["name"] == "prover:query" \
            and record["attrs"]["cache"] not in QUERY_CACHE_LEVELS:
        _fail("unknown query cache level %r"
              % record["attrs"]["cache"], record)


def validate_records(records: Iterable[Dict]) -> int:
    """Validate a record sequence; returns how many were checked."""
    count = 0
    for record in records:
        validate_record(record)
        count += 1
    return count


def load_trace(path: str, validate: bool = True,
               limit: Optional[int] = None) -> List[Dict]:
    """Parse (and by default validate) a JSONL trace file."""
    records: List[Dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise TraceError("%s:%d: not valid JSON: %s"
                                     % (path, lineno, error))
                if validate:
                    try:
                        validate_record(record)
                    except TraceError as error:
                        raise TraceError("%s:%d: %s"
                                         % (path, lineno, error))
                records.append(record)
                if limit is not None and len(records) >= limit:
                    break
    except UnicodeDecodeError:
        raise TraceError("%s: not UTF-8 text" % path) from None
    return records
