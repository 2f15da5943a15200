"""The tracer: JSONL span/event emission on the monotonic clock.

Design constraints, in order:

1. **Verdict neutrality.**  Tracing observes the pipeline; it must
   never change a verdict or a prover counter.  Nothing in this module
   calls back into the analysis, and every instrumentation site in the
   pipeline guards its extra work behind :attr:`Tracer.enabled`.
2. **Monotonic time.**  Span boundaries come from ``time.monotonic()``
   — an NTP step while a check runs must not corrupt durations (the
   same reasoning that moved the prover deadline off the wall clock).
   Timestamps are therefore only comparable *within* one process; the
   ``pid`` field marks the process, and cross-process analysis uses
   ``dur_s``, never raw ``t_*`` differences.

Span nesting is implicit: ``tracer.span(...)`` context managers push
onto a per-tracer stack, so an obligation span opened inside the
global-verification phase span parents correctly without any plumbing.
One tracer must only be used from one thread (the service gives each
worker thread its own tracer).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Dict, List, Optional

from repro.trace.schema import SCHEMA_VERSION

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer", "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, not time-derived)."""
    return os.urandom(8).hex()


def clip(text: str, limit: int = 200) -> str:
    """Bound a rendered formula for embedding in a trace record."""
    if len(text) <= limit:
        return text
    return text[: limit - 1] + "…"


class Span:
    """One open span; closing it (via ``with``) emits the record.

    ``set(**attrs)`` adds attributes any time before the span closes —
    the idiom for outcomes (``span.set(proved=True)``) that are not
    known when the span opens.  A span interrupted by an exception
    (e.g. :class:`~repro.errors.ProverTimeout`) is still emitted, with
    whatever attributes it accumulated — an aborted check leaves a
    truncated but valid trace.
    """

    __slots__ = ("_tracer", "id", "parent_id", "name", "attrs", "_t0")

    def __init__(self, tracer: "Tracer", span_id: str,
                 parent_id: Optional[str], name: str, attrs: Dict):
        self._tracer = tracer
        self.id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self._t0 = 0.0

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.monotonic()
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self._tracer._emit({
            "v": SCHEMA_VERSION,
            "type": "span",
            "trace_id": self._tracer.trace_id,
            "span_id": self.id,
            "parent_id": self.parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "t_start": self._t0,
            "t_end": t1,
            "dur_s": t1 - self._t0,
            "attrs": self.attrs,
        })


class Tracer:
    """Emits JSONL records to a file-like sink or an in-memory buffer."""

    #: Instrumentation sites test this before doing any trace-only work
    #: (digests, formula rendering); on :class:`NullTracer` it is False.
    enabled = True

    def __init__(self, sink=None, trace_id: Optional[str] = None,
                 _owns_sink: bool = False):
        self.trace_id = trace_id or new_trace_id()
        self._sink = sink
        self._owns_sink = _owns_sink
        self._buffer: Optional[List[Dict]] = None if sink is not None \
            else []
        self._ids = itertools.count(1)
        self._stack: List[Span] = []

    # -- constructors --------------------------------------------------------

    @classmethod
    def to_path(cls, path: str,
                trace_id: Optional[str] = None) -> "Tracer":
        """Trace into *path* (truncated), closing the file on
        :meth:`close`."""
        return cls(sink=open(path, "w", encoding="utf-8"),
                   trace_id=trace_id, _owns_sink=True)

    @classmethod
    def buffered(cls, trace_id: Optional[str] = None) -> "Tracer":
        """Trace into memory; :meth:`drain` returns (and clears) the
        records."""
        return cls(sink=None, trace_id=trace_id)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a span below the innermost open span (or at the root)."""
        parent = self._stack[-1].id if self._stack else None
        return Span(self, self._next_id(), parent, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Emit a point-in-time record below the innermost open span."""
        parent = self._stack[-1].id if self._stack else None
        self._emit({
            "v": SCHEMA_VERSION,
            "type": "event",
            "trace_id": self.trace_id,
            "span_id": self._next_id(),
            "parent_id": parent,
            "name": name,
            "pid": os.getpid(),
            "t": time.monotonic(),
            "attrs": attrs,
        })

    def drain(self) -> List[Dict]:
        """Return and clear the buffered records (buffer mode only)."""
        if self._buffer is None:
            return []
        records, self._buffer = self._buffer, []
        return records

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            self._sink.close()
            self._sink = None
            self._owns_sink = False

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _next_id(self) -> str:
        return "s%d" % next(self._ids)

    def _emit(self, record: Dict) -> None:
        if self._buffer is not None:
            self._buffer.append(record)
            return
        self._sink.write(json.dumps(record, default=str) + "\n")


class _NullSpan:
    """Shared no-op span handle."""

    __slots__ = ()
    id = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op, so the
    pipeline can call tracing hooks unconditionally."""

    enabled = False
    trace_id = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def drain(self) -> List[Dict]:
        return []

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


#: The shared disabled tracer; identity-safe to use as a default.
NULL_TRACER = NullTracer()
