"""Unit tests of the tracer, the record schema, and the summarizer."""

import json
import os

import pytest

from repro.trace import (
    NULL_TRACER, SCHEMA_VERSION, TraceError, Tracer, load_trace,
    render_summary, summarize, validate_record,
)
from repro.trace.schema import validate_records
from repro.trace.tracer import clip, new_trace_id


class TestTracer:
    def test_span_nesting_parents(self):
        tracer = Tracer.buffered(trace_id="t")
        with tracer.span("check") as root:
            with tracer.span("phase:preparation") as inner:
                tracer.event("prover:query", digest="d", cache="raw",
                             formula_size=1, seconds=0.0, result=True)
        records = tracer.drain()
        assert [r["name"] for r in records] == [
            "prover:query", "phase:preparation", "check"]
        event, inner_span, root_span = records
        assert root_span["parent_id"] is None
        assert inner_span["parent_id"] == root_span["span_id"]
        assert event["parent_id"] == inner_span["span_id"]
        assert root.id == root_span["span_id"]
        assert inner.id == inner_span["span_id"]
        assert all(r["trace_id"] == "t" for r in records)

    def test_span_records_validate(self):
        tracer = Tracer.buffered()
        with tracer.span("check", program="p", arch="sparc") as span:
            span.set(verdict="certified")
            tracer.event("custom:event", anything="goes")
        assert validate_records(tracer.drain()) == 2

    def test_span_timing_monotonic(self):
        tracer = Tracer.buffered()
        with tracer.span("outer"):
            pass
        (record,) = tracer.drain()
        assert record["t_end"] >= record["t_start"]
        assert record["dur_s"] == pytest.approx(
            record["t_end"] - record["t_start"])
        assert record["pid"] == os.getpid()

    def test_exception_still_emits_span_with_error(self):
        tracer = Tracer.buffered()
        with pytest.raises(ValueError):
            with tracer.span("phase:annotation"):
                raise ValueError("boom")
        (record,) = tracer.drain()
        assert record["attrs"]["error"] == "ValueError"
        validate_record(record)

    def test_drain_clears_buffer(self):
        tracer = Tracer.buffered()
        tracer.event("e")
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_to_path_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with Tracer.to_path(path) as tracer:
            with tracer.span("check", program="p", arch="riscv"):
                pass
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "check"
        assert load_trace(path)[0]["v"] == SCHEMA_VERSION

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("check") as span:
            span.set(verdict="x")
        NULL_TRACER.event("anything")
        assert NULL_TRACER.drain() == []
        NULL_TRACER.close()

    def test_new_trace_ids_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64

    def test_clip_bounds_long_text(self):
        assert clip("short") == "short"
        assert len(clip("x" * 1000, limit=50)) == 50


class TestSchema:
    def _span(self, **overrides):
        record = {
            "v": SCHEMA_VERSION, "type": "span", "trace_id": "t",
            "span_id": "s1", "parent_id": None, "name": "anything",
            "pid": 1, "t_start": 1.0, "t_end": 2.0, "dur_s": 1.0,
            "attrs": {},
        }
        record.update(overrides)
        return record

    def test_valid_span_passes(self):
        validate_record(self._span())

    def test_missing_envelope_field_fails(self):
        record = self._span()
        del record["trace_id"]
        with pytest.raises(TraceError):
            validate_record(record)

    def test_wrong_version_fails(self):
        with pytest.raises(TraceError):
            validate_record(self._span(v=999))

    def test_unknown_type_fails(self):
        with pytest.raises(TraceError):
            validate_record(self._span(type="metric"))

    def test_span_negative_duration_fails(self):
        with pytest.raises(TraceError):
            validate_record(self._span(t_end=0.5))

    def test_known_name_requires_attrs(self):
        with pytest.raises(TraceError):
            validate_record(self._span(name="obligation"))

    def test_unknown_cache_level_fails(self):
        record = self._span(
            type="event", name="prover:query",
            attrs={"digest": "d", "cache": "l5", "formula_size": 1,
                   "seconds": 0.0, "result": True})
        del record["t_start"], record["t_end"], record["dur_s"]
        record["t"] = 1.0
        with pytest.raises(TraceError):
            validate_record(record)

    def test_load_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            load_trace(str(path))


class TestSummarize:
    def _records(self):
        tracer = Tracer.buffered()
        with tracer.span("check", program="p", arch="sparc") as root:
            with tracer.span("phase:global_verification"):
                with tracer.span("obligation", oid=0, digest="d",
                                 category="array-bounds",
                                 description="x", instruction=3,
                                 address=8, function="<main>",
                                 loop_header=2, proved=None) as ob:
                    tracer.event("prover:query", digest="q",
                                 cache="decided", formula_size=4,
                                 seconds=0.25, result=False)
                    ob.set(proved=True)
            root.set(verdict="certified")
        return tracer.drain()

    def test_summary_counts(self):
        summary = summarize(self._records())
        assert summary["check"]["verdict"] == "certified"
        assert summary["obligations"]["total"] == 1
        assert summary["obligations"]["proved"] == 1
        assert summary["queries"]["total"] == 1
        assert summary["queries"]["by_cache"] == {"decided": 1}
        assert summary["slowest_queries"][0]["seconds"] == 0.25
        assert summary["slowest_obligations"][0]["address"] == 8
        assert [p["phase"] for p in summary["phases"]] \
            == ["global_verification"]

    def test_render_is_text(self):
        text = render_summary(summarize(self._records()))
        assert "certified" in text
        assert "array-bounds" in text
        assert "<main>+0x8" in text
