"""Offline trace analysis: ``repro trace summarize``.

Consumes a record list from :func:`repro.trace.schema.load_trace` and
reduces it to the questions an operator actually asks of a slow or
rejected check: where did the time go per phase, which obligations and
prover queries were slowest (with provenance back to the instruction),
how hard did induction-iteration work, and what fraction of queries
each cache level absorbed.

Durations always come from ``dur_s`` / ``attrs.seconds``, never from
raw ``t_*`` differences — a record's timestamps are its own process's
monotonic clock (see the schema module).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.trace.schema import PHASE_SPANS

__all__ = ["render_summary", "summarize"]


def _spans(records: Iterable[Dict], name: str) -> List[Dict]:
    return [r for r in records
            if r["type"] == "span" and r["name"] == name]


def _events(records: Iterable[Dict], name: str) -> List[Dict]:
    return [r for r in records
            if r["type"] == "event" and r["name"] == name]


def summarize(records: List[Dict], top: int = 10,
              hotspots: bool = False) -> Dict:
    """Reduce a validated record list to a summary dictionary.

    With *hotspots* the summary additionally ranks prover queries by
    **total** seconds grouped by canonical digest, and obligations by
    total seconds grouped by (function, category) — the aggregate view
    that finds "death by a thousand identical queries" profiles the
    per-record slowest-N lists cannot show."""
    summary: Dict = {"records": len(records)}

    checks = _spans(records, "check")
    if checks:
        root = checks[-1]
        summary["check"] = {
            "trace_id": root["trace_id"],
            "program": root["attrs"].get("program"),
            "arch": root["attrs"].get("arch"),
            "verdict": root["attrs"].get("verdict"),
            "seconds": root["dur_s"],
        }

    phases = []
    for name in PHASE_SPANS:
        spans = _spans(records, name)
        if spans:
            phases.append({
                "phase": name[len("phase:"):],
                "seconds": sum(s["dur_s"] for s in spans),
                "spans": len(spans),
            })
    summary["phases"] = phases

    obligations = _spans(records, "obligation")
    summary["obligations"] = {
        "total": len(obligations),
        "proved": sum(1 for s in obligations
                      if s["attrs"].get("proved") is True),
        "unproved": sum(1 for s in obligations
                        if s["attrs"].get("proved") is False),
        "seconds": sum(s["dur_s"] for s in obligations),
    }
    slowest = sorted(obligations, key=lambda s: s["dur_s"],
                     reverse=True)[:top]
    summary["slowest_obligations"] = [{
        "seconds": s["dur_s"],
        "oid": s["attrs"].get("oid"),
        "category": s["attrs"].get("category"),
        "proved": s["attrs"].get("proved"),
        "instruction": s["attrs"].get("instruction"),
        "address": s["attrs"].get("address"),
        "function": s["attrs"].get("function"),
        "loop_header": s["attrs"].get("loop_header"),
        "description": s["attrs"].get("description"),
    } for s in slowest]

    queries = _events(records, "prover:query")
    by_cache: Dict[str, int] = {}
    for event in queries:
        level = event["attrs"].get("cache", "unknown")
        by_cache[level] = by_cache.get(level, 0) + 1
    summary["queries"] = {
        "total": len(queries),
        "seconds": sum(e["attrs"].get("seconds", 0.0) for e in queries),
        "by_cache": dict(sorted(by_cache.items())),
    }
    slow_q = sorted(queries, key=lambda e: e["attrs"].get("seconds", 0.0),
                    reverse=True)[:top]
    summary["slowest_queries"] = [{
        "seconds": e["attrs"].get("seconds"),
        "cache": e["attrs"].get("cache"),
        "formula_size": e["attrs"].get("formula_size"),
        "result": e["attrs"].get("result"),
        "digest": e["attrs"].get("digest"),
    } for e in slow_q]

    if hotspots:
        summary["hotspots"] = _hotspots(queries, obligations, top)

    runs = _spans(records, "induction:run")
    summary["induction"] = {
        "runs": len(runs),
        "successes": sum(1 for s in runs
                         if s["attrs"].get("success") is True),
        "seconds": sum(s["dur_s"] for s in runs),
        "candidates": len(_events(records, "induction:candidate")),
        "generalizations": len(_events(records, "induction:generalize")),
    }
    return summary


def _hotspots(queries: List[Dict], obligations: List[Dict],
              top: int) -> Dict:
    """Aggregate hot spots: total prover seconds per canonical query
    digest, and total obligation seconds per (function, category)."""
    by_digest: Dict[str, Dict] = {}
    for event in queries:
        digest = event["attrs"].get("digest") or "?"
        entry = by_digest.setdefault(
            digest, {"digest": digest, "count": 0, "seconds": 0.0,
                     "cache_hits": 0,
                     "formula_size": event["attrs"].get("formula_size")})
        entry["count"] += 1
        entry["seconds"] += event["attrs"].get("seconds", 0.0)
        if event["attrs"].get("cache") not in (None, "fallback",
                                               "decided"):
            entry["cache_hits"] += 1
    by_site: Dict[tuple, Dict] = {}
    for span in obligations:
        site = (span["attrs"].get("function"),
                span["attrs"].get("category"))
        entry = by_site.setdefault(
            site, {"function": site[0], "category": site[1],
                   "count": 0, "seconds": 0.0, "unproved": 0})
        entry["count"] += 1
        entry["seconds"] += span["dur_s"]
        if span["attrs"].get("proved") is False:
            entry["unproved"] += 1
    def rank(rows):
        return sorted(rows, key=lambda r: r["seconds"],
                      reverse=True)[:top]

    return {
        "queries_by_digest": rank(by_digest.values()),
        "obligations_by_site": rank(by_site.values()),
    }


def _row(label: str, *cells: str) -> str:
    return "  %-28s %s" % (label, "  ".join(cells))


def render_summary(summary: Dict) -> str:
    """Render :func:`summarize` output as a plain-text report."""
    lines: List[str] = []
    check = summary.get("check")
    if check:
        lines.append("check %s/%s: %s in %.3fs  (trace %s)"
                     % (check.get("program"), check.get("arch"),
                        check.get("verdict") or "?",
                        check.get("seconds") or 0.0,
                        check.get("trace_id")))
    lines.append("%d trace records" % summary.get("records", 0))

    phases = summary.get("phases") or []
    if phases:
        lines.append("")
        lines.append("phases:")
        total = sum(p["seconds"] for p in phases) or 1.0
        for phase in phases:
            lines.append(_row(phase["phase"],
                              "%8.3fs" % phase["seconds"],
                              "%5.1f%%" % (100.0 * phase["seconds"]
                                           / total)))

    obligations = summary.get("obligations") or {}
    lines.append("")
    lines.append("obligations: %d total, %d proved, %d unproved, %.3fs"
                 % (obligations.get("total", 0),
                    obligations.get("proved", 0),
                    obligations.get("unproved", 0),
                    obligations.get("seconds", 0.0)))
    for entry in summary.get("slowest_obligations") or []:
        where = "%s+0x%x" % (entry.get("function"),
                             entry.get("address") or 0)
        loop = entry.get("loop_header")
        if loop is not None:
            where += " loop@%d" % loop
        lines.append(_row(where,
                          "%8.3fs" % (entry.get("seconds") or 0.0),
                          str(entry.get("category")),
                          "proved" if entry.get("proved")
                          else "UNPROVED"))

    queries = summary.get("queries") or {}
    lines.append("")
    lines.append("prover queries: %d in %.3fs"
                 % (queries.get("total", 0),
                    queries.get("seconds", 0.0)))
    for level, count in (queries.get("by_cache") or {}).items():
        lines.append(_row(level, "%6d" % count))
    slow_q = summary.get("slowest_queries") or []
    if slow_q:
        lines.append("slowest queries:")
        for entry in slow_q:
            lines.append(_row((entry.get("digest") or "?")[:16],
                              "%8.3fs" % (entry.get("seconds") or 0.0),
                              "size=%s" % entry.get("formula_size"),
                              str(entry.get("cache"))))

    hotspots = summary.get("hotspots") or {}
    if hotspots:
        lines.append("")
        lines.append("hot queries (total seconds by canonical digest):")
        for entry in hotspots.get("queries_by_digest") or []:
            lines.append(_row(
                (entry.get("digest") or "?")[:16],
                "%8.3fs" % entry["seconds"],
                "%5dx" % entry["count"],
                "size=%s" % entry.get("formula_size"),
                "%d cached" % entry.get("cache_hits", 0)))
        lines.append("hot obligation sites (function, category):")
        for entry in hotspots.get("obligations_by_site") or []:
            label = "%s/%s" % (entry.get("function"),
                               entry.get("category"))
            cells = ["%8.3fs" % entry["seconds"],
                     "%5dx" % entry["count"]]
            if entry.get("unproved"):
                cells.append("%d UNPROVED" % entry["unproved"])
            lines.append(_row(label, *cells))

    induction = summary.get("induction") or {}
    if induction.get("runs"):
        lines.append("")
        lines.append("induction-iteration: %d runs (%d successful), "
                     "%d candidates, %d generalizations, %.3fs"
                     % (induction.get("runs", 0),
                        induction.get("successes", 0),
                        induction.get("candidates", 0),
                        induction.get("generalizations", 0),
                        induction.get("seconds", 0.0)))
    return "\n".join(lines)
