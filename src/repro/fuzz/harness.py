"""Fuzzing campaigns: pool fan-out, budgets, findings, replay.

A *campaign* examines a contiguous stream of generator seeds.  Each
seed is one differential experiment: generate the sketch, draw its
input vectors, classify the ``(sketch, arch)`` pair on every requested
architecture (static checker vs runtime safety monitor), and — when
both architectures are in play — run the cross-architecture observable
comparison.  Seeds are dealt to a :class:`~concurrent.futures.
ProcessPoolExecutor` in contiguous chunks, so each worker owns a
deterministic seed stream; the examined seed *set* is a pure function
of ``(seed_start, budget_count)``, and findings are sorted before they
are written, so a count-budgeted campaign produces byte-identical
findings at any ``--jobs``.

Findings (every non-``agree`` record) are appended to a JSONL file
with full provenance: the seed, the serialized sketch, the input-
vector parameters, per-run violation events, and the static verdict —
enough to replay or reduce the finding without re-running the
campaign.  ``soundness``, ``divergence``, and ``error`` findings make
the campaign (and ``repro fuzz run``) exit non-zero; ``incompleteness``
and ``undecided`` records are informational.

The same module hosts the corpus side: :func:`reduce_finding` shrinks
a finding to a minimal reproducer via :func:`repro.fuzz.reducer.
reduce_sketch`, and :func:`replay_corpus` re-checks committed corpus
entries (``tests/fuzz/corpus/*.json``) against their recorded
expectations — the tier-1 regression hook.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.options import valid_timeout
from repro.errors import FuzzError
from repro.fuzz.generator import (
    ARCHS, Sketch, generate_sketch, instruction_count, make_vectors,
    sketch_from_obj, sketch_to_obj,
)
from repro.fuzz.oracle import (
    AGREE, DEFAULT_CHECK_TIMEOUT_S, DIVERGENCE, SOUNDNESS,
    check_options, classify, compare_archs,
)
from repro.fuzz.reducer import reduce_sketch
from repro.textfile import read_text

#: A seed whose examination itself crashed (generator, assembler, or
#: checker raised) — always a bug somewhere in the pipeline.
ERROR = "error"

#: Finding classes that fail a campaign.
FAILING_CLASSES = (SOUNDNESS, DIVERGENCE, ERROR)

#: Default number of seeds when no budget is given.
DEFAULT_BUDGET_COUNT = 50


@dataclass
class CampaignConfig:
    """One fuzzing campaign's parameters (picklable: shipped whole to
    every pool worker)."""

    archs: Tuple[str, ...] = ARCHS
    seed_start: int = 0
    #: Seed-count budget; None = unbounded (needs ``budget_seconds``).
    budget_count: Optional[int] = None
    #: Wall-clock budget; new chunks stop being issued once elapsed.
    budget_seconds: Optional[float] = None
    jobs: int = 1
    #: Random input vectors per seed.
    vectors: int = 3
    check_timeout_s: Optional[float] = DEFAULT_CHECK_TIMEOUT_S
    #: Test-only CheckerOptions overrides (the self-test injects its
    #: deliberate weakening here; see ``unsound_assume_categories``).
    checker_overrides: Dict[str, object] = field(default_factory=dict)
    #: Seeds per pool task.
    chunk_size: int = 4
    #: JSONL findings output; None = do not write a file.
    findings_path: Optional[str] = None
    #: JSONL trace output ("fuzz:campaign" span, "fuzz:finding"
    #: events); None = no trace.
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        for arch in self.archs:
            if arch not in ARCHS:
                raise FuzzError("unknown architecture %r" % (arch,))
        if not self.archs:
            raise FuzzError("at least one architecture is required")
        if self.check_timeout_s is not None \
                and not valid_timeout(self.check_timeout_s):
            raise FuzzError("check_timeout_s=%r: a check budget is a "
                            "finite number of seconds > 0"
                            % (self.check_timeout_s,))
        if self.budget_count is None and self.budget_seconds is None:
            self.budget_count = DEFAULT_BUDGET_COUNT


@dataclass
class CampaignResult:
    """Summary statistics plus the (sorted) findings themselves."""

    summary: dict
    findings: List[dict]

    @property
    def ok(self) -> bool:
        return self.summary["failing"] == 0


def examine_seed(seed: int, config: CampaignConfig) -> List[dict]:
    """Run the full differential experiment for one seed.

    Returns one record per architecture plus, when both architectures
    are requested, at most one cross-architecture ``divergence``
    record.  A crash anywhere in the experiment becomes an ``error``
    record carrying the traceback instead of propagating."""
    try:
        sketch = generate_sketch(seed)
        vectors = make_vectors(seed, sketch.array_size, config.vectors)
    except Exception:
        return [{"seed": seed, "arch": None, "class": ERROR,
                 "stage": "generate",
                 "traceback": traceback.format_exc()}]
    provenance = {
        "seed": seed,
        "vector_count": config.vectors,
        "array_size": sketch.array_size,
        "array_writable": sketch.array_writable,
    }
    records: List[dict] = []
    for arch in config.archs:
        record = dict(provenance)
        record["arch"] = arch
        try:
            record["instructions"] = instruction_count(sketch, arch)
            verdict = classify(
                sketch, arch, vectors,
                options=check_options(config.check_timeout_s,
                                      config.checker_overrides))
        except Exception:
            record["class"] = ERROR
            record["stage"] = "classify"
            record["traceback"] = traceback.format_exc()
            record["sketch"] = sketch_to_obj(sketch)
            records.append(record)
            continue
        record["class"] = verdict.kind
        record.update(verdict.as_dict())
        if verdict.kind != AGREE:
            record["sketch"] = sketch_to_obj(sketch)
        records.append(record)
    if "sparc" in config.archs and "riscv" in config.archs:
        record = dict(provenance)
        record["arch"] = None
        try:
            problems = compare_archs(sketch, vectors)
        except Exception:
            record["class"] = ERROR
            record["stage"] = "compare_archs"
            record["traceback"] = traceback.format_exc()
            record["sketch"] = sketch_to_obj(sketch)
            records.append(record)
            problems = []
        if problems:
            record["class"] = DIVERGENCE
            record["problems"] = problems
            record["sketch"] = sketch_to_obj(sketch)
            records.append(record)
    return records


def _examine_chunk(config: CampaignConfig,
                   seeds: Sequence[int]) -> List[dict]:
    """Pool-task entry point: examine a contiguous seed chunk."""
    records: List[dict] = []
    for seed in seeds:
        records.extend(examine_seed(seed, config))
    return records


def _chunks(config: CampaignConfig) -> Iterator[List[int]]:
    """Contiguous seed chunks honoring the count budget (the time
    budget is enforced by the consumer, which stops drawing)."""
    seed = config.seed_start
    end = None if config.budget_count is None \
        else config.seed_start + config.budget_count
    while end is None or seed < end:
        stop = seed + config.chunk_size
        if end is not None:
            stop = min(stop, end)
        yield list(range(seed, stop))
        seed = stop


def _sort_key(record: dict) -> tuple:
    return (record["seed"], record.get("arch") or "~cross")


def run_campaign(config: CampaignConfig,
                 log: Optional[Callable[[str], None]] = None
                 ) -> CampaignResult:
    """Run one campaign; returns summary stats plus sorted findings.

    ``jobs > 1`` fans chunks out over a process pool; if the pool
    cannot be created (restricted environments) the campaign falls
    back to the serial path and notes it in the summary."""
    start = time.monotonic()
    counts: Dict[str, int] = {}
    findings: List[dict] = []
    seeds_done = 0
    pool_fallback = False

    def out_of_time() -> bool:
        return config.budget_seconds is not None \
            and time.monotonic() - start >= config.budget_seconds

    def consume(records: List[dict]) -> None:
        for record in records:
            counts[record["class"]] = counts.get(record["class"], 0) + 1
            if record["class"] != AGREE:
                findings.append(record)

    chunk_iter = _chunks(config)
    if config.jobs > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=config.jobs)
        except (OSError, ValueError):
            pool_fallback = True
    if config.jobs > 1 and not pool_fallback:
        with pool:
            pending: Dict[object, List[int]] = {}

            def submit_next() -> bool:
                if out_of_time():
                    return False
                chunk = next(chunk_iter, None)
                if chunk is None:
                    return False
                pending[pool.submit(_examine_chunk, config,
                                    chunk)] = chunk
                return True

            for _ in range(config.jobs):
                if not submit_next():
                    break
            while pending:
                done, _ = wait(list(pending),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = pending.pop(future)
                    try:
                        records = future.result()
                    except Exception:
                        records = [
                            {"seed": seed, "arch": None,
                             "class": ERROR, "stage": "pool",
                             "traceback": traceback.format_exc()}
                            for seed in chunk]
                    consume(records)
                    seeds_done += len(chunk)
                    if log is not None:
                        log("fuzz: %d seeds done, %d findings"
                            % (seeds_done, len(findings)))
                    submit_next()
    else:
        for chunk in chunk_iter:
            if out_of_time():
                break
            for seed in chunk:
                if out_of_time():
                    break
                consume(examine_seed(seed, config))
                seeds_done += 1
            if log is not None:
                log("fuzz: %d seeds done, %d findings"
                    % (seeds_done, len(findings)))

    findings.sort(key=_sort_key)
    elapsed = time.monotonic() - start
    failing = sum(counts.get(kind, 0) for kind in FAILING_CLASSES)
    summary = {
        "archs": list(config.archs),
        "seed_start": config.seed_start,
        "seeds": seeds_done,
        "vectors": config.vectors,
        "jobs": config.jobs,
        "pool_fallback": pool_fallback,
        "elapsed_s": round(elapsed, 3),
        "counts": {kind: counts[kind] for kind in sorted(counts)},
        "findings": len(findings),
        "failing": failing,
        "findings_path": config.findings_path,
    }
    if config.findings_path:
        write_findings(config.findings_path, summary, findings)
    if config.trace_path:
        _write_trace(config, summary, findings)
    return CampaignResult(summary=summary, findings=findings)


def write_findings(path: str, summary: dict,
                   findings: Sequence[dict]) -> None:
    """One JSONL file: a summary header line, then one finding per
    line (sorted by seed — deterministic under any job count)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "summary", **summary},
                                sort_keys=True) + "\n")
        for finding in findings:
            handle.write(json.dumps({"type": "finding", **finding},
                                    sort_keys=True) + "\n")


def _json_object(text: str, path: str, lineno: int, what: str) -> dict:
    """Parse *text* (starting at line *lineno* of *path*) as one JSON
    object; anything else is a :class:`FuzzError` naming the line."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as error:
        raise FuzzError("%s:%d: not valid JSON: %s"
                        % (path, lineno + error.lineno - 1, error.msg))
    if not isinstance(obj, dict):
        start = len(text) - len(text.lstrip())
        raise FuzzError("%s:%d: %s is not a JSON object"
                        % (path, lineno + text.count("\n", 0, start),
                           what))
    return obj


def load_findings(path: str) -> List[dict]:
    """The finding records of a campaign JSONL file (header skipped).
    Every finding must carry an integer "seed", a string "class" and,
    when present, a string or null "arch"."""
    findings = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        record = _json_object(line, path, lineno, "findings record")
        if record.get("type") != "finding":
            continue
        seed, cls = record.get("seed"), record.get("class")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FuzzError('%s:%d: finding record has no integer "seed"'
                            % (path, lineno))
        if not isinstance(cls, str):
            raise FuzzError('%s:%d: finding record has no string "class"'
                            % (path, lineno))
        if not isinstance(record.get("arch"), (str, type(None))):
            raise FuzzError('%s:%d: finding record\'s "arch" is not a '
                            'string' % (path, lineno))
        findings.append(record)
    return findings


def _write_trace(config: CampaignConfig, summary: dict,
                 findings: Sequence[dict]) -> None:
    from repro.trace.tracer import Tracer
    with Tracer.to_path(config.trace_path) as tracer:
        with tracer.span("fuzz:campaign",
                         archs=",".join(config.archs),
                         jobs=config.jobs,
                         seeds=summary["seeds"],
                         findings=summary["findings"],
                         failing=summary["failing"]):
            for finding in findings:
                tracer.event("fuzz:finding", seed=finding["seed"],
                             cls=finding["class"],
                             arch=finding.get("arch") or "cross")


# ---------------------------------------------------------------------------
# reduction of findings
# ---------------------------------------------------------------------------


def finding_predicate(finding: dict,
                      config: Optional[CampaignConfig] = None
                      ) -> Callable[[Sketch], bool]:
    """The interestingness predicate for reducing *finding*: "a
    candidate sketch still exhibits the same differential class".
    Input vectors are re-drawn per candidate (the vector stream
    depends on the array size, which reduction may shrink)."""
    if config is None:
        config = CampaignConfig()
    target = finding["class"]
    if target == ERROR:
        raise FuzzError("error findings mark harness bugs; fix the "
                        "pipeline instead of reducing them")
    vector_seed = finding["seed"]
    arch = finding.get("arch")
    if target != DIVERGENCE and arch not in ARCHS:
        raise FuzzError("finding for seed %d names no architecture"
                        % vector_seed)
    count = finding.get("vector_count", config.vectors)

    def predicate(candidate: Sketch) -> bool:
        vectors = make_vectors(vector_seed, candidate.array_size,
                               count)
        if target == DIVERGENCE:
            return bool(compare_archs(candidate, vectors))
        verdict = classify(
            candidate, arch, vectors,
            options=check_options(config.check_timeout_s,
                                  config.checker_overrides))
        return verdict.kind == target

    return predicate


def reduce_finding(finding: dict,
                   config: Optional[CampaignConfig] = None,
                   max_rounds: int = 500) -> Sketch:
    """Delta-debug a campaign finding to a minimal reproducer."""
    if "sketch" not in finding:
        raise FuzzError("finding has no sketch payload "
                        "(agree records are not reducible)")
    sketch = sketch_from_obj(finding["sketch"])
    predicate = finding_predicate(finding, config)
    if not predicate(sketch):
        raise FuzzError(
            "finding for seed %d does not reproduce (class %r)"
            % (finding["seed"], finding["class"]))
    return reduce_sketch(sketch, predicate, max_rounds=max_rounds)


def corpus_entry(name: str, description: str, sketch: Sketch,
                 vector_seed: int, vector_count: int,
                 expected: Dict[str, str],
                 expect_parity: bool = True) -> dict:
    """A committed-corpus record: the minimized sketch plus the
    expected differential class per architecture under the *honest*
    checker (corpus replay never injects weakenings)."""
    return {
        "name": name,
        "description": description,
        "sketch": sketch_to_obj(sketch),
        "vector_seed": vector_seed,
        "vector_count": vector_count,
        "expected": dict(sorted(expected.items())),
        "expect_parity": expect_parity,
        "instructions": {arch: instruction_count(sketch, arch)
                         for arch in sorted(expected)},
    }


# ---------------------------------------------------------------------------
# corpus replay
# ---------------------------------------------------------------------------


def corpus_paths(paths: Sequence[str]) -> List[str]:
    """Expand directories to their sorted ``*.json`` members."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(sorted(
                os.path.join(path, entry)
                for entry in os.listdir(path)
                if entry.endswith(".json")))
        else:
            out.append(path)
    return out


def replay_entry(entry: dict,
                 check_timeout_s: Optional[float]
                 = DEFAULT_CHECK_TIMEOUT_S) -> List[str]:
    """Re-run one corpus entry; returns mismatch descriptions
    (empty = the recorded expectations still hold)."""
    try:
        sketch = sketch_from_obj(entry["sketch"])
        expected = entry["expected"]
        if not isinstance(expected, dict) or not all(
                arch in ARCHS and isinstance(cls, str)
                for arch, cls in expected.items()):
            raise TypeError('"expected" must map architectures (%s) '
                            'to class names' % ", ".join(ARCHS))
        vectors = make_vectors(entry["vector_seed"],
                               sketch.array_size,
                               entry["vector_count"])
    except (KeyError, TypeError) as error:
        raise FuzzError("malformed corpus entry %r: %s"
                        % (entry.get("name"), error))
    problems: List[str] = []
    for arch in sorted(expected):
        verdict = classify(sketch, arch, vectors,
                           options=check_options(check_timeout_s))
        if verdict.kind != expected[arch]:
            problems.append("%s: expected %s, got %s"
                            % (arch, expected[arch], verdict.kind))
    if entry.get("expect_parity", True):
        for problem in compare_archs(sketch, vectors):
            problems.append("parity: " + problem)
    return problems


def replay_corpus(paths: Sequence[str],
                  check_timeout_s: Optional[float]
                  = DEFAULT_CHECK_TIMEOUT_S
                  ) -> List[Tuple[str, List[str]]]:
    """Replay every corpus file; returns ``(path, problems)`` for the
    files whose expectations no longer hold."""
    failures: List[Tuple[str, List[str]]] = []
    for path in corpus_paths(paths):
        entry = _json_object(read_text(path), path, 1, "corpus entry")
        try:
            problems = replay_entry(entry, check_timeout_s=check_timeout_s)
        except FuzzError as error:
            raise FuzzError("%s: %s" % (path, error))
        if problems:
            failures.append((path, problems))
    return failures


def render_summary(summary: dict) -> str:
    lines = [
        "fuzz campaign: %d seeds (start %d) on %s, %d vectors each"
        % (summary["seeds"], summary["seed_start"],
           "+".join(summary["archs"]), summary["vectors"]),
        "  elapsed %.1fs, jobs=%d%s"
        % (summary["elapsed_s"], summary["jobs"],
           " (pool fallback: serial)" if summary["pool_fallback"]
           else ""),
    ]
    for kind in sorted(summary["counts"]):
        lines.append("  %-15s %d" % (kind, summary["counts"][kind]))
    verdict = "FAIL (%d soundness/divergence/error finding%s)" % (
        summary["failing"], "" if summary["failing"] == 1 else "s") \
        if summary["failing"] else "OK (no failing findings)"
    lines.append("  " + verdict)
    if summary.get("findings_path"):
        lines.append("  findings: %s (%d record%s)"
                     % (summary["findings_path"], summary["findings"],
                        "" if summary["findings"] == 1 else "s"))
    return "\n".join(lines)
