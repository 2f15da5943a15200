"""The obligation graph: explicit proof obligations, their scheduler,
and the serial / parallel discharge engines.

Phase 5 used to generate and prove verification conditions in one
interleaved loop.  This module splits it:

* **generation** (:func:`generate_obligations`) walks the annotations
  and emits one picklable :class:`Obligation` record per global safety
  precondition — canonical-form digest, formula, program point, kind —
  in the same deterministic order the serial engine always used;
* **scheduling** (:func:`obligation_groups`) partitions obligations
  into independent groups keyed by ``(function, containing-loop
  header)``.  Obligations in one group share invariant-reuse state
  (the engine's per-header proven/failed caches), so a group is the
  unit of dispatch: workers keep the serial engine's warm-cache
  behavior inside a group, and groups are free to run concurrently;
* **discharge** either serially (:func:`discharge_serial` — exactly
  the historical loop) or on a process pool
  (:func:`discharge_parallel`).  Workers rebuild the verification
  engine from the pickled program/spec/options payload, rehydrate the
  shipped formulas into their own intern tables, prove each obligation
  with the ordinary engine, and return verdicts plus a
  :class:`~repro.logic.prover.ProverStats` delta.  The parent merges
  verdicts by obligation id — a deterministic, order-independent
  merge — and **re-proves any obligation a worker could not prove**
  through the serial path, so the reported verdicts, violations, and
  proof records are identical to a serial run (workers can only ever
  accelerate proofs, never flip them).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.annotate import GlobalPredicate, NodeAnnotation
from repro.analysis.options import CheckerOptions
from repro.analysis.verify import (
    ProofRecord, VerificationEngine, Violation,
)
from repro.logic.formula import Formula
from repro.logic.parallel import ParallelProver, PoolUnavailable
from repro.logic.prover import Prover, ProverStats
from repro.logic.serialize import formula_digest
from repro.trace import Tracer


@dataclass(frozen=True)
class Obligation:
    """One global safety precondition, decoupled from its discharge.

    Picklable end to end: the formula rehydrates into the receiving
    process's intern tables, and the digest is the process-stable
    canonical-form key (also used by the persistent prover cache)."""

    oid: int        #: position in the deterministic generation order
    uid: int        #: CFG node the condition must hold before
    index: int      #: instruction index (for violation reports)
    kind: str       #: obligation kind ("global" for phase-5 VCs)
    predicate: GlobalPredicate
    digest: str

    @property
    def formula(self) -> Formula:
        return self.predicate.formula

    @property
    def category(self) -> str:
        return self.predicate.category

    @property
    def description(self) -> str:
        return self.predicate.description


def generate_obligations(annotations: Dict[int, NodeAnnotation]
                         ) -> List[Obligation]:
    """Emit the global proof obligations in the engine's historical
    order (sorted node uid, then annotation order)."""
    out: List[Obligation] = []
    for uid in sorted(annotations):
        ann = annotations[uid]
        for predicate in ann.global_:
            out.append(Obligation(
                oid=len(out), uid=uid, index=ann.index, kind="global",
                predicate=predicate,
                digest=formula_digest(predicate.formula)))
    return out


def obligation_groups(engine: VerificationEngine,
                      obligations: List[Obligation]
                      ) -> List[List[Obligation]]:
    """Partition obligations into scheduler groups.

    Two obligations belong to the same group when proving them shares
    engine state: the per-loop-header proven-invariant / failed-target
    caches and the per-function entry cache.  The key is therefore
    ``(function, containing-loop header)`` (header ``-1`` for straight-
    line code).  Groups come back ordered by first obligation id, each
    group internally in generation order."""
    buckets: Dict[Tuple[str, int], List[Obligation]] = {}
    for ob in obligations:
        node = engine.cfg.node(ob.uid)
        loop = engine.loops[node.function].containing(ob.uid)
        key = (node.function, loop.header if loop is not None else -1)
        buckets.setdefault(key, []).append(ob)
    return sorted(buckets.values(), key=lambda group: group[0].oid)


# ---------------------------------------------------------------------------
# serial discharge (the historical phase-5 loop)
# ---------------------------------------------------------------------------


def obligation_provenance(engine: VerificationEngine,
                          ob: Obligation) -> Dict[str, object]:
    """Attribution of one obligation back to the machine program: the
    1-based instruction index, its byte address (both frontends lower
    one fixed-width 4-byte instruction per IR op), the containing
    function, and the containing-loop header (None for straight-line
    code) — what a trace consumer needs to pinpoint the instruction a
    slow or failed proof protects."""
    node = engine.cfg.node(ob.uid)
    loop = engine.loops[node.function].containing(ob.uid)
    return {
        "oid": ob.oid,
        "digest": ob.digest,
        "kind": ob.kind,
        "category": ob.category,
        "description": ob.description,
        "instruction": ob.index,
        "address": (ob.index - 1) * 4,
        "function": node.function,
        "loop_header": loop.header if loop is not None else None,
    }


def _prove_obligation(engine: VerificationEngine, ob: Obligation,
                      retry: bool = False) -> bool:
    """Prove one obligation, wrapped in an "obligation" trace span
    carrying its provenance.  With tracing disabled this is exactly the
    historical ``engine.prove_at`` call plus the per-obligation
    touched-function reset (a set assignment)."""
    engine.reset_touched()
    if ob.category in engine.options.unsound_assume_categories:
        # Test-only fault injection (see CheckerOptions): assume the
        # obligation instead of proving it.  Deliberately unsound.
        return True
    tracer = engine.tracer
    if not tracer.enabled:
        return engine.prove_at(ob.uid, ob.formula, {}, 0)
    attrs = obligation_provenance(engine, ob)
    attrs["proved"] = None
    if retry:
        attrs["retry"] = True
    with tracer.span("obligation", **attrs) as span:
        proved = engine.prove_at(ob.uid, ob.formula, {}, 0)
        span.set(proved=proved)
    return proved


def prove_serial(engine: VerificationEngine,
                 obligations: List[Obligation]
                 ) -> Tuple[List[ProofRecord], List[Violation],
                            Dict[int, FrozenSet[str]]]:
    """The historical serial loop, also reporting per-obligation
    touched-function snapshots (consumed by the function-unit cache)."""
    records: List[ProofRecord] = []
    violations: List[Violation] = []
    touched: Dict[int, FrozenSet[str]] = {}
    for ob in obligations:
        proved = _prove_obligation(engine, ob)
        touched[ob.oid] = engine.touched_snapshot()
        _record(ob, proved, records, violations)
    return records, violations, touched


def discharge_serial(engine: VerificationEngine,
                     obligations: List[Obligation]
                     ) -> Tuple[List[ProofRecord], List[Violation]]:
    records, violations, _ = prove_serial(engine, obligations)
    return records, violations


def _record(ob: Obligation, proved: bool, records: List[ProofRecord],
            violations: List[Violation]) -> None:
    records.append(ProofRecord(uid=ob.uid, index=ob.index,
                               predicate=ob.predicate, proved=proved))
    if not proved:
        violations.append(Violation(
            index=ob.index, category=ob.category,
            description="cannot establish: %s" % ob.description,
            phase="global"))


# ---------------------------------------------------------------------------
# worker protocol
# ---------------------------------------------------------------------------

#: Per-process engine built by :func:`worker_initialize`.
_WORKER_STATE: Dict[str, object] = {}


def build_engine(program, spec, options: CheckerOptions
                 ) -> VerificationEngine:
    """Rebuild the phase-1/2 pipeline and a verification engine — used
    by pool workers, mirroring ``SafetyChecker._check`` up to phase 5."""
    from repro.cfg.builder import build_cfg
    from repro.analysis.prepare import prepare
    from repro.analysis.propagate import propagate

    preparation = prepare(spec, arch=program.arch)
    entry = 1
    label = spec.invocation.entry_label
    if label:
        entry = program.label_index(label)
    cfg = build_cfg(program, trusted_labels=set(spec.functions),
                    entry=entry)
    persistent = None
    if options.cache_path:
        from repro.logic.persist import PersistentProverCache
        persistent = PersistentProverCache(options.cache_path)
    prover = Prover(enable_cache=options.enable_prover_cache,
                    persistent=persistent)
    # Pool workers inherit the parent's absolute budget; it crosses
    # the process boundary as epoch seconds (monotonic clocks are
    # per-process) and is translated back to this process's monotonic
    # clock exactly once, here.  An expired budget makes every query
    # raise, so the worker fails fast and the parent converts the
    # unproved verdicts into a timeout.  The budget is installed before
    # re-running propagation so its worklist honours it too.
    if options.deadline_epoch is not None:
        prover.deadline = time.monotonic() \
            + (options.deadline_epoch - time.time())
    propagation = propagate(cfg, preparation, spec, options,
                            check_deadline=prover.check_deadline)
    engine = VerificationEngine(cfg, propagation, preparation, spec,
                                options, prover)
    if options.trace_spans:
        # The parent is tracing but its file handle does not cross the
        # process boundary: buffer records in memory; worker_discharge
        # ships them back inside the ordinary result pickle.
        engine.tracer = Tracer.buffered()
        engine.tracer.capture_formulas = options.trace_formulas
        prover.tracer = engine.tracer
    return engine


def worker_initialize(payload: bytes) -> None:
    """Pool-worker initializer: rebuild the engine from the pickled
    (program, spec, options) payload."""
    program, spec, options = pickle.loads(payload)
    _WORKER_STATE["engine"] = build_engine(program, spec, options)


def worker_discharge(blob: bytes):
    """Discharge one obligation group; returns ``(verdicts, stats
    delta, induction-run delta, trace records, touched)``.

    ``verdicts`` is ``[(oid, True/False/None)]`` — ``None`` marks a
    worker-side error; the parent re-proves those (and plain failures)
    serially.  Each task starts from empty per-check state — the
    engine's memos and the prover's result caches and counters are
    reset first — so its verdicts and stats do not depend on which
    earlier tasks the pool happened to give the same worker.
    ``trace records`` is the drained span buffer when the parent is
    tracing (empty otherwise); the parent re-roots the records into
    its own trace via :meth:`repro.trace.Tracer.forward`.
    ``touched`` maps each oid to the sorted touched-function list of
    its proof (see :meth:`VerificationEngine.touched_snapshot`)."""
    engine: VerificationEngine = _WORKER_STATE["engine"]  # type: ignore
    obligations: List[Obligation] = pickle.loads(blob)
    engine.reset_memos()
    engine.prover.reset()
    induction_before = engine.induction_runs
    verdicts: List[Tuple[int, Optional[bool]]] = []
    touched: Dict[int, List[str]] = {}
    for ob in obligations:
        try:
            verdicts.append((ob.oid, _prove_obligation(engine, ob)))
        except Exception:
            verdicts.append((ob.oid, None))
        touched[ob.oid] = sorted(engine.touched_snapshot())
    engine.prover.flush_persistent()
    stats = {spec.name: getattr(engine.prover.stats, spec.name)
             for spec in fields(ProverStats)}
    return (verdicts, stats, engine.induction_runs - induction_before,
            engine.tracer.drain(), touched)


# ---------------------------------------------------------------------------
# parallel discharge
# ---------------------------------------------------------------------------


def resolve_jobs(options: CheckerOptions) -> int:
    """``options.jobs``, with 0/negative meaning "all cores"."""
    if options.jobs > 0:
        return options.jobs
    return os.cpu_count() or 1


def prove_parallel(engine: VerificationEngine, program, spec,
                   options: CheckerOptions,
                   obligations: List[Obligation]
                   ) -> Tuple[List[ProofRecord], List[Violation], dict,
                              Dict[int, FrozenSet[str]]]:
    """Discharge on a process pool; falls back to the serial loop when
    the obligation graph offers no parallelism.  Raises
    :class:`PoolUnavailable` when the pool itself cannot run (caller
    handles the serial fallback so it can account for it).  Also
    returns the per-obligation touched-function map (worker snapshots,
    overridden by the parent's own snapshot for serial retries)."""
    jobs = resolve_jobs(options)
    groups = obligation_groups(engine, obligations)
    if jobs <= 1 or len(groups) < 2 or len(obligations) < 2:
        records, violations, touched = prove_serial(engine, obligations)
        return records, violations, {"pool_jobs": jobs,
                                     "pool_tasks_dispatched": 0}, touched

    # The pool workers share the persistent cache file; commit any
    # pending parent writes before they open it.
    engine.prover.flush_persistent()
    worker_options = replace(options, jobs=1, trace_path=None,
                             trace_spans=engine.tracer.enabled)
    pool = ParallelProver(jobs=min(jobs, len(groups)),
                          payload=(program, spec, worker_options),
                          initializer=worker_initialize,
                          worker=worker_discharge)
    # Largest groups first: the long poles start immediately.
    dispatch = sorted(groups, key=lambda g: (-len(g), g[0].oid))
    tasks = [list(group) for group in dispatch]
    results = pool.discharge(tasks, items=len(obligations))

    verdict: Dict[int, Optional[bool]] = {}
    touched_map: Dict[int, FrozenSet[str]] = {}
    worker_cache_hits = 0
    for task_index, (verdicts, stats, induction_delta, spans, touched) \
            in enumerate(results):
        for oid, proved in verdicts:
            verdict[oid] = proved
        for oid, labels in touched.items():
            touched_map[oid] = frozenset(labels)
        for name, value in stats.items():
            setattr(engine.prover.stats, name,
                    getattr(engine.prover.stats, name) + value)
        worker_cache_hits += (stats.get("cache_hits", 0)
                              + stats.get("canonical_cache_hits", 0)
                              + stats.get("conjunct_cache_hits", 0))
        engine._induction_runs += induction_delta
        engine.tracer.forward(spans, prefix="w%d:" % task_index)

    # Deterministic merge + serial re-proof of anything not proved in a
    # worker: the final verdict stream is the serial engine's.
    records: List[ProofRecord] = []
    violations: List[Violation] = []
    retries = 0
    for ob in obligations:
        proved = verdict.get(ob.oid)
        if proved is not True:
            retries += 1
            proved = _prove_obligation(engine, ob, retry=True)
            touched_map[ob.oid] = engine.touched_snapshot()
        _record(ob, proved, records, violations)
    engine.prover.flush_persistent()

    pool_info = pool.stats.as_dict()
    pool_info["pool_worker_cache_hits"] = worker_cache_hits
    pool_info["pool_serial_retries"] = retries
    return records, violations, pool_info, touched_map


def discharge_parallel(engine: VerificationEngine, program, spec,
                       options: CheckerOptions,
                       obligations: List[Obligation]
                       ) -> Tuple[List[ProofRecord], List[Violation],
                                  dict]:
    records, violations, pool_info, _ = prove_parallel(
        engine, program, spec, options, obligations)
    return records, violations, pool_info
