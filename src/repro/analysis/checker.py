"""The safety checker facade: the five-phase pipeline of the paper.

``SafetyChecker(program, spec).check()`` runs

1. preparation,
2. typestate propagation,
3. annotation,
4. local verification, and
5. global verification,

and returns a :class:`~repro.analysis.report.CheckResult` that either
certifies the program safe or pinpoints the instructions where safety
conditions are violated.  Programs can be supplied as assembly text or
raw machine-code bytes/words (routed through the *arch* frontend — the
checker operates on binary code), as an already-lowered
:class:`~repro.ir.program.MachineProgram`, or as any frontend program
object with a ``lower()`` method.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

from repro import budget
from repro.errors import ProverTimeout
from repro.cfg.builder import build_cfg
from repro.cfg.callgraph import CallGraph
from repro.cfg.graph import CFG
from repro.cfg.loops import find_loops
from repro.ir.frontend import get_frontend
from repro.ir.ops import Call
from repro.ir.program import MachineProgram
from repro.logic.prover import Prover
from repro.policy.model import HostSpec
from repro.trace import NULL_TRACER, Tracer
from repro.analysis.annotate import annotate
from repro.analysis.options import CheckerOptions
from repro.analysis.prepare import prepare
from repro.analysis.propagate import propagate
from repro.analysis.report import (
    CheckResult, PhaseTimes, ProgramCharacteristics,
)
from repro.analysis.verify import (
    VerificationEngine, verify_local,
)


class SafetyChecker:
    """Checks one untrusted program against one host specification."""

    def __init__(self, program: Union[MachineProgram, str, bytes, list],
                 spec: HostSpec,
                 options: Optional[CheckerOptions] = None,
                 name: Optional[str] = None,
                 arch: str = "sparc",
                 prover: Optional[Prover] = None,
                 tracer: Optional[Tracer] = None):
        if isinstance(program, str):
            frontend = get_frontend(arch)
            program = frontend.assemble(program, name=name or "untrusted")
        elif isinstance(program, (bytes, bytearray, list)):
            frontend = get_frontend(arch)
            if frontend.decode is None:
                raise ValueError("the %s frontend has no decoder"
                                 % frontend.name)
            program = frontend.decode(program, name=name or "decoded")
        if not isinstance(program, MachineProgram):
            program = program.lower()
        self.program: MachineProgram = program
        if name:
            self.program.name = name
        self.spec = spec
        self.options = options or CheckerOptions()
        # The replay store is always the checker's own handle on
        # ``options.cache_path``; close() releases it.  Opened first: a
        # path that is not a store raises before anything else opens.
        self.persistent = None
        if self.options.cache_path:
            from repro.logic.persist import PersistentProverCache
            self.persistent = PersistentProverCache(
                self.options.cache_path)
        # An injected tracer (the service traces each job into its own
        # file) is borrowed; otherwise the checker opens — and owns —
        # the sink named by ``options.trace_path``, if any.
        self._owns_tracer = tracer is None and \
            bool(self.options.trace_path)
        if tracer is not None:
            self.tracer = tracer
        elif self.options.trace_path:
            self.tracer = Tracer.to_path(self.options.trace_path)
        else:
            self.tracer = NULL_TRACER
        # An injected prover (the service keeps one warm prover per
        # worker) is borrowed with its caches: satisfiability depends
        # only on the formula, so cross-request reuse is sound.
        self.prover = prover if prover is not None else Prover(
            enable_cache=self.options.enable_prover_cache)

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Release checker-owned resources deterministically: flush and
        close the replay store so long-lived hosts — the check
        service's workers — never leak SQLite handles."""
        if self.persistent is not None:
            self.persistent.close()
        if self._owns_tracer:
            self.tracer.close()

    def __enter__(self) -> "SafetyChecker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pipeline -----------------------------------------------------------------

    def check(self) -> CheckResult:
        self.prover.tracer = self.tracer
        try:
            with self.tracer.span("check", program=self.program.name,
                                  arch=self._arch_name()) as root:
                try:
                    with budget.limit(self.options.timeout_s):
                        result = self._check()
                except ProverTimeout:
                    result = self._timeout_result()
                root.set(verdict=result.verdict)
            return result
        finally:
            # A warm prover reused across requests must not inherit a
            # finished check's trace sink.
            self.prover.tracer = NULL_TRACER
            if self.persistent is not None:
                self.persistent.flush()

    def _timeout_result(self) -> CheckResult:
        """The distinct "undecided: timeout" verdict: the check was
        aborted, so the program is neither certified nor rejected."""
        return CheckResult(
            name=self.program.name,
            safe=False,
            timed_out=True,
            arch=self._arch_name(),
            characteristics=ProgramCharacteristics(),
            times=PhaseTimes(),
            prover_stats=self.prover.stats.as_dict(),
        )

    def _arch_name(self) -> str:
        info = self.program.arch
        return getattr(info, "name", "") or ""

    def _header_facts(self, engine) -> Dict[int, "Formula"]:
        """Loop-header forward facts worth persisting: only when the
        forward pass is enabled (otherwise every header reads TRUE and
        the replay path would not consult them either)."""
        if not self.options.enable_forward_bounds:
            return {}
        facts = {}
        for label in engine.cfg.functions:
            for loop in engine.loops[label].loops:
                facts[loop.header] = engine.header_facts(loop)
        return facts

    def _check(self) -> CheckResult:
        times = PhaseTimes()

        # Phase 1: preparation.
        t0 = time.perf_counter()
        with self.tracer.span("phase:preparation"):
            preparation = prepare(self.spec, arch=self.program.arch)
            entry = 1
            label = self.spec.invocation.entry_label
            if label:
                entry = self.program.label_index(label)
            cfg = build_cfg(self.program,
                            trusted_labels=set(self.spec.functions),
                            entry=entry)
            CallGraph(cfg).check_no_recursion()
        times.preparation = time.perf_counter() - t0

        # Phases 2–4 replay: with a replay store, the phase 2–4
        # artifacts of an unchanged program (body + CFG structure, spec,
        # verdict-affecting options all digest-identical) come from the
        # store — a warm unchanged re-check is digest computation plus
        # lookups end-to-end.
        pipeline = None
        replayed = None
        if self.persistent is not None:
            from repro.analysis.units import PipelineCache
            pipeline = PipelineCache(cfg, self.spec, self.options,
                                     self._arch_name(), self.persistent)
            t0 = time.perf_counter()
            replayed = pipeline.lookup()
            if replayed is not None:
                with self.tracer.span(
                        "phase:replayed",
                        functions=len(cfg.functions),
                        nodes=len(replayed.propagation.inputs),
                        local_violations=len(replayed.local_violations)):
                    propagation = replayed.propagation
                    annotations = replayed.annotations
                    local_violations = replayed.local_violations
                # The whole warm phase 2–4 cost is the lookup itself;
                # report it where the phases it replaces would have.
                times.typestate_propagation = time.perf_counter() - t0

        if replayed is None:
            # Phase 2: typestate propagation.
            t0 = time.perf_counter()
            with self.tracer.span("phase:typestate_propagation"):
                propagation = propagate(
                    cfg, preparation, self.spec, self.options)
            times.typestate_propagation = time.perf_counter() - t0

            # Phase 3 + 4: annotation and local verification.
            t0 = time.perf_counter()
            with self.tracer.span("phase:annotation"):
                annotations = annotate(
                    cfg, propagation.inputs, self.spec,
                    preparation.locations)
            with self.tracer.span("phase:local_verification"):
                local_violations = verify_local(annotations)
                if self.spec.automata:
                    from repro.analysis.automaton import check_automata
                    local_violations = local_violations \
                        + check_automata(cfg, self.spec)
            times.annotation_and_local = time.perf_counter() - t0

        # Phase 5: global verification — obligation generation, then
        # discharge.
        t0 = time.perf_counter()
        with self.tracer.span("phase:global_verification"):
            forward = None
            if replayed is not None \
                    and self.options.enable_forward_bounds:
                from repro.analysis.forward import ReplayedForward
                forward = ReplayedForward(replayed.header_facts)
            engine = VerificationEngine(cfg, propagation, preparation,
                                        self.spec, self.options,
                                        self.prover, forward=forward)
            engine.tracer = self.tracer
            if pipeline is not None and replayed is None:
                # Freshly computed phases 2–4: persist them (the engine
                # has just run the forward pass, so the header facts
                # exist now).  A later phase-5 timeout does not unstore
                # them — they are complete, and the next attempt with a
                # bigger budget replays straight through to phase 5.
                from repro.analysis.units import PipelineReplay
                pipeline.store(PipelineReplay(
                    propagation, annotations, local_violations,
                    self._header_facts(engine)))
            proofs, global_violations, unit_stats = \
                self._discharge(engine, annotations)
        times.global_verification = time.perf_counter() - t0

        violations = local_violations + global_violations
        characteristics = self._characteristics(cfg, annotations)
        prover_stats = self.prover.stats.as_dict()
        prover_stats.update(unit_stats)
        if pipeline is not None:
            prover_stats.update(pipeline.stats)
        return CheckResult(
            name=self.program.name,
            safe=not violations,
            arch=self._arch_name(),
            characteristics=characteristics,
            times=times,
            violations=violations,
            proofs=proofs,
            annotations=annotations,
            induction_runs=engine.induction_runs,
            prover_queries=self.prover.stats.satisfiability_queries,
            prover_stats=prover_stats,
        )

    def _discharge(self, engine: VerificationEngine, annotations):
        """Run phase 5 through the obligation engine, function unit by
        function unit: groups of units whose content digests and
        dependency context match a stored verdict replay it
        (``unit_hits``), the rest are proved fresh.  Returns (records,
        violations, unit-cache counters); without a replay store
        every obligation is proved fresh and there are no counters."""
        from repro.analysis.obligations import generate_obligations
        obligations = generate_obligations(annotations)
        if self.persistent is None:
            proofs, violations, _ = self._prove(engine, obligations)
            return proofs, violations, {}

        from repro.analysis.units import UnitManager, partition_units
        manager = UnitManager(engine, self.persistent, self.options,
                              self._arch_name())
        units = partition_units(engine, obligations)
        groups, fresh_units = manager.lookup(units)
        fresh = list(obligations)
        if groups:
            fresh = sorted((ob for unit in fresh_units
                            for ob in unit.obligations),
                           key=lambda ob: ob.oid)
        _, _, touched = self._prove(engine, fresh)
        if manager.replay_conflicts(touched, groups):
            # A fresh proof walked into a replayed group's dependency
            # set: the uncached counterpart run could have interleaved
            # memo state between them, so only a full fresh run
            # reproduces it bit for bit.  The prover keeps its caches —
            # they are truth-deterministic — so the redo is cheap.
            manager.abort_replay()
            groups, fresh_units = [], units
            redo = VerificationEngine(engine.cfg, engine.propagation,
                                      engine.preparation, self.spec,
                                      self.options, self.prover)
            redo.tracer = self.tracer
            _, _, touched = self._prove(redo, obligations)
            engine._induction_runs += redo.induction_runs
        proved_by_oid = dict(self._fresh_verdicts)
        for group in groups:
            proved_by_oid.update(manager.replay(group))
        records = []
        violations = []
        from repro.analysis.obligations import _record
        for ob in obligations:
            _record(ob, proved_by_oid[ob.oid], records, violations)
        manager.store(fresh_units, touched, self._fresh_verdicts)
        return records, violations, manager.stats

    def _prove(self, engine: VerificationEngine, obligations):
        """Prove a list of obligations in order.  Returns (records,
        violations, touched-by-oid); it also leaves the per-oid
        verdicts in ``self._fresh_verdicts``."""
        # Imported at call time, so a profiler that rebinds
        # ``obligations.prove_serial`` sees every phase-5 discharge.
        from repro.analysis.obligations import prove_serial
        records, violations, touched = prove_serial(engine, obligations)
        self._fresh_verdicts = {ob.oid: record.proved
                                for ob, record in zip(obligations,
                                                      records)}
        return records, violations, touched

    # -- characteristics (Figure 9 columns) -----------------------------------------

    def _characteristics(self, cfg: CFG, annotations
                         ) -> ProgramCharacteristics:
        counts = self.program.counts()
        loops = inner = 0
        for label in cfg.functions:
            forest = find_loops(cfg, label)
            loops += forest.count
            inner += forest.inner_count
        trusted = 0
        for op in self.program:
            if isinstance(op, Call):
                if op.target == 0 or (op.target_label
                                      and op.target_label
                                      in self.spec.functions):
                    trusted += 1
        global_conditions = sum(len(a.global_)
                                for a in annotations.values())
        return ProgramCharacteristics(
            instructions=counts["instructions"],
            branches=counts["branches"],
            loops=loops, inner_loops=inner,
            calls=counts["calls"], trusted_calls=trusted,
            global_conditions=global_conditions,
        )


def check_assembly(source: str, spec_text: str,
                   name: str = "untrusted",
                   options: Optional[CheckerOptions] = None,
                   arch: str = "sparc") -> CheckResult:
    """One-call convenience: assemble *source* for *arch*, parse
    *spec_text*, run the checker."""
    from repro.policy.parser import parse_spec
    return SafetyChecker(source, parse_spec(spec_text), options=options,
                         name=name, arch=arch).check()
