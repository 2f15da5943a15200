"""The concrete-execution oracle and the differential verdict.

One side of the differential is the static checker's verdict on a
lowered sketch; the other side is what the machine actually does: a
runtime safety monitor wraps the concrete emulator (SPARC or RV32I)
and enforces the *same* region/bounds policy the checker verifies
statically, recording violation events with addresses, sizes, and
instruction indices.  Classifying one ``(sketch, arch)`` pair over a
set of random input vectors yields one of:

* ``soundness`` — the checker certified the program but the monitor
  observed a violation on some input.  The critical direction: a
  counterexample to the paper's soundness claim.
* ``incompleteness`` — the checker rejected the program but the
  monitor stayed clean across every input vector.  Expected (safety
  is undecidable; the checker is conservative), but worth triaging
  when a class of obviously-safe programs piles up.
* ``agree`` — certified and clean, or rejected and concretely caught.
* ``undecided`` — the static check hit its wall-clock budget.

A second differential runs *across* architectures:
:func:`compare_archs` executes the same sketch's SPARC and RV32I
lowerings on the same inputs and demands identical observables —
temporaries, loop counters, array contents, and (for violating runs)
the faulting address/size/kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import EmulationError, RegionViolation
from repro.analysis.options import CheckerOptions
from repro.fuzz.generator import (
    ARRAY_BASE, COUNTERS, SIZE_REG, SKETCH_REGS, TEMPS, Sketch,
    assemble, lower, spec_text,
)

#: Differential verdict classes.
SOUNDNESS = "soundness"
INCOMPLETENESS = "incompleteness"
AGREE = "agree"
UNDECIDED = "undecided"
#: Cross-architecture observable mismatch (not a checker verdict).
DIVERGENCE = "divergence"

#: Default wall-clock budget for one static check during fuzzing.
DEFAULT_CHECK_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ViolationEvent:
    """One runtime policy violation observed by the safety monitor."""

    address: int
    size: int
    kind: str      #: "load" or "store"
    index: int     #: one-based machine instruction index

    def as_dict(self) -> dict:
        return {"address": self.address, "size": self.size,
                "kind": self.kind, "instruction": self.index}


@dataclass(frozen=True)
class Observables:
    """Architecture-neutral outcome of one clean concrete run."""

    temps: Tuple[int, ...]
    counters: Tuple[int, ...]
    memory: Tuple[int, ...]


@dataclass
class ConcreteRun:
    """Outcome of one monitored emulation of one input vector."""

    violation: Optional[ViolationEvent] = None
    fault: Optional[str] = None      #: non-region EmulationError text
    observables: Optional[Observables] = None
    accesses: int = 0                #: loads/stores the monitor saw
    steps: int = 0

    @property
    def clean(self) -> bool:
        return self.violation is None and self.fault is None


class SafetyMonitor:
    """Wrap an emulator with the sketch's runtime access policy.

    Registers the array region (read-only or writable, exactly as the
    generated host specification declares it) and observes every
    program-level memory access through the emulator's
    ``memory_check`` hook.  The wrapped emulator raises
    :class:`~repro.errors.RegionViolation` the moment an access
    escapes the policy — execution stops at the first violation, the
    same point the static checker must have proven unreachable."""

    def __init__(self, emulator, sketch: Sketch,
                 base: int = ARRAY_BASE):
        self.emulator = emulator
        self.accesses = 0
        emulator.add_region(base, 4 * sketch.array_size,
                            writable=sketch.array_writable)
        emulator.memory_check = self._observe

    def _observe(self, address: int, size: int, kind: str,
                 index: int) -> None:
        self.accesses += 1

    def run(self) -> Tuple[Optional[ViolationEvent], Optional[str]]:
        """Run to completion; returns ``(violation, fault)``."""
        try:
            self.emulator.run()
        except RegionViolation as violation:
            return (ViolationEvent(violation.address, violation.size,
                                   violation.kind, violation.index),
                    None)
        except EmulationError as error:
            return None, str(error)
        return None, None


def _make_emulator(sketch: Sketch, arch: str, max_steps: int):
    program = assemble(sketch, arch)
    if arch == "sparc":
        from repro.sparc.emulator import Emulator
    else:
        from repro.riscv.emulator import Emulator
    return Emulator(program, max_steps=max_steps)


def run_concrete(sketch: Sketch, arch: str, values: Sequence[int],
                 max_steps: int = 200_000) -> ConcreteRun:
    """One monitored concrete execution of *sketch* on *arch* with the
    array initialized to *values*."""
    emulator = _make_emulator(sketch, arch, max_steps)
    emulator.write_words(ARRAY_BASE, values)
    regs = SKETCH_REGS[arch]
    base_reg = {"sparc": "%o0", "riscv": "a0"}[arch]
    emulator.set_register(base_reg, ARRAY_BASE)
    emulator.set_register(SIZE_REG[arch], sketch.array_size)
    monitor = SafetyMonitor(emulator, sketch)
    violation, fault = monitor.run()
    run = ConcreteRun(violation=violation, fault=fault,
                      accesses=monitor.accesses,
                      steps=emulator.steps)
    if run.clean:
        run.observables = Observables(
            temps=tuple(emulator.register_signed(regs[t])
                        for t in TEMPS),
            counters=tuple(emulator.register_signed(regs[c])
                           for c in COUNTERS),
            memory=tuple(emulator.read_words(ARRAY_BASE,
                                             sketch.array_size)))
    return run


# ---------------------------------------------------------------------------
# static side
# ---------------------------------------------------------------------------


def check_options(timeout_s: Optional[float] = DEFAULT_CHECK_TIMEOUT_S,
                  overrides: Optional[Dict[str, object]] = None
                  ) -> CheckerOptions:
    """Checker options for fuzzing: no replay store, a bounded
    wall clock, plus explicit *overrides* (the self-test injects its
    deliberate weakening here)."""
    options = CheckerOptions(cache_path=None, trace_path=None,
                             timeout_s=timeout_s)
    for name, value in (overrides or {}).items():
        if not hasattr(options, name):
            raise AttributeError("unknown checker option %r" % name)
        setattr(options, name, value)
    return options


def static_verdict(sketch: Sketch, arch: str,
                   options: Optional[CheckerOptions] = None):
    """Run the safety checker on the *arch* lowering of *sketch*."""
    from repro.analysis.checker import SafetyChecker
    from repro.policy.parser import parse_spec
    if options is None:
        options = check_options()
    spec = parse_spec(spec_text(sketch, arch))
    with SafetyChecker(lower(sketch, arch), spec, options=options,
                       name="fuzz-seed%d" % sketch.seed,
                       arch=arch) as checker:
        return checker.check()


# ---------------------------------------------------------------------------
# the differential verdict
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    """The differential verdict for one ``(sketch, arch)`` pair."""

    kind: str
    arch: str
    static_safe: bool
    timed_out: bool
    runs: List[ConcreteRun] = field(default_factory=list)
    static_violations: List[dict] = field(default_factory=list)

    @property
    def first_violation(self) -> Optional[ViolationEvent]:
        for run in self.runs:
            if run.violation is not None:
                return run.violation
        return None

    def as_dict(self) -> dict:
        violations = [run.violation.as_dict() for run in self.runs
                      if run.violation is not None]
        faults = [run.fault for run in self.runs
                  if run.fault is not None]
        return {
            "class": self.kind,
            "arch": self.arch,
            "static_safe": self.static_safe,
            "timed_out": self.timed_out,
            "vectors": len(self.runs),
            "runtime_violations": violations,
            "runtime_faults": faults,
            "static_violations": self.static_violations,
        }


def classify(sketch: Sketch, arch: str,
             vectors: Sequence[Sequence[int]],
             options: Optional[CheckerOptions] = None
             ) -> Classification:
    """Classify one ``(sketch, arch)`` pair over *vectors*."""
    result = static_verdict(sketch, arch, options=options)
    runs = [run_concrete(sketch, arch, vector) for vector in vectors]
    violated = any(not run.clean for run in runs)
    if result.timed_out:
        kind = UNDECIDED
    elif result.safe and violated:
        kind = SOUNDNESS
    elif not result.safe and not violated:
        kind = INCOMPLETENESS
    else:
        kind = AGREE
    return Classification(
        kind=kind, arch=arch, static_safe=result.safe,
        timed_out=result.timed_out, runs=runs,
        static_violations=[
            {"instruction": v.index, "category": v.category,
             "phase": v.phase}
            for v in result.violations])


def compare_archs(sketch: Sketch,
                  vectors: Sequence[Sequence[int]]) -> List[str]:
    """Cross-architecture differential: run the SPARC and RV32I
    lowerings of *sketch* on the same inputs and report every
    observable mismatch (empty list = parity).

    Instruction indices differ between the lowerings, so violating
    runs compare on the architecture-neutral facts: the faulting
    address, access size, and access kind."""
    problems: List[str] = []
    for i, vector in enumerate(vectors):
        sparc = run_concrete(sketch, "sparc", vector)
        riscv = run_concrete(sketch, "riscv", vector)
        if (sparc.violation is None) != (riscv.violation is None):
            problems.append(
                "vector %d: violation on %s only" %
                (i, "sparc" if sparc.violation else "riscv"))
            continue
        if sparc.violation is not None and riscv.violation is not None:
            left, right = sparc.violation, riscv.violation
            if (left.address, left.size, left.kind) != \
                    (right.address, right.size, right.kind):
                problems.append(
                    "vector %d: violation mismatch %s vs %s"
                    % (i, left.as_dict(), right.as_dict()))
            continue
        if (sparc.fault is None) != (riscv.fault is None):
            problems.append("vector %d: fault on %s only"
                            % (i, "sparc" if sparc.fault else "riscv"))
            continue
        if sparc.fault is not None:
            continue
        if sparc.observables != riscv.observables:
            problems.append(
                "vector %d: observables differ: %r vs %r"
                % (i, sparc.observables, riscv.observables))
    return problems
