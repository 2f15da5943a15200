"""Check results and the Figure 9 reporting format.

A :class:`CheckResult` bundles everything the evaluation section of the
paper reports per example: program characteristics (instructions,
branches, loops, calls, number of global safety conditions), per-phase
wall-clock times, and the verification outcome (safe, or the list of
violations with their instructions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.annotate import NodeAnnotation
from repro.analysis.verify import ProofRecord, Violation


@dataclass
class PhaseTimes:
    """Seconds spent per phase, matching Figure 9's breakdown."""

    preparation: float = 0.0
    typestate_propagation: float = 0.0
    annotation_and_local: float = 0.0
    global_verification: float = 0.0

    @property
    def total(self) -> float:
        return (self.preparation + self.typestate_propagation
                + self.annotation_and_local + self.global_verification)


@dataclass
class ProgramCharacteristics:
    """The static features Figure 9 tabulates."""

    instructions: int = 0
    branches: int = 0
    loops: int = 0
    inner_loops: int = 0
    calls: int = 0
    trusted_calls: int = 0
    global_conditions: int = 0

    def loops_cell(self) -> str:
        if self.inner_loops:
            return "%d (%d)" % (self.loops, self.inner_loops)
        return str(self.loops)

    def calls_cell(self) -> str:
        if self.trusted_calls:
            return "%d (%d)" % (self.calls, self.trusted_calls)
        return str(self.calls)


@dataclass
class CheckResult:
    """Everything the safety checker reports for one program."""

    name: str
    safe: bool
    characteristics: ProgramCharacteristics
    times: PhaseTimes
    violations: List[Violation] = field(default_factory=list)
    proofs: List[ProofRecord] = field(default_factory=list)
    annotations: Dict[int, NodeAnnotation] = field(default_factory=dict)
    induction_runs: int = 0
    prover_queries: int = 0
    #: Snapshot of the prover's cache/fallback counters for this run
    #: (see :class:`repro.logic.prover.ProverStats.as_dict`); empty
    #: when the checker did not record them.
    prover_stats: Dict[str, float] = field(default_factory=dict)
    #: The instruction-set architecture the program was lowered from
    #: ("sparc", "riscv", ...); "" for results built before PR 4.
    arch: str = ""
    #: True when the check exceeded its wall-clock budget
    #: (``CheckerOptions.timeout_s``) and was aborted: the program is
    #: neither certified nor rejected.
    timed_out: bool = False

    # -- accessors ------------------------------------------------------------

    @property
    def verdict(self) -> str:
        """The three-valued outcome: ``certified`` (proved safe),
        ``rejected`` (violations found), or ``undecided:timeout``."""
        if self.timed_out:
            return "undecided:timeout"
        return "certified" if self.safe else "rejected"

    @property
    def local_violations(self) -> List[Violation]:
        return [v for v in self.violations if v.phase == "local"]

    @property
    def global_violations(self) -> List[Violation]:
        return [v for v in self.violations if v.phase == "global"]

    def violated_instructions(self) -> List[int]:
        return sorted({v.index for v in self.violations})

    def proved_count(self) -> int:
        return sum(1 for p in self.proofs if p.proved)

    # -- rendering -------------------------------------------------------------

    def annotated_listing(self, program) -> str:
        """Interleave the assembly listing with the per-instruction
        verdicts: flagged instructions get their violations inline, and
        instructions carrying proved global conditions are marked."""
        by_index = {}
        for violation in self.violations:
            by_index.setdefault(violation.index, []).append(violation)
        proved = {}
        for proof in self.proofs:
            if proof.proved:
                proved[proof.index] = proved.get(proof.index, 0) + 1
        lines = []
        width = len(str(len(program)))
        for inst in program:
            marker = "!!" if inst.index in by_index else \
                ("ok" if inst.index in proved else "  ")
            lines.append("%s %*d: %s" % (marker, width, inst.index,
                                         inst.render()))
            for violation in by_index.get(inst.index, ()):
                lines.append("%s      ^ %s (%s)"
                             % (" " * width, violation.description,
                                violation.category))
        return "\n".join(lines)

    def summary(self) -> str:
        outcome = "SAFE" if self.safe else "UNSAFE"
        if self.timed_out:
            outcome = "UNDECIDED (timeout)"
        lines = ["%s: %s" % (self.name, outcome)]
        c = self.characteristics
        lines.append(
            "  instructions=%d branches=%d loops=%s calls=%s "
            "global-conditions=%d"
            % (c.instructions, c.branches, c.loops_cell(), c.calls_cell(),
               c.global_conditions))
        lines.append(
            "  times: propagation=%.3fs annotation+local=%.4fs "
            "global=%.3fs total=%.3fs"
            % (self.times.typestate_propagation,
               self.times.annotation_and_local,
               self.times.global_verification, self.times.total))
        if self.prover_stats:
            s = self.prover_stats
            lines.append(
                "  prover: queries=%d raw-hits=%d canonical-hits=%d "
                "conjunct-hits=%d/%d fallbacks=%d"
                % (s.get("satisfiability_queries", 0),
                   s.get("cache_hits", 0),
                   s.get("canonical_cache_hits", 0),
                   s.get("conjunct_cache_hits", 0),
                   s.get("conjunct_queries", 0),
                   s.get("resource_fallbacks", 0)))
            if s.get("unit_lookups"):
                lines.append(
                    "  units: lookups=%d hits=%d misses=%d replayed=%d "
                    "stores=%d aborts=%d"
                    % (s.get("unit_lookups", 0), s.get("unit_hits", 0),
                       s.get("unit_misses", 0),
                       s.get("unit_replayed_obligations", 0),
                       s.get("unit_stores", 0),
                       s.get("unit_aborts", 0)))
            if s.get("unit_pipeline_lookups"):
                lines.append(
                    "  pipeline (phases 2-4): lookups=%d hits=%d "
                    "misses=%d replayed-functions=%d stores=%d"
                    % (s.get("unit_pipeline_lookups", 0),
                       s.get("unit_pipeline_hits", 0),
                       s.get("unit_pipeline_misses", 0),
                       s.get("unit_pipeline_replayed_functions", 0),
                       s.get("unit_pipeline_stores", 0)))
        for violation in self.violations:
            lines.append("  VIOLATION %s" % violation)
        return "\n".join(lines)


def result_to_json(result: CheckResult) -> Dict:
    """The machine-readable form of a check result.

    The single source of truth for ``repro check --json`` *and* the
    check service's job results: building both from one function is
    what makes service verdicts byte-identical to local ones.  The
    payload is self-describing (``arch`` + package ``version``), so a
    stored verdict can be interpreted without its producing process.

    Key order is fixed; ``times`` and ``prover`` are the only
    wall-clock-dependent entries (see :func:`verdict_projection`).
    """
    from repro import __version__
    return {
        "name": result.name,
        "arch": result.arch,
        "version": __version__,
        "verdict": result.verdict,
        "safe": result.safe,
        "timed_out": result.timed_out,
        "instructions": result.characteristics.instructions,
        "global_conditions":
            result.characteristics.global_conditions,
        "times": {
            "propagation": result.times.typestate_propagation,
            "annotation_local": result.times.annotation_and_local,
            "global": result.times.global_verification,
            "total": result.times.total,
        },
        "prover": result.prover_stats,
        "violations": [{
            "instruction": v.index,
            "category": v.category,
            "description": v.description,
            "phase": v.phase,
        } for v in result.violations],
    }


#: The keys of :func:`result_to_json` that vary run to run even for
#: identical inputs (timings, cache-dependent counters).
VOLATILE_JSON_KEYS = ("times", "prover")


def verdict_projection(payload: Dict) -> Dict:
    """The deterministic slice of a :func:`result_to_json` payload:
    identical inputs produce byte-identical serializations of this
    projection, whether checked locally or through the service."""
    return {key: value for key, value in payload.items()
            if key not in VOLATILE_JSON_KEYS}


#: Column layout of the Figure 9 table.
FIGURE9_COLUMNS = [
    "Example", "Instructions", "Branches", "Loops (Inner)", "Calls",
    "Global Conds", "Propagation (s)", "Annot+Local (s)", "Global (s)",
    "Total (s)", "Outcome",
]


def figure9_row(result: CheckResult) -> List[str]:
    c, t = result.characteristics, result.times
    return [
        result.name, str(c.instructions), str(c.branches),
        c.loops_cell(), c.calls_cell(), str(c.global_conditions),
        "%.3f" % t.typestate_propagation,
        "%.4f" % t.annotation_and_local,
        "%.3f" % t.global_verification,
        "%.3f" % t.total,
        "safe" if result.safe else
        "violations@%s" % ",".join(map(str,
                                       result.violated_instructions())),
    ]


def render_figure9(results: List[CheckResult]) -> str:
    """Render the main results table in the shape of paper Figure 9."""
    rows = [FIGURE9_COLUMNS] + [figure9_row(r) for r in results]
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(FIGURE9_COLUMNS))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * widths[i]
                                   for i in range(len(widths))))
    return "\n".join(lines)
