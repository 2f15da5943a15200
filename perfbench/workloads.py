"""The benchmark's workloads: inputs from a seed, and the verdict gates.

Every workload is a list of checks per *pass*.  A check is program text
plus spec text (all the checker ever sees), an architecture, and an
optional persistent store.  The worker times each check from program
text to :class:`~repro.analysis.report.CheckResult` with default
:class:`~repro.analysis.options.CheckerOptions` (``jobs=1``), and calls
:meth:`Workload.verify` afterwards, outside the timed section.

* ``fig9`` — the paper's 13 Figure-9 programs on SPARC, no store.
* ``fuzz-corpus`` — generator seeds ``0 .. FUZZ_SKETCHES-1``, each
  lowered to SPARC and RV32I, checked cold into a fresh store per pass
  under a fixed per-check limit.
* ``recheck`` — unchanged warm re-checks of a store primed with the
  Figure-9 suite and the incremental chain program, plus the
  one-function edit against a store primed with the base program.

The run seed orders the checks of every pass (and adds concrete input
vectors to the fuzz oracle); the program sets themselves are fixed so
that run-to-run spread measures the checker, not the draw.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.report import result_to_json, verdict_projection


@dataclass
class Check:
    """One timed check: everything the checker receives, plus the
    bookkeeping the verdict gate needs."""

    key: str
    source: str
    spec_text: str
    arch: str = "sparc"
    store: Optional[str] = None
    #: Untimed preparation run just before the check (e.g. restoring
    #: a primed store from its snapshot).
    before: Optional[Callable[[], None]] = None
    meta: Dict[str, object] = field(default_factory=dict)


def _shuffled(items: list, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


def copy_store(src: str, dst: str) -> None:
    remove_store(dst)
    for suffix in ("", "-wal"):
        if os.path.exists(src + suffix):
            shutil.copyfile(src + suffix, dst + suffix)


def fingerprint(result) -> str:
    """The deterministic verdict content of a check (the same
    projection the service's byte-identity guarantee is stated on)."""
    return json.dumps(verdict_projection(result_to_json(result)),
                      sort_keys=True)


class Workload:
    """Base class: subclasses fill in the pass structure and gate."""

    name = ""
    #: Per-check wall-clock limit (None = unlimited).
    timeout_s: Optional[float] = None
    #: Nominal wall seconds of one pass (its checks plus their untimed
    #: per-check work) on the 2-core box the benchmark was built on; a
    #: run of ``--seconds S`` makes ``round(S / pass_s)`` passes (at
    #: least one), so equal ``--seconds`` always give the same samples.
    pass_s: float
    #: Whether every pass starts from an empty store (so the set-up
    #: probes open a new one rather than the run's).
    fresh_store = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)

    def checks(self) -> List[Check]:
        """The checks of one pass (fixed across the run's passes)."""
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Untimed per-pass reset (e.g. a fresh store)."""

    def verify(self, check: Check, result) -> Optional[str]:
        """Why *result* is wrong, or None.  Undecided checks are never
        wrong; they count against the decided ratio instead."""
        raise NotImplementedError

    def passes(self, seconds: float) -> int:
        """Whole passes a run of *seconds* makes."""
        return max(1, int(round(seconds / self.pass_s)))

    def report(self, samples) -> Dict[str, object]:
        """Workload-specific gap counts for the human report."""
        return {}

    def store_files(self) -> List[str]:
        """The persistent stores the timed checks use."""
        return []


class Fig9(Workload):
    name = "fig9"
    pass_s = 11.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        from repro.programs import all_programs
        self.programs = {p.name: p for p in all_programs()}
        self._checks = [
            Check(key=p.name, source=p.source, spec_text=p.spec_text)
            for p in _shuffled(all_programs(), self.rng)]

    def checks(self) -> List[Check]:
        return self._checks

    def verify(self, check: Check, result) -> Optional[str]:
        program = self.programs[check.key]
        if result.safe != program.expect_safe:
            return "verdict %s, expected %s" % (
                result.verdict, "safe" if program.expect_safe else "unsafe")
        flagged = set(result.violated_instructions())
        if flagged != set(program.expected_violation_indices):
            return "flagged %s, expected %s" % (
                sorted(flagged), sorted(program.expected_violation_indices))
        categories = {v.category for v in result.violations}
        if not categories <= set(program.expected_violation_categories):
            return "categories %s, expected within %s" % (
                sorted(categories),
                sorted(program.expected_violation_categories))
        return None


#: Generator seeds ``0 .. FUZZ_SKETCHES-1``, taken as they come.
FUZZ_SKETCHES = 60
#: Per-check limit of the fuzz corpus (seconds).
FUZZ_TIMEOUT_S = 2.0
#: Concrete input vectors per (sketch, arch): the fuzzer's own three
#: per sketch, plus two drawn from the run seed.
FUZZ_VECTORS = 3
FUZZ_RUN_VECTORS = 2


class FuzzCorpus(Workload):
    name = "fuzz-corpus"
    timeout_s = FUZZ_TIMEOUT_S
    pass_s = 30.0
    fresh_store = True

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        from repro.fuzz.generator import (
            ARCHS, generate_sketch, lower, spec_text,
        )
        self.store = os.path.join(workdir, "fuzz-store.sqlite")
        self.sketches = {s: generate_sketch(s)
                         for s in range(FUZZ_SKETCHES)}
        checks = []
        for s, sketch in self.sketches.items():
            for arch in ARCHS:
                checks.append(Check(
                    key="%d/%s" % (s, arch), source=lower(sketch, arch),
                    spec_text=spec_text(sketch, arch), arch=arch,
                    store=self.store, meta={"seed": s}))
        self._checks = _shuffled(checks, self.rng)

    def checks(self) -> List[Check]:
        return self._checks

    def begin_pass(self) -> None:
        remove_store(self.store)

    def vectors(self, sketch_seed: int) -> List[List[int]]:
        from repro.fuzz.generator import make_vectors
        size = self.sketches[sketch_seed].array_size
        return make_vectors(sketch_seed, size, FUZZ_VECTORS) + \
            make_vectors((self.seed << 20) ^ sketch_seed, size,
                         FUZZ_RUN_VECTORS)

    def verify(self, check: Check, result) -> Optional[str]:
        if result.timed_out or not result.safe:
            return None
        from repro.fuzz.oracle import run_concrete
        sketch = self.sketches[check.meta["seed"]]
        for vector in self.vectors(sketch.seed):
            run = run_concrete(sketch, check.arch, vector)
            if not run.clean:
                return "certified safe, but a concrete run %s" % (
                    run.violation.as_dict() if run.violation
                    else run.fault)
        return None

    def report(self, samples) -> Dict[str, object]:
        undecided = sorted({(s.check.meta["seed"], s.check.arch)
                            for s in samples if not s.decided})
        return {"per_check_limit_s": FUZZ_TIMEOUT_S,
                "undecided": ["%d/%s" % pair for pair in undecided]}

    def store_files(self) -> List[str]:
        return [self.store]


class Recheck(Workload):
    name = "recheck"
    pass_s = 7.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        from repro.bench import (
            INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
        )
        from repro.programs import all_programs
        self.store = os.path.join(workdir, "primed.sqlite")
        self.base_snapshot = os.path.join(workdir, "base-snapshot.sqlite")
        self.edit_store = os.path.join(workdir, "edit.sqlite")
        self.base = Check(key="incremental", source=INCREMENTAL_SOURCE,
                          spec_text=INCREMENTAL_SPEC)
        self.suite = [Check(key=p.name, source=p.source,
                            spec_text=p.spec_text)
                      for p in all_programs()]
        warm = [Check(key=c.key, source=c.source, spec_text=c.spec_text,
                      store=self.store)
                for c in [self.base] + self.suite]
        edited = Check(key="incremental-edit",
                       source=INCREMENTAL_EDITED_SOURCE,
                       spec_text=INCREMENTAL_SPEC, store=self.edit_store,
                       before=lambda: copy_store(self.base_snapshot,
                                                  self.edit_store))
        self._checks = _shuffled(warm + [edited], self.rng)
        #: Cold, store-free fingerprints by check key, filled in by the
        #: worker before timing starts.
        self.reference: Dict[str, str] = {}

    def checks(self) -> List[Check]:
        return self._checks

    def reference_checks(self) -> List[Check]:
        """The store-free cold counterparts of every timed check."""
        return [Check(key=c.key, source=c.source, spec_text=c.spec_text)
                for c in self._checks]

    def priming_checks(self) -> List[Check]:
        """Cold checks that fill the stores: the base program first (its
        store is then snapshotted for the edit check), then the suite."""
        return [Check(key=c.key, source=c.source, spec_text=c.spec_text,
                      store=self.store)
                for c in [self.base] + self.suite]

    def verify(self, check: Check, result) -> Optional[str]:
        if result.timed_out:
            return None
        expected = self.reference[check.key]
        if fingerprint(result) != expected:
            return "warm fingerprint differs from the cold one"
        return None

    def report(self, samples) -> Dict[str, object]:
        """Per program: unit hit ratio and prover-query count of the
        last warm re-check (which programs never replay)."""
        last = {}
        for sample in samples:
            last[sample.check.key] = sample
        out = {}
        for key in sorted(last):
            stats = last[key].stats
            lookups = stats.get("unit_lookups", 0)
            out[key] = {
                "unit_hits": stats.get("unit_hits", 0),
                "unit_lookups": lookups,
                "units.hit_ratio": (stats.get("unit_hits", 0) / lookups
                                    if lookups else None),
                "prover_queries": stats.get("satisfiability_queries", 0),
                "persistent_hits": stats.get("persistent_cache_hits", 0),
            }
        return {"per_program": out}

    def store_files(self) -> List[str]:
        return [self.store, self.edit_store]


WORKLOADS = {cls.name: cls for cls in (Fig9, FuzzCorpus, Recheck)}
