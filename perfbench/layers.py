"""Per-layer span tracing, installed from outside the checker.

The traced run wraps the public entry points of each checker layer at
their import sites: the attribute of every loaded ``repro`` module that
refers to the entry point is rebound to a wrapper, and methods are
replaced on their class.  Each wrapper records one span (layer, start,
end, parent span, check id) in flat in-memory arrays.  A call that
re-enters the layer already on top of the span stack (``simplify``
recursing into itself, ``to_dnf`` into its parts) runs unwrapped, so it
stays inside its caller's span.

A layer's self time is its span durations minus the durations of its
child spans; the benchmark's own per-check root span contributes the
``unattributed`` row.  Layers plus ``unattributed`` therefore sum to the
traced checks' wall time by construction.

Nothing here changes a verdict: wrappers pass arguments and results
through untouched and only read return values for the counts below.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) of every wrapped entry point.  A
#: dotted attribute path names a method (``Class.method``); the
#: frontends' ``FRONTEND.assemble`` is a field of a frozen dataclass.
ENTRY_POINTS: List[Tuple[str, str, str]] = [
    ("frontend", "repro.sparc.lower", "FRONTEND.assemble"),
    ("frontend", "repro.riscv.lower", "FRONTEND.assemble"),
    ("frontend", "repro.policy.parser", "parse_spec"),
    ("cfg", "repro.cfg.builder", "build_cfg"),
    ("cfg", "repro.cfg.callgraph", "CallGraph.check_no_recursion"),
    ("prepare", "repro.analysis.prepare", "prepare"),
    ("propagate", "repro.analysis.propagate", "propagate"),
    ("annotate", "repro.analysis.annotate", "annotate"),
    ("local", "repro.analysis.verify", "verify_local"),
    ("units", "repro.analysis.units", "PipelineCache.lookup"),
    ("units", "repro.analysis.units", "PipelineCache.store"),
    ("units", "repro.analysis.units", "UnitManager.lookup"),
    ("units", "repro.analysis.units", "UnitManager.prepare"),
    ("units", "repro.analysis.units", "UnitManager.replay"),
    ("units", "repro.analysis.units", "UnitManager.replay_conflicts"),
    ("units", "repro.analysis.units", "UnitManager.store"),
    ("units", "repro.analysis.units", "partition_units"),
    ("persist", "repro.logic.persist", "PersistentProverCache.__init__"),
    ("persist", "repro.logic.persist", "PersistentProverCache.get"),
    ("persist", "repro.logic.persist", "PersistentProverCache.put"),
    ("persist", "repro.logic.persist", "PersistentProverCache.get_unit"),
    ("persist", "repro.logic.persist", "PersistentProverCache.put_unit"),
    ("persist", "repro.logic.persist", "PersistentProverCache.flush"),
    ("persist", "repro.logic.persist", "PersistentProverCache.close"),
    ("verify", "repro.analysis.verify", "VerificationEngine.__init__"),
    ("verify", "repro.analysis.obligations", "generate_obligations"),
    ("verify", "repro.analysis.obligations", "prove_serial"),
    ("wlp", "repro.analysis.wlp", "WlpTransfer.node_transfer"),
    ("wlp", "repro.analysis.verify", "VerificationEngine.loop_body_wlp"),
    ("forward", "repro.analysis.forward", "ForwardBounds.__init__"),
    ("forward", "repro.analysis.forward", "ForwardBounds.facts_at"),
    ("induction", "repro.analysis.induction", "InductionIteration.run"),
    ("prover", "repro.logic.prover", "Prover.is_satisfiable"),
    ("prover", "repro.logic.prover", "Prover.eliminate_quantifiers"),
    ("prover", "repro.logic.incremental", "PrefixSession.__init__"),
    ("prover", "repro.logic.incremental", "PrefixSession.satisfiable_with"),
    ("simplify", "repro.logic.simplify", "simplify"),
    ("to_dnf", "repro.logic.normalize", "to_dnf"),
    ("canonicalize", "repro.logic.canonical", "canonicalize"),
    ("canonicalize", "repro.logic.canonical", "canonical_conjunct"),
    ("omega", "repro.logic.omega", "satisfiable"),
    ("omega", "repro.logic.omega", "project"),
    ("omega", "repro.logic.omega", "project_real"),
    ("diffsolver", "repro.logic.diffsolver", "try_satisfiable"),
]

#: Report order; ``unattributed`` is the root (per-check) span's self
#: time: check wall time covered by no layer.
LAYERS: List[str] = []
for _layer, _module, _attr in ENTRY_POINTS:
    if _layer not in LAYERS:
        LAYERS.append(_layer)
UNATTRIBUTED = "unattributed"
ROOT = len(LAYERS)  # layer id of the per-check root span


def _induction_counts(tracer: "SpanTracer", outcome) -> None:
    tracer.counts["induction.runs"] += 1
    tracer.counts["induction.successes"] += bool(outcome.success)
    tracer.counts["induction.candidates"] += outcome.candidates_tried


def _dnf_counts(tracer: "SpanTracer", conjuncts) -> None:
    tracer.counts["to_dnf.conjuncts"] += len(conjuncts)


def _diffsolver_counts(tracer: "SpanTracer", decided) -> None:
    tracer.counts["diffsolver.attempts"] += 1
    tracer.counts["diffsolver.decided"] += decided is not None


#: Counts taken from an entry point's return value, at the boundary.
RESULT_COUNTERS: Dict[Tuple[str, str], Callable] = {
    ("repro.analysis.induction", "InductionIteration.run"):
        _induction_counts,
    ("repro.logic.normalize", "to_dnf"): _dnf_counts,
    ("repro.logic.diffsolver", "try_satisfiable"): _diffsolver_counts,
}


class SpanTracer:
    """Records spans into flat arrays; one instance per traced run."""

    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.check = array("l")
        #: 1 when the span opened inside a span of its own layer.
        self.nested = array("b")
        self.counts: Dict[str, int] = {
            "induction.runs": 0, "induction.successes": 0,
            "induction.candidates": 0, "to_dnf.conjuncts": 0,
            "diffsolver.attempts": 0, "diffsolver.decided": 0,
        }
        #: Span ids and layer ids of the open spans, innermost last.
        self._open_spans: List[int] = []
        self._open_layers: List[int] = [-1]
        self._depth = [0] * (len(LAYERS) + 1)
        self._check_id = -1
        self._restore: List[Tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _push(self, layer_id: int) -> int:
        span = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._open_spans[-1] if self._open_spans
                           else -1)
        self.check.append(self._check_id)
        self.nested.append(self._depth[layer_id] > 0)
        self._depth[layer_id] += 1
        self.end.append(0.0)
        self._open_spans.append(span)
        self._open_layers.append(layer_id)
        self.start.append(time.perf_counter())
        return span

    def _pop(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._depth[self.layer[span]] -= 1
        self._open_spans.pop()
        self._open_layers.pop()

    @contextlib.contextmanager
    def check_span(self, check_id: int):
        """The root span of one timed check."""
        self._check_id = check_id
        span = self._push(ROOT)
        try:
            yield span
        finally:
            self._pop(span)
            self._check_id = -1

    def _wrap(self, layer_id: int, fn: Callable,
              on_result: Optional[Callable]) -> Callable:
        tracer = self
        open_layers = self._open_layers

        def wrapper(*args, **kwargs):
            if open_layers[-1] == layer_id:
                return fn(*args, **kwargs)
            span = tracer._push(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(span)
            if on_result is not None:
                on_result(tracer, result)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            layer_id = LAYERS.index(layer)
            on_result = RESULT_COUNTERS.get((module_name, attr))
            owner_name, _, name = attr.rpartition(".")
            if owner_name == "FRONTEND":
                frontend = module.FRONTEND
                wrapped = dataclasses.replace(
                    frontend, assemble=self._wrap(
                        layer_id, frontend.assemble, on_result))
                self._rebind(module, "FRONTEND", wrapped)
            elif owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._rebind(owner, name,
                             self._wrap(layer_id, original, on_result))
            else:
                original = getattr(module, name)
                wrapped = self._wrap(layer_id, original, on_result)
                # Every import site: each loaded repro module that
                # bound the function by name (``from x import f``).
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith(
                            "repro") \
                            and other.__dict__.get(name) is original:
                        self._rebind(other, name, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``total_s`` (inclusive; a span nested
        in a span of its own layer is not counted twice) and
        ``self_s``.  ``unattributed`` is the root spans' self time."""
        names = LAYERS + [UNATTRIBUTED]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in names}
        count = len(self.layer)
        child_time = [0.0] * count
        # Spans are stored in start order and a child always follows
        # its parent, so one reverse pass sees every child first.
        for span in range(count - 1, -1, -1):
            if self.check[span] < 0:
                continue  # outside every check (e.g. closing the store)
            duration = self.end[span] - self.start[span]
            parent = self.parent[span]
            if parent >= 0:
                child_time[parent] += duration
            row = table[names[self.layer[span]]]
            row["self_s"] += duration - child_time[span]
            row["calls"] += 1
            if not self.nested[span]:
                row["total_s"] += duration
        return table

    def write(self, path: str) -> None:
        """Write every span: a JSON header line (layer names, column
        order, counts), then each column as raw native-endian bytes,
        all gzipped."""
        columns = [("layer", self.layer), ("start", self.start),
                   ("end", self.end), ("parent", self.parent),
                   ("check", self.check)]
        header = {
            "layers": LAYERS + ["check"],
            "spans": len(self.layer),
            "columns": [[name, column.typecode, column.itemsize]
                        for name, column in columns],
            "counts": self.counts,
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _, column in columns:
                out.write(column.tobytes())
