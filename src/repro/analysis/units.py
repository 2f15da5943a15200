"""Function-granular verification units and their verdict cache.

Phase 5 discharges one proof obligation at a time, and obligations are
naturally owned by the function containing their program point.  This
module groups them into :class:`FunctionUnit` records and keys each
unit with a process-stable content digest of everything that can affect
its verdicts:

* the **function input digest** — the function's IR ops (rendered
  position-independently: function-local node ordinals and
  function-relative instruction indices, so editing one function never
  perturbs another's digest), its CFG edges, the reaching typestate
  context (the propagated abstract store before every node), and the
  forward-propagated facts at each loop header;
* the **spec digest** — the host specification (types, locations,
  trusted functions, policy rules, invocation, constraints);
* the **options digest** — the verdict-affecting checker options
  (:data:`VERDICT_AFFECTING_OPTIONS`; performance-only knobs such as
  the prover cache are deliberately excluded, and so
  is ``timeout_s`` — a sound verdict replayed under a timeout is a
  feature, and timed-out runs never store units).

The :class:`UnitManager` stores units as *groups* in the replay
store (:meth:`repro.logic.persist.PersistentProverCache.get_unit`)
and replays whole groups before proving; warm-path cost for an
unchanged group is hashing plus one indexed lookup.

**Soundness of replay.**  Induction iteration is incomplete, so the
engine's cross-obligation memo state (proven invariants, failed
targets, entry caches) can *flip* verdicts depending on which proofs
ran before.  All of that state is function-scoped, and the engine
records which functions each obligation's proof walked
(:meth:`~repro.analysis.verify.VerificationEngine.touched_snapshot`).
A unit's *dependency set* is its own label plus every function its
obligations' proofs touched.  Replay follows these rules:

* **group rule** — after fresh proving, the fresh units split into the
  connected components of the "dependency sets overlap" relation.
  Each component whose verdicts and touched sets are all known is
  stored as one payload, keyed under its first unit (the *anchor*):
  ``members`` (each member's label and ``[digest, proved]`` list, in
  unit order) and ``deps`` (the union of the members' dependency sets
  with their input digests).  No proof outside the component touched
  any function in it, and the memo state is function-scoped, so
  proving the component alone in oid order on a virgin engine gives
  the verdicts of the full run.  A self-contained unit is a one-member
  group; a caller and callee whose proofs touch each other are one
  two-member group;
* **lookup rule** — a hit on the anchor's key replays every member at
  once, valid only when every member is a unit of the current
  partition (anchor first, in unit order), each member's obligation
  digests match, every dependency's input digest matches, and every
  current unit named in ``deps`` is a member (it would otherwise be
  proved fresh beside the replay);
* **claimed-set rule** — an accepted payload claims its ``deps``; a
  later payload whose ``deps`` overlap a claim is rejected (two
  replayed groups sharing a dependency could have influenced each
  other in the uncached counterpart run), and a fresh component whose
  ``deps`` overlap a claim is not stored;
* **abort rule** — after replaying cached groups and proving the rest,
  if any freshly proved obligation touched a function inside a
  replayed group's ``deps``, the run discards the replay and re-proves
  everything on a virgin engine (``unit_aborts``): the fresh proofs
  might otherwise observe different memo state than a full uncached
  run would have produced, and parity is the contract.

**Phase 2–4 payloads.**  The same store also holds one *pipeline*
payload per program (:class:`PipelineCache`): the typestate-propagation
fixpoint, the phase-3 annotations, the phase-4 local verdicts in report
order, and the loop-header forward facts.  Its key cannot reuse
:func:`function_input_digest` — that embeds the propagation stores and
header facts, i.e. the very outputs being cached — so it combines the
store-free :func:`function_structure_digest` (body + CFG edges only,
computable right after phase 1) of every function.  Soundness is
simpler than for the phase-5 verdicts: phases 2–4 are *pure,
order-independent* functions of (program, spec, verdict-affecting
options) with no cross-obligation memo state, and propagation is
interprocedural, so the payload depends on the whole program and
replay is all-or-nothing.  The artifacts are uid-keyed, and uid
assignment is a deterministic function of the instruction stream, so
the key also carries the :func:`program_layout_digest` (labels, uids,
absolute indices, in program order): it pins replay to programs whose
uids are byte-for-byte those of the producing run — e.g. two functions
swapped in the file have unchanged per-function digests but a
different layout, and correctly miss.
"""

from __future__ import annotations

import base64
import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.annotate import NodeAnnotation
from repro.analysis.options import CheckerOptions
from repro.analysis.propagate import PropagationResult
from repro.analysis.verify import VerificationEngine, Violation
from repro.cfg.graph import CFG
from repro.ir.ops import Call, CondBranch
from repro.logic.formula import Formula
from repro.logic.serialize import formula_digest, text_digest
from repro.policy.model import HostSpec

#: Bump when the unit payload layout or digest recipe changes.
UNIT_SCHEMA = 2

#: Bump when the pipeline (phase 2–4) payload layout or digest recipe
#: changes.
PIPELINE_SCHEMA = 2

#: Checker options whose value can change phase-5 verdicts.  Everything
#: else (the prover cache, tracing) is parity-gated to be
#: verdict-neutral and must *not* invalidate stored units.
VERDICT_AFFECTING_OPTIONS = (
    "max_induction_iterations",
    "enable_disjunct_candidates",
    "enable_generalization",
    "enable_junction_simplification",
    "enable_formula_grouping",
    "enable_forward_bounds",
    "max_invariant_candidates",
    "max_call_depth",
    "max_propagation_steps",
    "unsound_assume_categories",
)


def options_digest(options: CheckerOptions) -> str:
    """Digest of the verdict-affecting option values."""
    return text_digest("options", *(
        "%s=%r" % (name, getattr(options, name))
        for name in VERDICT_AFFECTING_OPTIONS))


def spec_digest(spec: HostSpec) -> str:
    """Process-stable digest of the host specification.

    States render via ``str()`` (every :class:`~repro.typesys.state.
    State` renders deterministically — ``PointsTo`` sorts its targets),
    types via ``repr()`` (frozen dataclasses with ordered members),
    formulas via :func:`formula_digest`."""
    parts: List[str] = ["types"]
    for name, type_ in sorted(spec.types._named.items()):
        parts.append("%s=%r" % (name, type_))
    parts.append("locations")
    for decl in spec.locations:
        parts.append("%s|%r|%s|%s|%s|%s|%d|%s" % (
            decl.name, decl.type, decl.state, decl.perms, decl.region,
            decl.summary, decl.align, decl.size))
    parts.append("functions")
    for name in sorted(spec.functions):
        fn = spec.functions[name]
        parts.append(name)
        for reg in sorted(fn.params):
            parts.append("p %s %s" % (reg, fn.params[reg]))
        parts.append("pre " + formula_digest(fn.precondition))
        for reg in sorted(fn.returns):
            parts.append("r %s %s" % (reg, fn.returns[reg]))
        parts.append("post " + formula_digest(fn.postcondition))
        parts.append("clobbers " + " ".join(fn.clobbers))
    parts.append("rules")
    parts.extend(str(rule) for rule in spec.rules)
    parts.append("invoke")
    for reg in sorted(spec.invocation.bindings):
        parts.append("%s=%s" % (reg, spec.invocation.bindings[reg]))
    parts.append(spec.invocation.entry_label)
    parts.append("constraints")
    parts.extend(formula_digest(f) for f in spec.constraints)
    parts.append("automata " + " ".join(sorted(spec.automata)))
    parts.append("postcondition " + formula_digest(spec.postcondition))
    return text_digest("spec", *parts)


def _render_op(op, base_index: int) -> str:
    """Position-independent rendering of one IR op: dataclass fields
    except the bookkeeping ones (``index``/``raw``/``text``), with
    intra-function branch targets made relative to the function's first
    instruction and call targets identified by label when known."""
    if op is None:
        return "<exit>"
    parts = [op.opname]
    for f in dataclasses.fields(op):
        if f.name in ("index", "raw", "text"):
            continue
        value = getattr(op, f.name)
        if f.name == "target":
            if isinstance(op, CondBranch):
                value = "rel%+d" % (value - base_index)
            elif isinstance(op, Call) and op.target_label:
                # The label names the callee; the absolute index would
                # change whenever an unrelated earlier function grows.
                continue
        parts.append("%s=%r" % (f.name, value))
    return " ".join(parts)


def _structure_parts(cfg: CFG, label: str, node_context=None
                     ) -> Tuple[List[str], Dict[int, int]]:
    """Position-independent rendering of one function's body and CFG
    edges (the store-free core shared by the phase-5 input digest and
    the phase 2–4 structure digest), and the node ordinals it used.
    *node_context*, when given, renders a line of per-node context
    after each node's own line."""
    uids = sorted(cfg.functions[label].node_uids)
    ordinal = {uid: position for position, uid in enumerate(uids)}
    indices = [cfg.node(uid).index for uid in uids if cfg.node(uid).index]
    base_index = min(indices) if indices else 0
    parts: List[str] = []
    for uid in uids:
        node = cfg.node(uid)
        relative = node.index - base_index if node.index else -1
        parts.append("n%d i%d %s %s" % (
            ordinal[uid], relative, node.role.value,
            _render_op(node.instruction, base_index)))
        if node_context is not None:
            parts.append(node_context(uid))
    edges: List[str] = []
    for uid in uids:
        for edge in cfg.successors(uid):
            if edge.dst in ordinal:
                dst = str(ordinal[edge.dst])
            else:
                # Cross-function edge: name the peer function, never its
                # node ordinals — an edit inside the callee must not
                # invalidate the caller through edge numbering.
                dst = "x:" + cfg.node(edge.dst).function
            edges.append("e %d %s %s %s" % (
                ordinal[uid], dst, edge.kind.value,
                edge.condition if edge.condition is not None else "-"))
    parts.extend(sorted(edges))
    return parts, ordinal


def function_structure_digest(cfg: CFG, label: str) -> str:
    """Store-free content digest of one function: its body and CFG
    edges, rendered position-independently.  Unlike
    :func:`function_input_digest` this never consults phase-2 output
    (propagated stores, forward facts), so it is computable right after
    phase 1 — which is what lets the phase 2–4 payloads key on it
    without circularity."""
    return text_digest("fnstruct", label,
                       *_structure_parts(cfg, label)[0])


def program_layout_digest(cfg: CFG) -> str:
    """Digest of the program's absolute layout: every function's label,
    node uids, and instruction indices, in program order.  Pipeline
    payloads carry uid-keyed artifacts, so replay additionally requires
    this digest to match — it does exactly when the current program's
    uid/index assignment is identical to the producing run's."""
    parts: List[str] = []
    for label in cfg.functions:
        uids = sorted(cfg.functions[label].node_uids)
        parts.append("%s u%s i%s" % (
            label, ",".join(str(uid) for uid in uids),
            ",".join(str(cfg.node(uid).index) for uid in uids)))
    return text_digest("layout", *parts)


def function_input_digest(engine: VerificationEngine,
                          label: str) -> str:
    """Content digest of one function *as the phase-5 engine sees it*:
    body, control flow, reaching typestate context, and the forward
    facts at its loop headers (the forward-bounds pass is whole-program,
    so a caller edit can change a callee's header facts without any
    typestate change — the digest must notice)."""
    inputs = engine.propagation.inputs
    # Propagation shares a handful of typestate values across thousands
    # of store entries: render each distinct typestate object once.
    rendered: Dict[int, str] = {}

    def store_line(uid: int) -> str:
        store = inputs.get(uid)
        return store.render(memo=rendered) if store is not None else "-"

    parts, ordinal = _structure_parts(engine.cfg, label, store_line)
    for loop in sorted(engine.loops[label].loops,
                       key=lambda l: l.header):
        parts.append("h%d %s" % (
            ordinal.get(loop.header, -1),
            formula_digest(engine.header_facts(loop))))
    return text_digest("fn", label, *parts)


@dataclass
class FunctionUnit:
    """One function's slice of the obligation stream."""

    label: str
    obligations: List = field(default_factory=list)
    #: Persistent-store key (filled in by the manager).
    key: str = ""
    input_digest: str = ""


def partition_units(engine: VerificationEngine,
                    obligations: List) -> List[FunctionUnit]:
    """Group obligations by containing function, ordered by first oid
    (obligation generation is uid-sorted, so each unit's obligations
    are already in oid order)."""
    buckets: Dict[str, FunctionUnit] = {}
    ordered: List[FunctionUnit] = []
    for ob in obligations:
        label = engine.cfg.node(ob.uid).function
        unit = buckets.get(label)
        if unit is None:
            unit = FunctionUnit(label=label)
            buckets[label] = unit
            ordered.append(unit)
        unit.obligations.append(ob)
    return ordered


@dataclass
class ReplayedGroup:
    """A stored unit group accepted for replay: its members (current
    units, in unit order), each member's recorded verdicts, and the
    group's dependency set."""

    members: List[FunctionUnit]
    proved: List[List[bool]]
    deps: Set[str]


class UnitManager:
    """Content-addressed lookup, replay, and storage of unit groups.

    One instance per check; all digests are memoized for the run."""

    def __init__(self, engine: VerificationEngine, persistent,
                 options: CheckerOptions, arch: str):
        self.engine = engine
        self.persistent = persistent
        self.options = options
        self.arch = arch
        self.stats: Dict[str, int] = {
            "unit_lookups": 0,
            "unit_hits": 0,
            "unit_misses": 0,
            "unit_replayed_obligations": 0,
            "unit_stores": 0,
            "unit_aborts": 0,
        }
        self._spec_digest: Optional[str] = None
        self._options_digest: Optional[str] = None
        self._input_digests: Dict[str, str] = {}
        #: Functions claimed by accepted replay payloads; candidate
        #: payloads whose dependency sets overlap are rejected (two
        #: replayed groups sharing a dependency could have influenced
        #: each other in the uncached counterpart run).
        self._claimed: Set[str] = set()

    # -- digests -------------------------------------------------------------

    def input_digest(self, label: str) -> str:
        digest = self._input_digests.get(label)
        if digest is None:
            digest = function_input_digest(self.engine, label)
            self._input_digests[label] = digest
        return digest

    def unit_key(self, label: str) -> str:
        if self._spec_digest is None:
            self._spec_digest = spec_digest(self.engine.spec)
            self._options_digest = options_digest(self.options)
        from repro import __version__
        return text_digest(
            "unit", UNIT_SCHEMA, __version__, self.arch,
            self._spec_digest, self._options_digest, label,
            self.input_digest(label))

    def prepare(self, unit: FunctionUnit) -> None:
        unit.input_digest = self.input_digest(unit.label)
        unit.key = self.unit_key(unit.label)

    # -- lookup / replay -----------------------------------------------------

    def lookup(self, units: List[FunctionUnit]
               ) -> Tuple[List[ReplayedGroup], List[FunctionUnit]]:
        """Split ``units`` (in unit order) into stored groups accepted
        for replay and the units left to prove fresh.  Each unit not
        already covered by an accepted group is looked up under its own
        key; a hit there replays every member of the stored group."""
        position = {unit.label: index
                    for index, unit in enumerate(units)}
        groups: List[ReplayedGroup] = []
        fresh: List[FunctionUnit] = []
        covered: Set[str] = set()
        for unit in units:
            if unit.label in covered:
                continue
            self.prepare(unit)
            group = None
            for payload in self.persistent.get_unit(unit.key):
                group = self._accept(unit, payload, units, position)
                if group is not None:
                    break
            if group is None:
                self.stats["unit_lookups"] += 1
                self.stats["unit_misses"] += 1
                fresh.append(unit)
                continue
            self.stats["unit_lookups"] += len(group.members)
            self.stats["unit_hits"] += len(group.members)
            self._claimed.update(group.deps)
            covered.update(member.label for member in group.members)
            groups.append(group)
        return groups, fresh

    def _accept(self, anchor: FunctionUnit, payload: Dict[str, Any],
                units: List[FunctionUnit], position: Dict[str, int]
                ) -> Optional[ReplayedGroup]:
        """The group a payload stored under ``anchor``'s key replays,
        or None unless it is valid here: the members are
        units of the current partition, anchor first and in unit
        order; each member's obligation digests match; the recorded
        dependencies cover every member and every current unit they
        name, match the current input digests, and are unclaimed."""
        if payload.get("schema") != UNIT_SCHEMA:
            return None
        entries = payload.get("members")
        deps = payload.get("deps")
        if not isinstance(entries, list) or not entries \
                or not isinstance(deps, dict):
            return None
        try:
            recorded = [(label, [(entry[0], bool(entry[1]))
                                 for entry in verdicts])
                        for label, verdicts in entries]
        except (TypeError, ValueError, IndexError, KeyError):
            return None
        if recorded[0][0] != anchor.label:
            return None
        members: List[FunctionUnit] = []
        proved: List[List[bool]] = []
        last = position[anchor.label] - 1
        for label, verdicts in recorded:
            if not isinstance(label, str):
                return None
            index = position.get(label)
            if index is None or index <= last:
                return None  # not a current unit, or out of unit order
            last = index
            unit = units[index]
            if [digest for digest, _ in verdicts] \
                    != [ob.digest for ob in unit.obligations]:
                return None
            members.append(unit)
            proved.append([ok for _, ok in verdicts])
        labels = {unit.label for unit in members}
        if not labels <= set(deps):
            return None
        for label, digest in deps.items():
            if label in self._claimed:
                return None
            if label in position and label not in labels:
                # A current unit the group depends on but does not
                # hold would be proved fresh beside the replay.
                return None
            if label not in self.engine.cfg.functions:
                return None
            if self.input_digest(label) != digest:
                return None
        for unit in members:
            self.prepare(unit)
        return ReplayedGroup(members, proved, set(deps))

    def replay(self, group: ReplayedGroup) -> List[Tuple[int, bool]]:
        """Per-obligation ``(oid, proved)`` verdicts of every member,
        each member traced as a ``function:replayed`` span wrapping one
        provenanced obligation span per verdict (``replayed: True``)."""
        from repro.analysis.obligations import obligation_provenance
        tracer = self.engine.tracer
        verdicts: List[Tuple[int, bool]] = []
        for unit, proved in zip(group.members, group.proved):
            if tracer.enabled:
                with tracer.span("function:replayed",
                                 function=unit.label,
                                 input_digest=unit.input_digest,
                                 obligations=len(unit.obligations),
                                 proved=sum(1 for p in proved if p)):
                    for ob, ok in zip(unit.obligations, proved):
                        attrs = obligation_provenance(self.engine, ob)
                        attrs["proved"] = ok
                        attrs["replayed"] = True
                        with tracer.span("obligation", **attrs):
                            pass
            self.stats["unit_replayed_obligations"] += \
                len(unit.obligations)
            verdicts.extend((ob.oid, ok)
                            for ob, ok in zip(unit.obligations, proved))
        return verdicts

    # -- abort check ---------------------------------------------------------

    def replay_conflicts(self, touched_map: Dict[int, FrozenSet[str]],
                         groups: List[ReplayedGroup]) -> bool:
        """True when a fresh proof touched a function inside a replayed
        group's dependency set — the signal that the uncached
        counterpart run could have interleaved memo state between them,
        so the replay must be abandoned."""
        if not groups:
            return False
        replay_deps: Set[str] = set()
        for group in groups:
            replay_deps.update(group.deps)
        for touched in touched_map.values():
            if touched & replay_deps:
                return True
        return False

    def abort_replay(self) -> None:
        """Drop every accepted payload (the caller re-proves all
        obligations on a virgin engine) and count the abort."""
        self.stats["unit_aborts"] += 1
        self._claimed = set()

    # -- storage -------------------------------------------------------------

    def store(self, units: List[FunctionUnit],
              touched_map: Dict[int, FrozenSet[str]],
              proved_by_oid: Dict[int, bool]) -> None:
        """Persist every complete group of the freshly proved ``units``
        (in unit order): the connected components of the "dependency
        sets overlap" relation, where a unit's dependency set is its
        own label plus every function its proofs touched."""
        parent: Dict[str, str] = {}

        def find(label: str) -> str:
            parent.setdefault(label, label)
            while parent[label] != label:
                parent[label] = parent[parent[label]]
                label = parent[label]
            return label

        unit_deps: List[Set[str]] = []
        complete: Dict[str, bool] = {}
        for unit in units:
            deps: Set[str] = {unit.label}
            done = True
            for ob in unit.obligations:
                touched = touched_map.get(ob.oid)
                if touched is None or ob.oid not in proved_by_oid:
                    done = False
                    continue
                deps.update(touched)
            root = find(unit.label)
            for fn in deps:
                other = find(fn)
                if other != root:
                    parent[other] = root
            unit_deps.append(deps)
            complete[unit.label] = done
        components: Dict[str, List[int]] = {}
        for index, unit in enumerate(units):
            components.setdefault(find(unit.label), []).append(index)
        for indices in components.values():
            members = [units[index] for index in indices]
            if not all(complete[unit.label] for unit in members):
                continue  # some verdict or its dependencies is unknown
            deps = set().union(*(unit_deps[index] for index in indices))
            if deps & self._claimed:
                continue  # overlaps a replayed group's dependency set
            dep_digests = {fn: self.input_digest(fn)
                           for fn in sorted(deps)}
            anchor = members[0]
            self.prepare(anchor)
            payload = {
                "schema": UNIT_SCHEMA,
                "function": anchor.label,
                "members": [[unit.label,
                             [[ob.digest, bool(proved_by_oid[ob.oid])]
                              for ob in unit.obligations]]
                            for unit in members],
                "deps": dep_digests,
            }
            deps_digest = text_digest(
                "deps", *("%s=%s" % item
                          for item in sorted(dep_digests.items())))
            self.persistent.put_unit(anchor.key, deps_digest,
                                     anchor.label, payload)
            self.stats["unit_stores"] += 1


# ---------------------------------------------------------------------------
# phase 2–4 payloads
# ---------------------------------------------------------------------------


@dataclass
class PipelineReplay:
    """Phases 2–4 reconstructed from the store: the propagation
    fixpoint, the annotations, the local-verification verdicts, and the
    loop-header forward facts (uid-keyed; empty when the producing run
    had ``enable_forward_bounds`` off — the options digest pins that)."""

    propagation: PropagationResult
    annotations: Dict[int, NodeAnnotation]
    local_violations: List[Violation]
    header_facts: Dict[int, Formula]


class PipelineCache:
    """Content-addressed storage and replay of the phase 2–4 artifacts,
    one payload per program (``kind='pipeline'`` in the store).

    The key covers every function's structure digest and the program
    layout, so one edited function misses and reruns phases 2–4 in
    full, which then store a new payload.  Phases 2–4 are pure,
    order-independent functions of their inputs, so none of the
    phase-5 claimed-set/abort machinery applies; see the module
    docstring."""

    def __init__(self, cfg: CFG, spec: HostSpec,
                 options: CheckerOptions, arch: str, persistent):
        self.cfg = cfg
        self.spec = spec
        self.options = options
        self.arch = arch
        self.persistent = persistent
        self.stats: Dict[str, int] = {
            "unit_pipeline_lookups": 0,
            "unit_pipeline_hits": 0,
            "unit_pipeline_misses": 0,
            "unit_pipeline_replayed_functions": 0,
            "unit_pipeline_stores": 0,
        }
        self._key: Optional[str] = None

    def key(self) -> str:
        if self._key is None:
            from repro import __version__
            self._key = text_digest(
                "pipeline", PIPELINE_SCHEMA, __version__, self.arch,
                spec_digest(self.spec), options_digest(self.options),
                program_layout_digest(self.cfg),
                *(function_structure_digest(self.cfg, label)
                  for label in self.cfg.functions))
        return self._key

    def lookup(self) -> Optional[PipelineReplay]:
        """The whole program's phase 2–4 artifacts, or None."""
        self.stats["unit_pipeline_lookups"] += 1
        payload = self.persistent.get(self.key())
        replay = None
        try:
            replay = pickle.loads(base64.b64decode(payload["blob"]))
        except Exception:
            # No row, or an undecodable blob (e.g. written by a
            # different build): a miss, never a failed check.
            pass
        if not isinstance(replay, PipelineReplay):
            self.stats["unit_pipeline_misses"] += 1
            return None
        self.stats["unit_pipeline_hits"] += 1
        self.stats["unit_pipeline_replayed_functions"] += \
            len(self.cfg.functions)
        return replay

    def store(self, replay: PipelineReplay) -> None:
        """Persist freshly computed phase 2–4 artifacts."""
        try:
            blob = base64.b64encode(pickle.dumps(
                replay, protocol=4)).decode("ascii")
        except Exception:
            return  # unpicklable artifact: skip storing, never fail
        self.persistent.put(self.key(), {"blob": blob})
        self.stats["unit_pipeline_stores"] += 1
