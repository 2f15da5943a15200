"""The function digests (:func:`repro.analysis.units.
function_input_digest` and :func:`~repro.analysis.units.
function_structure_digest`) key the replay store, so their bytes are a
storage format: both render through one shared helper, and each must
stay byte-identical to its own reference recipe, copied here, or every
store written before would silently miss."""

import pytest

from repro.analysis.options import CheckerOptions
from repro.analysis.prepare import prepare
from repro.analysis.propagate import propagate
from repro.analysis.units import (
    _render_op, function_input_digest, function_structure_digest,
)
from repro.analysis.verify import VerificationEngine
from repro.cfg.builder import build_cfg
from repro.logic.serialize import formula_digest, text_digest
from repro.policy.parser import parse_spec
from repro.programs import all_programs
from repro.programs.incremental import (
    INCREMENTAL_EDITED_SOURCE, INCREMENTAL_SOURCE, INCREMENTAL_SPEC,
)
from repro.sparc.assembler import assemble


def _reference_body(cfg, label, with_stores=None):
    uids = sorted(cfg.functions[label].node_uids)
    ordinal = {uid: position for position, uid in enumerate(uids)}
    indices = [cfg.node(uid).index for uid in uids if cfg.node(uid).index]
    base_index = min(indices) if indices else 0
    parts = []
    for uid in uids:
        node = cfg.node(uid)
        relative = node.index - base_index if node.index else -1
        parts.append("n%d i%d %s %s" % (
            ordinal[uid], relative, node.role.value,
            _render_op(node.instruction, base_index)))
        if with_stores is not None:
            store = with_stores.get(uid)
            parts.append(store.render() if store is not None else "-")
    edges = []
    for uid in uids:
        for edge in cfg.successors(uid):
            if edge.dst in ordinal:
                dst = str(ordinal[edge.dst])
            else:
                dst = "x:" + cfg.node(edge.dst).function
            edges.append("e %d %s %s %s" % (
                ordinal[uid], dst, edge.kind.value,
                edge.condition if edge.condition is not None else "-"))
    return parts + sorted(edges), ordinal


def _reference_structure_digest(cfg, label):
    return text_digest("fnstruct", label, *_reference_body(cfg, label)[0])


def _reference_input_digest(engine, label):
    parts, ordinal = _reference_body(engine.cfg, label,
                                     engine.propagation.inputs)
    for loop in sorted(engine.loops[label].loops,
                       key=lambda l: l.header):
        parts.append("h%d %s" % (
            ordinal.get(loop.header, -1),
            formula_digest(engine.header_facts(loop))))
    return text_digest("fn", label, *parts)


def _cases():
    cases = [pytest.param(p.program, p.spec, id=p.name)
             for p in all_programs()]
    for name, source in (("chain", INCREMENTAL_SOURCE),
                         ("chain-edited", INCREMENTAL_EDITED_SOURCE)):
        cases.append(pytest.param(
            lambda source=source: assemble(source, name=name),
            lambda: parse_spec(INCREMENTAL_SPEC), id=name))
    return cases


@pytest.mark.parametrize("program, spec", _cases())
def test_digests_match_the_reference_recipes(program, spec):
    spec = spec()
    preparation = prepare(spec)
    cfg = build_cfg(program(), trusted_labels=set(spec.functions))
    engine = VerificationEngine(cfg, propagate(cfg, preparation, spec),
                                preparation, spec, CheckerOptions())
    for label in cfg.functions:
        assert function_structure_digest(cfg, label) \
            == _reference_structure_digest(cfg, label)
        assert function_input_digest(engine, label) \
            == _reference_input_digest(engine, label)
