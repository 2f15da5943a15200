"""Unit-level tests of the induction-iteration machinery: candidate
generation, generalization, ranking, and the outcome bookkeeping."""

import pytest

from repro import parse_spec
from repro.analysis import induction
from repro.analysis.annotate import annotate
from repro.analysis.induction import InductionIteration, _collect_atoms
from repro.errors import ProverError
from repro.logic import omega
from repro.logic import prover as prover_module
from repro.logic.formula import (
    FALSE, TRUE, FalseFormula, TrueFormula, forall, formula_size, neg,
)
from repro.logic.normalize import to_dnf, to_nnf
from repro.logic.simplify import simplify
from repro.analysis.options import CheckerOptions
from repro.analysis.prepare import prepare
from repro.analysis.propagate import propagate
from repro.analysis.verify import VerificationEngine
from repro.analysis.wlp import _eager_eliminate
from repro.cfg import CFG, build_cfg, find_loops
from repro.logic import conj, disj, ge, implies, le, lt
from repro.logic.terms import Linear
from repro.sparc import assemble

SUM_SOURCE = """
1: mov %o0,%o2
2: clr %o0
3: cmp %o0,%o1
4: bge 12
5: clr %g3
6: sll %g3, 2,%g2
7: ld [%o2+%g2],%g2
8: inc %g3
9: cmp %g3,%o1
10:bl 6
11:add %o0,%g2,%o0
12:retl
13:nop
"""

SUM_SPEC = """
loc e   : int    = initialized  perms ro  region V summary
loc arr : int[n] = {e}          perms rfo region V
rule [V : int : ro]
rule [V : int[n] : rfo]
invoke %o0 = arr
invoke %o1 = n
assume n >= 1
"""


def v(name, coeff=1):
    return Linear.var(name, coeff)


@pytest.fixture()
def sum_engine():
    program = assemble(SUM_SOURCE)
    spec = parse_spec(SUM_SPEC)
    preparation = prepare(spec)
    cfg = build_cfg(program)
    propagation = propagate(cfg, preparation, spec)
    options = CheckerOptions()
    options.enable_forward_bounds = False  # exercise the full machinery
    engine = VerificationEngine(cfg, propagation, preparation, spec,
                                options)
    loop = find_loops(cfg, CFG.MAIN).loops[0]
    return engine, loop


class TestGeneralization:
    def test_paper_generalization_produced(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        # W(1) of the paper: %g3+1 < %o1  ->  %g3+1 < n.
        w1 = implies(lt(v("%g3") + 1, v("%o1")),
                     lt(v("%g3") + 1, v("n")))
        candidates = ii.generalizations(w1)
        target = le(v("%o1"), v("n"))
        assert any(engine.prover.equivalent(c, target)
                   for c in candidates), \
            "expected %%o1<=n among %s" % [str(c) for c in candidates]

    def test_generalization_eliminates_only_modified_vars(self,
                                                          sum_engine):
        engine, loop = sum_engine
        modified = engine.modified_variables(loop)
        assert "%g3" in modified          # loop counter
        assert "%g2" in modified          # scaled index / loaded value
        assert "%o0" in modified          # accumulator
        assert "%o1" not in modified      # size register: invariant
        assert "%o2" not in modified      # array base: invariant

    def test_generalization_of_atom_free_formula_empty(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        from repro.logic import TRUE
        assert ii.generalizations(TRUE) == []


class TestCandidates:
    def test_candidates_imply_the_wlp(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        body_wlp = implies(lt(v("%g3") + 1, v("%o1")),
                           lt(v("%g3") + 1, v("n")))
        for candidate in ii._candidates_for(body_wlp):
            assert engine.prover.implies(candidate, body_wlp), \
                "candidate %s does not imply the wlp" % candidate

    def test_candidate_ordering_prefers_small(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        small = ge(v("%o1"), 0)
        big = conj(ge(v("%o1"), 0), ge(v("n"), 0), ge(v("%o2"), 0))
        assert ii._rank(small) < ii._rank(big)

    def test_atom_count(self):
        f = conj(ge(v("a"), 0), disj(ge(v("b"), 0), ge(v("c"), 0)))
        assert formula_size(f) == 3


def _eager_candidates(ii, body_wlp):
    """Reference recipe: the whole candidate list, built eagerly.  The
    lazy stream must yield exactly this sequence."""
    if isinstance(body_wlp, (TrueFormula, FalseFormula)):
        return [body_wlp]
    admission = ii.prover.prefix_session(neg(body_wlp))
    atoms = []
    modified = ii.engine.modified_variables(ii.loop)
    for atom in _collect_atoms(body_wlp):
        if atom.free_variables() & modified:
            continue
        if atom not in atoms and admission.refutes(atom):
            atoms.append(atom)
    generalized = []
    if ii.options.enable_generalization:
        for gen in ii.generalizations(body_wlp):
            if admission.refutes(gen):
                generalized.append(gen)
            else:
                generalized.append(conj(gen, body_wlp))
    disjuncts = []
    if ii.options.enable_disjunct_candidates:
        disjuncts = [conj(*parts) for parts in to_dnf(to_nnf(body_wlp))]
        if len(disjuncts) <= 1:
            disjuncts = []
    generalized.sort(key=ii._rank)
    disjuncts.sort(key=ii._rank)
    out = []
    for f in atoms + generalized + [body_wlp] + disjuncts:
        f = simplify(f)
        if isinstance(f, FalseFormula):
            continue
        if ii._rank(f)[0] > 120:
            continue
        if f not in out:
            out.append(f)
    return out


def _paper_wlp():
    return implies(lt(v("%g3") + 1, v("%o1")), lt(v("%g3") + 1, v("n")))


def _rich_wlp(oversized=True):
    """A loop-body wlp whose 64 DNF disjuncts include duplicates after
    simplification and contradictions that simplify to false; with
    *oversized*, one branch (and so the wlp itself) has 121 atoms, past
    the rank cut-off."""
    g3, o1, n = v("%g3"), v("%o1"), v("n")
    if oversized:
        wide = conj(*(ge(v("a%d" % k), k) for k in range(121)))
    else:
        wide = ge(v("%o2"), 0)
    return conj(
        disj(lt(g3 + 1, o1), lt(g3 + 1, n)),
        disj(ge(g3, 1), le(g3, 0)),
        disj(ge(g3, 1), wide),
        disj(le(g3, 0), ge(o1, 0)),
        disj(ge(o1, 0), ge(n, 0)),
        disj(ge(o1, 1), ge(n, 0)),
    )


class TestLazyCandidates:
    def test_rich_wlp_covers_every_filter(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        simplified = [simplify(conj(*parts))
                      for parts in to_dnf(to_nnf(_rich_wlp()))]
        assert len(simplified) == 64
        assert any(isinstance(f, FalseFormula) for f in simplified)
        assert any(ii._rank(f)[0] > 120 for f in simplified)
        kept = [f for f in simplified
                if not isinstance(f, FalseFormula)
                and ii._rank(f)[0] <= 120]
        assert len(set(kept)) < len(kept)  # duplicates to drop

    @pytest.mark.parametrize("generalize", [True, False])
    @pytest.mark.parametrize("disjuncts", [True, False])
    def test_stream_equals_eager_reference(self, sum_engine, generalize,
                                           disjuncts):
        engine, loop = sum_engine
        engine.options.enable_generalization = generalize
        engine.options.enable_disjunct_candidates = disjuncts
        for wlp in (_rich_wlp(), _rich_wlp(oversized=False),
                    _paper_wlp(), TRUE, FALSE):
            reference = _eager_candidates(
                InductionIteration(engine, loop, {}, 0), wlp)
            stream = InductionIteration(engine, loop, {}, 0) \
                ._candidates_for(wlp)
            assert list(stream) == reference

    def test_first_candidate_does_not_expand_the_wlp(self, sum_engine,
                                                      monkeypatch):
        engine, loop = sum_engine
        wlp = _rich_wlp(oversized=False)
        expanded = []
        real_to_dnf = induction.to_dnf

        def counting_to_dnf(f):
            expanded.append(f)
            return real_to_dnf(f)

        monkeypatch.setattr(induction, "to_dnf", counting_to_dnf)
        stream = InductionIteration(engine, loop, {}, 0) \
            ._candidates_for(wlp)
        next(stream)
        assert to_nnf(wlp) not in expanded
        assert len(list(stream)) > 1
        assert expanded.count(to_nnf(wlp)) == 1


class TestRun:
    def test_successful_run_reports_invariant(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        outcome = ii.run(lt(v("%g3"), v("n")))
        assert outcome.success
        assert outcome.invariant is not None
        assert engine.prover.implies(outcome.invariant,
                                     lt(v("%g3"), v("n")))

    def test_unprovable_target_fails_within_budget(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        from repro.logic import eq
        outcome = ii.run(eq(v("%g3"), v("n")))
        assert not outcome.success
        assert outcome.candidates_tried \
            <= engine.options.max_invariant_candidates

    def test_trivial_target_short_circuits(self, sum_engine):
        engine, loop = sum_engine
        ii = InductionIteration(engine, loop, {}, 0)
        outcome = ii.run(ge(v("%g3"), v("%g3")))
        assert outcome.success and outcome.candidates_tried == 0


class TestOptionsRespected:
    def test_max_iterations_bounds_chain_length(self, sum_engine):
        engine, loop = sum_engine
        engine.options.max_induction_iterations = 1
        ii = InductionIteration(engine, loop, {}, 0)
        outcome = ii.run(lt(v("%g3"), v("n")))
        # With chains capped at W(0) the bound is unprovable.
        assert not outcome.success

    def test_disabling_generalization_breaks_sum(self, sum_engine):
        engine, loop = sum_engine
        engine.options.enable_generalization = False
        ii = InductionIteration(engine, loop, {}, 0)
        outcome = ii.run(lt(v("%g3"), v("n")))
        assert not outcome.success


class _KernelBug(Exception):
    """Stands in for a crash inside the Omega kernel (not a
    ProverError)."""


def _failing_kernel(error):
    def fail(*args, **kwargs):
        raise error
    return fail


def _quantified():
    """∀h.(h < 0 ∨ h ≥ %o1): its elimination reaches ``project``."""
    return forall(["$h"], disj(lt(v("$h"), 0), ge(v("$h") - v("%o1"), 0)))


_KERNEL_ERRORS = pytest.mark.parametrize(
    "error", [_KernelBug("crash"), ProverError("limit")],
    ids=["crash", "limit"])


class TestKernelFailures:
    """The four prover-facing handlers degrade on a ProverError (a
    resource limit) but let any other exception through, so a kernel
    crash surfaces instead of reading as an unproven condition."""

    @_KERNEL_ERRORS
    def test_eager_elimination(self, monkeypatch, error):
        monkeypatch.setattr(prover_module, "project",
                            _failing_kernel(error))
        f = _quantified()
        if isinstance(error, ProverError):
            assert _eager_eliminate(f) is f
        else:
            with pytest.raises(_KernelBug):
                _eager_eliminate(f)

    @_KERNEL_ERRORS
    def test_quantifier_free(self, sum_engine, monkeypatch, error):
        engine, __ = sum_engine
        monkeypatch.setattr(prover_module, "project",
                            _failing_kernel(error))
        f = _quantified()
        if isinstance(error, ProverError):
            assert engine.quantifier_free(f) == simplify(f)
        else:
            with pytest.raises(_KernelBug):
                engine.quantifier_free(f)

    @_KERNEL_ERRORS
    def test_generalize_away(self, sum_engine, monkeypatch, error):
        engine, __ = sum_engine
        monkeypatch.setattr(omega, "project_real", _failing_kernel(error))
        f = ge(v("%g3") - v("%o1"), 0)
        if isinstance(error, ProverError):
            assert engine._generalize_away(f, {"%g3"}) is FALSE
        else:
            with pytest.raises(_KernelBug):
                engine._generalize_away(f, {"%g3"})

    @_KERNEL_ERRORS
    def test_induction_generalization(self, sum_engine, monkeypatch,
                                      error):
        engine, loop = sum_engine
        monkeypatch.setattr(prover_module, "project",
                            _failing_kernel(error))
        ii = InductionIteration(engine, loop, {}, 0)
        f = conj(_quantified(), ge(v("%g3"), 0))
        if isinstance(error, ProverError):
            # quantifier_free keeps the ∃ and to_dnf then refuses it.
            assert ii.generalizations(f) == []
        else:
            with pytest.raises(_KernelBug):
                ii.generalizations(f)
