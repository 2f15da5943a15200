"""perfbench imports checker internals by module path, and its traced
run wraps checker entry points by name; those paths must keep
resolving, since the benchmark's own files change only with the
benchmark."""

import ast
import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _repro_imports():
    for name in sorted(os.listdir(PERFBENCH)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield name, node.module, alias.name


IMPORTS = sorted(set(_repro_imports()))


@pytest.mark.parametrize("source, module, name", IMPORTS,
                         ids=["%s:%s.%s" % i for i in IMPORTS])
def test_perfbench_import_resolves(source, module, name):
    parent = importlib.import_module(module)
    if not hasattr(parent, name):  # ``from package import submodule``
        importlib.import_module("%s.%s" % (module, name))


def test_the_contract_names_are_among_them():
    wanted = {
        ("repro.bench", "INCREMENTAL_SOURCE"),
        ("repro.bench", "INCREMENTAL_EDITED_SOURCE"),
        ("repro.bench", "INCREMENTAL_SPEC"),
        ("repro.logic.terms", "set_term_interning"),
        ("repro.logic.formula", "set_formula_interning"),
        ("repro.logic.memo", "clear_all_caches"),
    }
    assert wanted <= {(module, name) for _, module, name in IMPORTS}


def test_bench_reexports_the_chain_program():
    from repro import bench
    from repro.programs import incremental
    for name in ("INCREMENTAL_SOURCE", "INCREMENTAL_EDITED_SOURCE",
                 "INCREMENTAL_SPEC"):
        assert getattr(bench, name) is getattr(incremental, name)


def _entry_points():
    """``layers.ENTRY_POINTS``, read from the source without importing
    perfbench."""
    path = os.path.join(PERFBENCH, "layers.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) \
                and getattr(node.target, "id", None) == "ENTRY_POINTS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no ENTRY_POINTS")


ENTRY_POINTS = sorted({(module, attr)
                       for _, module, attr in _entry_points()})


@pytest.mark.parametrize("module, attr", ENTRY_POINTS,
                         ids=["%s:%s" % e for e in ENTRY_POINTS])
def test_traced_entry_point_resolves(module, attr):
    target = importlib.import_module(module)
    for name in attr.split("."):
        assert hasattr(target, name), "%s.%s" % (module, attr)
        target = getattr(target, name)
    assert callable(target)
