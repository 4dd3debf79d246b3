"""The benchmark under bench/ looks solver names up by string: the tracer
wraps `(module, attribute)` pairs and the worker imports and patches
names.  A rename or deletion in src/ breaks `bench/run.py --trace 1`
with an AttributeError that no other test would see, so every such name
must resolve here."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tracer_paths():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [f"{module}.{attr}" for module, attr, _ in tracer.WRAPPED]


def _worker_paths():
    """Dotted paths of the names bench/worker.py imports from nsfourier and
    of the attributes it reads off them."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("nsfourier"):
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    paths = list(imported.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            paths.append(f"{imported[node.value.id]}.{node.attr}")
    return paths


def _resolves(dotted: str) -> bool:
    """Whether the dotted path names an object, importing modules on the way."""
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], start=2):
            if not hasattr(obj, part):
                importlib.import_module(".".join(parts[:i]))
            obj = getattr(obj, part)
    except (AttributeError, ImportError):
        return False
    return True


@pytest.mark.parametrize("path", _tracer_paths())
def test_tracer_wrapped_names_resolve(path):
    assert _resolves(path)


def test_worker_names_resolve():
    paths = _worker_paths()
    assert "nsfourier.diagnostics.renorm_report" in paths
    assert "nsfourier.coupler.fixed_point_step" in paths
    assert "nsfourier.cli.run_simulation" in paths
    assert [p for p in paths if not _resolves(p)] == []


def test_a_missing_name_is_caught():
    assert not _resolves("nsfourier.grid.no_such_name")
    assert not _resolves("nsfourier.no_such_module.name")
