"""The benchmark under bench/ looks solver names up by string: the tracer
wraps `(module, attribute)` pairs and the worker imports and patches
names.  A rename or deletion in src/ breaks `bench/run.py --trace 1`
with an AttributeError that no other test would see, so every such name
must resolve here, and every call the worker makes to one must fit its
signature.  A wrapped name that stays importable but is no longer called
would read zero in its layer metric instead, so each must be called by
name in its module's source."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    """bench/tracer.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _tracer_wrapped():
    """The (module, attribute) pairs bench/tracer.py wraps."""
    return [(module, attr) for module, attr, _ in _tracer().WRAPPED]


def _tracer_paths():
    return [f"{module}.{attr}" for module, attr in _tracer_wrapped()]


def _called_names(module: str) -> set:
    """The names the module's source calls directly, as `name(...)`."""
    source = pathlib.Path(importlib.util.find_spec(module).origin).read_text()
    return {node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def _worker_imports():
    """bench/worker.py's syntax tree, and the dotted path of each name it
    imports from nsfourier, by local name."""
    tree = ast.parse((BENCH / "worker.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("nsfourier"):
            for alias in node.names:
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return tree, imported


def _worker_paths():
    """Dotted paths of the names bench/worker.py imports from nsfourier and
    of the attributes it reads off them."""
    tree, imported = _worker_imports()
    paths = list(imported.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            paths.append(f"{imported[node.value.id]}.{node.attr}")
    return paths


def _worker_calls():
    """(dotted path, positional count, keyword names, line) of each call in
    bench/worker.py to an imported nsfourier name or to an attribute of one,
    e.g. `ladder_run(...)` or `cli.main(...)`."""
    tree, imported = _worker_imports()
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            path = imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in imported):
            path = f"{imported[func.value.id]}.{func.attr}"
        else:
            continue
        # a *args or **kwargs call cannot be counted without running it
        assert not any(isinstance(a, ast.Starred) for a in node.args), path
        keywords = [k.arg for k in node.keywords]
        assert None not in keywords, path
        calls.append((path, len(node.args), keywords, node.lineno))
    return calls


def _resolve(dotted: str):
    """The object the dotted path names, importing modules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _resolves(dotted: str) -> bool:
    """Whether the dotted path names an object."""
    try:
        _resolve(dotted)
    except (AttributeError, ImportError):
        return False
    return True


@pytest.mark.parametrize("path", _tracer_paths())
def test_tracer_wrapped_names_resolve(path):
    assert _resolves(path)


@pytest.mark.parametrize("module, attr", _tracer_wrapped(),
                         ids=_tracer_paths())
def test_tracer_wrapped_names_are_called(module, attr):
    assert attr in _called_names(module)


def test_an_uncalled_name_is_caught():
    assert "build_basis" in _called_names("nsfourier.coupler")
    # imported for an annotation only
    assert "StreamBasis" not in _called_names("nsfourier.state")


def test_worker_names_resolve():
    paths = _worker_paths()
    assert "nsfourier.diagnostics.renorm_report" in paths
    assert "nsfourier.coupler.fixed_point_step" in paths
    assert "nsfourier.cli.run_simulation" in paths
    assert [p for p in paths if not _resolves(p)] == []


def test_worker_calls_fit_their_signatures():
    calls = _worker_calls()
    called = {path for path, *_ in calls}
    assert {"nsfourier.degiorgi.ladder_run",
            "nsfourier.diagnostics.check_energy_inequality",
            "nsfourier.diagnostics.apriori_monitor",
            "nsfourier.diagnostics.renorm_report",
            "nsfourier.config.parse_config",
            "nsfourier.cli.main"} <= called
    misfits = []
    for path, n_args, keywords, line in calls:
        try:
            inspect.signature(_resolve(path)).bind(
                *[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            misfits.append(f"bench/worker.py:{line}: {path}: {exc}")
    assert misfits == []


def test_a_misfit_call_is_caught():
    sig = inspect.signature(_resolve("nsfourier.degiorgi.ladder_run"))
    with pytest.raises(TypeError):
        sig.bind(None, no_such_keyword=None)
    with pytest.raises(TypeError):
        sig.bind(*[None] * 8)


def test_a_missing_name_is_caught():
    assert not _resolves("nsfourier.grid.no_such_name")
    assert not _resolves("nsfourier.no_such_module.name")


def test_step_temperature_calls_cg_and_splu_through_scipy(monkeypatch):
    # the tracer's `thermal.cg` span and `cg_iters_per_solve` patch
    # scipy.sparse.linalg.cg on the module object, so a name bound by
    # `from scipy.sparse.linalg import cg` would slip past them unseen
    import numpy as np
    import scipy.sparse.linalg as spla

    from nsfourier.config import RunConfig
    from nsfourier.grid import Grid, ScalarField
    from nsfourier.thermal import step_temperature

    calls = []
    for name in ("cg", "splu"):
        def counted(*args, _fn=getattr(spla, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(spla, name, counted)
    grid = Grid(nx=8, ny=8)
    X, _ = grid.nodes()
    theta = ScalarField(grid, 0.5 + 0.1 * np.cos(np.pi * X))
    rho = ScalarField.constant(grid, 1.0)
    step_temperature(theta, rho, rho, None, ScalarField.constant(grid, 0.0),
                     0.01, 0.01, RunConfig().laws())
    assert calls[0] == "splu"
    assert "cg" in calls


def test_tracer_assembly_work_reads_a_built_basis():
    # the tracer costs every assembly call from the attributes of its
    # basis argument before the call, so a basis attribute it reads that
    # goes away breaks every `--trace 1` run
    import numpy as np

    from nsfourier.basis import build_basis, reconstruct_velocity
    from nsfourier.grid import Grid, ScalarField

    tracer = _tracer()
    basis = build_basis(Grid(nx=12, ny=10), 4)
    rho = ScalarField.constant(basis.grid, 1.0)
    u = reconstruct_velocity(basis, np.ones(basis.n_modes))
    args = {"basis.assemble_weighted_gram": (basis, rho),
            "basis.assemble_viscous": (basis, rho, 0.1),
            "basis.assemble_advection_matrix": (basis, rho, u)}
    assert set(args) == set(tracer.ASSEMBLY)
    for name in tracer.ASSEMBLY:
        flop, byte = tracer.assembly_work(name, args[name])
        assert flop > 0 and byte > 0
