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


def _bench_module(name: str):
    """bench/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_wrapped():
    """The (module, attribute) pairs bench/tracer.py wraps."""
    wrapped = _bench_module("tracer").WRAPPED
    return [(module, attr) for module, attr, _ in wrapped]


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


def test_step_temperature_calls_cg_through_scipy_once_per_newton_solve(
        monkeypatch):
    # the tracer's `thermal.cg` span patches scipy.sparse.linalg.cg on the
    # module object, so a name bound by `from scipy.sparse.linalg import
    # cg` would slip past it unseen; it also counts Newton solves as cg
    # calls, and `cg_iters_per_solve` divides by that count
    import numpy as np
    import scipy.sparse.linalg as spla

    import nsfourier.thermal as thermal
    from nsfourier.config import RunConfig
    from nsfourier.grid import Grid, ScalarField, VectorField
    from nsfourier.transport import compute_feet

    calls = []
    for owner, name in ((spla, "cg"), (thermal, "_newton_solve")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    grid = Grid(nx=8, ny=8)
    X, _ = grid.nodes()
    theta = ScalarField(grid, 0.5 + 0.1 * np.cos(np.pi * X))
    rho = ScalarField.constant(grid, 1.0)
    thermal.step_temperature(theta, rho, rho,
                             compute_feet(grid, VectorField.zero(grid), 0.01),
                             ScalarField.constant(grid, 1.0), 0.01, 0.5,
                             RunConfig().laws())
    assert len(calls) >= 4
    assert calls == ["_newton_solve", "cg"] * (len(calls) // 2)


def test_tracer_assembly_work_reads_a_built_basis():
    # the tracer costs every assembly call from the attributes of its
    # basis argument before the call, so a basis attribute it reads that
    # goes away breaks every `--trace 1` run
    import numpy as np

    from nsfourier.basis import build_basis, reconstruct_velocity
    from nsfourier.grid import Grid, ScalarField

    tracer = _bench_module("tracer")
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


def test_worker_certify_builds_velocities_only_for_the_ladder_and_renorm(
        monkeypatch):
    # the benchmark's certify pass: the ladder builds each state's
    # velocity with its gradients once, and each of the six renorm_reports
    # builds u and v alone for each step's state, reading the step's
    # dissipation field off the state; the energy check and the a priori
    # monitor read the run's records and build none
    import contextlib

    from nsfourier import coupler, diagnostics, momentum, state
    from nsfourier.config import RunConfig
    from nsfourier.coupler import run_simulation

    config = RunConfig(nx=16, ny=16, n_modes=4, t_final=0.03, dt=0.01)
    traj = run_simulation(config)
    calls = {"reconstruct_velocity": [], "velocity_values": []}
    for module, name in ((coupler, "reconstruct_velocity"),
                         (momentum, "reconstruct_velocity"),
                         (state, "reconstruct_velocity"),
                         (diagnostics, "velocity_values")):
        def counted(*args, _fn=getattr(module, name), _calls=calls[name]):
            _calls.append(1)
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    _, verdicts = _bench_module("worker").certify(
        traj, config, lambda name: contextlib.nullcontext())
    assert verdicts["energy_passes"] and verdicts["apriori_finite"]
    n = len(traj.states)
    assert len(calls["reconstruct_velocity"]) == n
    assert len(calls["velocity_values"]) == 6 * (n - 1)


def test_every_snapshot_path_exists_under_its_exact_name(tmp_path,
                                                        monkeypatch):
    # the tracer's `grid.snapshot_bytes` stats each path `cli` passes to
    # write_snapshot right after the call, so a writer that stores its
    # file under another name (np.savez appends `.npz` to a bare path)
    # fails every `--trace 1` run
    import os

    from nsfourier import cli
    from nsfourier.config import RunConfig, serialize_config

    config = RunConfig(nx=12, ny=12, n_modes=4, t_final=0.03, dt=0.01,
                       output_every=2)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(config))
    paths = []
    write = cli.write_snapshot

    def recorded(*args):
        paths.append(args[0])
        return write(*args)

    monkeypatch.setattr(cli, "write_snapshot", recorded)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    assert len(paths) == 6
    assert sorted(os.path.basename(p) for p in paths) == sorted(
        p.name for p in out.iterdir() if p.name != "diagnostics.csv")
    assert all(os.path.getsize(p) > 0 for p in paths)
