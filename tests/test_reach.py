"""Every module-level public function and class of the package and of the
benchmark is reached from code other than its own definition, or is kept
on purpose in `KEEP` for the test that reads it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "nsfourier").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")])

# public names that only tests read: name -> "test file::function" that
# reads it
KEEP = {
    "kirchhoff_K": "test_acceptance.py::test_criterion_1_coefficient_suite",
    "kirchhoff_K_inverse": "test_acceptance.py::test_criterion_1_coefficient_suite",
    "level_set_measure": "test_acceptance.py::test_criterion_3_transport_suite",
    # the reader of the documented snapshot format
    "read_snapshot": "test_cli.py::test_run_snapshots_read_back_bitwise",
    # the De Giorgi ladder's oracle
    "truncation_phi": "test_degiorgi.py::oracle_rung_integrals",
}


def references(node) -> set:
    """Names the code under node reads: loaded names, attribute names,
    imported names, and identifier strings (bench/tracer.py wraps the
    functions it lists by name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def unreached(trees: dict) -> dict:
    """Public top-level functions and classes, by name, that no top-level
    statement other than their own definition reads; the value is the
    defining file."""
    stmts = [(path, stmt) for path, tree in trees.items() for stmt in tree.body]
    read = [references(stmt) for _, stmt in stmts]
    out = {}
    for i, (path, stmt) in enumerate(stmts):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")
                and not any(stmt.name in names
                            for j, names in enumerate(read) if j != i)):
            out[stmt.name] = path
    return out


def parse_sources() -> dict:
    return {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
            for path in SOURCES}


def test_every_public_name_is_reached_or_kept():
    found = unreached(parse_sources())
    assert {name: path for name, path in found.items() if name not in KEEP} == {}
    # a kept name that code starts to reach, or that is gone, leaves KEEP
    assert sorted(found) == sorted(KEEP)


@pytest.mark.parametrize("name", sorted(KEEP))
def test_every_kept_name_is_read_by_its_test(name):
    filename, function = KEEP[name].split("::")
    tree = ast.parse((ROOT / "tests" / filename).read_text())
    defs = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == function]
    assert len(defs) == 1
    assert name in references(defs[0])


def test_an_unreached_name_is_caught():
    trees = {"a.py": ast.parse(
        "def used(x):\n    return used(x - 1) if x else helper()\n"
        "def helper():\n    return 0\n"
        "class Spare:\n    pass\n"
        "def _private():\n    pass\n"),
        "b.py": ast.parse("from a import used\nTABLE = [('a', 'helper')]\n")}
    # recursion inside its own definition does not reach `used`; b's
    # import does, and the identifier string 'helper' reaches helper
    assert unreached(trees) == {"Spare": "a.py"}
    del trees["b.py"]
    assert unreached(trees) == {"used": "a.py", "Spare": "a.py"}
