"""The package's module layering, and the one home of the 0 log 0 floor, the
side check and the unit-vector rule."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twodiscord"

# a module imports only from modules of a lower layer
LAYERS = {
    "errors": 0,
    "states": 1,
    "measurement": 2,
    "serialize": 2,
    "optimize": 3,
    "entropic": 4,
    "geometric": 4,
    "verification": 5,
    "cli": 6,
}


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def _package_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_imports_go_down_the_layers(name):
    for node in _package_imports(_tree(name)):
        assert LAYERS[node.module] < LAYERS[name], f"{name} imports {node.module}"


@pytest.mark.parametrize("name", sorted(set(LAYERS) - {"entropic"}))
def test_only_entropic_takes_logarithms_at_the_floor(name):
    tree = _tree(name)
    for node in _package_imports(tree):
        assert "EIG_FLOOR" not in [a.name for a in node.names], f"{name} imports EIG_FLOOR"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            assert called != "log2", f"{name} calls log2 at line {node.lineno}"


def _defines(tree, name):
    return any(isinstance(n, ast.FunctionDef) and n.name == name for n in ast.walk(tree))


def _constructs(tree, name):
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
               for n in ast.walk(tree))


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_one_home_for_the_side_check_and_the_unit_vector_rule(name):
    tree = _tree(name)
    assert _defines(tree, "_check_side") == (name == "states")
    assert _constructs(tree, "NotUnitVectorError") == (name == "measurement")
