"""The package's module layering, and the one home of each rule the modules
share: the 0 log 0 floor, the side check, the unit-vector rule, freezing
arrays, building bases, judging convergence, the basis searches, the restart
streams, the imaginary-residue check and the Bloch products."""

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


# ---------------------------------------------------------------------------
# one home per shared rule: each test names the only function of ``src``
# allowed to apply it

def _scoped(tree):
    """(innermost enclosing function name or None, node) for every node of ``tree``."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else scope
            yield inner, child
            yield from visit(child, inner)

    yield from visit(tree, None)


def _called(node):
    """The name a Call node calls: ``f`` of f(...) and of x.f(...)."""
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _homes(test):
    """{(module, enclosing function)} of the nodes of ``src`` for which ``test`` holds."""
    return {(name, scope) for name in LAYERS for scope, node in _scoped(_tree(name))
            if test(node)}


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and _called(node) == name


def test_only_the_freezer_marks_arrays_read_only():
    assert _homes(_calls("setflags")) == {("states", "_freeze")}


def test_no_object_is_built_without_its_validation():
    def new(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and getattr(node.value, "id", None) == "object")

    assert _homes(new) == set()


def test_only_the_lockstep_loop_judges_convergence():
    def reads(node):
        return (isinstance(node, ast.Name) and node.id == "_VALUE_TOLERANCE"
                and isinstance(node.ctx, ast.Load))

    assert _homes(reads) == {("optimize", "_lockstep")}


def test_every_basis_search_goes_through_search_bases():
    assert _homes(_calls("jacobi_search")) == {("optimize", "search_bases")}


def test_one_restart_stream_generator():
    homes = _homes(_calls("default_rng"))
    assert {scope for name, scope in homes if name == "optimize"} == {"_restart_streams"}


def test_only_the_real_part_check_reports_imaginary_residue():
    def raises(node):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and _called(node.exc) == "NumericalResidueError"):
            return False
        return "imaginary" in ast.unparse(node.exc)

    assert _homes(raises) == {("states", "_real")}


def test_only_the_bloch_gram_forms_the_bloch_products():
    def products(node):
        # column_stack of Bloch data: a list holding x, T or T y of some state
        return (isinstance(node, ast.Call) and _called(node) == "column_stack"
                and any(isinstance(a, ast.Attribute) and a.attr in ("x", "t")
                        for arg in node.args for a in ast.walk(arg)))

    assert _homes(products) == {("optimize", "_bloch_gram")}
