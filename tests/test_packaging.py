"""Package metadata and module hygiene."""
import ast
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import mahlerlab


def test_version_comes_from_the_package():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        config = read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["version"] == mahlerlab.__version__


SRC = Path(mahlerlab.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    """The names bound by the module-level imports of ``path`` that the module
    never reads and does not list in ``__all__``."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used and name not in exported]


def test_no_unused_module_imports():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _unused_imports(path))
    }
    assert unused == {}


def _private_definitions(tree: ast.Module) -> list[str]:
    """The private (single leading underscore) functions, classes and
    constants that a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads: bare, as an attribute of another module, or
    imported by name (whose use the unused-import check asserts)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def test_no_unused_private_definitions():
    # nothing in the package keeps private code that only tests call
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    unused = {
        name: names
        for name, tree in trees.items()
        if (names := [n for n in _private_definitions(tree) if n not in read])
    }
    assert unused == {}


def test_no_module_imports_mpmath():
    # roots, Graeffe brackets and constants are exact ints or stored floats,
    # and the irreducibility probe proves its answers from the roots; mpmath
    # and sympy are left to the tests, as oracles
    for path in sorted(SRC.glob("*.py")):
        name, tree = path.name, ast.parse(path.read_text())
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
        assert not [m for m in modules if m.split(".")[0] in ("mpmath", "sympy")], name


def test_rounding_lives_in_the_dyadic_layer():
    # exact conversions between floats and ints are made in one module; only
    # the polynomial core holds Fractions
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name != "dyadic.py":
            assert not attrs & {"as_integer_ratio", "nextafter", "ldexp"}, path.name
            assert not names & {"nextafter", "ldexp"}, path.name
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
        assert ("fractions" in modules) == (path.name == "polycore.py"), path.name
