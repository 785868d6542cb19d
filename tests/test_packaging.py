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
